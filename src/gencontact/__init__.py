"""Chart-based numerical toolkit for generalized contact and Sasakian geometry.

The package builds structures on coordinate charts out of jet-valued
fields, deforms them (B-fields, K(kappa) deformations, cone lifts) and
verifies the defining identities numerically, reporting named residuals.
The names below are those of the README's library tour, plus ``eigenframe``,
which the benchmark harness's tracer test expects bound here as well as in
``structures``; everything else is reached through its module
(``gencontact.fields``, ``gencontact.structures``, ...).
"""

from .charts import box
from .exprs import parse_scalar
from .structures import eigenframe, gacs_check, gacs_from_contact, involutivity_class

__all__ = ["box", "parse_scalar", "gacs_from_contact", "gacs_check", "involutivity_class",
           "eigenframe"]
