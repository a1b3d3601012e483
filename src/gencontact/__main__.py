"""``python -m gencontact``: the command-line front end of :mod:`gencontact.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
