"""Command-line front end: verify configs, run gallery entries, apply pipelines.

Exit codes: 0 all requested checks pass, 1 at least one check fails,
2 usage / parse / IO errors and structures whose data turns out invalid
while a check evaluates them.  Reports serialize deterministically for a
fixed seed; wall time goes to stderr, not into the report file.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import gallery as G
from .config import ConfigError, count, load_json, parse_config, run_checks, tolerance
from .report import ResidualReport
from .structures import StructureError

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _read_config(path):
    """The JSON value of a config file; an unreadable file or invalid JSON is a ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise ConfigError(str(err)) from None
    return load_json(text)


def _write(path, payload: str, what: str) -> bool:
    """Write ``payload`` and a newline to ``path``; on failure print why and return False."""
    try:
        Path(path).write_text(payload + "\n", encoding="utf-8")
    except OSError as err:
        print(f"error: cannot write {what}: {err}", file=sys.stderr)
        return False
    return True


def _emit(rep: ResidualReport, cfg_meta: dict, out_path, started: float) -> int:
    if out_path and not _write(out_path, rep.to_json(**cfg_meta), "report"):
        return EXIT_USAGE
    print(rep.summary())
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _override(cfg, args):
    """Apply --seed, --samples and --tol, held to the rules of the config keys."""
    if args.seed is not None:
        cfg.seed = count(args.seed, "--seed", 0)
    if args.samples is not None:
        cfg.samples = count(args.samples, "--samples", 1)
    if args.tol is not None:
        tol = tolerance(args.tol, "--tol")
        for c in cfg.checks:
            cfg.tolerances[c] = tol


def cmd_verify(args) -> int:
    started = time.monotonic()
    try:
        cfg = parse_config(_read_config(args.config))
        _override(cfg, args)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    out = args.out or cfg.out
    if not cfg.checks:
        print("error: no checks requested", file=sys.stderr)
        return EXIT_USAGE
    try:
        rep = run_checks(cfg)
    except (ConfigError, StructureError) as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return EXIT_USAGE
    meta = {"seed": cfg.seed, "samples": cfg.samples, "checks": cfg.checks}
    return _emit(rep, meta, out, started)


def cmd_gallery(args) -> int:
    if args.action == "list":
        for e in G.ENTRIES:
            print(f"{e.name}: {e.description}")
        return EXIT_PASS
    # run
    name = args.name
    if name is None:
        print("error: gallery run needs an entry name", file=sys.stderr)
        return EXIT_USAGE
    try:
        entry = G.entry(name)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    golden = args.checks is None
    checks = args.checks.split(",") if args.checks else sorted(entry.expected)
    started = time.monotonic()
    try:
        cfg = parse_config({"gallery": name, "checks": checks})
        _override(cfg, args)
        rep = run_checks(cfg)
    except (ConfigError, StructureError) as err:
        print(f"error: {name}: {err}", file=sys.stderr)
        return EXIT_USAGE
    meta = {"seed": cfg.seed, "samples": cfg.samples, "checks": cfg.checks, "gallery": name}
    if not golden:
        return _emit(rep, meta, args.out, started)
    # with no explicit checks, reproduce the entry's expected-verdict table
    mismatches = []
    for check in checks:
        rows = [r for r in rep.rows if r.name.startswith(f"{check}: ") and r.passed is not None]
        actual = all(r.passed for r in rows)
        expected = entry.expected[check]
        flag = "ok" if actual == expected else "MISMATCH"
        print(f"{check}: expected {'pass' if expected else 'fail'}, "
              f"got {'pass' if actual else 'fail'} [{flag}]")
        if actual != expected:
            mismatches.append(check)
    meta["expected"] = {k: entry.expected[k] for k in checks}
    if args.out and not _write(args.out, rep.to_json(**meta), "report"):
        return EXIT_USAGE
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_PASS if not mismatches else EXIT_FAIL


def cmd_deform(args) -> int:
    started = time.monotonic()
    try:
        obj = _read_config(args.config)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if not isinstance(obj, dict):
            raise ConfigError("$: top level must be an object")
        cfg = parse_config({**obj, "checks": obj.get("checks", ["fgacs"])})
        rep = run_checks(cfg)
    except (ConfigError, StructureError) as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return EXIT_USAGE
    result = {
        "structure": cfg.structure,
        "apply": cfg.apply,
        "validation": rep.to_dict(),
    }
    payload = json.dumps(result, indent=2, sort_keys=True)
    out = args.out or cfg.out
    if not out:
        print(payload)
    elif not _write(out, payload, "structure"):
        return EXIT_USAGE
    print(f"wall time: {time.monotonic() - started:.2f}s", file=sys.stderr)
    return EXIT_PASS if rep.passed else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gencontact",
        description="Construct, deform and numerically verify generalized contact structures.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the checks of a JSON configuration")
    v.add_argument("config")
    v.add_argument("--seed", type=int)
    v.add_argument("--samples", type=int)
    v.add_argument("--tol", type=float)
    v.add_argument("--out")
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("gallery", help="list entries, or reproduce an entry's expected verdicts")
    g.add_argument("action", choices=["list", "run"])
    g.add_argument("name", nargs="?")
    g.add_argument("--checks", help="comma-separated check names")
    g.add_argument("--seed", type=int)
    g.add_argument("--samples", type=int)
    g.add_argument("--tol", type=float)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gallery)

    d = sub.add_parser("deform", help="apply a deformation pipeline, write the recipe")
    d.add_argument("config")
    d.add_argument("--out")
    d.set_defaults(fn=cmd_deform)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
