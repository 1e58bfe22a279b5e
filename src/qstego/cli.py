"""Command-line entry point.

There is one subcommand ``qstego GROUP KIND`` per experiment kind
"GROUP/KIND" of the experiment registry; ``qstego GROUP --help`` lists the
kinds of a group.

Common flags: --config PATH (JSON), --seed N (overrides the config seed), --out
DIR (default "."), --csv / --json (default: write both). Exit code 0 iff every
pass/fail flag in the run is true, 1 on a failed flag, 2 on a config error
(malformed JSON with a line-anchored diagnostic; a NaN, an infinity or a
number beyond the largest float; a missing, wrong-typed, out-of-range or
unknown key at any level of the config, named in the message with its path,
an unknown one before a missing one; an integer key takes a JSON integer, a
number key a JSON integer or float, and neither a bool or a string; a number
lies in the range its parameter's annotation declares, a seed from the config
or --seed at least 0; a list is non-empty, each entry read by the same rule),
3 on a numerical failure of a linear-algebra routine and 4 on any other
exception, a bug, whose traceback is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback
from pathlib import Path

import numpy as np

from .experiments import RUNNERS, run_and_write


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qstego", description=__doc__)
    groups = parser.add_subparsers(dest="group", required=True)
    kinds = {}
    for name in RUNNERS:
        group, kind = name.split("/")
        if group not in kinds:
            kinds[group] = groups.add_parser(group).add_subparsers(dest="kind", required=True)
        kp = kinds[group].add_parser(kind)
        kp.add_argument("--config", required=True, help="JSON experiment config")
        kp.add_argument("--seed", type=int, default=None, help="override config seed")
        kp.add_argument("--out", default=".", help="output directory")
        kp.add_argument("--csv", action="store_true", help="write only the CSV table")
        kp.add_argument("--json", action="store_true", help="write only the JSON summary")
    return parser


def _finite(text):
    """A JSON float or ``NaN``/``Infinity`` as a float, which must be finite (``1e400`` is not)."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    path = Path(args.config)
    try:
        config = json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        print(f"{path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    except ValueError as exc:  # NaN, (-)Infinity or an overflowing float, which JSON does not have
        print(f"{path}: invalid config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print(f"{path}:1:1: config must be a JSON object", file=sys.stderr)
        return 2
    kind = f"{args.group}/{args.kind}"
    declared = config.get("kind")
    if declared is not None and declared != kind:
        print(f"{path}:1:1: config kind {declared!r} does not match command {kind!r}", file=sys.stderr)
        return 2
    config = dict(config)
    config["kind"] = kind
    write_csv = args.csv or not args.json
    write_json = args.json or not args.csv
    try:
        result, paths = run_and_write(
            config,
            args.out,
            name=path.stem,
            seed=args.seed,
            csv=write_csv,
            summary_json=write_json,
        )
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so caught first
        print(f"{path}: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"{path}: invalid config: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4
    for p in paths:
        print(p)
    for flag, ok in result.flags.items():
        print(f"{flag}: {'pass' if ok else 'FAIL'}")
    return 0 if result.all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
