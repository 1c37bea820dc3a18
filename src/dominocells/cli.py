"""
Command line interface.

    dominocells verify insertion --n 4 --rank 4
    dominocells verify conjecture --n 3 --ratio all --json out.json
    dominocells cells --n 3 --rank 1 --side L --kind comb
    dominocells insert --perm "4 1 -3 -2" --rank 2 --steps

Exit status 0 when every requested check passes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial
from typing import List

from .cells import combinatorial_cells
from .hecke import WeightFunction, kl_cells
from .insertion import insert, insertion_states
from .verify import (
    Report, _in_two, verify_class_decomposition, verify_conjecture,
    verify_insertion, verify_intermediate_structure, verify_tau,
)
from .wgroup import parse_perm

# The Kazhdan-Lusztig oracle keeps c_w for every element of W_n, 8 bytes a
# term.  At n = 5 a cold table takes 5-8 s, and `verify conjecture --ratio
# all` 28 s at a 55.1 MB peak in one process; split over two processes it
# takes 17 s, the calling process peaking at 54.5 MB and the forked child at
# 51.7 MB.  With `--cache` a warm table loads in 0.6 s at 47 MB, and the warm
# `--ratio all` run takes 1.4 s at 60.0 and 56.5 MB (2.2 s at 61.1 MB in one
# process; 2-CPU box, Python 3.11).  |W_6| = 46,080 is out of reach.
KL_MAX_N = 5
# Every suite and cell partition holds W_n: `group_elements(7)` alone peaks
# at 105 MB, so W_8 needs about 1.7 GB before any check.
MAX_N = 7


def _int_from(low: int, *words: str):
    """An argparse type: an integer >= low, or one of `words`."""
    def parse(text: str):
        if text in words:
            return text
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            expected = " or ".join([f"an integer >= {low}", *map(repr, words)])
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value
    return parse


def _order(n: int) -> str:
    """|W_n| = 2^n n!, in digits while they are few."""
    return f"{2 ** n * math.factorial(n):,}" if n <= 100 else f"2^{n} * {n}!"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dominocells",
        description="Exact domino-tableau combinatorics and Kazhdan-Lusztig cell verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument(
        "suite",
        choices=["insertion", "tau", "classes", "conjecture", "intermediate"],
    )
    ver.add_argument("--n", type=_int_from(0), required=True)
    ver.add_argument("--rank", type=_int_from(0), default=None)
    ver.add_argument("--ratio", type=_int_from(1, "all"), default=None,
                     help="integer or 'all'")
    ver.add_argument("--cache", default=None, metavar="DIR")
    ver.add_argument("--json", default=None, metavar="PATH")

    cel = sub.add_parser("cells", help="print a cell partition as JSON")
    cel.add_argument("--n", type=_int_from(0), required=True)
    cel.add_argument("--rank", type=_int_from(0), required=True)
    cel.add_argument("--side", choices=["L", "R", "LR"], default="L")
    cel.add_argument("--kind", choices=["comb", "kl"], default="comb")
    cel.add_argument("--ratio", type=_int_from(1), default=None)
    cel.add_argument("--cache", default=None, metavar="DIR")

    ins = sub.add_parser("insert", help="insert a signed permutation")
    ins.add_argument("--perm", required=True, help='"4 1 -3 -2" or [4,1,-3,-2]')
    ins.add_argument("--rank", type=_int_from(0), required=True)
    ins.add_argument("--steps", action="store_true")
    ins.add_argument("--json", default=None, metavar="PATH")

    return parser


def _out(text: str) -> None:
    """Print `text`.  Once the reader of standard output has closed it,
    standard output goes to the null device, so the run goes on: the exit
    status is the verdict's, and `--json` is still written."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def _run_verify(args) -> List[Report]:
    if args.suite == "insertion":
        rmax = args.rank if args.rank is not None else args.n
        return [verify_insertion(args.n, rmax)]
    if args.suite == "tau":
        return [verify_tau(args.n)]
    if args.suite == "classes":
        ranks = [args.rank] if args.rank is not None else list(range(args.n + 1))
        # contiguous halves: rank r reads the class maps of r and r + 1, the two cached
        return _in_two(partial(verify_class_decomposition, args.n), ranks, lambda r: 1,
                       args.n)
    if args.suite == "conjecture":
        return [verify_conjecture(args.n, args.ratio or "all", cache_dir=args.cache)]
    if args.suite == "intermediate":
        return [verify_intermediate_structure(args.n, cache_dir=args.cache)]
    raise AssertionError(args.suite)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite == "intermediate" and args.n < 2:
        parser.error("verify intermediate needs --n >= 2")
    uses_kl = (args.suite in ("conjecture", "intermediate") if args.command == "verify"
               else args.command == "cells" and args.kind == "kl")
    if args.command == "insert":
        try:
            args.perm = parse_perm(args.perm)
        except ValueError as exc:
            print(f"bad --perm: {exc}", file=sys.stderr)
            return 2
        n = len(args.perm)
    else:
        n = args.n
        verify = args.command == "verify"
        unused = {
            "rank": verify and args.suite not in ("insertion", "classes"),
            "ratio": not uses_kl or verify and args.suite == "intermediate",
            "cache": not uses_kl,
        }
        for option in (o for o, u in unused.items() if u and getattr(args, o) is not None):
            what = f"verify {args.suite}" if verify else f"cells --kind {args.kind}"
            parser.error(f"{what} does not use --{option}")
    # ranks from n - 1 on and ratios from n on all give the asymptotic case,
    # while the walk's staircase core and the table's codes grow with them
    for option, top in (("rank", n), ("ratio", n + 1)):
        value = getattr(args, option, None)
        if isinstance(value, int) and value > top:
            parser.error(f"--{option} {value} is larger than {top}, with n = {n}")
    # `cells --kind kl --rank r` is the ratio `verify conjecture` compares with rank r
    if args.command == "cells" and args.ratio not in (None, args.rank + 1):
        parser.error(f"--rank {args.rank} means --ratio {args.rank + 1}, not {args.ratio}")
    if uses_kl and n > KL_MAX_N:
        parser.error(
            f"--n {n} is too large for the Kazhdan-Lusztig oracle: "
            f"|W_{n}| = {_order(n)} elements; it stops at n = {KL_MAX_N}"
        )
    if args.command != "insert" and n > MAX_N:
        parser.error(
            f"--n {n} is too large: |W_{n}| = {_order(n)} elements; "
            f"{args.command} stops at n = {MAX_N}"
        )
    # paths the run writes to are refused before anything runs
    out, cache = getattr(args, "json", None), getattr(args, "cache", None)
    if out and (os.path.isdir(out) or not os.path.isdir(os.path.dirname(out) or ".")):
        parser.error(f"--json {out}: a file cannot be written there")
    while cache and not os.path.exists(cache):  # the longest part that exists
        cache = os.path.dirname(cache)
    if cache and not os.path.isdir(cache):
        parser.error(f"--cache {args.cache}: {cache} is not a directory")

    if args.command == "verify":
        reports = _run_verify(args)
        for report in reports:
            _out(report.summary())
        if args.json:
            payload = [r.to_dict() for r in reports]
            with open(args.json, "w") as fh:
                json.dump(payload[0] if len(payload) == 1 else payload, fh, indent=2)
        return 0 if all(r.status == "pass" for r in reports) else 1

    if args.command == "cells":
        if args.kind == "comb":
            part = combinatorial_cells(args.n, args.rank, args.side)
        else:
            part = kl_cells(
                args.n, WeightFunction(1, args.rank + 1), args.side, cache_dir=args.cache
            )
        _out(part.to_json())
        return 0

    if args.command == "insert":
        w = args.perm
        if args.steps:
            states = insertion_states(w, args.rank)
            for k, pair in enumerate(states):
                _out(f"step {k}:")
                _out(pair.left.pretty())
                _out(pair.right.pretty())
            payload = {
                "perm": list(w),
                "rank": args.rank,
                "steps": [
                    {"left": [list(r) for r in s.left.rows],
                     "right": [list(r) for r in s.right.rows]}
                    for s in states
                ],
            }
        else:
            pair = insert(w, args.rank)
            _out(pair.left.pretty())
            _out(pair.right.pretty())
            payload = {
                "perm": list(w),
                "rank": args.rank,
                "left": [list(r) for r in pair.left.rows],
                "right": [list(r) for r in pair.right.rows],
            }
        if args.json:
            with open(args.json, "w") as fh:
                json.dump(payload, fh, indent=2)
        else:
            _out(json.dumps(payload))
        return 0

    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
