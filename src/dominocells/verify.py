"""
Exhaustive verification suites over whole signed permutation groups.

Each suite walks every element (or every tableau) within its bounds,
checks one family of identities exactly, and returns a machine-readable
report: check name, parameters, pass/fail, summary counts, a bounded list
of counterexamples, and wall time.  Reports are deterministic apart from
the wall-time field.

`verify_tau` and `verify_conjecture`, and the CLI's `verify classes`, cut
their pieces (ranks or ratios) into two contiguous halves of about equal
cost.  For n >= 4, when the process may run on two CPUs, `_in_two` maps the
first half in one forked child while the calling process maps the second,
and each suite merges the pieces' results in their serial order, so its
report is the one a single process gives.
"""

from __future__ import annotations

import math
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cells import asymptotic_cells, class_of_tableau, combinatorial_cells
from .cycles import (
    OPPOSITE, REGULAR, _shift, core_raise, cycle_partition, move_through,
    noncore_orbit,
)
from .hecke import KLTable, WeightFunction, kl_cells
from .insertion import (
    _rank_pairs, _tableau, _uninserted, _walk, asymptotic_bitableaux, tableau_classes,
)
from .tableaux import _vertical, enhanced_tau_of_tableau, enumerate_sdt, tau_of_tableau
from .wgroup import (
    DescentSet, SignedPerm, enhanced_tau_invariant, format_perm, group_elements,
    inverse, tau_invariant,
)

__all__ = [
    "Report", "verify_insertion", "verify_tau", "verify_class_decomposition",
    "verify_conjecture", "verify_intermediate_structure",
]

COUNTEREXAMPLE_LIMIT = 10


@dataclass
class Report:
    check: str
    params: Dict
    status: str = "pass"
    counts: Dict = field(default_factory=dict)
    counterexamples: List = field(default_factory=list)
    ms: float = 0.0
    failures: Dict = field(default_factory=dict)  # kind -> failed checks

    def fail(self, counterexample) -> None:
        self.status = "fail"
        kind = counterexample["kind"]
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if len(self.counterexamples) < COUNTEREXAMPLE_LIMIT:
            self.counterexamples.append(counterexample)

    def bump(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def absorb(self, part: "Report") -> None:
        """Take in the counts and failures of `part`, a report on a later
        piece of the same check, as if they had been reported here: the
        first failure of a kind sets its place in `failures`, and `part`
        keeps the first COUNTEREXAMPLE_LIMIT of its counterexamples."""
        for key, amount in part.counts.items():
            self.bump(key, amount)
        for kind, count in part.failures.items():
            self.failures[kind] = self.failures.get(kind, 0) + count
            self.status = "fail"
        room = COUNTEREXAMPLE_LIMIT - len(self.counterexamples)
        self.counterexamples += part.counterexamples[:room]

    def to_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": self.params,
            "status": self.status,
            "counts": self.counts,
            "counterexamples": self.counterexamples,
            "ms": round(self.ms, 3),
        }
        if self.status == "fail":
            # every kind of failure, also those past the counterexample limit
            out["failures"] = self.failures
            hidden = sum(self.failures.values()) - len(self.counterexamples)
            if hidden:
                out["counterexamples_truncated"] = hidden
        return out

    def summary(self) -> str:
        status = self.status.upper()
        extras = " ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        line = f"[{status}] {self.check} {self.params} {extras} ({self.ms:.0f} ms)"
        if self.counterexamples:
            line += f"\n  first counterexample: {self.counterexamples[0]}"
        return line


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _halves(pieces: Sequence, cost: Callable) -> Tuple[list, list]:
    """`pieces` cut into a prefix and the rest where the costs of the two
    are most nearly equal."""
    sums = list(accumulate(map(cost, pieces), initial=0))
    cut = min(range(len(sums)), key=lambda i: max(sums[i], sums[-1] - sums[i]))
    return list(pieces[:cut]), list(pieces[cut:])


def _in_two(fn: Callable, first: Sequence, second: Sequence, n: int) -> list:
    """`[fn(x) for x in (*first, *second)]`.  For n >= 4, when the process
    may run on two CPUs, `first` is mapped in one forked child while this
    process maps `second`; the child sends back its results, or the
    exception it met, pickled through a pipe, and the exception is raised
    here.  Below n = 4 a suite takes tens of milliseconds, and a second
    process makes it slower."""
    if n <= 3 or not first or not second or not hasattr(os, "fork") or _cpus() < 2:
        return [fn(x) for x in (*first, *second)]
    sys.stdout.flush()  # the child inherits no unwritten output
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        _child(fn, first, read_end, write_end)
    os.close(write_end)
    reaped = False
    try:
        with open(read_end, "rb") as pipe:
            mine = [fn(x) for x in second]
            # imported after this half: its modules, 0.25-0.43 MB, would
            # otherwise add to the half's peak
            import pickle

            data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:  # this process raised, and the child's results are moot
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if not data:
        code = os.waitstatus_to_exitcode(status)
        raise RuntimeError(f"the forked child exited with status {code} and sent no result")
    done, value = pickle.loads(data)
    if not done:
        raise value
    return value + mine


def _child(fn: Callable, items: Sequence, read_end: int, write_end: int) -> None:
    """The forked child's whole life: it maps `fn` over `items`, writes the
    pickled outcome to `write_end` and leaves through `os._exit`, so none of
    the parent's code after the fork runs twice.  Its standard output and
    error, as files and as descriptors, go to the null device."""
    import pickle

    status = 1
    try:
        os.close(read_end)
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.dup2(null, 2)
        sys.stdout = sys.stderr = open(null, "w")
        try:
            data = pickle.dumps((True, [fn(x) for x in items]))
        except BaseException as exc:  # KeyboardInterrupt too: the caller raises it
            try:
                data = pickle.dumps((False, exc))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, RuntimeError(
                    f"the forked child raised {type(exc).__name__}: {exc}")))
        with open(write_end, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _timed(fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        report = fn(*args, **kwargs)
        report.ms = (time.perf_counter() - t0) * 1000.0
        return report
    return wrapper


@_timed
def verify_insertion(n: int, rmax: int) -> Report:
    """Bijectivity, roundtrips, the counting identity, bitableau agreement
    in the stable range, compatibility of the rank-raising map with
    insertion at the next rank, and, at every rank walked, the symmetry
    P(w) = Q(w^-1): the left tableau of w is the right tableau of w^-1."""
    report = Report("insertion", {"n": n, "rmax": rmax})
    elems = group_elements(n)
    order = (2 ** n) * math.factorial(n)
    report.counts["elements"] = len(elems)
    # two ranks at a time: rank r's pairs are checked against rank r + 1's,
    # and each rank's w -> pair map serves the rank-raise check one rank
    # below and the symmetry check at its own rank
    pairs, failed = _rank_pairs(elems, 0)
    by_w = dict(pairs)
    for r in range(rmax + 1):
        upper, upper_failed = _rank_pairs(elems, r + 1)
        raised = dict(upper)
        _check_symmetry(report, pairs, by_w, r)
        for w, exc in failed.items():
            report.fail({"kind": "insert", "w": format_perm(w), "r": r,
                         "error": str(exc)})
        seen = {}
        # unnamed, the raised list and the undo driver are gone before the
        # next rank's walk
        sides = ((pair.left, pair.right) for _, pair in pairs)
        for (w, pair), up, back in zip(
                pairs, _shift(sides, REGULAR), _uninserted(p for _, p in pairs)):
            key = (pair.left.rows, pair.right.rows)
            if key in seen:
                report.fail({"kind": "collision", "r": r,
                             "w": format_perm(w), "other": format_perm(seen[key])})
            seen[key] = w
            if isinstance(back, Exception):
                report.fail({"kind": "roundtrip", "w": format_perm(w), "r": r,
                             "error": str(back)})
            elif back != w:
                report.fail({"kind": "roundtrip", "w": format_perm(w), "r": r})
            if r >= n - 1:
                bit = asymptotic_bitableaux(w, r)
                if bit.left != pair.left or bit.right != pair.right:
                    report.fail({"kind": "bitableaux", "w": format_perm(w), "r": r})
            if isinstance(up, Exception):
                report.fail({"kind": "rank-raise", "w": format_perm(w), "r": r,
                             "error": str(up)})
            elif w in upper_failed:
                report.fail({"kind": "rank-raise", "w": format_perm(w), "r": r,
                             "error": str(upper_failed[w])})
            elif up != (raised[w].left, raised[w].right):
                report.fail({"kind": "rank-raise", "w": format_perm(w), "r": r})
        by_shape: Dict = {}
        for t in enumerate_sdt(n, r):
            by_shape[t.shape] = by_shape.get(t.shape, 0) + 1
        total = sum(c * c for c in by_shape.values())
        report.bump("pairs_checked", len(elems))
        if total != order:
            report.fail({"kind": "counting", "r": r, "sum": total, "order": order})
        if len(seen) != order:
            report.fail({"kind": "image-size", "r": r, "size": len(seen)})
        pairs, failed, by_w = upper, upper_failed, raised
    _check_symmetry(report, pairs, by_w, rmax + 1)
    report.counts["ranks"] = rmax + 1
    return report


def _check_symmetry(report: Report, pairs, by_w: Dict, r: int) -> None:
    """Fail each w of the rank-r `pairs` whose left tableau is not the right
    tableau of w^-1 in `by_w`; a w^-1 whose insertion failed is reported
    as such already."""
    for w, pair in pairs:
        other = by_w.get(inverse(w))
        if other is not None and other.right != pair.left:
            report.fail({"kind": "symmetry", "w": format_perm(w), "r": r})


@_timed
def verify_tau(n: int) -> Report:
    """Descent-set compatibility of elements and tableaux, invariance of the
    tableau descent set under eligible cycle moves, and the step-wise
    horizontal/vertical dichotomy of partial insertions."""
    report = Report("tau", {"n": n})
    report.counts["elements"] = len(group_elements(n))
    # rank r takes about r + 3 units: 1.2 s at rank 0 to 2.6 s at rank 6
    # for n = 6
    first, second = _halves(range(n + 1), lambda r: r + 3)
    parts = _in_two(partial(_tau_at, n), first, second, n)
    # every rank's walk checks come before any rank's cycle moves
    for walked, _ in parts:
        report.absorb(walked)
    for _, moved in parts:
        report.absorb(moved)
    return report


def _tau_at(n: int, r: int) -> Tuple[Report, Report]:
    """The checks of `verify_tau` at rank r: those on the walk, and those on
    the cycle moves."""
    walked = Report("tau", {"n": n, "rank": r})
    # one walk groups W_n by recording steps and checks the step-wise
    # dichotomy on the partial insertions of up to r + 1 values, read from
    # the live states; elements share their prefix states
    classes: Dict[tuple, List[SignedPerm]] = {}
    before: tuple = ()
    for w, states in _walk(group_elements(n), r):
        classes.setdefault(states[-1][2], []).append(w)
        for k in range(1, min(r + 1, n) + 1):
            if k < len(before) and states[k] is before[k]:
                continue  # a prefix checked with an earlier element
            _, where, steps = states[k]
            for j in range(1, k + 1):
                a = not _vertical(where[abs(w[j - 1])])
                b = not _vertical(steps[j - 1])
                if not (a == b == (w[j - 1] > 0)):
                    walked.fail({"kind": "stepwise", "w": format_perm(w),
                                 "r": r, "k": k, "j": j})
        before = states
    # each recording tableau is frozen once and its class checked against it
    for steps, ws in classes.items():
        q = _tableau(r, before[0][0], steps)
        tau = tau_of_tableau(q)
        xis = [enhanced_tau_of_tableau(q, ratio) for ratio in range(1, r + 2)]
        for w in ws:
            if tau_invariant(w) != tau:
                walked.fail({"kind": "tau", "w": format_perm(w), "r": r})
            for ratio, xi in enumerate(xis, start=1):
                mine = enhanced_tau_invariant(w, ratio)
                if mine != xi:
                    walked.fail({"kind": "xi", "w": format_perm(w), "r": r,
                                 "ratio": ratio})
            # `mine` is xi(w, r + 1) now: t_j, j <= r + 1, lies in it
            # exactly when w(j) < 0; ranks 0..n reach ratios 1..n + 1
            for j in range(1, min(r + 1, n) + 1):
                name = "t" if j == 1 else f"t{j}"
                if (name in mine.simple or name in mine.extended) == (w[j - 1] > 0):
                    walked.fail({"kind": "stepwise-xi", "w": format_perm(w),
                                 "j": j, "ratio": r + 1})
    # cycle moves preserve the descent set
    moved = Report("tau", {"n": n, "rank": r})
    moved.counts["cycle_moves"] = 0
    for t in enumerate_sdt(n, r):
        tau = tau_of_tableau(t)
        for conv in (REGULAR, OPPOSITE):
            if conv == OPPOSITE and r == 0:
                continue
            for cyc in cycle_partition(t, conv):
                if cyc.kind == "closed" and len(cyc.labels) == 2:
                    lo, hi = sorted(cyc.labels)
                    if hi == lo + 1:
                        continue
                moved.bump("cycle_moves")
                if tau_of_tableau(move_through(t, cyc.labels, conv)) != tau:
                    moved.fail({"kind": "cycle-tau",
                                "rows": [list(x) for x in t.rows],
                                "labels": sorted(cyc.labels), "conv": conv})
    return walked, moved


@_timed
def verify_class_decomposition(n: int, rank: int) -> Report:
    """For every rank-r tableau T with core-raised partner T', subsets of the
    non-core open cycles transport to opposite cycles of T' and the unions
    of recording classes agree."""
    report = Report("classes", {"n": n, "rank": rank})
    for t in enumerate_sdt(n, rank):
        report.bump("tableaux")
        t_up = core_raise(t)
        opp = [c.labels for c in cycle_partition(t_up, OPPOSITE)]
        union_low, union_high = set(), set()
        for labels, t_u in noncore_orbit(t, REGULAR):
            union_low |= class_of_tableau(t_u, n)
            if frozenset().union(frozenset(), *(g for g in opp if g & labels)) != labels:
                report.fail({"kind": "transport", "rows": [list(x) for x in t.rows],
                             "labels": sorted(labels)})
                continue
            union_high |= class_of_tableau(move_through(t_up, labels, OPPOSITE), n)
        if union_low != union_high:
            report.fail({"kind": "class-union", "rows": [list(x) for x in t.rows],
                         "low": len(union_low), "high": len(union_high)})
    return report


@_timed
def verify_conjecture(n: int, ratio, cache_dir: Optional[str] = None) -> Report:
    """Combinatorial cells equal Kazhdan-Lusztig cells at ratio b/a, all
    three sides; `ratio` may be an integer or the string 'all', ratios 1
    to max(n, 1)."""
    ratios = list(range(1, max(n, 1) + 1)) if ratio == "all" else [int(ratio)]
    report = Report("conjecture", {"n": n, "ratios": ratios})
    # a cold table at ratio r takes about n + r units: 5.2 s to 8.2 s at n = 5
    first, second = _halves(ratios, lambda rt: n + rt)
    for part in _in_two(partial(_conjecture_at, n, cache_dir), first, second, n):
        report.absorb(part)
    return report


def _conjecture_at(n: int, cache_dir: Optional[str], rt: int) -> Report:
    """The checks of `verify_conjecture` at ratio rt, all three sides."""
    report = Report("conjecture", {"n": n, "ratio": rt})
    table = KLTable(n, WeightFunction(1, rt), cache_dir=cache_dir)  # freed on return
    for side in ("L", "R", "LR"):
        comb = combinatorial_cells(n, rt - 1, side)
        kl = table.cells(side)
        report.counts[f"blocks_r{rt}_{side}"] = len(comb.blocks)
        # comb's first block that kl lacks, and kl's block of its least element
        witness = next(comb.misfits(kl), None)
        if witness:
            a, b = (sorted(map(format_perm, block))[:4] for block in witness)
            where = {"w": format_perm(min(witness[0])), "block_a": a, "block_b": b}
            report.fail({"kind": "partition", "ratio": rt, "side": side, "where": where})
    return report


@_timed
def verify_intermediate_structure(n: int, cache_dir: Optional[str] = None) -> Report:
    """Structure of the cells at ratio n-1: split and non-split elements are
    unions of left cells; split cells are asymptotic; non-split cells are
    tau-classes of non-split elements, each a union of exactly two
    asymptotic cells; equal descent sets at rank n-1 force the recording
    tableaux to agree up to the single opposite non-core cycle."""
    if n < 2:
        raise ValueError("needs n >= 2")
    report = Report("intermediate", {"n": n})
    # splitness is a property of the shape, and the insertion and recording
    # tableaux of w share theirs, so the recording classes give the split set
    split = {w for r in range(n - 1) for t, ws in tableau_classes(n, r).items()
             if t.is_split() for w in ws}
    nonsplit = set(group_elements(n)) - split
    # rank n - 2 is still in the class map's cache here
    comb = combinatorial_cells(n, n - 2, "L")
    kl = kl_cells(n, WeightFunction(1, n - 1), "L", cache_dir=cache_dir)
    asym = asymptotic_cells(n, "L")
    report.counts["kl_blocks"] = len(kl.blocks)
    report.counts["split_elements"] = len(split)
    # (i) split/non-split are unions of cells
    for block in kl.blocks:
        if block & split and block & nonsplit:
            report.fail({"kind": "mixed-block", "size": len(block)})
    # (ii) split cells are asymptotic cells
    for block, _ in kl.misfits(asym):
        if block <= split:
            report.fail({"kind": "split-not-asymptotic", "size": len(block)})
    # (iii) non-split cells = tau classes of non-split elements, two asymptotic cells each
    tau_classes: Dict[DescentSet, List[SignedPerm]] = {}
    for w in sorted(nonsplit):
        tau_classes.setdefault(tau_invariant(w), []).append(w)
    nonsplit_blocks = [b for b in kl.blocks if b <= nonsplit]
    if len(nonsplit_blocks) != len(tau_classes):
        report.fail({"kind": "tau-class-count", "cells": len(nonsplit_blocks),
                     "classes": len(tau_classes)})
    for block in nonsplit_blocks:
        # the asymptotic cells meeting the block, which must lie inside it
        parts = {asym.block_of(w) for w in block}
        if len(parts) != 2 or not all(a <= block for a in parts):
            report.fail({"kind": "not-two-asymptotic", "size": len(block)})
        if frozenset(tau_classes[tau_invariant(min(block))]) != block:
            report.fail({"kind": "tau-class-mismatch", "size": len(block)})
    # (iv) rank n-1 recording tableaux of non-split elements with equal tau
    right = {w: t for t, ws in tableau_classes(n, n - 1).items() for w in ws}
    for tau, ws in tau_classes.items():
        tabs = [right[w] for w in ws]
        reps = {t.rows for t in tabs}
        orbit = list(noncore_orbit(tabs[0], OPPOSITE))
        if [labels for labels, _ in orbit] != [frozenset(), frozenset({n})]:
            report.fail({"kind": "opp-ncc", "tau": str(tau)})
            continue
        if reps != {moved.rows for _, moved in orbit}:
            report.fail({"kind": "two-tableaux", "tau": str(tau), "count": len(reps)})
    # (v) the closing equivalence at rank n-2
    if not comb.same_partition(kl):
        report.fail({"kind": "closing-iff"})
    # cross-count emitted in the report
    split_asym = sum(a <= split for a in asym.blocks)
    report.counts["split_asymptotic_cells"] = split_asym
    report.counts["nonsplit_tau_classes"] = len(tau_classes)
    if len(kl.blocks) != split_asym + len(tau_classes):
        report.fail({"kind": "cell-count"})
    return report
