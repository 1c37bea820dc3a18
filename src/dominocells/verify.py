"""
Exhaustive verification suites over whole signed permutation groups.

Each suite walks every element (or every tableau) within its bounds,
checks one family of identities exactly, and returns a machine-readable
report: check name, parameters, pass/fail, summary counts, a bounded list
of counterexamples, and wall time.  Reports are deterministic apart from
the wall-time field.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

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
    elems = group_elements(n)
    report.counts["elements"] = len(elems)
    for r in range(n + 1):
        # one walk per rank groups W_n by recording steps and checks the
        # step-wise dichotomy on the partial insertions of up to r + 1 values,
        # read from the live states; elements share their prefix states
        classes: Dict[tuple, List[SignedPerm]] = {}
        before: tuple = ()
        for w, states in _walk(elems, r):
            classes.setdefault(states[-1][2], []).append(w)
            for k in range(1, min(r + 1, n) + 1):
                if k < len(before) and states[k] is before[k]:
                    continue  # a prefix checked with an earlier element
                _, where, steps = states[k]
                for j in range(1, k + 1):
                    a = not _vertical(where[abs(w[j - 1])])
                    b = not _vertical(steps[j - 1])
                    if not (a == b == (w[j - 1] > 0)):
                        report.fail({"kind": "stepwise", "w": format_perm(w),
                                     "r": r, "k": k, "j": j})
            before = states
        # each recording tableau is frozen once and its class checked against it
        for steps, ws in classes.items():
            q = _tableau(r, before[0][0], steps)
            tau = tau_of_tableau(q)
            xis = [enhanced_tau_of_tableau(q, ratio) for ratio in range(1, r + 2)]
            for w in ws:
                if tau_invariant(w) != tau:
                    report.fail({"kind": "tau", "w": format_perm(w), "r": r})
                for ratio, xi in enumerate(xis, start=1):
                    mine = enhanced_tau_invariant(w, ratio)
                    if mine != xi:
                        report.fail({"kind": "xi", "w": format_perm(w), "r": r,
                                     "ratio": ratio})
                # `mine` is xi(w, r + 1) now: t_j, j <= r + 1, lies in it
                # exactly when w(j) < 0; ranks 0..n reach ratios 1..n + 1
                for j in range(1, min(r + 1, n) + 1):
                    name = "t" if j == 1 else f"t{j}"
                    if (name in mine.simple or name in mine.extended) == (w[j - 1] > 0):
                        report.fail({"kind": "stepwise-xi", "w": format_perm(w),
                                     "j": j, "ratio": r + 1})
    # cycle moves preserve the descent set
    moves = 0
    for r in range(n + 1):
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
                    moves += 1
                    moved = move_through(t, cyc.labels, conv)
                    if tau_of_tableau(moved) != tau:
                        report.fail({"kind": "cycle-tau",
                                     "rows": [list(x) for x in t.rows],
                                     "labels": sorted(cyc.labels), "conv": conv})
    report.counts["cycle_moves"] = moves
    return report


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
    for rt in ratios:
        # one table per ratio, released when the next one replaces it
        table = KLTable(n, WeightFunction(1, rt), cache_dir=cache_dir)
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
