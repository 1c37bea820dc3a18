"""
Acceptance criteria, one test per criterion, each printing a pass/fail
line with its wall time.  Exact equalities throughout; the per-criterion
time budgets are asserted as stated.
"""

import random
import time

from dominocells.cycles import (
    OPPOSITE, REGULAR, cycle_partition, extended_cycles, move_through,
    moved_domino, raise_rank,
)
from dominocells.hecke import KLTable, WeightFunction, kl_cells
from dominocells.insertion import insert
from dominocells.tableaux import DominoTableau, enumerate_sdt
from dominocells.verify import (
    verify_class_decomposition, verify_conjecture, verify_insertion,
    verify_intermediate_structure, verify_tau,
)
from hecke_oracles import bar, poly_is_strictly_negative, t_multiply_left_word
from wgroup_oracles import is_nonsplit, split_ranks

W = (4, 1, -3, -2)

_INSERTION_REPORTS = {}


def _insertion_report(n):
    if n not in _INSERTION_REPORTS:
        _INSERTION_REPORTS[n] = verify_insertion(n, n)
    return _INSERTION_REPORTS[n]


def _finish(number, label, failures, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number} ({label}): {status} in {elapsed:.1f}s"
          + (f" - {len(failures)} failed sub-checks" if failures else ""))
    assert not failures, f"criterion {number}: {failures}"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s: {elapsed:.1f}s"


def test_c01_insertion_fixtures():
    t0 = time.perf_counter()
    failures = []
    fixtures = {
        0: ([[1, 1, 4], [2, 3, 4], [2, 3]], [[1, 1, 4], [2, 2, 4], [3, 3]]),
        1: ([[0, 1, 1], [2, 3, 4], [2, 3, 4]], [[0, 1, 1], [2, 2, 4], [3, 3, 4]]),
        2: ([[0, 0, 1, 1], [0, 3, 4], [2, 3, 4], [2]],
            [[0, 0, 1, 1], [0, 2, 2], [3, 4, 4], [3]]),
        3: ([[0, 0, 0, 1, 1], [0, 0, 4, 4], [0, 3], [2, 3], [2]],
            [[0, 0, 0, 1, 1], [0, 0, 2, 2], [0, 4], [3, 4], [3]]),
    }
    for r, (left, right) in fixtures.items():
        pair = insert(W, r)
        if [list(x) for x in pair.left.rows] != left:
            failures.append(f"left r={r}")
        if [list(x) for x in pair.right.rows] != right:
            failures.append(f"right r={r}")
    lifted = raise_rank(insert(W, 2))
    if [list(x) for x in lifted.right.rows] != fixtures[3][1]:
        failures.append("rank-3 fixture not confirmed by the rank-raising map")
    _finish(1, "insertion fixtures", failures, t0, budget=1.0)


def test_c02_cycle_fixtures():
    t0 = time.perf_counter()
    failures = []
    s2 = DominoTableau(2, ((0, 0, 1, 1), (0, 3, 4), (2, 3, 4), (2,)))
    t2 = DominoTableau(2, ((0, 0, 1, 1), (0, 2, 2), (3, 4, 4), (3,)))

    def check(name, got, expected):
        if got != expected:
            failures.append(f"{name}: computed {got!r}, fixture {expected!r}")

    parts = lambda t, conv: {tuple(sorted(c.labels)) for c in cycle_partition(t, conv)}
    check("left regular partition", parts(s2, REGULAR), {(1,), (2,), (3,), (4,)})
    check("right regular partition", parts(t2, REGULAR), {(1,), (2,), (3,), (4,)})
    check("left opposite partition", parts(s2, OPPOSITE), {(1,), (2,), (3, 4)})
    # Opposite relocations of t2 derived by hand from the rule in the
    # dominocells.cycles docstring (fixed squares have i + j even): 3 > T(2,2)
    # pivots domino 3 right onto (3,2), which domino 4 holds; T(2,4) is beyond
    # the shape, so domino 4 pivots up onto (2,3), which domino 2 holds.
    check("right opposite D'(3)", moved_domino(t2, 3, OPPOSITE),
          frozenset({(3, 1), (3, 2)}))
    check("right opposite D'(4)", moved_domino(t2, 4, OPPOSITE),
          frozenset({(2, 3), (3, 3)}))
    # D'(3) overlaps D(4) and D'(4) overlaps D(2), so 2, 3 and 4 share one
    # cycle.  An earlier fixture {(1,), (2, 4), (3,)} could not hold under
    # either convention; it repeated the regular extended right groups
    # checked below ("pair extension right").
    check("right opposite partition", parts(t2, OPPOSITE), {(1,), (2, 3, 4)})
    check(
        "left core move",
        move_through(s2, {1, 2, 3}, REGULAR).rows,
        ((0, 0, 0, 1, 1), (0, 0, 4), (0, 3, 4), (2, 3), (2,)),
    )
    check(
        "left extended move",
        move_through(s2, {1, 2, 3, 4}, REGULAR).rows,
        ((0, 0, 0, 1, 1), (0, 0, 4, 4), (0, 3), (2, 3), (2,)),
    )
    check(
        "right core move",
        move_through(t2, {1, 2, 3}, REGULAR).rows,
        ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4, 4), (3,), (3,)),
    )
    check(
        "right extended move",
        move_through(t2, {1, 2, 3, 4}, REGULAR).rows,
        ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4), (3, 4), (3,)),
    )
    ext = extended_cycles(s2, t2)
    check("pair extension left", set(ext.left_groups),
          {frozenset({1}), frozenset({2}), frozenset({3, 4})})
    check("pair extension right", set(ext.right_groups),
          {frozenset({1}), frozenset({2, 4}), frozenset({3})})

    s41 = DominoTableau(2, ((0, 0, 1, 1, 4, 4), (0, 3, 3, 5, 5), (2,), (2,)))
    t41 = DominoTableau(2, ((0, 0, 3, 3, 4, 4), (0, 2, 2, 5, 5), (1,), (1,)))
    ext5 = extended_cycles(s41, t41)
    check("n=5 extension left", set(ext5.left_groups),
          {frozenset({1, 4}), frozenset({2}), frozenset({3, 5})})
    check("n=5 extension right", set(ext5.right_groups),
          {frozenset({1}), frozenset({2, 5}), frozenset({3, 4})})
    check("n=5 raised left",
          move_through(s41, frozenset().union(*ext5.left_groups), REGULAR).rows,
          ((0, 0, 0, 1, 1, 4, 4), (0, 0, 3, 3, 5, 5), (0,), (2,), (2,)))
    check("n=5 raised right",
          move_through(t41, frozenset().union(*ext5.right_groups), REGULAR).rows,
          ((0, 0, 0, 3, 3, 4, 4), (0, 0, 2, 2, 5, 5), (0,), (1,), (1,)))
    _finish(2, "cycle fixtures", failures, t0, budget=1.0)


def test_c03_rank_raising_theorem():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4, 5):
        report = _insertion_report(n)
        bad = [c for c in report.counterexamples if c.get("kind") == "rank-raise"]
        if bad:
            failures.append({"n": n, "examples": bad[:3]})
    _finish(3, "rank-raising matches insertion, n<=5", failures, t0, budget=60.0)


def test_c04_bijectivity_and_counting():
    t0 = time.perf_counter()
    failures = []
    kinds = {"insert", "collision", "roundtrip", "bitableaux", "counting",
             "image-size", "symmetry"}
    for n in (1, 2, 3, 4, 5):
        report = _insertion_report(n)
        bad = [c for c in report.counterexamples if c.get("kind") in kinds]
        if bad:
            failures.append({"n": n, "examples": bad[:3]})
    _finish(4, "bijectivity and counting, n<=5", failures, t0, budget=60.0)


def test_c05_descent_suite():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4, 5):
        report = verify_tau(n)
        if report.status != "pass":
            failures.append({"n": n, "examples": report.counterexamples[:3]})
    _finish(5, "descent sets under insertion and cycle moves, n<=5",
            failures, t0, budget=120.0)


def test_c06_class_decomposition():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        for r in range(n + 1):
            report = verify_class_decomposition(n, r)
            if report.status != "pass":
                failures.append({"n": n, "r": r,
                                 "examples": report.counterexamples[:3]})
    _finish(6, "class decompositions across one rank, n<=4", failures, t0,
            budget=120.0)


def test_c07_split_stratification():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4, 5, 6):
        for w, r in split_ranks(n).items():
            if (r == n - 1) != is_nonsplit(w):
                failures.append({"n": n, "w": w})
                break
    _finish(7, "split stratification, n<=6", failures, t0, budget=60.0)


def test_c08_cells_conjecture():
    t0 = time.perf_counter()
    failures = []
    for n in (1, 2, 3, 4):
        report = verify_conjecture(n, "all")
        if report.status != "pass":
            failures.append({"n": n, "examples": report.counterexamples[:3]})
    _finish(8, "combinatorial cells equal Kazhdan-Lusztig cells, n<=4",
            failures, t0, budget=600.0)


def test_c09_intermediate_structure():
    t0 = time.perf_counter()
    failures = []
    for n in (3, 4):
        report = verify_intermediate_structure(n)
        if report.status != "pass":
            failures.append({"n": n, "examples": report.counterexamples[:3]})
    _finish(9, "intermediate cell structure, n in {3,4}", failures, t0,
            budget=600.0)


def test_c10_property_suites():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(2024)

    # moving-through involution on sampled tableaux
    pool = [t for n in (2, 3, 4) for r in (0, 1, 2) for t in enumerate_sdt(n, r)]
    for t in rng.sample(pool, 120):
        for conv in (REGULAR, OPPOSITE):
            for cyc in cycle_partition(t, conv):
                if move_through(move_through(t, cyc.labels, conv),
                                cyc.labels, conv) != t:
                    failures.append({"kind": "involution", "rows": t.rows})

    # bar involutivity on random algebra elements, n <= 3
    for n in (2, 3):
        table = KLTable(n, WeightFunction(1, 2))
        for _ in range(10):
            h = {w: {rng.randint(-2, 2): rng.randint(1, 4)}
                 for w in rng.sample(table.elements, 3)}
            if bar(table, bar(table, h)) != h:
                failures.append({"kind": "bar", "n": n})

    # unitriangularity and bar invariance of the canonical basis
    for n in (1, 2, 3):
        for ratio in range(1, n + 1):
            table = KLTable(n, WeightFunction(1, ratio))
            table.all_kl_basis()
            for w in table.elements:
                cw = table.kl_basis(w)
                if cw[w] != {0: 1} or any(
                    not poly_is_strictly_negative(c)
                    for y, c in cw.items() if y != w
                ):
                    failures.append({"kind": "unitriangular", "n": n, "w": w})
                if bar(table, cw) != cw:
                    failures.append({"kind": "bar-invariance", "n": n, "w": w})
    table4 = KLTable(4, WeightFunction(1, 3))
    table4.all_kl_basis()
    for w in rng.sample(table4.elements, 24):
        cw = table4.kl_basis(w)
        if bar(table4, cw) != cw:
            failures.append({"kind": "bar-invariance", "n": 4, "w": w})

    # cells depend only on the parameter ratio
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            one = kl_cells(n, WeightFunction(1, k), "L")
            two = kl_cells(n, WeightFunction(2, 2 * k), "L")
            if not one.same_partition(two):
                failures.append({"kind": "ratio", "n": n, "k": k})

    # associativity spot checks in the standard basis
    for n in (2, 3):
        table = KLTable(n, WeightFunction(1, 2))
        for _ in range(6):
            u, v, w = (rng.choice(table.elements) for _ in range(3))
            t_vw = t_multiply_left_word(table, v, {w: {0: 1}})
            left = t_multiply_left_word(table, u, t_vw)
            t_uv = t_multiply_left_word(table, u, {v: {0: 1}})
            right = {}
            for y, coef in t_uv.items():
                for z, c2 in t_multiply_left_word(table, y, {w: {0: 1}}).items():
                    cur = right.setdefault(z, {})
                    for ee, cc in _pmul(coef, c2).items():
                        s = cur.get(ee, 0) + cc
                        if s:
                            cur[ee] = s
                        else:
                            del cur[ee]
                    if not cur:
                        del right[z]
            if left != right:
                failures.append({"kind": "associativity", "n": n})
    _finish(10, "property suites with fixed seeds", failures, t0, budget=120.0)


def _pmul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out
