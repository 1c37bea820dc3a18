import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
from functools import lru_cache

import pytest

import dominocells
import dominocells.cycles as cycles_mod
import dominocells.insertion as insertion_mod
import dominocells.verify as verify_mod
from dominocells.cells import CellPartition, combinatorial_cells
from dominocells.cli import _build_parser, main
from dominocells.hecke import KLTable, WeightFunction, kl_cells
from dominocells.insertion import insert
from dominocells.tableaux import DominoTableau, TableauError, TableauPair, enumerate_sdt
from dominocells.verify import (
    Report, verify_class_decomposition, verify_conjecture, verify_insertion,
    verify_intermediate_structure, verify_tau,
)
from dominocells.wgroup import DescentSet, format_perm, group_elements, parse_perm


@pytest.fixture
def fresh_relocations():
    """Keep relocation passes made under a patched rule out of other tests."""
    cycles_mod._relocate.cache_clear()
    yield
    cycles_mod._relocate.cache_clear()


def test_verify_insertion_passes_small():
    report = verify_insertion(2, 2)
    assert report.status == "pass"
    assert report.counts["elements"] == 8
    data = report.to_dict()
    # a passing report has no failure counts
    assert set(data) == {"check", "params", "status", "counts", "counterexamples", "ms"}


def test_verify_insertion_reports_an_injected_fault(monkeypatch, fresh_relocations):
    healthy = cycles_mod._pivot

    def corrupted(cells, k, squares, parity):
        moved = healthy(cells, k, squares, parity)
        if k == 2:
            (fix,) = (sq for sq in squares if sum(sq) % 2 == parity)
            (var,) = moved - {fix}
            i, j = fix
            for alt in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if alt != var and alt[0] >= 1 and alt[1] >= 1:
                    return frozenset({fix, alt})
        return moved

    monkeypatch.setattr(cycles_mod, "_pivot", corrupted)
    report = verify_insertion(2, 1)
    assert report.status == "fail"
    assert report.counterexamples
    assert any(c.get("kind") == "rank-raise" for c in report.counterexamples)


def test_verify_insertion_reports_a_count_of_tableaux_that_misses_one(monkeypatch):
    healthy = verify_mod.enumerate_sdt
    monkeypatch.setattr(verify_mod, "enumerate_sdt",
                        lambda n, rank: list(healthy(n, rank))[1:])
    report = verify_insertion(2, 1)
    assert report.failures == {"counting": 2}
    assert [c["r"] for c in report.counterexamples] == [0, 1]


def test_verify_insertion_reports_a_failing_move_for_every_pair_reading_it(monkeypatch):
    # the re-cut of one moved map of rank 1 fails; healthy code beforehand
    # finds the pairs whose extended cycles move a side onto that map
    pairs, _, _ = insertion_mod._rank_pairs(group_elements(2), 1)
    readers = {}
    for w, pair in pairs.items():
        ext = cycles_mod.extended_cycles(pair.left, pair.right)
        for t, groups in ((pair.left, ext.left_groups), (pair.right, ext.right_groups)):
            moved = cycles_mod.move_through(t, frozenset().union(*groups), cycles_mod.REGULAR)
            readers.setdefault(tuple(sorted(moved.cells().items())), set()).add(format_perm(w))
    target, ws = max(readers.items(), key=lambda item: len(item[1]))
    assert len(ws) == 3
    healthy = cycles_mod._normalized
    recuts = []

    def failing(cells, rank):
        if rank == 2 and tuple(sorted(cells.items())) == target:
            recuts.append(cells)
            raise cycles_mod.TableauError("injected re-cut failure")
        return healthy(cells, rank)

    with monkeypatch.context() as patched:
        patched.setattr(cycles_mod, "_normalized", failing)
        report = verify_insertion(2, 2)
    # met and reported by each of its readers; every check still ran
    assert len(recuts) == len(ws)
    assert report.counterexamples == [
        {"kind": "rank-raise", "w": format_perm(w), "r": 1,
         "error": "injected re-cut failure"}
        for w in pairs if format_perm(w) in ws
    ]
    assert report.counts["pairs_checked"] == 24
    # nothing of the faulty run outlives it
    assert verify_insertion(2, 2).status == "pass"


def test_verify_insertion_reports_moved_shapes_that_do_not_match(monkeypatch):
    # the right side of one rank-1 pair is linked to no extended cycle, so
    # only its left side moves and the moved shapes disagree
    pairs, _, _ = insertion_mod._rank_pairs(group_elements(2), 1)
    w, pair = list(pairs.items())[3]
    healthy = cycles_mod._link

    def one_sided(*rels):
        groups = healthy(*rels)
        if [rel.cells for rel in rels] == [pair.left.cells(), pair.right.cells()]:
            groups[1] = ()
        return groups

    error = "extended cycles failed to match the moved shapes"
    with monkeypatch.context() as patched:
        patched.setattr(cycles_mod, "_link", one_sided)
        with pytest.raises(cycles_mod.TableauError, match=error):
            cycles_mod.extended_cycles(pair.left, pair.right)
        with pytest.raises(cycles_mod.TableauError, match=error):
            cycles_mod.raise_rank(pair)
        report = verify_insertion(2, 2)
    assert report.counterexamples == [
        {"kind": "rank-raise", "w": format_perm(w), "r": 1, "error": error}]
    assert report.counts["pairs_checked"] == 24
    assert verify_insertion(2, 2).status == "pass"


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_verify_insertion_reports_a_broken_symmetry(monkeypatch, rank):
    # one pair of the rank gets the left tableau of another pair of its
    # shape; ranks 0 and 2 are the first and the last that the run walks
    healthy = verify_mod._rank_pairs
    swapped = []

    def one_swapped(ws, r, **undo):
        pairs, failed, undone = healthy(ws, r, **undo)
        for w, pair in pairs.items() if r == rank else ():
            others = [p.left for p in pairs.values()
                      if p.left.shape == pair.left.shape and p.left != pair.left]
            if others:
                pairs[w] = TableauPair(others[0], pair.right)
                swapped.append(w)
                break
        return pairs, failed, undone

    monkeypatch.setattr(verify_mod, "_rank_pairs", one_swapped)
    report = verify_insertion(2, 1)
    (w,) = swapped
    assert report.failures["symmetry"] == 1
    assert {"kind": "symmetry", "w": format_perm(w), "r": rank} in report.counterexamples


def test_verify_insertion_reports_two_elements_sharing_a_pair(monkeypatch):
    # at rank 1 the second element of the map gets the first one's pair, so
    # the rank's image holds 7 of the 8 pairs
    healthy = verify_mod._rank_pairs
    shared = []

    def collided(ws, r, **undo):
        pairs, failed, undone = healthy(ws, r, **undo)
        if r == 1:
            first, second = list(pairs)[:2]
            pairs[second] = pairs[first]
            shared.extend((first, second))
        return pairs, failed, undone

    monkeypatch.setattr(verify_mod, "_rank_pairs", collided)
    report = verify_insertion(2, 2)
    first, second = shared
    assert {"kind": "collision", "r": 1, "w": format_perm(second),
            "other": format_perm(first)} in report.counterexamples
    assert report.failures["collision"] == 1
    assert {"kind": "image-size", "r": 1, "size": 7} in report.counterexamples


def _swapped_labels(t):
    """t with labels 1 and 2 exchanged."""
    return DominoTableau(t.rank, tuple(tuple({1: 2, 2: 1}.get(x, x) for x in row)
                                       for row in t.rows))


def test_verify_insertion_reports_a_non_standard_left_tableau_once_per_pair(monkeypatch):
    # every pair of rank 1 holding the chosen left tableau gets the same
    # copy with labels 1 and 2 exchanged in the row holding both; each of
    # those pairs fails its roundtrip with the copy's check error
    healthy = verify_mod._rank_pairs
    pairs, _, _ = healthy(group_elements(3), 1)
    holders = {}
    for w, pair in pairs.items():
        if any(1 in row and 2 in row for row in pair.left.rows):
            holders.setdefault(pair.left, []).append(w)
    chosen, victims = max(holders.items(), key=lambda item: len(item[1]))
    bad = _swapped_labels(chosen)
    with pytest.raises(TableauError, match="decreases") as error:
        bad.check_standard(strict_core=False)
    assert len(victims) > 1

    def non_standard(ws, r, **undo):
        pairs, failed, undone = healthy(ws, r, **undo)
        if r == 1:
            pairs = {w: TableauPair(bad, pair.right) if pair.left == chosen else pair
                     for w, pair in pairs.items()}
        return pairs, failed, undone

    monkeypatch.setattr(verify_mod, "_rank_pairs", non_standard)
    report = verify_insertion(3, 1)
    assert report.failures["roundtrip"] == len(victims)
    for c in report.counterexamples:
        if c["kind"] == "roundtrip":
            assert c["r"] == 1 and c["error"] == str(error.value)
            assert parse_perm(c["w"]) in victims


def test_verify_insertion_ties_each_frozen_pair_to_the_walk(monkeypatch):
    # one standard tableau of rank 1 freezes as another of its shape, which
    # passes `check_standard`, so only the tie between the frozen pairs and
    # the walk's state fails the elements holding it, on either side
    pairs, _, _ = insertion_mod._rank_pairs(group_elements(3), 1)
    by_shape = {}
    for t in enumerate_sdt(3, 1):
        by_shape.setdefault(t.shape, []).append(t)
    chosen, other = next(same for same in by_shape.values() if len(same) > 1)[:2]
    other.check_standard(strict_core=False)
    holders = {format_perm(w) for w, pair in pairs.items()
               if chosen in (pair.left, pair.right)}
    assert len(holders) > 1
    healthy = insertion_mod._tableau

    def mistaken(rank, dominos):
        t = healthy(rank, dominos)
        return other if t == chosen else t

    monkeypatch.setattr(insertion_mod, "_tableau", mistaken)
    report = verify_insertion(3, 3)
    assert report.status == "fail"
    assert report.failures["roundtrip"] == len(holders)
    for c in report.counterexamples:
        if c["kind"] == "roundtrip":
            assert c["r"] == 1 and c["w"] in holders


def test_undoing_minus_two_as_two_fails_what_undoing_each_pair_failed(monkeypatch):
    # the undo of any step that inserted -2 gives 2 when two dominos are
    # left: the 8 elements with w(2) = -2 fail at each of ranks 0-3, each
    # once, 32 in all, as when each pair was undone from its last step
    healthy = insertion_mod._undo_step

    def misread(cells, dominos, shape, added):
        two_left = len(dominos) == 2
        value, shape = healthy(cells, dominos, shape, added)
        return (2 if two_left and value == -2 else value), shape

    monkeypatch.setattr(insertion_mod, "_undo_step", misread)
    report = verify_insertion(3, 3)
    assert report.failures == {"roundtrip": 32}
    assert len(report.counterexamples) == 10
    for c in report.counterexamples:
        assert parse_perm(c["w"])[1] == -2
        assert c["error"] == "step 2 undoes to 2, not -2"


def test_verify_insertion_checks_each_left_tableau_once_per_rank(monkeypatch):
    checked = []
    healthy = DominoTableau.check_standard

    def counted(self, strict_core=True):
        if not strict_core:  # the counting check enumerates with the strict core
            checked.append(self)
        return healthy(self, strict_core)

    monkeypatch.setattr(DominoTableau, "check_standard", counted)
    report = verify_insertion(3, 3)
    assert report.status == "pass"
    expected = [{pair.left
                 for pair in insertion_mod._rank_pairs(group_elements(3), r)[0].values()}
                for r in range(4)]
    assert [len(s) for s in expected] == [20, 20, 20, 20]
    assert len(checked) == sum(map(len, expected))
    assert [{t for t in checked if t.rank == r} for r in range(4)] == expected


def test_verify_insertion_reads_each_right_tableau_once_per_rank(monkeypatch):
    # the walk ties each distinct recording tableau to the recorded steps
    # by reading its dominos once; ranks 0-3 are checked, and rank 4 is
    # walked for the rank-raise check of rank 3
    expected = [{pair.right
                 for pair in insertion_mod._rank_pairs(group_elements(3), r)[0].values()}
                for r in range(5)]
    assert [len(s) for s in expected] == [20, 20, 20, 20, 20]
    read = []
    healthy = DominoTableau.dominos.fget

    def counted(self):
        read.append(self)
        return healthy(self)

    monkeypatch.setattr(DominoTableau, "dominos", property(counted))
    report = verify_insertion(3, 3)
    assert report.status == "pass"
    assert len(read) == sum(map(len, expected))
    assert [{t for t in read if t.rank == r} for r in range(5)] == expected


def test_verify_insertion_reports_a_failing_insertion(monkeypatch):
    healthy = insertion_mod._walk

    def short(ws, rank):
        for w, states in healthy(ws, rank):
            if tuple(w) == (1, 2, 3):
                left, where, steps = states[-1]
                # the right tableau one square short
                states = (*states[:-1], (left, where, (*steps[:-1], steps[-1][:1])))
            yield w, states

    insert.cache_clear()
    monkeypatch.setattr(insertion_mod, "_walk", short)
    try:
        report = verify_insertion(3, 1)
    finally:
        insert.cache_clear()
    assert report.status == "fail"
    failed = [c for c in report.counterexamples if c["kind"] == "insert"]
    assert failed and failed[0]["w"] == format_perm((1, 2, 3))
    assert failed[0]["error"]


def test_verify_insertion_restarts_the_walk_after_a_failing_step(monkeypatch):
    # at ranks >= 1 the step that inserts -2 after 1 fails, partway through
    # the walk; rank 0 inserts every element
    healthy = insertion_mod._step

    def failing(cells, where, value, step, rank):
        if (step == 2 and value == -2 and cells.get((1, 1)) == 0 and 1 in where
                and where[1][0][0] == where[1][1][0] == 1):
            raise AssertionError("injected step failure")
        return healthy(cells, where, value, step, rank)

    monkeypatch.setattr(insertion_mod, "_step", failing)
    expected = set()
    for w in group_elements(3):
        for r in (0, 1, 2):
            try:
                insertion_mod._insert(w, r)
            except AssertionError:
                expected.add((format_perm(w), r))
    assert expected == {(w, r) for w in ("1 -2 -3", "1 -2 3") for r in (1, 2)}
    report = verify_insertion(3, 1)
    assert report.status == "fail"
    kinds = {}
    for c in report.counterexamples:
        kinds.setdefault(c["kind"], []).append(c)
    # an element that fails at rank 1 is reported at rank 1, and as a failed
    # rank raise at rank 0, with the step's error
    assert {(c["w"], c["r"]) for c in kinds["insert"]} == {
        (w, r) for w, r in expected if r == 1}
    assert {(c["w"], c["r"]) for c in kinds["rank-raise"]} == {
        (w, r - 1) for w, r in expected if r == 1}
    assert all(c["error"] == "injected step failure"
               for c in kinds["insert"] + kinds["rank-raise"])
    # every other element was inserted and checked after the walk restarted
    assert kinds.keys() == {"insert", "rank-raise", "image-size"}
    assert kinds["image-size"] == [{"kind": "image-size", "r": 1, "size": 46}]


def test_verify_classes_reports_a_failed_transport(monkeypatch):
    # a rank-1 stand-in for T' whose one opposite cycle {1, 2} does not
    # cover the non-core cycle {2} of T = [[1,1],[2,2]]
    stand_in = DominoTableau(1, ((0, 1, 1, 2, 2),))
    monkeypatch.setattr(verify_mod, "core_raise", lambda t: stand_in)
    report = verify_class_decomposition(2, 0)
    assert report.status == "fail"
    assert {"kind": "transport", "rows": [[1, 1], [2, 2]], "labels": [2]} \
        in report.counterexamples


def test_verify_classes_reports_unions_of_classes_that_differ(monkeypatch):
    # no class at rank 2: every rank-1 union of classes meets an empty one
    healthy = verify_mod.class_of_tableau
    monkeypatch.setattr(verify_mod, "class_of_tableau",
                        lambda t, n: frozenset() if t.rank == 2 else healthy(t, n))
    data = verify_class_decomposition(3, 1).to_dict()
    assert data["failures"] == {"class-union": 20}
    assert all(c["kind"] == "class-union" and c["high"] == 0 and c["low"] > 0
               for c in data["counterexamples"])


def test_verify_tau_small():
    assert verify_tau(2).status == "pass"


@pytest.mark.parametrize("n", range(4))
def test_verify_tau_walks_each_rank_once(monkeypatch, n):
    healthy = insertion_mod._walk
    walks = []

    def counted(ws, rank):
        walks.append(rank)
        return healthy(ws, rank)

    monkeypatch.setattr(insertion_mod, "_walk", counted)
    monkeypatch.setattr(verify_mod, "_walk", counted)
    before = insertion_mod.tableau_classes.cache_info()
    assert verify_tau(n).status == "pass"
    assert walks == list(range(n + 1))
    assert insertion_mod.tableau_classes.cache_info() == before


@pytest.mark.parametrize("n", range(4))
def test_only_verify_insertion_grows_the_standard_tableaux(monkeypatch, n):
    # `verify tau` and `verify classes` read a rank's tableaux from its walk;
    # the counting identity of `verify insertion` grows them once per rank
    healthy = verify_mod.enumerate_sdt
    grown = []

    def counted(size, rank):
        grown.append(rank)
        return healthy(size, rank)

    monkeypatch.setattr(verify_mod, "enumerate_sdt", counted)
    assert verify_tau(n).status == "pass"
    for r in range(n + 1):
        assert verify_class_decomposition(n, r).status == "pass"
    assert grown == []
    assert verify_insertion(n, n).status == "pass"
    assert grown == list(range(n + 1))


@pytest.mark.parametrize("name, fault, kind", [
    ("tau_invariant", lambda w: DescentSet(frozenset({"s9"})), "tau"),
    ("enhanced_tau_of_tableau", lambda q, ratio: DescentSet(frozenset({"s9"})), "xi"),
    ("_vertical", lambda squares: False, "stepwise"),
    ("enhanced_tau_invariant", lambda w, ratio: DescentSet(frozenset()), "stepwise-xi"),
    ("move_through", lambda t, labels, conv: DominoTableau(0, ((1, 1), (2, 2))),
     "cycle-tau"),
])
def test_verify_tau_reports_each_kind_of_failure(monkeypatch, name, fault, kind):
    monkeypatch.setattr(verify_mod, name, fault)
    report = verify_tau(2)
    assert report.status == "fail"
    assert kind in {c["kind"] for c in report.counterexamples}


@pytest.mark.parametrize("run, args", [
    pytest.param(verify_tau, (3,), id="tau"),
    pytest.param(verify_conjecture, (3, "all"), id="conjecture"),
    pytest.param(verify_intermediate_structure, (3,), id="intermediate"),
    *(pytest.param(combinatorial_cells, (3, r, side), id=f"cells-r{r}-{side}")
      for r in range(4) for side in ("L", "R", "LR")),
])
def test_verify_tau_reads_insertions_without_the_memo(run, args):
    # every reader of all of W_n reads the insertion walk, not `insert`
    before = insert.cache_info()
    result = run(*args)
    assert not isinstance(result, Report) or result.status == "pass"
    assert insert.cache_info() == before


def test_verify_classes_small():
    report = verify_class_decomposition(3, 1)
    assert report.status == "pass"
    assert report.counts["tableaux"] == 20


def test_verify_conjecture_small():
    report = verify_conjecture(2, "all")
    assert report.status == "pass"
    assert report.counts["blocks_r1_L"] == 4


def test_verify_conjecture_cache_warm_rerun_is_identical(tmp_path):
    cold = verify_conjecture(3, 2, cache_dir=str(tmp_path)).to_dict()
    warm = verify_conjecture(3, 2, cache_dir=str(tmp_path)).to_dict()
    cold.pop("ms"), warm.pop("ms")
    assert cold == warm


def test_verify_intermediate_small():
    report = verify_intermediate_structure(3)
    assert report.status == "pass"
    assert (
        report.counts["kl_blocks"]
        == report.counts["split_asymptotic_cells"]
        + report.counts["nonsplit_tau_classes"]
    )


@lru_cache(maxsize=None)
def _intermediate_kl_cells(n):
    return kl_cells(n, WeightFunction(1, n - 1), "L")


def _merge(part, i, j):
    """`part` with its blocks i and j made one."""
    blocks = [b for k, b in enumerate(part.blocks) if k not in (i, j)]
    return CellPartition(part.n, part.label, (*blocks, part.blocks[i] | part.blocks[j]))


def _split_least(part, i):
    """`part` with the least element of its block i made a block of its own."""
    w = min(part.blocks[i])
    blocks = [b for k, b in enumerate(part.blocks) if k != i]
    return CellPartition(part.n, part.label,
                         (*blocks, frozenset({w}), part.blocks[i] - {w}))


WRONG_KL_CELLS = {
    "merge-0-1": lambda n: _merge(_intermediate_kl_cells(n), 0, 1),
    "split-0": lambda n: _split_least(_intermediate_kl_cells(n), 0),
    "split-5": lambda n: _split_least(_intermediate_kl_cells(n), 5),
    "asymptotic": lambda n: combinatorial_cells(n, n - 1, "L"),
    "rank-0": lambda n: combinatorial_cells(n, 0, "L"),
}


# (n, wrong cells, kinds among the counterexamples, failed checks per kind);
# past the counterexample limit a kind shows in the counts alone
WRONG_KL_REPORTS = [
    (3, "merge-0-1", {"mixed-block", "tau-class-count", "closing-iff", "cell-count"},
     {"mixed-block": 1, "tau-class-count": 1, "closing-iff": 1, "cell-count": 1}),
    (3, "split-0", {"not-two-asymptotic", "tau-class-count", "tau-class-mismatch",
                    "closing-iff", "cell-count"},
     {"tau-class-count": 1, "not-two-asymptotic": 2, "tau-class-mismatch": 2,
      "closing-iff": 1, "cell-count": 1}),
    (3, "split-5", {"split-not-asymptotic", "closing-iff", "cell-count"},
     {"split-not-asymptotic": 2, "closing-iff": 1, "cell-count": 1}),
    (3, "asymptotic", {"not-two-asymptotic", "tau-class-count", "tau-class-mismatch"},
     {"tau-class-count": 1, "not-two-asymptotic": 8, "tau-class-mismatch": 8,
      "closing-iff": 1, "cell-count": 1}),
    (3, "rank-0", {"mixed-block", "split-not-asymptotic", "not-two-asymptotic",
                   "tau-class-count", "tau-class-mismatch"},
     {"mixed-block": 2, "split-not-asymptotic": 4, "tau-class-count": 1,
      "not-two-asymptotic": 6, "tau-class-mismatch": 6, "closing-iff": 1,
      "cell-count": 1}),
    (4, "merge-0-1", {"mixed-block", "tau-class-count", "closing-iff", "cell-count"},
     {"mixed-block": 1, "tau-class-count": 1, "closing-iff": 1, "cell-count": 1}),
    (4, "split-0", {"not-two-asymptotic", "tau-class-count", "tau-class-mismatch",
                    "closing-iff", "cell-count"},
     {"tau-class-count": 1, "not-two-asymptotic": 2, "tau-class-mismatch": 2,
      "closing-iff": 1, "cell-count": 1}),
    (4, "split-5", {"split-not-asymptotic", "closing-iff", "cell-count"},
     {"split-not-asymptotic": 2, "closing-iff": 1, "cell-count": 1}),
    (4, "asymptotic", {"not-two-asymptotic", "tau-class-count", "tau-class-mismatch"},
     {"tau-class-count": 1, "not-two-asymptotic": 16, "tau-class-mismatch": 16,
      "closing-iff": 1, "cell-count": 1}),
    (4, "rank-0", {"mixed-block", "split-not-asymptotic"},
     {"mixed-block": 8, "split-not-asymptotic": 34, "tau-class-count": 1,
      "not-two-asymptotic": 6, "tau-class-mismatch": 6, "closing-iff": 1,
      "cell-count": 1}),
]


@pytest.mark.parametrize("n, wrong, kinds, failures", WRONG_KL_REPORTS,
                         ids=[f"n{n}-{wrong}" for n, wrong, _, _ in WRONG_KL_REPORTS])
def test_verify_intermediate_reports_wrong_kl_cells(monkeypatch, n, wrong, kinds, failures):
    part = WRONG_KL_CELLS[wrong](n)
    monkeypatch.setattr(verify_mod, "kl_cells", lambda *args, **kwargs: part)
    report = verify_intermediate_structure(n)
    assert report.status == "fail"
    assert {c["kind"] for c in report.counterexamples} == kinds
    data = report.to_dict()
    assert data["failures"] == failures
    shown = len(data["counterexamples"])
    assert shown == min(sum(failures.values()), 10)
    assert data.get("counterexamples_truncated", 0) == sum(failures.values()) - shown


def test_verify_intermediate_reports_an_opposite_orbit_without_its_one_cycle(monkeypatch):
    healthy = verify_mod.noncore_orbit

    def empty_union_only(t, convention):
        orbit = healthy(t, convention)
        return [next(orbit)] if convention == verify_mod.OPPOSITE else orbit

    monkeypatch.setattr(verify_mod, "noncore_orbit", empty_union_only)
    data = verify_intermediate_structure(3).to_dict()
    assert data["failures"] == {"opp-ncc": 4}
    assert {c["kind"] for c in data["counterexamples"]} == {"opp-ncc"}


def test_verify_intermediate_reports_an_opposite_move_that_moves_nothing(monkeypatch):
    healthy = verify_mod.noncore_orbit

    def unmoved(t, convention):
        if convention != verify_mod.OPPOSITE:
            return healthy(t, convention)
        return [(labels, t) for labels, _ in healthy(t, convention)]

    monkeypatch.setattr(verify_mod, "noncore_orbit", unmoved)
    data = verify_intermediate_structure(3).to_dict()
    assert data["failures"] == {"two-tableaux": 4}
    assert data["counterexamples"][0] == {"kind": "two-tableaux", "tau": "{t}", "count": 2}


def test_verify_conjecture_reports_where_partitions_differ(monkeypatch):
    class MergedTable(KLTable):
        def cells(self, side="L"):
            part = super().cells(side)
            return part if side == "LR" else _merge(part, 0, 1)

    monkeypatch.setattr(verify_mod, "KLTable", MergedTable)
    report = verify_conjecture(3, 1)
    assert report.status == "fail"
    assert report.counterexamples == [
        {"kind": "partition", "ratio": 1, "side": "L", "where": {
            "w": "-3 -2 -1",
            "block_a": ["-3 -1 2", "-3 -2 -1", "-3 -2 1"],
            "block_b": ["-1 2 -3", "-1 3 -2", "-2 -1 -3", "-2 1 -3"]}},
        {"kind": "partition", "ratio": 1, "side": "R", "where": {
            "w": "-3 -2 -1",
            "block_a": ["-2 3 -1", "-3 -2 -1", "3 -2 -1"],
            "block_b": ["-2 3 -1", "-2 3 1", "-3 -2 -1", "-3 -2 1"]}},
    ]
    where_keys = [list(c["where"]) for c in report.counterexamples]
    assert where_keys == [["w", "block_a", "block_b"]] * 2


def test_cli_verify_exit_codes_and_json(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "conjecture", "--n", "2", "--ratio", "all",
                 "--json", str(out)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "[PASS] conjecture" in printed
    data = json.loads(out.read_text())
    assert data["status"] == "pass"


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_cli_outlives_a_reader_that_closed_standard_output(tmp_path, unbuffered):
    # a pipe whose reader has gone before the CLI writes, as in
    # `dominocells ... | head -c 0`
    out = tmp_path / "report.json"
    src = os.path.dirname(os.path.dirname(dominocells.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "dominocells.cli", "verify", "tau", "--n", "2",
             "--json", str(out)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "BrokenPipeError" not in done.stderr
    assert json.loads(out.read_text())["status"] == "pass"


def _run_split_cli(argv, **popen):
    """The CLI in a fresh interpreter that splits its suites from n = 4 on
    whatever CPUs it may use, with unwritten output of its caller."""
    src = os.path.dirname(os.path.dirname(dominocells.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    code = ("import sys, dominocells.verify as v; v._cpus = lambda: 2; print('started'); "
            "from dominocells.cli import main; sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv], stderr=subprocess.PIPE,
                          env=env, text=True, **popen)


@pytest.mark.parametrize("stdout", ["reader-gone", "closed"])
def test_a_split_suite_runs_whatever_became_of_standard_output(tmp_path, stdout):
    # the fork's flush meets a pipe whose reader has gone (`| head -c 0`) or
    # no standard output at all (`>&-`)
    out = tmp_path / "report.json"
    argv = ["verify", "tau", "--n", "4", "--json", str(out)]
    if stdout == "closed":
        done = _run_split_cli(argv, preexec_fn=lambda: os.close(1))
    else:
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = _run_split_cli(argv, stdout=write_end)
        finally:
            os.close(write_end)
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert json.loads(out.read_text())["status"] == "pass"


def test_cli_insert_json_and_steps(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code = main(["insert", "--perm", "[4,1,-3,-2]", "--rank", "2",
                 "--json", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["right"] == [[0, 0, 1, 1], [0, 2, 2], [3, 4, 4], [3]]
    code = main(["insert", "--perm", "4 1 -3 -2", "--rank", "2", "--steps"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "step 4" in printed
    assert main(["insert", "--perm", "2 -1", "--rank", "2"]) == 0  # rank n is accepted


def test_cli_insert_rejects_bad_input(capsys):
    assert main(["insert", "--perm", "1 1", "--rank", "0"]) == 2
    capsys.readouterr()


def test_cli_insert_refuses_a_bad_perm_as_argparse_refuses(capsys):
    # a usage line, then one line with the program's error prefix
    assert main(["insert", "--perm", "1 1", "--rank", "0"]) == 2
    out, err = capsys.readouterr()
    assert not out
    usage, error = err.splitlines()
    assert usage.startswith("usage: dominocells")
    assert error == ("dominocells: error: bad --perm: "
                     "not a signed permutation of 1..2: (1, 1)")


@pytest.mark.parametrize("argv", [
    "verify conjecture --n 2 --ratio abc",
    "verify conjecture --n 2 --ratio 0",
    "verify insertion --n -1",
    "verify tau --n -2",
    "verify classes --n 2 --rank -1",
    "cells --n 2 --rank -1",
    "cells --n 2 --rank 0 --kind kl --ratio 0",
    "verify intermediate --n 1",
    'insert --perm "1 2" --rank -1',
])
def test_cli_rejects_out_of_range_numbers_at_the_parser(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("dominocells")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "verify tau --n 2 --ratio 3 --rank 7 --cache DIR",
    "verify tau --n 2 --rank 0",
    "verify conjecture --n 2 --rank 1",
    "verify intermediate --n 3 --rank 2",
    "verify intermediate --n 3 --ratio 2",
    "verify insertion --n 2 --ratio 1",
    "verify classes --n 2 --ratio all",
    "cells --n 2 --rank 0 --kind comb --ratio 5",
    "verify insertion --n 2 --cache DIR",
    "verify classes --n 2 --cache DIR",
    "cells --n 2 --rank 0 --cache DIR",
])
def test_cli_rejects_options_the_command_ignores(argv, capsys, monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("_run_verify", "kl_cells", "combinatorial_cells"):
        monkeypatch.setattr(f"dominocells.cli.{name}", ran)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("dominocells")
    assert "does not use" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "verify tau --n 2 --json {missing}/report.json",
    "verify tau --n 2 --json {tmp}",
    "verify classes --n 2 --json {file}/report.json",
    'insert --perm "2 -1" --rank 1 --json {missing}/pair.json',
    "verify conjecture --n 2 --cache {file}",
    "verify intermediate --n 2 --cache {file}/kl",
    "cells --n 2 --rank 0 --kind kl --cache {file}",
])
def test_cli_refuses_paths_it_cannot_write_before_anything_runs(argv, tmp_path, capsys,
                                                                monkeypatch):
    def ran(*args, **kwargs):
        raise AssertionError("the command ran")

    for name in ("_run_verify", "kl_cells", "combinatorial_cells", "insert"):
        monkeypatch.setattr(f"dominocells.cli.{name}", ran)
    file = tmp_path / "file"
    file.write_text("kept")
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv.format(missing=tmp_path / "missing", tmp=tmp_path, file=file)))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("dominocells")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == [file] and file.read_text() == "kept"


@pytest.mark.parametrize("argv", [
    "verify insertion --n 4 --rank 4 --json P",
    "verify classes --n 5 --json P",
    "verify conjecture --n 4 --ratio all --cache D --json P",
    "verify intermediate --n 3 --cache D",
    "cells --n 2 --rank 1 --kind kl --ratio 2 --cache D",
])
def test_cli_accepts_the_options_a_command_uses(argv, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    _build_parser().parse_args(shlex.split(argv))
    for name in ("_run_verify", "kl_cells", "combinatorial_cells"):
        monkeypatch.setattr(f"dominocells.cli.{name}", reached)
    with pytest.raises(Reached):
        main(shlex.split(argv))


@pytest.mark.parametrize("argv", [
    "verify conjecture --n 6 --ratio 1",
    "verify intermediate --n 6",
    "cells --n 6 --rank 4 --kind kl",
])
def test_cli_refuses_kl_sizes_that_cannot_finish(argv, capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("a Kazhdan-Lusztig table was built")

    monkeypatch.setattr("dominocells.hecke.KLTable.all_kl_basis", no_table)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "|W_6| = 46,080" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, order", [pytest.param(*case, id=case[0]) for case in [
    ("verify tau --n 8", "|W_8| = 10,321,920"),
    ("verify insertion --n 9 --rank 2", "|W_9| = 185,794,560"),
    ("verify classes --n 8 --rank 8", "|W_8| = 10,321,920"),
    ("cells --n 8 --rank 0 --side R", "|W_8| = 10,321,920"),
    ("verify tau --n 100000", "|W_100000| = 2^100000 * 100000!"),
    ("verify conjecture --n 100000", "|W_100000| = 2^100000 * 100000!"),
]])
def test_cli_refuses_sizes_that_cannot_finish(argv, order, capsys, monkeypatch):
    # W_n itself outgrows memory past n = 7, and its order is written out
    # in digits only while they are few
    def built(*args, **kwargs):
        raise AssertionError("a suite or a partition was run")

    for name in ("_run_verify", "combinatorial_cells"):
        monkeypatch.setattr(f"dominocells.cli.{name}", built)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and order in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    'insert --perm "1" --rank 100000',
    'insert --perm "2 -1" --rank 3 --steps',
    "cells --n 1 --rank 0 --kind kl --ratio 1000000000",
    "cells --n 2 --rank 3",
    "verify insertion --n 2 --rank 3",
    "verify classes --n 0 --rank 1",
    "verify conjecture --n 2 --ratio 4",
])
def test_cli_refuses_ranks_and_ratios_that_cannot_finish(argv, capsys, monkeypatch):
    # ranks above n and ratios above n + 1 only repeat the asymptotic case,
    # and the insertion walk and the table codes grow with them
    def built(*args, **kwargs):
        raise AssertionError("a walk or a Kazhdan-Lusztig table was built")

    monkeypatch.setattr("dominocells.insertion._walk", built)
    monkeypatch.setattr("dominocells.hecke.KLTable.__init__", built)
    for name in ("_run_verify", "kl_cells", "combinatorial_cells"):
        monkeypatch.setattr(f"dominocells.cli.{name}", built)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "is larger than" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=case[0]) for case in [
    ("cells --n 2 --rank 0 --kind kl --ratio 2", "--rank 0 means --ratio 1, not 2"),
    ("cells --n 4 --rank 3 --kind kl --ratio 1 --side LR", "--rank 3 means --ratio 4, not 1"),
]])
def test_cli_cells_kind_kl_refuses_a_ratio_other_than_rank_plus_one(argv, message, capsys,
                                                                      monkeypatch):
    # rank r is compared with ratio r + 1; another ratio would print its
    # cells under the rank it does not belong to
    def built(*args, **kwargs):
        raise AssertionError("a Kazhdan-Lusztig table was built")

    monkeypatch.setattr("dominocells.hecke.KLTable.__init__", built)
    monkeypatch.setattr("dominocells.cli.kl_cells", built)
    with pytest.raises(SystemExit) as exc:
        main(shlex.split(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].endswith(message)
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "verify conjecture --n 2 --ratio 3",
    "verify classes --n 2 --rank 2",
    "cells --n 2 --rank 2 --kind kl --ratio 3",
    "verify conjecture --n 5 --ratio 1",
    "verify intermediate --n 5",
    "cells --n 5 --rank 3 --kind kl",
    "cells --n 6 --rank 4 --kind comb",
])
def test_cli_accepts_kl_sizes_up_to_the_limit(argv, monkeypatch):
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    for name in ("_run_verify", "kl_cells", "combinatorial_cells"):
        monkeypatch.setattr(f"dominocells.cli.{name}", reached)
    with pytest.raises(Reached):
        main(shlex.split(argv))


@pytest.mark.parametrize("argv", [
    "verify tau --n 0",
    "verify conjecture --n 0 --ratio 1",
    "verify conjecture --n 0",
    "cells --n 0 --rank 0 --kind kl",
    "cells --n 0 --rank 0 --kind kl --side R",
    "cells --n 0 --rank 0 --kind kl --side LR",
])
def test_cli_runs_on_the_trivial_group(argv, capsys):
    # W_0 = {()} has no generators and an empty descent set
    assert main(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    if "conjecture" in argv:
        assert "'ratios': [1]" in out  # `all` checks ratio 1 at least
    if argv.startswith("cells"):
        comb = argv.replace("--kind kl", "--kind comb")
        assert main(shlex.split(comb)) == 0
        kl, expected = json.loads(out), json.loads(capsys.readouterr().out)
        kl.pop("label"), expected.pop("label")
        assert kl == expected == {"n": 0, "blocks": [[[]]]}


def test_cli_cells_kind_kl(capsys):
    code = main(["cells", "--n", "2", "--rank", "1", "--side", "L",
                 "--kind", "kl", "--ratio", "2"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["blocks"]) == 6


def test_cli_cache_dir(tmp_path, capsys):
    code = main(["verify", "conjecture", "--n", "2", "--ratio", "1",
                 "--cache", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    assert list(tmp_path.glob("kl_v4_*.bin"))
    code = main(["verify", "conjecture", "--n", "2", "--ratio", "1",
                 "--cache", str(tmp_path)])
    assert code == 0


# SHA-256 (first 16 hex digits) of standard output and of the `--json` file,
# each with its timings blanked, and the exit status, for every command
GOLDEN_OUTPUTS = {
    "insert --perm '4 1 -3 -2' --rank 2": (0, '7faa238fe7d9416f', None),
    "insert --perm '4 1 -3 -2' --rank 2 --steps": (0, '1b682f63d2297360', None),
    "insert --perm '4 1 -3 -2' --rank 2 --json": (0, '9d2b86ca4fe188bc', 'b05e4f506abc8108'),
    "insert --perm '4 1 -3 -2' --rank 2 --steps --json": (0, 'dadf143b874d8b74', '89110a9f72a677f0'),
    'cells --kind comb --n 0 --rank 0 --side L': (0, 'a890d33ffe61952d', None),
    'cells --kind comb --n 0 --rank 0 --side R': (0, 'b0ae9348c0d9ea1a', None),
    'cells --kind comb --n 0 --rank 0 --side LR': (0, '9a28004793e93dd0', None),
    'cells --kind comb --n 1 --rank 0 --side L': (0, '4cbe3c6cd3bd717b', None),
    'cells --kind comb --n 1 --rank 0 --side R': (0, '32e22b67e3ce6ea0', None),
    'cells --kind comb --n 1 --rank 0 --side LR': (0, '83dfa11d69b7af77', None),
    'cells --kind comb --n 1 --rank 1 --side L': (0, '3a415b3655d004c1', None),
    'cells --kind comb --n 1 --rank 1 --side R': (0, '2cd99e427d65c721', None),
    'cells --kind comb --n 1 --rank 1 --side LR': (0, '0d4fc4fb91583ff9', None),
    'cells --kind comb --n 2 --rank 0 --side L': (0, '1198134166f12dd6', None),
    'cells --kind comb --n 2 --rank 0 --side R': (0, '69c614c45f7a1d5a', None),
    'cells --kind comb --n 2 --rank 0 --side LR': (0, 'f50d1eb09c71ed64', None),
    'cells --kind comb --n 2 --rank 1 --side L': (0, '5deac09e63e682b2', None),
    'cells --kind comb --n 2 --rank 1 --side R': (0, '8bd1df030ade46a7', None),
    'cells --kind comb --n 2 --rank 1 --side LR': (0, '39a7fa4eff3e0c45', None),
    'cells --kind comb --n 2 --rank 2 --side L': (0, '732df575f6f2b3f0', None),
    'cells --kind comb --n 2 --rank 2 --side R': (0, 'c09df246ff33e037', None),
    'cells --kind comb --n 2 --rank 2 --side LR': (0, '84525bbb3b34afc4', None),
    'cells --kind comb --n 3 --rank 0 --side L': (0, '5e40dd85a14d8362', None),
    'cells --kind comb --n 3 --rank 0 --side R': (0, '35feb66b45ef0e64', None),
    'cells --kind comb --n 3 --rank 0 --side LR': (0, '59f2662dd91c9c09', None),
    'cells --kind comb --n 3 --rank 1 --side L': (0, '17c9b53ddd8b5d00', None),
    'cells --kind comb --n 3 --rank 1 --side R': (0, '5e5994e6097c1004', None),
    'cells --kind comb --n 3 --rank 1 --side LR': (0, '4aebe5187a31bff6', None),
    'cells --kind comb --n 3 --rank 2 --side L': (0, '88c6ec689753a1be', None),
    'cells --kind comb --n 3 --rank 2 --side R': (0, 'cc7e8e00ef69a946', None),
    'cells --kind comb --n 3 --rank 2 --side LR': (0, 'f480c81f70292682', None),
    'cells --kind comb --n 3 --rank 3 --side L': (0, '9a5b35c572509df5', None),
    'cells --kind comb --n 3 --rank 3 --side R': (0, 'bdd3c057456b07b0', None),
    'cells --kind comb --n 3 --rank 3 --side LR': (0, '9bc4e2273d900ed8', None),
    'cells --kind kl --n 2 --rank 0 --side L': (0, '895878ce4b0d8a54', None),
    'cells --kind kl --n 2 --rank 0 --side R': (0, '77b823c58b81282e', None),
    'cells --kind kl --n 2 --rank 0 --side LR': (0, 'c00c24f4d1633d50', None),
    'cells --kind kl --n 2 --rank 1 --side L': (0, '208da1a68774a3c2', None),
    'cells --kind kl --n 2 --rank 1 --side R': (0, 'fa9ec20dd92ea0be', None),
    'cells --kind kl --n 2 --rank 1 --side LR': (0, 'c5350239fd20a0c4', None),
    'cells --kind kl --n 2 --rank 2 --side L': (0, '03268a9f3837bdfb', None),
    'cells --kind kl --n 2 --rank 2 --side R': (0, 'bad0d3cafc575676', None),
    'cells --kind kl --n 2 --rank 2 --side LR': (0, '349932da0057aa9e', None),
    'verify insertion --n 3 --json': (0, 'e11d7896d8a060be', '114cb4ed418871f4'),
    'verify tau --n 3 --json': (0, 'cd8dfedf242f5334', '2bda4d8f720fabbe'),
    'verify classes --n 3 --json': (0, 'dbc50c7819c77b08', 'c192a3b149001e88'),
    'verify conjecture --n 3 --json': (0, '6c24ad700e2e9032', '85c0a5a026961c08'),
    'verify intermediate --n 3 --json': (0, '4a9bc91997365cf8', '8659f844047fb927'),
}


def _digest(text):
    text = re.sub(r'"ms": [0-9.]+', '"ms"', text)
    text = re.sub(r"\(\d+ ms\)", "(ms)", text)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("command", GOLDEN_OUTPUTS)
def test_cli_outputs_match_their_golden_digests(command, tmp_path, capsys):
    argv = shlex.split(command)
    out = tmp_path / "out.json"
    if argv[-1] == "--json":
        argv.append(str(out))
    code = main(argv)
    written = _digest(out.read_text()) if out.exists() else None
    assert (code, _digest(capsys.readouterr().out), written) == GOLDEN_OUTPUTS[command]


def test_cli_verify_outlives_a_cache_entry_it_cannot_open(tmp_path, capsys):
    # a directory squats on the entry: it can be neither read nor replaced
    entry = tmp_path / "kl_v4_n2_a1_b1.bin"
    entry.mkdir()
    code = main(["verify", "conjecture", "--n", "2", "--ratio", "1",
                 "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and out.startswith("[PASS] conjecture")
    (line,) = err.splitlines()
    assert line.startswith(f"dominocells: {entry} not written: ")
    assert list(tmp_path.iterdir()) == [entry] and entry.is_dir()


@pytest.fixture
def forks(monkeypatch):
    """Counts the calls to `os.fork`; after the test no child is left."""
    real = os.fork
    calls = []

    def counted():
        calls.append(1)
        return real()

    monkeypatch.setattr(os, "fork", counted)
    yield calls
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _classes_reports(tmp_path):
    out = tmp_path / "classes.json"
    main(["verify", "classes", "--n", "4", "--json", str(out)])
    return json.loads(out.read_text())


SPLIT_SUITES = {
    "insertion": lambda tmp_path: [verify_insertion(4, 4).to_dict()],
    "tau": lambda tmp_path: [verify_tau(4).to_dict()],
    "conjecture": lambda tmp_path: [verify_conjecture(4, "all").to_dict()],
    "classes": _classes_reports,
}


def _reports_in_one_and_two_processes(suite, monkeypatch, tmp_path):
    """The reports of `suite` at n = 4 without `ms`, first from two
    processes, then from one."""
    runs = []
    for cpus in (2, 1):
        monkeypatch.setattr(verify_mod, "_cpus", lambda: cpus)
        reports = SPLIT_SUITES[suite](tmp_path)
        for report in reports:
            report.pop("ms")
        runs.append(reports)
    return runs


@pytest.mark.parametrize("suite", SPLIT_SUITES)
def test_a_split_suite_reports_what_one_process_reports(suite, monkeypatch, forks,
                                                        tmp_path):
    two, one = _reports_in_one_and_two_processes(suite, monkeypatch, tmp_path)
    assert len(forks) == 1
    assert all(report["status"] == "pass" for report in two)
    assert two == one


def test_a_split_tau_merges_failures_in_the_serial_order(monkeypatch, forks, tmp_path):
    # one "tau" failure at each of the five ranks, and a "cycle-tau" failure
    # for most cycle moves; both processes see both kinds
    healthy, target = verify_mod.tau_invariant, group_elements(4)[7]
    monkeypatch.setattr(verify_mod, "tau_invariant", lambda w: (
        DescentSet(frozenset({"s9"})) if w == target else healthy(w)))
    monkeypatch.setattr(verify_mod, "move_through",
                        lambda t, labels, conv: DominoTableau(0, ((1, 1), (2, 2))))
    (two,), (one,) = _reports_in_one_and_two_processes("tau", monkeypatch, tmp_path)
    assert len(forks) == 1
    assert [c["kind"] for c in two["counterexamples"]] == ["tau"] * 5 + ["cycle-tau"] * 5
    assert [c["r"] for c in two["counterexamples"][:5]] == [0, 1, 2, 3, 4]
    assert list(two["failures"]) == ["tau", "cycle-tau"]
    assert two["counterexamples_truncated"] > 0
    assert two == one


def test_a_split_conjecture_merges_failures_in_the_serial_order(monkeypatch, forks,
                                                                tmp_path):
    class MergedTable(KLTable):
        def cells(self, side="L"):
            return _merge(super().cells(side), 0, 1)

    monkeypatch.setattr(verify_mod, "KLTable", MergedTable)
    (two,), (one,) = _reports_in_one_and_two_processes("conjecture", monkeypatch,
                                                       tmp_path)
    assert len(forks) == 1
    # a failure per ratio and side, past the counterexample limit
    assert two["failures"] == {"partition": 12}
    assert [(c["ratio"], c["side"]) for c in two["counterexamples"]] == [
        (rt, side) for rt in (1, 2, 3, 4) for side in ("L", "R", "LR")][:10]
    assert two["counterexamples_truncated"] == 2
    assert two == one


def test_a_split_insertion_merges_failures_in_the_serial_order(monkeypatch, forks,
                                                               tmp_path):
    # one "symmetry" failure at each of ranks 0-5 and one "counting"
    # failure at each of ranks 0-4; both processes see both kinds
    healthy_sdt, healthy_inverse = verify_mod.enumerate_sdt, verify_mod.inverse
    target, stranger = group_elements(4)[7], group_elements(4)[0]
    monkeypatch.setattr(verify_mod, "enumerate_sdt",
                        lambda n, rank: list(healthy_sdt(n, rank))[1:])
    monkeypatch.setattr(verify_mod, "inverse",
                        lambda w: stranger if w == target else healthy_inverse(w))
    (two,), (one,) = _reports_in_one_and_two_processes("insertion", monkeypatch,
                                                       tmp_path)
    assert len(forks) == 1
    assert two["failures"] == {"symmetry": 6, "counting": 5}
    assert list(two["failures"]) == ["symmetry", "counting"]
    assert [(c["kind"], c["r"]) for c in two["counterexamples"]] == [
        (kind, r) for r in range(5) for kind in ("symmetry", "counting")]
    assert two["counterexamples_truncated"] == 1
    assert two == one


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_split_insertion_walks_only_the_boundary_rank_twice(monkeypatch, forks,
                                                              tmp_path, cpus):
    # ranks 0-2 cost 2 units and ranks 3-4 3, so the child checks 0-2 and
    # this process 3-4; each walks the rank after its last one
    log = tmp_path / "walks"
    healthy = verify_mod._rank_pairs

    def logged(ws, r, **undo):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {r}\n")
        return healthy(ws, r, **undo)

    monkeypatch.setattr(verify_mod, "_rank_pairs", logged)
    monkeypatch.setattr(verify_mod, "_cpus", lambda: cpus)
    assert verify_insertion(4, 4).status == "pass"
    walks = {}
    for line in log.read_text().splitlines():
        pid, r = map(int, line.split())
        walks.setdefault(pid, []).append(r)
    mine = walks.pop(os.getpid())
    if cpus == 1:
        assert not forks and not walks
        assert mine == [0, 1, 2, 3, 4, 5]
    else:
        assert len(forks) == 1
        assert mine == [3, 4, 5]
        assert list(walks.values()) == [[0, 1, 2, 3]]


@pytest.mark.parametrize("rank", [1, 3, 4])
def test_a_fault_in_one_undo_step_fails_the_elements_below_its_prefix(monkeypatch, forks,
                                                                     tmp_path, rank):
    # at one rank the undo of the step that inserts -2 after 1 gives 2: the
    # 8 elements of W_4 that start 1, -2 fail their round trip there, each
    # once.  The child checks ranks 0-2 and this process 3-4; both walk 3
    prefix = insert((1, -2), rank)
    target, entry = prefix.left.cells(), prefix.right.dominos[2]
    healthy = insertion_mod._undo_step

    def misread(cells, dominos, shape, added):
        hit = cells == target and frozenset(added) == entry
        value, shape = healthy(cells, dominos, shape, added)
        return (-value if hit else value), shape

    monkeypatch.setattr(insertion_mod, "_undo_step", misread)
    (two,), (one,) = _reports_in_one_and_two_processes("insertion", monkeypatch,
                                                       tmp_path)
    assert len(forks) == 1
    below = {format_perm(w) for w in group_elements(4) if w[:2] == (1, -2)}
    assert len(below) == 8
    assert two["failures"] == {"roundtrip": 8}
    assert sorted(c["w"] for c in two["counterexamples"]) == sorted(below)
    for c in two["counterexamples"]:
        assert c["r"] == rank and c["error"] == "step 2 undoes to 2, not -2"
    assert two == one


def test_split_classes_reports_the_failures_of_one_process(monkeypatch, forks, tmp_path):
    # no class at even ranks: the unions across one rank differ at every rank
    healthy = verify_mod.class_of_tableau
    monkeypatch.setattr(verify_mod, "class_of_tableau",
                        lambda t, n: healthy(t, n) if t.rank % 2 else frozenset())
    two, one = _reports_in_one_and_two_processes("classes", monkeypatch, tmp_path)
    assert len(forks) == 1
    assert all(report["failures"] for report in two)
    assert two == one


def _squares(x):
    return x * x


@pytest.mark.parametrize("n, cpus, expected", [
    pytest.param(3, {0, 1}, 0, id="n3"),
    pytest.param(4, {0}, 0, id="one-cpu"),
    pytest.param(4, {0, 1}, 1, id="n4-two-cpus"),
    pytest.param(6, set(range(64)), 1, id="n6-many-cpus"),
])
def test_in_two_forks_once_at_most(monkeypatch, forks, n, cpus, expected):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert verify_mod._in_two(_squares, [1, 2, 3, 4, 5], lambda x: 1, n) == [
        1, 4, 9, 16, 25]
    assert len(forks) == expected


def test_in_two_runs_in_one_process_without_fork(monkeypatch, forks):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    monkeypatch.delattr(os, "fork")
    assert verify_mod._in_two(_squares, [1, 2], lambda x: 1, 4) == [1, 4]
    assert not forks


@pytest.mark.parametrize("suite, n", [
    pytest.param(verify_tau, 3, id="3"),
    pytest.param(verify_tau, 4, id="4"),
    pytest.param(lambda n: verify_insertion(n, n), 3, id="insertion-3"),
    pytest.param(lambda n: verify_insertion(n, n), 4, id="insertion-4"),
])
def test_suites_fork_from_n_4_on(monkeypatch, forks, suite, n):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    assert suite(n).status == "pass"
    assert len(forks) == (n >= 4)


def test_in_two_raises_the_exception_of_the_child(monkeypatch, forks):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    parent = os.getpid()

    def fails_in_the_child(x):
        if os.getpid() != parent:
            raise ValueError(f"piece {x} failed")
        return x

    with pytest.raises(ValueError, match="^piece 1 failed$"):
        verify_mod._in_two(fails_in_the_child, [1, 2], lambda x: 1, 4)
    assert len(forks) == 1


def test_in_two_names_an_exception_that_cannot_be_pickled(monkeypatch, forks):
    class Local(Exception):  # a local class pickles by a name no module holds
        pass

    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    parent = os.getpid()

    def fails_in_the_child(x):
        if os.getpid() != parent:
            raise Local("lost")
        return x

    with pytest.raises(RuntimeError, match="raised Local: lost"):
        verify_mod._in_two(fails_in_the_child, [1, 2], lambda x: 1, 4)


def test_in_two_reports_a_child_that_sent_nothing(monkeypatch, forks):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    parent = os.getpid()

    def exits_in_the_child(x):
        if os.getpid() != parent:
            os._exit(3)
        return x

    with pytest.raises(RuntimeError, match="exited with status 3"):
        verify_mod._in_two(exits_in_the_child, [1, 2], lambda x: 1, 4)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_in_two_reaps_the_child_when_this_process_raises(monkeypatch, forks, error):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    parent = os.getpid()

    def fails_here(x):
        if os.getpid() == parent:
            raise error("this half failed")
        time.sleep(60)  # the child is stopped, not waited for
        return x

    t0 = time.monotonic()
    with pytest.raises(error, match="this half failed"):
        verify_mod._in_two(fails_here, [1, 2], lambda x: 1, 4)
    assert time.monotonic() - t0 < 30
    assert len(forks) == 1


def test_in_two_child_prints_nothing_and_repeats_no_pending_output(monkeypatch, forks,
                                                                    capfd):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    print("once", end="")

    def prints(x):
        print("never")  # printed by this process alone
        return x

    assert verify_mod._in_two(prints, [1, 2], lambda x: 1, 4) == [1, 2]
    assert capfd.readouterr().out == "once" + "never\n"


def test_in_two_writes_the_error_text_of_the_child_once(monkeypatch, forks, capfd):
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    parent = os.getpid()

    def warns(x):
        print(f"piece {x}", file=sys.stderr)
        if x == 1 and os.getpid() != parent:
            raise ValueError("the child's piece failed")
        return x

    # this process's half first, then the child's text once it is reaped,
    # also when the child raised
    assert verify_mod._in_two(warns, [3, 4], lambda x: 1, 4) == [3, 4]
    assert capfd.readouterr().err == "piece 4\npiece 3\n"
    with pytest.raises(ValueError, match="the child's piece failed"):
        verify_mod._in_two(warns, [1, 2], lambda x: 1, 4)
    assert capfd.readouterr().err == "piece 2\npiece 1\n"
    assert len(forks) == 2


def test_split_conjecture_names_every_entry_it_cannot_write(monkeypatch, forks, tmp_path,
                                                            capsys):
    # ratios 1-2 in the child and 3-4 here; a directory squats on each entry
    monkeypatch.setattr(verify_mod, "_cpus", lambda: 2)
    entries = [tmp_path / f"kl_v4_n4_a1_b{rt}.bin" for rt in (1, 2, 3, 4)]
    for entry in entries:
        entry.mkdir()
    code = main(["verify", "conjecture", "--n", "4", "--ratio", "all",
                 "--cache", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0 and out.startswith("[PASS] conjecture")
    assert len(forks) == 1
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 4
    for entry in entries:
        (line,) = [line for line in lines if line.startswith(f"dominocells: {entry} ")]
        assert line.startswith(f"dominocells: {entry} not written: ")
    assert all(entry.is_dir() for entry in entries)


def test_halves_cut_where_the_costs_are_most_nearly_equal():
    assert verify_mod._halves(range(6), lambda r: 1) == ([0, 1, 2], [3, 4, 5])
    assert verify_mod._halves(range(5), lambda r: r + 3) == ([0, 1, 2], [3, 4])
    assert verify_mod._halves([1, 2, 3, 4, 5], lambda rt: 5 + rt) == ([1, 2, 3], [4, 5])
    assert verify_mod._halves([7], lambda x: 1) == ([], [7])
    assert verify_mod._halves([], lambda x: 1) == ([], [])
