import hashlib
import json
import math

import pytest

import dominocells.cells as cells_mod
from dominocells.cells import (
    CellPartition, asymptotic_cells, cell_fingerprint, class_of_tableau,
    combinatorial_cells,
)
from dominocells.cycles import REGULAR, cycle_partition, move_through
from dominocells.hecke import WeightFunction, kl_cells
from dominocells.insertion import insert
from dominocells.tableaux import DominoTableau, enumerate_sdt
from dominocells.wgroup import group_elements, inverse
from wgroup_oracles import cells_from_left_cells, split_ranks

W = (4, 1, -3, -2)


def test_class_of_tableau_contains_its_element():
    t = insert(W, 2).right
    cls = class_of_tableau(t, 4)
    assert W in cls
    assert all(insert(w, 2).right == t for w in cls)


@pytest.mark.parametrize("n,rank", [(2, 0), (2, 1), (3, 0), (3, 2), (4, 2)])
def test_class_sizes_match_tableau_counts(n, rank):
    sizes = {}
    for t in enumerate_sdt(n, rank):
        sizes.setdefault(t.shape, []).append(len(class_of_tableau(t, n)))
    for shape, counts in sizes.items():
        assert all(c == len(counts) for c in counts)
    total = sum(c for counts in sizes.values() for c in counts)
    assert total == (2 ** n) * math.factorial(n)


def test_single_vertical_class():
    t = DominoTableau(0, ((1,), (1,)))
    assert class_of_tableau(t, 1) == frozenset({(-1,)})


def test_left_block_of_fixture_element():
    part = combinatorial_cells(4, 2, "L")
    t = insert(W, 2).right
    moved = move_through(t, {4}, REGULAR)
    expected = class_of_tableau(t, 4) | class_of_tableau(moved, 4)
    assert part.block_of(W) == expected


def test_right_cells_are_left_cells_of_inverses():
    for n in (2, 3, 4):
        for rank in (0, 1, n - 1):
            left = combinatorial_cells(n, rank, "L")
            right = combinatorial_cells(n, rank, "R")
            flipped = CellPartition(
                n, "flip", tuple(frozenset(inverse(w) for w in b) for b in left.blocks)
            )
            assert right.same_partition(flipped)


def test_partitions_are_pinned():
    # every left, right and two-sided partition for n <= 5 and ranks 0..n,
    # as one digest of their JSON
    digest = hashlib.sha256()
    for n in range(6):
        for rank in range(n + 1):
            for side in ("L", "R", "LR"):
                digest.update(combinatorial_cells(n, rank, side).to_json().encode())
    assert digest.hexdigest() == (
        "f0f2851e749006ca1fc7b360642b3c6991a0bc4d35de9891be4066c85a9e7747")


@pytest.mark.parametrize("n", range(6))
def test_right_and_two_sided_cells_follow_the_element_level_rule(n):
    # ranks 0..n + 1, one past the digest's, against a sweep over W_n that
    # inverts every element
    for rank in range(n + 2):
        left = combinatorial_cells(n, rank, "L").blocks
        for side in ("R", "LR"):
            expected = {frozenset(b) for b in cells_from_left_cells(left, side)}
            assert set(combinatorial_cells(n, rank, side).blocks) == expected, (rank, side)


@pytest.mark.parametrize("side, calls", [("L", 0), ("R", 384), ("LR", 0)])
def test_only_side_r_inverts_elements(side, calls, monkeypatch):
    inverted = []
    monkeypatch.setattr(cells_mod, "inverse", lambda w: inverted.append(w) or inverse(w))
    combinatorial_cells(4, 2, side)
    assert len(inverted) == calls


def test_asymptotic_block_counts():
    assert len(asymptotic_cells(1, "L").blocks) == 2
    assert len(asymptotic_cells(2, "L").blocks) == 6
    assert {tuple(sorted(b)) for b in asymptotic_cells(1, "L").blocks} == {
        ((-1,),), ((1,),)
    }


def test_asymptotic_cells_are_stable():
    for n in (2, 3, 4):
        a = combinatorial_cells(n, n - 1, "L")
        b = combinatorial_cells(n, n + 1, "L")
        assert a.same_partition(b)


def test_asymptotic_cells_refuse_cells_that_change_past_rank_n_minus_1(monkeypatch):
    healthy = cells_mod.combinatorial_cells
    # rank n takes the cells of rank 0, which at n = 2 are other cells
    monkeypatch.setattr(cells_mod, "combinatorial_cells",
                        lambda n, rank, side: healthy(n, 0 if rank == n else rank, side))
    with pytest.raises(AssertionError, match="asymptotic cells not stable at n=2 side=L"):
        asymptotic_cells(2, "L")


def test_split_blocks_are_asymptotic_blocks():
    # a split element's intermediate block equals its asymptotic block
    for n in (3, 4):
        inter = combinatorial_cells(n, n - 2, "L")
        asym = asymptotic_cells(n, "L")
        for w, r in split_ranks(n).items():
            if r <= n - 2:
                assert inter.block_of(w) == asym.block_of(w)


def test_left_blocks_are_unions_of_classes():
    for n in (2, 3):
        for rank in (0, 1, 2):
            part = combinatorial_cells(n, rank, "L")
            for w in group_elements(n):
                t = insert(w, rank).right
                ncc = [c.labels for c in cycle_partition(t, REGULAR)
                       if c.kind == "noncore-open"]
                union = set()
                for mask in range(1 << len(ncc)):
                    labels = frozenset().union(frozenset(), *(
                        ncc[i] for i in range(len(ncc)) if mask >> i & 1))
                    union |= class_of_tableau(move_through(t, labels, REGULAR), n)
                assert part.block_of(w) == union


def test_fingerprint_constant_on_orbit():
    t = insert(W, 2).right
    moved = move_through(t, {4}, REGULAR)
    assert cell_fingerprint(t) == cell_fingerprint(moved)


def refines(fine, coarse):
    """Every block of `fine` lies inside a block of `coarse`."""
    lookup = {w: i for i, b in enumerate(coarse.blocks) for w in b}
    return all(len({lookup[w] for w in b}) == 1 for b in fine.blocks)


def common_refinement(a, b):
    lookup = {w: i for i, block in enumerate(b.blocks) for w in block}
    pieces = {}
    for i, block in enumerate(a.blocks):
        for w in block:
            pieces.setdefault((i, lookup[w]), set()).add(w)
    return CellPartition(
        a.n, f"meet({a.label},{b.label})", tuple(frozenset(p) for p in pieces.values())
    )


def test_partition_comparisons():
    fine = combinatorial_cells(3, 0, "L")
    coarse = combinatorial_cells(3, 0, "LR")
    assert refines(fine, coarse)
    assert not refines(coarse, fine) or len(fine.blocks) == len(coarse.blocks)
    meet = common_refinement(fine, coarse)
    assert refines(meet, coarse) and refines(meet, fine)
    parts = [combinatorial_cells(3, rank, side)
             for rank in range(4) for side in ("L", "R", "LR")]
    parts += [kl_cells(3, WeightFunction(1, ratio), "L") for ratio in (1, 2, 3)]
    outcomes = set()
    for a in parts:
        for b in parts:
            fine_enough = all(block <= theirs for block, theirs in a.misfits(b))
            equal = next(a.misfits(b), None) is None
            assert fine_enough == refines(a, b)
            assert equal == a.same_partition(b)
            outcomes.add((fine_enough, equal))
    assert outcomes == {(True, True), (True, False), (False, False)}


def test_misfits_pairs_each_block_with_the_block_of_its_least_element():
    fine = combinatorial_cells(3, 0, "L")
    coarse = combinatorial_cells(3, 0, "LR")
    for a, b in ((fine, coarse), (coarse, fine)):
        misfits = list(a.misfits(b))
        assert [block for block, _ in misfits] == [
            block for block in a.blocks if block not in b.blocks]
        assert [theirs for _, theirs in misfits] == [
            next(x for x in b.blocks if min(block) in x) for block, _ in misfits]
    assert all(block < theirs for block, theirs in fine.misfits(coarse))
    assert not any(block <= theirs for block, theirs in coarse.misfits(fine))


@pytest.mark.parametrize("blocks", [
    pytest.param(lambda bs: bs + (bs[0],), id="shared-element"),
    pytest.param(lambda bs: bs[1:], id="missing-element"),
    pytest.param(lambda bs: bs + (frozenset({(1, 2, 3)}),), id="outside-w2"),
    pytest.param(lambda bs: bs[1:] + (bs[0] | {(3, 1)},), id="not-signed-perm"),
])
def test_cell_partition_rejects_blocks_that_do_not_partition_the_group(blocks):
    good = combinatorial_cells(2, 0, "L").blocks
    with pytest.raises(ValueError, match="do not partition W_2"):
        CellPartition(2, "wrong", blocks(good))


def test_cell_partition_names_an_empty_block():
    good = combinatorial_cells(2, 0, "L").blocks
    with pytest.raises(ValueError, match="^block 1 of 'wrong' is empty$"):
        CellPartition(2, "wrong", (good[0], frozenset(), *good[1:]))


def test_block_of_rejects_an_element_of_another_group():
    part = combinatorial_cells(2, 1, "L")
    assert part.block_of((-2, 1)) in part.blocks
    for w in ((1, 2, 3), (1,), (3, 1)):
        with pytest.raises(KeyError):
            part.block_of(w)


def test_json_dump_is_canonical():
    part = combinatorial_cells(2, 1, "L")
    data = json.loads(part.to_json())
    assert data["n"] == 2 and len(data["blocks"]) == 6
    flat = [tuple(tuple(w) for w in b) for b in data["blocks"]]
    assert flat == sorted(flat, key=lambda b: b[0])
