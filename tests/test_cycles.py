import hashlib
import itertools

import pytest
from hypothesis import given, strategies as st

import dominocells.cycles as cycles_mod
from dominocells.cycles import (
    OPPOSITE, REGULAR, _relocate, _shift, core_raise, cycle_partition,
    extended_cycles, move_through, moved_domino, noncore_orbit, raise_rank,
)
from dominocells.insertion import _rank_pairs, insert, uninsert
from dominocells.tableaux import (
    DominoTableau, TableauError, TableauPair, enumerate_sdt, tau_of_tableau,
)
from dominocells.wgroup import group_elements

S2 = DominoTableau(2, ((0, 0, 1, 1), (0, 3, 4), (2, 3, 4), (2,)))
T2 = DominoTableau(2, ((0, 0, 1, 1), (0, 2, 2), (3, 4, 4), (3,)))


# The rank-lowering maps, inverse to `core_raise` and `raise_rank`; no
# computation needs them, so they live here.
def _lowered(item):
    (down,) = _shift((item,), OPPOSITE)
    if isinstance(down, Exception):
        raise down
    return down


def core_lower(t):
    """Move one tableau through all its opposite core cycles: rank r-1."""
    (down,) = _lowered((t,))
    return down


def lower_rank(pair):
    """Move a rank-(r+1) pair through its opposite extended cycles: rank r."""
    return TableauPair(*_lowered((pair.left, pair.right)))


def fixed_square(t, label, conv):
    """The square of domino `label` whose i + j has the rank's parity under
    the opposite convention, and the other parity under the regular one."""
    parity = t.rank % 2 if conv == OPPOSITE else (t.rank + 1) % 2
    (fix,) = (sq for sq in t.dominos[label] if sum(sq) % 2 == parity)
    return fix


def union(groups):
    return frozenset().union(frozenset(), *groups)


def partition_sets(t, conv):
    return {c.labels for c in cycle_partition(t, conv)}


def kinds(t, conv):
    return {tuple(sorted(c.labels)): c.kind for c in cycle_partition(t, conv)}


def test_regular_cycles_of_the_rank2_pair():
    for t in (S2, T2):
        assert partition_sets(t, REGULAR) == {
            frozenset({1}), frozenset({2}), frozenset({3}), frozenset({4})
        }
        k = kinds(t, REGULAR)
        assert k[(1,)] == k[(2,)] == k[(3,)] == "core-open"
        assert k[(4,)] == "noncore-open"


def test_opposite_cycles_of_the_left_tableau():
    assert partition_sets(S2, OPPOSITE) == {
        frozenset({1}), frozenset({2}), frozenset({3, 4})
    }
    k = kinds(S2, OPPOSITE)
    assert k[(1,)] == k[(2,)] == "core-open"
    assert k[(3, 4)] == "closed"


def _singleton_relocations(t, label, conv):
    """Independent oracle: all loose-standard single-domino relocations of
    `label` about its fixed square that avoid every other domino."""
    fix = fixed_square(t, label, conv)
    dominos = t.dominos
    others = {sq for k, d in dominos.items() if k != label for sq in d}
    current = dominos[label]
    results = []
    i, j = fix
    for cand in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
        if cand[0] < 1 or cand[1] < 1 or cand in others:
            continue
        pos = frozenset({fix, cand})
        if pos == current:
            continue
        base = {sq: k for k, d in dominos.items() if k != label for sq in d}
        base.update({sq: label for sq in pos})
        zeros = {sq for sq, x in t.cells().items() if x == 0} - pos
        (vacated,) = current - pos - {fix} if fix in pos else (None,)
        for keep_vacated in (False, True):
            cells = dict(base)
            for sq in zeros:
                cells[sq] = 0
            if keep_vacated and vacated is not None:
                cells[vacated] = 0
            try:
                shape_rows = _rows_from_cells(cells)
            except ValueError:
                continue
            cand_t = DominoTableau(t.rank, shape_rows)
            try:
                cand_t.check_standard(strict_core=False)
            except TableauError:
                continue
            results.append(cand_t)
    return results


def _rows_from_cells(cells):
    if not cells:
        return ()
    nrows = max(i for i, _ in cells)
    rows = []
    for i in range(1, nrows + 1):
        cols = sorted(j for (a, j) in cells if a == i)
        if cols != list(range(1, len(cols) + 1)):
            raise ValueError("not left justified")
        rows.append(tuple(cells[(i, j)] for j in cols))
    if any(len(a) < len(b) for a, b in zip(rows, rows[1:])):
        raise ValueError("not a Young diagram")
    return tuple(rows)


def test_opposite_cycles_of_the_right_tableau():
    # Label 3 admits no standard single-domino relocation that avoids the
    # other dominos, so it cannot form a cycle on its own: the whole chain
    # 2, 3, 4 moves together.
    assert _singleton_relocations(T2, 3, OPPOSITE) == []
    assert partition_sets(T2, OPPOSITE) == {frozenset({1}), frozenset({2, 3, 4})}
    k = kinds(T2, OPPOSITE)
    assert k[(1,)] == "core-open" and k[(2, 3, 4)] == "core-open"


def test_relocation_rejects_what_it_cannot_relocate():
    with pytest.raises(ValueError, match="unknown convention"):
        moved_domino(T2, 3, "sideways")
    with pytest.raises(TableauError, match="no domino labeled 9"):
        moved_domino(T2, 9, OPPOSITE)
    with pytest.raises(TableauError, match="not adjacent"):
        cycle_partition(DominoTableau(0, ((1, 2, 1), (2,))), REGULAR)


def test_move_through_fixtures():
    assert move_through(S2, set(), REGULAR) == S2
    got = move_through(S2, {1, 2, 3}, REGULAR)
    assert got.rows == ((0, 0, 0, 1, 1), (0, 0, 4), (0, 3, 4), (2, 3), (2,))
    got = move_through(S2, {1, 2, 3, 4}, REGULAR)
    assert got.rows == ((0, 0, 0, 1, 1), (0, 0, 4, 4), (0, 3), (2, 3), (2,))
    got = move_through(T2, {1, 2, 3}, REGULAR)
    assert got.rows == ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4, 4), (3,), (3,))
    got = move_through(T2, {1, 2, 3, 4}, REGULAR)
    assert got.rows == ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4), (3, 4), (3,))


def test_move_through_rejects_partial_cycles():
    with pytest.raises(TableauError):
        move_through(S2, {3}, OPPOSITE)  # 3 and 4 share an opposite cycle


def test_extended_cycles_of_the_rank2_pair():
    ext = extended_cycles(S2, T2)
    assert set(ext.left_groups) == {
        frozenset({1}), frozenset({2}), frozenset({3, 4})
    }
    assert set(ext.right_groups) == {
        frozenset({1}), frozenset({2, 4}), frozenset({3})
    }
    pair = raise_rank(TableauPair(S2, T2))
    assert pair.left.rows == ((0, 0, 0, 1, 1), (0, 0, 4, 4), (0, 3), (2, 3), (2,))
    assert pair.right.rows == ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4), (3, 4), (3,))
    assert pair.rank == 3


S41 = DominoTableau(2, ((0, 0, 1, 1, 4, 4), (0, 3, 3, 5, 5), (2,), (2,)))
T41 = DominoTableau(2, ((0, 0, 3, 3, 4, 4), (0, 2, 2, 5, 5), (1,), (1,)))


def test_extended_cycles_of_the_rank2_n5_pair():
    ext = extended_cycles(S41, T41)
    assert set(ext.left_groups) == {
        frozenset({1, 4}), frozenset({2}), frozenset({3, 5})
    }
    assert set(ext.right_groups) == {
        frozenset({1}), frozenset({2, 5}), frozenset({3, 4})
    }
    left = move_through(S41, union(ext.left_groups), REGULAR)
    right = move_through(T41, union(ext.right_groups), REGULAR)
    assert left.rows == (
        (0, 0, 0, 1, 1, 4, 4), (0, 0, 3, 3, 5, 5), (0,), (2,), (2,))
    assert right.rows == (
        (0, 0, 0, 3, 3, 4, 4), (0, 0, 2, 2, 5, 5), (0,), (1,), (1,))


def test_split_pair_extends_by_nothing():
    # a split pair: the extended cycles are exactly the core cycles
    w = (2, 1, -3)
    pair = insert(w, 2)
    assert pair.is_split()
    ext = extended_cycles(pair.left, pair.right)
    core_left = {c.labels for c in cycle_partition(pair.left, REGULAR)
                 if c.kind == "core-open"}
    noncore_left = [c for c in cycle_partition(pair.left, REGULAR)
                    if c.kind == "noncore-open"]
    assert noncore_left == []
    assert set(ext.left_groups) == core_left


def _all_small_tableaux():
    out = []
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            out.extend(enumerate_sdt(n, r))
    return out


SMALL = _all_small_tableaux()


@given(st.sampled_from(SMALL), st.sampled_from((REGULAR, OPPOSITE)))
def test_move_through_is_an_involution(t, conv):
    for cyc in cycle_partition(t, conv):
        assert move_through(move_through(t, cyc.labels, conv), cyc.labels, conv) == t


@given(st.sampled_from(SMALL))
def test_cycles_partition_the_labels(t):
    for conv in (REGULAR, OPPOSITE):
        labels = [x for c in cycle_partition(t, conv) for x in c.labels]
        assert sorted(labels) == sorted(t.dominos)


def test_classification_matches_shape_behaviour():
    for n in range(1, 5):
        for r in range(4):
            for t in enumerate_sdt(n, r):
                cells = sum(t.shape)
                for conv in (REGULAR, OPPOSITE):
                    for cyc in cycle_partition(t, conv):
                        moved = move_through(t, cyc.labels, conv)
                        if cyc.kind == "closed":
                            assert moved.shape == t.shape
                        elif cyc.kind == "core-open":
                            assert sum(moved.shape) != cells
                        else:
                            assert moved.shape != t.shape and sum(moved.shape) == cells


def test_noncore_orbit_walks_every_union_of_noncore_cycles():
    # the walk by combinations of the classified cycles, one move per union
    for n in range(1, 5):
        for r in range(4):
            for t in enumerate_sdt(n, r):
                for conv in (REGULAR, OPPOSITE):
                    ncc = [c.labels for c in cycle_partition(t, conv)
                           if c.kind == "noncore-open"]
                    expected = [
                        (labels, move_through(t, labels, conv).rows)
                        for size in range(len(ncc) + 1)
                        for subset in itertools.combinations(ncc, size)
                        for labels in [frozenset().union(frozenset(), *subset)]
                    ]
                    got = [(labels, moved.rows)
                           for labels, moved in noncore_orbit(t, conv)]
                    assert got == expected
                    assert got[0] == (frozenset(), t.rows)


def test_cycle_squares_are_what_its_move_adds_or_removes():
    # the whole-map move is the oracle for the squares and the kind that
    # the relocation pass reads from each cycle's own squares
    for n in range(1, 5):
        for r in range(max(n + 2, 4)):
            for t in enumerate_sdt(n, r):
                before = t.cells().keys()
                for conv in (REGULAR, OPPOSITE):
                    for c in cycle_partition(t, conv):
                        after = move_through(t, c.labels, conv).cells().keys()
                        assert c.squares == before ^ after
                        assert c.kind == (
                            "closed" if after == before else
                            "core-open" if len(after) != len(before) else
                            "noncore-open"
                        )


def test_open_cycles_of_one_pass_disturb_disjoint_squares():
    # `_link` links each open cycle to the first one that disturbs the same
    # square, which links only cycles of different sides because of this
    for n in range(1, 6):
        for r in range(n + 2):
            for t in enumerate_sdt(n, r):
                for conv in (REGULAR, OPPOSITE):
                    squares = [sq for c in cycle_partition(t, conv)
                               if c.kind != "closed" for sq in c.squares]
                    assert len(squares) == len(set(squares))


def test_overlapping_relocations_are_rejected(monkeypatch):
    # label 1 stays put and label 2 is relocated onto it
    monkeypatch.setattr(cycles_mod, "_pivot",
                        lambda cells, k, squares, parity: frozenset({(1, 1), (1, 2)}))
    _relocate.cache_clear()
    try:
        with pytest.raises(TableauError, match=r"cycle \[1, 2\]: relocated dominos overlap"):
            cycle_partition(DominoTableau(0, ((1, 1), (2, 2))), REGULAR)
    finally:
        _relocate.cache_clear()


def test_memoized_pairs_hold_only_their_fields():
    # tableaux and pairs are slotted values: whatever reads a pair held by
    # the insert memo, nothing is written into it
    insert.cache_clear()
    for w in group_elements(3):
        for r in range(3):
            pair = insert(w, r)
            raise_rank(pair)
            assert uninsert(pair) == w
            for value in (pair, pair.left, pair.right):
                assert not hasattr(value, "__dict__")


def test_one_relocation_pass_serves_partition_moves_and_core_raise():
    t = S41
    _relocate.cache_clear()
    for cyc in cycle_partition(t, REGULAR):
        move_through(t, cyc.labels, REGULAR)
    core_raise(t)
    assert _relocate.cache_info().misses == 1


@pytest.mark.parametrize("n", range(5))
def test_raising_a_rank_at_once_is_raising_each_pair(n, monkeypatch):
    # a batch is its items one at a time, under both conventions; exceptions
    # are compared by what they say
    def outcomes(results):
        return [(type(x), str(x)) if isinstance(x, Exception) else x for x in results]

    for r in range(n + 1):
        pairs = [(pair.left, pair.right)
                 for pair in _rank_pairs(group_elements(n), r)[0].values()]
        tableaux = [(t,) for t in enumerate_sdt(n, r)]
        raised = [raise_rank(TableauPair(*pair)) for pair in pairs]
        assert _shift(pairs, REGULAR) == [(up.left, up.right) for up in raised]
        assert _shift(tableaux, REGULAR) == [(core_raise(t),) for (t,) in tableaux]
        for items in (pairs, tableaux):
            assert outcomes(_shift(items, OPPOSITE)) == outcomes(
                x for item in items for x in _shift((item,), OPPOSITE))
            if r == 0:  # no rank below 0 to lower to
                assert outcomes(_shift(items, OPPOSITE)) == [
                    (TableauError, "a rank-0 tableau has no lower rank")] * len(items)
    # the one-item calls raise what the driver met, and return nothing
    def failing(cells, rank):
        raise TableauError("injected re-cut failure")

    monkeypatch.setattr(cycles_mod, "_normalized", failing)
    for (left, right) in pairs:
        with pytest.raises(TableauError, match="injected re-cut failure"):
            core_raise(left)
        with pytest.raises(TableauError, match="injected re-cut failure"):
            raise_rank(TableauPair(left, right))


def test_raising_a_rank_relocates_and_moves_each_tableau_once(monkeypatch):
    # W_4 has 76 standard domino tableaux at every rank; the moves are the
    # distinct (tableau, extended label group) of the rank's 384 pairs, one
    # re-cut each
    calls = {"_relocate": [], "_apply_moves": [], "_normalized": []}
    for name, seen in calls.items():
        def counted(*args, _healthy=getattr(cycles_mod, name), _seen=seen):
            _seen.append(args)
            return _healthy(*args)
        monkeypatch.setattr(cycles_mod, name, counted)
    moves = []
    for r in range(5):
        pairs = list(_rank_pairs(group_elements(4), r)[0].values())
        for seen in calls.values():
            seen.clear()
        ups = _shift(((pair.left, pair.right) for pair in pairs), REGULAR)
        assert not any(isinstance(up, Exception) for up in ups)
        relocated = [t for t, _ in calls["_relocate"]]
        assert len(relocated) == len(set(relocated)) == 76
        assert set(relocated) == {t for pair in pairs for t in (pair.left, pair.right)}
        # each relocation pass stays alive in the call, so its id names it
        moved = {(id(rel), frozenset(labels)) for rel, labels in calls["_apply_moves"]}
        assert len(moved) == len(calls["_apply_moves"]) == len(calls["_normalized"])
        moves.append(len(moved))
    assert moves == [102, 104, 90, 76, 76]


def test_core_raise_is_pinned():
    # a lone tableau's extended cycles are its core cycles; digest of every
    # raised tableau for n <= 5, ranks 0..n, computed before the one-pass
    # link
    digest = hashlib.sha256()
    for n in range(6):
        for rank in range(n + 1):
            for t in enumerate_sdt(n, rank):
                digest.update(repr(core_raise(t).rows).encode())
    assert digest.hexdigest() == (
        "f0ab1c615c33fb7a44ca6b1083af0d18aece7b83234549ae8ffc40acbcea7dd3")


def test_core_raise_and_lower_are_mutually_inverse():
    for n in (1, 2, 3):
        for r in (0, 1, 2):
            for t in enumerate_sdt(n, r):
                up = core_raise(t)
                assert up.rank == r + 1
                up.check_standard()
                assert core_lower(up) == t


def test_minimality_of_extension_by_brute_force():
    # no proper subset of the chosen non-core additions matches the shapes
    for w in group_elements(3):
        for r in (0, 1):
            pair = insert(w, r)
            ext = extended_cycles(pair.left, pair.right)
            cl = cycle_partition(pair.left, REGULAR)
            cr = cycle_partition(pair.right, REGULAR)
            core_l = union(c.labels for c in cl if c.kind == "core-open")
            core_r = union(c.labels for c in cr if c.kind == "core-open")
            open_l = [c.labels for c in cl if c.kind == "noncore-open"]
            open_r = [c.labels for c in cr if c.kind == "noncore-open"]
            best = None
            for mask_l in range(1 << len(open_l)):
                add_l = frozenset().union(frozenset(), *(
                    open_l[i] for i in range(len(open_l)) if mask_l >> i & 1))
                for mask_r in range(1 << len(open_r)):
                    add_r = frozenset().union(frozenset(), *(
                        open_r[i] for i in range(len(open_r)) if mask_r >> i & 1))
                    lhs = move_through(pair.left, core_l | add_l, REGULAR)
                    rhs = move_through(pair.right, core_r | add_r, REGULAR)
                    if lhs.shape == rhs.shape:
                        size = len(add_l) + len(add_r)
                        if best is None or size < best[0]:
                            best = (size, core_l | add_l, core_r | add_r)
            assert best is not None
            assert union(ext.left_groups) == best[1]
            assert union(ext.right_groups) == best[2]


def test_rank_round_trip_on_insertion_images():
    for n in (1, 2, 3, 4):
        for w in group_elements(n):
            for r in range(n):
                pair = insert(w, r)
                again = lower_rank(raise_rank(pair))
                assert (again.left, again.right) == (pair.left, pair.right)


def test_lower_rank_of_the_printed_rank3_pair():
    s3 = DominoTableau(3, ((0, 0, 0, 1, 1), (0, 0, 4, 4), (0, 3), (2, 3), (2,)))
    t3 = DominoTableau(3, ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4), (3, 4), (3,)))
    down = lower_rank(TableauPair(s3, t3))
    assert (down.left, down.right) == (S2, T2)


def test_cycle_serialization():
    cycles = cycle_partition(S2, OPPOSITE)
    dumped = sorted((sorted(c.labels), c.kind) for c in cycles)
    assert dumped == [([1], "core-open"), ([2], "core-open"), ([3, 4], "closed")]
    ext = extended_cycles(S2, T2)
    assert [sorted(g) for g in ext.left_groups] == [[1], [2], [3, 4]]
    assert [sorted(g) for g in ext.right_groups] == [[1], [2, 4], [3]]


def test_tau_preserved_by_eligible_cycle_moves():
    for t in SMALL:
        for conv in (REGULAR, OPPOSITE):
            if conv == OPPOSITE and t.rank == 0:
                continue
            for cyc in cycle_partition(t, conv):
                if cyc.kind == "closed" and len(cyc.labels) == 2:
                    lo, hi = sorted(cyc.labels)
                    if hi == lo + 1:
                        continue
                assert tau_of_tableau(move_through(t, cyc.labels, conv)) == \
                    tau_of_tableau(t)
