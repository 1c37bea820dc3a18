import hashlib
import math
import random

import pytest

from dominocells import insertion as insertion_mod
from dominocells.cells import class_of_tableau
from dominocells.insertion import (
    _core, _insert, _rank_pairs, _states, _tableau, _undo_step, _walk,
    asymptotic_bitableaux, insert, insertion_states, tableau_classes, uninsert,
)
from dominocells.shapes import cells_of_shape, staircase
from dominocells.tableaux import (
    DominoTableau, TableauError, TableauPair, _dominos, _vertical, enumerate_sdt,
)
from dominocells.wgroup import group_elements, inverse
from wgroup_oracles import is_nonsplit, split_ranks

W = (4, 1, -3, -2)

FIXTURES = {
    0: ([[1, 1, 4], [2, 3, 4], [2, 3]], [[1, 1, 4], [2, 2, 4], [3, 3]]),
    1: ([[0, 1, 1], [2, 3, 4], [2, 3, 4]], [[0, 1, 1], [2, 2, 4], [3, 3, 4]]),
    2: ([[0, 0, 1, 1], [0, 3, 4], [2, 3, 4], [2]],
        [[0, 0, 1, 1], [0, 2, 2], [3, 4, 4], [3]]),
    3: ([[0, 0, 0, 1, 1], [0, 0, 4, 4], [0, 3], [2, 3], [2]],
        [[0, 0, 0, 1, 1], [0, 0, 2, 2], [0, 4], [3, 4], [3]]),
}


@pytest.mark.parametrize("rank", sorted(FIXTURES))
def test_insertion_fixtures(rank):
    pair = insert(W, rank)
    left, right = FIXTURES[rank]
    assert [list(r) for r in pair.left.rows] == left
    assert [list(r) for r in pair.right.rows] == right
    pair.left.check_standard()
    pair.right.check_standard()


def test_empty_insertion():
    pair = insert((), 2)
    assert pair.left == DominoTableau(2, ((0, 0), (0,))) and pair.left.n == 0
    assert uninsert(pair) == ()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_insertion_is_injective_and_same_shape(n):
    for r in range(n + 1):
        seen = set()
        for w in group_elements(n):
            pair = insert(w, r)
            assert pair.left.shape == pair.right.shape
            key = (pair.left.rows, pair.right.rows)
            assert key not in seen
            seen.add(key)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_uninsert_roundtrip(n):
    for w in group_elements(n):
        for r in range(n + 1):
            assert uninsert(insert(w, r)) == w


def test_uninsert_of_fixture():
    assert uninsert(insert(W, 2)) == W


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_undo_step_inverts_each_insertion_step(n):
    for w in group_elements(n):
        for r in range(n + 1):
            states = insertion_states(w, r)
            for k in range(1, n + 1):
                cells, dominos = states[k].left.cells(), states[k].left.dominos
                value, shape = _undo_step(
                    cells, dominos, states[k].shape, states[k].right.dominos[k]
                )
                assert value == w[k - 1]
                assert cells == states[k - 1].left.cells()
                assert dominos == states[k - 1].left.dominos
                assert shape == states[k - 1].shape
            assert states[-1] == insert(w, r)


def test_undo_step_fails_loudly():
    left = insert(W, 2).left
    with pytest.raises(TableauError, match="not a removable domino"):
        _undo_step(left.cells(), left.dominos, left.shape, {(1, 3), (1, 4)})
    # labels 1 and 2 of the rank-0 tableau ((1, 1), (2, 2)) swapped
    swapped = {(1, 1): 2, (1, 2): 2, (2, 1): 1, (2, 2): 1}
    with pytest.raises(TableauError, match="0 ways back"):
        _undo_step(swapped, _dominos(swapped), (2, 2), {(2, 1), (2, 2)})
    with pytest.raises(TableauError, match="entry domino 2"):
        _undo_step(swapped, _dominos(swapped), (2, 2), {(1, 2), (2, 2)})


def test_undo_step_refuses_a_region_whose_cut_rows_are_no_diagram():
    # labels 1 and 3 of ((1, 1, 3, 3), (2, 2)) swapped: once label 3 has
    # left the end of row 1, cutting the step's squares from the row
    # lengths of the labels up to 2 leaves no diagram, and those cut row
    # lengths refuse the region
    mixed = {(1, 1): 3, (1, 2): 3, (1, 3): 1, (1, 4): 1, (2, 1): 2, (2, 2): 2}
    with pytest.raises(TableauError, match="cells do not form a Young diagram"):
        _undo_step(mixed, _dominos(mixed), (4, 2), {(2, 1), (2, 2)})


@pytest.mark.parametrize("n", range(5))
def test_undo_accepts_exactly_the_insertion_pairs(n):
    # a standard left tableau and a same-shape right tableau with its labels
    # permuted: the undo gives the w that inserts to the pair when the right
    # tableau is standard, and refuses the pair with TableauError, never
    # another exception, when it is not
    rng = random.Random(n)
    outcomes = {True: 0, False: 0}
    for r in range(n + 2):
        by_shape = {}
        for t in enumerate_sdt(n, r):
            by_shape.setdefault(t.shape, []).append(t)
        for same in by_shape.values():
            for left in same:
                for _ in range(3):
                    labels = [0, *rng.sample(range(1, n + 1), n)]
                    rows = rng.choice(same).rows
                    right = DominoTableau(r, tuple([tuple([labels[x] for x in row])
                                                    for row in rows]))
                    pair = TableauPair(left, right)
                    try:
                        right.check_standard()
                        standard = True
                    except TableauError:
                        standard = False
                    try:
                        assert insert(uninsert(pair), r) == pair and standard
                    except TableauError:
                        assert not standard
                    outcomes[standard] += 1
    if n >= 2:
        assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("n", range(6))
def test_recording_tableaux_are_the_standard_tableaux(n):
    # the walk's recording tableaux at each rank, which `verify tau` and
    # `verify classes` check, are exactly the independently grown ones
    for r in range(n + 2):
        assert set(tableau_classes(n, r)) == set(enumerate_sdt(n, r))


def test_uninsert_rejects_invalid_pairs():
    pair = insert(W, 2)
    with pytest.raises(TableauError, match="staircase"):
        uninsert(TableauPair(
            DominoTableau(1, pair.left.rows), DominoTableau(1, pair.right.rows)
        ))
    standard = DominoTableau(0, ((1, 1), (2, 2)))
    swapped = DominoTableau(0, ((2, 2), (1, 1)))
    with pytest.raises(TableauError, match="decreases"):
        uninsert(TableauPair(swapped, standard))
    with pytest.raises(TableauError, match="not a removable domino"):
        uninsert(TableauPair(standard, swapped))
    # the right tableau comes from outside too: labels {1, 3}, no 2
    with pytest.raises(TableauError, match="no domino labeled 2"):
        uninsert(TableauPair(standard, DominoTableau(0, ((1, 1), (3, 3)))))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bitableau_model_matches_insertion_in_stable_range(n):
    for w in group_elements(n):
        for r in (n - 1, n, n + 1):
            if r < 0:
                continue
            a = insert(w, r)
            b = asymptotic_bitableaux(w, r)
            assert (a.left, a.right) == (b.left, b.right)


def test_bitableau_rejects_low_rank():
    with pytest.raises(ValueError):
        asymptotic_bitableaux((2, -1, 3), 1)


def test_identity_inserts_as_one_row():
    pair = asymptotic_bitableaux((1, 2, 3), 2)
    assert pair.left == pair.right
    dominos = pair.left.dominos
    assert not any(_vertical(dominos[k]) for k in (1, 2, 3))
    single = asymptotic_bitableaux((-1,), 0)
    assert _vertical(single.left.dominos[1])


def test_split_rank_fixtures():
    assert split_ranks(4)[W] == 3
    assert split_ranks(4)[(1, 2, 3, 4)] == 0
    assert split_ranks(0) == {(): 0}
    assert insert(W, 2).is_split() is False
    assert insert(W, 3).is_split() is True


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_split_rank_matches_decreasing_criterion(n):
    ranks = split_ranks(n)
    assert ranks.keys() == set(group_elements(n))
    for w in group_elements(n):
        assert (ranks[w] == n - 1) == is_nonsplit(w)


def test_split_rank_matches_the_pair_path():
    ranks = split_ranks(4)
    for w in group_elements(4):
        assert ranks[w] == min(r for r in range(4) if insert(w, r).is_split())


def test_one_shot_insertions_bypass_the_insert_memo():
    # the class maps walk W_n without reading or filling `insert`'s memo
    w = (5, -1, 3, -4, 2)
    t = insert(w, 2).right
    split_ranks.cache_clear()
    tableau_classes.cache_clear()
    before = insert.cache_info()
    assert len(split_ranks(5)) == 3840
    assert w in class_of_tableau(t, 5)
    assert insert.cache_info() == before


@pytest.mark.parametrize("n, ranks", [(n, range(n + 2)) for n in range(5)] + [(5, [2])])
def test_walk_matches_insert_and_groups_the_recording_classes(n, ranks):
    # increasing and decreasing order share each prefix; in the order of the
    # reversed words neighbours mostly differ in the first value, so the
    # walk restarts from the empty prefix
    orders = [group_elements(n), sorted(group_elements(n), key=lambda w: w[::-1]),
              sorted(group_elements(n), reverse=True)]
    for r in ranks:
        expected, by_left = {}, {}
        for w in group_elements(n):
            expected.setdefault(_insert(w, r).right, set()).add(w)
            by_left.setdefault(_insert(w, r).left, set()).add(w)
        classes = tableau_classes(n, r)
        assert classes == {t: frozenset(ws) for t, ws in expected.items()}
        # the classes of insertion tableaux are the recording classes inverted
        assert {t: frozenset(map(inverse, ws)) for t, ws in classes.items()} == {
            t: frozenset(ws) for t, ws in by_left.items()}
        for elems in orders:
            walked = {}
            for w, states in _walk(elems, r):
                assert w not in walked and len(states) == n + 1
                walked[w] = states
            assert walked.keys() == set(group_elements(n))
            for w, states in walked.items():
                left, where, steps = states[-1]
                pair = _insert(w, r)
                assert left == pair.left.cells()
                assert _tableau(r, steps) == pair.right
                placed = [where[k] for k in range(1, n + 1)]
                assert _tableau(r, placed) == DominoTableau.from_cells(r, left)


@pytest.mark.parametrize("n", range(5))
def test_the_shared_staircase_stays_the_staircase(n):
    # every walk starts from `_core(r)` and every frozen tableau copies it,
    # so a reader that changed it in place would shift every later tableau
    elems = group_elements(n)
    for r in range(n + 2):
        tableau_classes.__wrapped__(n, r)  # past the class map's cache
        _rank_pairs(elems, r)
        for w in elems:
            insertion_states(w, r)
        assert _core(r) == dict.fromkeys(cells_of_shape(staircase(r)), 0)


@pytest.mark.parametrize("n", range(5))
def test_rank_pairs_are_the_insertion_pairs_with_one_object_per_tableau(n):
    elems = group_elements(n)
    for r in range(n + 1):
        pairs, failed = _rank_pairs(elems, r)
        assert failed == {}
        assert tuple(sorted(pairs)) == elems
        # one dict for both sides: a tableau that is a left and a right is one object
        seen = {}
        for w, pair in pairs.items():
            assert pair == _insert(w, r)
            for t in (pair.left, pair.right):
                assert seen.setdefault(t, t) is t


def test_rank_pair_images_are_pinned():
    # every image (w, left, right) for n <= 5 and ranks up to n + 1, as a digest
    digest = hashlib.sha256()
    for n in range(6):
        for rank in range(n + 2):
            pairs, failed = _rank_pairs(group_elements(n), rank)
            assert failed == {}
            for w, pair in sorted(pairs.items()):
                digest.update(repr((w, pair.left.rows, pair.right.rows)).encode())
    assert digest.hexdigest() == (
        "be83cca7599a8e4750adcf1c11377a81206efc2236abbdfdcee9ebe77cbc6de0")


@pytest.mark.parametrize("n", range(6))
def test_left_tableau_is_the_right_tableau_of_the_inverse(n):
    # P(w) = Q(w^-1) at every rank up to n + 1
    for rank in range(n + 2):
        pairs, failed = _rank_pairs(group_elements(n), rank)
        assert failed == {}
        for w, pair in pairs.items():
            assert pair.left == pairs[inverse(w)].right


@pytest.mark.parametrize("n", range(6))
def test_walk_makes_one_step_per_signed_prefix(monkeypatch, n):
    # the signed prefixes of length k number 2^k n!/(n-k)!: 6,330 at n = 5
    prefixes = sum(2 ** k * math.perm(n, k) for k in range(1, n + 1))
    healthy = insertion_mod._step
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return healthy(*args)

    monkeypatch.setattr(insertion_mod, "_step", counted)
    for r in (0, n):
        for elems in (group_elements(n), sorted(group_elements(n), reverse=True)):
            calls[0] = 0
            assert sum(1 for _ in _walk(elems, r)) == 2 ** n * math.factorial(n)
            assert calls[0] == prefixes


def test_walk_never_changes_a_yielded_state():
    for r in range(4):
        held = list(_walk(group_elements(3), r))
        assert len(held) == 48
        for w, states in held:
            assert states == _states(w, r)


@pytest.mark.parametrize("target, rank, message", [
    (((1, 1), (1, 2)), 1, "insertion target \\(1, 1\\) is a core square"),
    (((1, 1), (1, 2), (1, 3)), 0, "step 1 added squares"),
])
def test_both_insertion_paths_run_the_step_assertions(monkeypatch, target, rank, message):
    monkeypatch.setattr(insertion_mod, "_target", lambda *args: target)
    with pytest.raises(AssertionError, match=message):
        _insert((1, 2), rank)
    with pytest.raises(AssertionError, match=message):
        list(_walk(group_elements(2), rank))


def test_recording_classes_hold_the_group_elements_themselves():
    held = {id(w) for w in group_elements(4)}
    for r in range(6):
        for ws in tableau_classes(4, r).values():
            assert all(id(w) in held for w in ws)


def test_partial_states_track_shapes():
    states = insertion_states(W, 2)
    assert len(states) == 5
    assert states[0].left.n == 0 and states[-1].right == insert(W, 2).right
    for k in range(1, 5):
        assert states[k].left.shape == states[k].right.shape
        assert set(states[k].right.dominos) == set(range(1, k + 1))


def test_recording_restriction_is_split():
    # labels 1..r+1 of the recording tableau always form a split tableau
    for n in (2, 3, 4):
        for w in group_elements(n):
            for r in range(n):
                q = insert(w, r).right
                keep = {0} | set(range(1, r + 2))
                rows = []
                for row in q.rows:
                    rows.append(tuple(x for x in row if x in keep))
                cut = DominoTableau(r, tuple(t for t in rows if t))
                # restriction keeps a standard tableau of the same rank
                cut.check_standard()
                assert cut.is_split()
