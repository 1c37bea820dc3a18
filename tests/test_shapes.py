import itertools

import pytest
from hypothesis import given, strategies as st

from dominocells.shapes import (
    addable_dominos, cells_of_shape, diagonal, is_removable, is_young,
    removable_dominos, shape_from_cells, staircase,
)


def delete_domino(shape, domino):
    """Resulting shape, or None when deletion does not leave a Young diagram
    (the empty diagram and diagrams containing (1,1) are the legal results)."""
    remaining = set(cells_of_shape(shape)) - set(domino)
    if not remaining:
        return ()
    if (1, 1) not in remaining:
        return None
    try:
        return shape_from_cells(remaining)
    except ValueError:
        return None


def two_core(shape, order_seed=None):
    """The 2-core and rank of a shape, by iterated domino deletion.

    The result does not depend on the deletion order; `order_seed` picks a
    different order so the tests can check exactly that."""
    if not is_young(shape):
        raise ValueError(f"not a partition: {shape}")
    current = tuple(shape)
    deleted = 0
    while True:
        options = sorted(removable_dominos(current), key=sorted)
        if not options:
            break
        if order_seed is None:
            pick = options[0]
        else:
            pick = options[(order_seed + deleted) % len(options)]
        current = delete_domino(current, pick)
        deleted += 1
    rank = len(current)
    if current != staircase(rank):
        raise AssertionError(f"2-core of {shape} is not a staircase: {current}")
    return current, rank


@st.composite
def partitions(draw, max_cells=20):
    rows = []
    remaining = draw(st.integers(0, max_cells))
    prev = remaining
    while remaining > 0:
        row = draw(st.integers(1, max(prev, 1)))
        row = min(row, remaining, prev if rows else row)
        rows.append(row)
        prev = row
        remaining -= row
    return tuple(rows)


def _all_partitions(size, largest=None):
    if size == 0:
        yield ()
        return
    for first in range(min(size, largest or size), 0, -1):
        for rest in _all_partitions(size - first, first):
            yield (first,) + rest


def test_two_core_fixture():
    assert two_core((7, 6, 1, 1, 1)) == ((3, 2, 1), 3)
    assert two_core(staircase(4)) == (staircase(4), 4)
    assert two_core((2,)) == ((), 0)


@given(partitions(), st.integers(0, 11))
def test_two_core_is_deletion_order_independent(shape, seed):
    assert two_core(shape) == two_core(shape, order_seed=seed)


@given(partitions())
def test_core_defect_is_even(shape):
    core, rank = two_core(shape)
    assert (sum(shape) - sum(core)) % 2 == 0
    assert core == staircase(rank)


def test_removable_dominos_fixtures():
    assert removable_dominos((2,)) == frozenset({frozenset({(1, 1), (1, 2)})})
    assert removable_dominos(staircase(3)) == frozenset()
    # brute-force oracle for a 2x2 square: deletions must leave a diagram
    got = removable_dominos((2, 2))
    expected = {
        d
        for d in (
            frozenset({(1, 1), (1, 2)}),
            frozenset({(2, 1), (2, 2)}),
            frozenset({(1, 1), (2, 1)}),
            frozenset({(1, 2), (2, 2)}),
        )
        if delete_domino((2, 2), d) is not None
    }
    assert got == expected == {
        frozenset({(2, 1), (2, 2)}),
        frozenset({(1, 2), (2, 2)}),
    }
    # the corner rule against deleting every domino position of every
    # partition of size <= 12
    for size in range(13):
        for shape in _all_partitions(size):
            cells = set(cells_of_shape(shape))
            positions = {
                frozenset({(i, j), sq})
                for (i, j) in cells
                for sq in ((i, j + 1), (i + 1, j))
                if sq in cells
            }
            assert removable_dominos(shape) == {
                d for d in positions if delete_domino(shape, d) is not None
            }, shape


def test_is_removable_agrees_with_the_removable_dominos():
    # every partition of size <= 8, against every set of one to three
    # squares of a box one row and one column larger, edges included
    for size in range(9):
        for shape in _all_partitions(size):
            box = [(i, j) for i in range(len(shape) + 2)
                   for j in range((shape[0] if shape else 0) + 2)]
            dominos = removable_dominos(shape)
            for k in (1, 2, 3):
                for squares in itertools.combinations(box, k):
                    assert is_removable(shape, set(squares)) == (
                        frozenset(squares) in dominos), (shape, squares)


def test_addable_dominos_are_the_removable_dominos_of_the_grown_shapes():
    assert addable_dominos(()) == [((1, 1), (1, 2)), ((1, 1), (2, 1))]
    assert addable_dominos((3, 1, 1)) == [
        ((1, 4), (1, 5)), ((2, 2), (2, 3)), ((2, 2), (3, 2)), ((4, 1), (5, 1))]
    assert addable_dominos((2, 2)) == [
        ((1, 3), (1, 4)), ((1, 3), (2, 3)), ((3, 1), (3, 2)), ((3, 1), (4, 1))]
    for size in range(13):
        added = set()
        for shape in _all_partitions(size):
            positions = addable_dominos(shape)
            # row by row from the top, each row's horizontal domino first
            assert positions == sorted(positions, key=lambda d: (d[0][0], d[1][0] > d[0][0]))
            for d in positions:
                grown = shape_from_cells(set(cells_of_shape(shape)) | set(d))
                assert sum(grown) == size + 2
                added.add((shape, frozenset(d)))
        # each added domino is removable from the result, and each removable
        # domino of a shape two larger is addable to what is left
        assert added == {
            (delete_domino(shape, d), d)
            for shape in _all_partitions(size + 2) for d in removable_dominos(shape)
        }, size


def test_shape_from_cells():
    assert shape_from_cells(set(cells_of_shape((3, 1)))) == (3, 1)
    assert shape_from_cells([]) == ()
    for cells in ({(1, 1), (1, 3)}, {(2, 1)}, {(1, 1), (2, 1), (2, 2)},
                  {(0, 1), (1, 1)}, {(1, 0), (1, 1)}):
        with pytest.raises(ValueError):
            shape_from_cells(cells)


def test_diagonal():
    assert diagonal(1) == frozenset({(1, 1)})
    assert diagonal(4) == frozenset({(1, 4), (2, 3), (3, 2), (4, 1)})
    assert len(diagonal(5)) == 5
    with pytest.raises(ValueError):
        diagonal(0)
