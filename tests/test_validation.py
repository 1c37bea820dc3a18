"""The checks on tableaux the library builds: each one-pass check rejects
what the validation before it rejected, and every built tableau is
standard."""

import random

import pytest

from dominocells.cycles import (
    OPPOSITE, REGULAR, core_raise, cycle_partition,
    move_through, noncore_orbit, raise_rank,
)
from dominocells.insertion import insert
from dominocells.shapes import cells_of_shape, shape_from_cells, staircase
from dominocells.tableaux import DominoTableau, TableauError, _check_tiling
from dominocells.wgroup import group_elements


def _is_diagram(squares):
    """Brute force: every square has row and column >= 1, and the squares
    left of it and above it inside the quadrant are in the set."""
    return all(
        i >= 1 and j >= 1
        and (j == 1 or (i, j - 1) in squares)
        and (i == 1 or (i - 1, j) in squares)
        for i, j in squares
    )


def _square_sets(seed=2024, count=3000):
    """Square sets in the 5 x 5 box together with row 0 and column 0:
    diagrams with a few squares toggled, and sparse random sets."""
    rng = random.Random(seed)
    box = [(i, j) for i in range(6) for j in range(6)]
    for _ in range(count):
        if rng.random() < 0.8:
            rows = sorted((rng.randint(0, 5) for _ in range(5)), reverse=True)
            squares = set(cells_of_shape(tuple(x for x in rows if x)))
            for _ in range(rng.choice((0, 1, 1, 2))):
                squares ^= {rng.choice(box)}
        else:
            squares = {sq for sq in box if rng.random() < 0.2}
        yield squares


def test_diagram_checks_reject_exactly_the_non_diagrams():
    outcomes = {True: 0, False: 0}
    for squares in _square_sets():
        diagram = _is_diagram(squares)
        outcomes[diagram] += 1
        cells = dict.fromkeys(squares, 0)
        if diagram:
            t = DominoTableau.from_cells(0, cells)
            assert t.cells() == cells
            assert shape_from_cells(list(squares)) == t.shape
        else:
            with pytest.raises(ValueError, match="not form a Young diagram"):
                DominoTableau.from_cells(0, cells)
            with pytest.raises(ValueError, match="not form a Young diagram"):
                shape_from_cells(list(squares))
    assert min(outcomes.values()) > 500


# raise_rank of the rank-2 pair of (4, 1, -3, -2): the left tableau
L3 = ((0, 0, 0, 1, 1), (0, 0, 4, 4), (0, 3), (2, 3), (2,))
CORE3 = frozenset(cells_of_shape(staircase(3)))


def _moved_map():
    return DominoTableau(3, L3).cells()


def test_check_tiling_accepts_the_moved_map():
    assert raise_rank(insert((4, 1, -3, -2), 2)).left.rows == L3
    _check_tiling(_moved_map(), CORE3)
    _check_tiling(_moved_map())


def _one_square():
    cells = _moved_map()
    del cells[(1, 5)]  # label 1 keeps only (1, 4)
    return cells


def _non_adjacent():
    cells = _moved_map()
    cells[(1, 5)], cells[(2, 3)] = 4, 1  # 1 on (1, 4), (2, 3); 4 on (1, 5), (2, 4)
    return cells


def _missing_label():
    cells = _moved_map()
    cells[(2, 3)] = cells[(2, 4)] = 5  # labels 1, 2, 3, 5
    return cells


def _core_outside_staircase():
    cells = _moved_map()
    cells[(3, 1)], cells[(4, 2)] = 3, 0  # 3 on (3, 1), (3, 2); 0 on (4, 2)
    return cells


def _core_short_of_staircase():
    cells = _moved_map()
    cells[(3, 1)] = 2  # 2 moves up onto the staircase square (3, 1)
    del cells[(5, 1)]
    return cells


@pytest.mark.parametrize("mutate, core, message", [
    (_one_square, None, "label 1 covers 1 squares"),
    (_non_adjacent, None, "not adjacent"),
    (_missing_label, None, "not 1..n"),
    (_core_outside_staircase, CORE3, "not the staircase"),
    (_core_short_of_staircase, CORE3, "not the staircase"),
])
def test_check_tiling_rejects_a_mutated_map(mutate, core, message):
    cells = mutate()
    DominoTableau.from_cells(3, cells)  # a diagram: only the tiling is wrong
    with pytest.raises(TableauError, match=message):
        _check_tiling(cells, core)


def test_every_built_tableau_is_standard():
    for n in range(1, 5):
        built = set()
        for w in group_elements(n):
            for r in range(n + 1):
                pair = insert(w, r)
                up = raise_rank(pair)
                for t in (pair.left, pair.right, up.left, up.right):
                    t.check_standard()
                built.update((pair.left, pair.right))
        for t in built:
            core_raise(t).check_standard()
            for conv in (REGULAR, OPPOSITE):
                for cyc in cycle_partition(t, conv):
                    move_through(t, cyc.labels, conv).check_standard(strict_core=False)
                for _, moved in noncore_orbit(t, conv):
                    moved.check_standard(strict_core=False)
