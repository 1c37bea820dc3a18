"""
Integer partitions as Young diagrams, addable and removable dominos, and
diagonals.

A shape is a weakly decreasing tuple of positive integers (row lengths).
Squares are 1-indexed: (i, j) lies in row i, column j.  A domino is a pair
of adjacent squares; deleting removable dominos from a diagram always
terminates in a staircase [r, r-1, ..., 1], the 2-core, and r is the rank.

>>> staircase(3)
(3, 2, 1)
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Tuple

__all__ = [
    "Shape", "Square", "staircase", "is_young", "cells_of_shape",
    "addable_dominos", "removable_dominos", "diagonal", "shape_from_cells",
]

Shape = tuple  # weakly decreasing tuple[int, ...]
Square = tuple  # (row, col), 1-indexed


def staircase(r: int) -> Shape:
    return tuple(range(r, 0, -1))


def is_young(rows) -> bool:
    rows = tuple(rows)
    return all(x > 0 for x in rows) and all(a >= b for a, b in zip(rows, rows[1:]))


def cells_of_shape(shape: Shape) -> Iterator[Square]:
    for i, row_len in enumerate(shape, start=1):
        for j in range(1, row_len + 1):
            yield (i, j)


def shape_from_cells(cells) -> Shape:
    """Shape of a collection of distinct cells; raises if they do not form a
    Young diagram.

    One pass keeps, per row, the count, the least and the largest column:
    distinct columns fill 1..m exactly when the least is 1 and the largest
    is the count m.

    >>> shape_from_cells([(2, 1), (1, 1), (1, 2)])
    (2, 1)
    >>> shape_from_cells([(1, 1), (1, 3)])
    Traceback (most recent call last):
    ...
    ValueError: cells do not form a Young diagram
    """
    rows: dict = {}  # row -> [count, least column, largest column]
    for (i, j) in cells:
        row = rows.get(i)
        if row is None:
            rows[i] = [1, j, j]
        else:
            row[0] += 1
            if j < row[1]:
                row[1] = j
            elif j > row[2]:
                row[2] = j
    shape = []
    for i in range(1, len(rows) + 1):
        count, least, largest = rows.get(i, (0, 0, 0))
        if least != 1 or largest != count or (shape and count > shape[-1]):
            raise ValueError("cells do not form a Young diagram")
        shape.append(count)
    return tuple(shape)


def addable_dominos(shape: Shape) -> List[Tuple[Square, Square]]:
    """All domino positions whose addition leaves a Young diagram, row by
    row from the top, each row's horizontal domino first: the two squares
    after a row at least two shorter than the row above, and the squares
    after two equal rows shorter than the row above them."""
    rows = tuple(shape) + (0, 0)
    out = []
    for i in range(1, len(shape) + 2):
        ln = rows[i - 1]
        room = rows[i - 2] - ln if i > 1 else 2  # row 1 has nothing above it
        if room >= 2:
            out.append(((i, ln + 1), (i, ln + 2)))
        if room >= 1 and rows[i] == ln:
            out.append(((i, ln + 1), (i + 1, ln + 1)))
    return out


def removable_dominos(shape: Shape) -> FrozenSet[FrozenSet[Square]]:
    """All domino positions whose deletion leaves a Young diagram: the last
    two squares of a row at least two longer than the next, and the last
    squares of two equal rows longer than the row below them.

    >>> sorted(map(sorted, removable_dominos((3, 1, 1))))
    [[(1, 2), (1, 3)], [(2, 1), (3, 1)]]
    """
    rows = tuple(shape) + (0, 0)
    out = set()
    for i, ln in enumerate(shape, start=1):
        if ln - 2 >= rows[i]:
            out.add(frozenset({(i, ln - 1), (i, ln)}))
        if ln == rows[i] > rows[i + 1]:
            out.add(frozenset({(i, ln), (i + 1, ln)}))
    return frozenset(out)


def diagonal(k: int) -> FrozenSet[Square]:
    """The k squares (i, j) with i + j = k + 1."""
    if k < 1:
        raise ValueError("diagonal index must be >= 1")
    return frozenset((i, k + 1 - i) for i in range(1, k + 1))
