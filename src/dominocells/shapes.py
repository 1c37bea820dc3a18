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
    "Shape", "Square", "staircase", "is_young", "cells_of_shape", "rows_of_cells",
    "addable_dominos", "removable_dominos", "is_removable", "diagonal",
    "shape_from_cells",
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


def rows_of_cells(cells: dict) -> Tuple[tuple, ...]:
    """The rows of a square -> value map, each a tuple of values from
    column 1; raises if the squares do not form a Young diagram.

    One scan reads each row from column 1 until a square is missing; the
    squares form a diagram exactly when no row is longer than the one above
    and the rows read hold every square.
    """
    rows = []
    get = cells.get
    longest = unread = len(cells)  # longest bounds the length of the next row
    i = 1
    while True:
        row = []
        j = 1
        x = get((i, 1))
        while x is not None:
            row.append(x)
            j += 1
            x = get((i, j))
        if not row:
            break
        if len(row) > longest:
            raise ValueError("cells do not form a Young diagram")
        longest = len(row)
        unread -= longest
        rows.append(tuple(row))
        i += 1
    if unread:
        raise ValueError("cells do not form a Young diagram")
    return tuple(rows)


def shape_from_cells(squares) -> Shape:
    """Shape of a collection of squares, read by `rows_of_cells`; raises if
    they do not form a Young diagram.

    >>> shape_from_cells([(2, 1), (1, 1), (1, 2)])
    (2, 1)
    >>> shape_from_cells([(1, 1), (1, 3)])
    Traceback (most recent call last):
    ...
    ValueError: cells do not form a Young diagram
    """
    # from a list: `tuple` of an iterator shrinks a 10-slot tuple, which
    # leaves blocks in the free lists of the smaller tuple sizes
    return tuple([len(row) for row in rows_of_cells(dict.fromkeys(squares, 0))])


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


def is_removable(shape: Shape, squares) -> bool:
    """True when `squares` is one of `removable_dominos(shape)`, read from
    the rows it would end without building the others.

    >>> is_removable((3, 1, 1), {(2, 1), (3, 1)})
    True
    >>> is_removable((3, 1, 1), {(1, 1), (1, 2)})
    False
    """
    if len(squares) != 2:
        return False
    (i1, j1), (i2, j2) = sorted(squares)
    rows = tuple(shape) + (0, 0)
    if not 1 <= i1 <= len(shape) or rows[i1 - 1] != j2:
        return False
    if i1 == i2:
        return j2 == j1 + 1 and rows[i1] <= j1 - 1
    return i2 == i1 + 1 and j1 == j2 == rows[i2 - 1] > rows[i2]


def diagonal(k: int) -> FrozenSet[Square]:
    """The k squares (i, j) with i + j = k + 1."""
    if k < 1:
        raise ValueError("diagonal index must be >= 1")
    return frozenset((i, k + 1 - i) for i in range(1, k + 1))
