"""
Standard domino tableaux of rank r.

A tableau is stored as a grid of labels, one per square: 0 on the core
squares, and each label k in {1, ..., n} on exactly two adjacent squares
(a domino).  In a standard tableau of rank r the 0 squares form the
staircase [r, ..., 1] and labels increase along rows and columns; we also
work with "loose" tableaux whose 0 squares form an arbitrary order ideal,
which arise midway through cycle moves.

Where the checks run.  Input from outside is validated at the edges:
`DominoTableau(...)` checks nothing and stores the rows it is given as a
tuple of tuples, and `check_standard` validates them and returns nothing;
signed permutations from the command line, JSON included, go through
`parse_perm`.  `uninsert`, the one-pair call of the undo driver
`insertion._uninserted`, validates its argument; the driver checks each
distinct left tableau once, so `verify insertion` checks each once per
rank, however many pairs hold it.  A tableau that the library builds is checked once, where it is built, by one pass
over the square -> label map that built it: `from_cells` reads the rows
with `shapes.rows_of_cells`, the one Young-diagram reader, which rejects
a map that is not a diagram, and `_check_tiling` checks the labels, the
dominos and the core.  `_check_tiling` is the one statement of those
rules: the cycle layer runs it on each moved map, and `check_standard`
runs it on the grid of a tableau from outside.  It groups the squares
by label with `_dominos`, the one label -> squares scan, which
`dominos`, the cycle layer and the undo driver share.

Tableaux and pairs are slotted records that hold only their fields;
`shape`, `n` and `dominos` are computed on each read.

>>> t = DominoTableau(2, ((0, 0, 1, 1), (0, 2, 2), (3, 4, 4), (3,)))
>>> t.shape
(4, 3, 3, 1)
>>> t.is_split()
False
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, Tuple

from .shapes import (
    Square, Shape, addable_dominos, cells_of_shape, diagonal, is_young,
    rows_of_cells, shape_from_cells, staircase,
)
from .wgroup import DescentSet

__all__ = [
    "DominoTableau", "TableauPair", "TableauError",
    "tau_of_tableau", "enhanced_tau_of_tableau", "enumerate_sdt",
]


class TableauError(ValueError):
    pass


def _dominos(cells: Dict[Square, int]) -> Dict[int, FrozenSet[Square]]:
    """Map each nonzero label of a square -> label map to the squares it
    covers."""
    squares: Dict[int, list] = {}
    for sq, k in cells.items():
        if k:
            squares.setdefault(k, []).append(sq)
    return {k: frozenset(v) for k, v in squares.items()}


def _check_tiling(cells: Dict[Square, int], core=None) -> None:
    """One pass over a square -> label map whose squares form a Young
    diagram: the labels are 1..n, each on two adjacent squares, and the 0
    squares are exactly `core` when it is given."""
    dominos = _dominos(cells)
    if dominos.keys() != set(range(1, len(dominos) + 1)):
        raise TableauError(f"labels {sorted(dominos)} are not 1..n")
    for k, squares in dominos.items():
        if len(squares) != 2:
            raise TableauError(f"label {k} covers {len(squares)} squares, not 2")
        (i1, j1), (i2, j2) = squares
        if abs(i1 - i2) + abs(j1 - j2) != 1:
            raise TableauError(f"label {k} squares {sorted(squares)} not adjacent")
    if core is not None:
        zeros = {sq for sq, k in cells.items() if k == 0}
        if zeros != core:
            raise TableauError(f"core squares {sorted(zeros)} are not the staircase")


def _vertical(squares: FrozenSet[Square]) -> bool:
    """True when the two squares of a domino lie in different rows."""
    (i1, _), (i2, _) = squares
    return i1 != i2


@dataclass(frozen=True, slots=True)
class DominoTableau:
    rank: int
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple([tuple(r) for r in self.rows]))

    # -- basic geometry -------------------------------------------------

    @property
    def shape(self) -> Shape:
        return tuple([len(r) for r in self.rows])

    @property
    def n(self) -> int:
        """The number of dominos: half the nonzero squares."""
        return sum(x != 0 for row in self.rows for x in row) // 2

    def label_at(self, sq: Square) -> int:
        """Label at a square; -1 when the square is outside the shape."""
        i, j = sq
        if 1 <= i <= len(self.rows) and 1 <= j <= len(self.rows[i - 1]):
            return self.rows[i - 1][j - 1]
        return -1

    def cells(self) -> Dict[Square, int]:
        """The square -> label map, 0 on core squares, as a fresh dict."""
        return {
            (i, j): x
            for i, row in enumerate(self.rows, start=1)
            for j, x in enumerate(row, start=1)
        }

    @classmethod
    def from_cells(cls, rank: int, cells: Dict[Square, int]) -> "DominoTableau":
        """The tableau with the square -> label map `cells`, its rows read
        by `rows_of_cells`; raises ValueError when the squares do not form
        a Young diagram.

        >>> t = DominoTableau(1, ((0, 1, 1), (2,), (2,)))
        >>> DominoTableau.from_cells(1, t.cells()) == t
        True
        >>> DominoTableau.from_cells(0, {(1, 2): 1, (1, 3): 1})
        Traceback (most recent call last):
        ...
        ValueError: cells do not form a Young diagram
        """
        return cls(rank, rows_of_cells(cells))

    @property
    def dominos(self) -> Dict[int, FrozenSet[Square]]:
        """Map label -> the two squares it occupies, built on each read."""
        return _dominos(self.cells())

    # -- validation ------------------------------------------------------

    def check_standard(self, strict_core: bool = True) -> None:
        """Full validation; reports the first violated invariant.

        With strict_core the 0 squares must form the staircase of the rank;
        otherwise any top-left-justified 0 region (order ideal) is accepted.
        """
        if not is_young(self.shape):
            raise TableauError(f"rows {self.shape} are not weakly decreasing")
        core = set(cells_of_shape(staircase(self.rank))) if strict_core else None
        _check_tiling(self.cells(), core)
        # Weak increase along rows and columns, ties only inside one domino
        # (adjacency of the two squares of each label is already checked),
        # is equivalent to: core plus the dominos labeled <= k is a Young
        # diagram for every k.
        for i, row in enumerate(self.rows, start=1):
            for j in range(1, len(row)):
                if row[j - 1] > row[j]:
                    raise TableauError(
                        f"row {i} decreases at column {j}: {row[j - 1]} then {row[j]}"
                    )
        for i in range(1, len(self.rows)):
            upper, lower = self.rows[i - 1], self.rows[i]
            for j in range(len(lower)):
                if upper[j] > lower[j]:
                    raise TableauError(
                        f"column {j + 1} decreases at row {i}: {upper[j]} then {lower[j]}"
                    )

    # -- predicates ------------------------------------------------------

    def is_split(self) -> bool:
        """True iff some square of the diagonal d_{rank+2} lies outside the shape."""
        return any(
            self.label_at(sq) == -1 for sq in sorted(diagonal(self.rank + 2))
        )

    # -- display -------------------------------------------------------

    def pretty(self) -> str:
        """Box drawing, one cell per square, with no wall inside a domino."""
        if not self.rows:
            return "(empty)"
        width = max(len(str(x)) for row in self.rows for x in row) + 2
        canvas: Dict[Tuple[int, int], str] = {}

        def put(y, x, ch):
            if canvas.get((y, x)) != "+":
                canvas[(y, x)] = ch

        def same_domino(a: Square, b: Square) -> bool:
            la, lb = self.label_at(a), self.label_at(b)
            return la == lb and la > 0

        for (i, j) in self.cells():
            y, x = 2 * (i - 1), (width + 1) * (j - 1)
            for corner in ((y, x), (y, x + width + 1), (y + 2, x), (y + 2, x + width + 1)):
                put(*corner, "+")
            if not same_domino((i, j), (i - 1, j)):
                for k in range(1, width + 1):
                    put(y, x + k, "-")
            if not same_domino((i, j), (i + 1, j)):
                for k in range(1, width + 1):
                    put(y + 2, x + k, "-")
            if not same_domino((i, j), (i, j - 1)):
                put(y + 1, x, "|")
            if not same_domino((i, j), (i, j + 1)):
                put(y + 1, x + width + 1, "|")
            for k, ch in enumerate(str(self.label_at((i, j))).center(width), start=1):
                put(y + 1, x + k, ch)

        ymax = max(y for y, _ in canvas)
        xmax = max(x for _, x in canvas)
        lines = []
        for y in range(ymax + 1):
            lines.append("".join(canvas.get((y, x), " ") for x in range(xmax + 1)).rstrip())
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class TableauPair:
    left: DominoTableau
    right: DominoTableau

    def __post_init__(self):
        if self.left.rank != self.right.rank:
            raise TableauError("pair ranks differ")
        left, right = self.left.shape, self.right.shape
        if left != right:
            raise TableauError(f"pair shapes differ: {left} vs {right}")

    @property
    def rank(self) -> int:
        return self.left.rank

    @property
    def shape(self) -> Shape:
        return self.left.shape

    def is_split(self) -> bool:
        return self.left.is_split()


def tau_of_tableau(q: DominoTableau) -> DescentSet:
    """Tableau descent set: t when domino 1 is vertical, s_i when domino i
    lies strictly above domino i+1 (every row of i above every row of i+1)."""
    return DescentSet(_simple_descents(q.dominos))


def _simple_descents(dominos: Dict[int, FrozenSet[Square]]) -> FrozenSet[str]:
    names = set()
    if dominos and _vertical(dominos[1]):
        names.add("t")
    for i in range(1, len(dominos)):
        if max(r for r, _ in dominos[i]) < min(r for r, _ in dominos[i + 1]):
            names.add(f"s{i}")
    return frozenset(names)


def enhanced_tau_of_tableau(q: DominoTableau, ratio: int) -> DescentSet:
    """Descent set enriched with t_j for vertical dominos j <= rank+1, j-1 < ratio.

    Defined only when rank >= ratio - 1.
    """
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    if q.rank < ratio - 1:
        raise TableauError(f"rank {q.rank} too small for ratio {ratio}")
    dominos = q.dominos
    ext = frozenset(
        f"t{j}"
        for j in range(2, min(q.rank + 1, len(dominos)) + 1)
        if j - 1 < ratio and _vertical(dominos[j])
    )
    return DescentSet(_simple_descents(dominos), ext)


def enumerate_sdt(n: int, rank: int) -> Iterator[DominoTableau]:
    """All standard domino tableaux of rank `rank` with n dominos.

    Level k holds a square -> label map for each standard tableau with
    dominos 1..k: each map of level k - 1 with domino k added at each of
    `addable_dominos` of its shape, so each tableau arises exactly once.
    The maps of level n are frozen through `from_cells` and checked.  It
    shares no code with the insertion walk, whose recording tableaux of a
    rank are the same set: `verify insertion` counts these for its
    identity sum f_shape^2 = |W_n|, and the suites that check tableaux
    read them from the walk.
    """
    level = [dict.fromkeys(cells_of_shape(staircase(rank)), 0)]
    for k in range(1, n + 1):
        level = [{**cells, a: k, b: k}
                 for cells in level for a, b in addable_dominos(shape_from_cells(cells))]
    for cells in level:
        t = DominoTableau.from_cells(rank, cells)
        t.check_standard()
        yield t
