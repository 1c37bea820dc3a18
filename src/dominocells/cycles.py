"""
Cycles in a rank-r domino tableau and the moving-through map.

Fixing one parity class of squares splits every domino into a fixed and a
variable square: under the regular convention the fixed squares (i, j)
have i + j of parity opposite to the rank, under the opposite convention
the same parity.  Relocating each domino about its fixed square partitions
the labels into cycles; moving through a cycle produces another domino
tableau, and the partition refines into

    closed        moving through keeps the shape,
    core-open     moving through changes the total number of squares,
    noncore-open  moving through changes the shape but not the count.

A cycle's kind needs no whole-map move: moving through it adds the
relocated squares that lie outside the shape and drops the vacated
squares left with nothing right of or below them, so it is closed when
both sets are empty, core-open when their sizes differ, and noncore-open
otherwise.

Moving through all regular core cycles raises the rank by one, all
opposite core cycles lower it by one; matching the two sides of a
same-shape pair through extended cycles gives the rank-raising and
rank-lowering bijections on pairs.  Only the raising maps are computed
here; the tests hold the lowering ones, which no computation needs.

Every rank shift goes through one driver, `_shift`: `core_raise` and
`raise_rank` are its one-item calls, `verify insertion` calls it once per
rank, and the tests' lowering maps call it under the opposite convention.
Within one call each distinct tableau is relocated once, and each
distinct (tableau, extended label group) is moved and re-cut once:
`verify insertion --n 4 --rank 4` makes 76 relocations per rank and 448
moves over its five ranks, for 1,920 pairs.  Only the linking of an
item's open cycles and the moved-shape check run per item.

The square-level relocation rule: a domino labeled k whose variable
square sits below or left of its fixed square (i, j) pivots to the square
right of (i, j) when k exceeds the label at (i-1, j+1) and otherwise to
the square above; the mirrored rule (compare against (i+1, j-1)) applies
when the variable square sits above or right.  Labels at core squares and
off the top or left edge count as 0, squares beyond the shape as infinity.
One pass reads every label from the tableau's square -> label map.

>>> T2 = DominoTableau(2, ((0, 0, 1, 1), (0, 2, 2), (3, 4, 4), (3,)))
>>> sorted(moved_domino(T2, 3, OPPOSITE))
[(3, 1), (3, 2)]
>>> [(sorted(c.labels), c.kind) for c in cycle_partition(T2, OPPOSITE)]
[([1], 'core-open'), ([2, 3, 4], 'core-open')]
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, NamedTuple, Tuple

from .shapes import Square, cells_of_shape, staircase
from .tableaux import (
    DominoTableau, TableauError, TableauPair, _check_tiling, _dominos,
)

__all__ = [
    "REGULAR", "OPPOSITE", "Cycle", "ExtendedCycles",
    "moved_domino", "cycle_partition", "move_through",
    "noncore_orbit", "extended_cycles", "raise_rank",
]

REGULAR = "regular"
OPPOSITE = "opposite"

_INF = float("inf")


class Cycle(NamedTuple):
    labels: FrozenSet[int]
    kind: str  # closed | core-open | noncore-open
    squares: FrozenSet[Square]  # the squares its move adds or removes


def _fixed_parity(rank: int, convention: str) -> int:
    """The parity of i + j on the fixed squares (i, j)."""
    if convention == REGULAR:
        return (rank + 1) % 2
    if convention == OPPOSITE:
        return rank % 2
    raise ValueError(f"unknown convention {convention!r}")


def _pivot(cells: Dict[Square, int], k: int, squares: FrozenSet[Square],
           parity: int) -> FrozenSet[Square]:
    """The relocated position of domino k, on `squares` of the square ->
    label map `cells`, about its fixed square: the one whose i + j has
    `parity`."""
    a, b = squares
    fix, var = (a, b) if sum(a) % 2 == parity else (b, a)
    i, j = fix

    def label(sq):
        return 0 if sq[0] < 1 or sq[1] < 1 else cells.get(sq, _INF)

    # the second test of each pair holds on every standard tableau
    step = (var[0] - i, var[1] - j)
    if step in ((1, 0), (0, -1)):  # variable below or left
        up = k < label((i - 1, j + 1)) and label((i - 1, j)) < k
        new = (i - 1, j) if up else (i, j + 1)
    elif step in ((-1, 0), (0, 1)):  # variable above or right
        down = k > label((i + 1, j - 1)) and label((i + 1, j)) > k
        new = (i + 1, j) if down else (i, j - 1)
    else:
        raise TableauError(f"domino {k} squares are not adjacent")
    return frozenset({fix, new})


def moved_domino(t: DominoTableau, k: int, convention: str) -> FrozenSet[Square]:
    """The relocated position of domino k about its fixed square."""
    try:
        return _relocate(t, convention).moved[k]
    except KeyError:
        raise TableauError(f"no domino labeled {k}") from None


def components(nodes: Iterable, links: Iterable[Tuple]) -> list:
    """Blocks of the finest partition of `nodes` in which each linked pair
    shares a block (union-find), as lists in first-seen node order."""
    nodes = list(nodes)
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in links:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks: Dict = {}
    for x in nodes:
        blocks.setdefault(find(x), []).append(x)
    return list(blocks.values())


class _Relocation(NamedTuple):
    """One relocation pass over a tableau: its square -> label map, each
    label's domino and relocated domino, computed once, and its cycles."""
    cells: Dict[Square, int]
    dominos: Dict[int, FrozenSet[Square]]
    moved: Dict[int, FrozenSet[Square]]
    cycles: Tuple[Cycle, ...]


# Two passes are held, and callers only read them: every caller partitions
# a tableau before it moves it, and the class check alternates T with its
# core-raised partner T'.  `_shift` keeps the passes of one call itself.
@lru_cache(maxsize=2)
def _relocate(t: DominoTableau, convention: str) -> _Relocation:
    """j and k share a cycle when the relocated position of one overlaps
    the current position of the other.  A cycle's kind is what moving
    through it does to the shape, read from the cycle's own squares: the
    relocated squares outside the shape join it, and the vacated squares
    that then trail leave it."""
    parity = _fixed_parity(t.rank, convention)
    cells = t.cells()
    dominos = _dominos(cells)
    moved = {k: _pivot(cells, k, squares, parity) for k, squares in dominos.items()}
    links = (
        (k, cells[sq]) for k, squares in moved.items()
        for sq in squares if cells.get(sq, 0) not in (0, k)
    )
    cycles = []
    for labels in sorted((frozenset(b) for b in components(dominos, links)), key=sorted):
        new, vacated = set(), []
        for k in labels:
            new |= moved[k]
            vacated += dominos[k]
        if len(new) != 2 * len(labels):
            raise TableauError(f"cycle {sorted(labels)}: relocated dominos overlap")
        added = new - cells.keys()
        # A vacated square stays as a core square unless it trails after the
        # move.  A relocated domino is its fixed square and one square of the
        # other parity, so vacated and added squares have that other parity
        # and the squares right of and below a vacated square do not: a
        # vacated square trails exactly when it is a corner of the shape.
        dropped = set()
        for i, j in vacated:
            if (i, j) not in new and (i, j + 1) not in cells and (i + 1, j) not in cells:
                dropped.add((i, j))
        kind = ("closed" if not added and not dropped else
                "core-open" if len(added) != len(dropped) else "noncore-open")
        cycles.append(Cycle(labels, kind, frozenset(added | dropped)))
    return _Relocation(cells, dominos, moved, tuple(cycles))


def _drop_trailing(cells: Dict[Square, int], removable) -> None:
    """Delete squares of `removable` with nothing right of or below them,
    until no such square remains.  One pass in reverse row-major order
    does it: deleting a square can only make a square left of it or above
    it trailing, and those come later in that order."""
    for sq in sorted(removable & cells.keys(), reverse=True):
        i, j = sq
        if (i, j + 1) not in cells and (i + 1, j) not in cells:
            del cells[sq]


def _apply_moves(rel: _Relocation, labels: Iterable[int]) -> Dict[Square, int]:
    """Cell -> label map (0 on core cells) after moving the given labels.

    A vacated square stays in the shape as a core square while anything
    remains to its right or below, and is excised once it trails; original
    core squares leave the shape only by being claimed."""
    labels = set(labels)
    placed: Dict[Square, int] = {}
    for k, squares in rel.dominos.items():
        for sq in rel.moved[k] if k in labels else squares:
            if sq in placed:
                raise TableauError(
                    f"labels {sorted(labels)} are not a union of cycles:"
                    f" collision at {sq}"
                )
            placed[sq] = k
    vacated = set()
    for sq, lbl in rel.cells.items():
        if sq not in placed:
            placed[sq] = 0
            if lbl != 0:
                vacated.add(sq)
    _drop_trailing(placed, vacated)
    return placed


def cycle_partition(t: DominoTableau, convention: str) -> Tuple[Cycle, ...]:
    """The cycles of t under the given convention, classified."""
    return _relocate(t, convention).cycles


def move_through(t: DominoTableau, labels: Iterable[int], convention: str) -> DominoTableau:
    """Move through a union of cycles.

    The result keeps the rank tag of the input, so the same convention
    names the same fixed squares on it; rank-changing callers retag.
    """
    labels = frozenset(labels)
    if not labels:
        return t
    rel = _relocate(t, convention)
    touched = [c.labels for c in rel.cycles if c.labels & labels]
    if frozenset().union(*touched) != labels:
        raise TableauError(
            f"labels {sorted(labels)} are not a union of cycles"
            f" (cycles: {[sorted(c.labels) for c in rel.cycles]})"
        )
    cells = _apply_moves(rel, labels)
    out = DominoTableau.from_cells(t.rank, cells)
    _check_tiling(cells)
    return out


def noncore_orbit(
    t: DominoTableau, convention: str
) -> Iterator[Tuple[FrozenSet[int], DominoTableau]]:
    """(labels, moved tableau) for every union of the non-core open cycles
    of t, the empty union first."""
    ncc = [c.labels for c in cycle_partition(t, convention) if c.kind == "noncore-open"]
    for size in range(len(ncc) + 1):
        for subset in itertools.combinations(ncc, size):
            labels = frozenset().union(*subset)
            yield labels, move_through(t, labels, convention)


@dataclass(frozen=True)
class ExtendedCycles:
    """Minimal matched enlargements of the core open cycles of a same-shape
    pair, grouped so that paired groups move the two shapes identically."""
    left_groups: Tuple[FrozenSet[int], ...]
    right_groups: Tuple[FrozenSet[int], ...]


def extended_cycles(left: DominoTableau, right: DominoTableau) -> ExtendedCycles:
    """Extended regular open cycles of each tableau of a pair relative to the other.

    Open cycles from the two sides are linked when their moves disturb a
    common square of the shared shape; every linkage component containing a
    core cycle must move entirely for the two moved shapes to agree, and
    those components are exactly the extended cycles.
    """
    if left.shape != right.shape:
        raise TableauError("pair shapes differ")
    rels = [_relocate(t, REGULAR) for t in (left, right)]
    groups = _link(*rels)
    _matched([_apply_moves(rel, frozenset().union(*g)) for rel, g in zip(rels, groups)])
    return ExtendedCycles(*groups)


def _link(*rels: _Relocation) -> list:
    """The extended cycles of one pass or a same-shape pair of passes, as
    sorted label groups per pass.  A lone pass has no cross-side links, so
    its groups are its core cycles, which the pass holds in sorted order."""
    if len(rels) == 1:
        return [tuple([c.labels for c in rels[0].cycles if c.kind == "core-open"])]
    nodes = [  # (side, labels, is_core, shape-delta) per open cycle
        (side, c.labels, c.kind == "core-open", c.squares)
        for side, rel in enumerate(rels)
        for c in rel.cycles if c.kind != "closed"
    ]
    # the open cycles of one pass disturb disjoint squares, so linking each
    # node to the first node that disturbs the same square links the sides
    first: Dict[Square, int] = {}
    links = ((first.setdefault(sq, i), i) for i, node in enumerate(nodes) for sq in node[3])
    groups = [[] for _ in rels]
    for comp in components(range(len(nodes)), links):
        if not any(nodes[i][2] for i in comp):
            continue
        for side, found in enumerate(groups):
            g = frozenset().union(*(nodes[i][1] for i in comp if nodes[i][0] == side))
            if g:
                found.append(g)
    return [tuple(sorted(g, key=sorted)) for g in groups]


def _matched(moved: list) -> None:
    """Raise unless the moved cell maps of the sides cover the same squares."""
    if any(m.keys() != moved[0].keys() for m in moved):
        raise TableauError("extended cycles failed to match the moved shapes")


def _normalized(cells: Dict[Square, int], rank: int) -> DominoTableau:
    """The tableau of a loose moved cell map with its core re-cut to the
    rank staircase: staircase squares never touched by a domino join as
    core squares, and trailing core squares outside the staircase are
    dropped."""
    want = set(cells_of_shape(staircase(rank)))
    for sq in want - cells.keys():
        cells[sq] = 0
    _drop_trailing(cells, {sq for sq, lbl in cells.items() if lbl == 0} - want)
    out = DominoTableau.from_cells(rank, cells)
    _check_tiling(cells, want)
    return out


def _shift(items: Iterable[Tuple[DominoTableau, ...]], convention: str) -> list:
    """Move each item, one tableau or a same-shape pair, through its
    extended cycles and re-cut it to the next rank: one up under the
    regular convention, one down under the opposite.  The list of the
    moved tuples, in order, with the exception that moving an item met in
    its place; a rank-0 item has no rank to be lowered to.

    What depends on one tableau is done once per call: each distinct
    tableau is relocated once, and each distinct (tableau, extended label
    group) is moved and re-cut once.  Linking the open cycles of an item's
    sides runs per item, since the groups depend on all of them, and so
    does the check that the moved shapes match.  A cache keeps no result
    for a call that raises, so a failed relocation or move is met again by
    every item that reads it.  The caches are this call's own and are gone
    when it returns; passes are read through `_relocate`, so later callers
    find the last two."""
    step = 1 if convention == REGULAR else -1

    @cache
    def relocated(t: DominoTableau) -> _Relocation:
        return _relocate(t, convention)

    @cache
    def moved(t: DominoTableau, labels: FrozenSet[int]) -> Dict[Square, int]:
        return _apply_moves(relocated(t), labels)

    @cache
    def recut(t: DominoTableau, labels: FrozenSet[int]) -> DominoTableau:
        # `_normalized` fills in the map it is given, so it gets a copy:
        # `moved` keeps its map for the shape check of later items
        return _normalized(dict(moved(t, labels)), t.rank + step)

    out: list = []
    for item in items:
        try:
            if item[0].rank + step < 0:
                raise TableauError("a rank-0 tableau has no lower rank")
            keys = [(t, frozenset().union(*g))
                    for t, g in zip(item, _link(*map(relocated, item)))]
            _matched([moved(*key) for key in keys])
            out.append(tuple(recut(*key) for key in keys))
        except Exception as exc:
            out.append(exc)
    return out


def _shifted(item: Tuple[DominoTableau, ...]) -> Tuple[DominoTableau, ...]:
    """`_shift` of one item under the regular convention, raising what it met."""
    (up,) = _shift((item,), REGULAR)
    if isinstance(up, Exception):
        raise up
    return up


def core_raise(t: DominoTableau) -> DominoTableau:
    """Move one tableau through all its regular core cycles: rank r+1."""
    (up,) = _shifted((t,))
    return up


def raise_rank(pair: TableauPair) -> TableauPair:
    """Move a rank-r pair through its regular extended cycles: rank r+1."""
    return TableauPair(*_shifted((pair.left, pair.right)))
