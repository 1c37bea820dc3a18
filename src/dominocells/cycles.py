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

Moving through all regular core cycles raises the rank by one, all
opposite core cycles lower it by one; matching the two sides of a
same-shape pair through extended cycles gives the rank-raising and
rank-lowering bijections on pairs.  Only the raising maps are computed
here; the tests hold the lowering ones, which no computation needs.

The square-level relocation rule: a domino labeled k whose variable
square sits below or left of its fixed square (i, j) pivots to the square
right of (i, j) when k exceeds the label at (i-1, j+1) and otherwise to
the square above; the mirrored rule (compare against (i+1, j-1)) applies
when the variable square sits above or right.  Labels at core squares and
off the top or left edge count as 0, squares beyond the shape as infinity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, NamedTuple, Tuple

from .shapes import Square, cells_of_shape, staircase
from .tableaux import DominoTableau, TableauError, TableauPair, _check_tiling

__all__ = [
    "REGULAR", "OPPOSITE", "Cycle", "ExtendedCycles",
    "fixed_square", "moved_domino", "cycle_partition", "move_through",
    "noncore_orbit", "extended_cycles", "raise_rank",
]

REGULAR = "regular"
OPPOSITE = "opposite"

_INF = float("inf")


@dataclass(frozen=True)
class Cycle:
    labels: FrozenSet[int]
    kind: str  # closed | core-open | noncore-open

    @property
    def is_core(self) -> bool:
        return self.kind == "core-open"

    def to_dict(self) -> dict:
        return {"labels": sorted(self.labels), "kind": self.kind}


def _is_fixed(sq: Square, rank: int, convention: str) -> bool:
    i, j = sq
    if convention == REGULAR:
        return (i + j) % 2 != rank % 2
    if convention == OPPOSITE:
        return (i + j) % 2 == rank % 2
    raise ValueError(f"unknown convention {convention!r}")


def fixed_square(t: DominoTableau, k: int, convention: str) -> Square:
    a, b = sorted(t.domino(k))
    return a if _is_fixed(a, t.rank, convention) else b


def _cmp_label(t: DominoTableau, sq: Square):
    """Label for the relocation comparisons: 0 off the top/left edge and on
    core squares, infinity beyond the shape."""
    i, j = sq
    if i < 1 or j < 1:
        return 0
    lbl = t.label_at(sq)
    if lbl == -1:
        return _INF
    return lbl


def moved_domino(t: DominoTableau, k: int, convention: str) -> FrozenSet[Square]:
    """The relocated position of domino k about its fixed square."""
    fix = fixed_square(t, k, convention)
    (var,) = t.domino(k) - {fix}
    i, j = fix
    di, dj = var[0] - i, var[1] - j
    if (di, dj) in ((1, 0), (0, -1)):  # variable below or left
        if k > _cmp_label(t, (i - 1, j + 1)):
            new = (i, j + 1)
        elif _cmp_label(t, (i - 1, j)) < k:
            new = (i - 1, j)
        else:  # unreachable on standard tableaux
            new = (i, j + 1)
    elif (di, dj) in ((-1, 0), (0, 1)):  # variable above or right
        if k < _cmp_label(t, (i + 1, j - 1)):
            new = (i, j - 1)
        elif _cmp_label(t, (i + 1, j)) > k:
            new = (i + 1, j)
        else:  # unreachable on standard tableaux
            new = (i, j - 1)
    else:
        raise TableauError(f"domino {k} squares are not adjacent")
    return frozenset({fix, new})


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
    """One relocation pass over a tableau: its square -> label map, every
    label's relocated domino, computed once, and each cycle as (labels,
    kind, squares its move adds or removes)."""
    t: DominoTableau
    cells: Dict[Square, int]
    moved: Dict[int, FrozenSet[Square]]
    cycles: Tuple[Tuple[FrozenSet[int], str, FrozenSet[Square]], ...]


# Two passes are held, and callers only read them: every caller partitions
# a tableau before it moves it, and the class check alternates T with its
# core-raised partner T'.
@lru_cache(maxsize=2)
def _relocate(t: DominoTableau, convention: str) -> _Relocation:
    """j and k share a cycle when the relocated position of one overlaps
    the current position of the other; a cycle's kind is what moving
    through it does to the shape."""
    cells = t.cells()
    moved = {k: moved_domino(t, k, convention) for k in t.labels}
    links = (
        (k, cells[sq]) for k, squares in moved.items()
        for sq in squares if cells.get(sq, 0) not in (0, k)
    )
    rel = _Relocation(t, cells, moved, ())
    cycles = []
    for labels in sorted((frozenset(b) for b in components(t.labels, links)), key=sorted):
        after = _apply_moves(rel, labels).keys()
        kind = ("closed" if after == cells.keys() else
                "core-open" if len(after) != len(cells) else "noncore-open")
        cycles.append((labels, kind, frozenset(cells.keys() ^ after)))
    return rel._replace(cycles=tuple(cycles))


def _drop_trailing(cells: Dict[Square, int], removable) -> None:
    """Delete squares of `removable` with nothing right of or below them,
    until no such square remains."""
    changed = True
    while changed:
        changed = False
        for sq in sorted(removable & cells.keys(), reverse=True):
            i, j = sq
            if (i, j + 1) not in cells and (i + 1, j) not in cells:
                del cells[sq]
                changed = True


def _apply_moves(rel: _Relocation, labels: Iterable[int]) -> Dict[Square, int]:
    """Cell -> label map (0 on core cells) after moving the given labels.

    A vacated square stays in the shape as a core square while anything
    remains to its right or below, and is excised once it trails; original
    core squares leave the shape only by being claimed."""
    labels = set(labels)
    placed: Dict[Square, int] = {}
    for k in rel.t.labels:
        for sq in rel.moved[k] if k in labels else rel.t.domino(k):
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
    return tuple(
        Cycle(labels, kind) for labels, kind, _ in _relocate(t, convention).cycles
    )


def move_through(t: DominoTableau, labels: Iterable[int], convention: str) -> DominoTableau:
    """Move through a union of cycles.

    The result keeps the rank tag of the input, so the same convention
    names the same fixed squares on it; rank-changing callers retag.
    """
    labels = frozenset(labels)
    if not labels:
        return t
    rel = _relocate(t, convention)
    touched = [g for g, _, _ in rel.cycles if g & labels]
    if frozenset().union(*touched) != labels:
        raise TableauError(
            f"labels {sorted(labels)} are not a union of cycles"
            f" (cycles: {[sorted(g) for g, _, _ in rel.cycles]})"
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
            labels = frozenset().union(frozenset(), *subset)
            yield labels, move_through(t, labels, convention)


@dataclass(frozen=True)
class ExtendedCycles:
    """Minimal matched enlargements of the core open cycles of a same-shape
    pair, grouped so that paired groups move the two shapes identically."""
    left_groups: Tuple[FrozenSet[int], ...]
    right_groups: Tuple[FrozenSet[int], ...]

    @property
    def left_labels(self) -> FrozenSet[int]:
        return frozenset().union(frozenset(), *self.left_groups)

    @property
    def right_labels(self) -> FrozenSet[int]:
        return frozenset().union(frozenset(), *self.right_groups)

    def to_dict(self) -> dict:
        return {
            "left": [sorted(g) for g in self.left_groups],
            "right": [sorted(g) for g in self.right_groups],
        }


def extended_cycles(
    left: DominoTableau, right: DominoTableau, convention: str = REGULAR
) -> ExtendedCycles:
    """Extended open cycles of each tableau of a pair relative to the other.

    Open cycles from the two sides are linked when their moves disturb a
    common square of the shared shape; every linkage component containing a
    core cycle must move entirely for the two moved shapes to agree, and
    those components are exactly the extended cycles.
    """
    if left.shape != right.shape:
        raise TableauError("pair shapes differ")
    groups, _ = _extend(_relocate(left, convention), _relocate(right, convention))
    return ExtendedCycles(*groups)


def _extend(*rels: _Relocation):
    """The extended cycles of one pass or a same-shape pair of passes, as
    sorted label groups per pass, with the moved cell maps.  A lone pass
    has no cross-side links, so its groups are its core cycles."""
    nodes = [  # (side, labels, is_core, shape-delta) per open cycle
        (side, labels, kind == "core-open", delta)
        for side, rel in enumerate(rels)
        for labels, kind, delta in rel.cycles if kind != "closed"
    ]
    links = (
        (a, b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))
        if nodes[a][0] != nodes[b][0] and nodes[a][3] & nodes[b][3]
    )
    groups = [[] for _ in rels]
    for comp in components(range(len(nodes)), links):
        if not any(nodes[i][2] for i in comp):
            continue
        for side, found in enumerate(groups):
            g = frozenset().union(
                frozenset(), *(nodes[i][1] for i in comp if nodes[i][0] == side)
            )
            if g:
                found.append(g)
    groups = [tuple(sorted(g, key=sorted)) for g in groups]
    moved = [_apply_moves(rel, frozenset().union(frozenset(), *g))
             for rel, g in zip(rels, groups)]
    if any(m.keys() != moved[0].keys() for m in moved):
        raise TableauError("extended cycles failed to match the moved shapes")
    return groups, moved


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


def _shift(tableaux: Tuple[DominoTableau, ...], convention: str, rank: int) -> list:
    """Move one tableau through its core cycles, or a pair through its
    extended cycles, and re-cut each to `rank`."""
    _, moved = _extend(*(_relocate(t, convention) for t in tableaux))
    return [_normalized(cells, rank) for cells in moved]


def core_raise(t: DominoTableau) -> DominoTableau:
    """Move one tableau through all its regular core cycles: rank r+1."""
    return _shift((t,), REGULAR, t.rank + 1)[0]


def raise_rank(pair: TableauPair) -> TableauPair:
    """Move a rank-r pair through its regular extended cycles: rank r+1."""
    return TableauPair(*_shift((pair.left, pair.right), REGULAR, pair.rank + 1))

