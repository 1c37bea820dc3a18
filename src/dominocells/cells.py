"""
Combinatorial cell partitions of the signed permutation group.

Two elements share a left combinatorial r-cell when their right insertion
tableaux agree up to moving through a set of non-core open cycles; right
cells use the left tableaux, and two-sided cells are the transitive
closure of both.  Every partition reads the one class map,
`tableau_classes`, with one cycle fingerprint per class.  The left tableau
of w is the right tableau of w^-1, so side R puts w in right cell i when
w^-1 lies in left cell i, read from an element -> cell map.  Side LR joins
the left cells of w and w^-1; as insertion is onto all same-shape pairs,
that joins the left cells of all tableaux of one shape: a union-find over
the fingerprints, not over W_n.  For r >= n - 1 the partitions stabilize
("asymptotic" cells).  Blocks are sorted canonically;
`CellPartition.block_of` reads an element -> block map built on first use,
`misfits` pairs unequal blocks and `same_partition` tests equality alone.

W_2 has 4 left cells at rank 0 and 6 at rank 1; W_3 has 10 asymptotic
two-sided cells:

>>> len(combinatorial_cells(2, 0, "L").blocks)
4
>>> len(combinatorial_cells(2, 1, "L").blocks)
6
>>> len(asymptotic_cells(3, "LR").blocks)
10
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import eq
from typing import Dict, FrozenSet, Iterator, List, Tuple

from .cycles import REGULAR, components, noncore_orbit
from .insertion import tableau_classes
from .tableaux import DominoTableau
from .wgroup import SignedPerm, group_elements, inverse

__all__ = [
    "CellPartition", "class_of_tableau", "cell_fingerprint",
    "combinatorial_cells", "asymptotic_cells",
]


@dataclass(frozen=True)
class CellPartition:
    n: int
    label: str
    blocks: Tuple[FrozenSet[SignedPerm], ...]

    def __post_init__(self):
        blocks = tuple(frozenset(b) for b in self.blocks)
        if frozenset() in blocks:
            raise ValueError(f"block {blocks.index(frozenset())} of {self.label!r} is empty")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=min)))
        # one sorted list, compared item by item with the sorted group
        covered = sorted(w for b in self.blocks for w in b)
        elements = group_elements(self.n)
        if len(covered) != len(elements) or not all(map(eq, covered, elements)):
            raise ValueError(f"blocks do not partition W_{self.n}")

    @cached_property
    def _position(self) -> Dict[SignedPerm, int]:
        # built on first use: a partition only tested for equality holds none
        return {w: i for i, b in enumerate(self.blocks) for w in b}

    def block_of(self, w: SignedPerm) -> FrozenSet[SignedPerm]:
        return self.blocks[self._position[w]]

    def misfits(self, other: "CellPartition") -> Iterator[Tuple]:
        """Each block of self, in order, that other lacks, with other's block
        of its least element: nothing iff the partitions are equal."""
        for block in self.blocks:
            theirs = other.block_of(min(block))
            if block != theirs:
                yield block, theirs

    def same_partition(self, other: "CellPartition") -> bool:
        return self.n == other.n and self.blocks == other.blocks

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "label": self.label,
                "blocks": [[list(w) for w in sorted(b)] for b in self.blocks],
            }
        )


def class_of_tableau(t: DominoTableau, n: int) -> FrozenSet[SignedPerm]:
    """All w whose rank-r recording tableau equals t."""
    if t.n != n:
        raise ValueError(f"tableau has {t.n} dominos, expected {n}")
    return tableau_classes(n, t.rank).get(t, frozenset())


@lru_cache(maxsize=1 << 17)
def cell_fingerprint(t: DominoTableau) -> Tuple[Tuple[int, ...], ...]:
    """Canonical representative of t modulo moving through subsets of its
    non-core open cycles: the lexicographically least grid in the orbit."""
    return min(moved.rows for _, moved in noncore_orbit(t, REGULAR))


def combinatorial_cells(n: int, rank: int, side: str = "L") -> CellPartition:
    """The left/right/two-sided combinatorial cells at the given rank."""
    if side not in ("L", "R", "LR"):
        raise ValueError("side must be L, R or LR")
    if rank < 0:
        raise ValueError("rank must be >= 0")
    # side R's element -> cell map is freed before the blocks are frozen, and
    # the lists before the partition checks them
    blocks = tuple(frozenset(b) for b in _cell_lists(n, rank, side))
    return CellPartition(n, f"comb r={rank} {side}", blocks)


def _cell_lists(n: int, rank: int, side: str) -> List[List[SignedPerm]]:
    """The elements of each cell on one side, read from the one class map."""
    groups: Dict[Tuple, List[SignedPerm]] = {}  # fingerprint -> its left cell
    first: Dict[Tuple, Tuple] = {}  # shape -> the first fingerprint of its tableaux
    links = []
    for t, ws in tableau_classes(n, rank).items():
        fp = cell_fingerprint(t)
        groups.setdefault(fp, []).extend(ws)
        links.append((fp, first.setdefault(t.shape, fp)))
    if side == "LR":
        # Q(w^-1) = P(w) and insertion is a bijection onto all same-shape pairs:
        # the left cells of w and w^-1 run over those of every same-shape Q, P
        return [[w for fp in fps for w in groups[fp]] for fps in components(groups, links)]
    left = list(groups.values())
    if side == "L":
        return left
    cell = {w: i for i, ws in enumerate(left) for w in ws}  # w -> its left cell
    right: List[List[SignedPerm]] = [[] for _ in left]
    for w in group_elements(n):
        right[cell[inverse(w)]].append(w)
    return right


def asymptotic_cells(n: int, side: str = "L") -> CellPartition:
    """Combinatorial cells in the stable range r >= n - 1."""
    rank = max(n - 1, 0)
    part = combinatorial_cells(n, rank, side)
    if not part.same_partition(combinatorial_cells(n, rank + 1, side)):
        raise AssertionError(f"asymptotic cells not stable at n={n} side={side}")
    return CellPartition(n, f"asymptotic {side}", part.blocks)
