"""
Combinatorial cell partitions of the signed permutation group.

Two elements share a left combinatorial r-cell when their right insertion
tableaux agree up to moving through a set of non-core open cycles; right
cells use the left tableaux, and two-sided cells are the transitive
closure of both.  Each one-sided partition reads `tableau_classes`, with
one cycle fingerprint per class.  For r >= n - 1 the partitions stabilize
("asymptotic" cells).  Partitions are stored with canonically sorted
blocks so they can be compared and serialized deterministically.  A block
is looked up by element through one element -> block map, built on the
first lookup; `CellPartition.misfits` compares two partitions block by
block, and `same_partition` tests equality alone.

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
from typing import Dict, FrozenSet, Iterator, Tuple

from .cycles import REGULAR, components, noncore_orbit
from .insertion import tableau_classes
from .tableaux import DominoTableau
from .wgroup import SignedPerm, group_elements

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
        covered = tuple(sorted(w for b in self.blocks for w in b))
        if covered != group_elements(self.n):
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
    return tableau_classes(n, t.rank, "L").get(t, frozenset())


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
    if side in ("L", "R"):
        groups: Dict[Tuple, set] = {}
        for t, ws in tableau_classes(n, rank, side).items():
            groups.setdefault(cell_fingerprint(t), set()).update(ws)
        blocks = tuple(frozenset(g) for g in groups.values())
        return CellPartition(n, f"comb r={rank} {side}", blocks)
    links = []
    for side in ("L", "R"):
        for block in combinatorial_cells(n, rank, side).blocks:
            ws = list(block)
            links.extend(zip(ws, ws[1:]))
    blocks = tuple(frozenset(g) for g in components(group_elements(n), links))
    return CellPartition(n, f"comb r={rank} LR", blocks)


def asymptotic_cells(n: int, side: str = "L") -> CellPartition:
    """Combinatorial cells in the stable range r >= n - 1."""
    rank = max(n - 1, 0)
    part = combinatorial_cells(n, rank, side)
    if not part.same_partition(combinatorial_cells(n, rank + 1, side)):
        raise AssertionError(f"asymptotic cells not stable at n={n} side={side}")
    return CellPartition(n, f"asymptotic {side}", part.blocks)
