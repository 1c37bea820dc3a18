"""
The rank-r domino insertion bijections from signed permutations to
same-shape tableau pairs.

Values are inserted left to right into a tableau seeded with the rank-r
staircase of core squares: a positive value enters row 1 as a horizontal
domino, a negative value enters column 1 as a vertical domino, and each
landing evicts whatever it overlaps.  An evicted domino re-enters one row
down when it kept only row-direction claims (it lost its right square, or
both), and one column right when it kept only column-direction claims;
a vertical that lost just its top square re-enters the next row as a
horizontal, a horizontal that lost just its left square re-enters the
next column as a vertical.  Evictions are resolved smallest label first.
The right tableau records which two squares each step added.

For rank >= n-1 the signs never interact and the whole map degenerates to
a pair of ordinary Robinson-Schensted insertions, one on the positive
values and one on the absolute values of the negative ones; that second
algorithm is implemented independently here as a cross-check and as the
engine for inverting the map.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from .shapes import Square, shape_from_cells, staircase
from .tableaux import DominoTableau, TableauError, TableauPair, core_tableau
from .cycles import raise_rank
from .wgroup import SignedPerm, validate_signed_perm

__all__ = [
    "insert", "insertion_states", "uninsert", "asymptotic_bitableaux",
    "split_rank", "rs_insert", "rs_uninsert",
]


class _Board:
    """Mutable cell grid used while one signed permutation is inserted."""

    def __init__(self, rank: int):
        self.cells: Dict[Square, int] = {}
        self.label_cells: Dict[int, Set[Square]] = {}
        for i, row_len in enumerate(staircase(rank), start=1):
            for j in range(1, row_len + 1):
                self.cells[(i, j)] = 0

    def row_prefix(self, i: int, label: int) -> int:
        """Number of leading squares of row i with labels below `label`."""
        j = 0
        while True:
            lbl = self.cells.get((i, j + 1))
            if lbl is None or lbl >= label:
                return j
            j += 1

    def col_prefix(self, j: int, label: int) -> int:
        i = 0
        while True:
            lbl = self.cells.get((i + 1, j))
            if lbl is None or lbl >= label:
                return i
            i += 1

    def place(self, label: int, target: Tuple[Square, Square]):
        """Claim two squares for `label`; returns labels it evicted from."""
        hit: Dict[int, List[Square]] = {}
        for sq in target:
            old = self.cells.get(sq)
            if old == 0:
                raise AssertionError(f"insertion target {sq} is a core square")
            if old is not None:
                hit.setdefault(old, []).append(sq)
            self.cells[sq] = label
        self.label_cells[label] = set(target)
        return hit

    def remove(self, label: int) -> None:
        for sq in self.label_cells.get(label, ()):
            if self.cells.get(sq) == label:
                del self.cells[sq]
        self.label_cells[label] = set()


def _insert_value(board: _Board, value: int) -> None:
    m = abs(value)
    # (label) heap; orig/losses track evicted dominos until they re-enter
    orig: Dict[int, Tuple[Square, ...]] = {}
    losses: Dict[int, Set[Square]] = {}
    entry: Dict[int, Tuple[str, int]] = {m: ("row", 1) if value > 0 else ("col", 1)}
    heap = [m]
    queued = {m}
    while heap:
        u = heapq.heappop(heap)
        queued.discard(u)
        if u in entry:
            mode, idx = entry.pop(u)
        else:
            cells = sorted(orig.pop(u))
            lost = losses.pop(u)
            board.remove(u)
            (i1, j1), (i2, j2) = cells
            if j1 == j2:  # vertical; cells sorted puts the top first
                if lost == {(i1, j1)}:
                    mode, idx = "row", i2
                else:
                    mode, idx = "col", j1 + 1
            else:
                if lost == {(i1, j1)}:
                    mode, idx = "col", j2
                else:
                    mode, idx = "row", i1 + 1
        if mode == "row":
            c = board.row_prefix(idx, u)
            target = ((idx, c + 1), (idx, c + 2))
        else:
            c = board.col_prefix(idx, u)
            target = ((c + 1, idx), (c + 2, idx))
        for d, squares in board.place(u, target).items():
            orig.setdefault(d, tuple(sorted(board.label_cells[d] | set(squares))))
            losses.setdefault(d, set()).update(squares)
            board.label_cells[d] -= set(squares)
            if d not in queued:
                heapq.heappush(heap, d)
                queued.add(d)


def _freeze(board_cells: Dict[Square, int], rank: int) -> DominoTableau:
    shape = shape_from_cells(board_cells.keys())
    rows = tuple(
        tuple(board_cells[(i, j)] for j in range(1, ln + 1))
        for i, ln in enumerate(shape, start=1)
    )
    return DominoTableau(rank, rows)


def _run_insertion(w: SignedPerm, rank: int):
    validate_signed_perm(w)
    if rank < 0:
        raise ValueError("rank must be >= 0")
    board = _Board(rank)
    recording: Dict[Square, int] = {sq: 0 for sq in board.cells}
    steps = []
    for step, value in enumerate(w, start=1):
        before = set(board.cells)
        _insert_value(board, value)
        added = sorted(set(board.cells) - before)
        if len(added) != 2:
            raise AssertionError(f"step {step} added squares {added}")
        for sq in added:
            recording[sq] = step
        steps.append((dict(board.cells), dict(recording)))
    return steps


@lru_cache(maxsize=1 << 18)
def insert(w: SignedPerm, rank: int) -> TableauPair:
    """The image of w under rank-`rank` domino insertion."""
    steps = _run_insertion(tuple(w), rank)
    if not steps:
        t = core_tableau(rank)
        return TableauPair(t, t)
    p_cells, q_cells = steps[-1]
    return TableauPair(_freeze(p_cells, rank), _freeze(q_cells, rank))


def insertion_states(w: SignedPerm, rank: int) -> List[TableauPair]:
    """The partial pairs after 0, 1, ..., n insertion steps."""
    out = [TableauPair(core_tableau(rank), core_tableau(rank))]
    for p_cells, q_cells in _run_insertion(tuple(w), rank):
        out.append(TableauPair(_freeze(p_cells, rank), _freeze(q_cells, rank)))
    return out


# -- ordinary Robinson-Schensted, used by the bitableau model ------------


def rs_insert(values) -> Tuple[Tuple[Tuple[int, ...], ...], Tuple[Tuple[int, ...], ...]]:
    """Row insertion of a sequence of distinct values; returns (P, Q) with
    Q recording 1-based step numbers."""
    p: List[List[int]] = []
    q: List[List[int]] = []
    for step, x in enumerate(values, start=1):
        i = 0
        while True:
            if i == len(p):
                p.append([x])
                q.append([step])
                break
            row = p[i]
            k = next((idx for idx, y in enumerate(row) if y > x), None)
            if k is None:
                row.append(x)
                q[i].append(step)
                break
            row[k], x = x, row[k]
            i += 1
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def rs_uninsert(p, q) -> Tuple[int, ...]:
    """Invert rs_insert; q holds the distinct step numbers in standard order."""
    p = [list(r) for r in p]
    q = [list(r) for r in q]
    order = sorted(
        ((lbl, i) for i, row in enumerate(q) for lbl in row), reverse=True
    )
    out = []
    for _, i in order:
        q[i].pop()
        x = p[i].pop()
        for row in reversed(p[:i]):
            k = max(idx for idx, y in enumerate(row) if y < x)
            row[k], x = x, row[k]
        out.append(x)
    for row in p + q:
        if row:
            raise TableauError("recording tableau steps inconsistent")
    return tuple(reversed(out))


def _embed_bitableaux(pos_t, neg_t, rank: int) -> Dict[Square, int]:
    """Lay out an ordinary tableau pair part as dominos around the rank-r
    staircase: cell (a, b) of the positive part becomes the horizontal
    domino at row a starting in column r - a + 2b, cell (a, b) of the
    (transposed) negative part the vertical one in column b from row
    r + 2a - b."""
    cells: Dict[Square, int] = {}
    for i, row_len in enumerate(staircase(rank), start=1):
        for j in range(1, row_len + 1):
            cells[(i, j)] = 0
    for a, row in enumerate(pos_t, start=1):
        for b, lbl in enumerate(row, start=1):
            j = rank - a + 2 * b
            if j <= 0:
                raise TableauError("rank too small for the bitableau layout")
            cells[(a, j)] = lbl
            cells[(a, j + 1)] = lbl
    for a, row in enumerate(neg_t, start=1):
        for b, lbl in enumerate(row, start=1):
            i = rank + 2 * a - b
            if i <= 0:
                raise TableauError("rank too small for the bitableau layout")
            cells[(i, b)] = lbl
            cells[(i + 1, b)] = lbl
    return cells


def _transpose(t):
    """Conjugate of an ordinary tableau given as rows."""
    if not t:
        return ()
    return tuple(
        tuple(t[a][b] for a in range(len(t)) if len(t[a]) > b)
        for b in range(len(t[0]))
    )


def asymptotic_bitableaux(w: SignedPerm, rank: Optional[int] = None) -> TableauPair:
    """Second, independent algorithm for insertion at rank >= n - 1:
    ordinary Robinson-Schensted on the positive values and on the absolute
    values of the negative ones, embedded as dominos."""
    validate_signed_perm(w)
    n = len(w)
    if rank is None:
        rank = max(n - 1, 0)
    if rank < n - 1:
        raise ValueError(f"rank {rank} below the asymptotic range for n={n}")
    pos_steps = [k for k, x in enumerate(w, start=1) if x > 0]
    neg_steps = [k for k, x in enumerate(w, start=1) if x < 0]
    pos_p, pos_q = rs_insert([w[k - 1] for k in pos_steps])
    neg_p, neg_q = rs_insert([-w[k - 1] for k in neg_steps])
    pos_q = tuple(tuple(pos_steps[s - 1] for s in row) for row in pos_q)
    neg_q = tuple(tuple(neg_steps[s - 1] for s in row) for row in neg_q)
    left = _freeze(_embed_bitableaux(pos_p, _transpose(neg_p), rank), rank)
    right = _freeze(_embed_bitableaux(pos_q, _transpose(neg_q), rank), rank)
    return TableauPair(left, right)


def _split_parts(t: DominoTableau):
    """Decompose a split-range tableau into its ordinary parts (inverse of
    _embed_bitableaux)."""
    rank = t.rank
    pos: Dict[Tuple[int, int], int] = {}
    neg_t: Dict[Tuple[int, int], int] = {}
    for k in t.labels:
        (i1, j1), (i2, j2) = sorted(t.domino(k))
        if i1 == i2:  # horizontal: positive part
            b2 = j1 - rank + i1
            if b2 <= 0 or b2 % 2:
                raise TableauError(f"domino {k} is not in bitableau position")
            pos[(i1, b2 // 2)] = k
        else:
            a2 = i1 - rank + j1
            if a2 <= 0 or a2 % 2:
                raise TableauError(f"domino {k} is not in bitableau position")
            neg_t[(a2 // 2, j1)] = k

    def grid(d):
        if not d:
            return ()
        nrows = max(a for a, _ in d)
        return tuple(
            tuple(d[(a, b)] for b in range(1, 1 + sum(1 for k in d if k[0] == a)))
            for a in range(1, nrows + 1)
        )
    return grid(pos), _transpose(grid(neg_t))


def uninsert(pair: TableauPair) -> SignedPerm:
    """The signed permutation mapping to `pair` under rank-`pair.rank`
    insertion, recovered by raising the pair into the asymptotic range and
    unwinding the two ordinary Robinson-Schensted insertions."""
    n = pair.n
    if n == 0:
        return ()
    lifted = pair
    while lifted.rank < n - 1:
        lifted = raise_rank(lifted)
    pos_p, neg_p = _split_parts(lifted.left)
    pos_q, neg_q = _split_parts(lifted.right)
    pos_steps = sorted(x for row in pos_q for x in row)
    neg_steps = sorted(x for row in neg_q for x in row)
    renum_p = tuple(
        tuple(pos_steps.index(x) + 1 for x in row) for row in pos_q
    )
    renum_n = tuple(
        tuple(neg_steps.index(x) + 1 for x in row) for row in neg_q
    )
    pos_vals = rs_uninsert(pos_p, renum_p)
    neg_vals = rs_uninsert(neg_p, renum_n)
    w = [0] * n
    for k, v in zip(pos_steps, pos_vals):
        w[k - 1] = v
    for k, v in zip(neg_steps, neg_vals):
        w[k - 1] = -v
    validate_signed_perm(tuple(w))
    return tuple(w)


@lru_cache(maxsize=1 << 18)
def split_rank(w: SignedPerm) -> int:
    """The least r for which the rank-r insertion pair is split."""
    w = tuple(w)
    n = len(w)
    for r in range(max(n, 1)):
        if insert(w, r).is_split():
            return r
    raise AssertionError(f"no split rank below n for {w}")
