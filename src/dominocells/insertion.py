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
The right tableau records which two squares each step added: the squares
the step filled while they were empty, less those that re-entering labels
vacated, so no step reads the whole map.  Row or column idx <= r starts
with r + 1 - idx core squares, all 0, and a step's scan of it for where
a label lands starts after them.

Every insertion runs through `_walk`.  It inserts a run of signed
permutations in order, and each element restarts from the state of the
prefix it shares with the element before it, so on `group_elements(n)`,
in increasing order, each signed prefix is inserted once; one element is
a walk of length one.  A state holds the squares each step added and each
label's domino, which `_tableau` freezes into the recording and the
insertion tableau.  `tableau_classes` groups W_n by recording tableau and
freezes each distinct one once; it is the one class map.  The insertion
tableau of w is the recording tableau of w^-1 (van Leeuwen; Lam), so the
classes of insertion tableaux are these classes inverted, and no code
groups W_n by them.  `verify insertion` checks that symmetry at every rank
it walks.  Every reader of all of W_n reads the walk: the cell partitions,
`verify classes` and `intermediate` (its split elements too) the classes,
`verify tau` its live states, freezing each distinct recording tableau
once, and `verify insertion` each rank's pairs through `_rank_pairs`.  No
suite reads back the memo on `insert`.

The inverse runs the same local rules backwards (van Leeuwen's view of
insertion as growth): it undoes the recorded steps last first and, within
a step, the labels largest first, finding each moved domino's old place
as the one removable domino that the re-entry rule sends onto its new
place.  Every undo runs through one driver, `_uninserted`: it undoes a
run of pairs in order, checks each distinct left tableau once with
`check_standard`, which validates and returns nothing, and reads each
pair's maps from the left tableau's rows.  `uninsert` is its one-pair
call, and `verify insertion` undoes each rank's pairs through one call,
so each distinct left tableau is checked once per rank, not once per pair.

For rank >= n-1 the signs never interact and the whole map degenerates to
a pair of ordinary Robinson-Schensted insertions, one on the positive
values and one on the absolute values of the negative ones; that second
algorithm is implemented independently here as a cross-check.
"""

from __future__ import annotations

import heapq
from functools import cache, lru_cache, partial
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from .shapes import (
    Shape, Square, cells_of_shape, is_removable, removable_dominos, staircase,
)
from .tableaux import DominoTableau, TableauError, TableauPair, _dominos
from .wgroup import SignedPerm, group_elements, validate_signed_perm

__all__ = [
    "insert", "insertion_states", "tableau_classes", "uninsert",
    "asymptotic_bitableaux", "rs_insert",
]


def _reentry(domino, lost) -> Tuple[str, int]:
    """Where an evicted domino, its two squares in order, re-enters, given
    the squares it lost: the row below when it kept only row-direction
    claims, the column to the right when it kept only column-direction
    claims."""
    (i1, j1), (i2, j2) = domino
    if j1 == j2:  # vertical, the top square first
        return ("row", i2) if lost == {(i1, j1)} else ("col", j1 + 1)
    return ("col", j2) if lost == {(i1, j1)} else ("row", i1 + 1)


def _target(cells: Dict[Square, int], label: int, mode: str, idx: int, rank: int):
    """The two squares of row or column `idx` after its leading run of
    labels below `label`.  The scan starts after the row's or column's
    squares of the rank-`rank` staircase, which hold 0 wherever the core is
    intact; rank 0 scans from the first square."""
    c = rank + 1 - idx if idx <= rank else 0
    if mode == "row":
        while cells.get((idx, c + 1), label) < label:
            c += 1
        return (idx, c + 1), (idx, c + 2)
    while cells.get((c + 1, idx), label) < label:
        c += 1
    return (c + 1, idx), (c + 2, idx)


def _step(cells: Dict[Square, int], where: Dict[int, Tuple[Square, Square]],
          value: int, step: int, rank: int) -> Tuple[Square, Square]:
    """Insert one value, as step `step`, into the live square -> label map
    `cells` of a rank-`rank` walk; `where` maps each label to the domino it
    was last placed on.  Returns the two squares the step added, sorted:
    the squares it filled while they were empty, less the squares that
    re-entering labels vacated, each as often as it was vacated."""
    u = abs(value)
    mode, idx = ("row", 1) if value > 0 else ("col", 1)
    losses: Dict[int, Set[Square]] = {}  # evicted label -> squares it lost
    heap: List[int] = []
    filled: List[Square] = []
    vacated: List[Square] = []
    while True:
        where[u] = target = _target(cells, u, mode, idx, rank)
        for sq in target:
            old = cells.get(sq)
            if old is None:
                filled.append(sq)
            elif old == 0:
                raise AssertionError(f"insertion target {sq} is a core square")
            elif old in losses:
                losses[old].add(sq)
            else:
                losses[old] = {sq}
                heapq.heappush(heap, old)
            cells[sq] = u
        if not heap:
            break
        u = heapq.heappop(heap)
        mode, idx = _reentry(where[u], losses.pop(u))
        for sq in where[u]:
            if cells.get(sq) == u:
                del cells[sq]
                vacated.append(sq)
    for sq in vacated:
        if sq in filled:
            filled.remove(sq)
    if len(filled) != 2:
        raise AssertionError(f"step {step} added squares {sorted(filled)}")
    a, b = filled
    return (a, b) if a < b else (b, a)


def _walk(ws: Iterable[SignedPerm], rank: int) -> Iterator[Tuple[SignedPerm, tuple]]:
    """Rank-`rank` insertion of each w in `ws`, in order: yield (w, states),
    where states[k] = (left, where, steps) holds, after k values, the live
    square -> label map, each label's domino and the squares each step
    added.  Each w restarts from the state of the prefix it shares with the
    w before it, and each step copies the state it starts from, so a
    yielded state never changes.  Sorted input inserts each prefix once."""
    if rank < 0:
        raise ValueError("rank must be >= 0")
    states = [(_core(rank), {}, ())]
    prev: SignedPerm = ()
    for w in ws:
        k = 0
        for a, b in zip(prev, w):
            if a != b:
                break
            k += 1
        del states[k + 1:]
        left, where, steps = states[k]
        for step, value in enumerate(w[k:], start=k + 1):
            left, where = dict(left), dict(where)
            steps += (_step(left, where, value, step, rank),)
            states.append((left, where, steps))
        prev = w
        yield w, tuple(states)


def _states(w: SignedPerm, rank: int) -> tuple:
    """The states of the rank-`rank` insertion of one signed permutation,
    after 0, 1, ..., n values."""
    w = tuple(w)
    validate_signed_perm(w)
    ((_, states),) = _walk((w,), rank)
    return states


@cache
def _core(rank: int) -> Dict[Square, int]:
    """The rank-`rank` staircase, square -> 0, that each walk at the rank
    starts from and `_tableau` copies; it is shared, so never changed."""
    return dict.fromkeys(cells_of_shape(staircase(rank)), 0)


def _tableau(rank: int, dominos) -> DominoTableau:
    """A copy of the rank-`rank` staircase with label k on the two squares
    `dominos[k-1]`: a state's `steps` give its recording tableau, its
    `where` read in label order its insertion tableau."""
    cells = dict(_core(rank))
    for label, squares in enumerate(dominos, start=1):
        cells.update(dict.fromkeys(squares, label))
    return DominoTableau.from_cells(rank, cells)


def _insert(w: SignedPerm, rank: int) -> TableauPair:
    """The image of w under rank-`rank` domino insertion."""
    left, _, steps = _states(w, rank)[-1]
    return TableauPair(DominoTableau.from_cells(rank, left), _tableau(rank, steps))


# no suite reads this memo back; `bench/tracer.py` and the tests read its
# `cache_info()`
insert = lru_cache(maxsize=1 << 18)(_insert)


def insertion_states(w: SignedPerm, rank: int) -> List[TableauPair]:
    """The partial pairs after 0, 1, ..., n insertion steps."""
    return [
        TableauPair(DominoTableau.from_cells(rank, left), _tableau(rank, steps))
        for left, _, steps in _states(w, rank)
    ]


# Two entries: the class check compares rank r with r+1.
@lru_cache(maxsize=2)
def tableau_classes(n: int, rank: int) -> Dict[DominoTableau, FrozenSet[SignedPerm]]:
    """Recording tableau -> its class, for all of W_n at one rank.

    One walk over `group_elements(n)`, in increasing order, inserts each
    signed prefix once, groups W_n by the squares each step added, and
    freezes each distinct recording tableau once.  The classes hold the
    tuples of `group_elements(n)`.  The insertion tableau of w is the
    recording tableau of w^-1, so grouping by insertion tableau gives these
    classes inverted.  At rank 1 there is one class per standard domino
    tableau, sum_k C(3,k) I(k) I(3-k) = 20 of them for n = 3 (I(k) counts
    the involutions of k letters), and they cover |W_3| = 48:

    >>> classes = tableau_classes(3, 1)
    >>> len(classes), sum(map(len, classes.values()))
    (20, 48)
    """
    by_steps: Dict[tuple, List[SignedPerm]] = {}
    for w, states in _walk(group_elements(n), rank):
        by_steps.setdefault(states[-1][2], []).append(w)
    return {_tableau(rank, steps): frozenset(ws) for steps, ws in by_steps.items()}


def _rank_pairs(
    ws: Iterable[SignedPerm], rank: int
) -> Tuple[Dict[SignedPerm, TableauPair], Dict[SignedPerm, Exception]]:
    """The rank-`rank` pairs of `ws` from one walk: w -> pair, in order of
    recording tableau, and w -> error for each w whose insertion failed.
    A failure restarts the walk after its element, so the rest are still
    inserted.  Each distinct tableau is frozen once, whether it is a left
    or a right, so equal tableaux are one object."""
    ws = list(ws)
    by_steps: Dict[tuple, List[Tuple[SignedPerm, tuple]]] = {}
    failed: Dict[SignedPerm, Exception] = {}
    done = 0
    while done < len(ws):
        try:
            for w, states in _walk(ws[done:], rank):
                _, where, steps = states[-1]
                placed = tuple([where[k] for k in range(1, len(w) + 1)])
                by_steps.setdefault(steps, []).append((w, placed))
                done += 1
        except Exception as exc:
            failed[ws[done]] = exc
            done += 1
    frozen = cache(partial(_tableau, rank))
    pairs = {}
    for steps, group in by_steps.items():
        for w, placed in group:
            try:
                pairs[w] = TableauPair(frozen(placed), frozen(steps))
            except Exception as exc:
                failed[w] = exc
    return pairs, failed


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


def _embed_bitableaux(pos_t, neg_t, rank: int) -> Dict[Square, int]:
    """Lay out an ordinary tableau pair part as dominos around the rank-r
    staircase: cell (a, b) of the positive part becomes the horizontal
    domino at row a starting in column r - a + 2b, cell (a, b) of the
    (transposed) negative part the vertical one in column b from row
    r + 2a - b."""
    cells = dict.fromkeys(cells_of_shape(staircase(rank)), 0)
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
    return tuple([
        tuple([t[a][b] for a in range(len(t)) if len(t[a]) > b])
        for b in range(len(t[0]))
    ])


def asymptotic_bitableaux(w: SignedPerm, rank: int) -> TableauPair:
    """Second, independent algorithm for insertion at rank >= n - 1:
    ordinary Robinson-Schensted on the positive values and on the absolute
    values of the negative ones, embedded as dominos."""
    validate_signed_perm(w)
    n = len(w)
    if rank < n - 1:
        raise ValueError(f"rank {rank} below the asymptotic range for n={n}")
    pos_steps = [k for k, x in enumerate(w, start=1) if x > 0]
    neg_steps = [k for k, x in enumerate(w, start=1) if x < 0]
    pos_p, pos_q = rs_insert([w[k - 1] for k in pos_steps])
    neg_p, neg_q = rs_insert([-w[k - 1] for k in neg_steps])
    pos_q = tuple([tuple([pos_steps[s - 1] for s in row]) for row in pos_q])
    neg_q = tuple([tuple([neg_steps[s - 1] for s in row]) for row in neg_q])
    left = _embed_bitableaux(pos_p, _transpose(neg_p), rank)
    right = _embed_bitableaux(pos_q, _transpose(neg_q), rank)
    return TableauPair(
        DominoTableau.from_cells(rank, left), DominoTableau.from_cells(rank, right)
    )


def _cut(rows: List[int], squares) -> List[int]:
    """The row lengths `rows` of a diagram, less `squares` taken rightmost
    first, when each is the last square of its row as it goes; [] when one
    is not."""
    rows = list(rows)
    for i, j in sorted(squares, reverse=True):
        if not 0 < i <= len(rows) or rows[i - 1] != j:
            return []
        rows[i - 1] = j - 1
    return rows


def _undo_step(cells: Dict[Square, int], dominos: Dict[int, FrozenSet[Square]],
               shape: Shape, added) -> Tuple[int, Shape]:
    """Undo the insertion step that added the domino `added` to the left
    tableau `cells` (square -> label, 0 on the core) of shape `shape`, whose
    label -> squares map is `dominos`; returns the inserted value and the
    shape before the step, which is `shape` less `added`.  `cells` and
    `dominos` are updated in place, on the labels the step moved only, once
    the whole step has been undone.

    Labels are undone largest first, while `loose` holds the two squares
    that the labels not yet undone gained in the step.  A label whose
    domino misses them kept its place.  A horizontal domino in row 1 or a
    vertical one in column 1 is the inserted value: no evicted domino
    re-enters there.  Any other label was evicted from the one removable
    domino of "core plus labels up to it, less `loose`" that re-enters onto
    its current squares.  That region is read from `below`, the row lengths
    of the core plus the labels not yet passed: each label passed cuts its
    domino from them, which on a standard tableau always leaves the ends of
    rows, and the region is what cutting `loose` leaves.  When either cut
    leaves no diagram, the step raises TableauError.
    """
    if not is_removable(shape, added):
        raise TableauError(f"squares {sorted(added)} are not a removable domino")
    loose = set(added)
    moved: Dict[int, FrozenSet[Square]] = {}
    below = list(shape)
    for lbl in sorted(dominos, reverse=True):
        now = dominos[lbl]
        if now & loose:
            (i1, j1), (i2, j2) = sorted(now)
            if i1 == i2 == 1 or j1 == j2 == 1:
                if now != loose:
                    raise TableauError(f"entry domino {lbl} is not the step's squares")
                for k in (lbl, *moved):
                    for sq in dominos[k]:
                        del cells[sq]
                del dominos[lbl]
                for k, d in moved.items():
                    cells.update(dict.fromkeys(d, k))
                    dominos[k] = d
                before = tuple([x for x in _cut(shape, added) if x])
                return (lbl if i1 == i2 else -lbl), before
            # `uninsert` takes any top-left region of 0s as the core, so the
            # scan starts at the first square (rank 0)
            rows = _cut(below, loose)
            if not rows or any(a < b for a, b in zip(rows, rows[1:])):
                raise TableauError("cells do not form a Young diagram")
            ways = [
                d for d in removable_dominos(tuple([x for x in rows if x]))
                if set(_target(cells, lbl, *_reentry(
                    sorted(d), {sq for sq in d if cells[sq] < lbl}), 0)) == now
            ]
            if len(ways) != 1:
                raise TableauError(f"domino {lbl} has {len(ways)} ways back, not one")
            moved[lbl] = ways[0]
            # the smaller labels gained the old domino and whatever is still
            # loose, except the squares this label holds now
            loose = (loose | ways[0]) - now
        below = _cut(below, now)
    raise TableauError(f"no entry domino covers the squares {sorted(added)}")


def uninsert(pair: TableauPair) -> SignedPerm:
    """The signed permutation mapping to `pair` under rank-`pair.rank`
    insertion, by reverse bumping: the one-pair call of `_uninserted`,
    raising what it met.

    >>> uninsert(insert((4, 1, -3, -2), 2))
    (4, 1, -3, -2)
    """
    (back,) = _uninserted((pair,))
    if isinstance(back, Exception):
        raise back
    return back


def _uninserted(pairs: Iterable[TableauPair]) -> Iterator:
    """The undo of each pair, in order: the signed permutation, or the
    exception it met.  The steps the right tableau records are undone last
    first, on a square -> label map and a label -> squares map read from
    the left tableau's rows for that pair alone.  `check_standard` runs
    once per distinct left tableau, and the right tableau's dominos are
    read once per run of pairs that share it: one rank's pairs come
    grouped by recording tableau."""
    checked: Dict[DominoTableau, Optional[Exception]] = {}  # the check's error
    right = recorded = None
    for pair in pairs:
        if pair.right is not right:
            right, recorded = pair.right, pair.right.dominos
        if pair.left not in checked:
            try:
                pair.left.check_standard(strict_core=False)
                checked[pair.left] = None
            except Exception as exc:
                checked[pair.left] = exc
        back = checked[pair.left]
        if back is None:
            cells = pair.left.cells()
            dominos, shape, w = _dominos(cells), pair.shape, []
            try:
                for k in range(len(recorded), 0, -1):
                    if k not in recorded:
                        raise TableauError(f"no domino labeled {k}")
                    value, shape = _undo_step(cells, dominos, shape, recorded[k])
                    w.append(value)
                if shape != staircase(pair.rank):
                    raise TableauError(
                        f"core squares do not form the rank-{pair.rank} staircase")
                back = tuple(reversed(w))
            except Exception as exc:
                back = exc
        yield back
