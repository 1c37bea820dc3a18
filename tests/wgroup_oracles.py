"""Test oracles on signed permutations that no computation in the library
needs, and the split rank of each element read from the class maps."""

import math
from functools import lru_cache

from dominocells.insertion import tableau_classes


def is_nonsplit(w):
    """True iff the positive entries decrease and the negative entries
    decrease in absolute value, read left to right."""
    pos = [x for x in w if x > 0]
    neg = [-x for x in w if x < 0]
    return all(a > b for a, b in zip(pos, pos[1:])) and all(
        a > b for a, b in zip(neg, neg[1:])
    )


def reflection_t(k, n):
    """The one-line form of t_k = s_{k-1} ... s_1 t s_1 ... s_{k-1} inside
    W_n: it negates position k."""
    if not 1 <= k <= n:
        raise ValueError(f"t_{k} out of range for W_{n}")
    return tuple(-x if x == k else x for x in range(1, n + 1))


def right_descends(w, kind, index):
    """Whether l(w g) < l(w) for g = s_index (kind "s") or t_index (kind
    "t"), by the positional criteria: w(i+1) < w(i) for s_i, w(j) < 0 for
    t_j."""
    return w[index] < w[index - 1] if kind == "s" else w[index - 1] < 0


@lru_cache(maxsize=None)
def split_ranks(n):
    """w -> the least rank r at which the insertion tableau of w is split,
    for all of W_n: the rank-r classes of split recording tableaux, of the
    same shapes, read the way `verify intermediate` reads its split
    elements."""
    ranks = {}
    for r in range(max(n, 1)):
        for t, ws in tableau_classes(n, r).items():
            if t.is_split():
                for w in ws:
                    ranks.setdefault(w, r)
    assert len(ranks) == 2 ** n * math.factorial(n), f"no split rank below n in W_{n}"
    return ranks


def signed_inverse(w):
    """w^-1 in one-line form: w(i) = x puts sign(x) * i at position |x|."""
    inv = [0] * len(w)
    for i, x in enumerate(w, 1):
        inv[abs(x) - 1] = i if x > 0 else -i
    return tuple(inv)


def cells_from_left_cells(left, side):
    """The right (side "R") or two-sided (side "LR") cells, as sets, from
    the left cells `left` by the element-level rule: a sweep over W_n puts
    w in right cell i when w^-1 lies in left cell i, and the two-sided cells
    join the left cells of each w and w^-1."""
    cell = {w: i for i, block in enumerate(left) for w in block}
    if side == "R":
        right = [set() for _ in left]
        for w in cell:
            right[cell[signed_inverse(w)]].add(w)
        return right
    root = list(range(len(left)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for w, i in cell.items():
        root[find(i)] = find(cell[signed_inverse(w)])
    joined = {}
    for i, block in enumerate(left):
        joined.setdefault(find(i), set()).update(block)
    return list(joined.values())
