"""
Reference computations that the Hecke tests compare against: Bruhat order
(by the dominance criterion, and by reachability straight from the
definition), Laurent-polynomial sums and products, the bar map and the
bar-symmetric part of coefficients, the strictly-negative test on
coefficients, multiplication on the T basis (by T_s, and by T_u along a
reduced word), the bar involution, and the retired `kl_v3` JSON-lines
rendering of a table, which pins its contents by digest.  No pipeline in
`dominocells` needs them, so they live beside the tests; the T-basis
product here shares no code with the c_s product that builds the
Kazhdan-Lusztig basis.
"""

import hashlib
import json
import weakref
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

from dominocells.hecke import _decode
from dominocells.wgroup import (
    SignedPerm, compose, group_elements, identity, inverse, length,
    simple_generators,
)


def poly_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_bar(a):
    return {-e: c for e, c in a.items()}


def poly_symmetric_part(a):
    """The unique bar-invariant m with a - m supported in negative degrees."""
    out = {}
    if 0 in a:
        out[0] = a[0]
    for e, c in a.items():
        if e > 0:
            out[e] = c
            out[-e] = out.get(-e, 0) + c
            if not out[-e]:
                del out[-e]
    return out


def poly_is_strictly_negative(a):
    return all(e < 0 for e in a)


def add_term(h, y, p):
    """h[y] += p, dropping y when the sum is zero."""
    total = poly_add(h.get(y, {}), p)
    if total:
        h[y] = total
    else:
        h.pop(y, None)


def _embed_in_symmetric(w: SignedPerm) -> Tuple[int, ...]:
    """One-line image in S_2n under positions (-n..-1, 1..n) -> 1..2n."""
    n = len(w)

    def pos(v):
        return v + n + 1 if v < 0 else v + n

    img = [0] * (2 * n)
    for x in range(1, n + 1):
        img[pos(x) - 1] = pos(w[x - 1])
        img[pos(-x) - 1] = pos(-w[x - 1])
    return tuple(img)


@lru_cache(maxsize=1 << 16)
def _dominance_table(p: Tuple[int, ...]) -> Tuple[Tuple[int, ...], ...]:
    """rows[i][j] = #{k <= i+1 : p(k) >= j}, the dominance statistics."""
    m = len(p)
    rows = []
    suffix = [0] * (m + 2)
    for i in range(m):
        for j in range(1, p[i] + 1):
            suffix[j] += 1
        rows.append(tuple(suffix))
    return tuple(rows)


def bruhat_leq(u: SignedPerm, w: SignedPerm) -> bool:
    """Bruhat order on the signed permutation group, via the standard
    dominance criterion applied to the symmetric-group embedding."""
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    pu, pw = _embed_in_symmetric(u), _embed_in_symmetric(w)
    tu, tw = _dominance_table(pu), _dominance_table(pw)
    return all(
        tu[i][j] <= tw[i][j] for i in range(len(pu)) for j in range(1, len(pu) + 1)
    )


@lru_cache(maxsize=8)
def _bruhat_reachability(n: int) -> Dict[SignedPerm, FrozenSet[SignedPerm]]:
    """u <= w iff a chain of length-increasing reflection multiplications
    joins them; exact by definition, used to validate bruhat_leq."""
    elems = sorted(group_elements(n), key=lambda w: (length(w), w))
    refl = set(simple_generators(n))
    # all reflections: conjugates of the generators
    for w in elems:
        wi = inverse(w)
        for g in list(refl):
            refl.add(compose(compose(w, g), wi))
    below: Dict[SignedPerm, set] = {}
    for w in elems:  # increasing length
        cur = {w}
        for t in refl:
            wt = compose(w, t)
            if length(wt) < length(w):
                cur |= below[wt]
        below[w] = cur
    return {w: frozenset(b) for w, b in below.items()}


def bruhat_leq_bfs(u: SignedPerm, w: SignedPerm) -> bool:
    return u in _bruhat_reachability(len(w))[w]


def t_multiply_left(table, s: SignedPerm, L: int, h):
    """T_s . h where L(s) = L:

        T_s T_y = T_{sy}                      if l(sy) > l(y)
                = T_{sy} + (v^L - v^-L) T_y   otherwise.
    """
    out = {}
    for y, coef in h.items():
        sy = compose(s, y)
        add_term(out, sy, coef)
        if length(sy) < length(y):
            add_term(out, y, poly_mul(coef, {L: 1, -L: -1}))
    return out


def reduced_word(table, w: SignedPerm) -> List[Tuple[SignedPerm, int]]:
    """(generator, weight) pairs s_1 .. s_k with w = s_1 ... s_k reduced."""
    word = []
    cur = w
    while cur != identity(table.n):
        for gp, ls in table.gens:
            if length(compose(gp, cur)) < length(cur):
                word.append((gp, ls))
                cur = compose(gp, cur)
                break
        else:
            raise AssertionError("no left descent found")
    return word


def t_multiply_left_word(table, u: SignedPerm, h):
    """T_u . h, one generator of a reduced word for u at a time."""
    for gen_perm, ls in reversed(reduced_word(table, u)):
        h = t_multiply_left(table, gen_perm, ls, h)
    return h


# table -> {y: bar(T_y)}, dropped with the table
_BAR_T = weakref.WeakKeyDictionary()


def bar_t(table, y: SignedPerm):
    """bar(T_y) = (T_{y^{-1}})^{-1}, built from inverse generators."""
    memo = _BAR_T.setdefault(table, {})
    cached = memo.get(y)
    if cached is not None:
        return cached
    if y == identity(table.n):
        out = {y: {0: 1}}
    else:
        for gp, ls in table.gens:
            sy = compose(gp, y)
            if length(sy) < length(y):
                break
        # bar(T_y) = bar(T_s) bar(T_{sy}); bar(T_s) = T_s^{-1}
        rest = bar_t(table, sy)
        out = t_multiply_left(table, gp, ls, rest)
        for z, coef in rest.items():
            add_term(out, z, poly_mul(coef, {-ls: 1, ls: -1}))
    memo[y] = out
    return out


def bar(table, h):
    """The bar involution on an element of the table's Hecke algebra."""
    out = {}
    for y, coef in h.items():
        barc = poly_bar(coef)
        for z, c2 in bar_t(table, y).items():
            add_term(out, z, poly_mul(barc, c2))
    return out


def kl_v3_bytes(table) -> bytes:
    """The table as the `kl_v3` cache file rendered it: a header line
    {v, n, a, b, records}; one line per index, {"c": [[y, [[e, k], ...]],
    ...], "edges": [...]}, with the terms of c_w and its left edges in
    increasing index order; and a trailer line {sha256} over every line
    before it."""
    header = {"v": 3, "n": table.n, "a": table.weights.a, "b": table.weights.b,
              "records": len(table.elements)}
    lines = [json.dumps(header)]
    for (ys, ps), edges in zip(table.all_kl_basis(), table.left_edges()):
        terms = ", ".join(
            f"[{y}, {json.dumps(sorted(_decode(table._pool[p], table._top).items()))}]"
            for y, p in zip(ys, ps)
        )
        lines.append(f'{{"c": [{terms}], "edges": {json.dumps(sorted(edges))}}}')
    body = "".join(line + "\n" for line in lines).encode()
    trailer = json.dumps({"sha256": hashlib.sha256(body).hexdigest()})
    return body + trailer.encode() + b"\n"
