"""
The unequal-parameter Iwahori-Hecke algebra of the signed permutation
group, over exact Laurent polynomials in v, and its Kazhdan-Lusztig cells.

The weight function assigns a to each s_i and b to t; v_s = v^{L(s)}.
Multiplication on the standard basis {T_w} is

    T_s T_w = T_{sw}                          if l(sw) > l(w)
            = T_{sw} + (v_s - v_s^{-1}) T_w   otherwise.

The bar involution sends v to v^{-1} and T_w to the inverse of T_{w^{-1}};
the Kazhdan-Lusztig basis element c_w is the unique bar-invariant element
equal to T_w plus a combination of T_y, y below w in Bruhat order, whose
coefficients have only negative exponents.  Cells are the strong
components of the preorder generated by left multiplication by the c_s.

Internally a Laurent polynomial is a dict {exponent: integer coefficient}
with no zero values, and a Hecke algebra element is a dict mapping
one-line signed permutations to such dicts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cells import CellPartition
from .wgroup import (
    Generator, SignedPerm, compose, generator_perm, group_elements,
    identity, inverse, length, simple_generators,
)

__all__ = [
    "LaurentPolynomial", "WeightFunction", "poly_add", "poly_mul",
    "poly_bar", "poly_is_strictly_negative", "poly_symmetric_part",
    "t_multiply_left", "bar", "kl_basis", "kl_cells", "KLTable",
    "bruhat_leq", "bruhat_leq_bfs",
]


# -- Laurent polynomials as sparse dicts ---------------------------------

Poly = Dict[int, int]

P_ZERO: Poly = {}
P_ONE: Poly = {0: 1}


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def poly_scale(a: Poly, k: int) -> Poly:
    if k == 0:
        return {}
    return {e: c * k for e, c in a.items()}


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def poly_bar(a: Poly) -> Poly:
    return {-e: c for e, c in a.items()}


def poly_is_strictly_negative(a: Poly) -> bool:
    return all(e < 0 for e in a)


def poly_symmetric_part(a: Poly) -> Poly:
    """The unique bar-invariant m with a - m supported in negative degrees."""
    out: Poly = {}
    if 0 in a:
        out[0] = a[0]
    for e, c in a.items():
        if e > 0:
            out[e] = c
            out[-e] = out.get(-e, 0) + c
            if not out[-e]:
                del out[-e]
    return out


@dataclass(frozen=True)
class LaurentPolynomial:
    """Exact element of Z[v, v^-1]; thin wrapper over the sparse dict form."""
    coeffs: Tuple[Tuple[int, int], ...]

    @classmethod
    def from_dict(cls, d: Poly) -> "LaurentPolynomial":
        return cls(tuple(sorted((e, c) for e, c in d.items() if c)))

    def to_dict(self) -> Poly:
        return dict(self.coeffs)

    def __add__(self, other):
        return LaurentPolynomial.from_dict(poly_add(self.to_dict(), other.to_dict()))

    def __mul__(self, other):
        return LaurentPolynomial.from_dict(poly_mul(self.to_dict(), other.to_dict()))

    def __neg__(self):
        return LaurentPolynomial.from_dict(poly_scale(self.to_dict(), -1))

    def __sub__(self, other):
        return self + (-other)

    def bar(self) -> "LaurentPolynomial":
        return LaurentPolynomial.from_dict(poly_bar(self.to_dict()))

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(f"{c}")
            else:
                parts.append(f"{c}*v^{e}" if c != 1 else f"v^{e}")
        return " + ".join(parts)


@dataclass(frozen=True)
class WeightFunction:
    """L(s_i) = a, L(t) = b, both positive; cells depend only on b/a."""
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("weights must be positive integers")

    @property
    def ratio(self) -> Optional[int]:
        return self.b // self.a if self.b % self.a == 0 else None

    def of_generator(self, g: Generator) -> int:
        return self.b if g.kind == "t" else self.a


# -- Bruhat order ---------------------------------------------------------


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
    refl = set()
    e = identity(n)
    for g in simple_generators(n):
        refl.add(generator_perm(g, n))
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


# -- the algebra ----------------------------------------------------------

HeckeDict = Dict[SignedPerm, Poly]


class KLTable:
    """All Kazhdan-Lusztig data of one weighted group: basis elements,
    bar involution, cell preorders.  Memoized per (n, a, b); optionally
    persisted as JSON lines."""

    def __init__(self, n: int, weights: WeightFunction, cache_dir: Optional[str] = None):
        self.n = n
        self.weights = weights
        self.elements: Tuple[SignedPerm, ...] = tuple(
            sorted(group_elements(n), key=lambda w: (length(w), w))
        )
        self.length = {w: length(w) for w in self.elements}
        self.gens = [
            (g, generator_perm(g, n), weights.of_generator(g))
            for g in simple_generators(n)
        ]
        self._c: Dict[SignedPerm, HeckeDict] = {}
        self._edges: Optional[Dict[SignedPerm, FrozenSet[SignedPerm]]] = None
        self._bar_t: Dict[SignedPerm, HeckeDict] = {}
        self.cache_dir = cache_dir
        self._loaded_from_cache = False
        if cache_dir:
            self._load_cache()

    # ---- T-basis operations

    def t_multiply_left(self, gen_perm: SignedPerm, ls: int, h: HeckeDict) -> HeckeDict:
        """Left multiplication by T_s where L(s) = ls."""
        out: HeckeDict = {}
        for y, coef in h.items():
            sy = compose(gen_perm, y)
            if self.length[sy] > self.length[y]:
                _add_into(out, sy, coef)
            else:
                _add_into(out, sy, coef)
                _add_into(out, y, poly_mul(coef, {ls: 1, -ls: -1}))
        return out

    def t_multiply_left_word(self, u: SignedPerm, h: HeckeDict) -> HeckeDict:
        """T_u . h via a reduced word for u."""
        for gen_perm, ls in reversed(self._reduced_word(u)):
            h = self.t_multiply_left(gen_perm, ls, h)
        return h

    def _reduced_word(self, w: SignedPerm) -> List[Tuple[SignedPerm, int]]:
        word = []
        cur = w
        while cur != identity(self.n):
            for g, gp, ls in self.gens:
                if self.length[compose(gp, cur)] < self.length[cur]:
                    word.append((gp, ls))
                    cur = compose(gp, cur)
                    break
            else:
                raise AssertionError("no left descent found")
        return word

    def bar_t(self, y: SignedPerm) -> HeckeDict:
        """bar(T_y) = (T_{y^{-1}})^{-1}, built from inverse generators."""
        cached = self._bar_t.get(y)
        if cached is not None:
            return cached
        if y == identity(self.n):
            out = {y: dict(P_ONE)}
        else:
            for g, gp, ls in self.gens:
                sy = compose(gp, y)
                if self.length[sy] < self.length[y]:
                    break
            # bar(T_y) = bar(T_s) bar(T_{sy}); bar(T_s) = T_s^{-1}
            rest = self.bar_t(sy)
            out = self.t_multiply_left(gp, ls, rest)
            for z, coef in rest.items():
                _add_into(out, z, poly_mul(coef, {-ls: 1, ls: -1}))
        self._bar_t[y] = out
        return out

    def bar(self, h: HeckeDict) -> HeckeDict:
        out: HeckeDict = {}
        for y, coef in h.items():
            barc = poly_bar(coef)
            for z, c2 in self.bar_t(y).items():
                _add_into(out, z, poly_mul(barc, c2))
        return out

    # ---- Kazhdan-Lusztig basis

    def kl_basis(self, w: SignedPerm) -> HeckeDict:
        cached = self._c.get(w)
        if cached is not None:
            return cached
        order = [y for y in self.elements if self.length[y] <= self.length[w]]
        for y in order:
            if y not in self._c:
                self._compute_c(y)
        return self._c[w]

    def _compute_c(self, w: SignedPerm) -> None:
        if w == identity(self.n):
            self._c[w] = {w: dict(P_ONE)}
            return
        for g, gp, ls in self.gens:
            sw = compose(gp, w)
            if self.length[sw] < self.length[w]:
                break
        m = self.t_multiply_left(gp, ls, self._c[sw])
        for y, coef in self._c[sw].items():
            _add_into(m, y, poly_mul(coef, {-ls: 1}))
        # Strip the bar-symmetric parts below w, longest first.  Subtracting
        # at z only disturbs strictly shorter elements (which may enter the
        # support), so rescan until nothing symmetric is left.
        while True:
            worst = None
            for z, coef in m.items():
                if z == w:
                    continue
                if poly_symmetric_part(coef):
                    if worst is None or (self.length[z], z) > (self.length[worst], worst):
                        worst = z
            if worst is None:
                break
            sym = poly_symmetric_part(m[worst])
            for y2, c2 in self._c[worst].items():
                _add_into(m, y2, poly_mul(poly_scale(sym, -1), c2))
        assert m.get(w) == P_ONE, f"c_{w} is not unitriangular"
        for z, coef in m.items():
            if z != w and not poly_is_strictly_negative(coef):
                raise AssertionError(f"c_{w} coefficient at {z} not negative: {coef}")
        self._c[w] = m

    def all_kl_basis(self) -> Dict[SignedPerm, HeckeDict]:
        for y in self.elements:
            if y not in self._c:
                self._compute_c(y)
        if self.cache_dir and not self._loaded_from_cache:
            self._save_cache()
        return self._c

    # ---- cells

    def c_expand(self, h: HeckeDict) -> Dict[SignedPerm, Poly]:
        """Coefficients of h in the Kazhdan-Lusztig basis."""
        rest = {y: dict(c) for y, c in h.items()}
        out: Dict[SignedPerm, Poly] = {}
        while rest:
            z = max(rest, key=lambda y: (self.length[y], y))
            coef = rest.pop(z)
            if not coef:
                continue
            out[z] = coef
            for y2, c2 in self.kl_basis(z).items():
                if y2 == z:
                    continue
                cur = poly_add(rest.get(y2, {}), poly_mul(poly_scale(coef, -1), c2))
                if cur:
                    rest[y2] = cur
                else:
                    rest.pop(y2, None)
        return out

    def left_edges(self) -> Dict[SignedPerm, FrozenSet[SignedPerm]]:
        """w -> those y != w with c_y appearing in some c_s c_w, computed
        once per table."""
        self.all_kl_basis()
        if self._edges is not None:
            return self._edges
        edges: Dict[SignedPerm, set] = {w: set() for w in self.elements}
        for w in self.elements:
            cw = self._c[w]
            for g, gp, ls in self.gens:
                if self.length[compose(gp, w)] < self.length[w]:
                    continue  # c_s c_w is a scalar times c_w
                prod = self.t_multiply_left(gp, ls, cw)
                for y, coef in cw.items():
                    _add_into(prod, y, poly_mul(coef, {-ls: 1}))
                for z, coef in self.c_expand(prod).items():
                    if z != w and coef:
                        edges[w].add(z)
        self._edges = {w: frozenset(s) for w, s in edges.items()}
        return self._edges

    def cells(self, side: str = "L") -> CellPartition:
        if side not in ("L", "R", "LR"):
            raise ValueError("side must be L, R or LR")
        left = self.left_edges()
        if side == "L":
            edges = left
        elif side == "R":
            edges = {
                inverse(w): frozenset(inverse(z) for z in zs)
                for w, zs in left.items()
            }
        else:
            edges = {
                w: left[w] | frozenset(inverse(z) for z in left[inverse(w)])
                for w in self.elements
            }
        comp = _strong_components(self.elements, edges)
        tag = f"kl a={self.weights.a} b={self.weights.b} {side}"
        return CellPartition(self.n, tag, tuple(frozenset(c) for c in comp))

    # ---- persistence

    def _cache_path(self) -> str:
        name = f"kl_v1_n{self.n}_a{self.weights.a}_b{self.weights.b}.jsonl"
        return os.path.join(self.cache_dir, name)

    def _save_cache(self) -> None:
        os.makedirs(self.cache_dir, exist_ok=True)
        with open(self._cache_path(), "w") as fh:
            for w in self.elements:
                rec = {
                    "v": 1,
                    "w": list(w),
                    "coeffs": [
                        {"y": list(y), "poly": {str(e): c for e, c in p.items()}}
                        for y, p in sorted(self._c[w].items())
                    ],
                }
                fh.write(json.dumps(rec) + "\n")

    def _load_cache(self) -> None:
        path = self._cache_path()
        if not os.path.exists(path):
            return
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec.get("v") != 1:
                    continue
                w = tuple(rec["w"])
                self._c[w] = {
                    tuple(entry["y"]): {int(e): c for e, c in entry["poly"].items()}
                    for entry in rec["coeffs"]
                }
        if len(self._c) == len(self.elements):
            self._loaded_from_cache = True


def _add_into(h: HeckeDict, y: SignedPerm, p: Poly) -> None:
    cur = h.get(y)
    if cur is None:
        if p:
            h[y] = dict(p)
        return
    for e, c in p.items():
        s = cur.get(e, 0) + c
        if s:
            cur[e] = s
        else:
            del cur[e]
    if not cur:
        del h[y]


def _strong_components(nodes, edges) -> List[FrozenSet]:
    """Iterative Tarjan."""
    index: Dict = {}
    low: Dict = {}
    on_stack: Dict = {}
    stack: List = []
    out: List[FrozenSet] = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if on_stack.get(nxt):
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    x = stack.pop()
                    on_stack[x] = False
                    comp.add(x)
                    if x == node:
                        break
                out.append(frozenset(comp))
    return out


_TABLES: Dict[Tuple[int, int, int], KLTable] = {}


def get_table(n: int, weights: WeightFunction, cache_dir: Optional[str] = None) -> KLTable:
    key = (n, weights.a, weights.b)
    table = _TABLES.get(key)
    if table is None:
        table = KLTable(n, weights, cache_dir=cache_dir)
        _TABLES[key] = table
    elif cache_dir and not table.cache_dir:
        table.cache_dir = cache_dir
    return table


# -- public operation surface ---------------------------------------------


def t_multiply_left(g: Generator, h: HeckeDict, weights: WeightFunction, n: int) -> HeckeDict:
    table = get_table(n, weights)
    return table.t_multiply_left(generator_perm(g, n), weights.of_generator(g), h)


def bar(h: HeckeDict, weights: WeightFunction, n: int) -> HeckeDict:
    return get_table(n, weights).bar(h)


def kl_basis(w: SignedPerm, weights: WeightFunction) -> HeckeDict:
    return get_table(len(w), weights).kl_basis(w)


def kl_cells(
    n: int, weights: WeightFunction, side: str = "L", cache_dir: Optional[str] = None
) -> CellPartition:
    return get_table(n, weights, cache_dir=cache_dir).cells(side)
