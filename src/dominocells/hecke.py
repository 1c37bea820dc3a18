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

Both come from the same products (Lusztig, Hecke algebras with unequal
parameters, Thm 6.6): for sw > w,

    c_s c_w = c_{sw} + sum over z < sw of M^s_{z,w} c_z,

with M^s_{z,w} bar-invariant, so stripping the bar-symmetric part of each
coefficient below sw from c_s c_w leaves c_{sw}, and the z stripped are
the left-preorder edges of w.  The product needs no T-basis arithmetic:
since c_s = T_s + v_s^{-1}, a term T_y of c_w gives T_{sy} + v_s^{-1} T_y
when sy > y and T_{sy} + v_s T_y otherwise.  Right cells are the inverses
of left cells, since y <=_R w exactly when y^{-1} <=_L w^{-1}.

Internally a Laurent polynomial is a dict {exponent: integer coefficient}
with no zero values, and a Hecke algebra element is a dict mapping
one-line signed permutations to such dicts.
"""

from __future__ import annotations

import heapq
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cells import CellPartition
from .wgroup import (
    Generator, SignedPerm, compose, generator_perm, group_elements,
    identity, inverse, length, simple_generators,
)

__all__ = [
    "WeightFunction", "poly_mul", "poly_is_strictly_negative",
    "poly_symmetric_part", "kl_cells", "KLTable",
]


# -- Laurent polynomials as sparse dicts ---------------------------------

Poly = Dict[int, int]

P_ONE: Poly = {0: 1}


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
class WeightFunction:
    """L(s_i) = a, L(t) = b, both positive; cells depend only on b/a."""
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("weights must be positive integers")

    def of_generator(self, g: Generator) -> int:
        return self.b if g.kind == "t" else self.a


# -- the algebra ----------------------------------------------------------

HeckeDict = Dict[SignedPerm, Poly]


class KLTable:
    """All Kazhdan-Lusztig data of one weighted group: basis elements and
    cell preorders.  The basis and the left-preorder edges come from one
    pass over the products c_s c_w; with a cache directory they are read
    from, or written once to, a checked JSON-lines file."""

    def __init__(self, n: int, weights: WeightFunction, cache_dir: Optional[str] = None):
        self.n = n
        self.weights = weights
        self.elements: Tuple[SignedPerm, ...] = tuple(
            sorted(group_elements(n), key=lambda w: (length(w), w))
        )
        self.length = {w: length(w) for w in self.elements}
        self._rank = {w: i for i, w in enumerate(self.elements)}
        self.gens = [  # (s, L(s)) for each Coxeter generator s
            (generator_perm(g, n), weights.of_generator(g)) for g in simple_generators(n)
        ]
        self._c: Dict[SignedPerm, HeckeDict] = {}
        self._edges: Optional[Dict[SignedPerm, FrozenSet[SignedPerm]]] = None
        self._left_cells: Optional[List[FrozenSet[SignedPerm]]] = None
        self.cache_dir = cache_dir

    # ---- Kazhdan-Lusztig basis and left-preorder edges

    def kl_basis(self, w: SignedPerm) -> HeckeDict:
        """c_w on the T basis.

        >>> KLTable(1, WeightFunction(1, 2)).kl_basis((-1,))
        {(-1,): {0: 1}, (1,): {-2: 1}}
        """
        return self.all_kl_basis()[w]

    def all_kl_basis(self) -> Dict[SignedPerm, HeckeDict]:
        """w -> c_w for the whole group, read from the cache file when it
        passes its checks, otherwise computed by one pass and written once."""
        if self._edges is None and not self._load_cache():
            self._pass()
            if self.cache_dir:
                self._save_cache()
        return self._c

    def _pass(self) -> None:
        """For w in length order and each s with sw > w, strip c_s c_w of
        the bar-symmetric part of every coefficient below sw.  The first
        product that reaches sw sets c_{sw}; every later one must agree."""
        e = identity(self.n)
        c: Dict[SignedPerm, HeckeDict] = {e: {e: dict(P_ONE)}}
        edges: Dict[SignedPerm, FrozenSet[SignedPerm]] = {}
        for w in self.elements:
            targets = set()
            for s, ls in self.gens:
                sw = compose(s, w)
                if self.length[sw] < self.length[w]:
                    continue  # c_s c_w = (v_s + v_s^{-1}) c_w
                m = self._c_s_times(s, ls, c[w])
                # M^s_{z,w} is what is stripped at z; what is left is c_sw
                targets.update(self._strip(m, c, poly_symmetric_part, keep=sw))
                targets.add(sw)
                known = c.get(sw)
                if known is None:
                    assert m.get(sw) == P_ONE, f"c_{sw} is not unitriangular"
                    for z, coef in m.items():
                        if z != sw and not poly_is_strictly_negative(coef):
                            raise AssertionError(
                                f"c_{sw} coefficient at {z} not negative: {coef}"
                            )
                    c[sw] = m
                elif known != m:
                    raise AssertionError(f"c_s c_{w} gives another c_{sw}")
            targets.discard(w)
            edges[w] = frozenset(targets)
        self._c, self._edges = c, edges

    def _c_s_times(self, s: SignedPerm, ls: int, h: HeckeDict) -> HeckeDict:
        """c_s h where L(s) = ls, by c_s = T_s + v_s^{-1}: a term T_y goes
        to T_{sy} + v_s^{-1} T_y when sy > y, to T_{sy} + v_s T_y otherwise."""
        out: HeckeDict = {}
        for y, coef in h.items():
            sy = compose(s, y)
            _add_into(out, sy, coef)
            _add_into(out, y, coef, -ls if self.length[sy] > self.length[y] else ls)
        return out

    def _strip(self, m: HeckeDict, c: Dict[SignedPerm, HeckeDict], part,
               keep: Optional[SignedPerm] = None) -> Dict[SignedPerm, Poly]:
        """For every z but `keep`, longest first, subtract part(m[z]) c_z
        from m in place; return z -> part(m[z]) where it is nonzero.
        Subtracting a multiple of c_z only reaches elements shorter than z,
        so one heap-ordered sweep visits each z once."""
        rank = self._rank
        heap = [-rank[z] for z in m if z != keep]
        heapq.heapify(heap)
        queued = set(m)
        out: Dict[SignedPerm, Poly] = {}
        while heap:
            z = self.elements[-heapq.heappop(heap)]
            p = part(m.get(z, {}))
            if not p:
                continue
            out[z] = p
            minus_p = {e: -k for e, k in p.items()}
            for y, coef in c[z].items():
                _add_into(m, y, poly_mul(minus_p, coef))
                if y not in queued:
                    queued.add(y)
                    heapq.heappush(heap, -rank[y])
        return out

    def left_edges(self) -> Dict[SignedPerm, FrozenSet[SignedPerm]]:
        """w -> those y != w with c_y appearing in some c_s c_w."""
        self.all_kl_basis()
        return self._edges

    # ---- cells

    def c_expand(self, h: HeckeDict) -> Dict[SignedPerm, Poly]:
        """Coefficients of h in the Kazhdan-Lusztig basis."""
        return self._strip({y: dict(p) for y, p in h.items()}, self.all_kl_basis(), dict)

    def cells(self, side: str = "L") -> CellPartition:
        if side not in ("L", "R", "LR"):
            raise ValueError("side must be L, R or LR")
        left = self.left_edges()
        if side == "LR":
            edges = {
                w: left[w] | frozenset(inverse(z) for z in left[inverse(w)])
                for w in self.elements
            }
            comp = _strong_components(self.elements, edges)
        else:
            if self._left_cells is None:
                self._left_cells = _strong_components(self.elements, left)
            comp = self._left_cells
            if side == "R":
                comp = [frozenset(map(inverse, block)) for block in comp]
        tag = f"kl a={self.weights.a} b={self.weights.b} {side}"
        return CellPartition(self.n, tag, tuple(frozenset(c) for c in comp))

    # ---- persistence
    #
    # Line 1 is a header {v, n, a, b, records, sha256 of the record lines};
    # then one record per element, in table order, with c_w and the left
    # edges of w.  A file that fails any check is recomputed and rewritten.

    def _cache_path(self) -> str:
        name = f"kl_v2_n{self.n}_a{self.weights.a}_b{self.weights.b}.jsonl"
        return os.path.join(self.cache_dir, name)

    def _header(self, records: int, digest: str) -> Dict:
        return {"v": 2, "n": self.n, "a": self.weights.a, "b": self.weights.b,
                "records": records, "sha256": digest}

    def _save_cache(self) -> None:
        digest = _sha256()
        lines = []
        for w in self.elements:
            rec = {
                "w": list(w),
                "c": [[list(y), sorted(p.items())] for y, p in sorted(self._c[w].items())],
                "edges": sorted(list(z) for z in self._edges[w]),
            }
            lines.append(json.dumps(rec).encode() + b"\n")
            digest.update(lines[-1])
        header = self._header(len(lines), digest.hexdigest())
        os.makedirs(self.cache_dir, exist_ok=True)
        # Written beside the target and renamed over it, so a reader sees
        # the old file or the new one; a file cut short fails the digest.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(json.dumps(header).encode() + b"\n")
                fh.writelines(lines)
            os.replace(tmp, self._cache_path())
        except BaseException:
            os.unlink(tmp)
            raise

    def _load_cache(self) -> bool:
        """Fill the table from the cache file; False when there is no file
        or it fails a check.  The file is read once to check it and once
        to parse it, so it is never held whole in memory."""
        if not self.cache_dir:
            return False
        try:
            fh = open(self._cache_path(), "rb")
        except FileNotFoundError:
            return False
        with fh:
            try:
                header = json.loads(fh.readline())
            except ValueError:
                return False
            digest, records = _sha256(), 0
            for line in fh:
                digest.update(line)
                records += 1
            expected = self._header(len(self.elements), digest.hexdigest())
            if header != expected or records != len(self.elements):
                return False
            fh.seek(0)
            fh.readline()
            c, edges = {}, {}
            for line in fh:
                rec = json.loads(line)
                w = tuple(rec["w"])
                c[w] = {tuple(y): dict(p) for y, p in rec["c"]}
                edges[w] = frozenset(tuple(z) for z in rec["edges"])
        self._c, self._edges = c, edges
        return True


def _sha256():
    # Imported on first use: hashlib loads OpenSSL, about 3.6 MB of peak RSS
    # that every run would pay at import time, with a cache or without.
    import hashlib
    return hashlib.sha256()


def _add_into(h: HeckeDict, y: SignedPerm, p: Poly, shift: int = 0) -> None:
    """h[y] += v^shift p, in place."""
    cur = h.get(y)
    if cur is None:
        if p:
            h[y] = {e + shift: c for e, c in p.items()}
        return
    for e, c in p.items():
        e += shift
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
    stack: List = []
    on_stack = set()
    out: List[FrozenSet] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(sorted(edges.get(root, ()))))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while node not in comp:
                        comp.add(stack.pop())
                    on_stack -= comp
                    out.append(frozenset(comp))
    return out


def kl_cells(
    n: int, weights: WeightFunction, side: str = "L", cache_dir: Optional[str] = None
) -> CellPartition:
    return KLTable(n, weights, cache_dir=cache_dir).cells(side)
