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

At the boundary a Laurent polynomial is a dict {exponent: integer
coefficient} with no zero values.  Inside a table it is one int, its code:
the polynomial's value at v^{-1} = 2^32, times 2^{32 top}, where top is the
table's largest weight.  Each coefficient is then one balanced base-2^32
digit (exponent e sits at digit top - e), so negative coefficients are
exact, multiplying by v^{-L} or v^{L} is a shift by 32 L bits, a product of
codes is one multiplication and a shift, and "has an exponent >= 0" is a
test of the low top + 1 digits.  Every product the pass forms has its
exponents at most top, since each c_w has them at most 0, so every digit
index is non-negative.  Codes are decoded to dicts only at the boundary;
the bar-symmetric part of a code is read off its digits directly.  Each
decode, encode and new code checks that every coefficient is far inside
the digit range.

Inside a table an element is its index 0..N-1 in (length, one-line form)
order.  The left action of each generator on indices is one table per n
shared by the tables of every weight function, so the pass never composes
permutations; since l(sw) = l(w) +- 1, s raises the length of w exactly
when it raises its index.  At n = 5 there are millions of coefficients but
only thousands of distinct ones, which the table keeps once each, in
increasing order, as its pool.  A finished c_w is two uint32 arrays: the
indices y of its terms in increasing order, and the pool position of each
c_w[y], 8 bytes a term.  The product being formed, c_s c_w, and the strip
that turns it into c_{sw} work on a dict from indices to codes.  Dicts
and signed permutations appear only there and at the boundary:
`kl_basis`, `c_expand`, the blocks of `cells` and the cache file.

With a cache directory a table is kept in one binary file: its pool,
each distinct coefficient once, then per element the two arrays of c_w
and the left edges of w as uint32s, under a SHA-256 trailer.  A warm
table reads the file and skips the pass; a file that fails any check or
cannot be opened is recomputed and rewritten.  A table that cannot be
written is kept, and one line on standard error names its file.
"""

from __future__ import annotations

import heapq
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import eq
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from .cells import CellPartition
from .wgroup import (
    SignedPerm, compose, group_elements, inverse, length, simple_generators,
)

__all__ = ["WeightFunction", "kl_cells", "KLTable"]


# -- Laurent polynomials: dicts at the boundary, codes inside a table -----

Poly = Dict[int, int]

_K = 32  # bits per digit of a code
# The largest |coefficient| at n = 5 is 35.  A coefficient of 2^31 or more
# would spill into the next digit and decode as another polynomial, so
# decoding and encoding refuse anything from 2^16 on, far below that.
_LIMIT = 1 << 16
_HALF = 1 << (_K - 1)


def _check_digit(k: int) -> None:
    if not -_LIMIT < k < _LIMIT:
        raise ValueError(f"coefficient {k} is outside the digit range of a code")


def _encode(p: Poly, top: int) -> int:
    """The code of p, whose exponents are at most `top`."""
    x = 0
    for e, k in p.items():
        _check_digit(k)
        x += k << _K * (top - e)
    return x


@lru_cache(maxsize=None)
def _per_digit(value: int, size: int) -> int:
    """The word `value` in each of `size` digits."""
    return int.from_bytes(value.to_bytes(4, "little") * size, "little")


def _size(x: int) -> int:
    return x.bit_length() // _K + 2  # digits enough for x and its sign


def _check_code(x: int) -> None:
    """Refuse x when a digit is outside the digit range.  Adding L - 1 to
    every digit of x leaves them all below 2L exactly when they are in
    -L + 1..L, and adding L when they are in -L..L - 1; 2L is 2^17, so
    "below 2L" is a mask test of each digit's top 15 bits."""
    size = _size(x)
    high = _per_digit((1 << _K) - 2 * _LIMIT, size)
    if (x + _per_digit(_LIMIT - 1, size)) & high or (x + _per_digit(_LIMIT, size)) & high:
        for u in _words(x, size):
            _check_digit(u - _HALF)


# A code plus 2^31 in every digit has each balanced digit k as the word
# k + 2^31, so its bytes are the digits.  Words are native uint32s, lowest
# digit first, in a memoryview cast over those bytes.

def _words(x: int, size: int) -> memoryview:
    """The digits of x plus 2^31 each, as `size` words; they must hold x
    and its sign."""
    words = memoryview((x + _per_digit(_HALF, size)).to_bytes(4 * size, sys.byteorder))
    words = words.cast("I")
    return words if sys.byteorder == "little" else words[::-1]


def _from_words(data: bytes) -> int:
    """The code whose digits plus 2^31 are the words of `data`."""
    if sys.byteorder == "big":
        data = bytes(memoryview(data).cast("I")[::-1])  # highest digit first
    return int.from_bytes(data, sys.byteorder) - _per_digit(_HALF, len(data) // 4)


def _decode(x: int, top: int) -> Poly:
    """The polynomial whose code at `top` is x."""
    _check_code(x)
    return {top - i: u - _HALF for i, u in enumerate(_words(x, _size(x))) if u != _HALF}


def _symmetric(x: int, top: int) -> int:
    """The code of the bar-symmetric part of the polynomial a coded x at
    `top`, the unique bar-invariant m with a - m supported in negative
    degrees: the digits of a's exponents top..0 (its first top + 1), then
    those of exponents 1..top mirrored to -1..-top."""
    _check_code(x)
    words = _words(x, max(_size(x), top + 1))
    return _from_words(bytes(words[:top + 1]) + bytes(words[top - 1::-1]))


def _low_digits(top: int) -> int:
    """The mask of the digits of exponents top..0: a code and'ed with it is
    nonzero exactly when the polynomial has an exponent >= 0."""
    return (1 << _K * (top + 1)) - 1


@dataclass(frozen=True)
class WeightFunction:
    """L(s_i) = a, L(t) = b, both positive; cells depend only on b/a."""
    a: int
    b: int

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise ValueError("weights must be positive integers")


# -- the group on indices -------------------------------------------------

class _IndexedGroup(NamedTuple):
    """W_n in (length, w) order, with the left action of each generator
    s = t, s_1, ..., s_{n-1}: lmul[k][i] is the index of s w_i, so s raises
    the length of w_i exactly when lmul[k][i] > i, as l(s w) = l(w) +- 1;
    inv[i] is the index of w_i^{-1}."""
    elements: Tuple[SignedPerm, ...]
    index: Dict[SignedPerm, int]
    lmul: Tuple[Tuple[int, ...], ...]
    inv: Tuple[int, ...]


@lru_cache(maxsize=None)
def _indexed_group(n: int) -> _IndexedGroup:
    # a stable sort of the increasing one-line order is (length, w) order
    elements = tuple(sorted(group_elements(n), key=length))
    index = {w: i for i, w in enumerate(elements)}
    lmul = tuple([
        tuple([index[compose(s, w)] for w in elements]) for s in simple_generators(n)
    ])
    inv = tuple([index[inverse(w)] for w in elements])
    return _IndexedGroup(elements, index, lmul, inv)


# -- the algebra ----------------------------------------------------------

HeckeDict = Dict[SignedPerm, Poly]
IndexedDict = Dict[int, int]  # index -> code
# c_w as array("I")s: the indices y in increasing order, and the pool
# position of each c_w[y]
Basis = Tuple["array", "array"]


class KLTable:
    """All Kazhdan-Lusztig data of one weighted group: basis elements and
    cell preorders.  The basis and the left-preorder edges come from one
    pass over the products c_s c_w; with a cache directory they are read
    from, or written once to, a checked binary file."""

    def __init__(self, n: int, weights: WeightFunction, cache_dir: Optional[str] = None):
        self.n = n
        self.weights = weights
        self._group = _indexed_group(n)
        self.elements: Tuple[SignedPerm, ...] = self._group.elements
        self.gens = [  # (s, L(s)) for each Coxeter generator s; t alone has a sign
            (s, weights.b if s[0] < 0 else weights.a) for s in simple_generators(n)
        ]
        self._top = max(weights.a, weights.b)  # the codes' offset: top - e is a digit
        self._c: List[Basis] = []
        self._edges: Optional[List[FrozenSet[int]]] = None
        self._pool: List[int] = []  # the distinct codes of `_c`, in increasing order
        self.cache_dir = cache_dir

    # ---- Kazhdan-Lusztig basis and left-preorder edges

    def kl_basis(self, w: SignedPerm) -> HeckeDict:
        """c_w on the T basis, its terms in (length, w) order.

        >>> KLTable(1, WeightFunction(1, 2)).kl_basis((-1,))
        {(1,): {-2: 1}, (-1,): {0: 1}}
        """
        ys, ps = self.all_kl_basis()[self._group.index[w]]
        pool, top = self._pool, self._top
        return {self.elements[y]: _decode(pool[p], top) for y, p in zip(ys, ps)}

    def all_kl_basis(self) -> List[Basis]:
        """c_w for the whole group, by index, as its indices and pool
        positions; read from the cache file when it passes its checks,
        otherwise computed by one pass and written once."""
        if self._edges is None and not self._load_cache():
            self._pass()
            if self.cache_dir:
                try:
                    self._save_cache()
                except OSError as exc:  # the table stands; only its file is missing
                    print(f"dominocells: {self._cache_path()} not written: "
                          f"{exc.strerror or exc}", file=sys.stderr)
        return self._c

    def _pass(self) -> None:
        """For w in length order and each s with sw > w, strip c_s c_w of
        the bar-symmetric part of every coefficient below sw.  The first
        product that reaches sw sets c_{sw}; every later one must agree.
        Codes get positions in `codes` in the order the pass meets them,
        and are renumbered once, at the end, to the sorted pool."""
        from array import array
        group, elements, top = self._group, self.elements, self._top
        one, low = _encode({0: 1}, top), _low_digits(top)
        symmetric = partial(_symmetric, top=top)
        codes = [one]  # each distinct code once, in the order met
        position = {one: 0}  # code -> its index in `codes`
        c: List[Optional[Basis]] = [None] * len(elements)
        c[0] = (array("I", [0]), array("I", [0]))  # the identity comes first
        edges: List[FrozenSet[int]] = []
        actions = [(lmul, ls) for lmul, (_, ls) in zip(group.lmul, self.gens)]

        def not_negative(sw: int, z: int, x: int) -> AssertionError:
            return AssertionError(f"c_{elements[sw]} coefficient at {elements[z]} "
                                  f"not negative: {_decode(x, top)}")

        for w, cw in enumerate(c):
            targets = set()
            for lmul, ls in actions:
                sw = lmul[w]
                if sw < w:
                    continue  # c_s c_w = (v_s + v_s^{-1}) c_w
                m = self._c_s_times(lmul, ls, cw, codes)
                # M^s_{z,w} is what is stripped at z; what is left is c_sw
                targets.update(self._strip(m, c, codes, symmetric, low, keep=sw))
                targets.add(sw)
                known = c[sw]
                if known is None:
                    ys = sorted(m)
                    xs = [m[y] for y in ys]
                    # every other term is shorter than sw, so it comes first
                    assert ys and ys[-1] == sw and xs[-1] == one, \
                        f"c_{elements[sw]} is not unitriangular"
                    ps = [position.get(x) for x in xs]
                    if None in ps:  # new codes, each one checked once
                        for i, x in enumerate(xs):
                            if ps[i] is None:
                                if x not in position:
                                    if x & low:
                                        raise not_negative(sw, ys[i], x)
                                    _check_code(x)
                                    position[x] = len(codes)
                                    codes.append(x)
                                ps[i] = position[x]
                    # every code met but `one`, at position 0, passed that test
                    if ps.count(0) > 1:
                        raise not_negative(sw, ys[ps.index(0)], one)
                    c[sw] = (array("I", ys), array("I", ps))
                elif len(m) != len(known[0]) or not all(
                        map(eq, map(m.get, known[0]), map(codes.__getitem__, known[1]))):
                    raise AssertionError(
                        f"c_s c_{elements[w]} gives another c_{elements[sw]}")
            targets.discard(w)
            edges.append(frozenset(targets))
        pool = sorted(codes)
        position.update(zip(pool, range(len(pool))))
        renumber = [position[x] for x in codes]
        for _, ps in c:
            ps[:] = array("I", [renumber[p] for p in ps])
        self._c, self._edges, self._pool = c, edges, pool

    def _c_s_times(self, lmul: Tuple[int, ...], ls: int, h: Basis,
                   pool: List[int]) -> IndexedDict:
        """c_s h where s acts by `lmul` and L(s) = ls, by c_s = T_s + v_s^{-1}:
        a term T_y goes to T_{sy} + v_s^{-1} T_y when sy > y, to
        T_{sy} + v_s T_y otherwise.  h holds positions in `pool`.  Every
        exponent of h is at most top - ls, so the shift for v_s drops only
        zero digits."""
        shift = _K * ls
        ys = h[0].tolist()
        xs = [pool[p] for p in h[1]]
        out: IndexedDict = {lmul[y]: x for y, x in zip(ys, xs)}
        get = out.get
        for y, x in zip(ys, xs):
            out[y] = get(y, 0) + (x << shift if lmul[y] > y else x >> shift)
        if not all(out.values()):
            out = {y: x for y, x in out.items() if x}
        return out

    def _strip(self, m: IndexedDict, c: List[Basis], pool: List[int], part, mask: int,
               keep: Optional[int] = None) -> IndexedDict:
        """For every z but `keep` whose code in m has a digit in `mask`,
        longest first, subtract part(m[z]) c_z from m in place, where `part`
        maps a code to a code that is nonzero exactly where `mask` is;
        return z -> part(m[z]) where it is nonzero.  Subtracting a multiple
        of c_z only reaches elements shorter than z, which come earlier in
        the index order, so one heap-ordered sweep visits each z once, and
        only the z whose code passes the mask are queued.  The c_z hold
        positions in `pool`, codes at the table's top, and are only read."""
        shift = _K * self._top
        # c_z[y] has only negative exponents for y != z, so subtracting an
        # integer multiple of it leaves the table's digits of exponents >= 0
        # as they were: when `mask` covers no others, nothing new is queued.
        fixed = not mask & ~_low_digits(self._top)
        heap = [-z for z, x in m.items() if x & mask and z != keep]
        heapq.heapify(heap)
        queued = {-z for z in heap}
        out: IndexedDict = {}
        get = m.get
        while heap:
            z = -heapq.heappop(heap)
            x = get(z, 0)
            if not x & mask:
                continue
            px = out[z] = part(x)
            ys, ps = c[z]
            k = px >> shift
            scalar = k << shift == px  # part(x) is the integer k
            if scalar and k == 1:
                coefs = [pool[p] for p in ps]  # c_z[y]
            elif scalar:
                coefs = [k * pool[p] for p in ps]
            else:
                coefs = [px * pool[p] >> shift for p in ps]
            scan = not (scalar and fixed)
            for y, pc in zip(ys, coefs):  # m[y] -= part(x) c_z[y]
                s = get(y, 0) - pc
                if not s:
                    del m[y]
                    continue
                m[y] = s
                if scan and s & mask and y not in queued:
                    queued.add(y)
                    heapq.heappush(heap, -y)
        return out

    def left_edges(self) -> List[FrozenSet[int]]:
        """By index: w -> those y != w with c_y appearing in some c_s c_w."""
        self.all_kl_basis()
        return self._edges

    # ---- cells

    def c_expand(self, h: HeckeDict) -> Dict[SignedPerm, Poly]:
        """Coefficients of h in the Kazhdan-Lusztig basis, stripped whole
        by the pass's own strip, with h coded at its own largest exponent."""
        index, elements = self._group.index, self.elements
        top = max((e for p in h.values() for e in p), default=0)
        m = {index[y]: _encode(p, top) for y, p in h.items()}
        out = self._strip(m, self.all_kl_basis(), self._pool, lambda x: x, -1)
        return {elements[z]: _decode(x, top) for z, x in out.items()}

    @cached_property
    def _left_cells(self) -> List[FrozenSet[int]]:
        """The strong components of the left edges; `cells` reads them
        after its own `left_edges()` call has filled the table."""
        return _strong_components(self._edges)

    def cells(self, side: str = "L") -> CellPartition:
        if side not in ("L", "R", "LR"):
            raise ValueError("side must be L, R or LR")
        left = self.left_edges()
        inv = self._group.inv
        if side == "LR":
            edges = [
                left_w | frozenset(inv[z] for z in left[inv[w]])
                for w, left_w in enumerate(left)
            ]
            comp = _strong_components(edges)
        else:
            comp = self._left_cells
            if side == "R":
                comp = [frozenset(inv[z] for z in block) for block in comp]
        elements = self.elements
        tag = f"kl a={self.weights.a} b={self.weights.b} {side}"
        return CellPartition(
            self.n, tag, tuple(frozenset(elements[z] for z in block) for block in comp)
        )

    # ---- persistence
    #
    # kl_v4_n{n}_a{a}_b{b}.bin holds a JSON header line {v, n, a, b,
    # records, pool}; a JSON line with the pool, each distinct coefficient
    # once as sorted [[e, k], ...], in increasing order of its code; then
    # one record per index of little-endian uint32s: the number of terms
    # of c_w, the number of left edges of w, the indices y in increasing
    # order, the pool position of each c_w[y], and the edges in increasing
    # order; last, the raw SHA-256 of every byte before it.  A file that
    # fails any check is recomputed and rewritten.

    def _cache_path(self) -> str:
        name = f"kl_v4_n{self.n}_a{self.weights.a}_b{self.weights.b}.bin"
        return os.path.join(self.cache_dir, name)

    def _header(self, pool: int) -> Dict:
        return {"v": 4, "n": self.n, "a": self.weights.a, "b": self.weights.b,
                "records": len(self.elements), "pool": pool}

    def _save_cache(self) -> None:
        from array import array
        pool = self._pool
        os.makedirs(self.cache_dir, exist_ok=True)
        # Written beside the target and renamed over it, so a reader sees
        # the old file or the new one; a file cut short has no trailer.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                digest = _sha256()

                def write(data: bytes) -> None:
                    digest.update(data)
                    fh.write(data)

                write(json.dumps(self._header(len(pool))).encode() + b"\n")
                # the pool line, each entry's sorted (exponent, coefficient) pairs
                # dumped alone: a list of them all raised a cold n = 4 peak 0.7 MB
                entries = (json.dumps(sorted(_decode(x, self._top).items())) for x in pool)
                write(f"[{', '.join(entries)}]\n".encode())
                for (ys, ps), edges in zip(self._c, self._edges):
                    record = array("I", (len(ys), len(edges)))  # 4 bytes each
                    record += ys
                    record += ps
                    record.extend(sorted(edges))
                    if sys.byteorder == "big":
                        record.byteswap()
                    write(record.tobytes())
                fh.write(digest.digest())
            os.replace(tmp, self._cache_path())
        except BaseException:
            os.unlink(tmp)
            raise

    def _load_cache(self) -> bool:
        """Fill the table from the cache file, one record at a time; False
        when the file cannot be opened or fails a check: a header for another
        table, a pool of another size, a short file, an index or pool
        position out of range, a missing or wrong trailer, or anything
        after the trailer."""
        if not self.cache_dir:
            return False
        try:
            fh = open(self._cache_path(), "rb")
        except OSError:  # missing, a directory or unreadable
            return False
        from array import array
        with fh:
            digest, size = _sha256(), len(self.elements)

            def read(count: int) -> array:
                words = array("I")
                words.fromfile(fh, count)  # EOFError when the file is short
                digest.update(words)
                if sys.byteorder == "big":
                    words.byteswap()
                return words

            c: List[Basis] = []
            edges: List[FrozenSet[int]] = []
            try:
                line = fh.readline()
                digest.update(line)
                header = json.loads(line)
                if header != self._header(header["pool"]):
                    return False
                line = fh.readline()
                digest.update(line)
                # each coefficient is encoded once, and so digit-checked once
                pool = [_encode(dict(pairs), self._top) for pairs in json.loads(line)]
                if len(pool) != header["pool"]:
                    return False
                for _ in range(size):
                    terms, count = read(2)
                    if terms > size or count > size:
                        return False  # no record is that long: read no further
                    words = read(2 * terms + count)
                    ys, ps, ends = words[:terms], words[terms:2 * terms], words[2 * terms:]
                    # indices and edges name elements, positions name pool entries
                    if (max(ys, default=-1) >= size or max(ends, default=-1) >= size
                            or max(ps, default=-1) >= len(pool)):
                        return False
                    c.append((ys, ps))
                    edges.append(frozenset(ends))
            except (ValueError, TypeError, KeyError, EOFError):
                return False  # a short file, or bytes that are not a record
            # a trailer cut short, or followed by anything, is not the digest
            if fh.read(len(digest.digest()) + 1) != digest.digest():
                return False
        self._c, self._edges, self._pool = c, edges, pool
        return True


def _sha256():
    # The interpreter's own SHA-256, as `random` takes its SHA-512: hashlib
    # loads OpenSSL, about 3.5 MB of peak RSS.  Imported on first use, so a
    # run without a cache imports neither.
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return sha256()


def _strong_components(edges: List[FrozenSet[int]]) -> List[FrozenSet[int]]:
    """Iterative Tarjan on the nodes 0..len(edges)-1."""
    index = [-1] * len(edges)
    low = [0] * len(edges)
    counter = 0
    stack: List[int] = []
    on_stack = [False] * len(edges)
    out: List[FrozenSet[int]] = []
    for root in range(len(edges)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(edges[root]))]
        while work:
            node, it = work[-1]
            for nxt in it:
                if index[nxt] < 0:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(edges[nxt])))
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while node not in comp:
                        top = stack.pop()
                        on_stack[top] = False
                        comp.add(top)
                    out.append(frozenset(comp))
    return out


def kl_cells(
    n: int, weights: WeightFunction, side: str = "L", cache_dir: Optional[str] = None
) -> CellPartition:
    return KLTable(n, weights, cache_dir=cache_dir).cells(side)
