"""
The Weyl group $W_n$ of type $B_n$, realized as signed permutations.

An element is a tuple $w = (w_1, \\ldots, w_n)$ of nonzero integers whose
absolute values are a permutation of $\\{1, \\ldots, n\\}$ (one-line
notation), and so is each Coxeter generator:

    t   = (-1, 2, ..., n)
    s_i = (1, ..., i+1, i, ..., n)      for 1 <= i <= n-1

The reflections t_k = s_{k-1} ... s_1 t s_1 ... s_{k-1} negate the single
position k.

>>> compose((2, 1), (2, 1))
(1, 2)
>>> length((4, 1, -3, -2))
10
>>> sorted(tau_invariant((4, 1, -3, -2)).simple)
['s1', 's2']
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "SignedPerm", "DescentSet",
    "validate_signed_perm", "identity", "compose", "inverse",
    "simple_generators", "length",
    "tau_invariant", "enhanced_tau_invariant",
    "group_elements", "parse_perm", "format_perm",
]

# One-line notation; index i (0-based) holds w(i+1).
SignedPerm = tuple  # tuple[int, ...]


@dataclass(frozen=True)
class DescentSet:
    """Right descents: simple part in {t, s_1..s_{n-1}}, extended part in {t_2..t_n}."""
    simple: frozenset
    extended: frozenset = frozenset()

    def __str__(self) -> str:
        names = sorted(self.simple) + sorted(self.extended)
        return "{" + ", ".join(names) + "}"


def validate_signed_perm(w: SignedPerm) -> None:
    n = len(w)
    if sorted(abs(x) for x in w) != list(range(1, n + 1)) or 0 in w:
        raise ValueError(f"not a signed permutation of 1..{n}: {w}")


def identity(n: int) -> SignedPerm:
    return tuple(range(1, n + 1))


def compose(u: SignedPerm, w: SignedPerm) -> SignedPerm:
    """(u o w)(i) = sign(w(i)) * u(|w(i)|).

    >>> compose((1, -2, 3), (3, 2, 1))
    (3, -2, 1)
    """
    if len(u) != len(w):
        raise ValueError("rank mismatch")
    return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in w])


def inverse(w: SignedPerm) -> SignedPerm:
    inv = [0] * len(w)
    for i, x in enumerate(w, start=1):
        if x > 0:
            inv[x - 1] = i
        else:
            inv[-x - 1] = -i
    return tuple(inv)


def simple_generators(n: int) -> list:
    """The Coxeter generators t, s_1, ..., s_{n-1} in one-line form; W_0 has none.

    >>> simple_generators(3)
    [(-1, 2, 3), (2, 1, 3), (1, 3, 2)]
    """
    if n < 1:
        return []
    e = identity(n)
    return [(-1,) + e[1:]] + [e[:i - 1] + (i + 1, i) + e[i + 1:] for i in range(1, n)]


def length(w: SignedPerm) -> int:
    """Coxeter length: inversions plus the sum of |w(i)| over negative entries.

    Validated against breadth-first search over the Cayley graph in the tests.

    >>> length((4, 1, -3, -2))
    10
    """
    n = len(w)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    return inv + sum(-x for x in w if x < 0)


def tau_invariant(w: SignedPerm) -> DescentSet:
    """The right descent set within the Coxeter generators {t, s_i}."""
    names = set()
    if w and w[0] < 0:
        names.add("t")
    for i in range(1, len(w)):
        if w[i] < w[i - 1]:
            names.add(f"s{i}")
    return DescentSet(frozenset(names))


def enhanced_tau_invariant(w: SignedPerm, ratio: int) -> DescentSet:
    """tau(w) together with those t_j, j >= 2, having j - 1 < ratio and w(j) < 0.

    `ratio` is the integer parameter b/a of the weight function; at ratio 1
    this reduces to the plain tau invariant.
    """
    if ratio < 1:
        raise ValueError("ratio must be a positive integer")
    base = tau_invariant(w)
    ext = frozenset(
        f"t{j}" for j in range(2, len(w) + 1) if j - 1 < ratio and w[j - 1] < 0
    )
    return DescentSet(base.simple, ext)


@lru_cache(maxsize=None)
def group_elements(n: int) -> tuple:
    """All 2^n n! elements of W_n, cached, in increasing one-line order: the
    insertion walk's order, in which neighbours share their longest prefix."""
    return tuple(sorted(
        tuple(s * x for s, x in zip(signs, base))
        for base in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ))


def parse_perm(text: str) -> SignedPerm:
    """Parse "4 1 -3 -2" or the JSON array form "[4,1,-3,-2]"."""
    cleaned = text.strip()
    if cleaned.startswith("["):
        cleaned = cleaned.strip("[]")
        parts = [p for p in cleaned.replace(",", " ").split() if p]
    else:
        parts = cleaned.replace(",", " ").split()
    w = tuple(int(p) for p in parts)
    validate_signed_perm(w)
    return w


def format_perm(w: SignedPerm) -> str:
    return " ".join(str(x) for x in w)
