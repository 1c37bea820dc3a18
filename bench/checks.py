"""
Expected `dominocells verify` reports, computed without importing
`dominocells`.

Every number a checker compares against comes from a closed formula:

    |W_n|                 = 2^n n!
    rank-r domino tableaux with n dominos
                          = sum_k C(n,k) I(k) I(n-k)   (the same for every r)
    two-sided cells in the asymptotic range
                          = sum_k p(k) p(n-k)          (bipartitions of n)

where I(k) counts involutions of k letters (standard Young tableaux of
size k) and p(k) counts partitions of k.  A checker returns the list of
problems it found in one report; an empty list accepts the report.
"""

from __future__ import annotations

from math import comb, factorial
from typing import List


def group_order(n: int) -> int:
    return 2 ** n * factorial(n)


def involutions(k: int) -> int:
    """I(k) = I(k-1) + (k-1) I(k-2): k is fixed, or swapped with one of k-1."""
    prev, cur = 1, 1
    for m in range(2, k + 1):
        prev, cur = cur, cur + (m - 1) * prev
    return cur


def partitions(k: int) -> int:
    ways = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            ways[total] += ways[total - part]
    return ways[k]


def domino_tableaux(n: int) -> int:
    return sum(comb(n, k) * involutions(k) * involutions(n - k) for k in range(n + 1))


def bipartitions(n: int) -> int:
    return sum(partitions(k) * partitions(n - k) for k in range(n + 1))


def _status(report: dict) -> List[str]:
    if report.get("status") != "pass":
        return [f"status is {report.get('status')!r}, not 'pass'"]
    return []


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} = {got!r}, expected {want!r}")


def check_insertion(report: dict, n: int, rank: int) -> List[str]:
    """`verify insertion --n n --rank rank`: every element at every rank."""
    problems = _status(report)
    counts = report.get("counts", {})
    _expect(problems, "check", report.get("check"), "insertion")
    _expect(problems, "params", report.get("params"), {"n": n, "rmax": rank})
    _expect(problems, "elements", counts.get("elements"), group_order(n))
    _expect(problems, "pairs_checked", counts.get("pairs_checked"),
            (rank + 1) * group_order(n))
    _expect(problems, "ranks", counts.get("ranks"), rank + 1)
    return problems


def check_classes(report: dict, n: int, rank: int) -> List[str]:
    """One report of `verify classes --n n`: every tableau of one rank."""
    problems = _status(report)
    _expect(problems, "check", report.get("check"), "classes")
    _expect(problems, "params", report.get("params"), {"n": n, "rank": rank})
    _expect(problems, "tableaux", report.get("counts", {}).get("tableaux"),
            domino_tableaux(n))
    return problems


def check_conjecture(report: dict, n: int) -> List[str]:
    """`verify conjecture --n n --ratio all`.  At every ratio the left and
    right cells are equinumerous (w -> w^-1 swaps them) and the two-sided
    cells are unions of left cells.  At ratio n > n - 1 the cells are
    asymptotic: left cells are the rank-(n-1) tableaux, two-sided cells the
    bipartitions of n."""
    problems = _status(report)
    counts = report.get("counts", {})
    _expect(problems, "check", report.get("check"), "conjecture")
    _expect(problems, "params", report.get("params"),
            {"n": n, "ratios": list(range(1, n + 1))})
    for rt in range(1, n + 1):
        left, right, both = (counts.get(f"blocks_r{rt}_{side}") for side in ("L", "R", "LR"))
        if not all(isinstance(x, int) for x in (left, right, both)):
            problems.append(f"ratio {rt}: block counts missing")
            continue
        _expect(problems, f"blocks_r{rt}_R", right, left)
        if not 1 <= both <= left:
            problems.append(f"ratio {rt}: {both} two-sided cells against {left} left cells")
    _expect(problems, f"blocks_r{n}_L", counts.get(f"blocks_r{n}_L"), domino_tableaux(n))
    _expect(problems, f"blocks_r{n}_LR", counts.get(f"blocks_r{n}_LR"), bipartitions(n))
    return problems
