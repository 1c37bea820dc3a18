import pytest
from hypothesis import given, strategies as st

from dominocells.wgroup import (
    DescentSet, compose, enhanced_tau_invariant,
    format_perm, group_elements, identity, inverse,
    length, parse_perm, simple_generators, tau_invariant, validate_signed_perm,
)
from wgroup_oracles import is_nonsplit, reflection_t, right_descends


def signed_perms(n):
    return st.permutations(range(1, n + 1)).flatmap(
        lambda base: st.tuples(*[st.sampled_from((1, -1)) for _ in range(n)]).map(
            lambda signs: tuple(s * x for s, x in zip(signs, base))
        )
    )


def test_compose_identity():
    assert compose((1, 2), (2, 1)) == (2, 1)
    assert compose((2, 1), (2, 1)) == (1, 2)


def test_t_conjugates_to_position_flips():
    # s_{k-1} ... s_1 t s_1 ... s_{k-1} negates exactly position k
    n = 3
    t, s1, _ = simple_generators(n)
    assert compose(compose(s1, t), s1) == (1, -2, 3)
    assert (1, -2, 3) == reflection_t(2, n)


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(signed_perms(n), signed_perms(n))))
def test_compose_with_inverse_is_identity(pair):
    u, w = pair
    assert compose(u, inverse(u)) == identity(len(u))
    assert compose(inverse(u), u) == identity(len(u))
    assert inverse(compose(u, w)) == compose(inverse(w), inverse(u))


def _bfs_lengths(n):
    gens = simple_generators(n)
    dist = {identity(n): 0}
    frontier = [identity(n)]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = compose(w, g)
                if wg not in dist:
                    dist[wg] = dist[w] + 1
                    nxt.append(wg)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_length_formula_matches_cayley_distance(n):
    dist = _bfs_lengths(n)
    assert len(dist) == (2 ** n) * _fact(n)
    for w, d in dist.items():
        assert length(w) == d


def test_length_fixtures():
    assert length((4, 1, -3, -2)) == 10
    assert length(identity(5)) == 0
    for n in range(6):
        gens = simple_generators(n)
        assert len(gens) == n
        for g in gens:
            assert length(g) == 1 and inverse(g) == g
        # on the right, t negates position 1 and s_i swaps positions i and i + 1
        w = tuple((-1) ** k * (n - k) for k in range(n))
        if n:
            assert compose(w, gens[0]) == (-w[0],) + w[1:]
        for i, g in enumerate(gens[1:], start=1):
            assert compose(w, g) == w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_descent_criterion_agrees_with_length(n):
    t, *s = simple_generators(n)  # t first, then s_1, ..., s_{n-1}
    gens = [("t", 1, t)] + [("s", i, g) for i, g in enumerate(s, start=1)]
    gens += [("t", j, reflection_t(j, n)) for j in range(2, n + 1)]
    for w in group_elements(n):
        for kind, index, g in gens:
            expected = length(compose(w, g)) < length(w)
            assert right_descends(w, kind, index) == expected


def test_tau_fixtures():
    assert sorted(tau_invariant((4, 1, -3, -2)).simple) == ["s1", "s2"]
    assert tau_invariant(identity(4)) == DescentSet(frozenset())
    longest = tuple(-k for k in range(1, 5))
    assert tau_invariant(longest).simple == frozenset({"t", "s1", "s2", "s3"})


def test_the_trivial_group_has_no_generators():
    assert simple_generators(0) == []
    assert tau_invariant(()) == DescentSet(frozenset())
    with pytest.raises(ValueError):
        reflection_t(1, 0)


def test_xi_fixtures():
    w = (4, 1, -3, -2)
    xi3 = enhanced_tau_invariant(w, 3)
    assert sorted(xi3.simple) == ["s1", "s2"] and sorted(xi3.extended) == ["t3"]
    assert enhanced_tau_invariant(w, 1) == tau_invariant(w)
    assert "t" in enhanced_tau_invariant((-1, 2, 3), 2).simple


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_xi_at_ratio_one_is_tau(n):
    for w in group_elements(n):
        assert enhanced_tau_invariant(w, 1) == tau_invariant(w)


def test_nonsplit_fixtures():
    assert is_nonsplit((4, 1, -3, -2))
    assert not is_nonsplit((1, 2, 3))
    assert not is_nonsplit((-1, -2))


@pytest.mark.parametrize("n,count", [(0, 1), (1, 2), (2, 8), (4, 384), (5, 3840)])
def test_enumeration_count(n, count):
    # 2^n n! valid elements in strictly increasing one-line order, built once
    elems = group_elements(n)
    assert len(elems) == count
    assert all(a < b for a, b in zip(elems, elems[1:]))
    for w in elems:
        validate_signed_perm(w)
    assert group_elements(n) is elems


def test_parse_and_format():
    assert parse_perm("4 1 -3 -2") == (4, 1, -3, -2)
    assert parse_perm("[4,1,-3,-2]") == (4, 1, -3, -2)
    assert format_perm((4, 1, -3, -2)) == "4 1 -3 -2"
    with pytest.raises(ValueError):
        parse_perm("1 1")


def _fact(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out
