import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, strategies as st

import dominocells
from dominocells.cells import combinatorial_cells
from dominocells.hecke import (
    _K, _LIMIT, KLTable, WeightFunction, _decode, _encode, _indexed_group,
    _low_digits, _sha256, _symmetric, kl_cells,
)
from dominocells.wgroup import (
    compose, group_elements, identity, inverse, length, simple_generators,
)
from hecke_oracles import (
    add_term, bar, bruhat_leq, bruhat_leq_bfs, kl_v3_bytes, poly_add, poly_bar,
    poly_is_strictly_negative, poly_mul, poly_symmetric_part, t_multiply_left,
    t_multiply_left_word,
)


def test_laurent_ring_basics():
    a = {1: 2, -1: 1}
    b = {0: 1, 1: -2}
    assert poly_add(a, b) == {-1: 1, 0: 1}
    assert poly_mul(a, b) == {1: 2, 2: -4, -1: 1, 0: -2}
    assert poly_add(a, {e: -c for e, c in a.items()}) == {}
    assert poly_bar(a) == {-1: 2, 1: 1}
    assert poly_bar(poly_bar(a)) == a


@given(st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=5))
def test_symmetric_part_properties(d):
    d = {e: c for e, c in d.items() if c}
    sym = poly_symmetric_part(d)
    assert sym == poly_bar(sym)
    rest = poly_add(d, {e: -c for e, c in sym.items()})
    assert poly_is_strictly_negative(rest)


def _polys(low, high):
    return st.dictionaries(st.integers(low, high), st.integers(-60, 60).filter(bool),
                           max_size=6)


@given(st.integers(1, 6), st.integers(-5, 8), st.data())
def test_codes_follow_the_dict_oracles(top, offset, data):
    # `top` is a table's largest weight and `offset` the top of a strip's
    # codes, which c_expand sets from its input
    a, b = data.draw(_polys(-40, top)), data.draw(_polys(-40, top))
    ls = data.draw(st.integers(1, top))
    low = data.draw(_polys(-40, top - ls))  # a coefficient that v_s may raise
    cz = data.draw(_polys(-40, 0))  # a coefficient of some c_z
    p = data.draw(_polys(-40, offset))
    assert _decode(_encode(a, top), top) == a
    assert _decode(_encode(a, top) + _encode(b, top), top) == poly_add(a, b)
    assert _decode(_encode(low, top) << _K * ls, top) == poly_mul(low, {-ls: 1})
    assert _decode(_encode(low, top) >> _K * ls, top) == poly_mul(low, {ls: 1})
    sym = poly_symmetric_part(a)
    assert _symmetric(_encode(a, top), top) == _encode(sym, top)
    product = _encode(sym, top) * _encode(cz, top) >> _K * top
    assert _decode(product, top) == poly_mul(sym, cz)
    product = _encode(p, offset) * _encode(cz, top) >> _K * top
    assert _decode(product, offset) == poly_mul(p, cz)
    assert bool(_encode(a, top) & _low_digits(top)) == (not poly_is_strictly_negative(a))


def test_a_coefficient_outside_the_digit_range_is_refused():
    for k in (_LIMIT - 1, 1 - _LIMIT):
        assert _decode(_encode({-3: k}, 2), 2) == {-3: k}
    for k in (_LIMIT, -_LIMIT):
        with pytest.raises(ValueError, match="digit range"):
            _decode(k << _K * 5, 2)
        with pytest.raises(ValueError, match="digit range"):
            _symmetric(k << _K * 5, 2)
        with pytest.raises(ValueError, match="digit range"):
            _encode({-3: k}, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_bruhat_criterion_matches_reachability(n):
    for u in group_elements(n):
        for w in group_elements(n):
            assert bruhat_leq(u, w) == bruhat_leq_bfs(u, w)


def _random_element(table, rng, size=3):
    out = {}
    for w in rng.sample(table.elements, size):
        out[w] = {rng.randint(-2, 2): rng.randint(1, 3)}
    return out


def test_t_multiplication_fixtures():
    L = WeightFunction(1, 2)
    table = KLTable(2, L)
    e = identity(2)
    t = (-1, 2)
    s = (2, 1)
    ts = compose(t, s)
    # T_s T_e = T_s
    assert t_multiply_left(table, s, 1, {e: {0: 1}}) == {s: {0: 1}}
    # T_s T_s = T_e + (v^a - v^-a) T_s
    assert t_multiply_left(table, s, 1, {s: {0: 1}}) == {
        e: {0: 1}, s: {1: 1, -1: -1}
    }
    # T_t T_ts = T_s + (v^b - v^-b) T_ts
    assert t_multiply_left(table, t, 2, {ts: {0: 1}}) == {
        s: {0: 1}, ts: {2: 1, -2: -1}
    }


def test_associativity_spot_checks():
    rng = random.Random(7)
    for n in (2, 3):
        table = KLTable(n, WeightFunction(1, 2))
        for _ in range(8):
            u, v, w = (rng.choice(table.elements) for _ in range(3))
            tv = t_multiply_left_word(table, v, {w: {0: 1}})
            left = t_multiply_left_word(table, u, tv)
            tu_tv = t_multiply_left_word(table, u, t_multiply_left_word(table, v, {identity(n): {0: 1}}))
            right = _elem_mul_right_tw(table, tu_tv, w)
            assert left == right


def _elem_mul_right_tw(table, elem, w):
    # (sum a_y T_y) T_w computed one generator of w at a time, on the right
    word = []
    cur = w
    n = table.n
    while cur != identity(n):
        for gp, ls in table.gens:
            if length(compose(cur, gp)) < length(cur):
                word.append((gp, ls))
                cur = compose(cur, gp)
                break
    out = elem
    for gp, ls in reversed(word):
        nxt = {}
        for y, coef in out.items():
            yg = compose(y, gp)
            if length(yg) > length(y):
                add_term(nxt, yg, coef)
            else:
                add_term(nxt, yg, coef)
                add_term(nxt, y, poly_mul(coef, {ls: 1, -ls: -1}))
        out = nxt
    return out


def test_bar_is_an_involution():
    rng = random.Random(11)
    for n in (2, 3):
        table = KLTable(n, WeightFunction(1, 2))
        for _ in range(6):
            h = _random_element(table, rng)
            assert bar(table, bar(table, h)) == h


def test_bar_fixture_for_a_generator():
    table = KLTable(2, WeightFunction(1, 2))
    e = identity(2)
    s = (2, 1)
    # bar(T_s) = T_s^{-1} = T_s - (v^a - v^-a) T_e
    assert bar(table, {s: {0: 1}}) == {s: {0: 1}, e: {-1: 1, 1: -1}}


def test_kl_basis_fixtures():
    L = WeightFunction(1, 2)
    e = identity(2)
    t = (-1, 2)
    table = KLTable(2, L)
    assert table.kl_basis(t) == {t: {0: 1}, e: {-2: 1}}
    assert table.kl_basis(e) == {e: {0: 1}}


@pytest.mark.parametrize("n,a,b", [(2, 1, 1), (2, 1, 2), (3, 1, 1), (3, 1, 2), (3, 1, 3)])
def test_kl_basis_is_bar_invariant_and_unitriangular(n, a, b):
    table = KLTable(n, WeightFunction(a, b))
    table.all_kl_basis()
    for w in table.elements:
        cw = table.kl_basis(w)
        assert cw[w] == {0: 1}
        for y, coef in cw.items():
            if y != w:
                assert bruhat_leq(y, w)
                assert poly_is_strictly_negative(coef)
        assert bar(table, cw) == cw


def _c_s_times(table, gp, ls, h):
    # c_s = T_s + v_s^{-1}, on the T basis
    prod = t_multiply_left(table, gp, ls, h)
    for y, coef in h.items():
        add_term(prod, y, poly_mul(coef, {-ls: 1}))
    return prod


def test_descent_scalar_action():
    # left multiplication by c_s fixes the line of c_w when s descends w
    for n in (2, 3):
        L = WeightFunction(1, 2)
        table = KLTable(n, L)
        table.all_kl_basis()
        for w in table.elements:
            for gp, ls in table.gens:
                if length(compose(gp, w)) < length(w):
                    cw = table.kl_basis(w)
                    prod = _c_s_times(table, gp, ls, cw)
                    scalar = {ls: 1, -ls: 1}
                    expected = {}
                    for y, coef in cw.items():
                        expected[y] = poly_mul(scalar, coef)
                    assert prod == expected


def test_kl_cells_for_n1():
    part = kl_cells(1, WeightFunction(1, 1), "L")
    assert {tuple(sorted(b)) for b in part.blocks} == {((1,),), ((-1,),)}


def test_kl_cells_block_counts_n2():
    assert len(kl_cells(2, WeightFunction(1, 1), "L").blocks) == 4
    part = kl_cells(2, WeightFunction(1, 2), "L")
    assert part.same_partition(combinatorial_cells(2, 1, "L"))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_cells_depend_only_on_the_ratio(n, k):
    one = kl_cells(n, WeightFunction(1, k), "L")
    two = kl_cells(n, WeightFunction(2, 2 * k), "L")
    assert one.same_partition(two)


@pytest.mark.parametrize("n,ratio", [(n, r) for n in (1, 2, 3) for r in range(1, n + 1)])
def test_left_edges_match_c_expand_of_every_product(n, ratio):
    # reference: expand each c_s c_w, descents included, in the c basis
    table = KLTable(n, WeightFunction(1, ratio))
    expected = {}
    for w in table.elements:
        targets = set()
        for gp, ls in table.gens:
            prod = _c_s_times(table, gp, ls, table.kl_basis(w))
            targets |= {z for z, coef in table.c_expand(prod).items() if coef}
        targets.discard(w)
        expected[w] = frozenset(targets)
    els = table.elements
    assert {els[w]: frozenset(els[z] for z in edges)
            for w, edges in enumerate(table.left_edges())} == expected


@pytest.mark.parametrize("n,ratio", [(n, r) for n in (1, 2, 3) for r in range(1, n + 1)])
def test_c_expand_inverts_the_kl_basis(n, ratio):
    # sum over z of c_expand(h)[z] c_z gives back h, on arbitrary elements
    table = KLTable(n, WeightFunction(1, ratio))
    rng = random.Random(100 * n + ratio)
    for _ in range(10):
        h = _random_element(table, rng, size=min(4, len(table.elements)))
        before = {y: dict(p) for y, p in h.items()}
        total = {}
        for z, coef in table.c_expand(h).items():
            for y, c2 in table.kl_basis(z).items():
                add_term(total, y, poly_mul(coef, c2))
        assert total == h == before


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(KLTable, name)

    def counted(self, *args):
        calls.append(name)
        return original(self, *args)

    monkeypatch.setattr(KLTable, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
def test_c_expand_takes_exponents_above_the_table_weights(n):
    # the input's codes sit at its own largest exponent, here above every
    # weight of the table, and go down to -40
    table = KLTable(n, WeightFunction(1, 2))
    rng = random.Random(n)
    for _ in range(5):
        h = {w: {rng.randint(3, 12): rng.choice((-3, -1, 2)), rng.randint(-40, -20): 5}
             for w in rng.sample(table.elements, min(3, len(table.elements)))}
        total = {}
        for z, coef in table.c_expand(h).items():
            for y, c2 in table.kl_basis(z).items():
                add_term(total, y, poly_mul(coef, c2))
        assert total == h


def _corrupt(monkeypatch, name, edit):
    """Wrap KLTable.<name> so that edit(table, m, calls) may change the
    product m it returns or strips, where calls counts the calls so far."""
    original = getattr(KLTable, name)
    calls = []

    def corrupted(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        m = out if name == "_c_s_times" else args[0]
        calls.append(max(m))  # the top term of c_s c_w is sw
        edit(self, m, calls)
        return out

    monkeypatch.setattr(KLTable, name, corrupted)


def test_a_product_whose_top_coefficient_is_not_1_is_refused(monkeypatch):
    def double_the_first_top(table, m, tops):
        if len(tops) == 1:
            m[tops[0]] *= 2

    _corrupt(monkeypatch, "_c_s_times", double_the_first_top)
    with pytest.raises(AssertionError, match="is not unitriangular"):
        KLTable(2, WeightFunction(1, 2)).all_kl_basis()


@pytest.mark.parametrize("old", [0, 1])
def test_a_coefficient_with_an_exponent_0_is_refused(monkeypatch, old):
    # every coefficient below sw that the strip leaves has only negative
    # exponents, whatever the product, so the strip's output is corrupted:
    # the identity's coefficient becomes 1 (a code the table has met) or
    # gets 1 added (a new one)
    def add_1_at_the_identity(table, m, calls):
        if len(calls) == 1:
            m[0] = old * m.get(0, 0) + _encode({0: 1}, table._top)

    _corrupt(monkeypatch, "_strip", add_1_at_the_identity)
    with pytest.raises(AssertionError, match="not negative"):
        KLTable(2, WeightFunction(1, 2)).all_kl_basis()


@pytest.mark.parametrize("n", [2, 3])
def test_a_second_product_that_disagrees_is_refused(monkeypatch, n):
    # the first product that reaches sw sets c_sw; the next one gets an
    # extra v^-1 T_e, which no strip removes
    def add_to_a_repeated_top(table, m, tops):
        if tops[-1] in tops[:-1]:
            m[0] = m.get(0, 0) + _encode({-1: 1}, table._top)

    _corrupt(monkeypatch, "_c_s_times", add_to_a_repeated_top)
    with pytest.raises(AssertionError, match="gives another c_"):
        KLTable(n, WeightFunction(1, 2)).all_kl_basis()


def test_cache_roundtrip(tmp_path, monkeypatch):
    L = WeightFunction(1, 2)
    products = _count_calls(monkeypatch, "_c_s_times")
    saves = _count_calls(monkeypatch, "_save_cache")
    t1 = KLTable(3, L, cache_dir=str(tmp_path))
    cells = [t1.cells(side) for side in ("L", "R", "LR")]
    ascents = sum(
        1 for w in t1.elements for gp, ls in t1.gens
        if length(compose(gp, w)) > length(w)
    )
    assert (len(products), len(saves)) == (ascents, 1)
    assert [p.name for p in tmp_path.iterdir()] == ["kl_v4_n3_a1_b2.bin"]
    t2 = KLTable(3, L, cache_dir=str(tmp_path))
    assert [t2.cells(side) for side in ("L", "R", "LR")] == cells
    assert (len(products), len(saves)) == (ascents, 1)  # the warm table skips the pass
    assert t2.all_kl_basis() == t1.all_kl_basis()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_warm_table_equals_the_cold_one(tmp_path, n):
    for ratio in range(1, n + 2):
        L = WeightFunction(1, ratio)
        cold = KLTable(n, L, cache_dir=str(tmp_path))
        cold.all_kl_basis()
        warm = KLTable(n, L, cache_dir=str(tmp_path))
        assert warm._load_cache()
        # kl_basis decodes these codes, and the cells come from these edges
        assert warm.all_kl_basis() == cold.all_kl_basis()
        assert warm.left_edges() == cold.left_edges()
        assert all(warm.cells(side) == cold.cells(side) for side in ("L", "R", "LR"))
        # the pool read from the file is the one the pass built
        assert warm._pool == cold._pool


# -- the kl_v4 file: a header line, a pool line, uint32 records, a digest

def _split(data):
    """The header and pool lines, each record as a list of ints, and the
    trailer of a kl_v4 file."""
    head, pool, body = data.split(b"\n", 2)
    words = array("I", body[:-32])
    if sys.byteorder == "big":
        words.byteswap()
    records, i = [], 0
    while i < len(words):
        terms, count = words[i], words[i + 1]
        records.append(list(words[i:i + 2 + 2 * terms + count]))
        i += len(records[-1])
    return head, pool, records, body[-32:]


def _join(head, pool, records, trailer=None):
    """A kl_v4 file from its parts; by default with a trailer that matches."""
    words = array("I", [word for record in records for word in record])
    if sys.byteorder == "big":
        words.byteswap()
    body = head + b"\n" + pool + b"\n" + words.tobytes()
    return body + (hashlib.sha256(body).digest() if trailer is None else trailer)


def _truncated(data):
    return data[: len(data) // 2]


def _header_for_another_n(data):
    head, pool, records, _ = _split(data)
    header = json.loads(head)
    header["n"] += 1
    return _join(json.dumps(header).encode(), pool, records)


def _pool_count_wrong(data):
    head, pool, records, _ = _split(data)
    header = json.loads(head)
    header["pool"] += 1
    return _join(json.dumps(header).encode(), pool, records)


def _one_coefficient_edited(data):
    head, pool, records, trailer = _split(data)
    coefficients = json.loads(pool)
    coefficients[-1][0][1] += 1
    return _join(head, json.dumps(coefficients).encode(), records, trailer)


def _trailer_missing(data):
    return data[:-32]


def _line_after_the_trailer(data):
    return data + b"\n"


def _two_records_swapped(data):
    head, pool, records, trailer = _split(data)
    records[0], records[1] = records[1], records[0]
    return _join(head, pool, records, trailer)


def _pool_position_out_of_range(data):
    head, pool, records, _ = _split(data)
    records[0][3] = len(json.loads(pool))  # the identity's one coefficient
    return _join(head, pool, records)


def _index_out_of_range(data):
    head, pool, records, _ = _split(data)
    records[0][2] = len(records)  # the identity's one term
    return _join(head, pool, records)


@pytest.mark.parametrize("damage", [
    _truncated, _header_for_another_n, _one_coefficient_edited,
    _trailer_missing, _line_after_the_trailer, _two_records_swapped,
    # each of these carries a trailer that matches its bytes
    _pool_count_wrong, _pool_position_out_of_range, _index_out_of_range,
])
def test_a_damaged_cache_file_is_recomputed_and_rewritten(tmp_path, damage):
    L = WeightFunction(1, 2)
    first = KLTable(3, L, cache_dir=str(tmp_path))
    cold = [first.cells(side) for side in ("L", "R", "LR")]
    path = tmp_path / "kl_v4_n3_a1_b2.bin"
    good = path.read_bytes()
    assert _join(*_split(good)) == good
    path.write_bytes(damage(good))
    assert path.read_bytes() != good
    table = KLTable(3, L, cache_dir=str(tmp_path))
    assert [table.cells(side) for side in ("L", "R", "LR")] == cold
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_cache_file_layout(tmp_path):
    table = KLTable(2, WeightFunction(1, 2), cache_dir=str(tmp_path))
    table.all_kl_basis()
    data = (tmp_path / "kl_v4_n2_a1_b2.bin").read_bytes()
    head, pool, records, trailer = _split(data)
    pool = json.loads(pool)
    assert json.loads(head) == {"v": 4, "n": 2, "a": 1, "b": 2, "records": 8,
                                "pool": len(pool)}
    assert len(records) == 8
    assert trailer == hashlib.sha256(data[:-32]).digest()
    # each distinct coefficient once, in increasing order of its code
    codes = [_encode(dict(pairs), 2) for pairs in pool]
    assert codes == table._pool
    assert all(pairs == sorted(pairs) for pairs in pool)
    # c_t = T_t + v^-2 T_e, and c_s c_t = c_st
    t, st = (table.elements.index(w) for w in ((-1, 2), (-2, 1)))
    assert records[t] == [2, 1, 0, t, pool.index([[-2, 1]]), pool.index([[0, 1]]), st]


@pytest.mark.parametrize("warm", [False, True])
def test_the_pool_holds_every_coefficient_once(tmp_path, warm):
    L = WeightFunction(1, 2)
    if warm:
        KLTable(3, L, cache_dir=str(tmp_path)).all_kl_basis()
    table = KLTable(3, L, cache_dir=str(tmp_path))
    positions = [p for _, ps in table.all_kl_basis() for p in ps]
    pool = table._pool
    assert pool == sorted(set(pool))  # sorted and distinct
    assert set(positions) == set(range(len(pool))) and len(pool) < len(positions)


@pytest.mark.parametrize("n,ratio", [(n, r) for n in (1, 2, 3, 4) for r in range(1, n + 2)])
@pytest.mark.parametrize("warm", [False, True])
def test_each_basis_element_is_two_uint32_arrays(tmp_path, n, ratio, warm):
    L = WeightFunction(1, ratio)
    if warm:
        KLTable(n, L, cache_dir=str(tmp_path)).all_kl_basis()
    table = KLTable(n, L, cache_dir=str(tmp_path))
    basis = table.all_kl_basis()
    assert len(basis) == len(table.elements)
    for w, (ys, ps) in enumerate(basis):
        assert (type(ys), ys.typecode, type(ps), ps.typecode) == (array, "I", array, "I")
        assert len(ys) == len(ps) and ys[-1] == w
        assert all(y < z for y, z in zip(ys, ys[1:]))
        assert max(ps) < len(table._pool)


def test_a_cold_table_is_small():
    # c_w as two uint32 arrays over the pool: the n = 4, ratio 3 table
    # traces 0.62 MB, where one dict per c_w traced 1.75 MB
    _indexed_group(4)
    tracemalloc.start()
    try:
        table = KLTable(4, WeightFunction(1, 3))
        table.all_kl_basis()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size <= 1.0e6


@pytest.mark.parametrize("n,ratio,digest", [
    (3, 1, "98bfbb8a7027c9f5dc015861bb0ef62de051c5a0e4aaae8d3e93aee40aad5796"),
    (3, 2, "ad5574771d5b0a7b1a4244fe441219d20fe387d1084b8e0838c6a57487c40a85"),
    (3, 3, "91b7fc51312946260788b2f144a56dbb0a588e997442b40f44449a066f4b10a3"),
    (4, 4, "96b0522da0a8a14f537b80b94aa344e03237c6e49e4408e696a8c05e30b2ae02"),
])
def test_a_cold_cache_file_matches_its_golden_digest(tmp_path, n, ratio, digest):
    # the digests of kl_v3 files written by the dict-coefficient pass, of
    # a cold table and of one loaded from the cold table's kl_v4 file
    L = WeightFunction(1, ratio)
    cold = KLTable(n, L, cache_dir=str(tmp_path))
    assert hashlib.sha256(kl_v3_bytes(cold)).hexdigest() == digest
    warm = KLTable(n, L, cache_dir=str(tmp_path))
    assert warm._load_cache()
    assert hashlib.sha256(kl_v3_bytes(warm)).hexdigest() == digest


@pytest.mark.parametrize("n,ratio,digest", [
    (3, 2, "3af458f42f131383517271b12e60fc73af5fa70942ea41a26c0e7024d75354bf"),
    (4, 4, "3f7bddb0239e56e0b517eeaf732d5a3d2d0bc8ee0b2be0e44b81ec1e3d8d5f1f"),
])
def test_a_kl_v4_file_matches_its_golden_digest(tmp_path, n, ratio, digest):
    KLTable(n, WeightFunction(1, ratio), cache_dir=str(tmp_path)).all_kl_basis()
    data = (tmp_path / f"kl_v4_n{n}_a1_b{ratio}.bin").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_a_kl_v3_file_is_left_alone(tmp_path, monkeypatch):
    L = WeightFunction(1, 2)
    stale = tmp_path / "kl_v3_n3_a1_b2.jsonl"
    stale.write_bytes(kl_v3_bytes(KLTable(3, L)))
    before = (stale.read_bytes(), stale.stat().st_mtime_ns)
    opened = []
    real_open = builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    passes = _count_calls(monkeypatch, "_pass")
    KLTable(3, L, cache_dir=str(tmp_path)).all_kl_basis()
    monkeypatch.undo()
    assert opened == [str(tmp_path / "kl_v4_n3_a1_b2.bin")] and len(passes) == 1
    assert (stale.read_bytes(), stale.stat().st_mtime_ns) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "kl_v3_n3_a1_b2.jsonl", "kl_v4_n3_a1_b2.bin"]


def test_the_digest_is_sha256_without_openssl(tmp_path):
    data = bytes(range(256)) * 5
    digest = _sha256()
    digest.update(data)
    assert digest.digest() == hashlib.sha256(data).digest()
    script = (
        "import sys\n"
        "from dominocells.cli import main\n"
        f"code = main(['verify', 'conjecture', '--n', '2', '--cache', {str(tmp_path)!r}])\n"
        "sys.exit(code or '_hashlib' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(dominocells.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True)
    assert done.returncode == 0, done.stderr
    assert [p.name for p in tmp_path.glob("kl_v4_*")]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
def test_left_action_table_matches_compose(n):
    group = _indexed_group(n)
    els = group.elements
    assert sorted(els) == sorted(group_elements(n))
    assert all(group.index[w] == i for i, w in enumerate(els))
    assert all(length(u) <= length(w) for u, w in zip(els, els[1:]))
    gens = simple_generators(n)
    assert len(group.lmul) == len(gens)
    for s, lmul in zip(gens, group.lmul):
        for i, w in enumerate(els):
            assert els[lmul[i]] == compose(s, w)
            assert lmul[lmul[i]] == i
            # the pass reads each ascent from the index order
            assert (lmul[i] > i) == (length(compose(s, w)) > length(w))
    assert all(els[group.inv[i]] == inverse(w) for i, w in enumerate(els))
    assert [ls for _, ls in KLTable(3, WeightFunction(2, 5)).gens] == [5, 2, 2]
