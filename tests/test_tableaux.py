import hashlib
import math

import pytest

from dominocells.tableaux import (
    DominoTableau, TableauError, TableauPair,
    enhanced_tau_of_tableau, enumerate_sdt, tau_of_tableau,
)

Q2 = DominoTableau(2, ((0, 0, 1, 1), (0, 2, 2), (3, 4, 4), (3,)))
Q3 = DominoTableau(3, ((0, 0, 0, 1, 1), (0, 0, 2, 2), (0, 4), (3, 4), (3,)))


def test_validate_accepts_fixture():
    Q2.check_standard()
    assert Q2.shape == (4, 3, 3, 1)
    assert Q2.n == 4


def test_validate_returns_nothing():
    for t in (Q2, Q3):
        assert t.check_standard() is None
        assert t.check_standard(strict_core=False) is None


def test_validate_rejects_split_label():
    bad = DominoTableau(0, ((1, 2), (2, 1)))
    with pytest.raises(TableauError):
        bad.check_standard()


def test_validate_rejects_wrong_core():
    bad = DominoTableau(2, ((0, 1, 1), (0, 2), (0, 2)))
    with pytest.raises(TableauError):
        bad.check_standard()


def test_validate_reports_coordinates():
    bad = DominoTableau(0, ((3, 3, 1, 1), (2, 2)))
    with pytest.raises(TableauError, match="row 1"):
        bad.check_standard()


def test_split_predicate():
    assert not Q2.is_split()  # every square of the fourth diagonal is filled
    assert Q3.is_split()  # (3, 3) is outside the shape
    assert DominoTableau(2, ((0, 0), (0,))).is_split()  # no dominos


def test_tau_of_tableau():
    assert sorted(tau_of_tableau(Q2).simple) == ["s1", "s2"]
    horizontal = DominoTableau(0, ((1, 1),))
    vertical = DominoTableau(0, ((1,), (1,)))
    assert tau_of_tableau(horizontal).simple == frozenset()
    assert tau_of_tableau(vertical).simple == frozenset({"t"})


def test_xi_of_tableau():
    xi = enhanced_tau_of_tableau(Q2, 3)
    assert sorted(xi.simple) == ["s1", "s2"]
    assert sorted(xi.extended) == ["t3"]
    assert enhanced_tau_of_tableau(Q2, 1) == tau_of_tableau(Q2)
    with pytest.raises(TableauError):
        enhanced_tau_of_tableau(Q2, 4)  # rank 2 < ratio - 1


def test_pair_requires_same_shape():
    with pytest.raises(TableauError):
        TableauPair(Q2, Q3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("rank", [0, 1, 2, 3])
def test_enumeration_satisfies_counting_identity(n, rank):
    by_shape = {}
    for t in enumerate_sdt(n, rank):
        t.check_standard()
        assert DominoTableau.from_cells(t.rank, t.cells()) == t
        by_shape[t.shape] = by_shape.get(t.shape, 0) + 1
    assert sum(c * c for c in by_shape.values()) == (2 ** n) * math.factorial(n)


def test_enumeration_order_is_pinned():
    # the sequence of tableaux, n <= 5 and ranks up to n + 1, as a digest
    digest = hashlib.sha256()
    for n in range(6):
        for rank in range(n + 2):
            for t in enumerate_sdt(n, rank):
                digest.update(repr((n, rank, t.rows)).encode())
    assert digest.hexdigest() == (
        "2c83e8bca23fd078948d41f8769691f7af490acf0e70eeb6399b74e56f02ea5c")


def test_pretty_draws_domino_walls():
    art = DominoTableau(1, ((0,),)).pretty()
    assert art == "+---+\n| 0 |\n+---+"
    art2 = DominoTableau(0, ((1, 1),)).pretty()
    assert "1   1" in art2
