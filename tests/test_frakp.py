import pytest
from hypothesis import given

import strategies as strat
from recursive_oracle import oracle_expand_gamma_in_frak
from superq.factorial import p_star
from superq.frakp import (
    FrakExpansion,
    assemble,
    deg1,
    expand_gamma_in_frak,
    expand_p_in_frak,
    frak_p,
    frak_p_eval,
    tilde,
    union_ones,
)
from superq.gamma import GammaElement
from superq.partitions import (
    OddPartition,
    StrictPartition,
    enumerate_odd,
    enumerate_strict,
    falling,
)
from superq.rational import rat
from superq.schurq import character_table

p = GammaElement.p


def test_tilde_examples():
    assert tilde(OddPartition((5, 5, 3, 1, 1))) == (OddPartition((5, 5, 3)), 2)
    assert tilde(OddPartition((1, 1, 1))) == (OddPartition(()), 3)
    assert tilde(OddPartition((3,))) == (OddPartition((3,)), 0)
    assert union_ones(OddPartition((5, 3)), 2) == OddPartition((5, 3, 1, 1))


def test_frak_p_examples():
    assert frak_p(OddPartition((1,))) == p(1)
    assert frak_p(OddPartition((1, 1))) == p((1, 1)) - p(1)
    assert frak_p(OddPartition((3,))) == p(3) - 3 * p((1, 1)) + 2 * p(1)
    assert frak_p(OddPartition(())) == GammaElement.one()


def test_frak_p_top_term_is_p_rho():
    for k in range(8):
        for rho in enumerate_odd(k):
            difference = frak_p(rho) - p(rho)
            assert difference.degree() < k or difference.is_zero()


def test_definition_sum_matches_cached_builder():
    # Definition route recomputed inline: sum_lam X^lam_rho P*_lam
    for k in range(7):
        table = character_table(k)
        for rho in enumerate_odd(k):
            total = GammaElement.zero()
            for lam in table.strict:
                total = total + table.value(lam, rho) * p_star(lam)
            assert total == frak_p(rho)


def test_frak_p_eval_examples():
    for k in range(5):
        rho = OddPartition((1,) * k)
        for n in range(8):
            for lam in enumerate_strict(n):
                assert frak_p_eval(rho, lam) == falling(lam.size, k)
    assert frak_p_eval(OddPartition((5,)), StrictPartition((3,))) == 0
    assert frak_p_eval(OddPartition((3,)), StrictPartition((2, 1))) == -12
    element = frak_p(OddPartition((3,)))
    assert element.evaluate(StrictPartition((2, 1))) == 9 - 27 + 6


def test_closed_form_matches_element_route():
    # single-character closed form vs assembled element, two independent routes
    rhos = [rho for k in range(7) for rho in enumerate_odd(k)]
    lams = [lam for n in range(9) for lam in enumerate_strict(n)]
    for rho in rhos:
        element = frak_p(rho)
        for lam in lams:
            assert element.evaluate(lam) == frak_p_eval(rho, lam)


def test_m1_factorization():
    # fp_rho(lam) = (|lam| - |rho~|)^(falling m1) * fp_rho~(lam)
    rhos = [rho for k in range(7) for rho in enumerate_odd(k)]
    lams = [lam for n in range(9) for lam in enumerate_strict(n)]
    for rho in rhos:
        rho_t, m1 = tilde(rho)
        for lam in lams:
            expected = falling(lam.size - rho_t.size, m1) * frak_p_eval(rho_t, lam)
            assert frak_p_eval(rho, lam) == expected


GOLDEN_EXPANSION_LINES = {
    (5,): {(5,): 1, (3, 1): 10, (3,): rat(35, 3), (1, 1, 1): rat(40, 3),
           (1, 1): 15, (1,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (1, 1, 1): 6, (1, 1): 7, (1,): 1},
    (3, 1, 1): {(3, 1, 1): 1, (3, 1): 7, (1, 1, 1, 1): 3, (3,): 9,
                (1, 1, 1): 16, (1, 1): 15, (1,): 1},
}


def test_expand_p_in_frak_examples():
    for rho_parts, expected in GOLDEN_EXPANSION_LINES.items():
        got = expand_p_in_frak(OddPartition(rho_parts))
        assert got == FrakExpansion(expected)


def test_expansion_inverts_assembly():
    # Psi^{-1} through the T-system against Psi through the s-system:
    # assemble(expand_p_in_frak(rho)) == p_rho
    for k in range(8):
        for rho in enumerate_odd(k):
            assert assemble(expand_p_in_frak(rho)) == p(rho)


def test_expand_gamma_examples():
    got = expand_gamma_in_frak(p((1, 1)))
    assert got == FrakExpansion({(1, 1): 1, (1,): 1})
    assert expand_gamma_in_frak(GammaElement.one()) == FrakExpansion({(): 1})
    assert expand_gamma_in_frak(GammaElement.zero()) == FrakExpansion()


def test_expansions_agree_between_routes():
    # Psi^{-1} through the T-system against the frak-p peeling oracle
    for k in range(11):
        for rho in enumerate_odd(k):
            assert expand_p_in_frak(rho) == oracle_expand_gamma_in_frak(p(rho))
    for k in range(3, 7):
        f = p(3) ** k + 7 * p((5, 1)) - p((1, 1))
        assert expand_gamma_in_frak(f) == oracle_expand_gamma_in_frak(f)


def test_peeling_oracle_stops_when_frak_p_lacks_its_top_term(monkeypatch):
    # with frak_p(rho) = 2 p_rho + lower, each round leaves -c p_rho on top,
    # so the peeling would never end without its bound of deg f + 1 rounds
    import recursive_oracle

    monkeypatch.setattr(recursive_oracle, "frak_p", lambda rho: 2 * frak_p(rho))
    with pytest.raises(AssertionError):
        oracle_expand_gamma_in_frak(p(3) ** 2 + p(1))


@given(strat.gamma_elements(max_degree=7))
def test_round_trip(f):
    expansion = expand_gamma_in_frak(f)
    assert expansion == oracle_expand_gamma_in_frak(f)
    assert assemble(expansion) == f


def test_deg1_examples():
    assert deg1(FrakExpansion({(1, 1): 1})) == 4
    assert deg1(FrakExpansion({(3,): 1})) == 3
    assert deg1(expand_gamma_in_frak(p(3))) == 4
    with pytest.raises(ValueError):
        deg1(FrakExpansion())


def test_frak_json_round_trip():
    e = expand_p_in_frak(OddPartition((3, 1, 1)))
    assert FrakExpansion.from_json_obj(e.to_json_obj()) == e
    assert str(expand_p_in_frak(OddPartition((5,)))) == (
        "fp[5] + 10*fp[3,1] + 35/3*fp[3] + 40/3*fp[1,1,1] + 15*fp[1,1] + fp[1]"
    )
    assert str(FrakExpansion()) == "0"
    assert str(FrakExpansion({(): -2, (1,): -1})) == "-fp[1] - 2"


def test_frak_is_not_gamma():
    assert FrakExpansion({(1,): 1}) != GammaElement({(1,): 1})
