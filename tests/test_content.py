import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, strategies as st

import strategies as strat
from recursive_oracle import (
    _series_exp,
    _series_geometric,
    _series_mul,
    oracle_hat_p,
    oracle_phi_series_check,
)
from superq import content
from superq.content import (
    EvenPolynomial,
    OrdinaryPSumExpr,
    c_hat,
    hat_F,
    hat_F_eval_direct,
    hat_p,
    phi_series_check,
    psi,
    psi_direct,
    rewrite_XY,
)
from superq.gamma import GammaElement
from superq.partitions import (
    Cell,
    StrictPartition,
    enumerate_strict,
    shifted_cells,
)
from superq.plancherel import PolynomialInN, average_symbolic
from superq.rational import ONE, ZERO, rat

p = GammaElement.p


def test_c_hat_examples():
    assert c_hat(Cell(1, 1)) == 0
    assert c_hat(Cell(1, 3)) == 3
    assert c_hat(Cell(2, 5)) == 6
    assert c_hat(Cell(3, 2)) == 0  # c = -1


def test_even_polynomial_rejects_asymmetric():
    with pytest.raises(ValueError):
        EvenPolynomial((0, 1))  # R(X) = X fails R(X) = R(-X-1)
    EvenPolynomial((1,))
    EvenPolynomial((0, 1, 1))  # X^2 + X = Y


def test_rewrite_XY_examples():
    assert rewrite_XY(EvenPolynomial((0, 1, 1))) == (ZERO, ONE)  # -> Y
    got = rewrite_XY(EvenPolynomial((1, 3, 3)))  # 3X^2 + 3X + 1 -> 3Y + 1
    assert got == (ONE, rat(3))
    assert rewrite_XY(EvenPolynomial((1,))) == (ONE,)


def test_rewrite_XY_is_exact_substitution():
    # R(x) == R~(x(x+1)) on a grid, for the telescoping polynomials
    from math import comb

    for m in range(0, 6):
        coeffs = [rat(comb(2 * m + 1, i)) for i in range(2 * m + 2)]
        coeffs[-1] = ZERO
        R = EvenPolynomial(coeffs)
        tilde = rewrite_XY(R)
        for x in range(-6, 7):
            direct = sum(c * x**i for i, c in enumerate(R.coeffs))
            y = x * (x + 1)
            via_y = sum(c * y**j for j, c in enumerate(tilde))
            assert direct == via_y


def _random_S(rng):
    # S(Y) low to high, degree <= 6, with a nonzero top coefficient
    S = [rat(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, 7))]
    S[-1] = S[-1] or ONE
    return S


def _in_x(S):
    # S(X(X+1)) low to high, from (X^2 + X)^j = sum_i C(j, i) X^{2j-i}
    coeffs = [ZERO] * (2 * len(S) - 1)
    for j, a in enumerate(S):
        for i in range(j + 1):
            coeffs[2 * j - i] += a * comb(j, i)
    return coeffs


def test_rewrite_XY_round_trip():
    rng = random.Random(10)
    for _ in range(60):
        S = _random_S(rng)
        assert rewrite_XY(EvenPolynomial(_in_x(S))) == tuple(S)


def test_even_polynomial_rejects_any_bumped_coefficient():
    # X^i = (-X-1)^i only for i = 0: adding 1 to any other coefficient, or
    # one past the top, breaks the symmetry, and adding 1 to the constant
    # term adds 1 to S
    rng = random.Random(11)
    for _ in range(20):
        S = _random_S(rng)
        coeffs = _in_x(S)
        for i in range(1, len(coeffs) + 1):
            bumped = coeffs + [ZERO]
            bumped[i] += 1
            with pytest.raises(ValueError):
                EvenPolynomial(bumped)
        bumped = [coeffs[0] + 1, *coeffs[1:]]
        assert rewrite_XY(EvenPolynomial(bumped)) == (S[0] + 1, *S[1:])


def test_hat_p_closed_forms():
    assert hat_p(0) == p(1)
    assert hat_p(1) == rat(1, 6) * p(3) - rat(1, 6) * p(1)
    assert hat_p(2) == (
        rat(1, 20) * p(5) - rat(1, 12) * p(3) + rat(1, 30) * p(1)
    )


def test_hat_p_matches_the_unitriangular_oracle():
    for k in range(13):
        assert hat_p(k) == oracle_hat_p(k), k


def test_hat_p_defining_property():
    # evaluate(hat_p(k), lam) == sum of c-hat^k over the diagram
    for k in range(7):
        element = hat_p(k)
        for n in range(11):
            for lam in enumerate_strict(n):
                direct = sum(
                    (c_hat(cell) ** k for cell in shifted_cells(lam)),
                    start=ZERO,
                )
                assert element.evaluate(lam) == direct


def test_odd_power_sum_content_identity():
    # p_{2m+1}(lam) = sum_box [(c+1)^{2m+1} - c^{2m+1}]
    for m in range(5):
        element = p(2 * m + 1)
        for n in range(11):
            for lam in enumerate_strict(n):
                direct = sum(
                    (cell.content + 1) ** (2 * m + 1)
                    - cell.content ** (2 * m + 1)
                    for cell in shifted_cells(lam)
                )
                assert element.evaluate(lam) == direct


def test_hat_F_examples():
    assert hat_F(OrdinaryPSumExpr.p(2)) == hat_p(2)
    f11 = OrdinaryPSumExpr({(1, 1): 1})
    assert hat_F(f11) == hat_p(1) * hat_p(1)
    assert hat_F(OrdinaryPSumExpr({(): 1})) == GammaElement.one()


def test_hat_F_eval_direct_examples():
    assert hat_F_eval_direct(OrdinaryPSumExpr.p(1), StrictPartition((3,))) == 4
    assert hat_F_eval_direct(OrdinaryPSumExpr.p(2), StrictPartition((2, 1))) == 1
    f11 = OrdinaryPSumExpr({(1, 1): 1})
    assert hat_F_eval_direct(f11, StrictPartition((3,))) == 16


def ordinary_psum_exprs():
    return st.dictionaries(
        strat.ordinary_partitions(max_size=4), strat.rationals(), min_size=1,
        max_size=3
    ).map(OrdinaryPSumExpr)


@given(ordinary_psum_exprs(), strat.strict_partitions(max_size=9))
def test_hat_F_coherence(F, lam):
    # supersymmetric route == direct specialization at the c-hats
    assert hat_F(F).evaluate(lam) == hat_F_eval_direct(F, lam)


def test_psum_expr_evaluate_at_parts():
    p2 = OrdinaryPSumExpr.p(2)
    assert p2.evaluate(StrictPartition((2, 1))) == 5
    assert p2.evaluate(StrictPartition(())) == 0
    assert str(p2) == "p[2]"
    assert str(OrdinaryPSumExpr({(2, 2): rat(-1, 2), (): 1, (3,): -1})) == (
        "-1/2*p[2,2] - p[3] + 1"
    )


# --- psi functions ----------------------------------------------------------------


def test_psi_expansions():
    assert psi(1) == 2 * p(1)
    assert psi(2) == 4 * p(3)
    assert psi(3) == 6 * p(5) + 2 * p(3)
    assert psi(4) == 8 * p(7) + 8 * p(5)
    with pytest.raises(ValueError):
        psi(0)


def test_psi_direct_examples():
    for k in range(1, 6):
        assert psi_direct(k, StrictPartition(())) == 0
    assert psi_direct(2, StrictPartition((2, 1))) == 36
    assert psi(2).evaluate(StrictPartition((2, 1))) == 36


def test_psi_direct_matches_gamma_route():
    for k in range(1, 6):
        element = psi(k)
        for n in range(11):
            for lam in enumerate_strict(n):
                assert psi_direct(k, lam) == element.evaluate(lam)


def fraction_corner_sum(k, lam):
    # inner minus outer corners of {c(c+1)}^k in Fractions, the corners found
    # by adding a box to, or removing one from, each row (and one empty row)
    # and keeping the strict results: the box added to a row of length a has
    # content a, the box removed content a - 1
    parts = [*lam.parts, 0]
    total = Fraction(0)
    for i, a in enumerate(parts):
        for step, c in ((1, a), (-1, a - 1)):
            new = [*parts[:i], a + step, *parts[i + 1:]]
            kept = [x for x in new if x]
            if min(new) >= 0 and all(x > y for x, y in zip(kept, kept[1:])):
                total += step * Fraction(c * (c + 1)) ** k
    return total


def test_psi_direct_equals_the_fraction_corner_sum():
    shapes = [lam for n in range(13) for lam in enumerate_strict(n)]
    for k in range(1, 7):
        for lam in shapes:
            got = psi_direct(k, lam)
            assert got == fraction_corner_sum(k, lam), (k, lam)
            assert type(got) is Fraction


# --- series ------------------------------------------------------------------------


def test_series_helpers():
    # exp(u) coefficients 1/j!
    from math import factorial

    e = _series_exp([ZERO, ONE, ZERO, ZERO, ZERO], 4)
    assert e == [rat(1, factorial(j)) for j in range(5)]
    geo = _series_geometric(rat(2), 3)
    assert geo == [ONE, rat(2), rat(4), rat(8)]
    prod = _series_mul([ONE, ONE], [ONE, -1 * ONE], 3)
    assert prod == [ONE, ZERO, -1 * ONE, ZERO]


def test_phi_series_check_examples():
    assert phi_series_check(StrictPartition(()), 5)
    assert phi_series_check(StrictPartition((2, 1)), 6)
    assert phi_series_check(StrictPartition((5, 4, 2)), 8)
    with pytest.raises(ValueError):
        phi_series_check(StrictPartition((2, 1)), 0)


def test_phi_series_check_matches_the_exp_route():
    # log route against exp of the truncated series, both exact
    for order in range(1, 9):
        for n in range(16):
            for lam in enumerate_strict(n):
                assert (phi_series_check(lam, order)
                        == oracle_phi_series_check(lam, order))
    lam = StrictPartition((5, 4, 2))
    assert phi_series_check(lam, 40) == oracle_phi_series_check(lam, 40)


@pytest.mark.parametrize("order", [1, 2, 5, 8])
def test_phi_series_check_reads_every_order(monkeypatch, order):
    # psi_direct wrong only at k = order: the check must reach that order
    right = content.psi_direct

    def wrong_at_order(k, lam):
        return right(k, lam) + (k == order)

    monkeypatch.setattr(content, "psi_direct", wrong_at_order)
    lam = StrictPartition((5, 4, 2))
    assert phi_series_check(lam, order) is False
    if order > 1:
        assert phi_series_check(lam, order - 1)


def test_phi_series_check_sample():
    count = 0
    n = 0
    while count < 20:
        for lam in enumerate_strict(n):
            assert phi_series_check(lam, 8)
            count += 1
            if count == 20:
                break
        n += 1


# --- content averages (section 5.2 identities) ------------------------------------------


def test_content_average_identities():
    assert average_symbolic(hat_p(1)) == PolynomialInN({2: rat(1, 2)})
    assert average_symbolic(hat_p(2)) == PolynomialInN(
        {3: rat(2, 3), 2: rat(1, 2)}
    )
    assert average_symbolic(hat_p(1) ** 2) == PolynomialInN.from_binomial(
        {4: 6, 3: 8, 2: 1}
    )
