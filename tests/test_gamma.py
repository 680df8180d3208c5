import pytest
from hypothesis import example, given

import strategies as strat
from pfaffian_oracle import oracle_q
from superq.gamma import GammaElement, integer_form, scalar_product
from superq.partitions import (
    OddPartition,
    StrictPartition,
    enumerate_odd,
    enumerate_strict,
    z,
)
from superq.rational import Rat, rat

p = GammaElement.p


def test_ring_examples():
    assert p((3,)) * p((3, 1)) == p((3, 3, 1))
    assert p((1,)) * p((1,)) == p((1, 1))
    assert (p((1,)) + (-1) * p((1,))).is_zero()
    assert p(3) == p((3,))


def test_canonical_sparse_form():
    f = p((3,)) - p((3,))
    assert f.is_zero() and f.support() == []
    g = GammaElement({(3,): 0, (1,): 2})
    assert g.support() == [OddPartition((1,))]
    # repeated keys add up, and may cancel
    assert GammaElement([((1,), 1), ((1,), 2)]) == 3 * p(1)
    assert GammaElement([((3,), 1), ((1,), 1), ((3,), -1)]) == p(1)


def test_pow_and_scale():
    assert p(1) ** 0 == GammaElement.one()
    assert p(1) ** 3 == p((1, 1, 1))
    assert rat(1, 2) * (2 * p(3)) == p(3)
    with pytest.raises(ValueError):
        p(1) ** -1


def test_integer_form():
    # D is the lcm of the denominators, and each value becomes D c, sign kept
    assert integer_form({"a": rat(1, 6), "b": rat(-3, 4), "c": 2}) == (
        12, {"a": 2, "b": -9, "c": 24})
    denom, numerators = integer_form({"a": rat(4, 2), "b": -5, "c": rat(7)})
    assert (denom, numerators) == (1, {"a": 2, "b": -5, "c": 7})
    assert all(type(a) is int for a in numerators.values())
    assert integer_form({}) == (1, {})


def test_scalar_product_examples():
    assert scalar_product(p(3), p(3)) == rat(3, 2)
    assert scalar_product(p(3), p((1, 1, 1))) == 0
    assert scalar_product(p((3, 1, 1)), p((3, 1, 1))) == rat(3, 4)


def termwise_scalar_product(f, g):
    # the per-term rational route: a b z_rho / 2^{l(rho)} for each common rho
    return sum((a * g._coeffs[rho] * rat(z(rho), 2**rho.length)
                for rho, a in f._coeffs.items() if rho in g._coeffs), start=rat(0))


@given(strat.gamma_elements(), strat.gamma_elements())
@example(rat(1, 3) * p((3, 1, 1)) + rat(5, 2) * p(3), rat(3, 4) * p((3, 1, 1)) + p(5))
def test_scalar_product_equals_the_termwise_rational_sum(f, g):
    # fractional coefficients from the strategy, both orders, a support
    # shared in full, one disjoint from f's, and the zero element
    zero = GammaElement.zero()
    disjoint = GammaElement({rho: c for rho, c in g._coeffs.items()
                             if rho not in f._coeffs})
    for a, b in ((f, g), (g, f), (f, f), (f, disjoint), (f, zero), (zero, g)):
        got = scalar_product(a, b)
        assert got == termwise_scalar_product(a, b)
        assert type(got) is Rat
    assert scalar_product(f, disjoint) == 0


@given(strat.gamma_elements(), strat.gamma_elements(), strat.rationals())
@example(rat(1, 3) * p(3) + p(1), rat(5, 2) * p((3, 1)), rat(2, 7))
def test_the_kept_integer_form_is_the_integer_form_of_its_coefficients(f, g, c):
    # every way of building an element, with the forms of the operands
    # already kept; each form is computed once and then kept
    f._integer_form()
    g._integer_form()
    built = [GammaElement(f._coeffs), GammaElement._wrap(dict(g._coeffs)),
             f + g, f - g, -f, f * g, c * f, f * c, f ** 2, GammaElement.zero()]
    for h in built:
        form = h._integer_form()
        assert form == integer_form(h._coeffs)
        assert h._integer_form() is form


def test_scalar_product_diagonal_formula():
    for n in range(7):
        for rho in enumerate_odd(n):
            expected = rat(z(rho), 2**rho.length)
            assert scalar_product(p(rho), p(rho)) == expected


def test_evaluate_examples():
    lam = StrictPartition((2, 1))
    assert p(3).evaluate(lam) == 9
    for n in range(7):
        for mu in enumerate_strict(n):
            assert p(1).evaluate(mu) == mu.size
    f = rat(1, 6) * p(3) - rat(1, 6) * p(1)
    assert f.evaluate(StrictPartition((3,))) == 4
    assert GammaElement.one().evaluate(StrictPartition(())) == 1


def test_d_dp1_examples():
    assert (p((1, 1)) * p(3)).d_dp1() == 2 * p((3, 1))
    assert p(3).d_dp1().is_zero()
    assert p((1, 1, 1)).d_dp1() == 3 * p((1, 1))


def test_adjointness_on_basis_pairs():
    # <p_1 f, g> = (1/2) <f, d/dp_1 g> for all basis pairs up to degree 9
    p1 = p(1)
    for a in range(10):
        for rho in enumerate_odd(a):
            f = p(rho)
            for b in range(10):
                for sigma in enumerate_odd(b):
                    g = p(sigma)
                    lhs = scalar_product(p1 * f, g)
                    rhs = rat(1, 2) * scalar_product(f, g.d_dp1())
                    assert lhs == rhs


def test_adjointness_explicit_value():
    lhs = scalar_product(p(1) * p(1), p((1, 1)))
    rhs = rat(1, 2) * scalar_product(p(1), p((1, 1)).d_dp1())
    assert lhs == rhs == rat(1, 2)


@given(strat.gamma_elements(), strat.gamma_elements(), strat.strict_partitions())
def test_evaluate_is_ring_morphism(f, g, lam):
    assert (f * g).evaluate(lam) == f.evaluate(lam) * g.evaluate(lam)
    assert (f + g).evaluate(lam) == f.evaluate(lam) + g.evaluate(lam)


@given(strat.gamma_elements(), strat.gamma_elements())
def test_mul_commutative(f, g):
    assert f * g == g * f


@given(strat.gamma_elements(max_degree=4), strat.gamma_elements(max_degree=4),
       strat.gamma_elements(max_degree=4))
def test_mul_associative_and_distributive(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


def pairwise_product(f, g):
    # the product pair of terms by pair of terms: a validated key and a
    # rational product for each pair, added as rationals
    out = {}
    for rho, a in f._coeffs.items():
        for sigma, b in g._coeffs.items():
            key = OddPartition(sorted(rho.parts + sigma.parts, reverse=True))
            out[key] = out.get(key, 0) + a * b
    return GammaElement(out)


@given(strat.gamma_elements(), strat.gamma_elements())
def test_mul_equals_the_pairwise_rational_products(f, g):
    # fractional coefficients from the strategy; (f + g)(f - g) cancels its
    # cross terms; the zero element and the unit
    one, zero = GammaElement.one(), GammaElement.zero()
    for a, b in ((f, g), (f + g, f - g), (f, zero), (zero, g), (f, one), (one, g)):
        product = a * b
        assert product == pairwise_product(a, b)
        for key, c in product._coeffs.items():
            assert type(key) is OddPartition and type(key.parts) is tuple
            assert type(c) is Rat and c
    assert (p(1) + p(3)) * (p(1) - p(3)) == p((1, 1)) - p((3, 3))
    assert (rat(1, 6) * p(3)) * (rat(3, 4) * p(1) + rat(2, 3) * one) == (
        rat(1, 8) * p((3, 1)) + rat(1, 9) * p(3))


@given(strat.gamma_elements())
def test_json_round_trip(f):
    assert GammaElement.from_json_obj(f.to_json_obj()) == f


@given(strat.gamma_elements(max_degree=8), strat.gamma_elements(max_degree=8))
def test_parseval(f, g):
    # sum over SP_n of 2^{-l} <f, Q_lam> <g, Q_lam> = <f_n, g_n>
    for n in range(9):
        total = sum(
            (
                rat(1, 2**lam.length)
                * scalar_product(f, oracle_q(lam))
                * scalar_product(g, oracle_q(lam))
                for lam in enumerate_strict(n)
            ),
            start=rat(0),
        )
        expected = scalar_product(
            f.homogeneous_component(n), g.homogeneous_component(n)
        )
        assert total == expected


def test_homogeneous_split():
    f = p(3) + p((1, 1)) + 5 * GammaElement.one()
    split = f.homogeneous_split()
    assert sorted(split) == [0, 2, 3]
    assert split[3] == p(3)
    assert f.degree() == 3
    assert GammaElement.zero().degree() == -1


def test_render():
    f = rat(4, 3) * p((1, 1, 1)) - rat(4, 3) * p(3)
    assert str(f) == "-4/3*p[3] + 4/3*p[1,1,1]"
    assert str(GammaElement.zero()) == "0"
    assert str(GammaElement.one()) == "1"
