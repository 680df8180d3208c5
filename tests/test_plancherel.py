import random
from collections import defaultdict
from math import factorial

import pytest
from hypothesis import example, given, strategies as st

import strategies as strat
from plancherel_oracle import (
    oracle_average,
    oracle_average_mu,
    oracle_average_mu_symbolic,
    oracle_average_symbolic,
)
from superq.content import OrdinaryPSumExpr, hat_p
from superq.frakp import (
    deg1,
    expand_gamma_in_frak,
    expand_p_in_frak,
    frak_p,
    frak_p_eval,
)
from superq.gamma import GammaElement
from superq import plancherel, verify
from superq.partitions import (
    OddPartition,
    StrictPartition,
    enumerate_odd,
    enumerate_strict,
    falling,
    g,
)
from superq.plancherel import (
    PolynomialInN,
    _fold,
    _integer_form,
    average_bruteforce,
    average_mu_bruteforce,
    _interpolate,
    average_mu_symbolic,
    average_mu_symbolic_frak,
    average_symbolic,
    average_symbolic_frak,
    falling_shifted,
    prob,
    prob_mu,
    product_average_check,
    product_average_closed_form,
)
from superq.rational import rat

p = GammaElement.p


# --- PolynomialInN ----------------------------------------------------------------


def poly_coeff_dicts():
    return st.dictionaries(st.integers(0, 6), strat.rationals(), max_size=4)


@given(poly_coeff_dicts())
def test_falling_monomial_views_evaluate_equal(coeffs):
    poly = PolynomialInN(coeffs)
    mono = poly.monomial_coeffs()
    binom = poly.binomial_coeffs()
    for n in range(0, 12):
        direct = poly.evaluate(n)
        via_mono = sum((c * n**m for m, c in mono.items()), start=rat(0))
        assert direct == via_mono
        from math import comb

        via_binom = sum((c * comb(n, j) for j, c in binom.items()), start=rat(0))
        assert direct == via_binom


@given(poly_coeff_dicts())
def test_basis_conversions_round_trip(coeffs):
    poly = PolynomialInN(coeffs)
    assert PolynomialInN.from_monomial(poly.monomial_coeffs()) == poly
    assert PolynomialInN.from_binomial(poly.binomial_coeffs()) == poly
    assert PolynomialInN.from_json_obj(poly.to_json_obj()) == poly


@pytest.mark.parametrize("obj", [
    {"falling": {"\u0663": "1"}},  # Arabic-Indic three
    {"falling": {"1_0": "1"}},
    {"falling": {" 2 ": "1"}},
    {"falling": {"-1": "1"}},  # would be n^(-1)
    {"falling": [1]},
    {},
])
def test_from_json_obj_refuses_bad_input(obj):
    with pytest.raises(ValueError):
        PolynomialInN.from_json_obj(obj)


@given(poly_coeff_dicts(), poly_coeff_dicts())
def test_poly_mul_against_evaluation(a, b):
    pa, pb = PolynomialInN(a), PolynomialInN(b)
    product = pa * pb
    for n in range(0, 10):
        assert product.evaluate(n) == pa.evaluate(n) * pb.evaluate(n)


def test_poly_examples():
    n = PolynomialInN.n()
    assert (n * n) == PolynomialInN({2: 1, 1: 1})  # n^2 = n(n-1) + n
    assert PolynomialInN({2: 3, 1: 1}).evaluate(3) == 21
    assert str(PolynomialInN({2: 3, 1: 1})) == "3*n^(2) + n"
    assert PolynomialInN.zero().degree() == -1
    assert PolynomialInN.constant(5).degree() == 0


def test_poly_falling_view_and_scalar_subtraction():
    coeffs = {2: rat(3), 1: rat(1)}
    poly = PolynomialInN.from_falling(coeffs)
    assert poly == PolynomialInN(coeffs)
    view = poly.falling_coeffs()
    assert view == coeffs
    view[0] = rat(5)  # a copy: the polynomial keeps its terms
    assert poly.falling_coeffs() == coeffs
    assert poly - 1 == PolynomialInN({2: 3, 1: 1, 0: -1})
    assert 1 - poly == PolynomialInN({2: -3, 1: -1, 0: 1})
    assert rat(1, 2) - poly - rat(1, 2) == -poly
    for n in range(6):
        assert (poly - 4).evaluate(n) == poly.evaluate(n) - 4
        assert (4 - poly).evaluate(n) == 4 - poly.evaluate(n)


def test_falling_shifted():
    # (n + c)^(k) against direct evaluation
    for shift in range(-6, 7):
        for k in range(0, 9):
            poly = falling_shifted(shift, k)
            for n in range(0, 13):
                assert poly.evaluate(n) == falling(n + shift, k)
    with pytest.raises(ValueError):
        falling_shifted(0, -1)


# --- measures -----------------------------------------------------------------------


def test_prob_examples():
    assert prob(5, StrictPartition((5,))) == rat(16, 120)
    assert prob(5, StrictPartition((4, 1))) == rat(72, 120)
    assert prob(5, StrictPartition((3, 2))) == rat(32, 120)
    assert prob(0, StrictPartition(())) == 1
    with pytest.raises(ValueError):
        prob(4, StrictPartition((5,)))


def test_prob_mu_examples():
    mu = StrictPartition((2, 1))
    # with mu empty the deformed measure is the plain one
    for n in range(7):
        for lam in enumerate_strict(n):
            assert prob_mu(StrictPartition(()), n, lam) == prob(n, lam)
    assert prob_mu(mu, 0, mu) == 1
    total = sum(prob_mu(mu, 1, lam) for lam in enumerate_strict(4))
    assert total == 1
    with pytest.raises(ValueError):
        prob_mu(mu, 1, StrictPartition((5,)))


def test_prob_mu_vanishes_without_containment():
    mu = StrictPartition((3,))
    lam = StrictPartition((2, 1))  # size 3 = 0 + |mu|, no containment
    # this case needs prob_mu's skew == 0 return: 2 ** (0 - 2 + 1) is a float
    assert prob_mu(mu, 0, lam) == 0


def test_prob_mu_normalizes():
    for m in range(5):
        for mu in enumerate_strict(m):
            for n in range(6):
                total = sum(
                    prob_mu(mu, n, lam) for lam in enumerate_strict(n + m)
                )
                assert total == 1


# --- brute-force averages --------------------------------------------------------------


def test_average_bruteforce_examples():
    assert average_bruteforce(p(3), 3) == 21
    for n in range(8):
        assert average_bruteforce(GammaElement.one(), n) == 1
    assert average_bruteforce(OrdinaryPSumExpr.p(2), 3) == rat(23, 3)


def test_average_mu_bruteforce_normalization():
    one = GammaElement.one()
    for m in range(5):
        for mu in enumerate_strict(m):
            for n in range(6):
                assert average_mu_bruteforce(one, mu, n) == 1


def big_rationals():
    # numerators and large denominators, many of them coprime to each other
    return st.builds(rat, st.integers(-10**12, 10**12),
                     st.sampled_from([1, 2, 3, 10007, 65537, 999983, 2**31 - 1,
                                      10**9 + 7, 2**61 - 1, 3**20]))


def gamma_big(max_degree=6, max_terms=5):
    return st.dictionaries(strat.odd_partitions(max_degree), big_rationals(),
                           max_size=max_terms).map(GammaElement)


def ordinary_exprs():
    # even parts included: p_2, p_2 p_1, p_4, ...
    return st.dictionaries(strat.ordinary_partitions(4), big_rationals(),
                           max_size=4).map(OrdinaryPSumExpr)


@given(st.one_of(gamma_big(), ordinary_exprs()), st.integers(0, 12))
@example(GammaElement.zero(), 7)
@example(GammaElement.term((), rat(-5, 999983)), 9)
@example(OrdinaryPSumExpr({(2, 2): rat(1, 2**61 - 1), (4,): 3}), 12)
def test_integer_route_equals_per_shape_sum(f, n):
    assert average_bruteforce(f, n) == oracle_average(f, n)


@given(st.one_of(gamma_big(), ordinary_exprs()),
       strat.strict_partitions(max_size=4), st.integers(0, 12))
@example(GammaElement.zero(), StrictPartition((2, 1)), 5)
@example(GammaElement.term((), rat(7, 10007)), StrictPartition((4,)), 11)
@example(OrdinaryPSumExpr({(2,): rat(1, 3**20)}), StrictPartition((3, 1)), 12)
def test_mu_integer_route_equals_per_shape_sum(f, mu, n):
    assert average_mu_bruteforce(f, mu, n) == oracle_average_mu(f, mu, n)


def heavy_in_ones():
    # p_1 folds into the coefficients: whole terms, parts of terms, an even
    # part next to 1s, and terms that cancel once folded
    return [
        p(1) ** 6,
        GammaElement.term((3, 1, 1, 1), rat(5, 7)) + p(3) - 2 * p(1),
        OrdinaryPSumExpr({(2, 1, 1): rat(-3, 11), (2,): 1, (1,): rat(1, 2)}),
        GammaElement({(1, 1): 1, (1,): -2}),
    ]


def test_integer_route_equals_per_shape_sum_beyond_hypothesis():
    for n in range(13, 23):
        for f in heavy_in_ones():
            assert average_bruteforce(f, n) == oracle_average(f, n)


def test_mu_integer_route_equals_per_shape_sum_beyond_hypothesis():
    for n in range(13, 23):
        mu = (StrictPartition((2, 1)), StrictPartition((3,)), StrictPartition((4, 1)))[n % 3]
        for f in heavy_in_ones():
            assert average_mu_bruteforce(f, mu, n) == oracle_average_mu(f, mu, n)


def test_folded_terms_that_cancel():
    # p_{1,1} - 2 p_1 is n^2 - 2n on every strict partition of n
    f = GammaElement({(1, 1): 1, (1,): -2})
    assert average_bruteforce(f, 2) == 0
    assert average_bruteforce(f, 3) == 3
    assert average_mu_bruteforce(f, StrictPartition((1,)), 1) == 0
    assert average_mu_bruteforce(f, StrictPartition((1,)), 2) == 3


def test_fold_leaves_the_parts_above_1():
    f = GammaElement({rho: 1 for d in range(1, 7) for rho in enumerate_odd(d)})
    assert len(f.support()) == 13
    denom, terms = _integer_form(f)
    # p_(1^k) -> 10^k, p_(3,1^k) -> 10^k p_3, p_(5,1) -> 10 p_5, p_(3,3)
    assert denom == 1
    folded = defaultdict(int)
    _fold(folded, terms, 10)
    assert folded == {(): 10 + 100 + 1000 + 10**4 + 10**5 + 10**6,
                      (3,): 1 + 10 + 100 + 1000, (5,): 1 + 10, (3, 3): 1}


def test_large_measure_normalization():
    for n in range(41):
        assert sum((prob(n, lam) for lam in enumerate_strict(n)), start=rat(0)) == 1
    assert average_bruteforce(GammaElement.one(), 60) == 1
    assert average_mu_bruteforce(GammaElement.one(), StrictPartition((2, 1)), 40) == 1


def test_bruteforce_rejects_other_objects():
    mu = StrictPartition((1,))
    # a frak-p expansion has odd-partition keys too, but they are not p_mu
    for f in (expand_p_in_frak(OddPartition((3,))), 3, None, StrictPartition((2,))):
        for call in (lambda: average_bruteforce(f, 3),
                     lambda: average_mu_bruteforce(f, mu, 3)):
            with pytest.raises(TypeError) as exc:
                call()
            assert len(str(exc.value).splitlines()) == 1
            assert "GammaElement or an OrdinaryPSumExpr" in str(exc.value)


@given(st.one_of(gamma_big(), ordinary_exprs()),
       strat.strict_partitions(max_size=4), st.integers(0, 10), st.booleans())
@example(GammaElement.term((3,), 1), StrictPartition((2, 1)), 3, False)
@example(GammaElement.term((), 2) + GammaElement.term((5, 3, 1), 1),
         StrictPartition((2, 1)), 4, True)
def test_moments_equal_the_oracle_cold_and_warm(f, mu, n, mu_first):
    # E_n at n + |mu| and at n, and E_{mu,n}, in one process, with E_{mu,n}
    # first or last, from an empty memo and then again from the warm one
    want = [oracle_average(f, n + mu.size), oracle_average(f, n),
            oracle_average_mu(f, mu, n)]
    calls = [lambda: average_bruteforce(f, n + mu.size),
             lambda: average_bruteforce(f, n),
             lambda: average_mu_bruteforce(f, mu, n)]
    order = [2, 0, 1] if mu_first else [0, 1, 2]
    plancherel._MOMENTS.clear()
    for _ in ("cold", "warm"):
        for i in order:
            assert calls[i]() == want[i]


@pytest.fixture
def walks(monkeypatch):
    """The (lo, hi, powers) of every _strict_walk, from an empty memo."""
    monkeypatch.setattr(plancherel, "_MOMENTS", {})
    seen = []
    walk = plancherel._strict_walk

    def counted(lo, hi, powers, steps):
        seen.append((lo, hi, powers))
        return walk(lo, hi, powers, steps)

    monkeypatch.setattr(plancherel, "_strict_walk", counted)
    return seen


def test_a_repeated_call_walks_nothing(walks):
    f = p(3) ** 2 + 5 * p((5, 1))
    mu = StrictPartition((2, 1))
    first = average_bruteforce(f, 14), average_mu_bruteforce(f, mu, 11)
    assert len(walks) == 2
    assert (average_bruteforce(f, 14), average_mu_bruteforce(f, mu, 11)) == first
    assert len(walks) == 2


def test_a_new_monomial_at_a_known_size_walks_once(walks):
    average_bruteforce(p(3) + p(1), 14)
    assert walks == [(14, 14, (3,))]
    # () and p_3 are known: one walk, for p_5 p_3 alone
    average_bruteforce(p(5) * p(3) - 2 * p(3), 14)
    assert walks[1:] == [(14, 14, (3, 5))]
    average_bruteforce(p(5) * p(3) + p((1, 1)), 14)
    assert len(walks) == 2
    # the same nu at another n, or under a mu, is another moment
    average_bruteforce(p(3), 13)
    average_mu_bruteforce(p(3), StrictPartition((1,)), 13)
    assert walks[2:] == [(13, 13, (3,)), (14, 14, (3,))]


def test_the_zero_element_walks_nothing(walks):
    mu = StrictPartition((2, 1))
    assert average_bruteforce(GammaElement.zero(), 9) == 0
    assert average_mu_bruteforce(GammaElement.zero(), mu, 9) == 0
    # p_{1,1} - 2 p_1 folds to 0 at n = 2
    assert average_bruteforce(GammaElement({(1, 1): 1, (1,): -2}), 2) == 0
    assert walks == []


def test_theorems_4_2_and_4_4_walk_about_once_per_mu_and_n(walks):
    # the checks ask for their largest element first, so its walk at each
    # (mu, n) fills the moments of the smaller ones: 80 (mu, n) pairs and
    # 10 values of n, plus 1 and 2 walks at mu = (), n = 0: there p_1 is 0,
    # so a monomial of a smaller element can fold away in the largest
    assert verify.check_deformed_average_constants().ok
    assert len(walks) == 81
    walks.clear()
    plancherel._MOMENTS.clear()
    assert verify.check_product_average_orthogonality().ok
    assert len(walks) == 12


def test_bad_calls_walk_nothing(walks):
    mu = StrictPartition((1,))
    for call in (lambda: average_bruteforce(p(3), -1),
                 lambda: average_mu_bruteforce(p(3), mu, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            call()
    for call in (lambda: average_bruteforce(3, 4),
                 lambda: average_mu_bruteforce(None, mu, 4)):
        with pytest.raises(TypeError):
            call()
    assert walks == []


def test_weighted_shapes_yield_each_shape_once_with_its_weight():
    # the weight is prob_mu(mu, n, lambda) (n + m)! g(mu) / m!, prob at mu
    # empty; power sums p_1..p_4 tell apart the strict partitions of n <= 11
    powers = (1, 2, 3, 4, 7)
    for m in range(4):
        for mu in enumerate_strict(m):
            want = {}
            for n in range(9):
                want[n] = []
                for lam in enumerate_strict(n + m):
                    chance = prob_mu(mu, n, lam) if m else prob(n, lam)
                    if chance:
                        weight = chance * factorial(n + m) * g(mu) / factorial(m)
                        sums = tuple(sum(part**r for part in lam.parts) for r in powers)
                        want[n].append((n, weight, sums))
                assert want[n]
            for lo, hi in [(n, n) for n in range(9)] + [(0, 8), (3, 6)]:
                got = list(plancherel._weighted_shapes(mu, lo, hi, powers, ()))
                assert all(type(weight) is int for _, weight, _ in got)
                assert sorted(got) == sorted(s for n in range(lo, hi + 1)
                                             for s in want[n]), (mu, lo, hi)


# --- symbolic averages -------------------------------------------------------------------


def test_average_symbolic_paper_forms():
    assert average_symbolic(p(3)) == PolynomialInN({2: 3, 1: 1})
    assert average_symbolic(p(5)) == PolynomialInN(
        {3: rat(40, 3), 2: 15, 1: 1}
    )
    assert average_symbolic(p(3) ** 2) == PolynomialInN(
        {4: 9, 3: 54, 2: 31, 1: 1}
    )


def test_average_symbolic_rejects_even_power_sums():
    with pytest.raises(TypeError):
        average_symbolic(OrdinaryPSumExpr.p(2))


def test_symbolic_equals_bruteforce_on_f_set():
    fs = [p(3), p(5), p(3) ** 2, hat_p(1), hat_p(2), hat_p(1) ** 2]
    fs += [frak_p(rho) for k in range(6) for rho in enumerate_odd(k)]
    for f in fs:
        poly = average_symbolic(f)
        assert poly == average_symbolic_frak(f)
        for n in range(7):
            assert poly.evaluate(n) == average_bruteforce(f, n)


def test_mu_symbolic_equals_bruteforce():
    fs = [p(3), hat_p(1), frak_p(OddPartition((3, 1)))]
    for m in range(5):
        for mu in enumerate_strict(m):
            for f in fs:
                poly = average_mu_symbolic(f, mu)
                assert poly == average_mu_symbolic_frak(f, mu)
                for n in range(6):
                    assert poly.evaluate(n) == average_mu_bruteforce(f, mu, n)


@given(strat.gamma_elements(max_degree=7))
def test_interpolation_equals_frak_route(f):
    assert average_symbolic(f) == average_symbolic_frak(f)


@given(strat.gamma_elements(max_degree=7), strat.strict_partitions(max_size=4))
def test_mu_interpolation_equals_frak_route(f, mu):
    assert average_mu_symbolic(f, mu) == average_mu_symbolic_frak(f, mu)


def _seeded_element(seed, max_degree):
    # a few odd power sums of degree <= max_degree, ones included, with
    # seeded rational coefficients; the top degree is hit
    rng = random.Random(seed)
    pool = [rho for k in range(max_degree + 1) for rho in enumerate_odd(k)]
    terms = {rho: rat(rng.randint(-40, 40) or 1, rng.randint(1, 12))
             for rho in rng.sample(pool, 4)}
    top = enumerate_odd(max_degree)
    terms[top[seed % len(top)]] = rat(rng.randint(1, 9), rng.randint(1, 5))
    return GammaElement(terms)


def test_one_walk_equals_the_walk_per_node():
    # all d + 2 interpolation nodes from one walk, against one walk per node
    mus = [mu for m in range(5) for mu in enumerate_strict(m)]
    for seed in range(30):
        f = _seeded_element(seed, 3 + seed % 7)
        assert average_symbolic(f) == oracle_average_symbolic(f), seed
        mu = mus[seed % len(mus)]
        assert average_mu_symbolic(f, mu) == oracle_average_mu_symbolic(f, mu), seed


def test_interpolation_rejects_non_polynomial_values():
    # E_n[p_2] at n = 0..3 (section 7.2) fits no quadratic: Delta^3 = -4/3,
    # named unscaled when the nodes are given as 3 E_n
    p2 = OrdinaryPSumExpr.p(2)
    values = [int(3 * average_bruteforce(p2, n)) for n in range(4)]
    with pytest.raises(ArithmeticError, match=r"Delta\^3 = -4/3$"):
        _interpolate(values, 3)


@pytest.mark.parametrize("mu", [(), (3, 1)])
def test_a_bad_node_names_the_unscaled_difference(monkeypatch, mu):
    # one extra shape at the check node n = 4 of p_3, of weight 1 and with
    # p_3 = 5, moves E(4) and so Delta^4 E(0) by 5 m! / ((4 + m)! g(mu))
    mu = StrictPartition(mu)
    walk = plancherel._weighted_shapes

    def with_a_bad_node(mu, lo, hi, powers, steps):
        yield from walk(mu, lo, hi, powers, steps)
        yield hi, 1, (5,)

    monkeypatch.setattr(plancherel, "_weighted_shapes", with_a_bad_node)
    m = mu.size
    moved = rat(5 * factorial(m), factorial(4 + m) * g(mu))
    with pytest.raises(ArithmeticError, match=rf"node gives Delta\^4 = {moved}$"):
        average_mu_symbolic(p(3), mu)


def test_mu_symbolic_with_empty_mu_matches_plain():
    empty = StrictPartition(())
    for f in [p(3), p(5), hat_p(1) ** 2]:
        assert average_mu_symbolic(f, empty) == average_symbolic(f)


def test_deformed_average_constancy():
    # E_{mu,n}[fp_rho] = fp_rho(mu) for m1-free rho, independent of n
    rhos = [OddPartition(()), OddPartition((3,)), OddPartition((5,)),
            OddPartition((3, 3)), OddPartition((7,))]
    for m in range(5):
        for mu in enumerate_strict(m):
            for rho in rhos:
                constant = frak_p_eval(rho, mu)
                element = frak_p(rho)
                for n in range(6):
                    assert average_mu_bruteforce(element, mu, n) == constant


def test_frak_p_3_mu_21_average_is_minus_12():
    poly = average_mu_symbolic(frak_p(OddPartition((3,))), StrictPartition((2, 1)))
    assert poly == PolynomialInN.constant(-12)


def test_product_average_examples():
    three = OddPartition((3,))
    five = OddPartition((5,))
    assert product_average_check(three, three) == PolynomialInN({3: 12})
    assert product_average_check(three, five) == PolynomialInN.zero()
    empty = OddPartition(())
    assert product_average_check(empty, empty) == PolynomialInN.constant(1)
    assert product_average_closed_form(three) == PolynomialInN({3: 12})
    with pytest.raises(ValueError):
        product_average_check(OddPartition((3, 1)), three)


@given(strat.gamma_elements(max_degree=7))
def test_degree_bound(f):
    # deg of E_n[f] at most deg1(f)/2
    poly = average_symbolic(f)
    if f.is_zero():
        assert poly.is_zero()
    else:
        bound = deg1(expand_gamma_in_frak(f)) / 2
        assert poly.degree() <= bound
