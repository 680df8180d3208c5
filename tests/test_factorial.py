import pytest
from hypothesis import given

import strategies as strat
from recursive_oracle import oracle_exterior_power, oracle_p_star
from superq.factorial import (
    _by_partition,
    _s_system,
    _sweep,
    _t_system,
    _through,
    expand_in_pstar,
    normalize_index,
    p_star,
    p_star_eval,
    p_to_pstar_coeffs,
    psi_iso,
    psi_iso_inverse,
)
from superq.gamma import GammaElement, SparseTerms, add_scaled
from superq.partitions import (
    StrictPartition,
    _stirling1_row,
    _stirling2_row,
    enumerate_strict,
)
from superq.rational import rat
from superq.schurq import character_table, expand_in_P, p_fn

p = GammaElement.p


def test_normalize_index_examples():
    mu, sign = normalize_index((1, 3))
    assert (mu, sign) == (StrictPartition((3, 1)), -1)
    assert normalize_index((2, 2)) == (None, 0)
    mu, sign = normalize_index((3, 1))
    assert (mu, sign) == (StrictPartition((3, 1)), 1)
    assert normalize_index(()) == (StrictPartition(()), 1)
    mu, sign = normalize_index((1, 2, 3))
    assert (mu, sign) == (StrictPartition((3, 2, 1)), -1)  # odd permutation
    with pytest.raises(ValueError):
        normalize_index((0, 1))


def test_sweep_equals_the_walk_over_index_tuples():
    shapes = [lam for n in range(17) for lam in enumerate_strict(n)]
    shapes += [StrictPartition((9, 8, 7, 6, 5, 4, 3)), StrictPartition((12, 10, 8, 6, 4, 2))]
    for lam in shapes:
        for row in (_stirling1_row, _stirling2_row):
            assert _by_partition(_sweep(lam, row)) == oracle_exterior_power(lam, row), lam


def test_forward_expansion_is_unitriangular():
    for n in range(9):
        for lam in enumerate_strict(n):
            coeffs = p_to_pstar_coeffs(lam)
            assert coeffs[lam] == 1
            for nu in coeffs:
                assert nu.size <= lam.size
                assert nu.length == lam.length


def test_p_star_examples():
    assert p_star(StrictPartition((1,))) == p(1)
    assert p_star(StrictPartition((2,))) == p((1, 1)) - p(1)
    expected = (
        rat(1, 3) * p(3)
        + rat(2, 3) * p((1, 1, 1))
        - 3 * p((1, 1))
        + 2 * p(1)
    )
    assert p_star(StrictPartition((3,))) == expected
    assert p_star(StrictPartition(())) == GammaElement.one()


def test_p_star_equals_recursive_inversion():
    # the s-system closed form against the recursive inversion of the T-system
    for m in range(11):
        for mu in enumerate_strict(m):
            assert p_star(mu) == oracle_p_star(mu)


def test_p_star_equals_the_sum_of_p_fn_over_the_s_system():
    # the row combination against one Rat term of P_nu at a time
    for m in range(17):
        for mu in enumerate_strict(m):
            out: dict = {}
            for nu, s in oracle_exterior_power(mu, _stirling1_row).items():
                add_scaled(out, p_fn(nu), s)
            assert p_star(mu) == GammaElement._wrap(out), mu


def _count_sparse_terms(monkeypatch):
    # the number of SparseTerms built, by __init__ or by _wrap, from now on
    built = [0]
    init, wrap = SparseTerms.__init__, SparseTerms._wrap.__func__

    def counted_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def counted_wrap(cls, coeffs):
        built[0] += 1
        return wrap(cls, coeffs)

    monkeypatch.setattr(SparseTerms, "__init__", counted_init)
    monkeypatch.setattr(SparseTerms, "_wrap", classmethod(counted_wrap))
    return built


def test_psi_and_p_star_build_no_element_per_term(monkeypatch):
    # with tables warm, each builds one element per degree of its input, from
    # expand_in_P's homogeneous_split, and its result
    f = p(3) ** 6 * p(5)
    for k in range(f.degree() + 1):
        character_table(k)
    image = psi_iso(f)
    bounds = [len(f.homogeneous_split()) + 1, len(image.homogeneous_split()) + 1, 1]
    p_star.cache_clear()
    built = _count_sparse_terms(monkeypatch)
    counts = []
    for call, arg in [(psi_iso, f), (psi_iso_inverse, image),
                      (p_star, StrictPartition((9, 7, 4, 2)))]:
        built[0] = 0
        call(arg)
        counts.append(built[0])
    assert all(c <= b for c, b in zip(counts, bounds)), (counts, bounds)


def test_through_sums_integers_over_one_denominator():
    # both systems sum int numerators, and over the one denominator they give
    # Psi(f) (the s-system) and the P*-coefficients of f (the T-system); the
    # P-coefficients of f in degree 11 have lengths 1 to 3
    f = rat(1, 3) * p(3) ** 2 * p(5) - rat(5, 4) * p((1, 1)) + rat(2, 7) * p(1)
    image: dict = {}
    for lam, c in expand_in_P(f).items():
        add_scaled(image, p_star(lam), c)
    for system, build, want in [
            (_s_system, p_fn, image),
            (_t_system, p_star, f._coeffs)]:
        sums, denom = _through(system, f)
        assert denom > 1 and sums
        assert all(type(b) is int for b in sums.values())
        out: dict = {}
        for mu, b in sums.items():
            add_scaled(out, build(mu), rat(b, denom))
        assert out == want
    # the T-system ran last: expand_in_pstar divides its sums once
    assert expand_in_pstar(f) == {mu: rat(b, denom) for mu, b in sums.items()}
    assert psi_iso(f) == GammaElement._wrap(image)
    assert psi_iso_inverse(psi_iso(f)) == f


def test_p_star_eval_examples():
    assert p_star_eval(StrictPartition((3,)), StrictPartition((2, 1))) == 0
    for n in range(7):
        for lam in enumerate_strict(n):
            assert p_star_eval(StrictPartition((1,)), lam) == lam.size
    assert p_star_eval(StrictPartition((2, 1)), StrictPartition((2, 1))) == 6


def test_two_routes_agree():
    # triangular-solve element evaluated at lam == closed form (eq with g-ratio)
    mus = [mu for m in range(9) for mu in enumerate_strict(m)]
    for mu in mus:
        element = p_star(mu)
        for n in range(9):
            for lam in enumerate_strict(n):
                assert element.evaluate(lam) == p_star_eval(mu, lam)


def test_top_degree_term_is_schur_p():
    # P*_mu - P_mu has degree < |mu|
    for m in range(9):
        for mu in enumerate_strict(m):
            difference = p_star(mu) - p_fn(mu)
            assert difference.degree() < mu.size


def test_transition_matrix_unitriangular():
    # expanding P*_mu in the P-basis: coefficient of P_mu is 1 and the rest
    # live in strictly smaller degree
    from superq.schurq import expand_in_P

    for m in range(9):
        for mu in enumerate_strict(m):
            coeffs = expand_in_P(p_star(mu))
            assert coeffs[mu] == 1
            assert all(nu == mu or nu.size < mu.size for nu in coeffs)


def test_psi_iso_examples():
    assert psi_iso(p(1)) == p(1)
    assert psi_iso(p((1, 1))) == p((1, 1)) - p(1)
    assert psi_iso(GammaElement.one()) == GammaElement.one()
    three = StrictPartition((3,))
    assert psi_iso_inverse(p_star(three)) == p_fn(three)


def test_psi_iso_maps_p_to_pstar_basiswise():
    for m in range(10):
        for mu in enumerate_strict(m):
            assert psi_iso(p_fn(mu)) == p_star(mu)
            assert psi_iso_inverse(p_star(mu)) == p_fn(mu)


@given(strat.gamma_elements(max_degree=7))
def test_psi_iso_round_trip(f):
    assert psi_iso_inverse(psi_iso(f)) == f
    assert psi_iso(psi_iso_inverse(f)) == f
