"""Shifted Plancherel measures, exact brute-force averages, and symbolic
averages as polynomials in n.

``PolynomialInN`` stores a polynomial in the symbol n in the falling-
factorial basis n^(j) = n(n-1)...(n-j+1) with exact rational coefficients;
monomial and binomial C(n, j) renderings are exact, invertible views.

Brute-force averages run in integers, and E_n is the deformed average
E_{mu,n} at mu = empty, so one body serves both.  f is written as
(1/D) sum_mu a_mu p_mu with D the lcm of its coefficient denominators, and
p_1, which is |lambda| = n + m on every shape summed over (m = |mu|), is
folded into the coefficients: a_mu p_mu becomes a_mu |lambda|^{m_1(mu)}
p_{mu~}.  Since the average is linear in f,

    E_{mu,n}[f] = m! sum_nu a_nu M(mu, n, nu) / (D (n + m)! g(mu))

over the ones-free monomials nu of the folded f, with the integer moment
M(mu, n, nu) = sum over strict lambda of n + m containing mu of
w_mu(lambda) p_nu(lambda) and the weight
w_mu(lambda) = 2^{n - l(lambda) + l(mu)} g(lambda) g^{lambda/mu}.  At mu
empty, g^{lambda/mu} = g(lambda): w is 2^{n - l(lambda)} g(lambda)^2 and
the division is by D n!.  The weight is computed in one place,
``_weighted_shapes``, from one walk over the strict partitions
(``partitions._strict_walk``), which grows g(lambda) and the power sums a
part at a time, shared along prefixes, and for mu nonempty from one
forward sweep of skew counts on bitmask keys (``partitions._skew_layers``),
read by the walk through the same keys.  The moments live in one dict for
the life of the process, one int per (mu, n, nu), E_n stored as mu empty;
a call walks only when it needs a nu that is missing, and then fills every
missing nu of its size in one walk.  The oracles stay: in the tests, the
per-lambda sums of ``prob`` (or ``prob_mu``) times ``f.evaluate(lambda)``,
and for the sweep the corner-removal recursion.

Symbolic averages rest on the paper's polynomiality theorem: E_n[f] and
E_{mu,n}[f] are polynomials in n of degree at most d = deg f.  So the exact
brute-force values at n = 0..d determine them, and Newton forward
differences give the falling-factorial coefficients c_j = Delta^j E(0) / j!.
One more value, at n = d + 1, is a check: Delta^{d+1} E(0) must vanish.
All d + 2 nodes come from one walk, ``_weighted_shapes`` over n = 0..d + 1,
in which every prefix is itself a shape of a smaller node: f is written in
integers once per call, p_1 = n + m is folded in per node, and each shape
adds to the total of its own node.  These walks neither read nor fill the
moments: through moments, each node would pay one multiply by the weight
per monomial instead of one per shape, and nothing would be reused.  A
version that read each node from the moments made the timed section of the
``frak`` benchmark workload 26% slower (7.9 -> 10.0 ms, medians of 30
alternating cold runs, slower in all 30; a 2-vCPU Xeon VM, Python 3.11).
So a single n goes through moments and a range of nodes does not.  One
brute-force average per node, kept in the tests, is the oracle of the one
walk.

The independent routes (``*_frak``) are the oracles for tests and ``superq
verify``.  E_n reads the P*-coefficients of f = sum_mu b_mu P*_mu
(``expand_in_pstar``) through E_n[P*_mu] = 2^{|mu| - l(mu)} g(mu) / |mu|! *
n^(|mu|), and E_{mu,n} sends each frak_p(rho) of the frak-p expansion to
(n + |mu| - |rho-tilde|)^(m_1(rho)) * frak_p(rho-tilde)(mu).
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from itertools import islice
from math import comb, factorial, lcm

from .content import OrdinaryPSumExpr
from .factorial import expand_in_pstar
from .frakp import expand_gamma_in_frak, frak_p, frak_p_eval, tilde
from .gamma import GammaElement, SparseTerms, add_into
from .partitions import (
    EMPTY_STRICT,
    OddPartition,
    StrictPartition,
    _skew_layers,
    _stirling1_row,
    _stirling2_row,
    _strict_walk,
    falling,
    g,
    g_skew,
    newton_differences,
    z,
)
from .rational import Rat, ZERO, parse_rat, rat, rat_str


class PolynomialInN(SparseTerms):
    """Polynomial in the symbol n, stored in the falling-factorial basis."""

    __slots__ = ()
    _key = int
    _symbol = "n^({})"
    _sort_key = staticmethod(operator.neg)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "PolynomialInN":
        return cls({0: c})

    @classmethod
    def n(cls) -> "PolynomialInN":
        return cls({1: 1})

    @classmethod
    def from_falling(cls, coeffs: Mapping) -> "PolynomialInN":
        return cls(coeffs)

    @classmethod
    def from_monomial(cls, coeffs: Mapping) -> "PolynomialInN":
        out: dict[int, Rat] = {}
        for m, c in coeffs.items():
            c = rat(c)
            for j, t in enumerate(_stirling2_row(int(m))):
                if t:
                    add_into(out, j, c * t)
        return cls._wrap(out)

    @classmethod
    def from_binomial(cls, coeffs: Mapping) -> "PolynomialInN":
        return cls({int(j): rat(c) * rat(1, factorial(int(j)))
                    for j, c in coeffs.items()})

    @classmethod
    def coerce(cls, value) -> "PolynomialInN":
        if isinstance(value, cls):
            return value
        return cls.constant(value)

    # -- views -----------------------------------------------------------------

    def falling_coeffs(self) -> dict[int, Rat]:
        return dict(self._coeffs)

    def monomial_coeffs(self) -> dict[int, Rat]:
        out: dict[int, Rat] = {}
        for j, c in self._coeffs.items():
            for m, t in enumerate(_stirling1_row(j)):
                if t:
                    add_into(out, m, c * t)
        return out

    def binomial_coeffs(self) -> dict[int, Rat]:
        return {j: c * factorial(j) for j, c in self._coeffs.items()}

    def degree(self) -> int:
        """Polynomial degree; -1 for the zero polynomial."""
        return max(self._coeffs, default=-1)

    def evaluate(self, n: int) -> Rat:
        return sum((c * falling(n, j) for j, c in self._coeffs.items()),
                   start=ZERO)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return super().__add__(self.coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self.coerce(other))

    def __rsub__(self, other):
        return self.coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, PolynomialInN):
            return self._scale(other)
        b = other.monomial_coeffs()
        prod: dict[int, Rat] = {}
        for ma, ca in self.monomial_coeffs().items():
            for mb, cb in b.items():
                add_into(prod, ma + mb, ca * cb)
        return PolynomialInN.from_monomial(prod)

    __rmul__ = __mul__

    # -- rendering and JSON -------------------------------------------------------

    @staticmethod
    def _name(j: int, symbol: str) -> str:
        # symbol is a template for n^(j), j >= 2, such as "n^({})".
        return "" if j == 0 else "n" if j == 1 else symbol.format(j)

    def to_json_obj(self) -> dict:
        """All three exact views, keys descending, rationals as strings."""

        def render(mapping):
            return {str(k): rat_str(v)
                    for k, v in sorted(mapping.items(), reverse=True)}

        return {
            "falling": render(self._coeffs),
            "monomial": render(self.monomial_coeffs()),
            "binomial": render(self.binomial_coeffs()),
        }

    @classmethod
    def from_json_obj(cls, obj) -> "PolynomialInN":
        """Inverse of ``to_json_obj``, read from its "falling" view: a
        mapping from degrees in ASCII digits to rational literals."""
        falling = obj.get("falling") if isinstance(obj, dict) else None
        if not isinstance(falling, dict):
            raise ValueError(f'expected {{"falling": {{degree: coeff}}}}, got {obj!r}')
        pairs = []
        for j, c in falling.items():
            if not (isinstance(j, str) and j.isascii() and j.isdigit()
                    and isinstance(c, str)):
                raise ValueError(f"bad falling term {j!r}: {c!r}")
            pairs.append((int(j), parse_rat(c)))
        return cls(pairs)


def falling_shifted(shift: int, k: int) -> PolynomialInN:
    """(n + shift)^(k) expanded exactly in the n^(j) basis, by Vandermonde:
    sum_j C(k, j) shift^(k-j) n^(j)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return PolynomialInN({j: comb(k, j) * falling(shift, k - j) for j in range(k + 1)})


# --- measures ----------------------------------------------------------------


def prob(n: int, lam: StrictPartition) -> Rat:
    """P_n(lambda) = 2^{n - l(lambda)} (g^lambda)^2 / n!."""
    if lam.size != n:
        raise ValueError(f"|lambda| = {lam.size} but n = {n}")
    return rat(2 ** (n - lam.length) * g(lam) ** 2, factorial(n))


def prob_mu(mu: StrictPartition, n: int, lam: StrictPartition) -> Rat:
    """P_{mu,n}(lambda); zero unless the diagram of mu sits inside lambda."""
    m = mu.size
    if lam.size != n + m:
        raise ValueError(f"|lambda| = {lam.size} but n + |mu| = {n + m}")
    skew = g_skew(lam, mu)
    if skew == 0:
        return rat(0)
    numer = factorial(m) * 2 ** (n - lam.length + mu.length) * g(lam) * skew
    return rat(numer, factorial(n + m) * g(mu))


# --- averages ----------------------------------------------------------------


def _integer_form(f) -> tuple[int, list[tuple[tuple, int, int]]]:
    """(D, [(parts of mu~, m_1(mu), a)]) with f = (1/D) sum a p_mu, where D
    is the lcm of the coefficient denominators and every a is a nonzero
    integer; mu~ is mu without its 1s."""
    if not isinstance(f, (GammaElement, OrdinaryPSumExpr)):
        raise TypeError(
            "brute-force averages need a GammaElement or an OrdinaryPSumExpr, "
            f"got {type(f).__name__}"
        )
    denom = lcm(*(c.denominator for c in f._coeffs.values()))
    terms = []
    for mu, c in f._coeffs.items():
        ones = mu.parts.count(1)
        terms.append((mu.parts[:len(mu.parts) - ones], ones,
                      c.numerator * (denom // c.denominator)))
    return denom, terms


def _fold(terms, size: int) -> list[tuple[tuple, int]]:
    """[(parts of mu~, a)] with sum a p_{mu~} equal to the sum of the terms
    of ``_integer_form`` on every strict partition of ``size``.

    p_1 is the size of every such partition, so a p_mu folds into
    (a size^{m_1(mu)}) p_{mu~}; terms with the same mu~ are merged and zeros
    dropped.
    """
    folded: dict[tuple, int] = {}
    for parts, ones, a in terms:
        add_into(folded, parts, a * size**ones)
    return list(folded.items())


def _powers(nus) -> tuple:
    # the r of every p_r that the monomials nus read, ascending
    return tuple(sorted({r for nu in nus for r in nu}))


def _weighted_shapes(mu: StrictPartition, lo: int, hi: int, powers: tuple):
    """(n, w_mu(lambda), (p_r(lambda) for r in powers)) for every strict
    lambda of size n + |mu| that contains mu, lo <= n <= hi: the one place
    the weight of the module docstring is computed.  At mu empty it is the
    weight of E_n, with no sweep; otherwise the skew counts of the sizes
    lo..hi share one dict, since a mask is one shape."""
    m = mu.size
    walk = _strict_walk(lo + m, hi + m, powers)
    if not m:
        for n, _, length, count, sums in walk:
            yield n, count * count << (n - length), sums
        return
    skews = {}
    for layer in islice(_skew_layers(mu, hi), lo, None):
        skews.update(layer)
    shift = mu.length - m
    for size, mask, length, count, sums in walk:
        skew = skews.get(mask)
        if skew:
            yield size - m, count * skew << (size + shift - length), sums


def _normalise(total: int, denom: int, mu: StrictPartition, n: int) -> Rat:
    # E_{mu,n} (E_n at mu empty) of the f whose integer form has denominator
    # denom and whose weighted total at n is total; at mu empty g(mu) is 1
    m = mu.size
    return rat(total * factorial(m), denom * factorial(n + m) * (g(mu) if m else 1))


# (mu.parts, n, nu) -> M(mu, n, nu), the integer moment of the module
# docstring; E_n is stored as mu = ().  Kept for the life of the process.
_MOMENTS: dict[tuple[tuple, int, tuple], int] = {}


def _moments(mu: StrictPartition, n: int, nus: list[tuple]) -> list[int]:
    """[M(mu, n, nu) for nu in nus], with one walk that fills every nu
    missing from ``_MOMENTS`` and none when all are there."""
    missing = [nu for nu in nus if (mu.parts, n, nu) not in _MOMENTS]
    if missing:
        powers = _powers(missing)
        index = {r: i for i, r in enumerate(powers)}
        rows = [[index[r] for r in nu] for nu in missing]
        totals = [0] * len(rows)
        for _, weight, sums in _weighted_shapes(mu, n, n, powers):
            for j, row in enumerate(rows):
                value = 1
                for i in row:
                    value *= sums[i]
                totals[j] += weight * value
        for nu, total in zip(missing, totals):
            _MOMENTS[mu.parts, n, nu] = total
    return [_MOMENTS[mu.parts, n, nu] for nu in nus]


def _bruteforce(f, mu: StrictPartition, n: int) -> Rat:
    # E_{mu,n}[f] (E_n at mu empty): sum_nu a_nu M(mu, n, nu) over the
    # folded integer form of f, divided once
    if n < 0:
        raise ValueError("n must be nonnegative")
    denom, terms = _integer_form(f)
    folded = _fold(terms, n + mu.size)
    moments = _moments(mu, n, [nu for nu, _ in folded])
    total = sum(a * moment for (_, a), moment in zip(folded, moments))
    return _normalise(total, denom, mu, n)


def average_bruteforce(f, n: int) -> Rat:
    """E_n[f] summed over all strict partitions of n, in integers.

    f is a ``GammaElement`` or an ``OrdinaryPSumExpr`` (even parts allowed),
    written as (1/D) sum_nu a_nu p_nu with integer a_nu, and p_1 = n folded
    into the coefficients.  The total sum_nu a_nu M(empty, n, nu) reads the
    integer moments M = sum_lambda 2^{n - l(lambda)} g(lambda)^2 p_nu(lambda),
    and the one division is by D * n!.  The moments are kept for the life
    of the process, one int per (empty, n, nu), so a walk over the strict
    partitions of n (``partitions._strict_walk``) runs only for the nu that
    no earlier call at n needed.  The per-lambda route
    sum_lambda prob(n, lambda) * f.evaluate(lambda) is the test oracle.
    """
    return _bruteforce(f, EMPTY_STRICT, n)


def average_mu_bruteforce(f, mu: StrictPartition, n: int) -> Rat:
    """E_{mu,n}[f] summed over all strict partitions of n + |mu|, in integers.

    As ``average_bruteforce``, with p_1 = n + m folded in, the moments under
    the weight 2^{n - l(lambda) + l(mu)} g(lambda) g^{lambda/mu}, kept one int
    per (mu, n, nu) for the life of the process, and the one division by
    D * (n + m)! * g(mu) / m!, m = |mu|.  A walk that fills missing moments
    reads the skew counts of every lambda from one forward sweep on bitmask
    keys (``skew_counts``), matched to the walk by the same keys.  The
    per-lambda route through ``prob_mu`` is the test oracle.
    """
    return _bruteforce(f, mu, n)


def _require_gamma(f):
    if not isinstance(f, GammaElement):
        raise TypeError(
            "symbolic averages are defined only for supersymmetric functions "
            "(odd power-sum elements); even power sums have no polynomial "
            "average and must go through average_bruteforce"
        )


def _interpolate(values: list) -> PolynomialInN:
    """The polynomial of degree <= d through values E(0), ..., E(d + 1):
    c_j = Delta^j E(0) / j!, and E(d + 1) is the degree-check node."""
    diffs = newton_differences(values, "averages at n = 0..d + 1")
    return PolynomialInN({j: rat(c, factorial(j)) for j, c in enumerate(diffs)})


def _symbolic(f, mu: StrictPartition) -> PolynomialInN:
    """E_{mu,n}[f] (E_n at mu empty) interpolated from its values at the
    nodes n = 0..d + 1, d = deg f, all from one walk: each shape adds
    w_mu(lambda) sum_nu a_nu p_nu(lambda) to the total of its own node, with
    the a_nu folded at that node (``_fold``)."""
    _require_gamma(f)
    hi = max(f.degree(), 0) + 1
    denom, terms = _integer_form(f)
    powers = _powers(parts for parts, _, _ in terms)
    index = {r: i for i, r in enumerate(powers)}
    monomials = [[(a, [index[r] for r in nu]) for nu, a in _fold(terms, n + mu.size)]
                 for n in range(hi + 1)]
    totals = [0] * (hi + 1)
    for n, weight, sums in _weighted_shapes(mu, 0, hi, powers):
        value = 0
        for a, nu in monomials[n]:
            for i in nu:
                a *= sums[i]
            value += a
        totals[n] += weight * value
    return _interpolate([_normalise(total, denom, mu, n)
                         for n, total in enumerate(totals)])


def average_symbolic(f: GammaElement) -> PolynomialInN:
    """E_n[f] as an exact polynomial, interpolated from brute force.

    With d = deg f, Newton forward differences of average_bruteforce at
    n = 0..d give the falling-factorial coefficients; the value at n = d + 1
    checks the polynomiality theorem.  ``average_symbolic_frak``, read off
    the P*-coefficients of f, is the independent route.
    """
    return _symbolic(f, EMPTY_STRICT)


def average_mu_symbolic(f: GammaElement, mu: StrictPartition) -> PolynomialInN:
    """E_{mu,n}[f] as an exact polynomial in n, interpolated from brute force.

    As ``average_symbolic``, from average_mu_bruteforce at n = 0..d + 1;
    ``average_mu_symbolic_frak`` is the independent route.
    """
    return _symbolic(f, mu)


def average_symbolic_frak(f: GammaElement) -> PolynomialInN:
    """E_n[f] as an exact polynomial, read off the P*-coefficients of f:
    f = sum_mu b_mu P*_mu averages to
    sum_mu b_mu 2^{|mu| - l(mu)} g(mu) / |mu|! * n^(|mu|)."""
    _require_gamma(f)
    coeffs: dict[int, Rat] = {}
    for mu, b in expand_in_pstar(f).items():
        m = mu.size
        add_into(coeffs, m, b * rat(2 ** (m - mu.length) * g(mu), factorial(m)))
    return PolynomialInN._wrap(coeffs)


def average_mu_symbolic_frak(f: GammaElement, mu: StrictPartition) -> PolynomialInN:
    """E_{mu,n}[f] as an exact polynomial in n, through the frak-p expansion."""
    _require_gamma(f)
    expansion = expand_gamma_in_frak(f)
    m = mu.size
    total = PolynomialInN.zero()
    for rho, a in expansion.items():
        rho_t, m1 = tilde(rho)
        value = frak_p_eval(rho_t, mu)
        if not value:
            continue
        total = total + (a * value) * falling_shifted(m - rho_t.size, m1)
    return total


def product_average_closed_form(rho: OddPartition) -> PolynomialInN:
    """The closed form 2^{|rho| - l(rho)} z_rho n^(|rho|) of the product average."""
    return PolynomialInN(
        {rho.size: rat(2 ** (rho.size - rho.length) * z(rho))}
    )


def product_average_check(rho: OddPartition, sigma: OddPartition) -> PolynomialInN:
    """E_n[frak_p(rho) frak_p(sigma)] computed through the frak-p route.

    Contract: equals product_average_closed_form(rho) when rho == sigma and the zero
    polynomial otherwise.  Both arguments must have no part equal to 1.
    """
    if rho.multiplicity(1) or sigma.multiplicity(1):
        raise ValueError("product averages require m_1(rho) = m_1(sigma) = 0")
    return average_symbolic_frak(frak_p(rho) * frak_p(sigma))
