"""Content evaluations on shifted diagrams.

For a box with content c the quantity c-hat = c(c+1)/2 plays the role the
ordinary content plays for unshifted diagrams.  The supersymmetric function
hat_p(k) agrees with lambda -> sum of c-hat^k over the diagram; it is built
constructively: the telescoping identity

    p_{2m+1}(lambda) = sum_box [(c+1)^{2m+1} - c^{2m+1}]

is rewritten through Y = c(c+1) (every polynomial with R(X) = R(-X-1) is a
polynomial in Y), giving a unitriangular system that is solved upward.
The corner alternating sums psi_k of Han-Xiong live here too, both as
direct corner sums and as explicit odd power-sum combinations, together
with the generating-series identity relating them.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from math import comb, factorial

from .gamma import GammaElement, SparseTerms, _power_sum_value, add_scaled
from .partitions import (
    Cell,
    OrdinaryPartition,
    StrictPartition,
    inner_corners,
    outer_corners,
    shifted_cells,
)
from .rational import Rat, ZERO, ONE, rat


def c_hat(cell: Cell) -> Rat:
    """c-hat = c(c+1)/2 for the box's content c = col - row."""
    c = cell.content
    return rat(c * (c + 1), 2)


# --- one-variable exact polynomials (dense, low to high) ---------------------


def _poly_trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return _poly_trim(
        (a[i] if i < len(a) else ZERO) + (b[i] if i < len(b) else ZERO)
        for i in range(n)
    )


def _poly_mul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _poly_trim(out)


def _poly_scale(a, s):
    return _poly_trim(c * s for c in a)


def _poly_compose(a, inner):
    # a(inner(X)) by Horner from the top coefficient down.
    out = ()
    for c in reversed(a):
        out = _poly_add(_poly_mul(out, inner), (c,))
    return out


class EvenPolynomial:
    """A polynomial R(X) satisfying R(X) = R(-X-1), checked on construction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = _poly_trim(rat(c) for c in coeffs)
        reflected = _poly_compose(coeffs, (rat(-1), rat(-1)))
        if coeffs != reflected:
            raise ValueError("polynomial does not satisfy R(X) = R(-X-1)")
        self.coeffs = coeffs


def rewrite_XY(R: EvenPolynomial) -> tuple[Rat, ...]:
    """Rewrite R(X) as a polynomial in Y = X(X+1) (low to high coefficients).

    Expands R around X = -1/2 (odd powers cancel exactly) and substitutes
    (X + 1/2)^2 = Y + 1/4.
    """
    shifted = _poly_compose(R.coeffs, (rat(-1, 2), ONE))  # S(T) = R(T - 1/2)
    for odd_coeff in shifted[1::2]:
        if odd_coeff:
            raise ValueError("odd powers did not cancel; input was not even")
    out = ()
    y_plus_quarter = (rat(1, 4), ONE)
    power = (ONE,)
    for j in range(0, len(shifted), 2):
        out = _poly_add(out, _poly_scale(power, shifted[j]))
        power = _poly_mul(power, y_plus_quarter)
    return out


@cache
def hat_p(k: int) -> GammaElement:
    """The supersymmetric function with hat_p(k)(lambda) = sum c-hat^k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return GammaElement.p(1)
    # (X+1)^{2k+1} - X^{2k+1} rewritten in Y has top coefficient 2k+1:
    # p_{2k+1} = sum_{r<=k} alpha_r 2^r hat_p(r).
    binom = [rat(comb(2 * k + 1, i)) for i in range(2 * k + 2)]
    binom[-1] = ZERO  # subtract X^{2k+1}
    alpha = rewrite_XY(EvenPolynomial(binom))
    acc = GammaElement.p(2 * k + 1)
    for r in range(k):
        if alpha[r]:
            acc = acc - (alpha[r] * 2**r) * hat_p(r)
    return acc * rat(1, 2**k * (2 * k + 1))


class OrdinaryPSumExpr(SparseTerms):
    """An ordinary symmetric function in its power-sum expansion.

    Keys are ordinary partitions mu, so even power sums are allowed; the
    term for mu stands for p_{mu_1} p_{mu_2} ...  Evaluating at a strict
    partition substitutes the parts themselves (this is the extended
    evaluator used for the E_n[p_2] experiment, outside Gamma).
    """

    __slots__ = ()
    _key = OrdinaryPartition

    @classmethod
    def p(cls, k: int) -> "OrdinaryPSumExpr":
        return cls({(k,): 1})

    def evaluate_at(self, values) -> Rat:
        """Evaluate with the given finite multiset substituted for x_1, x_2, ..."""
        return _power_sum_value(self._coeffs, list(values))

    def evaluate(self, lam: StrictPartition) -> Rat:
        return _power_sum_value(self._coeffs, lam.parts)


def hat_F(F: OrdinaryPSumExpr) -> GammaElement:
    """The supersymmetric function agreeing with F evaluated at the c-hats."""
    out: dict = {}
    for mu, c in F.items():
        term = GammaElement.one()
        for k in mu.parts:
            term = term * hat_p(k)
        add_scaled(out, term, c)
    return GammaElement._wrap(out)


def hat_F_eval_direct(F: OrdinaryPSumExpr, lam: StrictPartition) -> Rat:
    """Brute-force oracle: specialize F at the c-hat values of the diagram."""
    return F.evaluate_at(c_hat(cell) for cell in shifted_cells(lam))


# --- the corner functions psi_k ------------------------------------------------


def psi_direct(k: int, lam: StrictPartition) -> Rat:
    """Alternating corner sum of {c(c+1)}^k: inner corners minus outer."""
    if k < 1:
        raise ValueError("k must be positive")
    total = ZERO
    for cell in inner_corners(lam):
        c = cell.content
        total += rat(c * (c + 1)) ** k
    for cell in outer_corners(lam):
        c = cell.content
        total -= rat(c * (c + 1)) ** k
    return total


@cache
def psi(k: int) -> GammaElement:
    """psi_k as an element of Gamma: 2 sum over odd s <= k of C(k,s) p_{2k-s}."""
    if k < 1:
        raise ValueError("k must be positive")
    return GammaElement({(2 * k - s,): 2 * comb(k, s) for s in range(1, k + 1, 2)})


# --- truncated power series in u (exact, list index = power) --------------------


def _series_mul(a, b, order):
    out = [ZERO] * (order + 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if cb:
                out[i + j] += ca * cb
    return out


def _series_geometric(ratio, order):
    # 1 / (1 - ratio*u) truncated.
    out = [ONE]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return out


def _series_exp(s, order):
    # exp(s) for a series with zero constant term, truncated.
    out = [ONE] + [ZERO] * order
    power = [ONE] + [ZERO] * order
    for j in range(1, order + 1):
        power = _series_mul(power, s, order)
        inv_fact = rat(1, factorial(j))
        for i in range(order + 1):
            if power[i]:
                out[i] += power[i] * inv_fact
    return out


def phi_series_check(lam: StrictPartition, order: int) -> bool:
    """Check, coefficientwise to the given order, that

    prod_i (1 - lam_i(lam_i - 1) u) / (1 - lam_i(lam_i + 1) u)
        = exp(sum_k u^k psi_k(lambda) / k).
    """
    if order < 1:
        raise ValueError("order must be positive")
    lhs = [ONE] + [ZERO] * order
    for part in lam.parts:
        numer = [ONE, rat(-part * (part - 1))]
        lhs = _series_mul(lhs, numer, order)
        lhs = _series_mul(lhs, _series_geometric(rat(part * (part + 1)), order), order)
    log_rhs = [ZERO] + [psi_direct(k, lam) * rat(1, k) for k in range(1, order + 1)]
    rhs = _series_exp(log_rhs, order)
    return lhs == rhs
