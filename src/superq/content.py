"""Content evaluations on shifted diagrams.

For a box with content c the quantity c-hat = c(c+1)/2 plays the role the
ordinary content plays for unshifted diagrams.  The supersymmetric function
hat_p(k) agrees with lambda -> sum of c-hat^k over the diagram.  Row i of
the shifted diagram holds the contents 0..lambda_i - 1, so hat_p(k) is
sum_i F(lambda_i) for F(m) = sum_{c<m} c-hat^k, an odd polynomial of
degree 2k + 1 whose m^r coefficient is the coefficient of p_r; it is read
off the exact values F(0..2k+2) by Newton differences.  Every polynomial
with R(X) = R(-X-1) is a polynomial in Y = X(X+1) (``rewrite_XY``).
The corner alternating sums psi_k of Han-Xiong live here too, both as
direct corner sums and as explicit odd power-sum combinations, together
with the generating-series identity relating them, checked on logarithms:
log prod_i (1 - lam_i(lam_i - 1) u) / (1 - lam_i(lam_i + 1) u) is
sum_k (u^k / k) psi_k(lambda) exactly when psi_k(lambda) is the row sum
sum_i ((lam_i(lam_i + 1))^k - (lam_i(lam_i - 1))^k) for every k.
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
    _stirling1_row,
    inner_corners,
    newton_differences,
    outer_corners,
    shifted_cells,
)
from .rational import Rat, ZERO, rat


def c_hat(cell: Cell) -> Rat:
    """c-hat = c(c+1)/2 for the box's content c = col - row."""
    c = cell.content
    return rat(c * (c + 1), 2)


def _horner(coeffs, x):
    out = ZERO
    for c in reversed(coeffs):
        out = out * x + c
    return out


class EvenPolynomial:
    """A polynomial R(X) satisfying R(X) = R(-X-1), checked on construction.

    R(X) - R(-X-1) has degree below len(coeffs), so it is zero once it
    vanishes at x = 0..len(coeffs) - 1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        coeffs = [rat(c) for c in coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        for x in range(len(coeffs)):
            if _horner(coeffs, x) != _horner(coeffs, -x - 1):
                raise ValueError("polynomial does not satisfy R(X) = R(-X-1)")
        self.coeffs = tuple(coeffs)


def rewrite_XY(R: EvenPolynomial) -> tuple[Rat, ...]:
    """Rewrite R(X) as a polynomial in Y = X(X+1) (low to high coefficients).

    Peels the top term a X^{2j} with a Y^j, where
    Y^j = (X^2 + X)^j = sum_i C(j, i) X^{2j-i}; the rest is again even.
    """
    rest = list(R.coeffs)
    out = [ZERO] * ((len(rest) + 1) // 2)
    while rest:
        top = len(rest) - 1
        if top % 2:
            raise ValueError("odd powers did not cancel; input was not even")
        j, a = top // 2, rest[top]
        out[j] = a
        for i in range(j + 1):
            rest[top - i] -= a * comb(j, i)
        while rest and not rest[-1]:
            rest.pop()
    return tuple(out)


@cache
def hat_p(k: int) -> GammaElement:
    """The supersymmetric function with hat_p(k)(lambda) = sum c-hat^k.

    Row i of the shifted diagram has contents 0..lambda_i - 1, so
    hat_p(k)(lambda) = sum_i F(lambda_i) with F(m) = sum_{c<m} c-hat^k.
    F(m) - F(m-1) is symmetric under m -> 1 - m and F(0) = 0, so F is an
    odd polynomial of degree 2k + 1, and its m^r coefficient is the p_r
    coefficient.  Newton differences of F(0..2k+2) give F in the falling
    factorials, and the Stirling numbers s(j, r) turn those into powers.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    d = 2 * k + 1
    values = [0]
    for c in range(d + 1):
        values.append(values[-1] + (c * (c + 1) // 2) ** k)
    diffs = newton_differences(values, f"F(0..{d + 1}) of hat_p({k})")
    # F(m) = sum_j diffs[j] m^(j) / j!, over the common denominator d!
    numer = [0] * (d + 1)
    for j, diff in enumerate(diffs):
        weight = diff * (factorial(d) // factorial(j))
        for r, s in enumerate(_stirling1_row(j)):
            numer[r] += weight * s
    return GammaElement({(r,): rat(a, factorial(d)) for r, a in enumerate(numer) if a})


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
    """Alternating corner sum of {c(c+1)}^k: inner corners minus outer,
    summed as ints."""
    if k < 1:
        raise ValueError("k must be positive")
    total = 0
    for cell in inner_corners(lam):
        c = cell.content
        total += (c * (c + 1)) ** k
    for cell in outer_corners(lam):
        c = cell.content
        total -= (c * (c + 1)) ** k
    return rat(total)


@cache
def psi(k: int) -> GammaElement:
    """psi_k as an element of Gamma: 2 sum over odd s <= k of C(k,s) p_{2k-s}."""
    if k < 1:
        raise ValueError("k must be positive")
    return GammaElement({(2 * k - s,): 2 * comb(k, s) for s in range(1, k + 1, 2)})


def phi_series_check(lam: StrictPartition, order: int) -> bool:
    """Check, coefficientwise to the given order, that

    prod_i (1 - lam_i(lam_i - 1) u) / (1 - lam_i(lam_i + 1) u)
        = exp(sum_k u^k psi_k(lambda) / k).

    Both sides have constant term 1, so they agree to u^order exactly when
    their logarithms do.  The log of the left side is
    sum_k (u^k / k) sum_i ((lam_i(lam_i + 1))^k - (lam_i(lam_i - 1))^k),
    so the check is psi_k(lambda) = that row sum, in integers, for
    k = 1..order.
    """
    if order < 1:
        raise ValueError("order must be positive")
    rows = [(part * (part + 1), part * (part - 1)) for part in lam.parts]
    return all(psi_direct(k, lam) == sum(up**k - down**k for up, down in rows)
               for k in range(1, order + 1))
