"""Slow routes kept as test oracles of the closed forms and sweeps in
superq: g^{lambda/mu} by corner removal, P*_mu by unitriangular inversion
of the Stirling system P_lambda = sum_nu T_{lambda,nu} P*_nu, hat_p(k)
by the unitriangular system of the telescoping identity
p_{2k+1}(lambda) = sum_box [(c+1)^{2k+1} - c^{2k+1}], and the frak-p
expansion of an element by peeling its top-degree terms."""

from functools import cache
from math import comb

from superq.content import EvenPolynomial, rewrite_XY
from superq.factorial import p_to_pstar_coeffs
from superq.frakp import FrakExpansion, frak_p
from superq.gamma import GammaElement, add_scaled
from superq.partitions import StrictPartition, contains, outer_corners, remove_cell
from superq.rational import rat
from superq.schurq import p_fn


@cache
def oracle_g_skew(lam: StrictPartition, mu: StrictPartition) -> int:
    """g^{lam/mu}: sum over the outer corners of lam that keep mu inside."""
    if not contains(lam, mu):
        return 0
    if lam == mu:
        return 1
    return sum(oracle_g_skew(smaller, mu)
               for smaller in (remove_cell(lam, cell) for cell in outer_corners(lam))
               if contains(smaller, mu))


@cache
def oracle_p_star(mu: StrictPartition) -> GammaElement:
    """P*_mu = P_mu - sum over nu != mu of T_{mu,nu} P*_nu."""
    acc = dict(p_fn(mu)._coeffs)
    for nu, c in p_to_pstar_coeffs(mu).items():
        if nu != mu:
            add_scaled(acc, oracle_p_star(nu), -c)
    return GammaElement._wrap(acc)


@cache
def oracle_hat_p(k: int) -> GammaElement:
    """p_{2k+1} = sum_{r<=k} alpha_r 2^r hat_p(r), solved for hat_p(k), where
    alpha = rewrite_XY((X+1)^{2k+1} - X^{2k+1}) has top coefficient 2k+1."""
    if k == 0:
        return GammaElement.p(1)
    binom = [comb(2 * k + 1, i) for i in range(2 * k + 1)]  # no X^{2k+1}
    alpha = rewrite_XY(EvenPolynomial(binom))
    acc = GammaElement.p(2 * k + 1)
    for r in range(k):
        if alpha[r]:
            acc = acc - (alpha[r] * 2**r) * oracle_hat_p(r)
    return acc * rat(1, 2**k * (2 * k + 1))


def oracle_expand_gamma_in_frak(f: GammaElement) -> FrakExpansion:
    """Frak-p coefficients by peeling homogeneous top components:
    frak_p(rho) = p_rho + lower degree, so the top p-coefficients are the
    top frak-p coefficients."""
    coeffs = {}
    remainder = dict(f._coeffs)
    while remainder:
        d = max(rho.size for rho in remainder)
        top = [(rho, c) for rho, c in remainder.items() if rho.size == d]
        for rho, c in top:
            coeffs[rho] = c
            add_scaled(remainder, frak_p(rho), -c)
    return FrakExpansion._wrap(coeffs)
