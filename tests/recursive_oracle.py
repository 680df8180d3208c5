"""Recursive routes kept as test oracles of the closed forms and sweeps in
superq: g^{lambda/mu} by corner removal, and P*_mu by unitriangular inversion
of the Stirling system P_lambda = sum_nu T_{lambda,nu} P*_nu."""

from functools import cache

from superq.factorial import p_to_pstar_coeffs
from superq.gamma import GammaElement, add_scaled
from superq.partitions import StrictPartition, contains, outer_corners, remove_cell
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
