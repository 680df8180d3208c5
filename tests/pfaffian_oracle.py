"""Schur Q-functions by Pfaffians of Gamma products: the test oracle for the
bar-removal character tables of ``superq.schurq``.

Q_lambda is assembled in the p-basis from the one-row expansion Q_(k), the
two-row recursion

    Q_(r,s) = Q_(r) Q_(s) + 2 sum_{i=1}^{s} (-1)^i Q_(r+i) Q_(s-i),

and, for length >= 3, the Pfaffian of the skew matrix of two-row functions
(a zero part is appended when the length is odd).  The character values are
the coefficients: the coefficient of p_rho in Q_lambda is
2^{l(rho)} z_rho^{-1} X^lambda_rho.
"""

from functools import cache

from superq.gamma import GammaElement
from superq.partitions import StrictPartition, enumerate_odd, enumerate_strict, z
from superq.rational import rat
from superq.schurq import q_onerow


@cache
def _two_row(r: int, s: int) -> GammaElement:
    # Q_(r,s) for r > s >= 0, with Q_(r,0) = Q_(r).
    if s == 0:
        return q_onerow(r)
    acc = q_onerow(r) * q_onerow(s)
    for i in range(1, s + 1):
        term = 2 * (q_onerow(r + i) * q_onerow(s - i))
        acc = acc - term if i % 2 else acc + term
    return acc


@cache
def _pfaffian_q(parts: tuple[int, ...]) -> GammaElement:
    # Pfaffian of (Q_(parts_i, parts_j))_{i<j}, expanded along the first row.
    # parts is strictly decreasing with an even number of entries, last >= 0.
    if not parts:
        return GammaElement.one()
    first, rest = parts[0], parts[1:]
    total = GammaElement.zero()
    for idx, pj in enumerate(rest):
        minor = _pfaffian_q(rest[:idx] + rest[idx + 1 :])
        contribution = _two_row(first, pj) * minor
        total = total + contribution if idx % 2 == 0 else total - contribution
    return total


@cache
def oracle_q(lam: StrictPartition) -> GammaElement:
    """Q_lambda in the p-basis, by the two-row recursion and Pfaffians."""
    parts = lam.parts
    if len(parts) == 0:
        return GammaElement.one()
    if len(parts) == 1:
        return q_onerow(parts[0])
    if len(parts) == 2:
        return _two_row(*parts)
    if len(parts) % 2:
        parts = parts + (0,)
    return _pfaffian_q(parts)


def oracle_table(k: int) -> dict:
    """{(lambda, rho): X^lambda_rho} for |lambda| = |rho| = k, zeros included."""
    values = {}
    for lam in enumerate_strict(k):
        expansion = oracle_q(lam)
        for rho in enumerate_odd(k):
            coeff = expansion.coefficient(rho)
            values[(lam, rho)] = coeff * rat(z(rho), 2**rho.length)
    return values
