"""The per-shape route to brute-force Plancherel averages, kept as the test
oracle of the integer route in ``superq.plancherel``: one rational
probability and one rational value f(lambda) per strict partition.  And
the per-node route to symbolic averages, the oracle of the one walk over
all interpolation nodes: one brute-force average for each n, and Newton
differences taken here in rationals."""

from math import factorial

from superq.partitions import enumerate_strict
from superq.plancherel import (
    PolynomialInN,
    average_bruteforce,
    average_mu_bruteforce,
    prob,
    prob_mu,
)
from superq.rational import ZERO, rat


def oracle_average(f, n):
    """sum over strict lambda of n of prob(n, lambda) * f(lambda)."""
    return sum((prob(n, lam) * f.evaluate(lam) for lam in enumerate_strict(n)),
               start=ZERO)


def oracle_average_mu(f, mu, n):
    """sum over strict lambda of n + |mu| of prob_mu(mu, n, lambda) * f(lambda)."""
    return sum((prob_mu(mu, n, lam) * f.evaluate(lam)
                for lam in enumerate_strict(n + mu.size)), start=ZERO)


def _interpolate(values):
    """The polynomial of degree <= d through the rationals values[0..d + 1]
    in the falling-factorial basis, c_j = Delta^j v(0) / j!; Delta^{d+1} v(0)
    must vanish."""
    diffs = [rat(v) for v in values]
    for k in range(1, len(diffs)):
        diffs[k:] = [b - a for a, b in zip(diffs[k - 1:], diffs[k:])]
    check = diffs.pop()
    if check:
        raise ArithmeticError(f"not a polynomial of degree <= {len(diffs) - 1}: {check}")
    return PolynomialInN({j: c / factorial(j) for j, c in enumerate(diffs)})


def oracle_average_symbolic(f):
    """E_n[f] interpolated from average_bruteforce at n = 0..deg f + 1."""
    d = max(f.degree(), 0)
    return _interpolate([average_bruteforce(f, n) for n in range(d + 2)])


def oracle_average_mu_symbolic(f, mu):
    """E_{mu,n}[f] interpolated from average_mu_bruteforce at n = 0..deg f + 1."""
    d = max(f.degree(), 0)
    return _interpolate([average_mu_bruteforce(f, mu, n) for n in range(d + 2)])
