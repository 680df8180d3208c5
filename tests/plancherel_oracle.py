"""The per-shape route to brute-force Plancherel averages, kept as the test
oracle of the integer route in ``superq.plancherel``: one rational
probability and one rational value f(lambda) per strict partition."""

from superq.partitions import enumerate_strict
from superq.plancherel import prob, prob_mu
from superq.rational import ZERO


def oracle_average(f, n):
    """sum over strict lambda of n of prob(n, lambda) * f(lambda)."""
    return sum((prob(n, lam) * f.evaluate(lam) for lam in enumerate_strict(n)),
               start=ZERO)


def oracle_average_mu(f, mu, n):
    """sum over strict lambda of n + |mu| of prob_mu(mu, n, lambda) * f(lambda)."""
    return sum((prob_mu(mu, n, lam) * f.evaluate(lam)
                for lam in enumerate_strict(n + mu.size)), start=ZERO)
