"""Factorial Schur P*-functions and the lowering isomorphism.

P*_mu is pinned down two independent ways: the closed-form evaluation
P*_mu(lambda) = |lambda|^{falling |mu|} g^{lambda/mu} / g^lambda, and the
p-basis element obtained by inverting the unitriangular Stirling system

    P_lambda = sum_j T(lambda_1, j_1) ... T(lambda_l, j_l) P*_{(j_1..j_l)},

where an index tuple with repeats vanishes and otherwise sorts to a strict
partition with the sign of the permutation.  The isomorphism Psi maps
P_lambda to P*_lambda; its inverse extracts top-degree terms.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import NamedTuple, Optional

from .gamma import GammaElement, add_into, add_scaled
from .partitions import (
    StrictPartition,
    falling,
    g,
    g_skew,
    stirling2,
)
from .rational import Rat, rat
from .schurq import expand_in_P, p_fn


class SignedIndex(NamedTuple):
    """A sorted index tuple with its sign; (None, 0) when entries repeat."""

    partition: Optional[StrictPartition]
    sign: int


def normalize_index(js) -> SignedIndex:
    """Sort a tuple of positive integers into a strict partition, with sign."""
    js = tuple(js)
    if any(j < 1 for j in js):
        raise ValueError(f"index entries must be positive, got {js}")
    if len(set(js)) != len(js):
        return SignedIndex(None, 0)
    inversions = sum(
        1
        for s in range(len(js))
        for t in range(s + 1, len(js))
        if js[s] < js[t]
    )
    mu = StrictPartition(sorted(js, reverse=True))
    return SignedIndex(mu, -1 if inversions % 2 else 1)


@cache
def p_to_pstar_coeffs(lam: StrictPartition) -> dict[StrictPartition, int]:
    """Integer coefficients of P_lambda in the P*-basis (the Stirling system)."""
    acc: dict[StrictPartition, int] = {}
    ranges = [range(1, part + 1) for part in lam.parts]
    for js in itertools.product(*ranges):
        idx = normalize_index(js)
        if idx.sign == 0:
            continue
        weight = idx.sign
        for part, j in zip(lam.parts, js):
            weight *= stirling2(part, j)
        add_into(acc, idx.partition, weight)
    return acc


@cache
def p_star(mu: StrictPartition) -> GammaElement:
    """P*_mu in the p-basis, by unitriangular inversion of the Stirling system."""
    acc = dict(p_fn(mu)._coeffs)
    for nu, c in p_to_pstar_coeffs(mu).items():
        if nu != mu:
            add_scaled(acc, p_star(nu), -c)
    return GammaElement._wrap(acc)


def p_star_eval(mu: StrictPartition, lam: StrictPartition) -> Rat:
    """Closed form P*_mu(lambda) = |lambda|^{falling |mu|} g^{lambda/mu}/g^lambda."""
    skew = g_skew(lam, mu)
    if skew == 0:
        return rat(0)
    return rat(falling(lam.size, mu.size) * skew, g(lam))


def psi_iso(f: GammaElement) -> GammaElement:
    """The linear isomorphism sending each P_lambda to P*_lambda."""
    out: dict = {}
    for lam, c in expand_in_P(f).items():
        add_scaled(out, p_star(lam), c)
    return GammaElement._wrap(out)


def psi_iso_inverse(f: GammaElement) -> GammaElement:
    """Inverse isomorphism, by iterated top-degree extraction."""
    result: dict = {}
    remainder = dict(f._coeffs)
    while remainder:
        d = max(rho.size for rho in remainder)
        top = {rho: c for rho, c in remainder.items() if rho.size == d}
        result.update(top)
        for lam, c in expand_in_P(GammaElement._wrap(top)).items():
            add_scaled(remainder, p_star(lam), -c)
    return GammaElement._wrap(result)
