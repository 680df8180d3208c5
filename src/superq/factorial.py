"""Factorial Schur P*-functions and the isomorphism Psi: P_lambda -> P*_lambda.

P_lambda = sum_j sign(j) T(lambda_1, j_1) ... T(lambda_l, j_l) P*_{sort j},

where j runs over index tuples with 1 <= j_i <= lambda_i, a tuple with
repeats vanishes, and sign(j) is the sign of the permutation sorting j into
a strict partition.  That is the l-th exterior power of the unitriangular
matrix T = (T(k, j)) of Stirling numbers of the second kind, so its inverse
is the exterior power of T^{-1} = (s(k, j)), the signed Stirling numbers of
the first kind:

    P*_mu = sum_j sign(j) s(mu_1, j_1) ... s(mu_l, j_l) P_{sort j}.

``p_star`` is the s-system applied to the P-functions; ``expand_in_pstar``,
the T-system applied to the P-coefficients, gives the b with
f = sum_mu b_mu P*_mu, and ``psi_iso_inverse(f)`` is sum_mu b_mu P_mu.
The closed-form evaluation P*_mu(lambda) = |lambda|^{falling |mu|}
g^{lambda/mu} / g^lambda is the independent route that pins P*_mu down.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import cache

from .gamma import GammaElement, add_into, add_scaled
from .partitions import (
    StrictPartition,
    _stirling1_row,
    _stirling2_row,
    falling,
    g,
    g_skew,
)
from .rational import Rat, rat
from .schurq import expand_in_P, p_fn


class SignedIndex(namedtuple("SignedIndex", "partition sign")):
    """A sorted index tuple, as a StrictPartition, with its sign; (None, 0)
    when entries repeat."""

    __slots__ = ()


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


def _exterior_power(lam: StrictPartition, stirling_row) -> dict[StrictPartition, int]:
    # Column lam of the l-th exterior power of the unitriangular matrix whose
    # row k is stirling_row(k): sum_j sign(j) prod_i row(lam_i)[j_i] e_{sort j}.
    acc: dict[StrictPartition, int] = {}
    rows = [stirling_row(part) for part in lam.parts]
    for js in itertools.product(*(range(1, part + 1) for part in lam.parts)):
        idx = normalize_index(js)
        if idx.sign == 0:
            continue
        weight = idx.sign
        for row, j in zip(rows, js):
            weight *= row[j]
        add_into(acc, idx.partition, weight)
    return acc


@cache
def p_to_pstar_coeffs(lam: StrictPartition) -> dict[StrictPartition, int]:
    """Integer coefficients of P_lambda in the P*-basis (the T-system)."""
    return _exterior_power(lam, _stirling2_row)


@cache
def p_star(mu: StrictPartition) -> GammaElement:
    """P*_mu in the p-basis, from its P-coefficients (the s-system)."""
    out: dict = {}
    for nu, c in _exterior_power(mu, _stirling1_row).items():
        add_scaled(out, p_fn(nu), c)
    return GammaElement._wrap(out)


def p_star_eval(mu: StrictPartition, lam: StrictPartition) -> Rat:
    """Closed form P*_mu(lambda) = |lambda|^{falling |mu|} g^{lambda/mu}/g^lambda."""
    return rat(falling(lam.size, mu.size) * g_skew(lam, mu), g(lam))


def psi_iso(f: GammaElement) -> GammaElement:
    """The linear isomorphism sending each P_lambda to P*_lambda."""
    out: dict = {}
    for lam, c in expand_in_P(f).items():
        add_scaled(out, p_star(lam), c)
    return GammaElement._wrap(out)


def expand_in_pstar(f: GammaElement) -> dict[StrictPartition, Rat]:
    """The b with f = sum_mu b_mu P*_mu: the T-system applied to the
    P-coefficients of f, since P_nu = sum_mu T_{nu,mu} P*_mu."""
    coeffs: dict = {}
    for nu, c in expand_in_P(f).items():
        for mu, t in p_to_pstar_coeffs(nu).items():
            add_into(coeffs, mu, c * t)
    return coeffs


def psi_iso_inverse(f: GammaElement) -> GammaElement:
    """The inverse isomorphism: f = sum_mu b_mu P*_mu maps to sum_mu b_mu P_mu."""
    out: dict = {}
    for mu, b in expand_in_pstar(f).items():
        add_scaled(out, p_fn(mu), b)
    return GammaElement._wrap(out)
