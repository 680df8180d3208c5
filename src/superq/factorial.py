"""Factorial Schur P*-functions and the isomorphism Psi: P_lambda -> P*_lambda.

P_lambda = sum_j sign(j) T(lambda_1, j_1) ... T(lambda_l, j_l) P*_{sort j},

where j runs over index tuples with 1 <= j_i <= lambda_i, a tuple with
repeats vanishes, and sign(j) is the sign of the permutation sorting j into
a strict partition.  That is the l-th exterior power of the unitriangular
matrix T = (T(k, j)) of Stirling numbers of the second kind, so its inverse
is the exterior power of T^{-1} = (s(k, j)), the signed Stirling numbers of
the first kind:

    P*_mu = sum_j sign(j) s(mu_1, j_1) ... s(mu_l, j_l) P_{sort j}.

Both are integer sweeps (``_sweep``): one part at a time, on bitmasks of
the indices used so far, where a used index vanishes and a new index j
passes one inversion per used index below it; ``normalize_index`` is their
test oracle.  ``p_star`` reads the s-system of mu, ``psi_iso`` the
s-system on the P-coefficients of f, and ``expand_in_pstar`` the T-system
on them, the b with f = sum_mu b_mu P*_mu; ``psi_iso_inverse(f)`` =
sum_mu b_mu P_mu.  Both systems are memoised per lambda as dicts keyed by
the index masks (``_s_system``, ``_t_system``).  On f, they sum the ints
D c_lambda of ``gamma.integer_form`` over one denominator D on those
masks, and each mu is built once from its mask at the end:
``expand_in_pstar`` divides by D once per b, and the other three go back
to the p-basis by one integer row sum, ``schurq._combine_P``.
The closed form P*_mu(lambda) = |lambda|^{falling |mu|} g^{lambda/mu} /
g^lambda is the independent route that pins P*_mu down.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .gamma import GammaElement, add_into, integer_form
from .partitions import (
    StrictPartition,
    _mask_parts,
    _stirling1_row,
    _stirling2_row,
    falling,
    g,
    g_skew,
)
from .rational import Rat, rat
from .schurq import _combine_P, expand_in_P


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


def _sweep(lam: StrictPartition, stirling_row) -> dict[int, int]:
    # Column lam of the exterior power of the matrix of rows stirling_row(k):
    # sum_j sign(j) prod_i row(lam_i)[j_i] e_{sort j}, by the sweep above,
    # keyed by the mask of each index set {j_i}.
    layer = {0: 1}
    for part in lam.parts:
        row = stirling_row(part)
        grown: dict[int, int] = {}
        for mask, weight in layer.items():
            for j in range(1, part + 1):
                bit = 1 << j
                if not mask & bit:
                    sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
                    add_into(grown, mask | bit, sign * weight * row[j])
        layer = grown
    return layer


def _by_partition(masks: dict[int, int]) -> dict[StrictPartition, int]:
    return {StrictPartition._trusted(_mask_parts(mask)): w for mask, w in masks.items()}


@cache
def _s_system(lam: StrictPartition) -> dict[int, int]:
    return _sweep(lam, _stirling1_row)


@cache
def _t_system(lam: StrictPartition) -> dict[int, int]:
    return _sweep(lam, _stirling2_row)


def p_to_pstar_coeffs(lam: StrictPartition) -> dict[StrictPartition, int]:
    """Integer coefficients of P_lambda in the P*-basis (the T-system)."""
    return _by_partition(_t_system(lam))


@cache
def p_star(mu: StrictPartition) -> GammaElement:
    """P*_mu in the p-basis, from its P-coefficients (the s-system)."""
    return _combine_P(_by_partition(_s_system(mu)))


def p_star_eval(mu: StrictPartition, lam: StrictPartition) -> Rat:
    """Closed form P*_mu(lambda) = |lambda|^{falling |mu|} g^{lambda/mu}/g^lambda."""
    return rat(falling(lam.size, mu.size) * g_skew(lam, mu), g(lam))


def _through(system, f: GammaElement) -> tuple[dict[StrictPartition, int], int]:
    # (sum_lambda a_lambda system(lambda), D) over the integer numerators
    # a_lambda = D c_lambda of the P-coefficients c_lambda of f, summed on
    # the masks of the sweep; each mu is built once, at the end
    denom, numerators = integer_form(expand_in_P(f))
    sums: dict[int, int] = {}
    for lam, a in numerators.items():
        for mask, t in system(lam).items():
            add_into(sums, mask, a * t)
    return _by_partition(sums), denom


def psi_iso(f: GammaElement) -> GammaElement:
    """The linear isomorphism sending each P_lambda to P*_lambda."""
    return _combine_P(*_through(_s_system, f))


def expand_in_pstar(f: GammaElement) -> dict[StrictPartition, Rat]:
    """The b with f = sum_mu b_mu P*_mu: the T-system applied to the
    P-coefficients of f, since P_nu = sum_mu T_{nu,mu} P*_mu."""
    sums, denom = _through(_t_system, f)
    return {mu: rat(b, denom) for mu, b in sums.items()}


def psi_iso_inverse(f: GammaElement) -> GammaElement:
    """The inverse isomorphism: f = sum_mu b_mu P*_mu maps to sum_mu b_mu P_mu."""
    return _combine_P(*_through(_t_system, f))
