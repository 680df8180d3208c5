"""The deformed power-sum basis frak-p and its basis changes.

frak_p(rho) = sum_{lambda} X^lambda_rho P*_lambda = Psi(p_rho), the image
of p_rho under the isomorphism Psi: P_lambda -> P*_lambda.  It has
top-degree term p_rho, evaluates in closed form through a single character
value, and is the basis in which shifted Plancherel averages become trivial
to read off.  Because Psi(p_sigma) = frak_p(sigma), the frak-p coefficients
of any element f are the p-coefficients of Psi^{-1}(f), which goes through
the T-system of ``factorial.expand_in_pstar``; ``assemble`` (Psi through
the s-system) is the independent route back.
A ``FrakExpansion`` stores coefficients in this basis; it deliberately is
not a ``GammaElement`` so the two bases cannot be mixed up.
"""

from __future__ import annotations

from functools import cache

from .factorial import psi_iso, psi_iso_inverse
from .gamma import GammaElement, SparseTerms
from .partitions import OddPartition, StrictPartition, _deg1_of, _ones_free, falling, g
from .rational import Rat, rat
from .schurq import character_table


def tilde(rho: OddPartition) -> tuple[OddPartition, int]:
    """Strip the parts equal to 1: returns (rho-tilde, m_1(rho))."""
    kept = _ones_free(rho.parts)
    return OddPartition._trusted(kept), rho.length - len(kept)


def union_ones(rho: OddPartition, k: int) -> OddPartition:
    """The odd partition rho with k extra parts equal to 1 appended."""
    return OddPartition(rho.parts + (1,) * k)


class FrakExpansion(SparseTerms):
    """Sparse coefficients of an element written in the frak-p basis."""

    __slots__ = ()
    _symbol = "fp"


def deg1(expansion: FrakExpansion) -> int:
    """The filtration degree max(|rho| + m_1(rho)) over the support."""
    if expansion.is_zero():
        raise ValueError("deg1 of the zero element is undefined")
    return max(map(_deg1_of, expansion.support()))


@cache
def frak_p(rho: OddPartition) -> GammaElement:
    """frak_p(rho) = Psi(p_rho) = sum over |lambda| = |rho| of X^lambda_rho P*_lambda."""
    return psi_iso(GammaElement.p(rho))


def frak_p_eval(rho: OddPartition, lam: StrictPartition) -> Rat:
    """Closed-form value |lambda|^{falling |rho|} X^lambda_{rho-tilde + 1s} / g^lambda."""
    rho_t, _ = tilde(rho)
    n = lam.size
    if rho_t.size > n:
        return rat(0)
    fall = falling(n, rho.size)
    if fall == 0:
        return rat(0)
    x = character_table(n).value(lam, union_ones(rho_t, n - rho_t.size))
    return fall * x * rat(1, g(lam))


def expand_p_in_frak(rho: OddPartition) -> FrakExpansion:
    """Expand p_rho in the frak-p basis."""
    return expand_gamma_in_frak(GammaElement.p(rho))


def expand_gamma_in_frak(f: GammaElement) -> FrakExpansion:
    """Coefficients of an arbitrary element in the frak-p basis: since
    Psi(p_sigma) = frak_p(sigma), they are the p-coefficients of Psi^{-1}(f)."""
    return FrakExpansion._wrap(psi_iso_inverse(f)._coeffs)


def assemble(expansion: FrakExpansion) -> GammaElement:
    """Inverse of :func:`expand_gamma_in_frak`: sum c_rho frak_p(rho) =
    Psi(sum c_rho p_rho), with Psi linear."""
    return psi_iso(GammaElement._wrap(expansion._coeffs))
