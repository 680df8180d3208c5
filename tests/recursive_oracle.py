"""Slow routes kept as test oracles of the closed forms and sweeps in
superq: g^{lambda/mu} by corner removal, P*_mu by unitriangular inversion
of the Stirling system P_lambda = sum_nu T_{lambda,nu} P*_nu, the exterior
powers of the Stirling matrices by a walk over all index tuples, hat_p(k)
by the unitriangular system of the telescoping identity
p_{2k+1}(lambda) = sum_box [(c+1)^{2k+1} - c^{2k+1}], the frak-p
expansion of an element by peeling its top-degree terms, the Han-Xiong
generating-series identity by truncated power-series products and exp,
the columns of the character tables by bar removal, one per-lambda sum for
each column, and the three partition enumerations by descent on the
largest part."""

import itertools
from functools import cache
from math import comb, factorial

from superq.content import EvenPolynomial, psi_direct, rewrite_XY
from superq.factorial import normalize_index, p_to_pstar_coeffs
from superq.frakp import FrakExpansion, frak_p
from superq.gamma import GammaElement, add_into, add_scaled
from superq.partitions import (
    StrictPartition,
    contains,
    enumerate_odd,
    enumerate_strict,
    outer_corners,
    remove_cell,
)
from superq.rational import ONE, ZERO, rat
from superq.schurq import p_fn


def oracle_strict_tuples(n, max_part):
    """The strict partitions of n with parts <= max_part, decreasing
    lexicographic: each first part, then the partitions of the rest below it."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        if first * (first + 1) < 2 * n:
            break  # the parts below first sum to at most first(first-1)/2
        for rest in oracle_strict_tuples(n - first, first - 1):
            yield (first, *rest)


def oracle_odd_tuples(n, max_part):
    """As ``oracle_strict_tuples``, for odd parts, weakly decreasing."""
    if n == 0:
        yield ()
        return
    start = min(n, max_part)
    if start % 2 == 0:
        start -= 1
    for first in range(start, 0, -2):
        for rest in oracle_odd_tuples(n - first, first):
            yield (first, *rest)


def oracle_ordinary_tuples(n, max_part):
    """As ``oracle_strict_tuples``, for all parts, weakly decreasing."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in oracle_ordinary_tuples(n - first, first):
            yield (first, *rest)


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


def oracle_exterior_power(lam: StrictPartition, stirling_row) -> dict:
    """Column lam of the l-th exterior power of the matrix whose row k is
    stirling_row(k): sum over every index tuple j with 1 <= j_i <= lam_i of
    sign(j) prod_i row(lam_i)[j_i] e_{sort j}, a tuple with repeats vanishing."""
    acc: dict = {}
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
    top frak-p coefficients.  Each round lowers the top degree, so a
    remainder left after deg f + 1 rounds means a frak_p(rho) without that
    top component, and raises AssertionError instead of peeling forever."""
    coeffs = {}
    remainder = dict(f._coeffs)
    for _ in range(f.degree() + 1):
        if not remainder:
            break
        d = max(rho.size for rho in remainder)
        top = [(rho, c) for rho, c in remainder.items() if rho.size == d]
        for rho, c in top:
            coeffs[rho] = c
            add_scaled(remainder, frak_p(rho), -c)
    if remainder:
        raise AssertionError(f"frak-p peeling left {len(remainder)} terms after "
                             f"deg f + 1 rounds")
    return FrakExpansion._wrap(coeffs)


# --- truncated power series in u (exact, list index = power) --------------------


def _series_mul(a, b, order):
    out = [ZERO] * (order + 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if cb:
                out[i + j] += ca * cb
    return out


def _series_geometric(ratio, order):
    # 1 / (1 - ratio*u) truncated.
    out = [ONE]
    for _ in range(order):
        out.append(out[-1] * ratio)
    return out


def _series_exp(s, order):
    # exp(s) for a series with zero constant term, truncated.
    out = [ONE] + [ZERO] * order
    power = [ONE] + [ZERO] * order
    for j in range(1, order + 1):
        power = _series_mul(power, s, order)
        inv_fact = rat(1, factorial(j))
        for i in range(order + 1):
            if power[i]:
                out[i] += power[i] * inv_fact
    return out


def oracle_phi_series_check(lam: StrictPartition, order: int) -> bool:
    """Check, coefficientwise to the given order, that

    prod_i (1 - lam_i(lam_i - 1) u) / (1 - lam_i(lam_i + 1) u)
        = exp(sum_k u^k psi_k(lambda) / k).
    """
    if order < 1:
        raise ValueError("order must be positive")
    lhs = [ONE] + [ZERO] * order
    for part in lam.parts:
        numer = [ONE, rat(-part * (part - 1))]
        lhs = _series_mul(lhs, numer, order)
        lhs = _series_mul(lhs, _series_geometric(rat(part * (part + 1)), order), order)
    log_rhs = [ZERO] + [psi_direct(k, lam) * rat(1, k) for k in range(1, order + 1)]
    rhs = _series_exp(log_rhs, order)
    return lhs == rhs


# --- character tables, one column at a time ------------------------------------


def _bars(parts: tuple[int, ...], r: int) -> list[tuple[tuple[int, ...], int]]:
    # (mu, w) for every r-bar of the strict partition `parts`; see the
    # docstring of superq.schurq for the three kinds.
    out = []
    for i, a in enumerate(parts):
        if a > r:
            b = a - r
            j = i + 1
            while j < len(parts) and parts[j] > b:
                j += 1
            if j == len(parts) or parts[j] != b:
                mu = parts[:i] + parts[i + 1 : j] + (b,) + parts[j:]
                out.append((mu, (-1) ** (j - i - 1)))
        elif a == r:
            out.append((parts[:i] + parts[i + 1 :], (-1) ** (len(parts) - i - 1)))
        elif r - a > a and r - a in parts:
            j = parts.index(r - a)
            mu = parts[:j] + parts[j + 1 : i] + parts[i + 1 :]
            out.append((mu, 2 * (-1) ** (a + i - j - 1)))
    return out


def _all_bars(parts: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    # (r, mu, w) for every r-bar of the strict partition `parts`, every odd r,
    # in one walk over its parts; see the module docstring of superq.schurq
    # for the kinds.
    out = []
    n = len(parts)
    for i, a in enumerate(parts):
        j = i + 1  # the first part after a that is <= b
        for b in range(a - 1, 0, -2):  # (a): r = a - b = 1, 3, 5, ...
            while j < n and parts[j] > b:
                j += 1
            if j == n or parts[j] != b:
                mu = parts[:i] + parts[i + 1 : j] + (b,) + parts[j:]
                out.append((a - b, mu, -1 if (j - i) % 2 == 0 else 1))
        if a % 2:  # (b)
            out.append((a, parts[:i] + parts[i + 1 :], -1 if (n - i) % 2 == 0 else 1))
        for j in range(i + 1, n):  # (c), with lambda_j the smaller part
            c = parts[j]
            if (a + c) % 2:
                mu = parts[:i] + parts[i + 1 : j] + parts[j + 1 :]
                out.append((a + c, mu, -2 if (c + j - i) % 2 == 0 else 2))
    return out


@cache
def oracle_columns(k: int) -> list[list[int]]:
    """The columns X^lambda_rho of the table of degree k, in the enumeration
    orders: column rho = (r) u rho' as sum of w * X^mu_rho' over the r-bars
    of each lambda, from column rho' of the table of degree k - r."""
    if k == 0:
        return [[1]]
    subs = {}  # r -> (columns of table k - r by rho', bars of each lambda)
    columns = []
    for rho in enumerate_odd(k):
        r = rho.parts[0]
        if r not in subs:
            row_of = {lam.parts: i for i, lam in enumerate(enumerate_strict(k - r))}
            column_of = dict(zip((sigma.parts for sigma in enumerate_odd(k - r)),
                                 oracle_columns(k - r)))
            subs[r] = column_of, [
                [(row_of[mu], w) for mu, w in _bars(lam.parts, r)]
                for lam in enumerate_strict(k)
            ]
        column_of, bars = subs[r]
        column = column_of[rho.parts[1:]]
        columns.append([sum(w * column[i] for i, w in lam_bars) for lam_bars in bars])
    return columns
