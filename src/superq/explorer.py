"""Conjecture laboratory: structure constants of the frak-p basis, the
deg1 filtration scan, and the E_n[p_2] non-polynomiality experiment.

A violation found by the scan is a *result*, not an error: the scan's
whole purpose is falsification, so violations are returned prominently in
the report (and the CLI still exits 0).

Structure constants are read off integer spin-character sums, with no
product in Gamma.  Column orthogonality of the spin characters,
sum_lambda 2^{-l(lambda)} X^lambda_rho X^lambda_pi = 2^{-l(rho)} z_rho
delta_{rho,pi} (P. N. Hoffman and J. F. Humphreys, *Projective
Representations of the Symmetric Groups*, 1992), turns the closed form
fp_sigma(lambda) = n^{falling |sigma|} X^lambda_{sigma~ u 1s} / g(lambda)
into: for every m_1-free odd s with |s| <= D = |sigma| + |tau| and n >= |s|,

    A_s(n) = 2^{l(rho_n)} n^{falling |sigma|} n^{falling |tau|} S / (z_{rho_n} 2^n n!)
           = n^{falling |s|} sum_k c_{s u 1^k} (n - |s|)^{falling k},

where rho_n = s u 1^{n-|s|}, the c are the frak-p coefficients of
fp_sigma * fp_tau, and S is the integer

    S = sum_{lambda |- n} h(lambda) X^lambda_{sigma~ u 1s} X^lambda_{tau~ u 1s} X^lambda_{rho_n}

with the integer weight h(lambda) = 2^{n-l(lambda)} n! / g(lambda) (n!/g is
the shifted hook product).  Newton forward differences in m = n - |s| over
the nodes n = |s|..D+1 read off c_{s u 1^k}; the product has degree D, so
the difference at the last node must vanish, and a nonzero one raises
``ArithmeticError``.  This is the spin analogue of Kerov-Olshanski's
polynomial functions on Young diagrams.  Peeling the top-degree terms of
frak_p(sigma) * frak_p(tau), a test oracle, is the independent route.

The 1s are free.  By the closed form, fp_{sigma~ u 1^a} = fp_sigma~
(n - |sigma~|)^{falling a} with n = p_1, and n fp_{s u 1^k} = fp_{s u 1^{k+1}}
+ (|s| + k) fp_{s u 1^k}.  So the Newton route runs only on the ones-free
product fp_sigma~ * fp_tau~ (and not at all when a factor is fp_() = 1), and
each 1 of sigma or tau is one multiplication by (n - c), with c the size of
that factor before the 1: the coefficient of fp_{s u 1^k} becomes that of
fp_{s u 1^{k-1}} plus (|s| + k - c) times its own.  The same identity
reduces the conjecture to ones-free pairs: fp_sigma * fp_tau is
fp_sigma~ * fp_tau~ times a + b linear factors (n - c), each of which raises
deg1 by at most 2, while deg1(sigma) = deg1(sigma~) + 2a and likewise for
tau.  Hence every pair with |sigma| + |tau| <= T satisfies the filtration
once the ones-free pairs with |sigma~| + |tau~| <= T do; the scan still
visits and counts every pair.

The sums S for all rho_n of one n come from one integer: each row lambda of
the table is packed as sum_j X^lambda_{rho_j} B^j, and sum_lambda
h(lambda) X^lambda_{sigma~ u 1s} X^lambda_{tau~ u 1s} row_lambda has the S
as its base-B digits.  The digit width is fixed per n by the proven bound
|S| <= sum_lambda h(lambda) M_lambda^3, with M_lambda the largest |entry| of
row lambda, so the balanced (signed) digits decode exactly.

``structure_constants`` and the scan share ``_ones_free_terms`` and
``_add_one``, which give the integer d of every coefficient, normalised as
the Newton difference of that pair.  The scan walks the pairs of ones-free
parts (``partitions._ones_free_odd``), and for each the two 1-chains in
nested loops: sigma~ u 1^a one step per a, and from each of those tau~ u 1^b
one step per b.  It reads the slack deg1(sigma) + deg1(tau) - (|s| + 2k) off
(s, k) alone (``partitions._deg1_of`` gives deg1) and builds a record,
through the same values as ``structure_constants``, only for a violation.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from itertools import count
from math import factorial

from .content import OrdinaryPSumExpr
from .partitions import (
    OddPartition,
    _deg1_of,
    _ones_free,
    _ones_free_odd,
    falling,
    g,
    newton_differences,
    term_sort_key,
    z,
)
from .plancherel import average_bruteforce
from .rational import Rat, rat, rat_str
from .schurq import _digit_width, _pack_rows, _unpack_row, character_table

# Default bound on |sigma| + |tau| for the lab: the sums at the last node
# need character_table(cap + 1), and a whole scan to the cap takes about
# 0.6 s and 17 MB as a command; each total above it adds about 40%.
LAB_CAP = 23

# Default bound on max_n for the E_n[p_2] experiment, whose brute-force
# averages walk every strict partition of each n <= max_n.
P2_CAP = 14


def _check_cap(name: str, value: int, cap: int) -> None:
    # the one refusal of a work budget, in the library and the CLI alike
    if value > cap:
        raise ValueError(f"{name} = {value} exceeds the cap {cap}; raise --cap to allow")


class StructureConstantRecord(namedtuple(
        "StructureConstantRecord", "sigma tau rho value deg1_lhs deg1_rhs")):
    """One nonzero coefficient f^rho_{sigma,tau} of frak_p(sigma)*frak_p(tau):
    the value (a Rat) of fp_rho, with deg1(rho) and deg1(sigma) + deg1(tau)."""

    __slots__ = ()

    @property
    def slack(self) -> int:
        return self.deg1_rhs - self.deg1_lhs

    @property
    def violates(self) -> bool:
        return self.deg1_lhs > self.deg1_rhs

    def to_json_obj(self) -> dict:
        return {
            "sigma": str(self.sigma),
            "tau": str(self.tau),
            "rho": str(self.rho),
            "value": rat_str(self.value),
            "deg1_lhs": self.deg1_lhs,
            "deg1_rhs": self.deg1_rhs,
        }


@cache
def _packed_rows(n: int) -> tuple[int, tuple[int, ...], tuple[tuple, ...]]:
    """Each row of character_table(n) packed by ``_pack_rows`` into one
    integer sum_j X^lambda_{rho_j} B^j, with B = 2^{8 b} for a digit width of
    b bytes, and multiplied by the hook weight h(lambda) = 2^{n-l(lambda)}
    n! / g(lambda).

    Returns (b, the weighted packed rows in table order, the m_1-free parts
    of each rho_j).  Every sum S of ``_spin_sums`` obeys |S| <= sum_lambda
    h(lambda) M_lambda^3, where M_lambda is the largest |X^lambda_rho| in row
    lambda.  b is ``schurq._digit_width`` of that bound, so B/2 exceeds it
    (rounding b up to a width ``array`` holds only widens the range), and
    the signed digits of each weighted row and of sum_lambda x_lambda
    y_lambda h(lambda) row_lambda are exactly what they stand for.
    """
    table = character_table(n)
    rows = table._rows
    fact = factorial(n)
    weights = [2 ** (n - lam.length) * fact // g(lam) for lam in table.strict]
    bound = sum(h * max(map(abs, row)) ** 3 for h, row in zip(weights, rows))
    width = _digit_width(bound)
    packed = tuple(h * row for h, row in zip(weights, _pack_rows(rows, width)))
    return width, packed, tuple(_ones_free(rho.parts) for rho in table.odd)


def _spin_sums(sigma_t: tuple, tau_t: tuple, n: int) -> dict[tuple, int]:
    """The integers S for every m_1-free odd s with |s| <= n, keyed by the
    parts of s, zeros dropped; see the module docstring.  One packed sum
    over the rows of the table gives S for every column at once."""
    table = character_table(n)
    i = table._col_of[sigma_t + (1,) * (n - sum(sigma_t))]
    j = table._col_of[tau_t + (1,) * (n - sum(tau_t))]
    a = [row[i] for row in table._rows]
    b = [row[j] for row in table._rows]
    width, rows, keys = _packed_rows(n)
    packed = sum(x * y * row for x, y, row in zip(a, b, rows) if x and y)
    return {s: total for s, total in zip(keys, _unpack_row(packed, width, len(keys)))
            if total}


def _newton_terms(sigma: OddPartition, tau: OddPartition) -> dict[tuple, list[int]]:
    """The Newton route of the module docstring: for every s with a nonzero
    coefficient in fp_sigma * fp_tau, the list (d_0, ..., d_K) of the integer
    k-th Newton differences of the scaled sums, with d_K nonzero.

    A nonzero difference at the degree-check node raises ``ArithmeticError``.
    """
    sigma_t, tau_t = _ones_free(sigma.parts), _ones_free(tau.parts)
    top = sigma.size + tau.size + 1  # the degree-check node
    low = max(sigma.size, tau.size)  # below it fp_sigma * fp_tau vanishes
    # A_s(n) / n^{falling |s|} = 2^{l(s)-|s|} S / (z_s (n-|sigma|)! (n-|tau|)!),
    # here over the common denominator (top-|sigma|)! (top-|tau|)!
    nodes = [(_spin_sums(sigma_t, tau_t, n),
              falling(top - sigma.size, top - n) * falling(top - tau.size, top - n))
             for n in range(low, top + 1)]
    label = f"the A_s(n) of fp_{sigma} * fp_{tau}"
    out = {}
    for s in set().union(*(by_s for by_s, _ in nodes)):
        size = sum(s)
        diffs = newton_differences(
            [0] * (low - size)
            + [by_s.get(s, 0) * c for by_s, c in nodes[max(size - low, 0):]],
            label,
        )
        while diffs and not diffs[-1]:
            diffs.pop()
        if diffs:
            out[s] = diffs
    return out


def _ones_free_terms(sigma_t: tuple, tau_t: tuple) -> list[tuple]:
    """(s, |s|, d) for every s of fp_sigma~ * fp_tau~, d as in
    ``_newton_terms``; a factor fp_() = 1 leaves the single term of the other,
    whose d is 2^{|s|-l(s)} z_s (|s| + 1)!."""
    if not (sigma_t and tau_t):
        s = sigma_t or tau_t
        size = sum(s)
        d = 2 ** (size - len(s)) * z(OddPartition(s)) * factorial(size + 1)
        return [(s, size, [d])]
    terms = _newton_terms(OddPartition(sigma_t), OddPartition(tau_t))
    return [(s, sum(s), d) for s, d in terms.items()]


def _add_one(terms: list[tuple], size: int) -> list[tuple]:
    """The terms of the product after a 1 is added to a factor of size
    ``size``: fp_{sigma u 1} = fp_sigma (n - |sigma|), and
    (n - c) fp_{s u 1^k} = fp_{s u 1^{k+1}} + (|s| + k - c) fp_{s u 1^k},
    so with D one larger d'_k = (|sigma| + 2) (k d_{k-1} + (|s| + k - |sigma|) d_k).
    The top entry stays nonzero, so every s stays."""
    factor = size + 2
    out = []
    for s, s_size, d in terms:
        shift = s_size - size
        out.append((s, s_size, [factor * (k * below + (shift + k) * here)
                                for k, below, here in zip(count(), (0, *d), (*d, 0))]))
    return out


def _terms(sigma: OddPartition, tau: OddPartition):
    """(s, k, d) for every nonzero coefficient of fp_sigma * fp_tau: the
    coefficient of fp_{s u 1^k} is 2^{l(s)} d / (2^{|s|} z_s k!
    (D + 1 - |sigma|)! (D + 1 - |tau|)!) with D = |sigma| + |tau|, and d
    is the integer k-th Newton difference of the scaled sums.

    The Newton route runs on the ones-free product fp_sigma~ * fp_tau~;
    every 1 of sigma, then of tau, is one ``_add_one`` step (module
    docstring)."""
    sigma_t, tau_t = _ones_free(sigma.parts), _ones_free(tau.parts)
    terms = _ones_free_terms(sigma_t, tau_t)
    for size in [*range(sum(sigma_t), sigma.size), *range(sum(tau_t), tau.size)]:
        terms = _add_one(terms, size)
    for s, _, d in terms:
        for k, diff in enumerate(d):
            if diff:
                yield s, k, diff


def _scan_pairs(max_total: int):
    """(sigma, tau, terms) for every unordered pair of nonempty odd
    partitions with |sigma| + |tau| <= max_total, sigma first in
    ``term_sort_key`` order, with the terms (s, |s|, d) of fp_sigma * fp_tau
    as ``_add_one`` keeps them; the walk is the module docstring's."""
    free = [rho.parts for rho in _ones_free_odd(max_total)]
    for i, sigma_t in enumerate(free):
        for tau_t in free[i:]:
            sigma_size, tau_size = sum(sigma_t), sum(tau_t)
            room = max_total - sigma_size - tau_size
            if room < 0:
                break  # free is ordered by size
            sigma_terms = _ones_free_terms(sigma_t, tau_t)
            for a in range(room + 1):
                if a:
                    sigma_terms = _add_one(sigma_terms, sigma_size + a - 1)
                elif not sigma_t:
                    continue
                sigma = OddPartition._trusted(sigma_t + (1,) * a)
                terms = sigma_terms
                # b <= a when sigma~ = tau~, so that each pair comes once
                last = min(room - a, a) if sigma_t == tau_t else room - a
                for b in range(last + 1):
                    if b:
                        terms = _add_one(terms, tau_size + b - 1)
                    elif not tau_t:
                        continue
                    tau = OddPartition._trusted(tau_t + (1,) * b)
                    # term_sort_key order: the smaller first, of equal sizes the larger parts
                    tau_first = (tau_size + b, sigma.parts) < (sigma_size + a, tau.parts)
                    yield (tau, sigma, terms) if tau_first else (sigma, tau, terms)


def _record(sigma: OddPartition, tau: OddPartition, s: tuple, k: int,
            diff: int) -> StructureConstantRecord:
    """The record of the term (s, k, diff) of ``_terms(sigma, tau)``."""
    top = sigma.size + tau.size + 1
    rho = OddPartition(s + (1,) * k)
    denom = (2 ** sum(s) * z(OddPartition(s)) * factorial(k)
             * factorial(top - sigma.size) * factorial(top - tau.size))
    return StructureConstantRecord(sigma, tau, rho, rat(2 ** len(s) * diff, denom),
                                   _deg1_of(rho), _deg1_of(sigma) + _deg1_of(tau))


def structure_constants(
    sigma: OddPartition, tau: OddPartition, cap: int = LAB_CAP
) -> list[StructureConstantRecord]:
    """All nonzero records of fp_sigma * fp_tau, in canonical order.

    Computed from integer spin-character sums (module docstring); ``cap``
    bounds |sigma| + |tau| and can be raised freely.
    """
    _check_cap("|sigma| + |tau|", sigma.size + tau.size, cap)
    records = [_record(sigma, tau, *term) for term in _terms(sigma, tau)]
    records.sort(key=lambda rec: term_sort_key(rec.rho))
    return records


class ScanReport:
    """Outcome of a deg1 filtration scan over all products up to a total size.

    Mutable: the scan fills it in as it goes.
    """

    def __init__(
        self,
        max_total: int,
        pairs_scanned: int = 0,
        records_checked: int = 0,
        min_slack: int | None = None,
        max_slack: int | None = None,
        violations: list[StructureConstantRecord] | None = None,
    ):
        self.max_total = max_total
        self.pairs_scanned = pairs_scanned
        self.records_checked = records_checked
        self.min_slack = min_slack
        self.max_slack = max_slack
        self.violations = [] if violations is None else violations

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_obj(self) -> dict:
        return {
            "max_total": self.max_total,
            "pairs_scanned": self.pairs_scanned,
            "records_checked": self.records_checked,
            "min_slack": self.min_slack,
            "max_slack": self.max_slack,
            "violations_found": len(self.violations),
            "violations": [rec.to_json_obj() for rec in self.violations],
            "conjecture_holds_in_range": self.ok,
        }


def deg1_conjecture_scan(max_total: int, cap: int = LAB_CAP) -> ScanReport:
    """Scan every unordered pair (sigma, tau) with |sigma| + |tau| <= max_total.

    Records violating |rho| + m_1(rho) <= deg1(sigma) + deg1(tau) are
    collected verbatim, and only they are built; an empty list is the
    expected outcome, a nonempty one is a counterexample to the filtration
    conjecture.  ``cap`` bounds max_total and can be raised freely.
    """
    if max_total < 2:
        raise ValueError("max_total must be at least 2")
    _check_cap("max_total", max_total, cap)
    report = ScanReport(max_total=max_total)
    records, low, high = 0, None, None
    for sigma, tau, terms in _scan_pairs(max_total):
        report.pairs_scanned += 1
        rhs = _deg1_of(sigma) + _deg1_of(tau)
        for s, size, d in terms:
            for k, diff in enumerate(d):
                if not diff:
                    continue
                records += 1
                slack = rhs - size - 2 * k
                if low is None or slack < low:
                    low = slack
                if high is None or slack > high:
                    high = slack
                if slack < 0:
                    report.violations.append(_record(sigma, tau, s, k, diff))
    report.violations.sort(key=lambda rec: (term_sort_key(rec.sigma), term_sort_key(rec.tau),
                                            term_sort_key(rec.rho)))
    report.records_checked, report.min_slack, report.max_slack = records, low, high
    return report


class P2Report(namedtuple("P2Report", "max_n values fit_nodes residuals")):
    """Exact E_n[p_2] values and the failed degree-2 interpolation: values
    and residuals are lists of (n, Rat) pairs, fit_nodes the three n of the
    quadratic."""

    __slots__ = ()

    @property
    def polynomial_fit_fails(self) -> bool:
        return any(r for _, r in self.residuals)

    def to_json_obj(self) -> dict:
        return {
            "max_n": self.max_n,
            "values": {str(n): rat_str(v) for n, v in self.values},
            "fit_nodes": list(self.fit_nodes),
            "residuals": {str(n): rat_str(r) for n, r in self.residuals},
            "degree2_fit_fails": self.polynomial_fit_fails,
        }


def p2_experiment(max_n: int, cap: int = P2_CAP) -> P2Report:
    """Exact E_n[p_2] for n <= max_n plus a degree-2 interpolation check.

    The interpolating quadratic through n = 1, 2, 3 is evaluated exactly at
    4..6; a nonzero residual certifies that no quadratic matches all six
    paper values.  ``cap`` guards against runaway enumeration and can be
    raised freely.
    """
    if max_n < 6:
        raise ValueError("max_n must be at least 6 to cover the reference table")
    _check_cap("max_n", max_n, cap)
    p2 = OrdinaryPSumExpr.p(2)
    values = [(n, average_bruteforce(p2, n)) for n in range(0, max_n + 1)]
    by_n = dict(values)

    def quadratic_through_123(x: int) -> Rat:
        y1, y2, y3 = by_n[1], by_n[2], by_n[3]
        return (
            y1 * rat((x - 2) * (x - 3), 2)
            - y2 * rat((x - 1) * (x - 3), 1)
            + y3 * rat((x - 1) * (x - 2), 2)
        )

    residuals = [(n, by_n[n] - quadratic_through_123(n)) for n in (4, 5, 6)]
    return P2Report(max_n=max_n, values=values, fit_nodes=(1, 2, 3),
                    residuals=residuals)
