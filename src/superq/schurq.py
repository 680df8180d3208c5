"""Schur P- and Q-functions and the projective character values X^lambda_rho.

The character tables are computed in plain integers by Morris's bar-removal
recursion, the spin analogue of Murnaghan-Nakayama (A. O. Morris, *The spin
representation of the symmetric group*, 1962; P. N. Hoffman and
J. F. Humphreys, *Projective Representations of the Symmetric Groups*,
1992).  With X^()_() = 1 and rho = (r) u rho' for the largest part r,

    X^lambda_rho = sum over the r-bars of lambda of w * X^mu_rho',

where an r-bar of the strict partition lambda is one of

(a) a part lambda_i > r with lambda_i - r not a part: mu replaces lambda_i
    by lambda_i - r, and w = (-1)^{#parts strictly between lambda_i - r and
    lambda_i};
(b) a part lambda_i = r: mu drops it, and w = (-1)^{#parts < r};
(c) two parts lambda_i > lambda_j with lambda_i + lambda_j = r: mu drops
    both, and w = 2 (-1)^{lambda_j + #parts strictly between them}.

Each table keeps only these integer columns; there is no rational copy.
``CharacterTable.value`` turns one entry into a rational as it reads it, and
the code that sweeps a whole table (``q``, ``expand_in_P``, ``rows``) reads
the integers straight from the columns.  Q_lambda is read off its row of the
table, Q_lambda = sum_rho 2^{l(rho)} z_rho^{-1} X^lambda_rho p_rho, and
X = <p_rho, Q_lambda> is kept as the scalar-product view of the same values.
"""

from __future__ import annotations

from functools import cache
from math import lcm

from .gamma import GammaElement, scalar_product
from .partitions import (
    OddPartition,
    StrictPartition,
    enumerate_odd,
    enumerate_strict,
    z,
)
from .rational import Rat, rat


@cache
def q_onerow(k: int) -> GammaElement:
    """The one-row Schur Q-function Q_(k); Q_(0) = 1."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return GammaElement.one()
    return GammaElement(
        {rho: rat(2**rho.length, z(rho)) for rho in enumerate_odd(k)}
    )


def _bars(parts: tuple[int, ...], r: int) -> list[tuple[tuple[int, ...], int]]:
    # (mu, w) for every r-bar of the strict partition `parts`; see the
    # module docstring for the three kinds.
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


@cache
def q(lam: StrictPartition) -> GammaElement:
    """The Schur Q-function Q_lambda in the p-basis, read off its table row."""
    table = character_table(lam.size)
    i = table._row_of[lam.parts]
    return GammaElement(
        (rho, rat(2**rho.length * column[i], z(rho)))
        for rho, column in zip(table.odd, table._columns)
        if column[i]
    )


def p_fn(lam: StrictPartition) -> GammaElement:
    """The Schur P-function P_lambda = 2^{-l(lambda)} Q_lambda."""
    return q(lam) * rat(1, 2**lam.length)


class _ValuesView:
    """Read-only (lambda, rho) -> X^lambda_rho mapping over the integer
    columns of one table; each entry becomes a Rat as it is read."""

    __slots__ = ("_table",)

    def __init__(self, table: "CharacterTable"):
        self._table = table

    def __getitem__(self, key) -> Rat:
        lam, rho = key
        table = self._table
        return rat(table._columns[table._col_of[rho.parts]][table._row_of[lam.parts]])

    def keys(self):
        table = self._table
        return ((lam, rho) for rho in table.odd for lam in table.strict)


class CharacterTable:
    """All values X^lambda_rho for |lambda| = |rho| = k (zeros included).

    Column rho = (r) u rho' is filled in integers by bar removal of r from
    the column rho' of ``character_table(k - r)``.  The integer columns are
    the only copy of the values: ``value`` reads one of them through the
    view ``_values`` and returns it as a Rat.
    """

    def __init__(self, k: int):
        self.k = k
        self.strict = enumerate_strict(k)
        self.odd = enumerate_odd(k)
        self._row_of = {lam.parts: i for i, lam in enumerate(self.strict)}
        self._col_of = {rho.parts: j for j, rho in enumerate(self.odd)}
        self._columns = [[1]] if k == 0 else self._remove_bars()
        self._values = _ValuesView(self)

    def _remove_bars(self) -> list[list[int]]:
        bars = {}  # r -> for each lambda, [(row of mu in the smaller table, w)]
        columns = []
        for rho in self.odd:
            r = rho.parts[0]
            sub = character_table(self.k - r)
            if r not in bars:
                bars[r] = [
                    [(sub._row_of[mu], w) for mu, w in _bars(lam.parts, r)]
                    for lam in self.strict
                ]
            column = sub._columns[sub._col_of[rho.parts[1:]]]
            columns.append(
                [sum(w * column[i] for i, w in lam_bars) for lam_bars in bars[r]]
            )
        return columns

    def value(self, lam: StrictPartition, rho: OddPartition) -> Rat:
        return self._values[(lam, rho)]

    def rows(self):
        """(lambda, [(rho, X^lambda_rho), ...]) in enumeration order."""
        for i, lam in enumerate(self.strict):
            yield lam, [(rho, rat(column[i])) for rho, column in zip(self.odd, self._columns)]


@cache
def character_table(k: int) -> CharacterTable:
    return CharacterTable(k)


def character(lam: StrictPartition, rho: OddPartition) -> Rat:
    """X^lambda_rho, read off the bar-removal table."""
    if lam.size != rho.size:
        raise ValueError(
            f"size mismatch: |lambda|={lam.size} but |rho|={rho.size}"
        )
    return character_table(lam.size).value(lam, rho)


def character_via_scalar(lam: StrictPartition, rho: OddPartition) -> Rat:
    """X^lambda_rho = <p_rho, Q_lambda>, the scalar-product view of the table.

    Q_lambda is read off the table, so this agrees with ``character`` by
    construction; the tests compare it against Q_lambda built by Pfaffians.
    """
    if lam.size != rho.size:
        raise ValueError(
            f"size mismatch: |lambda|={lam.size} but |rho|={rho.size}"
        )
    return scalar_product(GammaElement.p(rho), q(lam))


def expand_p_in_P(rho: OddPartition) -> dict[StrictPartition, Rat]:
    """Coefficients of p_rho = sum_lambda X^lambda_rho P_lambda (zeros dropped)."""
    return expand_in_P(GammaElement.p(rho))


def expand_in_P(f: GammaElement) -> dict[StrictPartition, Rat]:
    """P-basis coefficients of an arbitrary element, degree by degree."""
    out: dict[StrictPartition, Rat] = {}
    for d, component in f.homogeneous_split().items():
        table = character_table(d)
        # sum_rho c_rho X^lambda_rho in integers over the common denominator
        coeffs = component._coeffs
        denom = lcm(*(c.denominator for c in coeffs.values()))
        terms = [
            (c.numerator * (denom // c.denominator),
             table._columns[table._col_of[rho.parts]])
            for rho, c in coeffs.items()
        ]
        for i, lam in enumerate(table.strict):
            total = sum(c * column[i] for c, column in terms)
            if total:
                out[lam] = rat(total, denom)
    return out
