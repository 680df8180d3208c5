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

Each row of a table is one big-integer sum.  The columns are in decreasing
lexicographic order, so in the table of degree k the columns rho = (r) u
rho' with first part r form one block, and their rho' run, in the same
order, through the suffix of the columns of the table of degree k - r whose
parts are all <= r.  Each row mu of that suffix is packed into one integer
packed_r(mu) = sum_j X^mu_{rho'_j} B^j of signed digits, B = 2^{8 b}, and

    row(lambda) = sum over the r-bars (r, mu, w) of lambda, for every odd r,
                  of w * packed_r(mu) * B^{first column of block r},

whose digits are the entries of the row of lambda.  One walk over the parts
of lambda lists its r-bars for every r at once.  For one r each bar has a
part of lambda of its own (the part shortened or dropped, or the smaller of
the two), so lambda has at most l(lambda) r-bars, and |w| <= 2:

    |X^lambda_rho| <= 2 l(lambda) max |X^mu_rho'|.

The digit width b of a table is the fewest bytes whose signed range holds
this bound for every entry, rounded up to 1, 2, 4 or 8 bytes where one of
those suffices.  Digits are two's complement: rows of 1-, 2-, 4- and 8-byte
digits are written and read by ``array``, wider ones (from about k = 41)
entry by entry by ``int.to_bytes`` and ``int.from_bytes``.  Reading a
packed row adds 2^{8 b - 1} to every digit, which makes each digit
nonnegative, and flips those bits back by one XOR, which leaves the bytes of
the two's-complement digits; writing a row undoes both.

Each table keeps only these integer columns; there is no rational copy.
``CharacterTable.value`` turns one entry into a rational as it reads it, and
the code that sweeps a whole table (``q``, ``expand_in_P``, ``rows``) reads
the integers straight from the columns.  Q_lambda is read off its row of the
table, Q_lambda = sum_rho 2^{l(rho)} z_rho^{-1} X^lambda_rho p_rho, and
X = <p_rho, Q_lambda> is kept as the scalar-product view of the same values.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache
from itertools import groupby
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


def _all_bars(parts: tuple[int, ...]) -> list[tuple[int, tuple[int, ...], int]]:
    # (r, mu, w) for every r-bar of the strict partition `parts`, every odd r,
    # in one walk over its parts; see the module docstring for the kinds.
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


_ARRAY_CODES = {array(code).itemsize: code for code in "bhiq"}


@cache
def _sign_bits(width: int, count: int) -> int:
    # 2^{8 width - 1} in each of `count` digits of `width` bytes
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack_row(row, width: int) -> int:
    """sum_j row[j] 2^{8 width j}: the entries as signed digits of `width`
    bytes, each in [-2^{8 width - 1}, 2^{8 width - 1})."""
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code, row)
        if sys.byteorder == "big":
            digits.byteswap()
        data = digits.tobytes()
    else:
        data = b"".join(x.to_bytes(width, "little", signed=True) for x in row)
    sign = _sign_bits(width, len(data) // width)
    return (int.from_bytes(data, "little") ^ sign) - sign


def _unpack_row(packed: int, width: int, count: int):
    """The `count` signed digits of `width` bytes of ``_pack_row``, in order
    (an ``array`` or a list); exact whenever every digit of `packed`, a sum
    of packed rows, is in range."""
    sign = _sign_bits(width, count)
    data = ((packed + sign) ^ sign).to_bytes(width * count, "little")
    code = _ARRAY_CODES.get(width)
    if code:
        digits = array(code)
        digits.frombytes(data)
        if sys.byteorder == "big":
            digits.byteswap()
        return digits
    return [int.from_bytes(data[i : i + width], "little", signed=True)
            for i in range(0, len(data), width)]


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

    The row of lambda is one packed sum over its r-bars, for every odd r,
    of rows of ``character_table(k - r)`` (see the module docstring); the
    rows are decoded once and transposed into integer columns.  The integer
    columns are the only copy of the values: ``value`` reads one of them
    through the view ``_values`` and returns it as a Rat.
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
        blocks = []  # (r, first column of block r, rows of table k - r, suffix)
        start = 0
        for r, block in groupby(self.odd, key=lambda rho: rho.parts[0]):
            size = len(list(block))
            sub = character_table(self.k - r)
            blocks.append((r, start, sub._row_of, sub._columns[len(sub.odd) - size :]))
            start += size
        suffixes = [column for *_, suffix in blocks for column in suffix]
        largest = max(max(map(max, suffixes)), -min(map(min, suffixes)))
        bound = 2 * max(lam.length for lam in self.strict) * largest
        width = (bound.bit_length() + 8) // 8  # so that 2^{8 width - 1} > bound
        width = min((w for w in _ARRAY_CODES if w >= width), default=width)
        packed = {
            r: (row_of, [_pack_row(row, width) for row in zip(*suffix)], 8 * width * start)
            for r, start, row_of, suffix in blocks
        }
        # rows are decoded 64 at a time and written into the columns, so that
        # the decoded rows of a whole table are never held at once
        columns = [[0] * len(self.strict) for _ in self.odd]
        for i in range(0, len(self.strict), 64):
            rows = []
            for lam in self.strict[i : i + 64]:
                total = 0
                for r, mu, w in _all_bars(lam.parts):
                    row_of, sub_rows, shift = packed[r]
                    total += w * sub_rows[row_of[mu]] << shift
                rows.append(_unpack_row(total, width, len(self.odd)))
            for column, entries in zip(columns, zip(*rows)):
                column[i : i + len(rows)] = entries
        return columns

    def value(self, lam: StrictPartition, rho: OddPartition) -> Rat:
        return self._values[(lam, rho)]

    def rows(self):
        """(lambda, [(rho, X^lambda_rho), ...]) in enumeration order."""
        for i, lam in enumerate(self.strict):
            yield lam, [(rho, rat(column[i])) for rho, column in zip(self.odd, self._columns)]


@cache
def character_table(k: int) -> CharacterTable:
    if k < 0:
        raise ValueError("k must be nonnegative")
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
