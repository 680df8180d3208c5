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
parts are all <= r.  The suffix of each row mu of that table is packed into
one integer packed_r(mu) = sum_j X^mu_{rho'_j} B^j of signed digits,
B = 2^{8 b}, and

    row(lambda) = sum over the r-bars (r, mu, w) of lambda, for every odd r,
                  of w * packed_r(mu) * B^{first column of block r},

whose digits are the entries of the row of lambda.  A strict partition is
its bitmask 1 + sum_i 2^{lambda_i} (``partitions._mask``), and the r-bars
of lambda, for every r at once, are bit moves on the mask S of lambda, one
walk over its parts a:

(a) for each b = a - 1, a - 3, ... >= 1 whose bit is clear, mu = S ^ 2^a |
    2^b, with w = -1 when an odd number of parts lie strictly between b
    and a;
(b) for odd a, mu = S ^ 2^a, with w = -1 when an odd number of parts are
    below a;
(c) for each smaller part c with a + c odd, mu = S ^ 2^a ^ 2^c, and the
    weight +-2 is one more bit of shift.

Each bar adds its shifted packed_r(mu) to one of two sums, the one of its
sign, and the row is the first sum less the second.

For one r each bar has a part of lambda of its own (the part shortened or
dropped, or the smaller of the two), so lambda has at most l(lambda)
r-bars, and |w| <= 2:

    |X^lambda_rho| <= 2 l(lambda) max |X^mu_rho'|.

The digit width b of a table is the fewest bytes whose signed range holds
this bound for every entry, rounded up to 1, 2, 4, 8 or 16 bytes where one
of those suffices.  Of tables 1..30, only table 25 gets its width from the
factor 2: its bound 2 * 6 * 232,973,440 = 2,795,681,280 needs 8-byte digits,
while its largest entry, 749,892,000, fits in 4 bytes.  Digits are
little-endian two's complement.  The byte order is decided once, in
``_ARRAY_CODES``: on a little-endian machine, where an ``array``'s bytes
are such digits, rows of 1-, 2-, 4- and 8-byte digits are written and read
by ``array``, and rows of 16-byte digits (from table 41 on) by an
``array`` of two signed 8-byte words per digit, the low word first.  On
any other machine, and for wider digits, rows go entry by entry by
``int.to_bytes`` and ``int.from_bytes``.  Reading a packed row adds
2^{8 b - 1} to every digit, which makes each digit nonnegative, and flips
those bits back by one XOR, which leaves the bytes of the two's-complement
digits; writing a row undoes both.

Each table keeps its rows as they are decoded, one per lambda, and nothing
else: there is no rational copy and no column copy.  ``CharacterTable.value``
turns one entry into a rational as it reads it, and ``rows`` does so row by
row.  The two basis changes read the integers straight from the rows, in
the two directions of P_lambda = sum_rho 2^{l(rho) - l(lambda)} z_rho^{-1}
X^lambda_rho p_rho, each on integer numerators over one denominator D
(``gamma.integer_form``): ``expand_in_P`` finds the P-coefficients of f by
one integer column sum per lambda, and ``_combine_P`` writes sum_lambda
(a_lambda / D) P_lambda, for ints a_lambda, in the p-basis by one integer
row sum per degree.  ``q``, ``factorial.p_star`` and both directions of Psi
go through the latter.
X = <p_rho, Q_lambda> is kept as the scalar-product view of the same values.
"""

from __future__ import annotations

import sys
from array import array
from functools import cache, partial
from itertools import chain, groupby

from .gamma import GammaElement, integer_form, scalar_product
from .partitions import (
    OddPartition,
    StrictPartition,
    _mask,
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


_WORD = 2**64 - 1


def _two_words(row) -> array:
    # 16-byte digits as two signed words each, the low word first
    return array("q", [w for x in row for w in (((x + 2**63) & _WORD) - 2**63, x >> 64)])


def _from_two_words(data: bytes) -> list[int]:
    words = array("q", data)
    return [(high << 64) + (low & _WORD) for low, high in zip(words[::2], words[1::2])]


# width -> (a row as an array whose bytes are its digits, the digits of such
# bytes), for the widths ``array`` reads and writes; the one byte-order
# decision: an array's bytes are little-endian digits only on a
# little-endian machine, so elsewhere the map is empty and every width goes
# digit by digit
_ARRAY_CODES = {}
if sys.byteorder == "little":
    _ARRAY_CODES = {array(code).itemsize: (partial(array, code),) * 2 for code in "bhiq"}
    _ARRAY_CODES[16] = _two_words, _from_two_words


def _digit_width(bound: int) -> int:
    """The fewest bytes whose signed range holds every |x| <= bound, rounded
    up to 1, 2, 4, 8 or 16 bytes where one of those suffices."""
    width = (bound.bit_length() + 8) // 8  # so that 2^{8 width - 1} > bound
    return min((w for w in (1, 2, 4, 8, 16) if w >= width), default=width)


@cache
def _sign_bits(width: int, count: int) -> int:
    # 2^{8 width - 1} in each of `count` digits of `width` bytes
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _row_bytes(row, width: int) -> bytes:
    # the entries of `row` as little-endian two's-complement digits, the
    # one route from a row to its bytes
    codec = _ARRAY_CODES.get(width)
    if codec:
        return codec[0](row).tobytes()
    return b"".join(x.to_bytes(width, "little", signed=True) for x in row)


def _pack_rows(rows: list, width: int) -> list[int]:
    """sum_j row[j] 2^{8 width j} for each of `rows`, which all have one
    length: the entries as signed digits of `width` bytes, each in
    [-2^{8 width - 1}, 2^{8 width - 1})."""
    if not rows:
        return []
    sign = _sign_bits(width, len(rows[0]))
    return [(int.from_bytes(_row_bytes(row, width), "little") ^ sign) - sign for row in rows]


def _unpack_row(packed: int, width: int, count: int):
    """The `count` signed digits of `width` bytes of ``_pack_rows``, in order
    (an ``array`` for the widths of ``_ARRAY_CODES`` up to 8 bytes, else a
    list); exact whenever every digit of `packed`, a sum of packed rows, is
    in range."""
    sign = _sign_bits(width, count)
    data = ((packed + sign) ^ sign).to_bytes(width * count, "little")
    codec = _ARRAY_CODES.get(width)
    if codec:
        return codec[1](data)
    return [int.from_bytes(data[i : i + width], "little", signed=True)
            for i in range(0, len(data), width)]


@cache
def q(lam: StrictPartition) -> GammaElement:
    """The Schur Q-function Q_lambda = 2^{l(lambda)} P_lambda in the p-basis."""
    return _combine_P({lam: 1 << lam.length})


def p_fn(lam: StrictPartition) -> GammaElement:
    """The Schur P-function P_lambda = 2^{-l(lambda)} Q_lambda."""
    return q(lam) * rat(1, 2**lam.length)


class _ValuesView:
    """Read-only (lambda, rho) -> X^lambda_rho mapping over the integer
    rows of one table; each entry becomes a Rat as it is read."""

    __slots__ = ("_table",)

    def __init__(self, table: "CharacterTable"):
        self._table = table

    def __getitem__(self, key) -> Rat:
        lam, rho = key
        table = self._table
        return rat(table._rows[table._row_of[_mask(lam.parts)]][table._col_of[rho.parts]])

    def keys(self):
        table = self._table
        return ((lam, rho) for lam in table.strict for rho in table.odd)


class CharacterTable:
    """All values X^lambda_rho for |lambda| = |rho| = k (zeros included).

    The row of lambda is one packed sum over its r-bars, for every odd r,
    of rows of ``character_table(k - r)`` (see the module docstring), and it
    is kept as decoded: an ``array`` of the table's digit width, or a list
    of ints for digits of 16 bytes or more, or on a machine that is not
    little-endian.  The rows are the only copy of the values: ``_row_of`` finds a row by the bitmask of lambda
    (``partitions._mask``), ``_col_of`` an entry by the parts of rho, and
    ``value`` reads one entry through the view ``_values`` as a Rat.
    """

    def __init__(self, k: int):
        self.k = k
        self.strict = enumerate_strict(k)
        self.odd = enumerate_odd(k)
        self._row_of = {_mask(lam.parts): i for i, lam in enumerate(self.strict)}
        self._col_of = {rho.parts: j for j, rho in enumerate(self.odd)}
        self._rows = [array("b", [1])] if k == 0 else self._remove_bars()
        self._values = _ValuesView(self)

    def _remove_bars(self) -> list:
        blocks = []  # (r, first column of block r, table k - r, its suffix rows)
        start = 0
        for r, block in groupby(self.odd, key=lambda rho: rho.parts[0]):
            size = len(list(block))
            sub = character_table(self.k - r)
            blocks.append((r, start, sub, [row[len(row) - size :] for row in sub._rows]))
            start += size
        entries = chain.from_iterable(row for *_, suffix in blocks for row in suffix)
        largest = max(map(abs, entries))
        width = _digit_width(2 * max(lam.length for lam in self.strict) * largest)
        # bars[r] = (packed_r(mu) by the mask of mu, the shift of block r)
        bars = [None] * (self.k + 1)
        for r, start, sub, suffix in blocks:
            bars[r] = dict(zip(sub._row_of, _pack_rows(suffix, width))), 8 * width * start
        count = len(self.odd)
        rows = []
        for lam, mask in zip(self.strict, self._row_of):
            # the r-bars of lambda for every odd r, by moving bits of its mask;
            # sums[e] takes the bars of sign (-1)^e, a weight 2 is one more shift
            sums = [0, 0]
            parts = lam.parts
            for i, a in enumerate(parts):
                top = 1 << a
                rest = mask ^ top
                for b in range(a - 1, 0, -2):  # (a): a becomes b = a - r
                    bit = 1 << b
                    if not mask & bit:
                        packed, shift = bars[a - b]
                        sums[(mask & (top - bit)).bit_count() & 1] += (
                            packed[rest | bit] << shift)
                if a & 1:  # (b): a = r is dropped
                    packed, shift = bars[a]
                    sums[(mask & (top - 2)).bit_count() & 1] += packed[rest] << shift
                for c in parts[i + 1 :]:  # (c): a and c with a + c = r dropped
                    if (a + c) & 1:
                        bit = 1 << c
                        packed, shift = bars[a + c]
                        sums[((mask & (top - 2 * bit)).bit_count() + c) & 1] += (
                            packed[rest ^ bit] << shift + 1)
            rows.append(_unpack_row(sums[0] - sums[1], width, count))
        return rows

    def value(self, lam: StrictPartition, rho: OddPartition) -> Rat:
        return self._values[(lam, rho)]

    def rows(self):
        """(lambda, [(rho, X^lambda_rho), ...]) in enumeration order."""
        for lam, row in zip(self.strict, self._rows):
            yield lam, [(rho, rat(x)) for rho, x in zip(self.odd, row)]


@cache
def character_table(k: int) -> CharacterTable:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return CharacterTable(k)


def _check_sizes(lam: StrictPartition, rho: OddPartition) -> None:
    if lam.size != rho.size:
        raise ValueError(f"size mismatch: |lambda|={lam.size} but |rho|={rho.size}")


def character(lam: StrictPartition, rho: OddPartition) -> Rat:
    """X^lambda_rho, read off the bar-removal table."""
    _check_sizes(lam, rho)
    return character_table(lam.size).value(lam, rho)


def character_via_scalar(lam: StrictPartition, rho: OddPartition) -> Rat:
    """X^lambda_rho = <p_rho, Q_lambda>, the scalar-product view of the table.

    Q_lambda is read off the table, so this agrees with ``character`` by
    construction; the tests compare it against Q_lambda built by Pfaffians.
    """
    _check_sizes(lam, rho)
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
        denom, numerators = integer_form(component._coeffs)
        terms = [(a, table._col_of[rho.parts]) for rho, a in numerators.items()]
        for lam, row in zip(table.strict, table._rows):
            total = sum(c * row[j] for c, j in terms)
            if total:
                out[lam] = rat(total, denom)
    return out


def _combine_P(numerators: dict, denom: int = 1) -> GammaElement:
    """sum_lambda (a_lambda / denom) P_lambda in the p-basis, for integers
    a_lambda, the transpose of ``expand_in_P``.  Per degree, with L the
    largest l(lambda), the integer sum total = sum_lambda a_lambda
    2^{L - l(lambda)} row_lambda over the rows of the table gives each
    coefficient once, as 2^{l(rho)} total_rho / (z_rho denom 2^L)."""
    by_degree: dict[int, dict] = {}
    for lam, a in numerators.items():
        by_degree.setdefault(lam.size, {})[lam] = a
    out = {}
    for d, weights in by_degree.items():
        table = character_table(d)
        top = max(lam.length for lam in weights)
        total = [0] * len(table.odd)
        for lam, a in weights.items():
            row = table._rows[table._row_of[_mask(lam.parts)]]
            w = a << (top - lam.length)
            total = [t + w * x for t, x in zip(total, row)]
        for rho, t in zip(table.odd, total):
            if t:
                out[rho] = rat(t << rho.length, z(rho) * denom << top)
    return GammaElement._wrap(out)
