"""Strict, odd, and ordinary integer partitions and their shifted-diagram
combinatorics: cells and contents, inner/outer corners, standard-tableau
counts g and g^{lambda/mu}, plus the small number-theoretic helpers
(z_rho, falling factorials, the rows of the two Stirling matrices:
T(k, j) of the second kind and the signed s(k, j) of the first kind, which
are inverse unitriangular matrices, and the Newton forward differences
that read a polynomial off its values at 0, 1, 2, ...).

The enumerations run by successor steps in decreasing lexicographic order
on one list (Knuth, TAOCP Vol. 4A, 7.2.1.4): pop the parts that cannot
shrink, lower the last part that can, and refill the freed sum greedily
with the largest parts allowed.  They use no recursion and O(length)
working memory; the recursive descent on the largest part is their test
oracle.

Skew counts g^{lambda/mu} come from a forward sweep that adds one cell per
step to every shape and sums the counts arriving at the same shape; the
sweep of ``skew_counts`` keys a shape by the set of its parts as one
integer, mask = 1 + sum_i 2^{lambda_i}.  ``_strict_walk`` visits the strict
partitions with sizes in a range [lo, hi] depth first on an explicit stack
and grows g (by the hook formula) and the power sums a part at a time, so a
prefix does its share once for every partition that extends it.  Every
prefix is itself a strict partition, so one walk serves every size of the
range.  ``g`` and ``g_skew`` still compute one shape at a time, and the
tests check the walk and the sweep against them.

Partitions are immutable, hashable, and typed: a ``StrictPartition`` never
compares equal to an ``OddPartition`` with the same parts, so the three
index families cannot be confused as dictionary keys.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache
from math import comb, factorial
from operator import add


class Cell(namedtuple("Cell", "row col")):
    """A box (row, col) of a shifted diagram, 1-based."""

    __slots__ = ()

    @property
    def content(self) -> int:
        return self.col - self.row


class _Partition:
    """Common behaviour; subclasses pin down the shape invariant."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        self._validate(parts)
        self.parts = parts

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]):
        """A partition of a tuple of ints already known to be valid for cls:
        no conversion and no check."""
        self = object.__new__(cls)
        self.parts = parts
        return self

    @staticmethod
    def _validate(parts):
        raise NotImplementedError

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __eq__(self, other):
        return type(self) is type(other) and self.parts == other.parts

    def __hash__(self):
        return hash((type(self).__name__, self.parts))

    def __repr__(self):
        return f"{type(self).__name__}({self.parts!r})"

    def __str__(self):
        return ",".join(str(p) for p in self.parts)

    @classmethod
    def from_text(cls, text: str):
        """Parse comma-separated decreasing parts in ASCII digits; "" and
        "0" mean empty."""
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        pieces = [piece.strip() for piece in text.split(",")]
        if not all(piece.isascii() and piece.isdigit() for piece in pieces):
            raise ValueError(f"bad partition literal {text!r}")
        return cls(int(piece) for piece in pieces)


class StrictPartition(_Partition):
    """Strictly decreasing positive parts; indexes shifted diagrams."""

    __slots__ = ()

    @staticmethod
    def _validate(parts):
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] <= p:
                raise ValueError(f"parts must be strictly decreasing, got {parts}")


class OddPartition(_Partition):
    """Weakly decreasing positive odd parts; indexes the power-sum basis."""

    __slots__ = ()

    @staticmethod
    def _validate(parts):
        for i, p in enumerate(parts):
            if p <= 0 or p % 2 == 0:
                raise ValueError(f"parts must be positive odd, got {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")

    def multiplicity(self, r: int) -> int:
        return self.parts.count(r)


class OrdinaryPartition(_Partition):
    """Weakly decreasing positive parts; indexes ordinary power sums."""

    __slots__ = ()

    @staticmethod
    def _validate(parts):
        for i, p in enumerate(parts):
            if p <= 0:
                raise ValueError(f"parts must be positive, got {parts}")
            if i and parts[i - 1] < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")


EMPTY_STRICT = StrictPartition(())


def term_sort_key(partition):
    """Total order on partitions: by size, then decreasing lexicographic."""
    return (partition.size, tuple(-p for p in partition.parts))


def display_sort_key(partition):
    """Rendering order for sums: degree descending, then decreasing lex."""
    return (-partition.size, tuple(-p for p in partition.parts))


# --- enumeration (decreasing lexicographic within each size) ---------------


def _strict_tuples(n):
    # Successor steps on one list: pop the parts that cannot shrink, lower
    # the last part p that can by 1, and refill the freed sum greedily with
    # the largest parts allowed, top, top - 1, ..., and what is left.  p can
    # shrink when p - 1 > p - 2 > ... > 1 reach the sum freed with it:
    # (p - 1) p / 2 >= rest.
    parts, rest, top = [], n, n
    while True:
        while rest > top:
            parts.append(top)
            rest -= top
            top -= 1
        if rest:
            parts.append(rest)
        yield tuple(parts)
        rest = 0
        while parts:
            p = parts.pop()
            rest += p
            if p * (p - 1) >= 2 * rest:
                top = p - 1
                break
        else:
            return


def _odd_tuples(n):
    # As _strict_tuples: every part above 1 can shrink, by 2.  The fill
    # repeats the largest odd part allowed, and a remainder r that is even
    # ends in (r - 1, 1).  n | 1 is a harmless bound when n is even.
    parts, rest, top = [], n, n | 1
    while True:
        repeat, r = divmod(rest, top)
        parts += [top] * repeat
        if r % 2:
            parts.append(r)
        elif r:
            parts += (r - 1, 1)
        yield tuple(parts)
        # the 1s come last and cannot shrink; the part before them can
        ones = parts.index(1) if parts and parts[-1] == 1 else len(parts)
        if not ones:
            return
        top = parts[ones - 1]
        rest = len(parts) - ones + top
        del parts[ones - 1:]
        top -= 2


def _ordinary_tuples(n):
    # As _odd_tuples, with every part allowed and lowered by 1.
    parts, rest, top = [], n, max(n, 1)
    while True:
        repeat, r = divmod(rest, top)
        parts += [top] * repeat
        if r:
            parts.append(r)
        yield tuple(parts)
        ones = parts.index(1) if parts and parts[-1] == 1 else len(parts)
        if not ones:
            return
        top = parts[ones - 1]
        rest = len(parts) - ones + top
        del parts[ones - 1:]
        top -= 1


@cache
def enumerate_strict(n: int) -> tuple[StrictPartition, ...]:
    """All strict partitions of n, decreasing lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(map(StrictPartition._trusted, _strict_tuples(n)))


@cache
def enumerate_odd(n: int) -> tuple[OddPartition, ...]:
    """All odd partitions of n, decreasing lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(map(OddPartition._trusted, _odd_tuples(n)))


@cache
def enumerate_ordinary(n: int) -> tuple[OrdinaryPartition, ...]:
    """All partitions of n, decreasing lexicographic."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(OrdinaryPartition(t) for t in _ordinary_tuples(n))


# --- shifted diagrams -------------------------------------------------------


def shifted_cells(lam: StrictPartition) -> list[Cell]:
    """Cells (i, j) with 1 <= i <= len(lam), i <= j <= lam_i + i - 1."""
    return [
        Cell(i, j)
        for i, part in enumerate(lam.parts, start=1)
        for j in range(i, part + i)
    ]


def contains(lam: StrictPartition, mu: StrictPartition) -> bool:
    """Whether the shifted diagram of mu sits inside that of lam."""
    return _contains(lam.parts, mu.parts)


def _contains(lam_parts, mu_parts):
    if len(mu_parts) > len(lam_parts):
        return False
    return all(m <= l for m, l in zip(mu_parts, lam_parts))


def outer_corners(lam: StrictPartition) -> list[Cell]:
    """Cells whose removal leaves the shifted diagram of a strict partition."""
    p = lam.parts
    out = []
    for i, part in enumerate(p):
        if i == len(p) - 1 or part - 1 > p[i + 1]:
            out.append(Cell(i + 1, part + i))
    return out


def inner_corners(lam: StrictPartition) -> list[Cell]:
    """Cells whose addition yields the shifted diagram of a strict partition."""
    p = lam.parts
    res = []
    for i, part in enumerate(p):
        if i == 0 or p[i - 1] > part + 1:
            res.append(Cell(i + 1, part + i + 1))
    if not p or p[-1] > 1:
        res.append(Cell(len(p) + 1, len(p) + 1))
    return res


def corners(lam: StrictPartition) -> tuple[list[Cell], list[Cell]]:
    """(inner, outer) corner cells of the shifted diagram."""
    return inner_corners(lam), outer_corners(lam)


def remove_cell(lam: StrictPartition, cell: Cell) -> StrictPartition:
    if cell not in outer_corners(lam):
        raise ValueError(f"{cell} is not an outer corner of {lam!r}")
    parts = list(lam.parts)
    parts[cell.row - 1] -= 1
    if parts[-1] == 0:
        parts.pop()
    return StrictPartition(parts)


def add_cell(lam: StrictPartition, cell: Cell) -> StrictPartition:
    if cell not in inner_corners(lam):
        raise ValueError(f"{cell} is not an inner corner of {lam!r}")
    parts = list(lam.parts)
    if cell.row == len(parts) + 1:
        parts.append(1)
    else:
        parts[cell.row - 1] += 1
    return StrictPartition(parts)


# --- standard shifted tableaux ----------------------------------------------


def _grow(layer: dict[tuple, int], inside: tuple) -> dict[tuple, int]:
    # One step of the forward sweep of _g_skew: add every addable cell to
    # each shape whose diagram stays inside that of `inside`, and sum the
    # counts that arrive at the same tuple.
    grown: dict[tuple, int] = {}
    for parts, count in layer.items():
        above = None
        for i, part in enumerate(parts):
            if (above is None or above > part + 1) and inside[i] > part:
                shape = (*parts[:i], part + 1, *parts[i + 1:])
                grown[shape] = grown.get(shape, 0) + count
            above = part
        if (not parts or parts[-1] > 1) and len(inside) > len(parts):
            shape = (*parts, 1)
            grown[shape] = grown.get(shape, 0) + count
    return grown


@cache
def _g_skew(lam_parts: tuple, mu_parts: tuple) -> int:
    if not _contains(lam_parts, mu_parts):
        return 0
    layer = {mu_parts: 1}
    for _ in range(sum(lam_parts) - sum(mu_parts)):
        layer = _grow(layer, lam_parts)
    return layer.get(lam_parts, 0)


def g_skew(lam: StrictPartition, mu: StrictPartition) -> int:
    """Number of standard tableaux of shifted shape lam/mu (0 if mu not in lam).

    A forward sweep over part tuples that keeps only the shapes inside
    lam; the corner-removal recursion is its test oracle.
    """
    return _g_skew(lam.parts, mu.parts)


def _mask(parts) -> int:
    # The set of parts as one integer: bit p for each part p, plus bit 0.
    return sum(1 << p for p in parts) + 1


def _mask_parts(mask: int) -> tuple:
    # Inverse of _mask: the set bits above bit 0, largest first.
    return tuple(p for p in range(mask.bit_length() - 1, 0, -1) if mask >> p & 1)


def _skew_layers(mu: StrictPartition, n: int):
    """For j = 0..n in order, from one sweep: g^{lam/mu} for every strict
    lam of size |mu| + j that contains mu, keyed by _mask(lam)."""
    layer = {_mask(mu.parts): 1}
    yield layer
    for _ in range(n):
        grown: dict[int, int] = {}
        for mask, count in layer.items():
            # bit p with bit p + 1 clear: part p can grow, and the bit 0
            # sentinel with bit 1 clear means a new part 1 can start
            free = mask & ~(mask >> 1)
            while free:
                bit = free & -free
                free ^= bit
                shape = mask + (2 if bit == 1 else bit)
                grown[shape] = grown.get(shape, 0) + count
        layer = grown
        yield layer


def skew_counts(mu: StrictPartition, n: int) -> dict[tuple, int]:
    """g^{lam/mu} for every strict lam of size |mu| + n that contains mu,
    keyed by the parts of lam.

    One forward sweep on bitmask keys: a strict partition is the set of its
    parts, kept as mask = 1 + sum_i 2^{lam_i} (bit 0 is a sentinel).  The
    addable cells of a shape are the set bits of mask & ~(mask >> 1); part
    p grows to p + 1 as mask + 2^p, and the sentinel adds a new part 1 as
    mask + 2.  Start from {mu: 1}; at each of the n steps, add every
    addable cell of each shape and sum the counts that arrive at the same
    mask.  The masks become part tuples once, at the end.  The
    corner-removal recursion is the test oracle, and ``g`` (the hook
    formula) is the check for mu empty.
    """
    for layer in _skew_layers(mu, n):
        pass
    return {_mask_parts(mask): count for mask, count in layer.items()}


def _strict_walk(lo: int, hi: int, powers: tuple):
    """(|lam|, mask, l(lam), g(lam), (p_r(lam) for r in powers)) for every
    strict lam with lo <= |lam| <= hi, with mask = _mask(lam.parts) as in
    ``skew_counts``.

    Depth first over the parts, largest first, on an explicit stack, so a
    prefix computes its share of the hook formula and of the power sums
    once for every partition that extends it.  Each prefix is itself a
    strict partition and carries its own g: by the shifted hook formula,
    appending a part b below the parts a of a prefix of size s multiplies
    g by C(s + b, b) prod (a - b) / prod (a + b), and that division is exact
    because the result is the g of the longer prefix.  Appending b also adds
    b^r to each p_r.  A prefix is yielded when its size is in range, and
    a part b is appended only if the parts b > b - 1 > ... > 1 can still
    reach lo.
    """
    if lo < 0:
        raise ValueError("n must be nonnegative")
    power_rows = [tuple(b**r for r in powers) for b in range(hi + 1)]
    # (parts, mask, size, g, power sums) of a prefix
    stack = [((), 1, 0, 1, (0,) * len(powers))]
    while stack:
        parts, mask, size, count, sums = stack.pop()
        if size >= lo:
            yield size, mask, len(parts), count, sums
            if size == hi:
                continue
        need = 2 * (lo - size)
        for b in range(min(hi - size, parts[-1] - 1) if parts else hi - size, 0, -1):
            if b * (b + 1) < need:
                break  # the parts b, b - 1, ..., 1 sum to b(b+1)/2 < lo - size
            numer = comb(size + b, b)
            denom = 1
            for a in parts:
                numer *= a - b
                denom *= a + b
            stack.append(((*parts, b), mask | 1 << b, size + b, count * numer // denom,
                          tuple(map(add, sums, power_rows[b]))))


def g(lam: StrictPartition) -> int:
    """Number of standard tableaux of shifted shape lam; g(empty) = 1.

    Computed by the shifted hook formula (Schur 1911; Thrall 1952):
    g(lam) = n! prod_{i<j} (lam_i - lam_j) / (prod_i lam_i! prod_{i<j} (lam_i + lam_j)),
    in integers; the corner-removal recursion for g^{lam/empty} is its test
    oracle.
    """
    return _g_parts(lam.parts)


def _g_parts(parts: tuple) -> int:
    # g on the parts of a strict partition, without building the partition.
    if len(parts) <= 1:
        return 1  # one row fills one way, however long
    numer = factorial(sum(parts))
    denom = 1
    for i, a in enumerate(parts):
        denom *= factorial(a)
        for b in parts[i + 1:]:
            numer *= a - b
            denom *= a + b
    return numer // denom


# --- numeric helpers ---------------------------------------------------------


def z(rho: OddPartition) -> int:
    """z_rho = prod_r r^{m_r} m_r!, the centralizer order of the class rho."""
    out = 1
    mult = 1
    for i, part in enumerate(rho.parts):
        if i and rho.parts[i - 1] == part:
            mult += 1
        else:
            mult = 1
        out *= part * mult
    return out


def newton_differences(values, label: str = "values") -> list:
    """Delta^j v(0) for j = 0..d from the values v(0), ..., v(d + 1).

    A polynomial v of degree <= d is v(x) = sum_j Delta^j v(0) x^(j) / j!.
    The last value is the degree-check node: Delta^{d+1} v(0) must vanish,
    otherwise ``ArithmeticError`` names ``label`` and the nonzero value.
    Integers stay integers.
    """
    diffs = list(values)
    if not diffs:
        raise ValueError(f"{label}: newton_differences needs at least one value")
    last = len(diffs) - 1
    # in place: after step k, diffs[j] = Delta^k v(j - k) for j >= k
    for k in range(1, last + 1):
        for j in range(last, k - 1, -1):
            diffs[j] -= diffs[j - 1]
    check = diffs.pop()
    if check:
        raise ArithmeticError(
            f"{label}: not a polynomial of degree <= {last - 1}, the degree-check "
            f"node gives Delta^{last} = {check}"
        )
    return diffs


def falling(x, k: int):
    """Falling factorial x(x-1)...(x-k+1); works for any ring element."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = 1
    for i in range(k):
        out = out * (x - i)
    return out


# The rows of the two Stirling matrices built so far, by index.  Each call
# extends its map from the last row built, so rows 0..k cost about k^2
# operations in all; setdefault keeps a row that another thread added first.
_STIRLING1_ROWS = {0: (1,)}
_STIRLING2_ROWS = {0: (1,)}


def _stirling1_row(k: int) -> tuple[int, ...]:
    # s(k, j) for j = 0..k, the signed Stirling numbers of the first kind:
    # the monomial coefficients (low to high) of n(n-1)...(n-k+1), by
    # s(i + 1, j) = s(i, j - 1) - i s(i, j).
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = _STIRLING1_ROWS
    while k not in rows:
        i = len(rows) - 1
        row = rows[i]
        rows.setdefault(i + 1, tuple(a - i * b for a, b in zip((0,) + row, row + (0,))))
    return rows[k]


def _stirling2_row(k: int) -> tuple[int, ...]:
    # T(k, j) for j = 0..k, with T(0, 0) = 1: the falling-factorial
    # coefficients of n^k, by T(i + 1, j) = T(i, j - 1) + j T(i, j).
    if k < 0:
        raise ValueError("k must be nonnegative")
    rows = _STIRLING2_ROWS
    while k not in rows:
        i = len(rows) - 1
        row = rows[i]
        rows.setdefault(i + 1, tuple(
            a + j * b for j, (a, b) in enumerate(zip((0,) + row, row + (0,)))))
    return rows[k]


def stirling2(k: int, j: int) -> int:
    """Stirling number of the second kind T(k, j), for 1 <= j <= k, by
    inclusion-exclusion: j! T(k, j) = sum_i (-1)^(j-i) C(j, i) i^k."""
    if not (1 <= j <= k):
        raise ValueError(f"stirling2 needs 1 <= j <= k, got k={k}, j={j}")
    total = sum((-1) ** (j - i) * comb(j, i) * i**k for i in range(1, j + 1))
    return total // factorial(j)
