"""Sparse exact linear combinations, and the algebra Gamma of supersymmetric
functions in the odd power-sum basis.

``SparseTerms`` is the one container behind every linear combination in
this package: a finite map from keys (partitions, or the exponents j of
n^(j)) to exact nonzero rationals, with the cleaning constructor, sums,
scaling, display order, JSON records and the term renderer.  Its
subclasses fix the key type and never compare equal to one another, so
two bases cannot be mixed up.

A ``GammaElement`` is a finite linear combination of basis monomials
p_rho = p_{rho_1} p_{rho_2} ... indexed by odd partitions rho.  The
deformed scalar product is <p_rho, p_sigma> = 2^{-l(rho)} z_rho delta.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from math import lcm

from .partitions import OddPartition, StrictPartition, display_sort_key, z
from .rational import Rat, ZERO, rat, rat_str, parse_rat


def add_into(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    new = out.get(key, 0) + value
    if new:
        out[key] = new
    else:
        out.pop(key, None)


def add_scaled(out: dict, element: "SparseTerms", c) -> None:
    """out += c * element, term by term, in place."""
    for key, value in element._coeffs.items():
        add_into(out, key, c * value)


def integer_form(coeffs: Mapping) -> tuple[int, dict]:
    """(D, {key: D c}) for exact rational values c, with D the lcm of their
    denominators, so every D c is an int; (1, {}) when there are none."""
    denom = lcm(*(c.denominator for c in coeffs.values()))
    return denom, {k: c.numerator * (denom // c.denominator) for k, c in coeffs.items()}


def render_terms(pairs, times: str = "*") -> str:
    """ASCII rendering like ``p[3,1] - 4/3*p[1,1,1]`` from (name, coeff)
    pairs, where the name "" marks the constant term; "0" when empty."""
    chunks = []
    for name, c in pairs:
        mag = rat_str(abs(c))
        if not name:
            body = mag
        elif mag == "1":
            body = name
        else:
            body = f"{mag}{times}{name}"
        if not chunks:
            chunks.append(body if c > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(chunks) if chunks else "0"


class SparseTerms:
    """Immutable sparse map key -> exact nonzero rational.

    Subclasses set ``_key`` (the key type; other keys are converted with
    it) and ``_symbol`` (the basis symbol of ``str``).  ``_int`` holds
    ``integer_form`` of the coefficients once ``_integer_form`` has
    computed it; an element never changes, so the form never goes stale.
    """

    __slots__ = ("_coeffs", "_int")
    _key = OddPartition
    _symbol = "p"

    def __init__(self, coeffs: Mapping | Iterable = ()):
        """Build from a mapping or (key, coeff) pairs; repeated keys add up
        and zero coefficients are dropped."""
        pairs = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        key_type = self._key
        clean: dict = {}
        for key, value in pairs:
            if not isinstance(key, key_type):
                key = key_type(key)
            add_into(clean, key, rat(value))
        self._coeffs = clean
        self._int = None

    @classmethod
    def _wrap(cls, coeffs: dict):
        # An element around a dict that already has typed keys and no zeros.
        result = cls.__new__(cls)
        result._coeffs = coeffs
        result._int = None
        return result

    @classmethod
    def zero(cls):
        return cls()

    # -- structure -----------------------------------------------------------

    _sort_key = staticmethod(display_sort_key)

    def items(self):
        """(key, coeff) pairs in display order: for partitions, degree
        descending then decreasing lex."""
        return sorted(self._coeffs.items(), key=lambda kv: self._sort_key(kv[0]))

    def support(self) -> list:
        return [key for key, _ in self.items()]

    def coefficient(self, key) -> Rat:
        if not isinstance(key, self._key):
            key = self._key(key)
        return self._coeffs.get(key, ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def _integer_form(self) -> tuple[int, dict]:
        # integer_form(self._coeffs), computed on first use and kept; the
        # caller must not change the dict
        form = self._int
        if form is None:
            form = self._int = integer_form(self._coeffs)
        return form

    # -- linear operations ---------------------------------------------------

    def __eq__(self, other):
        return type(other) is type(self) and self._coeffs == other._coeffs

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            add_into(out, key, c)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._coeffs.items()})

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __rmul__(self, scalar):
        return self._scale(scalar)

    def _scale(self, scalar):
        scalar = rat(scalar)
        if not scalar:
            return self._wrap({})
        return self._wrap({key: c * scalar for key, c in self._coeffs.items()})

    # -- rendering -------------------------------------------------------------

    @staticmethod
    def _name(key, symbol: str) -> str:
        return f"{symbol}[{key}]" if key.parts else ""

    def render(self, symbol: str, times: str = "*") -> str:
        """The terms in display order, each basis element named by symbol."""
        return render_terms(
            [(self._name(key, symbol), c) for key, c in self.items()], times
        )

    def __str__(self):
        return self.render(self._symbol)

    def __repr__(self):
        return f"{type(self).__name__}({self._coeffs!r})"

    def to_json_obj(self) -> list:
        return [
            {"partition": str(key), "coeff": rat_str(c)} for key, c in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj):
        """Inverse of ``to_json_obj``: a list of {"partition": text,
        "coeff": text} records; repeated partitions add up."""
        if not isinstance(obj, list):
            raise ValueError(
                'expected a list of {"partition", "coeff"} records, '
                f"got {type(obj).__name__}"
            )
        pairs = []
        for rec in obj:
            if not (isinstance(rec, dict)
                    and isinstance(rec.get("partition"), str)
                    and isinstance(rec.get("coeff"), str)):
                raise ValueError(
                    'each record needs string fields "partition" and "coeff", '
                    f"got {rec!r}"
                )
            pairs.append(
                (cls._key.from_text(rec["partition"]), parse_rat(rec["coeff"]))
            )
        return cls(pairs)


def _power_sum_value(coeffs: dict, values) -> Rat:
    # sum_mu c_mu prod_i p_{mu_i}(values), each power sum computed once.
    total = ZERO
    psums: dict[int, Rat] = {}
    for mu, c in coeffs.items():
        v = c
        for r in mu.parts:
            pr = psums.get(r)
            if pr is None:
                pr = sum(x**r for x in values)
                psums[r] = pr
            v = v * pr
        total += v
    return total


class GammaElement(SparseTerms):
    """Immutable sparse element of Gamma in the p-basis."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls) -> "GammaElement":
        return cls({(): 1})

    @classmethod
    def p(cls, rho) -> "GammaElement":
        """The basis monomial p_rho (p_r for a single part r)."""
        if isinstance(rho, int):
            rho = (rho,)
        return cls({rho: 1})

    @classmethod
    def term(cls, rho, coeff) -> "GammaElement":
        return cls({rho: coeff})

    # -- structure -----------------------------------------------------------

    def degree(self) -> int:
        """Max |rho| over the support; -1 for the zero element."""
        if not self._coeffs:
            return -1
        return max(rho.size for rho in self._coeffs)

    def homogeneous_component(self, d: int) -> "GammaElement":
        return GammaElement._wrap(
            {rho: c for rho, c in self._coeffs.items() if rho.size == d}
        )

    def homogeneous_split(self) -> dict[int, "GammaElement"]:
        by_degree: dict[int, dict] = {}
        for rho, c in self._coeffs.items():
            by_degree.setdefault(rho.size, {})[rho] = c
        return {d: GammaElement._wrap(m) for d, m in sorted(by_degree.items())}

    # -- ring operations ------------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, GammaElement):
            return self._scale(other)
        # integer numerators over one denominator per factor: the products
        # add as ints on merged part tuples, and each output term is built
        # and divided once
        da, a_int = self._integer_form()
        db, b_int = other._integer_form()
        sums: dict[tuple[int, ...], int] = {}
        for rho, a in a_int.items():
            parts = rho.parts
            for sigma, b in b_int.items():
                key = tuple(sorted(parts + sigma.parts, reverse=True))
                sums[key] = sums.get(key, 0) + a * b
        denom = da * db
        trusted = OddPartition._trusted
        return GammaElement._wrap(
            {trusted(key): rat(v, denom) for key, v in sums.items() if v}
        )

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = GammaElement.one()
        for _ in range(exponent):
            out = out * self
        return out

    # -- analysis -------------------------------------------------------------

    def evaluate(self, lam: StrictPartition) -> Rat:
        """Value f(lam): substitute p_r -> sum_i lam_i^r in every monomial."""
        return _power_sum_value(self._coeffs, lam.parts)

    def d_dp1(self) -> "GammaElement":
        """Formal partial derivative in the p_1 coordinate."""
        out = {}
        for rho, c in self._coeffs.items():
            m1 = rho.multiplicity(1)
            if m1:
                out[OddPartition(rho.parts[:-1])] = c * m1
        return GammaElement(out)


def scalar_product(f: GammaElement, g: GammaElement) -> Rat:
    """Bilinear extension of <p_rho, p_sigma> = 2^{-l(rho)} z_rho delta.

    With f = A / D_f and g = B / D_g in integers (``integer_form``) and L
    the largest l(rho) over the common support, it is
    sum_rho A_rho B_rho z_rho 2^{L - l(rho)} / (D_f D_g 2^L), summed as
    ints and divided once."""
    da, a_int = f._integer_form()
    db, b_int = g._integer_form()
    if len(a_int) > len(b_int):
        a_int, b_int = b_int, a_int
    common = [(rho, a * b) for rho, a in a_int.items()
              if (b := b_int.get(rho)) is not None]
    if not common:
        return ZERO
    top = max(rho.length for rho, _ in common)
    total = sum(t * z(rho) << (top - rho.length) for rho, t in common)
    return rat(total, da * db << top)
