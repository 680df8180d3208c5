"""A small expression grammar over exact Gamma elements.

Atoms are rational literals and the named families p[rho], fp[rho],
hatp[k], psi[k], pstar[mu], Q[lam]; operators are + - * and ^ with a
nonnegative integer exponent.  Partition literals are validated while
parsing, so ``p[2]`` fails immediately with a position and an explanation.
"""

from __future__ import annotations

from collections import namedtuple

from .content import hat_p, psi
from .factorial import p_star
from .frakp import frak_p
from .gamma import GammaElement
from .partitions import OddPartition, StrictPartition
from .rational import rat
from .schurq import q


class ExprSyntaxError(ValueError):
    """Parse failure with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"at position {pos}: {message}")
        self.pos = pos


class _Node(tuple):
    """Immutable syntax-tree nodes; two nodes are equal only when they have
    the same type and equal fields, so Add(a, b) != Mul(a, b)."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


def _node(name: str, fields: str) -> type:
    return type(name, (_Node, namedtuple(name, fields)), {"__slots__": ()})


Lit = _node("Lit", "value")  # a Rat
# kind: p | fp | hatp | psi | pstar | Q; payload: an OddPartition, a
# StrictPartition or an int
Basis = _node("Basis", "kind payload")
Neg = _node("Neg", "operand")
Add = _node("Add", "left right")
Sub = _node("Sub", "left right")
Mul = _node("Mul", "left right")
Pow = _node("Pow", "base exponent")
Node = Lit | Basis | Neg | Add | Sub | Mul | Pow

_NAMES = ("hatp", "pstar", "psi", "fp", "p", "Q")  # longest match first


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit alone also takes "²" and other scripts' digits
    return ch.isascii() and ch.isdigit()


class _Parser:
    def __init__(self, text: str):
        self.text = text.replace("−", "-")  # accept unicode minus
        self.pos = 0

    def error(self, message: str) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str):
        if not self.take(char):
            raise self.error(f"expected {char!r}")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and _is_digit(self.text[self.pos]):
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    # expr := term (('+'|'-') term)*
    def expr(self) -> Node:
        node = self.term()
        while True:
            if self.take("+"):
                node = Add(node, self.term())
            elif self.take("-"):
                node = Sub(node, self.term())
            else:
                return node

    # term := unary ('*' unary)*
    def term(self) -> Node:
        node = self.unary()
        while self.take("*"):
            node = Mul(node, self.unary())
        return node

    # unary := '-' unary | power
    def unary(self) -> Node:
        if self.take("-"):
            return Neg(self.unary())
        return self.power()

    # power := primary ('^' INT)?
    def power(self) -> Node:
        node = self.primary()
        if self.take("^"):
            return Pow(node, self.integer())
        return node

    def primary(self) -> Node:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        if _is_digit(ch):
            numerator = self.integer()
            if self.take("/"):
                denominator = self.integer()
                if denominator == 0:
                    raise self.error("zero denominator")
                return Lit(rat(numerator, denominator))
            return Lit(rat(numerator))
        for name in _NAMES:
            if self.text.startswith(name, self.pos):
                self.pos += len(name)
                return self.basis(name)
        raise self.error("expected a literal, a name like p[...], or '('")

    def basis(self, name: str) -> Basis:
        self.expect("[")
        entries = []
        if self.peek() != "]":
            entries.append(self.integer())
            while self.take(","):
                entries.append(self.integer())
        bracket_pos = self.pos
        self.expect("]")
        if name in ("hatp", "psi"):
            if len(entries) != 1:
                self.pos = bracket_pos
                raise self.error(f"{name}[k] takes exactly one integer")
            k = entries[0]
            if name == "psi" and k < 1:
                self.pos = bracket_pos
                raise self.error("psi[k] needs k >= 1")
            return Basis(name, k)
        try:
            if name in ("p", "fp"):
                payload = OddPartition(entries)
            else:  # pstar, Q
                payload = StrictPartition(entries)
        except ValueError as exc:
            self.pos = bracket_pos
            raise self.error(f"{name}[{','.join(map(str, entries))}]: {exc}")
        return Basis(name, payload)


def parse_expr(text: str) -> Node:
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise parser.error("unexpected trailing input")
    return node


_BASIS_BUILDERS = {
    "p": GammaElement.p,
    "fp": frak_p,
    "hatp": hat_p,
    "psi": psi,
    "pstar": p_star,
    "Q": q,
}


def eval_expr(node: Node) -> GammaElement:
    if isinstance(node, Lit):
        return node.value * GammaElement.one()
    if isinstance(node, Basis):
        return _BASIS_BUILDERS[node.kind](node.payload)
    if isinstance(node, Neg):
        return -eval_expr(node.operand)
    if isinstance(node, Add):
        return eval_expr(node.left) + eval_expr(node.right)
    if isinstance(node, Sub):
        return eval_expr(node.left) - eval_expr(node.right)
    if isinstance(node, Mul):
        return eval_expr(node.left) * eval_expr(node.right)
    if isinstance(node, Pow):
        return eval_expr(node.base) ** node.exponent
    raise TypeError(f"not an expression node: {node!r}")


def parse_and_eval(text: str) -> GammaElement:
    return eval_expr(parse_expr(text))
