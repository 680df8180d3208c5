import pytest

from superq.content import hat_p, psi
from superq.expr import ExprSyntaxError, Neg, parse_and_eval, parse_expr
from superq.factorial import p_star
from superq.frakp import frak_p
from superq.gamma import GammaElement
from superq.partitions import OddPartition, StrictPartition
from superq.rational import rat
from superq.schurq import q

p = GammaElement.p


def test_frak_p_3_as_expression():
    got = parse_and_eval("p[3] - 3*p[1,1] + 2*p[1]")
    assert got == frak_p(OddPartition((3,)))


def test_even_part_rejected_with_explanation():
    with pytest.raises(ExprSyntaxError) as err:
        parse_and_eval("p[2]")
    assert "odd" in str(err.value)
    assert "position" in str(err.value)


def test_power():
    assert parse_and_eval("hatp[1]^2") == hat_p(1) ** 2
    assert parse_and_eval("p[1]^0") == GammaElement.one()
    assert parse_and_eval("2*p[1]^2") == 2 * p((1, 1))


def test_unary_minus_and_parens():
    assert parse_and_eval("-p[3]") == -p(3)
    assert parse_and_eval("-(p[3] - p[1])") == p(1) - p(3)
    assert parse_and_eval("(p[1] + p[3])*p[1]") == p((1, 1)) + p((3, 1))


def test_rational_literals():
    assert parse_and_eval("1/6*p[3] - 1/6*p[1]") == hat_p(1)
    assert parse_and_eval("5") == 5 * GammaElement.one()
    assert parse_and_eval("3/4") == rat(3, 4) * GammaElement.one()
    with pytest.raises(ExprSyntaxError):
        parse_and_eval("1/0")


def test_all_basis_families():
    assert parse_and_eval("fp[3,1]") == frak_p(OddPartition((3, 1)))
    assert parse_and_eval("pstar[3,1]") == p_star(StrictPartition((3, 1)))
    assert parse_and_eval("Q[2,1]") == q(StrictPartition((2, 1)))
    assert parse_and_eval("psi[3]") == psi(3)
    assert parse_and_eval("hatp[0]") == p(1)
    assert parse_and_eval("Q[]") == GammaElement.one()


def test_strict_literal_rejected():
    with pytest.raises(ExprSyntaxError) as err:
        parse_and_eval("Q[2,2]")
    assert "strictly decreasing" in str(err.value)


def test_syntax_errors_have_positions():
    for text in ["p[3] +", "p 3", "p[3", "p[3]]", "hatp[1,2]", "psi[0]", "* p[1]"]:
        with pytest.raises(ExprSyntaxError):
            parse_expr(text)


def test_unicode_minus_accepted():
    assert parse_and_eval("p[3] − p[1]") == p(3) - p(1)


def test_precedence():
    # '*' binds tighter than '+', '^' tighter than '*'
    assert parse_and_eval("p[1] + p[1]*p[1]") == p(1) + p((1, 1))
    assert parse_and_eval("2*p[1]^2") == 2 * (p(1) ** 2)


def test_str_round_trips_through_parser():
    for element in [
        frak_p(OddPartition((3, 1))),
        p_star(StrictPartition((3,))),
        hat_p(2),
        q(StrictPartition((2, 1))),
        GammaElement.zero(),
        GammaElement.one(),
    ]:
        assert parse_and_eval(str(element)) == element


def test_nodes_are_values_typed_by_operator():
    tree = parse_expr("1/2*p[3] + hatp[2]^2 - -Q[2,1]")
    assert repr(tree) == (
        "Sub(left=Add(left=Mul(left=Lit(value=Fraction(1, 2)), "
        "right=Basis(kind='p', payload=OddPartition((3,)))), "
        "right=Pow(base=Basis(kind='hatp', payload=2), exponent=2)), "
        "right=Neg(operand=Basis(kind='Q', payload=StrictPartition((2, 1)))))"
    )
    assert tree == parse_expr("1/2 * p[3] + hatp[2] ^ 2 - (-Q[2,1])")
    assert hash(tree) == hash(parse_expr("1/2*p[3]+hatp[2]^2--Q[2,1]"))
    # the same operands under another operator are another node
    a = parse_expr("p[1]")
    assert parse_expr("p[1] + p[1]") != parse_expr("p[1] * p[1]")
    assert parse_expr("p[1] - p[1]") != parse_expr("p[1] + p[1]")
    assert parse_expr("p[1] * p[1]") == parse_expr("p[1]*p[1]")
    assert Neg(a) != (a,)
    with pytest.raises(AttributeError):
        tree.left = a
