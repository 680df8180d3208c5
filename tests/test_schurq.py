import os
import random
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest
import superq
import superq.schurq as schurq
from hypothesis import given, strategies as st

from pfaffian_oracle import oracle_q, oracle_table
from recursive_oracle import _all_bars, _bars, oracle_columns
from superq.gamma import GammaElement, add_scaled, integer_form, scalar_product
from superq.partitions import (
    OddPartition,
    StrictPartition,
    contains,
    enumerate_odd,
    enumerate_strict,
    g,
    g_skew,
    z,
)
from superq.rational import rat
from superq.schurq import (
    _combine_P,
    _digit_width,
    _pack_rows,
    _unpack_row,
    character,
    character_table,
    character_via_scalar,
    expand_in_P,
    expand_p_in_P,
    p_fn,
    q,
    q_onerow,
)

p = GammaElement.p


def test_q_onerow_examples():
    assert q_onerow(0) == GammaElement.one()
    assert q_onerow(1) == 2 * p(1)
    assert q_onerow(3) == rat(2, 3) * p(3) + rat(4, 3) * p((1, 1, 1))


def test_q_examples():
    assert q(StrictPartition(())) == GammaElement.one()
    assert q(StrictPartition((3,))) == q_onerow(3)
    expected = rat(4, 3) * p((1, 1, 1)) - rat(4, 3) * p(3)
    assert q(StrictPartition((2, 1))) == expected


def test_p_fn_examples():
    assert p_fn(StrictPartition((1,))) == p(1)
    assert p_fn(StrictPartition((2,))) == p((1, 1))
    assert p_fn(StrictPartition(())) == GammaElement.one()


def test_q_is_homogeneous():
    for n in range(10):
        for lam in enumerate_strict(n):
            element = q(lam)
            assert [d for d in element.homogeneous_split()] in ([], [n])


def test_duality():
    # <P_lam, Q_mu> = delta for all |lam| = |mu| <= 7 (degree 9 in acceptance)
    for n in range(8):
        for lam in enumerate_strict(n):
            plam = p_fn(lam)
            for mu in enumerate_strict(n):
                want = 1 if lam == mu else 0
                assert scalar_product(plam, oracle_q(mu)) == want


def test_character_orthogonality():
    # sum_lam 2^{-l(lam)} X^lam_rho X^lam_sigma = delta 2^{-l(rho)} z_rho
    for k in range(8):
        table = character_table(k)
        for rho in enumerate_odd(k):
            for sigma in enumerate_odd(k):
                total = sum(
                    (
                        rat(1, 2**lam.length)
                        * table.value(lam, rho)
                        * table.value(lam, sigma)
                        for lam in table.strict
                    ),
                    start=rat(0),
                )
                want = rat(z(rho), 2**rho.length) if rho == sigma else rat(0)
                assert total == want


def test_character_examples():
    assert character(StrictPartition((2, 1)), OddPartition((1, 1, 1))) == 1
    assert character(StrictPartition((2, 1)), OddPartition((3,))) == -2
    for k in range(1, 9):
        row = StrictPartition((k,))
        for rho in enumerate_odd(k):
            assert character(row, rho) == 1


def test_character_ones_column_is_g():
    for k in range(10):
        ones = OddPartition((1,) * k)
        for lam in enumerate_strict(k):
            assert character(lam, ones) == g(lam)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character(StrictPartition((2, 1)), OddPartition((1,)))


def is_integral(q) -> bool:
    return q.denominator == 1


def test_characters_are_integers():
    for k in range(10):
        table = character_table(k)
        for _, row in table.rows():
            for _, x in row:
                assert is_integral(x)


def test_character_coefficient_route_equals_scalar_route():
    for k in range(9):
        for lam in enumerate_strict(k):
            for rho in enumerate_odd(k):
                x = scalar_product(p(rho), oracle_q(lam))
                assert character(lam, rho) == x
                assert character_via_scalar(lam, rho) == x


def test_tables_equal_pfaffian_oracle():
    for k in range(21):
        table = character_table(k)
        for (lam, rho), x in oracle_table(k).items():
            assert table.value(lam, rho) == x


def test_tables_equal_the_column_oracle():
    for k in range(31):
        columns = [list(column) for column in zip(*character_table(k)._rows)]
        assert columns == oracle_columns(k)


def test_bits_moved_on_masks_give_the_sum_over_the_bars():
    # each row is the packed sum over the bars listed on part tuples, with the
    # rows of smaller tables packed as 16-byte digits
    for k in range(1, 21):
        table = character_table(k)
        blocks = {}  # r -> (packed suffix rows of table k - r by parts, shift)
        start = 0
        for rho in table.odd:
            r = rho.parts[0]
            if r not in blocks:
                sub = character_table(k - r)
                size = sum(1 for sigma in table.odd if sigma.parts[0] == r)
                suffix = [row[len(row) - size:] for row in sub._rows]
                packed = _pack_rows(suffix, 16)
                blocks[r] = dict(zip((lam.parts for lam in sub.strict), packed)), 128 * start
            start += 1
        for lam, row in zip(table.strict, table._rows):
            total = 0
            for r, (packed, shift) in blocks.items():
                for mu, w in _bars(lam.parts, r):
                    total += w * packed[mu] << shift
            assert list(_unpack_row(total, 16, len(table.odd))) == list(row)


def test_one_pass_lists_the_bars_of_every_odd_r():
    # and for each r at most l(lambda) bars, each of weight at most 2: the
    # bound that fixes the digit width of a table
    for k in range(21):
        for lam in enumerate_strict(k):
            by_r = {}
            for r, mu, w in _all_bars(lam.parts):
                by_r.setdefault(r, []).append((mu, w))
            assert set(by_r) <= set(range(1, k + 1, 2))
            for r in range(1, k + 1, 2):
                assert sorted(by_r.get(r, [])) == sorted(_bars(lam.parts, r))
                assert len(by_r.get(r, [])) <= lam.length
            assert all(abs(w) <= 2 for _, _, w in _all_bars(lam.parts))


@pytest.mark.parametrize("width", range(1, 17))
def test_row_codec_round_trips(width):
    top = 2 ** (8 * width - 1) - 1
    rng = random.Random(width)
    a = [rng.randint(-(top // 3), top // 3) for _ in range(40)]
    b = [rng.randint(-(top // 3), top // 3) for _ in range(40)]
    for row in ([top, -top, 0, -1, 1, top], [-top] * 3, [top], [], a):
        [packed] = _pack_rows([row], width)
        assert list(_unpack_row(packed, width, len(row))) == row
    # a sum of packed rows decodes to the sum of the rows, and a row shifted by
    # whole digits lands at that digit offset
    packed_a, packed_b = _pack_rows([a, b], width)
    packed = 2 * packed_a - packed_b
    assert list(_unpack_row(packed, width, 40)) == [2 * x - y for x, y in zip(a, b)]
    packed = packed_a + (packed_b << 8 * width * 40)
    assert list(_unpack_row(packed, width, 80)) == a + b
    with pytest.raises(OverflowError):
        _pack_rows([[top + 2]], width)


@pytest.mark.parametrize("width", range(1, 21))
def test_digit_by_digit_route_equals_the_array_route(width, monkeypatch):
    # with _ARRAY_CODES empty, as on a machine that is not little-endian,
    # every width goes digit by digit; rows of the extreme digits pack,
    # sum and unpack to the same integers and entries as through array
    low, high = -(1 << 8 * width - 1), (1 << 8 * width - 1) - 1
    a = [low, high, 0, -1, 1, low, high, low + 1]
    b = [high, low, -1, 0, 1, 0, -high, -1]

    def route():
        packed = _pack_rows([a, b], width)
        rows = [_unpack_row(x, width, len(a)) for x in (*packed, sum(packed))]
        return packed, [list(row) for row in rows]

    through_arrays = route()
    assert through_arrays[1] == [a, b, [x + y for x, y in zip(a, b)]]
    monkeypatch.setattr(schurq, "_ARRAY_CODES", {})
    assert route() == through_arrays


def test_tables_built_digit_by_digit_equal_the_array_tables(monkeypatch):
    expected = [[list(row) for row in character_table(k)._rows] for k in range(31)]
    monkeypatch.setattr(schurq, "_ARRAY_CODES", {})
    character_table.cache_clear()
    try:
        for k in range(31):
            rows = character_table(k)._rows
            assert [list(row) for row in rows] == expected[k], k
            assert k == 0 or all(type(row) is list for row in rows), k
    finally:
        # the tables built here hold lists, not arrays; later ones rebuild
        character_table.cache_clear()


def test_bounds_past_eight_bytes_pick_sixteen_byte_digits():
    assert [_digit_width(2**e - 1) for e in (7, 8, 15, 31, 63)] == [1, 2, 2, 4, 8]
    for bound in (2**63, 3**50, 2**126, 2**127 - 1):
        assert _digit_width(bound) == 16
    assert _digit_width(2**127) == 17


def test_digit_width_is_the_fewest_bytes_that_hold_the_bound():
    # the bound 2 l(lambda) max |X^mu_rho'| of the module docstring, read from
    # the suffix rows of the sub-tables; at k = 25 only the factor 2 makes it
    # need 8-byte digits, since every entry of table 25 fits in 4 bytes
    for k in range(1, 27):
        table = character_table(k)
        entries = []
        for r in {rho.parts[0] for rho in table.odd}:
            size = sum(1 for rho in table.odd if rho.parts[0] == r)
            entries += [x for row in character_table(k - r)._rows
                        for x in row[len(row) - size:]]
        bound = 2 * max(lam.length for lam in table.strict) * max(map(abs, entries))
        width = min(w for w in (1, 2, 4, 8) if 2 ** (8 * w - 1) > bound)
        assert {row.itemsize for row in table._rows} == {width}, k


def test_both_character_views_check_the_sizes_alike():
    lam, rho = StrictPartition((3,)), OddPartition((3, 1))
    for view in (character, character_via_scalar):
        with pytest.raises(ValueError, match=r"^size mismatch: \|lambda\|=3 but \|rho\|=4$"):
            view(lam, rho)


def test_character_table_checks_its_degree():
    with pytest.raises(ValueError, match="k must be nonnegative"):
        character_table(-1)


def test_rows_and_value_read_the_same_integers():
    for k in range(12):
        table = character_table(k)
        entries = {(lam, rho): x for lam, row in table.rows() for rho, x in row}
        assert dict(table._values) == entries
        assert all(table.value(lam, rho) == x for (lam, rho), x in entries.items())
        assert len(entries) == len(table.strict) * len(table.odd)
    with pytest.raises(TypeError):
        table._values[next(iter(entries))] = 0


def test_cold_tables_stay_small():
    # the integer columns are the only copy of each table
    code = ("import tracemalloc; from superq.schurq import character_table; "
            "tracemalloc.start(); [character_table(k) for k in range(25)]; "
            "print(tracemalloc.get_traced_memory()[1])")
    env = dict(os.environ)
    src = str(Path(superq.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 4_000_000


def test_q_equals_pfaffian_oracle():
    for n in range(15):
        for lam in enumerate_strict(n):
            assert q(lam) == oracle_q(lam)


@cache
def _x_smallest_part_first(lam_parts, rho_parts):
    if not rho_parts:
        return int(not lam_parts)
    return sum(
        w * _x_smallest_part_first(mu, rho_parts[:-1])
        for mu, w in _bars(lam_parts, rho_parts[-1])
    )


@given(st.data())
def test_bar_removal_order_free(data):
    # the table peels the largest part of rho; peeling the smallest agrees
    k = data.draw(st.integers(0, 20))
    lam = data.draw(st.sampled_from(enumerate_strict(k)))
    rho = data.draw(st.sampled_from(enumerate_odd(k)))
    assert _x_smallest_part_first(lam.parts, rho.parts) == character(lam, rho)


def test_pieri_consequence():
    # g^{lam/mu} = <p_1^{|lam|-|mu|} P_mu, Q_lam>
    for n in range(9):
        for lam in enumerate_strict(n):
            for m in range(n + 1):
                for mu in enumerate_strict(m):
                    if not contains(lam, mu):
                        continue
                    lhs = scalar_product(p(1) ** (n - m) * p_fn(mu), q(lam))
                    assert lhs == g_skew(lam, mu)


def test_expand_p_in_P_examples():
    got = expand_p_in_P(OddPartition((1, 1, 1)))
    assert got == {StrictPartition((3,)): 1, StrictPartition((2, 1)): 1}
    got = expand_p_in_P(OddPartition((3,)))
    assert got == {StrictPartition((3,)): 1, StrictPartition((2, 1)): -2}
    assert expand_p_in_P(OddPartition((1,))) == {StrictPartition((1,)): 1}


def test_expand_p_in_P_reassembles():
    for k in range(9):
        for rho in enumerate_odd(k):
            total = GammaElement.zero()
            for lam, x in expand_p_in_P(rho).items():
                total = total + x * p_fn(lam)
            assert total == p(rho)


def test_expand_in_P_general():
    f = p(3) + 2 * p((1, 1)) + 7 * GammaElement.one()
    coeffs = expand_in_P(f)
    total = GammaElement.zero()
    for lam, c in coeffs.items():
        total = total + c * p_fn(lam)
    assert total == f


def test_expand_in_P_equals_the_sum_of_table_values():
    f = (rat(1, 3) * p(3) - rat(2, 5) * p((1, 1, 1)) + rat(7, 4) * p((5, 1, 1))
         + rat(-1, 6) * p((3, 3, 1)) + 2 * p((1,)) + rat(1, 9) * GammaElement.one())
    want = {}
    for d, component in f.homogeneous_split().items():
        table = character_table(d)
        for lam in table.strict:
            total = sum(c * table.value(lam, rho) for rho, c in component.items())
            if total:
                want[lam] = total
    assert expand_in_P(f) == want
    assert expand_in_P(GammaElement.zero()) == {}


def test_row_combination_gives_each_P_entry_by_entry():
    # P_lambda = sum_rho 2^{l(rho) - l(lambda)} z_rho^{-1} X^lambda_rho p_rho,
    # one table entry at a time
    for n in range(13):
        for lam in enumerate_strict(n):
            p_lam = GammaElement(
                {rho: rat(2**rho.length * character(lam, rho), 2**lam.length * z(rho))
                 for rho in enumerate_odd(n)})
            assert _combine_P({lam: 1}) == p_lam == p_fn(lam)
            assert _combine_P({lam: -3}, 7) == rat(-3, 7) * p_lam


@given(st.dictionaries(
    st.sampled_from([lam for n in (0, 3, 5, 8, 11, 12) for lam in enumerate_strict(n)]),
    st.builds(rat, st.integers(-40, 40).filter(bool), st.integers(1, 24)),
    max_size=8))
def test_row_combination_is_the_sum_of_P_and_inverts_expand_in_P(coeffs):
    # several degrees at once, fractional coefficients of any 2-adic valuation,
    # against the sum of P_lambda one Rat term at a time
    out: dict = {}
    for lam, c in coeffs.items():
        add_scaled(out, p_fn(lam), c)
    combined = _combine_P(*reversed(integer_form(coeffs)))
    assert combined == GammaElement._wrap(out)
    assert expand_in_P(combined) == coeffs
