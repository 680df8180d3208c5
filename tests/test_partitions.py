import sys
import threading
from fractions import Fraction
from math import factorial

import pytest

from superq import partitions
from recursive_oracle import (
    oracle_g_skew,
    oracle_odd_tuples,
    oracle_ordinary_tuples,
    oracle_strict_tuples,
)
from superq.partitions import (
    EMPTY_STRICT,
    Cell,
    OddPartition,
    OrdinaryPartition,
    StrictPartition,
    _deg1_of,
    _mask,
    _ones_free,
    _ones_free_odd,
    _stirling1_row,
    _stirling2_row,
    _strict_walk,
    add_cell,
    contains,
    corners,
    enumerate_odd,
    enumerate_ordinary,
    enumerate_strict,
    falling,
    g,
    g_skew,
    inner_corners,
    newton_differences,
    outer_corners,
    remove_cell,
    shifted_cells,
    skew_counts,
    stirling2,
    z,
)

# --- independent oracles ------------------------------------------------------


def strict_from_cells(cells):
    """Reconstruct the strict partition whose shifted diagram is the given
    cell set, or None if the set is not a shifted diagram."""
    cells = set(cells)
    if not cells:
        return StrictPartition(())
    rows = {}
    for (i, j) in cells:
        rows.setdefault(i, []).append(j)
    depth = max(rows)
    if set(rows) != set(range(1, depth + 1)):
        return None
    parts = []
    for i in range(1, depth + 1):
        cols = sorted(rows[i])
        if cols != list(range(i, i + len(cols))):
            return None
        parts.append(len(cols))
    try:
        return StrictPartition(parts)
    except ValueError:
        return None


def corners_bruteforce(lam):
    """Try every candidate cell: removal/addition must leave a shifted diagram."""
    cells = set(shifted_cells(lam))
    width = (lam.parts[0] if lam.parts else 0) + 2
    box = {
        Cell(i, j)
        for i in range(1, lam.length + 2)
        for j in range(1, width + 1)
    }
    outer = {c for c in cells if strict_from_cells(cells - {c}) is not None}
    inner = {
        c for c in box - cells if strict_from_cells(cells | {c}) is not None
    }
    return inner, outer


def count_chains(lam, mu):
    """Number of box-adding chains mu -> lam, growing forward, no memo."""
    if not contains(lam, mu):
        return 0
    if lam == mu:
        return 1
    total = 0
    for cell in inner_corners(mu):
        bigger = add_cell(mu, cell)
        if contains(lam, bigger):
            total += count_chains(lam, bigger)
    return total


# --- types ---------------------------------------------------------------------


def test_validation():
    with pytest.raises(ValueError):
        StrictPartition((3, 3))
    with pytest.raises(ValueError):
        StrictPartition((2, 3))
    with pytest.raises(ValueError):
        StrictPartition((3, 0))
    with pytest.raises(ValueError):
        OddPartition((2,))
    with pytest.raises(ValueError):
        OddPartition((1, 3))
    StrictPartition(())
    OddPartition((3, 1, 1))


def test_partition_types_are_distinct():
    assert StrictPartition((1,)) != OddPartition((1,))
    assert hash(StrictPartition((1,))) != hash(OddPartition((1,)))


def test_length_and_truth_are_those_of_the_parts():
    assert len(StrictPartition((5, 4, 2))) == 3 and len(OddPartition((3, 1, 1, 1))) == 4
    assert len(OddPartition(())) == 0
    assert OrdinaryPartition((2, 2)) and OddPartition((1,))
    assert not StrictPartition(()) and not OddPartition(())


def test_text_round_trip():
    lam = StrictPartition((5, 4, 2))
    assert str(lam) == "5,4,2"
    assert StrictPartition.from_text("5,4,2") == lam
    assert StrictPartition.from_text("") == StrictPartition(())
    assert StrictPartition.from_text("0") == StrictPartition(())
    assert str(StrictPartition(())) == ""
    with pytest.raises(ValueError):
        StrictPartition.from_text("a,b")


# --- enumeration -----------------------------------------------------------------


def test_enumerate_strict_examples():
    assert [p.parts for p in enumerate_strict(5)] == [(5,), (4, 1), (3, 2)]
    assert [p.parts for p in enumerate_strict(0)] == [()]
    assert [p.parts for p in enumerate_strict(6)] == [
        (6,), (5, 1), (4, 2), (3, 2, 1)
    ]


def test_enumerate_odd_examples():
    assert [p.parts for p in enumerate_odd(5)] == [(5,), (3, 1, 1), (1,) * 5]
    assert [p.parts for p in enumerate_odd(0)] == [()]
    assert [p.parts for p in enumerate_odd(4)] == [(3, 1), (1, 1, 1, 1)]


def test_counts_agree():
    for n in range(13):
        assert len(enumerate_strict(n)) == len(enumerate_odd(n))


def test_enumerated_partitions_equal_the_checked_ones():
    for n in range(16):
        for cls, enumerated in ((StrictPartition, enumerate_strict(n)),
                                (OddPartition, enumerate_odd(n))):
            for partition in enumerated:
                checked = cls(partition.parts)
                assert type(partition) is cls and partition == checked
                assert hash(partition) == hash(checked)
                assert all(type(part) is int for part in partition.parts)
    for cls, parts in ((StrictPartition, (3, 3)), (OddPartition, (2,)),
                       (OddPartition, (1, 3))):
        with pytest.raises(ValueError):
            cls(parts)


def test_the_ones_split_off_in_one_place():
    # rho = rho~ u 1^{m_1(rho)}: rho~ is every part but the 1s, at any
    # multiplicity, and deg1(rho) = |rho| + m_1(rho)
    for n in range(13):
        for partition in (*enumerate_odd(n), *enumerate_ordinary(n)):
            parts = partition.parts
            free = tuple(p for p in parts if p != 1)
            assert _ones_free(parts) == free
            if isinstance(partition, OddPartition):
                assert _deg1_of(partition) == n + len(parts) - len(free)
    assert _deg1_of(OddPartition((5, 3, 1, 1))) == 12
    # the odd partitions with no 1s, by size, each size in enumeration order
    assert [rho.parts for rho in _ones_free_odd(9)] == [
        (), (3,), (5,), (3, 3), (7,), (5, 3), (9,), (3, 3, 3)]


def test_enumeration_is_decreasing_lex():
    for n in range(10):
        parts = [p.parts for p in enumerate_strict(n)]
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_successor_steps_equal_the_recursive_descent():
    # tuple for tuple, in order; the cached enumerations only wrap the tuples
    for n in range(41):
        assert list(partitions._strict_tuples(n)) == list(oracle_strict_tuples(n, n))
        assert list(partitions._repeated_tuples(n, 2)) == list(oracle_odd_tuples(n, n))
        assert list(partitions._repeated_tuples(n, 1)) == list(oracle_ordinary_tuples(n, n))
    for n in range(13):
        assert [lam.parts for lam in enumerate_strict(n)] == list(oracle_strict_tuples(n, n))
        assert [rho.parts for rho in enumerate_odd(n)] == list(oracle_odd_tuples(n, n))
        assert [mu.parts for mu in enumerate_ordinary(n)] == \
            list(oracle_ordinary_tuples(n, n))


def test_strict_counts_are_the_coefficients_of_the_product():
    # prod_{k >= 1} (1 + x^k) = sum_n q(n) x^n, truncated after x^70
    coeffs = [1] + [0] * 70
    for k in range(1, 71):
        for n in range(70, k - 1, -1):
            coeffs[n] += coeffs[n - k]
    assert [sum(1 for _ in partitions._strict_tuples(n)) for n in range(71)] == coeffs


def test_enumerations_do_not_recurse():
    # (1^60) is an odd partition of 60 with 60 parts; 20 frames to spare,
    # and past the cache, which may already hold both
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        odd = enumerate_odd.__wrapped__(60)
        strict = enumerate_strict.__wrapped__(60)
    finally:
        sys.setrecursionlimit(limit)
    assert odd[0].parts == (59, 1) and odd[-1].parts == (1,) * 60
    assert strict[0].parts == (60,) and len(strict) == len(odd) == 10880


# --- diagrams and corners ----------------------------------------------------------


def test_shifted_cells_examples():
    assert shifted_cells(StrictPartition((2, 1))) == [
        Cell(1, 1), Cell(1, 2), Cell(2, 2)
    ]
    assert shifted_cells(StrictPartition(())) == []
    assert shifted_cells(StrictPartition((3,))) == [
        Cell(1, 1), Cell(1, 2), Cell(1, 3)
    ]


def test_content_multiset_identity():
    # {c over S(lam)} = {j-1 : 1 <= i <= l, 1 <= j <= lam_i} as multisets
    for n in range(13):
        for lam in enumerate_strict(n):
            left = sorted(c.content for c in shifted_cells(lam))
            right = sorted(j - 1 for part in lam.parts for j in range(1, part + 1))
            assert left == right


def test_corner_examples():
    inner, outer = corners(StrictPartition((5, 4, 2)))
    assert set(inner) == {Cell(1, 6), Cell(3, 5), Cell(4, 4)}
    assert set(outer) == {Cell(2, 5), Cell(3, 4)}
    inner, outer = corners(StrictPartition(()))
    assert set(inner) == {Cell(1, 1)} and outer == []
    inner, outer = corners(StrictPartition((1,)))
    assert set(inner) == {Cell(1, 2)} and set(outer) == {Cell(1, 1)}


def test_corners_against_bruteforce():
    for n in range(9):
        for lam in enumerate_strict(n):
            inner, outer = corners(lam)
            b_inner, b_outer = corners_bruteforce(lam)
            assert set(inner) == b_inner
            assert set(outer) == b_outer
            assert not (set(inner) & set(outer))


def test_remove_then_add_is_identity():
    for n in range(9):
        for lam in enumerate_strict(n):
            for cell in outer_corners(lam):
                smaller = remove_cell(lam, cell)
                assert cell in inner_corners(smaller)
                assert add_cell(smaller, cell) == lam
    with pytest.raises(ValueError):
        remove_cell(StrictPartition((2, 1)), Cell(1, 1))


# --- tableau counts -----------------------------------------------------------------


def test_g_examples():
    assert g(StrictPartition((4, 1))) == 3
    assert g(StrictPartition((5,))) == 1
    assert g(StrictPartition(())) == 1
    assert g_skew(StrictPartition((4, 1)), StrictPartition((3,))) == 2
    assert g_skew(StrictPartition((3,)), StrictPartition((2, 1))) == 0


def test_g_matches_chain_enumeration():
    empty = StrictPartition(())
    for n in range(9):
        for lam in enumerate_strict(n):
            assert g(lam) == count_chains(lam, empty)


def test_g_skew_matches_chain_enumeration():
    for n in range(7):
        for lam in enumerate_strict(n):
            for m in range(n + 1):
                for mu in enumerate_strict(m):
                    assert g_skew(lam, mu) == count_chains(lam, mu)


def test_g_equals_recursive_g_skew():
    # the shifted hook formula against the corner-removal recursion
    empty = StrictPartition(())
    for n in range(26):
        for lam in enumerate_strict(n):
            assert g(lam) == oracle_g_skew(lam, empty)


def test_skew_sweep_equals_recursive_g_skew():
    # every strict lam containing mu with |lam| <= 14, and no other shape
    for m in range(15):
        for mu in enumerate_strict(m):
            for n in range(15 - m):
                want = {lam.parts: oracle_g_skew(lam, mu)
                        for lam in enumerate_strict(m + n) if contains(lam, mu)}
                assert skew_counts(mu, n) == want


def test_walk_equals_enumeration_with_hook_formula():
    # the prefix-shared walk against g and power sums computed shape by shape
    powers = (1, 2, 3, 6)
    for n in range(31):
        want = sorted((n, _mask(lam.parts), lam.length, g(lam),
                       tuple(sum(part**r for part in lam) for r in powers))
                      for lam in enumerate_strict(n))
        assert sorted(_strict_walk(n, n, powers, ())) == want
    assert set(_strict_walk(4, 4, (), ())) == {(4, _mask((3, 1)), 2, 2, ()),
                                           (4, _mask((4,)), 1, 1, ())}
    with pytest.raises(ValueError):
        list(_strict_walk(-1, -1, (), ()))


def test_walk_over_a_size_range_equals_the_single_size_walks():
    # every prefix with a size in range is yielded, once, as by its own walk
    powers = (1, 3, 5)
    for hi in range(21):
        for lo in range(hi + 1):
            want = sorted(shape for n in range(lo, hi + 1)
                          for shape in _strict_walk(n, n, powers, ()))
            assert sorted(_strict_walk(lo, hi, powers, ())) == want, (lo, hi)


def test_walk_appends_the_products_of_its_steps():
    # step (i, j) appends sums[i] * sums[j], and a later step reads an
    # earlier product: p_3, p_5, then p_3 p_5, p_3 p_5^2 and p_3^2; over a
    # range each prefix keeps its own power sums for the shapes below it
    powers, steps = (3, 5), [(0, 1), (2, 1), (0, 0)]
    want = []
    for n in range(16):
        for lam in enumerate_strict(n):
            p3, p5 = (sum(part**r for part in lam) for r in powers)
            want.append((n, _mask(lam.parts), lam.length, g(lam),
                         [p3, p5, p3 * p5, p3 * p5 * p5, p3 * p3]))
    assert sorted(_strict_walk(0, 15, powers, steps)) == sorted(want)


def test_skew_sweep_from_empty_equals_hook_formula():
    for n in range(26):
        counts = skew_counts(EMPTY_STRICT, n)
        assert counts == {lam.parts: g(lam) for lam in enumerate_strict(n)}


def test_skew_sweep_does_not_recurse():
    # 40 steps of the sweep with 20 frames to spare, and bit 300 of a mask key
    frame, depth = sys._getframe(), 0
    while frame:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        long_sweep = skew_counts(StrictPartition((1,)), 40)
        wide = skew_counts(StrictPartition((297,)), 3)
    finally:
        sys.setrecursionlimit(limit)
    assert long_sweep[(41,)] == 1 and long_sweep[(40, 1)] == 39
    assert wide == {(300,): 1, (299, 1): 3, (298, 2): 3, (297, 3): 1, (297, 2, 1): 1}
    for parts, count in wide.items():
        assert g_skew(StrictPartition(parts), StrictPartition((297,))) == count


def test_g_on_large_shapes():
    # one row has one tableau; (n-1, 1) puts any of 2..n-1 in the second row
    for n in range(3, 2001):
        assert g(StrictPartition((n,))) == 1
        assert g(StrictPartition((n - 1, 1))) == n - 2


def test_g_skew_on_a_long_row():
    # the sweep loops once per cell, so a long row does not reach the stack limit
    assert g_skew(StrictPartition((1500,)), StrictPartition((1,))) == 1
    assert g_skew(StrictPartition((1500, 1)), StrictPartition((1,))) == 1499


def test_squared_tableaux_identity():
    # sum over SP_n of 2^{n - l} g^2 = n!
    for n in range(41):
        total = sum(
            2 ** (n - lam.length) * g(lam) ** 2 for lam in enumerate_strict(n)
        )
        assert total == factorial(n)


# --- numeric helpers ------------------------------------------------------------------


def test_z_examples():
    assert z(OddPartition((3, 1, 1))) == 6
    assert z(OddPartition(())) == 1
    assert z(OddPartition((1,) * 5)) == 120
    assert z(OddPartition((3, 3))) == 18


def test_falling():
    assert falling(4, 2) == 12
    assert falling(1, 3) == 0
    assert falling(7, 0) == 1
    assert falling(0, 0) == 1
    for n in range(7):
        assert falling(n, n) == factorial(n)
    with pytest.raises(ValueError):
        falling(3, -1)


def test_stirling2_against_falling_identity():
    # x^k = sum_j T(k, j) x^(falling j), checked over a grid of integers
    for k in range(1, 9):
        for x in range(0, 12):
            total = sum(stirling2(k, j) * falling(x, j) for j in range(1, k + 1))
            assert total == x**k


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(1, 1) == 1
    assert stirling2(4, 2) == 7
    with pytest.raises(ValueError):
        stirling2(3, 0)
    with pytest.raises(ValueError):
        stirling2(2, 3)


def test_stirling2_entry_matches_the_row():
    # the single entry by inclusion-exclusion against the row's recurrence
    for k in range(1, 41):
        row = _stirling2_row(k)
        for j in range(1, k + 1):
            assert stirling2(k, j) == row[j], (k, j)


def test_stirling_rows_built_by_threads_at_once(monkeypatch):
    # four threads extend the same cold row maps at once; every row must
    # land at its own index
    monkeypatch.setattr(partitions, "_STIRLING1_ROWS", {0: (1,)})
    monkeypatch.setattr(partitions, "_STIRLING2_ROWS", {0: (1,)})
    barrier = threading.Barrier(4, timeout=60)

    def build():
        barrier.wait()
        for k in (20, 45, 70, 150, 300):
            _stirling1_row(k)
            _stirling2_row(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for rows, sign in ((partitions._STIRLING1_ROWS, -1), (partitions._STIRLING2_ROWS, 1)):
        assert list(rows) == list(range(301))
        for k in range(1, 301):
            assert len(rows[k]) == k + 1 and rows[k][k] == 1
            assert rows[k][k - 1] == sign * k * (k - 1) // 2
    for k in (20, 45):
        s_row = _stirling1_row(k)
        assert sum(s * (k + 3) ** j for j, s in enumerate(s_row)) == falling(k + 3, k)
        assert _stirling2_row(k)[1:] == tuple(stirling2(k, j) for j in range(1, k + 1))
    with pytest.raises(ValueError):
        _stirling1_row(-1)
    with pytest.raises(ValueError):
        _stirling2_row(-1)


def test_stirling2_on_a_long_row():
    # one entry costs j big-integer terms, not the whole row
    assert stirling2(1500, 1) == 1
    assert stirling2(1500, 1500) == 1
    assert stirling2(1500, 1499) == 1500 * 1499 // 2


# --- Newton forward differences -------------------------------------------------


def test_newton_differences_keep_integers():
    # v(x) = x^3 at x = 0..4: Delta^j v(0) = j! T(3, j)
    diffs = newton_differences([x**3 for x in range(5)])
    assert diffs == [0, 1, 6, 6]
    assert all(type(d) is int for d in diffs)


def test_newton_differences_of_fractions():
    values = [Fraction(x * x + 1, 3) for x in range(4)]
    assert newton_differences(values) == [Fraction(1, 3), Fraction(1, 3), Fraction(2, 3)]


def test_newton_differences_of_one_value():
    assert newton_differences([0]) == []
    with pytest.raises(ArithmeticError, match="degree-check node"):
        newton_differences([5])


def test_newton_differences_need_a_value():
    with pytest.raises(ValueError):
        newton_differences([])


def test_newton_differences_check_the_last_node():
    values = [x * x for x in range(4)]
    values[-1] += 2
    with pytest.raises(ArithmeticError,
                       match=r"^squares: .*degree-check node gives Delta\^3 = 2$"):
        newton_differences(values, "squares")
