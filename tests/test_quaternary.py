from __future__ import annotations

import gc
import itertools
import math
import re
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projcode import gf4
from projcode.bitlin import BinaryLinearCode, xor_span
from projcode.decoder import (_TABLES, UNSOLVABLE, DecoderContext,
                              _solve_tables)
from projcode.projection import Variant, construct
from projcode.quaternary import (_G9, _G10, _H9, PHI_BLOCKS, QuaternaryCode,
                                 c4_9, c4_10, format_gf4_matrix,
                                 parse_gf4_matrix)

from conftest import cap_columns, systematic_c4
from golden import DECODE_EXAMPLES, QDIST_9, QDIST_10


def test_parameters(q9, q10):
    assert (q9.m, q9.r) == (9, 10)
    assert (q10.m, q10.r) == (10, 12)


def test_factories_are_cached():
    assert c4_9() is c4_9()
    assert c4_10() is c4_10()


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_generators_satisfy_parity_check(code):
    for g in code.generators:
        assert g in code
        assert code.syndrome(g) == 0


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_closed_under_gf4_scaling(code):
    # additive span + scaling closure on a basis = GF(4)-linearity
    for g in code.generators:
        for e in gf4.NONZERO:
            assert gf4.scale(e, g) in code


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_conjugate_code_differs(code):
    # the conjugated generators do not all stay inside the code, so the
    # code and its conjugate are genuinely different (inequivalent duals)
    conjugate = [tuple(gf4._MUL[a][a] for a in g) for g in code.generators]
    assert any(g not in code for g in conjugate)


def test_weight_distributions(q9, q10):
    wd9 = {i: c for i, c in enumerate(q9.weight_distribution()) if c}
    wd10 = {i: c for i, c in enumerate(q10.weight_distribution()) if c}
    assert wd9 == QDIST_9
    assert wd10 == QDIST_10
    # the binary closed form reads A_j by index, so there is one per weight
    assert len(q9.weight_distribution()) == q9.m + 1
    assert len(q10.weight_distribution()) == q10.m + 1
    assert sum(wd9.values()) == 1 << q9.r
    assert sum(wd10.values()) == 1 << q10.r
    assert q9.min_distance() == 4
    assert q10.min_distance() == 4


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_codewords_enumeration(code):
    words = xor_span([gf4.pack(g) for g in code.generators])
    assert len(words) == 1 << code.r
    assert len(set(words.tolist())) == len(words)
    assert all(gf4.unpack(int(w), code.m) in code for w in words[:64])


def test_syndrome_of_worked_example_projections(q9, q10):
    for ex in DECODE_EXAMPLES.values():
        y = gf4.parse_vector(ex["projection"])
        code = q9 if len(y) == 9 else q10
        assert code.syndrome(y) == gf4.pack(gf4.parse_vector(ex["syndrome"]))


def test_syndrome_rejects_wrong_length(q9):
    with pytest.raises(ValueError):
        q9.syndrome((0,) * 8)
    # and a symbol that is not an int in 0..3, with the constructor's text
    for bad in (-1, 5, 1.0, True):
        with pytest.raises(ValueError,
                           match=rf"^not a GF\(4\) symbol: {bad!r}$"):
            q9.syndrome((bad,) * 9)
        with pytest.raises(ValueError, match="not a GF"):
            (bad,) * 9 in q9


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_low_weight_vectors_never_parity_check(code):
    # no vector of symbol weight 1..3 is in the null space: that is
    # exactly the any-three-columns-independent property the decoder needs
    m = code.m
    for w in (1, 2, 3):
        for positions in itertools.combinations(range(m), w):
            for values in itertools.product(gf4.NONZERO, repeat=w):
                y = [0] * m
                for pos, e in zip(positions, values):
                    y[pos] = e
                assert code.syndrome(y) != 0


def _vector(m: int, terms) -> list[int]:
    """The length-m vector with coefficient e at column c for each (c, e)."""
    y = [0] * m
    for c, e in terms:
        y[c - 1] = e
    return y


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_solve_tables_are_keyed_by_column_set(code):
    # one table for M = (), each single column, each pair and each triple
    columns = range(1, code.m + 1)
    tables = _solve_tables(code)
    assert set(tables) == {
        minority for p in range(4)
        for minority in itertools.combinations(columns, p)}
    assert len(tables) == sum(math.comb(code.m, p) for p in range(4))


def _check_table(table: bytes, solved: dict[int, int], count: int) -> None:
    """``table`` holds exactly the bytes of ``solved`` and UNSOLVABLE
    everywhere else; ``count`` syndromes are solvable."""
    assert len(solved) == count
    assert type(table) is bytes and len(table) == 256
    assert {s: b for s, b in enumerate(table) if b != UNSOLVABLE} == solved


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_match_single_column_exhaustive(code):
    # the solve tables of at most one minority column i and one extra
    # column x: e1 H_i + ex H_x packs as (3 (x - 1) + ex) << 2 | e1, with
    # 0 for no x, by the independent syndrome
    m = code.m
    solve = _solve_tables(code)
    for minority in [()] + [(i,) for i in range(1, m + 1)]:
        solved = {}
        for e1 in gf4.ELEMENTS if minority else (0,):
            first = [(minority[0], e1)] if minority else []
            solved[code.syndrome(_vector(m, first))] = e1
            for x in range(1, m + 1):
                for ex in gf4.NONZERO:
                    if x not in minority:
                        s = code.syndrome(_vector(m, first + [(x, ex)]))
                        assert s not in solved
                        solved[s] = (3 * (x - 1) + ex) << 2 | e1
        count = 4 * (1 + 3 * (m - 1)) if minority else 1 + 3 * m
        _check_table(solve[minority], solved, count)


def test_match_single_column_rejects_double_errors(q9):
    # a sum of two distinct column multiples is never a single multiple
    table = _solve_tables(q9)[()]
    for (i, j) in itertools.combinations(range(1, 10), 2):
        assert table[q9.syndrome(_vector(9, [(i, 1), (j, 2)]))] == UNSOLVABLE


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_solve_two_columns_exhaustive(code):
    # the p = 2 solve: every pair's 16 coefficient vectors, one byte each,
    # e1 << 4 | e2 << 2 with a third coefficient of 0
    m = code.m
    solve = _solve_tables(code)
    for pair in itertools.combinations(range(1, m + 1), 2):
        solved = {}
        for e1, e2 in itertools.product(gf4.ELEMENTS, repeat=2):
            s = code.syndrome(_vector(m, zip(pair, (e1, e2))))
            solved[s] = e1 << 4 | e2 << 2
        _check_table(solve[pair], solved, 16)


def test_solve_three_columns_exhaustive(q9, q10):
    # the p = 3 solve: every triple's 64 coefficient vectors, one byte each
    for code in (q9, q10):
        m = code.m
        solve = _solve_tables(code)
        for triple in itertools.combinations(range(1, m + 1), 3):
            solved = {}
            for e1, e2, e3 in itertools.product(gf4.ELEMENTS, repeat=3):
                s = code.syndrome(_vector(m, zip(triple, (e1, e2, e3))))
                solved[s] = e1 << 4 | e2 << 2 | e3
            _check_table(solve[triple], solved, 64)


def test_solve_columns_unsolvable(q9):
    # a pure column-4 multiple cannot be written on columns {1, 2}
    byte = _solve_tables(q9)[1, 2][q9.syndrome(_vector(9, [(4, 2)]))]
    assert byte == UNSOLVABLE


def test_codes_share_the_tables_of_common_triples(q9, q10):
    # a pair's or a triple's table depends on its columns alone, and c4-9's
    # H is the first nine columns of c4-10's: each code builds its own
    # tables, and the two agree on each pair and each triple of those
    # columns
    assert [h[:9] for h in q10.parity_check] == list(q9.parity_check)
    solve10 = _solve_tables(q10)
    shared = [(columns, table) for columns, table in _solve_tables(q9).items()
              if len(columns) >= 2]
    assert len(shared) == 36 + 84
    for columns, table in shared:
        assert table == solve10[columns]


def test_dropped_codes_leave_no_solve_tables():
    # the tables go with their code: after one warm build, the O and E
    # contexts of six caps of m = 11..16, 2,652 tables in all, leave less
    # than 16 KB behind once dropped
    def build_and_drop(m):
        c4 = systematic_c4(f"cap-{m}", cap_columns()[:m])
        for variant in Variant:
            DecoderContext(c4, variant)

    build_and_drop(10)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for m in range(11, 17):
            build_and_drop(m)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 16_000


def test_solve_tables_wait_for_a_decoder():
    # a fresh c4-9, its binary codes and their distributions build no solve
    # table; the first decoder context does, and the next one shares them
    code = c4_9.__wrapped__()
    assert code is not c4_9()
    for variant in Variant:
        construct(code, variant).weight_distribution()
    code.weight_distribution()
    assert code not in _TABLES
    first = DecoderContext(code, Variant.O)
    built = _TABLES[code]
    second = DecoderContext(code, Variant.E)
    assert _TABLES[code] is built and _solve_tables(code) is built
    tables = {id(table) for table in built.values()}
    for a, b in zip(first._profiles, second._profiles):
        assert (a is None) == (b is None)
        if a is not None:
            assert a[2] is b[2] and id(a[2]) in tables


def test_one_enumeration_per_code(monkeypatch):
    # a fresh c4-9's distribution, minimum distance and both binary
    # distributions read one enumeration of its image, kept as one tuple
    enumerated, read = [], []

    def recorded(method, log):
        def wrapper(self):
            log.append(method(self))
            return log[-1]
        return wrapper

    monkeypatch.setattr(BinaryLinearCode, "weight_distribution", recorded(
        BinaryLinearCode.weight_distribution, enumerated))
    monkeypatch.setattr(QuaternaryCode, "weight_distribution", recorded(
        QuaternaryCode.weight_distribution, read))
    code = c4_9.__wrapped__()
    code.weight_distribution()
    assert code.min_distance() == 4
    for variant in Variant:
        construct(code, variant).weight_distribution()
    assert len(enumerated) == 1
    assert len(read) == 4
    assert all(dist is read[0] for dist in read)
    assert read[0] == enumerated[0][:2 * code.m + 1:2]


def test_colmul_holds_the_packed_column_multiples(q9, q10):
    # colmul[i][e] is the packed syndrome of e in column i: e H_i
    for code in (q9, q10):
        assert code.colmul[0] == (0, 0, 0, 0)
        assert code.colmul[1] == (0, 0b01000000, 0b10000000, 0b11000000)
        for i in range(1, code.m + 1):
            col = tuple(h[i - 1] for h in code.parity_check)
            assert code.colmul[i] == tuple(gf4.pack(gf4.scale(e, col))
                                           for e in gf4.ELEMENTS)


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8, 9, 10])
def test_image_rows_are_phi_three_bits_a_symbol(m):
    # the image's row for generator g puts PHI_BLOCKS[g_j] at bit 3j, the
    # first symbol lowest: c4-9, c4-10 and the caps on the first m columns
    code = {9: c4_9(), 10: c4_10()}.get(m) or systematic_c4(
        f"cap-{m}", cap_columns()[:m])
    assert code.image.generator == tuple(
        sum(PHI_BLOCKS[a] << 3 * j for j, a in enumerate(g))
        for g in code.generators)


def test_generators_are_the_basis_and_its_w_multiples(q9, q10):
    # each basis row of _G9 / _G10 is followed by w times it
    for code, basis in ((q9, _G9), (q10, _G10)):
        assert code.generators[::2] == tuple(parse_gf4_matrix(basis))
        assert code.generators[1::2] == tuple(gf4.scale(gf4.OMEGA, b)
                                              for b in code.generators[::2])


@given(st.integers(3, 8).flatmap(lambda m: st.lists(
    st.lists(st.sampled_from(gf4.ELEMENTS), min_size=m, max_size=m),
    min_size=4, max_size=4)))
@example([list(row[:8]) for row in parse_gf4_matrix(_H9)])   # a cap
@example([[1, 0, 0], [0, 1, 0], [0, 0, 0], [0, 0, 0]])      # a zero column
def test_cap_check_matches_brute_force(h):
    # H is refused exactly when a nonzero coefficient vector on one, two
    # or three columns sums to zero, and the columns it names carry such
    # a vector with no zero coefficient
    m = len(h[0])
    dependent = set()
    for p in (1, 2, 3):
        for columns in itertools.combinations(range(1, m + 1), p):
            for values in itertools.product(gf4.NONZERO, repeat=p):
                y = _vector(m, zip(columns, values))
                if not any(gf4.plain_inner(y, row) for row in h):
                    dependent.add(columns)
    try:
        QuaternaryCode("h", [], h)
    except ValueError as exc:
        named = re.fullmatch(r"h: columns ([\d, ]+) of H are dependent",
                             str(exc))
        assert named and dependent
        assert tuple(map(int, named[1].split(", "))) in dependent
    else:
        assert not dependent


def test_constructor_rejects_bad_matrices(q9):
    basis = q9.generators[::2]
    h = q9.parity_check
    with pytest.raises(ValueError, match="expected a 4-row parity check"):
        QuaternaryCode("bad", basis, h[:3])      # not 4 parity rows
    with pytest.raises(ValueError, match="expected a 4-row parity check"):
        QuaternaryCode("bad", basis, [])         # no parity rows at all
    with pytest.raises(ValueError):
        QuaternaryCode("bad", [basis[0][:8]], h)  # ragged basis row
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: 5"):
        QuaternaryCode("bad", [(1, 0, 5)], h)     # symbol outside 0..3
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: -1"):
        QuaternaryCode("bad", basis, [*h[:3], (-1,) * 9])
    with pytest.raises(ValueError, match="ragged parity-check matrix"):
        QuaternaryCode("bad", basis, [*h[:3], h[3][:8]])  # short fourth row
    # 1.0 and True both equal a field element but are not ints
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: 1.0"):
        QuaternaryCode("bad", [(1.0, *basis[0][1:])], h)
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: True"):
        QuaternaryCode("bad", [(True, *basis[0][1:])], h)
    unit = tuple([1] + [0] * 8)
    # the message carries the failing row's syndrome
    with pytest.raises(ValueError, match=r"bad: generator 1 0 0 0 0 0 0 0 0 "
                       r"fails the parity check \(syndrome 1 0 0 0\)$"):
        QuaternaryCode("bad", [unit], h)
    # every basis row is checked: here the last one fails, and is named
    last = (*basis[-1][:-1], basis[-1][-1] ^ 1)
    with pytest.raises(ValueError, match=f"bad: generator "
                       f"{gf4.format_vector(last)} fails the parity check"):
        QuaternaryCode("bad", [*basis[:-1], last], h)
    with pytest.raises(ValueError,
                       match="bad: basis rows are dependent: rank 5 < 6"):
        QuaternaryCode("bad", basis + basis[:1], h)  # dependent rows
    # an image longer than 64 bits keeps its own message
    zero = (0,) * 22
    for rows in ([], [(1, *zero[1:])]):
        with pytest.raises(ValueError, match="length 66 is outside 0..64"):
            QuaternaryCode("long", rows, [zero] * 4)


def test_syndrome_packing_round_trip():
    for s in itertools.product(range(4), repeat=4):
        assert gf4.unpack(gf4.pack(s), 4) == s


def test_parse_format_gf4_matrix(q9):
    text = format_gf4_matrix(q9.generators)
    assert parse_gf4_matrix(text) == list(q9.generators)
    assert parse_gf4_matrix("# note\n\n0 1\nw W\n") == [(0, 1), (2, 3)]
    with pytest.raises(ValueError, match="line 2: row length 1 != 2"):
        parse_gf4_matrix("0 1\nw\n")
    with pytest.raises(ValueError):
        parse_gf4_matrix("# only comments\n")
