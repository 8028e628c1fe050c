from __future__ import annotations

import itertools

import pytest

from projcode import gf4
from projcode.bitlin import xor_span
from projcode.quaternary import (_G9, _G10, QuaternaryCode, c4_9, c4_10,
                                 format_gf4_matrix, parse_gf4_matrix)

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
    conjugate = [tuple(gf4.mul(a, a) for a in g) for g in code.generators]
    assert any(g not in code for g in conjugate)


def test_weight_distributions(q9, q10):
    wd9 = {i: c for i, c in enumerate(q9.weight_distribution()) if c}
    wd10 = {i: c for i, c in enumerate(q10.weight_distribution()) if c}
    assert wd9 == QDIST_9
    assert wd10 == QDIST_10
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


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_match_single_column_exhaustive(code):
    for i in range(1, code.m + 1):
        for e in gf4.NONZERO:
            y = [0] * code.m
            y[i - 1] = e
            assert code.single[code.syndrome(y)] == (i, e)
    assert 0 not in code.single
    assert len(code.single) == 3 * code.m


def test_match_single_column_rejects_double_errors(q9):
    # a sum of two distinct column multiples is never a single multiple
    for (i, j) in itertools.combinations(range(1, 10), 2):
        y = [0] * 9
        y[i - 1] = gf4.ONE
        y[j - 1] = gf4.OMEGA
        assert q9.syndrome(y) not in q9.single


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_solve_two_columns_exhaustive(code):
    for (i, j) in itertools.combinations(range(1, code.m + 1), 2):
        for a, b in itertools.product(gf4.ELEMENTS, repeat=2):
            y = [0] * code.m
            y[i - 1], y[j - 1] = a, b
            assert code.pair_table(i, j)[code.syndrome(y)] == (a, b)


def test_solve_three_columns_exhaustive(q9):
    # the decoder's p = 3 solve: exactly one coefficient of the first
    # column leaves a syndrome in the pair table of the other two
    for i, j, k in itertools.combinations(range(1, 10), 3):
        for vals in itertools.product(gf4.ELEMENTS, repeat=3):
            y = [0] * 9
            for c, e in zip((i, j, k), vals):
                y[c - 1] = e
            s = q9.syndrome(y)
            pair = q9.pair_table(j, k)
            hits = [(e, *pair[s ^ q9.colmul[i][e]]) for e in gf4.ELEMENTS
                    if s ^ q9.colmul[i][e] in pair]
            assert hits == [vals]


def test_solve_columns_unsolvable(q9):
    # a pure column-4 multiple cannot be written on columns {1, 2}
    y = [0] * 9
    y[3] = gf4.OMEGA
    assert q9.syndrome(y) not in q9.pair_table(1, 2)


def test_colmul_holds_the_packed_column_multiples(q9, q10):
    # colmul[i][e] is the packed syndrome of e in column i: e H_i
    for code in (q9, q10):
        assert code.colmul[0] == (0, 0, 0, 0)
        assert code.colmul[1] == (0, 0b01000000, 0b10000000, 0b11000000)
        for i in range(1, code.m + 1):
            col = tuple(h[i - 1] for h in code.parity_check)
            assert code.colmul[i] == tuple(gf4.pack(gf4.scale(e, col))
                                           for e in gf4.ELEMENTS)


def test_generators_are_the_basis_and_its_w_multiples(q9, q10):
    # each basis row of _G9 / _G10 is followed by w times it
    for code, basis in ((q9, _G9), (q10, _G10)):
        assert code.generators[::2] == tuple(parse_gf4_matrix(basis))
        assert code.generators[1::2] == tuple(gf4.scale(gf4.OMEGA, b)
                                              for b in code.generators[::2])


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
    # 1.0 and True both equal a field element but are not ints
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: 1.0"):
        QuaternaryCode("bad", [(1.0, *basis[0][1:])], h)
    with pytest.raises(ValueError, match="not a GF\\(4\\) symbol: True"):
        QuaternaryCode("bad", [(True, *basis[0][1:])], h)
    unit = tuple([1] + [0] * 8)
    with pytest.raises(ValueError):
        QuaternaryCode("bad", [unit], h)         # fails the parity check
    with pytest.raises(ValueError, match="generator rows are dependent"):
        QuaternaryCode("bad", basis + basis[:1], h)  # dependent rows


def test_syndrome_packing_round_trip():
    for s in itertools.product(range(4), repeat=4):
        assert gf4.unpack(gf4.pack(s), 4) == s


def test_parse_format_gf4_matrix(q9):
    text = format_gf4_matrix(q9.generators)
    assert parse_gf4_matrix(text) == list(q9.generators)
    assert parse_gf4_matrix("# note\n\n0 1\nw W\n") == [(0, 1), (2, 3)]
    with pytest.raises(ValueError):
        parse_gf4_matrix("0 1\nw\n")
    with pytest.raises(ValueError):
        parse_gf4_matrix("# only comments\n")
