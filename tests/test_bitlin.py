from __future__ import annotations

import functools
import itertools
import math
import operator
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from projcode import bitlin
from projcode.bitlin import BinaryLinearCode, CosetTable
from projcode.quaternary import (QuaternaryCode, c4_9, c4_10,
                                 parse_gf4_matrix)

from conftest import (check_parities, code_equal, enumerated_distribution,
                      reference_rref)


def _repetition4():
    # [4,1,4] repetition code
    return BinaryLinearCode([0b1111], 4)


def _hamming7():
    rows, n = bitlin.parse_matrix("""
        1000110
        0100101
        0010011
        0001111
    """)
    return BinaryLinearCode(rows, n)


def _hamming8():
    # the [8,4,4] extension of _hamming7 by an overall parity bit
    return BinaryLinearCode([r << 1 | r.bit_count() & 1
                             for r in _hamming7().generator], 8)


def test_parse_format_bits():
    v, n = bitlin.parse_bits("0010 1110")
    assert (v, n) == (0b00101110, 8)
    assert bitlin.format_bits(v, n) == "00101110"
    assert bitlin.format_bits(v, n, group=4) == "0010 1110"
    with pytest.raises(ValueError, match="not a binary digit: 'x'"):
        bitlin.parse_bits("01x0")
    with pytest.raises(ValueError):
        bitlin.parse_bits("   ")
    assert bitlin.format_bits(15, 4) == "1111"
    for v in (16, 255, -1):
        with pytest.raises(ValueError, match="word does not fit in 4 bits"):
            bitlin.format_bits(v, 4)


def test_format_bits_of_the_empty_word():
    # n = 0 has one word, 0, of no characters, grouped or not
    assert bitlin.format_bits(0, 0) == ""
    assert bitlin.format_bits(0, 0, group=4) == ""
    with pytest.raises(ValueError, match="word does not fit in 0 bits"):
        bitlin.format_bits(1, 0)


def test_parse_matrix_skips_comments_and_blanks():
    rows, n = bitlin.parse_matrix("# header\n\n10 01\n0110\n")
    assert n == 4
    assert rows == [0b1001, 0b0110]
    with pytest.raises(ValueError):
        bitlin.parse_matrix("101\n10\n")


def test_matrix_rows_names_the_ragged_line():
    def parse_row(line):
        return line, len(line)
    assert bitlin.matrix_rows("# h\nab\n\n cd \n", parse_row) \
        == (["ab", "cd"], 2)
    with pytest.raises(ValueError, match="line 3: row length 1 != 2"):
        bitlin.matrix_rows("ab\n\nc\n", parse_row)
    with pytest.raises(ValueError, match="no matrix rows found"):
        bitlin.matrix_rows("# h\n\n", parse_row)
    # a symbol the row parser rejects is named with its line too
    with pytest.raises(ValueError, match="line 2: not a binary digit: 'x'"):
        bitlin.parse_matrix("0101\n01x1\n")
    with pytest.raises(ValueError,
                       match=r"line 2: not a GF\(4\) symbol: 'q'"):
        parse_gf4_matrix("0 1 w\n0 1 q\n")


def test_matrix_round_trip():
    rows, n = bitlin.parse_matrix("1100\n0011")
    assert bitlin.parse_matrix(bitlin.format_matrix(rows, n, group=4)) \
        == (rows, n)


def test_rref_rank():
    rows = [0b1100, 0b0110, 0b1010]   # third = first + second
    reduced, r = bitlin.rref(rows, 4)
    assert r == 2
    assert bitlin.rank(rows, 4) == 2
    # reduced rows span the same space
    a = BinaryLinearCode(rows[:2], 4)
    b = BinaryLinearCode(reduced, 4)
    assert code_equal(a, b)


@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=6))
def test_rref_preserves_row_space(rows):
    reduced, r = bitlin.rref(rows, 8)
    assert bitlin.rank(rows + reduced, 8) == r
    # idempotent
    again, r2 = bitlin.rref(reduced, 8)
    assert (again, r2) == (reduced, r)


@st.composite
def _row_lists(draw) -> tuple[list[int], int]:
    """(rows, n): up to 8 rows of n <= 12 bits, some of them zero or the
    sum of drawn rows, in a drawn order."""
    n = draw(st.integers(0, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=8))
    sums = draw(st.lists(st.integers(0, (1 << len(rows)) - 1),
                         max_size=8 - len(rows)))
    rows += [functools.reduce(operator.xor, itertools.compress(
        rows, (s >> i & 1 for i in range(len(rows)))), 0) for s in sums]
    return draw(st.permutations(rows)), n


@given(_row_lists())
def test_rref_matches_the_column_sweep(rows_n):
    rows, n = rows_n
    assert bitlin.rref(rows, n) == reference_rref(rows, n)


@st.composite
def _wide_row_lists(draw) -> tuple[list[int], int]:
    """(rows, n): up to 24 rows of n <= 64 bits, their leading bits drawn
    from a few, so that rows share them, plus zero rows and sums of drawn
    rows, in a drawn order."""
    n = draw(st.integers(0, 64))
    rows = []
    if n:
        leads = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        for lead in draw(st.lists(st.sampled_from(leads), max_size=16)):
            rows.append(1 << lead | draw(st.integers(0, (1 << lead) - 1)))
    rows += [0] * draw(st.integers(0, 2))
    sums = draw(st.lists(st.integers(0, (1 << len(rows)) - 1),
                         max_size=24 - len(rows)))
    rows += [functools.reduce(operator.xor, itertools.compress(
        rows, (s >> i & 1 for i in range(len(rows)))), 0) for s in sums]
    return draw(st.permutations(rows)), n


@given(_wide_row_lists())
def test_elimination_matches_the_column_sweep_to_64_bits(rows_n):
    rows, n = rows_n
    reduced, found = reference_rref(rows, n)
    assert bitlin.rank(rows, n) == found
    assert bitlin.rref(rows, n) == (reduced, found)
    # the drawn rows that raise the rank, in drawn order, make a code
    independent = []
    for row in rows:
        if reference_rref([*independent, row], n)[1] > len(independent):
            independent.append(row)
    code = BinaryLinearCode(independent, n)
    assert code._pivots == [n - r.bit_length() for r in reduced]
    checks = code.parity_rows
    assert len(checks) == n - len(reduced)
    assert reference_rref(checks, n)[1] == len(checks)
    assert not any((g & h).bit_count() & 1 for g in independent
                   for h in checks)


@st.composite
def _rows_and_checks(draw) -> tuple[list[int], list[int], bool]:
    """(rows, checks, planted): up to 24 rows and 24 checks of at most 64
    bits, bit 63 among the drawn ones; when ``planted``, the last row and
    the last check meet in an odd number of places."""
    width = draw(st.integers(0, 64))
    word = st.integers(0, (1 << width) - 1)
    if width:
        top = 1 << width - 1
        word = st.one_of(word, word.map(lambda v: v | top))
    rows = draw(st.lists(word, max_size=24))
    checks = draw(st.lists(word, max_size=24))
    planted = bool(width and rows and checks and draw(st.booleans()))
    if planted:
        bit = 1 << draw(st.integers(0, width - 1))
        rows[-1] |= bit
        if not (rows[-1] & checks[-1]).bit_count() & 1:
            checks[-1] ^= bit
    return rows, checks, planted


TOP = 1 << 63


@given(_rows_and_checks())
# empty sides; zero rows; bit 63 alone and twice; one odd pair, the last
# row's with the last check, in 1-bit slots and in 64-bit ones
@example(([], [1], False))
@example(([1], [], False))
@example(([0, 0], [0], False))
@example(([TOP], [TOP], True))
@example(([TOP | 1], [TOP | 1], False))
@example(([0, 0, 1], [0, 1], True))
@example(([0b0110, TOP | 0b11, TOP | 0b1100], [0b1111, TOP | 1], True))
def test_orthogonal_matches_the_pairwise_parities(rows_checks):
    rows, checks, planted = rows_checks
    expected = not any((g & h).bit_count() & 1 for g in rows for h in checks)
    assert bitlin.orthogonal(rows, checks) == expected
    assert not (planted and expected)


def test_rref_matches_the_column_sweep_on_the_codes(contexts):
    codes = [ctx.binary_code for ctx in contexts.values()]
    codes += [c4_9().image, c4_10().image]
    for code in codes:
        for rows in (code.generator, code.parity_rows):
            assert bitlin.rref(rows, code.n) == reference_rref(rows, code.n)


def test_rref_refuses_rows_wider_than_n():
    for rows, n in (([0b1, 0b10000], 4), ([0b1], 0), ([0b11, -1], 2)):
        with pytest.raises(ValueError, match=f"row .* does not fit in {n} "
                                             f"bits"):
            bitlin.rref(rows, n)
        with pytest.raises(ValueError, match="does not fit"):
            bitlin.rank(rows, n)


def test_code_requires_independent_rows():
    with pytest.raises(ValueError):
        BinaryLinearCode([0b1100, 0b0110, 0b1010], 4)


def test_code_rejects_rows_wider_than_n():
    # 0b1001 would make a code whose own generator fails membership, and
    # 0b1000 was once reported as a rank deficit
    for row in (0b1001, 0b1000, -1):
        with pytest.raises(ValueError, match=f"row {row:#b} does not fit"):
            BinaryLinearCode([row], 3)
    code = _hamming7()
    with pytest.raises(ValueError, match="row 0b10000000 does not fit"):
        BinaryLinearCode(code.generator, 7,
                         [*code.parity_rows[:2], 0b10000000])


def test_encode_unit_messages_give_generator_rows():
    code = _hamming7()
    for i in range(code.k):
        assert code.encode(1 << (code.k - 1 - i)) == code.generator[i]
    assert code.encode(0) == 0
    with pytest.raises(ValueError):
        code.encode(1 << code.k)


def test_encode_is_linear():
    code = _hamming7()
    for a, b in itertools.product(range(16), repeat=2):
        assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)


def test_parity_rows_annihilate_code():
    code = _hamming7()
    assert len(code.parity_rows) == code.n - code.k
    for row in code.generator:
        for h in code.parity_rows:
            assert (row & h).bit_count() & 1 == 0
    for msg in range(1 << code.k):
        assert code.encode(msg) in code
    assert 0b1000000 not in code


def test_given_parity_rows_are_checked():
    code = _hamming7()
    h1, h2, h3 = code.parity_rows
    with pytest.raises(ValueError, match="not 3 independent"):
        BinaryLinearCode(code.generator, 7, [h1, h2])
    with pytest.raises(ValueError, match="not 3 independent"):
        BinaryLinearCode(code.generator, 7, [h1, h2, h1 ^ h2])
    # independent, but the unit row meets a generator in one place
    assert bitlin.rank([h1, h2, 0b1000000], 7) == 3
    with pytest.raises(ValueError, match="orthogonal"):
        BinaryLinearCode(code.generator, 7, [h1, h2, 0b1000000])


def test_given_parity_rows_change_only_the_syndrome_bits():
    derived = _hamming7()
    h1, h2, h3 = derived.parity_rows
    given = BinaryLinearCode(derived.generator, 7,
                             [h1 ^ h2, h2 ^ h3, h1 ^ h2 ^ h3])
    assert given.parity_rows != derived.parity_rows
    assert given.syndrome(1) != derived.syndrome(1)
    assert [w in given for w in range(128)] \
        == [w in derived for w in range(128)]
    assert given.weight_distribution() == derived.weight_distribution()
    table_given, table_derived = CosetTable(given), CosetTable(derived)
    assert [table_given.decode(w) for w in range(128)] \
        == [table_derived.decode(w) for w in range(128)]


def test_weight_distribution_small_codes():
    assert _repetition4().weight_distribution() == (1, 0, 0, 0, 1)
    # Hamming [7,4,3]: 1 + 7z^3 + 7z^4 + z^7
    assert _hamming7().weight_distribution() == (1, 0, 0, 7, 7, 0, 0, 1)
    assert _hamming7().min_distance() == 3
    # d at both ends of 1..n
    assert _repetition4().min_distance() == 4
    assert BinaryLinearCode([0b0010, 0b1100], 4).min_distance() == 1


def test_weight_distribution_matches_enumeration(contexts):
    # the four codes take the closed form of ``projection``; their plain
    # copies, both Hamming codes and [4,1] are enumerated
    hamming = _hamming7()
    codes = [ctx.binary_code for ctx in contexts.values()]
    codes += [BinaryLinearCode(code.generator, code.n, code.parity_rows)
              for code in codes]
    codes += [hamming, BinaryLinearCode(hamming.parity_rows, 7),
              _repetition4()]
    for code in codes:
        assert code.weight_distribution() == enumerated_distribution(code)


def test_weight_distribution_budget():
    # the full [26,26] space is the largest enumerated: the binomials
    full = BinaryLinearCode([1 << i for i in range(26)], 26)
    assert full.weight_distribution() == tuple(math.comb(26, j)
                                               for j in range(27))
    # [27,27] exceeds the budget though its dual is {0}; so does [60,30]
    for k, n in ((27, 27), (30, 60)):
        big = BinaryLinearCode([1 << i for i in range(k)], n)
        with pytest.raises(ValueError, match=f"k = {k} exceeds"):
            big.weight_distribution()


def test_code_equal_permuted_generators():
    code = _hamming7()
    rows = list(code.generator)
    shuffled = BinaryLinearCode([rows[2], rows[0] ^ rows[1], rows[1],
                                 rows[3] ^ rows[2]], 7)
    assert code_equal(code, shuffled)
    other = BinaryLinearCode(rows[:3], 7)
    assert not code_equal(code, other)


def test_coset_table_leaders_are_minimal():
    code = _hamming7()
    table = CosetTable(code)
    # perfect single-error-correcting: every syndrome has a weight<=1 leader
    assert len(table.leaders) == 8
    assert table.leaders[0] == 0
    for s, e in table.leaders.items():
        assert e.bit_count() <= 1
        assert table.code.syndrome(e) == s


def _reference_leaders(code):
    """Brute force: every syndrome reached by weight <= 3, with the least
    pattern by (weight, 1-based position tuple); position c is bit n - c."""
    n = code.n
    best = {}
    for w in range(4):
        for positions in itertools.combinations(range(1, n + 1), w):
            e = sum(1 << (n - c) for c in positions)
            s = check_parities(code, e)
            best[s] = min(best.get(s, (w, positions)), (w, positions))
    return {s: sum(1 << (n - c) for c in positions)
            for s, (_, positions) in best.items()}


def _code_30_1():
    # [30,1]: n - k = 29 check rows, and the one codeword has weight 1
    return BinaryLinearCode([1 << 29], 30)


def test_coset_table_tie_rule(contexts):
    rep = _repetition4()
    for code in (rep, _hamming7(), _hamming8(),
                 contexts["o36"].binary_code, _code_30_1()):
        assert CosetTable(code).leaders == _reference_leaders(code), code.n
    # 1100 and 0011 share a syndrome; positions (1, 2) come first
    assert rep.syndrome(0b1100) == rep.syndrome(0b0011)
    assert CosetTable(rep).leaders[rep.syndrome(0b0011)] == 0b1100


def test_coset_decode_round_trip():
    code = _hamming7()
    table = CosetTable(code)
    for msg in range(1 << code.k):
        c = code.encode(msg)
        for pos in range(code.n):
            assert table.decode(c ^ (1 << pos)) == c


def test_coset_decode_reports_truncation(contexts):
    code = contexts["o36"].binary_code
    table = CosetTable(code)
    # d = 8: a weight-4 error is 4 or more from every codeword, beyond
    # the table's radius 3, while its weight-3 part is corrected
    c = code.encode(12345)
    assert table.decode(c ^ 0b1111) is None
    assert table.decode(c ^ 0b0111) == c


def test_coset_table_budget():
    # no budget on n - k: the table holds one leader per syndrome of
    # weight <= 3, so the [30,1] code's 2^29 syndromes cost 4,090
    # entries, the weight <= 3 patterns that avoid its codeword's bit
    table = CosetTable(_code_30_1())
    assert len(table.leaders) == sum(math.comb(29, w) for w in range(4))


def test_syndrome_zero_iff_member(contexts):
    code = contexts["o36"].binary_code
    assert code.syndrome(0) == 0
    for row in code.generator:
        assert code.syndrome(row) == 0
    assert code.syndrome(1) != 0


# words that do not fit in 40 bits: a codeword with bit 40 set, a high
# unit vector and a negative int, which a shift reads as all ones
OUTSIDE_40 = {"codeword-and-bit-40": lambda c: 1 << 40 | c,
              "bit-45": lambda c: 1 << 45,
              "negative": lambda c: -1}


@pytest.mark.parametrize("make", OUTSIDE_40.values(), ids=OUTSIDE_40.keys())
def test_words_outside_the_length_are_rejected(contexts, make):
    code = contexts["o40"].binary_code
    word = make(code.encode(12345))
    assert word not in code
    with pytest.raises(ValueError, match="40 bits"):
        code.syndrome(word)


def test_coset_decode_rejects_words_outside_the_length(contexts):
    code = contexts["o40"].binary_code
    table = CosetTable(code)
    c = code.encode(12345)
    assert table.decode(c ^ 1) == c
    with pytest.raises(ValueError, match="40 bits"):
        table.decode(1 << 40 | c)


def test_code_rejects_length_above_64():
    assert BinaryLinearCode([1 << 63], 64).n == 64
    assert BinaryLinearCode([], 0).n == 0
    for n in (65, -1):
        with pytest.raises(ValueError, match=f"length {n} is outside 0..64"):
            BinaryLinearCode([], n)


def test_min_distance_needs_a_nonzero_codeword(q9):
    for code in (BinaryLinearCode([], 5),
                 QuaternaryCode("e", [], q9.parity_check)):
        with pytest.raises(ValueError, match="no nonzero codeword"):
            code.min_distance()


def _dense_code(n: int) -> tuple[BinaryLinearCode, list[int]]:
    """A fresh dense random [n, n // 2] code, and words that set every
    byte, which tell XOR from OR in each of the table lookups, then
    random words."""
    rng = random.Random(n)
    k = n // 2
    rows = [rng.getrandbits(n) for _ in range(k)]
    while bitlin.rank(rows, n) < k:
        rows = [rng.getrandbits(n) for _ in range(k)]
    ones = (1 << n) - 1
    alternate = int.from_bytes(b"\xff\x00" * 4, "little") & ones
    words = [ones, alternate, alternate ^ ones] \
        + [rng.getrandbits(n) for _ in range(200)]
    return BinaryLinearCode(rows, n), words


@pytest.mark.parametrize("n", (36, 40, 41, 64))
def test_syndrome_tables_on_dense_codes(n):
    code, words = _dense_code(n)
    for word in words:
        assert code.syndrome(word) == check_parities(code, word)


@pytest.mark.parametrize("n", (36, 40, 41, 64))
def test_byte_tables_are_the_spans_of_the_unit_syndromes(n):
    # each byte's table is the numpy span of that byte's unit syndromes,
    # taken bit by bit from the check rows, padded with one shared [0] up
    # to five tables; past 40 bits there is one table per byte, no more
    code, _ = _dense_code(n)
    rows = code.parity_rows
    units = [sum((h >> q & 1) << j for j, h in enumerate(rows))
             for q in range(n)]
    spans = [bitlin.xor_span(units[b:b + 8]).tolist()
             for b in range(0, n, 8)]
    tables = bitlin._byte_tables(rows, n)
    assert tables[:len(spans)] == spans
    assert len(tables) == max(5, len(spans))
    assert all(t == [0] for t in tables[len(spans):])


@pytest.mark.parametrize("n", (36, 40, 41, 64))
def test_in_place_reads_match_the_syndrome(n):
    # ``in`` and ``CosetTable.decode`` read the five byte tables in their
    # own frame for n <= 40 and call ``syndrome`` past that; on a fresh
    # code the first ``in`` builds the tables through ``syndrome``
    code, words = _dense_code(n)
    rng = random.Random(-n)
    codewords = [code.encode(rng.getrandbits(code.k)) for _ in range(50)]
    for first in (codewords[0], words[0]):
        fresh, _ = _dense_code(n)
        assert (first in fresh) is (check_parities(fresh, first) == 0)
    table = CosetTable(code)
    leaders = list(table.leaders.values())
    near = [c ^ rng.choice(leaders) for c in codewords]
    for word in words + codewords + near:
        assert (word in code) is (check_parities(code, word) == 0)
        leader = table.leaders.get(check_parities(code, word))
        assert table.decode(word) == (None if leader is None
                                      else word ^ leader)


@given(st.data())
def test_syndrome_bits_are_check_row_parities(data):
    # repetition codes on both sides of the five-table limit (n <= 40)
    # and at both ends of the looped range
    n = data.draw(st.sampled_from((4, 36, 40, 41, 64)))
    code = BinaryLinearCode([(1 << n) - 1], n)
    word = data.draw(st.integers(0, (1 << n) - 1))
    assert code.syndrome(word) == check_parities(code, word)


def test_coset_table_weight3_syndromes_distinct(contexts):
    # d = 8 means every error of weight <= 3 owns its syndrome
    code = contexts["o36"].binary_code
    table = CosetTable(code)
    expected = 1 + sum(len(list(itertools.combinations(range(36), w)))
                       for w in (1, 2, 3))
    assert len(table.leaders) == expected == 7807
    for s, e in table.leaders.items():
        assert code.syndrome(e) == s
