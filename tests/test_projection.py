from __future__ import annotations

import gc
import itertools
import re
import weakref

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from projcode import gf4
from projcode.bitlin import BinaryLinearCode, parse_bits, rank
from projcode.decoder import DecoderContext, decode
from projcode.projection import (NIBBLE_VALUE, PHI_BLOCKS,
                                 ParityProfile, Variant, construct,
                                 d_code_generators, has_projection,
                                 parity_profile, phi, project,
                                 projection_checks, render_array,
                                 select_candidate)
from projcode.quaternary import QuaternaryCode, c4_9, c4_10

from conftest import (BINARY_IDS, cap_columns, code_equal,
                      enumerated_distribution, enumerated_has_projection,
                      minority_columns, reference_parity_profile,
                      reference_project, systematic_c4, word_from_rows)
from golden import (COSET_TABLE, DECODE_EXAMPLES, PROJ_EXAMPLE_VALUE,
                    PROJ_EXAMPLE_WORD)

words36 = st.integers(min_value=0, max_value=(1 << 36) - 1)
# (m, word) with a word of length 4m for m = 9 or 10
sized_words = st.sampled_from((9, 10)).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(0, (1 << 4 * m) - 1)))


# ---------------------------------------------------------------------------
# columns, nibbles and cosets

def test_projection_example():
    word, n = parse_bits(PROJ_EXAMPLE_WORD)
    assert project(word, n // 4) == tuple(gf4.parse_vector(PROJ_EXAMPLE_VALUE))


def test_phi_blocks_project_back():
    for v in range(4):
        assert NIBBLE_VALUE[PHI_BLOCKS[v]] == v


def test_nibble_value_is_additive():
    for a, b in itertools.product(range(16), repeat=2):
        assert NIBBLE_VALUE[a ^ b] == NIBBLE_VALUE[a] ^ NIBBLE_VALUE[b]


def test_cosets_match_reference_table():
    for symbol, nibbles in COSET_TABLE.items():
        value, = gf4.parse_vector(symbol)
        assert {NIBBLE_VALUE[int(s, 2)] for s in nibbles} == {value}
    # the sixteen nibbles split exactly into the four cosets
    assert sorted(int(s, 2) for nibbles in COSET_TABLE.values()
                  for s in nibbles) == list(range(16))


def test_select_candidate_is_inverse_of_classification():
    for symbol, nibbles in COSET_TABLE.items():
        value, = gf4.parse_vector(symbol)
        for nib in (int(s, 2) for s in nibbles):
            assert select_candidate(value, nib.bit_count(), nib >> 3) == nib


def test_select_candidate_examples():
    # value 0, odd parity: 1000 has first bit 1, 0111 has first bit 0
    assert select_candidate(0, 1, 0) == 0b0111
    assert select_candidate(0, 1, 1) == 0b1000
    assert select_candidate(0, 0, 1) == 0b1111
    assert select_candidate(0, 0, 0) == 0b0000


# ---------------------------------------------------------------------------
# projection and parity profile against the nibble-by-nibble reference

@given(sized_words)
@example((9, int("0001" * 5 + "1111" * 4, 2)))          # p = 4
@example((10, int("0100" * 5 + "0000" * 5, 2)))         # a parity tie
def test_project_matches_nibble_reference(sized_word):
    m, word = sized_word
    assert project(word, m) == reference_project(word, m)


@given(words36, words36)
def test_projection_is_additive(a, b):
    pa, pb = project(a, 9), project(b, 9)
    assert project(a ^ b, 9) == tuple(x ^ y for x, y in zip(pa, pb))


@pytest.mark.parametrize("m", [9, 10])
def test_words_outside_the_length_are_rejected(m):
    top = (1 << 4 * m) - 1
    assert project(top, m) == (0,) * m
    assert parity_profile(top, m) == reference_parity_profile(top, m)
    render_array(top, m)
    for word in (-1, top + 1, 1 << 40):
        for call in (project, parity_profile, render_array):
            with pytest.raises(ValueError, match=f"fit in {4 * m} bits"):
                call(word, m)
        # an error outside the length would star all bits or none
        with pytest.raises(ValueError, match=f"fit in {4 * m} bits"):
            render_array(0, m, error=word)


# ---------------------------------------------------------------------------
# phi and the completing d generators

@given(st.lists(st.integers(min_value=0, max_value=3), max_size=16))
def test_phi_doubles_weight_and_projects_back(symbols):
    # the empty vector included; the reference places one nibble a symbol
    x = tuple(symbols)
    word = phi(x)
    assert word == sum(PHI_BLOCKS[a] << 4 * (len(x) - 1 - i)
                       for i, a in enumerate(x))
    assert bin(word).count("1") == 2 * (len(x) - x.count(0))
    assert project(word, len(x)) == x


@pytest.mark.parametrize("x", [(4,), (1, -1), (0, 10), (48,), (1, 256)])
def test_phi_rejects_what_is_not_a_symbol(x):
    # no byte but 0..3 spells a digit, so neither a whitespace byte nor
    # an ASCII digit's code reads as a nibble
    with pytest.raises(ValueError):
        phi(x)


def test_phi_is_additive():
    for a, b in itertools.product(range(4), repeat=2):
        assert phi((a,)) ^ phi((b,)) == phi((a ^ b,))


@pytest.mark.parametrize("m", [9, 10])
@pytest.mark.parametrize("variant", list(Variant))
def test_d_code_generators_shape(m, variant):
    rows = d_code_generators(m, variant)
    assert len(rows) == m
    assert rank(rows, 4 * m) == m
    # every d row projects to the zero GF(4) word
    for row in rows:
        assert project(row, m) == (0,) * m


def test_d_code_extra_row():
    d1_9, d2_9 = int("1000" * 9, 2), int("1000" * 8 + "0111", 2)
    assert d_code_generators(9, Variant.O)[-1] == d1_9   # odd m: O takes d1
    assert d_code_generators(9, Variant.E)[-1] == d2_9
    d1_10, d2_10 = int("1000" * 10, 2), int("1000" * 9 + "0111", 2)
    assert d_code_generators(10, Variant.O)[-1] == d2_10  # even m: swapped
    assert d_code_generators(10, Variant.E)[-1] == d1_10
    # the variants differ only in that final row
    assert d_code_generators(9, Variant.O)[:-1] \
        == d_code_generators(9, Variant.E)[:-1]


# ---------------------------------------------------------------------------
# parity profiles

def test_parity_profile_of_worked_examples():
    expected_minority = {1: (5, 6), 2: (8,), 3: (), 4: (3, 8, 10)}
    for num, ex in DECODE_EXAMPLES.items():
        m = len(ex["rows"][0].split())
        prof = parity_profile(word_from_rows(ex["rows"]), m)
        assert prof.p == ex["p"]
        assert prof.y_odd + prof.y_even == len(prof.column_parities) == m
        assert minority_columns(prof) == expected_minority[num]
        assert len(minority_columns(prof)) == prof.p


@given(sized_words)
@example((9, int("0001" * 5 + "1111" * 4, 2)))          # p = 4
@example((10, int("0100" * 5 + "0000" * 5, 2)))         # a parity tie
@example((10, int("1000" * 10, 2)))                     # every column odd
def test_parity_profile_counts(sized_word):
    m, word = sized_word
    assert parity_profile(word, m) == reference_parity_profile(word, m)


def test_parity_profile_tie():
    prof = parity_profile(0b1000_0000, 2)
    assert prof == ParityProfile(column_parities=(1, 0), first_row_parity=1,
                                 y_odd=1, y_even=1, p=1)


# ---------------------------------------------------------------------------
# the binary constructions

def test_construct_dimensions(contexts):
    expected = {"o36": (36, 19), "e36": (36, 19),
                "o40": (40, 22), "e40": (40, 22)}
    for code_id, (n, k) in expected.items():
        code = contexts[code_id].binary_code
        assert (code.n, code.k) == (n, k)


def test_generator_projections_span_the_quaternary_code(contexts):
    for code_id, ctx in contexts.items():
        c4 = ctx.c4
        gens = ctx.binary_code.generator
        for row, qrow in zip(gens[:c4.r], c4.generators):
            assert project(row, ctx.m) == qrow
        for row in gens[c4.r:]:
            assert project(row, ctx.m) == (0,) * c4.m


@pytest.mark.parametrize("m", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("variant", list(Variant))
def test_closed_form_matches_enumeration_at_other_m(m, variant):
    # the first m cap columns give k = 3m - 8 <= 16; odd and even m take
    # both forms of d's extra row, and every C4 here has A_1 = A_2 = 0;
    # at m = 4, C4 = {0}, so only j = 0 adds and E = |C4|
    code = construct(systematic_c4(f"cap-{m}", cap_columns()[:m]), variant)
    assert code.k == 3 * m - 8
    assert code.weight_distribution() == enumerated_distribution(code)


def test_construct_matches_context(contexts):
    assert code_equal(construct(c4_9(), Variant.O),
                      contexts["o36"].binary_code)


@pytest.mark.parametrize("build", [construct, DecoderContext])
def test_construct_refuses_a_basis_short_of_ker_h(build):
    # four of c4-9's five basis rows meet H but leave r = 8 < 2 (m - 4):
    # the refusal names the code and both counts, not the parity rows
    sub = QuaternaryCode("sub", c4_9().generators[::2][:4],
                         c4_9().parity_check)
    assert sub.r == 8
    for variant in Variant:
        with pytest.raises(ValueError, match=re.escape(
                "sub: 4 basis rows, not m - 4 = 5")):
            build(sub, variant)


def test_projection_checks_are_a_parity_check_basis(contexts):
    for ctx in contexts.values():
        checks = projection_checks(ctx.c4, ctx.variant)
        code = ctx.binary_code
        assert len(checks) == rank(checks, code.n) == code.n - code.k
        assert code.parity_rows == tuple(checks)


def test_syndrome_low_byte_on_unit_words(contexts):
    # the syndrome is GF(2)-linear, so agreeing on the 4m unit words proves
    # the low byte is the projection's packed GF(4) syndrome for every word
    for ctx in contexts.values():
        for bit in range(ctx.n):
            u = 1 << bit
            assert ctx.binary_code.syndrome(u) & 255 == ctx.c4.syndrome(
                reference_project(u, ctx.m))


@given(st.sampled_from(BINARY_IDS), st.integers(0, (1 << 40) - 1))
def test_syndrome_layout(contexts, code_id, word):
    # low byte: the packed GF(4) syndrome of the projection; then the
    # parity differences of adjacent columns; top bit: the first-row check
    ctx = contexts[code_id]
    m, y = ctx.m, word >> 40 - ctx.n
    synd = ctx.binary_code.syndrome(y)
    assert synd & 255 == ctx.c4.syndrome(reference_project(y, m))
    prof = reference_parity_profile(y, m)
    pars = prof.column_parities
    for i in range(1, m):
        assert (synd >> 7 + i) & 1 == pars[i - 1] ^ pars[i]
    first_row = prof.first_row_parity
    if ctx.variant is Variant.O:
        first_row ^= pars[0]
    assert synd >> m + 7 == first_row


def test_has_projection_accepts_matching_variant(contexts):
    # crossed variants must fail: an O codeword with odd column parity has
    # an odd first row, which the E rule forbids (and vice versa)
    assert has_projection(contexts["o36"].binary_code, c4_9(), Variant.O)
    assert not has_projection(contexts["o36"].binary_code, c4_9(), Variant.E)
    assert not has_projection(contexts["e36"].binary_code, c4_9(), Variant.O)
    assert not has_projection(contexts["o36"].binary_code, c4_10(), Variant.O)


def test_has_projection_needs_the_length():
    # the empty code meets every check, so only its length rules it out
    assert not has_projection(BinaryLinearCode([], 8), c4_9(), Variant.O)
    assert has_projection(BinaryLinearCode([], 36), c4_9(), Variant.O)


def test_fresh_builds_keep_no_state_beyond_their_code():
    # a memo keyed by codes would keep every code that construct_verify
    # builds alive: after the factory's cache lets go of a fresh code, the
    # constructions, checks and decoder contexts made from it, with their
    # solve tables, leave nothing holding it
    c4_9.cache_clear()
    c4 = c4_9()
    old = weakref.ref(c4)
    for variant in Variant:
        code = construct(c4, variant)
        assert has_projection(code, c4, variant)
        ctx = DecoderContext(c4, variant)
        assert decode(ctx, 0).ok
    c4_9.cache_clear()
    del c4, code, ctx
    gc.collect()
    assert old() is None
    assert c4_9() is c4_9()


@pytest.mark.parametrize("variant", ["O", "X", None])
def test_only_a_variant_is_accepted(variant, contexts):
    # the constructions test ``variant is Variant.O``, so anything else
    # would read as E
    o36 = contexts["o36"].binary_code
    for build in (lambda: construct(c4_9(), variant),
                  lambda: projection_checks(c4_9(), variant),
                  lambda: DecoderContext(c4_9(), variant),
                  lambda: has_projection(o36, c4_9(), variant),
                  lambda: has_projection(o36, c4_10(), variant)):
        with pytest.raises(ValueError, match="not a Variant"):
            build()


@pytest.mark.parametrize("code_id", BINARY_IDS)
def test_has_projection_matches_enumeration(code_id, contexts):
    code = contexts[code_id].binary_code
    for c4 in (c4_9(), c4_10()):
        for variant in Variant:
            assert has_projection(code, c4, variant) \
                == enumerated_has_projection(code, c4, variant)


def test_has_projection_matches_enumeration_on_perturbed_codes(contexts):
    # perturb one generator row by a bit flip, a 1111 flip in a set of
    # columns or a nibble in one column; the code keeps its properties
    # only when the perturbation is itself a codeword (an even set of 1111
    # columns, a zero nibble), so both verdicts occur
    verdicts = set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def check(data):
        ctx = contexts[data.draw(st.sampled_from(BINARY_IDS))]
        code, m = ctx.binary_code, ctx.m
        kind = data.draw(st.sampled_from(("bit", "columns", "nibble")))
        if kind == "bit":
            flip = 1 << data.draw(st.integers(0, code.n - 1))
        elif kind == "columns":
            columns = data.draw(st.sets(st.integers(0, m - 1), min_size=1))
            flip = sum(0b1111 << 4 * c for c in columns)
        else:
            flip = (data.draw(st.integers(0, 15))
                    << 4 * data.draw(st.integers(0, m - 1)))
        rows = list(code.generator)
        rows[data.draw(st.integers(0, code.k - 1))] ^= flip
        assume(rank(rows, code.n) == code.k)
        perturbed = BinaryLinearCode(rows, code.n)
        verdict = {variant: has_projection(perturbed, ctx.c4, variant)
                   for variant in Variant}
        for variant, got in verdict.items():
            assert got == enumerated_has_projection(perturbed, ctx.c4,
                                                    variant)
        verdicts.add(verdict[ctx.variant])

    check()
    assert verdicts == {True, False}


def test_random_codeword_projections_live_in_c4(contexts):
    import random
    rng = random.Random(7)
    for ctx in contexts.values():
        code = ctx.binary_code
        for _ in range(100):
            word = code.encode(rng.getrandbits(code.k))
            y = project(word, ctx.m)
            assert ctx.c4.syndrome(y) == 0
            prof = parity_profile(word, ctx.m)
            assert prof.p == 0    # all columns share one parity
            if ctx.variant is Variant.E:
                assert prof.first_row_parity == 0
            else:
                assert prof.first_row_parity == prof.column_parities[0]


# ---------------------------------------------------------------------------
# column surgery used by the decoder

def _projection_of_example_1(flips: int = 0) -> tuple[int, ...]:
    """The projection of worked example 1 with ``flips`` XORed in."""
    word = word_from_rows(DECODE_EXAMPLES[1]["rows"])
    return project(word ^ flips, 9)


def test_first_row_flip_preserves_projection():
    assert _projection_of_example_1(0b1000 << 4 * (9 - 3)) \
        == _projection_of_example_1()


def test_lower_row_flip_changes_projection():
    for mask, delta in ((0b0100, 1), (0b0010, 2), (0b0001, 3)):
        flipped = _projection_of_example_1(mask << 4 * (9 - 3))
        assert flipped[2] == _projection_of_example_1()[2] ^ delta


def test_triple_flip_in_lower_rows_preserves_projection():
    for mask in (0b0111, 0b1111):
        assert _projection_of_example_1(mask << 4 * (9 - 4)) \
            == _projection_of_example_1()


# ---------------------------------------------------------------------------
# rendering

def test_render_array_marks_changes():
    word = word_from_rows(DECODE_EXAMPLES[1]["rows"])
    out = word ^ 0b0010 << 4 * (9 - 5)
    text = render_array(out, 9, out ^ word)
    lines = text.splitlines()
    assert len(lines) == 8                  # header, rules, 4 rows, projection
    assert lines[0].endswith("9")           # column header runs 1..9
    assert [ln[2] for ln in lines[2:6]] == ["0", "1", "w", "W"]
    assert text.count("*") == 1             # exactly the one flipped bit
    assert lines[-1].split("|")[1].split() == \
        [gf4.format_element(v) for v in project(out, 9)]
