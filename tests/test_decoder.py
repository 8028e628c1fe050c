from __future__ import annotations

import copy
import functools
import hashlib
import itertools
import math
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from projcode import DecodeOutcome, gf4
from projcode.bitlin import BinaryLinearCode, CosetTable
from projcode.decoder import (BRANCHES, FAIL_PARITY, FAIL_UNCORRECTABLE,
                              UNSOLVABLE, DecoderContext, decode)
from projcode.projection import Variant, project, select_candidate
from projcode.quaternary import QuaternaryCode, c4_9, c4_10

from conftest import (BINARY_IDS, BRANCH_ERRORS, cap_columns,
                      check_parities, coset_representatives, entry_slot,
                      make_context, minority_columns, plant,
                      reference_parity_profile, systematic_c4,
                      word_from_rows)
from golden import DECODE_EXAMPLES, SHIFTED_COSET_OUTCOMES_SHA256


@functools.lru_cache(maxsize=None)
def _context(code_id: str):
    return make_context(code_id)


# ---------------------------------------------------------------------------
# the worked examples, as exact golden traces

@pytest.mark.parametrize("num", sorted(DECODE_EXAMPLES))
def test_worked_example_trace(num, contexts):
    ex = DECODE_EXAMPLES[num]
    ctx = contexts[ex["code"]]
    received = word_from_rows(ex["rows"])
    out = decode(ctx, received)
    assert out.ok
    trace = out.trace
    assert trace.branch == ex["branch"]
    assert trace.syndrome == tuple(gf4.parse_vector(ex["syndrome"]))
    assert trace.corrections == ex["corrections"]
    assert trace.error_weight == ex["weight"]
    assert trace.profile == reference_parity_profile(received, ctx.m)
    assert trace.profile.p == ex["p"]
    assert project(received, ctx.m) \
        == tuple(gf4.parse_vector(ex["projection"]))
    assert out.codeword in ctx.binary_code
    assert out.error == received ^ out.codeword
    assert out.error.bit_count() == ex["weight"]


def test_example_corrections_via_column_surgery(contexts):
    # replay example 2 by hand: flip the first bit of minority column 8,
    # then replace column 5 by the odd column projecting to 0 whose first
    # bit brings the first row to the expected parity 0
    ex = DECODE_EXAMPLES[2]
    ctx = contexts["e36"]
    received = word_from_rows(ex["rows"])
    out = decode(ctx, received)
    step1 = received ^ 0b1000 << 4 * (9 - 8)
    first_row = (step1 & int("1000" * 9, 2)).bit_count() & 1
    old5 = (step1 >> 4 * (9 - 5)) & 15
    column5 = select_candidate(0, 1, (old5 >> 3) ^ first_row)
    assert column5 == 0b0111
    step2 = step1 ^ (old5 ^ column5) << 4 * (9 - 5)
    assert step2 == out.codeword


# ---------------------------------------------------------------------------
# every branch, planted on known codewords

def test_branch_error_table_is_complete():
    assert {b for b, _ in BRANCH_ERRORS} == set(BRANCHES)
    assert len(BRANCHES) == 14


@pytest.mark.parametrize("code_id", BINARY_IDS)
def test_all_branches_recover_planted_errors(code_id, contexts):
    ctx = contexts[code_id]
    rng = random.Random(1000 + ctx.n)
    codewords = [0] + [ctx.binary_code.encode(rng.getrandbits(
        ctx.binary_code.k)) for _ in range(3)]
    for c in codewords:
        for branch, errors in BRANCH_ERRORS:
            received = plant(ctx, c, errors)
            out = decode(ctx, received)
            assert out.ok, (branch, errors)
            assert out.trace.branch == branch
            assert out.codeword == c
            assert out.error == received ^ c
            assert out.trace.error_weight == out.error.bit_count()
            # corrections: the minority columns in index order, then at
            # most one other column
            cols = tuple(c for c, _, _ in out.trace.corrections)
            minority = minority_columns(out.trace.profile)
            assert cols[:len(minority)] == minority
            assert len(cols) <= len(minority) + 1


def test_decoding_is_idempotent(contexts):
    ctx = contexts["o40"]
    c = ctx.binary_code.encode(12345)
    out = decode(ctx, plant(ctx, c, [(2, 0b0100), (5, 0b0010), (9, 0b1000)]))
    again = decode(ctx, out.codeword)
    assert again.ok and again.trace.branch == "a.i"
    assert again.codeword == out.codeword and again.error == 0


# ---------------------------------------------------------------------------
# failure paths

def test_four_parity_violations_fail(contexts):
    ctx = contexts["o36"]
    received = plant(ctx, 0, [(i, 0b1000) for i in (1, 2, 3, 4)])
    out = decode(ctx, received)
    assert not out.ok and out.reason == FAIL_PARITY


def test_parity_tie_fails(contexts):
    ctx = contexts["o40"]   # m = 10: five odd columns tie five even ones
    received = plant(ctx, 0, [(i, 0b0100) for i in (1, 2, 3, 4, 5)])
    out = decode(ctx, received)
    assert not out.ok and out.reason == FAIL_PARITY


def test_undecomposable_syndrome_fails(contexts):
    ctx = contexts["o36"]
    received = plant(ctx, 0, [(2, 0b0110), (5, 0b0110)])
    out = decode(ctx, received)
    assert not out.ok and out.reason == FAIL_UNCORRECTABLE


def test_inconsistent_first_row_fails(contexts):
    ctx = contexts["o36"]
    # one full column of errors: clean parities and syndrome, odd first row
    out = decode(ctx, plant(ctx, 0, [(4, 0b1111)]))
    assert not out.ok and out.reason == FAIL_UNCORRECTABLE


def test_contradicted_delta_fails(contexts):
    ctx = contexts["o36"]
    # shaped like two minority-column repairs, but the extra full column
    # makes the first-row parity contradict the required odd delta
    received = plant(ctx, 0, [(4, 0b0100), (9, 0b1000), (1, 0b1111)])
    out = decode(ctx, received)
    assert not out.ok and out.reason == FAIL_UNCORRECTABLE


@pytest.mark.parametrize("variant", Variant)
def test_short_code_keeps_the_minority_entry(variant):
    # at m = 5 a set of three columns and its complement, the minority,
    # share one slot: the pair's entry must be the one kept there, so
    # every error of weight <= 2 on this [20, 7, 5] code, from the first
    # five columns of c4-9's H, decodes
    h = [row[:5] for row in c4_9().parity_check]
    basis = [y for y in itertools.product(gf4.ELEMENTS, repeat=5)
             if any(y) and not any(gf4.plain_inner(y, r) for r in h)]
    ctx = DecoderContext(QuaternaryCode("c4-5", basis[:1], h), variant)
    code = ctx.binary_code
    assert (code.n, code.k, code.min_distance()) == (20, 7, 5)
    for c in (0, code.encode(0b1011001)):
        for w in range(3):
            for positions in itertools.combinations(range(code.n), w):
                out = decode(ctx, c ^ sum(1 << q for q in positions))
                assert out.ok and out.codeword == c


def test_oversized_word_rejected(contexts):
    # the range is checked on either path: by the syndrome read for bit 36
    # over a clean word (p = 0), by the parity refusal over a refused one
    # (p = 4), and a negative int
    ctx = contexts["o36"]
    refused = int("0001" * 4, 2)
    assert decode(ctx, refused).reason == FAIL_PARITY
    for word in (1 << 36, 1 << 36 | refused, -1):
        with pytest.raises(ValueError):
            decode(ctx, word)


# ---------------------------------------------------------------------------
# the syndrome read in place

@pytest.mark.parametrize("code_id", BINARY_IDS + ("m11", "m16"))
def test_syndrome_packed_matches_the_syndrome(contexts, code_id):
    # five tables read in place for the four codes; n = 44 and 64 call
    # ``syndrome``, which loops over six and eight
    if code_id in contexts:
        ctx = contexts[code_id]
    else:
        m = int(code_id[1:])
        ctx = DecoderContext(systematic_c4(f"cap-{m}", cap_columns()[:m]),
                             Variant.O)
    code = ctx.binary_code
    rng = random.Random(ctx.n)
    ones = (1 << ctx.n) - 1
    words = [0, ones, int.from_bytes(b"\xff\x00" * 4, "little") & ones] \
        + [rng.getrandbits(ctx.n) for _ in range(300)]
    for word in words:
        assert ctx.syndrome_packed(word) == code.syndrome(word) \
            == check_parities(code, word)


def test_dependent_columns_of_h_are_refused():
    # c4-10's H with column 10 replaced by column 1 + column 2 or by
    # w column 1, and an m = 5 code with H_2 = w H_1: no cap, so the
    # quaternary code itself is refused, naming the dependent columns, a
    # pair as a pair though triples holding it come first in
    # ``combinations`` order; with no code there is no binary code (the
    # first would be a [40,22,6] code) and no decoder context
    h = list(zip(*c4_10().parity_check))[:9]
    plane = [*h, tuple(a ^ b for a, b in zip(h[0], h[1]))]
    line = [*h, gf4.scale(gf4.OMEGA, h[0])]
    for name, columns, named in (("H_10 = H_1 + H_2", plane, "1, 2, 10"),
                                 ("H_10 = w H_1", line, "1, 10")):
        with pytest.raises(ValueError, match=re.escape(
                f"{name}: columns {named} of H are dependent")):
            systematic_c4(name, columns)
    with pytest.raises(ValueError, match=re.escape(
            "H_2 = w H_1: columns 1, 2 of H are dependent")):
        QuaternaryCode("H_2 = w H_1", [(gf4.OMEGA, 1, 0, 0, 0)],
                       [(1, gf4.OMEGA, 0, 0, 0), (0, 0, 1, 0, 0),
                        (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])


@pytest.mark.parametrize("code_id, bits", [
    ("o36", (36, 37, 39, 40, 45)), ("e40", (40, 41, 45, 63, 64))])
def test_in_place_reads_reject_words_outside_the_length(contexts, code_id,
                                                         bits):
    # bits 36..39 of a 36-bit word still fit the five bytes the tables
    # read, so each site checks the range itself
    ctx = contexts[code_id]
    code = ctx.binary_code
    table = CosetTable(code)
    c = code.encode(12345)
    for word in [1 << b | c for b in bits] + [1 << bits[0], -1, -c]:
        assert word not in code
        with pytest.raises(ValueError, match=f"{ctx.n} bits"):
            ctx.syndrome_packed(word)
        with pytest.raises(ValueError, match=f"{ctx.n} bits"):
            table.decode(word)


def test_decode_and_oracle_call_no_syndrome(contexts, monkeypatch):
    # once the contexts and leader tables are built, neither decode nor
    # the oracle calls ``syndrome``; decode reads membership once per
    # repaired word to decide the owed first-row flip, and not after it
    rng = random.Random(2021)
    samples = []
    for code_id in BINARY_IDS:
        ctx = contexts[code_id]
        code = ctx.binary_code
        words = []
        for _ in range(400):
            word = code.encode(rng.getrandbits(code.k))
            for b in range(ctx.n):
                if rng.random() < 0.04:     # BSC(0.04)
                    word ^= 1 << b
            words.append(word)
        samples.append((ctx, CosetTable(code).decode, words))
    calls = Counter()
    syndrome = BinaryLinearCode.syndrome
    contains = BinaryLinearCode.__contains__

    def counted_syndrome(code, word):
        calls["syndrome"] += 1
        return syndrome(code, word)

    def counted_contains(code, word):
        calls["in"] += 1
        return contains(code, word)

    monkeypatch.setattr(BinaryLinearCode, "syndrome", counted_syndrome)
    monkeypatch.setattr(BinaryLinearCode, "__contains__", counted_contains)
    decoded = Counter()
    for ctx, oracle, words in samples:
        for word in words:
            before = calls["in"]
            out = decode(ctx, word)
            reads = calls["in"] - before
            assert (out.codeword if out.ok else None) == oracle(word)
            decoded[out.ok] += 1
            if out.ok:
                assert reads == 1
            elif out.reason == FAIL_PARITY:
                assert reads == 0
            else:
                assert reads <= 1
    assert decoded[True] > 1000 and decoded[False] > 0
    assert calls["syndrome"] == 0


# ---------------------------------------------------------------------------
# o36 against the coset-leader oracle

@pytest.fixture(scope="module")
def oracle36(contexts):
    return CosetTable(contexts["o36"].binary_code)


def test_decoder_agrees_with_oracle_on_random_words(contexts, oracle36):
    ctx = contexts["o36"]
    rng = random.Random(99)
    hits = 0
    for _ in range(300):
        word = rng.getrandbits(36)
        out = decode(ctx, word)
        nearest = oracle36.decode(word)
        assert out.ok == (nearest is not None)
        if out.ok:
            hits += 1
            assert out.codeword == nearest
    # random words land within distance 3 only rarely; both sides agree
    assert hits < 50


def test_beyond_radius_word_fails_both_ways(contexts, oracle36):
    ctx = contexts["o36"]
    word = plant(ctx, 0, [(1, 0b1111)])    # distance 4 from the zero word
    assert not decode(ctx, word).ok
    assert oracle36.decode(word) is None


# ---------------------------------------------------------------------------
# randomised recovery property

@given(st.data())
def test_random_error_recovery(data):
    code_id = data.draw(st.sampled_from(BINARY_IDS))
    ctx = _context(code_id)
    code = ctx.binary_code
    message = data.draw(st.integers(min_value=0,
                                    max_value=(1 << code.k) - 1))
    positions = data.draw(st.lists(
        st.integers(min_value=0, max_value=code.n - 1),
        unique=True, max_size=3))
    c = code.encode(message)
    error = sum(1 << pos for pos in positions)
    out = decode(ctx, c ^ error)
    assert out.ok
    assert out.codeword == c
    assert out.error == error
    assert out.trace.error_weight == len(positions)


# ---------------------------------------------------------------------------
# equivariance: adding a codeword moves the answer by that codeword

@functools.lru_cache(maxsize=None)
def _odd_codeword(code_id: str) -> int:
    """A codeword whose columns all have odd parity."""
    ctx = _context(code_id)
    return next(g for g in ctx.binary_code.generator
                if (g & 15).bit_count() & 1)


@given(st.data())
def test_decode_commutes_with_codeword_shift(data):
    code_id = data.draw(st.sampled_from(BINARY_IDS))
    ctx = _context(code_id)
    code = ctx.binary_code
    # both column-parity classes: all-even and all-odd columns
    c = code.encode(data.draw(st.integers(0, (1 << code.k) - 1)))
    if (c & 15).bit_count() & 1 != data.draw(st.integers(0, 1)):
        c ^= _odd_codeword(code_id)
    # near a codeword (weights past 3 give refusals) or anywhere at all
    near = code.encode(data.draw(st.integers(0, (1 << code.k) - 1)))
    positions = data.draw(st.lists(st.integers(0, code.n - 1), unique=True,
                                   max_size=5))
    y = data.draw(st.one_of(
        st.just(near ^ sum(1 << pos for pos in positions)),
        st.integers(0, (1 << code.n) - 1)))
    base, shifted = decode(ctx, y), decode(ctx, y ^ c)
    assert (shifted.ok, shifted.reason) == (base.ok, base.reason)
    if base.ok:
        assert shifted.codeword == base.codeword ^ c
        assert shifted.error == base.error
        assert shifted.trace.branch == base.trace.branch
        assert shifted.trace.syndrome == base.trace.syndrome
        assert shifted.trace.profile.p == base.trace.profile.p


def test_every_shifted_coset_keeps_its_outcome_hash(contexts):
    # the equivalence check of a change to decode, kept with its seed:
    # every coset representative of the four codes, shifted by a codeword
    # from one random.Random(0) stream, hashed over repr((ok, codeword,
    # error, reason, trace)) as criterion 10 hashes the unshifted ones
    rng = random.Random(0)
    digest = hashlib.sha256()
    words = 0
    for code_id in BINARY_IDS:
        ctx = contexts[code_id]
        code = ctx.binary_code
        for y in coset_representatives(code):
            out = decode(ctx, y ^ code.encode(rng.getrandbits(code.k)))
            digest.update(repr((out.ok, out.codeword, out.error, out.reason,
                                out.trace)).encode())
            words += 1
    assert words == 786_432
    assert digest.hexdigest() == SHIFTED_COSET_OUTCOMES_SHA256


# ---------------------------------------------------------------------------
# the outcome contract

OUTCOME_FIELDS = ("ok", "codeword", "error", "trace", "reason")


@pytest.mark.parametrize("errors, reason", [
    ([(i, 0b1000) for i in (1, 2, 3, 4)], FAIL_PARITY),
    ([(2, 0b0110), (5, 0b0110)], FAIL_UNCORRECTABLE),
])
def test_refusals_are_shared_and_read_only(contexts, errors, reason):
    ctx = contexts["o36"]
    out = decode(ctx, plant(ctx, 0, errors))
    again = decode(ctx, plant(ctx, ctx.binary_code.encode(777), errors))
    assert again is out
    assert (out.ok, out.codeword, out.error, out.trace, out.reason) \
        == (False, None, None, None, reason)
    for name in OUTCOME_FIELDS:
        with pytest.raises(AttributeError):
            setattr(out, name, 1)
    assert out.reason == reason


def test_outcome_and_trace_are_read_only(contexts):
    ctx = contexts["e40"]
    out = decode(ctx, plant(ctx, 0, [(2, 0b0100), (5, 0b0010)]))
    assert out.ok
    trace = out.trace
    for name in OUTCOME_FIELDS:
        with pytest.raises(AttributeError):
            setattr(out, name, None)
    for name in trace._fields:
        with pytest.raises(AttributeError):
            setattr(trace, name, None)
    assert out.trace == trace and out.trace.branch == "c.iii"


def test_trace_reads_agree(contexts):
    ctx = contexts["o40"]
    received = plant(ctx, 0, [(3, 0b0010), (7, 0b1100)])
    first, second = decode(ctx, received), decode(ctx, received)
    assert first.trace == first.trace == second.trace
    assert first == second and hash(first) == hash(second)


def test_outcome_constructs_by_keyword():
    out = DecodeOutcome(ok=False, reason=FAIL_UNCORRECTABLE)
    assert (out.ok, out.codeword, out.error, out.trace, out.reason) \
        == (False, None, None, None, FAIL_UNCORRECTABLE)
    assert out == DecodeOutcome(False, reason=FAIL_UNCORRECTABLE)
    assert repr(out) == ("DecodeOutcome(ok=False, codeword=None, error=None,"
                         " trace=None, reason='uncorrectable')")


def _three_outcomes(ctx):
    """A success and the two shared refusals."""
    return [decode(ctx, plant(ctx, 0, errors)) for errors in (
        [(2, 0b0100), (5, 0b0010)],
        [(i, 0b1000) for i in (1, 2, 3, 4)],
        [(2, 0b0110), (5, 0b0110)])]


def test_outcomes_round_trip_through_pickle_and_copy(contexts):
    outcomes = _three_outcomes(contexts["o40"])
    assert [out.reason for out in outcomes] \
        == [None, FAIL_PARITY, FAIL_UNCORRECTABLE]
    for out in outcomes:
        for again in (pickle.loads(pickle.dumps(out)), copy.copy(out),
                      copy.deepcopy(out)):
            assert type(again) is DecodeOutcome
            assert again == out and hash(again) == hash(out)
            assert repr(again) == repr(out)


def test_outcome_repr_and_hash_are_of_the_five_fields(contexts):
    ctx = contexts["o40"]
    out = _three_outcomes(ctx)[0]
    fields = (out.ok, out.codeword, out.error, out.trace, out.reason)
    assert fields[:3] == (True, 0, plant(ctx, 0, [(2, 0b0100), (5, 0b0010)]))
    assert repr(out) == ("DecodeOutcome(ok=True, codeword=0, error={!r}, "
                         "trace={!r}, reason=None)".format(*fields[2:4]))
    # the hash is the six items', m and s8 being the trace's
    assert tuple(out) == (*fields[:3], None, ctx.m, out.s8)
    assert out.trace.syndrome == gf4.unpack(out.s8, 4)
    assert hash(out) == hash(tuple(out))
    with pytest.raises(AttributeError):
        out.note = "no new attribute either"


def test_outcomes_compare_by_their_fields_only(contexts):
    # an outcome built from the six items equals the decoder's, as does
    # the plain tuple of them, and != agrees; outcomes order like tuples
    out, refused, _ = _three_outcomes(contexts["e36"])
    same = DecodeOutcome(*out)
    assert same == out and not same != out and hash(same) == hash(out)
    assert out == tuple(out) and same.trace == out.trace
    assert out != refused and not out == refused
    assert refused < out and (False,) < refused < (True,)


@pytest.mark.parametrize("code", [c4_9(), c4_10()], ids=lambda c: c.name)
def test_outcomes_are_equal_exactly_when_their_fields_are(code):
    # the O and E outcomes of every error of weight <= 2 on the zero word:
    # two outcomes compare equal exactly when their five public fields do,
    # and equal outcomes hash alike
    def fields(out):
        return (out.ok, out.codeword, out.error, out.trace, out.reason)

    contexts = [DecoderContext(code, variant) for variant in Variant]
    n = contexts[0].n
    by_fields = {}
    for error in [0, *(1 << i for i in range(n)),
                  *(1 << i | 1 << j for i, j in
                    itertools.combinations(range(n), 2))]:
        o, e = (decode(ctx, error) for ctx in contexts)
        assert (o == e) == (fields(o) == fields(e))
        for out in (o, e):
            first = by_fields.setdefault(fields(out), out)
            assert first == out and hash(first) == hash(out)
    outcomes = set(by_fields.values())
    assert len(outcomes) == len(by_fields) == 1 + n + n * (n - 1) // 2


# ---------------------------------------------------------------------------
# decoder state

@pytest.mark.parametrize("code_id, values", [
    ("o36", 1 + 9 + 36 + 84 + 1), ("e36", 1 + 9 + 36 + 84 + 1),
    ("o40", 1 + 10 + 45 + 120 + 1), ("e40", 1 + 10 + 45 + 120 + 1)])
def test_state_is_one_entry_per_minority_set(code_id, values):
    # one slot per parity pattern up to complement: the entry of each
    # minority set of at most three columns, and None in every slot of a
    # pattern with p > 3 or a tie, which decode refuses before reading it;
    # decoding every pattern leaves the table as it was built
    ctx = make_context(code_id)
    for subset in range(1 << ctx.m):
        decode(ctx, sum(1 << 4 * i for i in range(ctx.m) if subset >> i & 1))
    assert len(ctx._profiles) == 1 << ctx.m - 1
    assert len({id(info) for info in ctx._profiles}) == values
    filled = [info for info in ctx._profiles if info is not None]
    assert len({id(info) for info in filled}) == len(filled) == values - 1
    # each minority set's entry holds its solve table, the repairs its
    # byte picks and the column that takes an owed flip: no field depends
    # on the variant, so the other variant's context of the same code
    # holds the one entry list
    other = make_context(("e" if code_id[0] == "o" else "o") + code_id[1:])
    assert other._profiles is ctx._profiles
    m, columns = ctx.m, range(1, ctx.m + 1)
    entries = {minority: ctx._profiles[entry_slot(m, minority)]
               for p in range(4)
               for minority in itertools.combinations(columns, p)}
    # a single column's entry holds that column's odd repairs as its c,
    # and every entry of p <= 1 the empty set's even repairs and masks
    odd = {col: entries[col,][5] for col in columns}
    for minority, entry in entries.items():
        p = len(minority)
        _, _, _, a, b, c, last = entry
        assert entry[:2] == (m, p)
        assert last == (0b1111 << 4 * (m - minority[0]) if p == 1 else 0)
        if p == 2:
            assert (a, b, c) == (*(odd[col] for col in minority), (0,))
        elif p == 3:
            assert (a, b, c) == tuple(odd[col] for col in minority)
        else:
            assert a is entries[()][3] and b is entries[()][4]
            assert p or c == (0,)


def _checked_repairs(ctx: DecoderContext) -> tuple[int, int]:
    """The decoder checked by check row, not by word: for each filled slot
    and each byte s8 that its solve table solves, the repair built as
    decode builds it has the syndrome slot << 8 | s8 below the last check
    row and weighs at most 3, and the column that takes an owed first-row
    flip meets the last check row alone and keeps the weight at most 3.
    So every word that decode repairs is a codeword within distance 3 or,
    when its one membership read says otherwise, becomes one by the flip.
    Returns the number of solvable (entry, byte) pairs and of those with
    a column to take the flip."""
    syndrome = ctx.binary_code.syndrome
    top = 1 << ctx.n - ctx.binary_code.k - 1
    pairs = flips = 0
    for slot, entry in enumerate(ctx._profiles):
        if entry is None:
            continue
        _, p, table, a, b, c, last = entry
        assert p < 2 or last == 0
        for s8, code in enumerate(table):
            if code == UNSOLVABLE:
                continue
            if p < 2:
                diff = a[code >> 2] | c[code & 3]
                owed = b[code >> 2] or last
            else:
                diff = a[code >> 4] | b[code >> 2 & 3] | c[code & 3]
                owed = last
            assert syndrome(diff) & top - 1 == slot << 8 | s8
            assert diff.bit_count() <= 3
            if owed:
                assert syndrome(owed) == top
                assert (diff ^ owed).bit_count() <= 3
                flips += 1
            pairs += 1
    return pairs, flips


def _errors_up_to_3(n: int) -> int:
    return sum(math.comb(n, w) for w in range(4))


def test_every_solvable_byte_repairs_to_a_codeword(contexts):
    # each solvable pair corrects one error of weight <= 3, and each with a
    # flip column one more, so together they cover every such error once
    checked = 0
    for code_id in BINARY_IDS:
        ctx = contexts[code_id]
        pairs, flips = _checked_repairs(ctx)
        assert pairs + flips == _errors_up_to_3(ctx.n)
        checked += pairs
    assert checked == 32862


# solvable (entry, byte) pairs of the greedy caps, by m, in either variant
CAP_SOLVABLE_PAIRS = {11: 12838, 12: 16805, 13: 21516, 14: 27035,
                      15: 33426, 16: 40753}


@pytest.mark.parametrize("variant", Variant)
@pytest.mark.parametrize("m", sorted(CAP_SOLVABLE_PAIRS))
def test_every_solvable_byte_repairs_to_a_codeword_on_caps(m, variant):
    # the same invariant past the paper's codes: the greedy cap's first m
    # columns, n = 44 to 64
    ctx = DecoderContext(systematic_c4(f"cap-{m}", cap_columns()[:m]),
                         variant)
    pairs, flips = _checked_repairs(ctx)
    assert pairs == CAP_SOLVABLE_PAIRS[m]
    assert pairs + flips == _errors_up_to_3(ctx.n)


@pytest.mark.parametrize("code_id", BINARY_IDS)
def test_repairs_are_positioned_candidates(code_id):
    # column c's repairs with coefficient e, read from its single-column
    # entry, are select_candidate's nibbles at the column's place in the
    # word, and its mask is that place's 1111
    ctx = _context(code_id)
    even = []
    for c in range(1, ctx.m + 1):
        at = 4 * (ctx.m - c)
        odd = ctx._profiles[entry_slot(ctx.m, (c,))][5]
        assert odd == tuple(select_candidate(e, 1, not e) << at
                            for e in gf4.ELEMENTS)
        even += [(select_candidate(e, 0, 0) << at, 0b1111 << at)
                 for e in gf4.NONZERO]
    # the even repairs and masks of the empty set's entry by 3 (c - 1) + e,
    # as a solve-table byte numbers an extra column and its coefficient
    _, _, _, repairs, masks, _, _ = ctx._profiles[0]
    assert list(zip(repairs, masks)) == [(0, 0)] + even
