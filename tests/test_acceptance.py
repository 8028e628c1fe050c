"""End-to-end acceptance checks, one test per criterion.

Each test both asserts its criterion and records a PASS/FAIL line; the
collected lines are echoed in a terminal section after the run, so the
ten verdicts are visible even with output capture on.  The full suite
is sized to finish in a few minutes, dominated by criterion 6's
exhaustive error sweep (about 7.4 million decode+oracle pairs) and
criterion 10's sweep over every coset of the four codes.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from collections import Counter

from projcode import gf4
from projcode.bitlin import BinaryLinearCode, CosetTable, parse_matrix
from projcode.decoder import BRANCHES, decode
from projcode.projection import has_projection
from projcode.quaternary import c4_9, c4_10

from conftest import (ACCEPTANCE_LINES, BINARY_IDS, BRANCH_ERRORS,
                      code_equal, enumerated_has_projection, plant,
                      word_from_rows)
from golden import (COSET_BRANCHES_O36, COSET_OUTCOMES_SHA256,
                    COSET_REFUSAL_REASONS, COSET_REFUSALS_O36,
                    DECODE_EXAMPLES, GEN_E36, GEN_E40, GEN_O36, GEN_O40,
                    QDIST_9, QDIST_10, WDIST_E36, WDIST_E40, WDIST_O36,
                    WDIST_O40, branch_counts)

EXPECTED_NK = {"o36": (36, 19), "e36": (36, 19),
               "o40": (40, 22), "e40": (40, 22)}
REFERENCE_GEN = {"o36": GEN_O36, "e36": GEN_E36,
                 "o40": GEN_O40, "e40": GEN_E40}
REFERENCE_WDIST = {"o36": WDIST_O36, "e36": WDIST_E36,
                   "o40": WDIST_O40, "e40": WDIST_E40}


def report(label: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _nonzero(dist) -> dict[int, int]:
    return {i: a for i, a in enumerate(dist) if a}


def _patterns(n: int) -> list[int]:
    pats = [0]
    for w in (1, 2, 3):
        for coords in itertools.combinations(range(n), w):
            e = 0
            for c in coords:
                e |= 1 << c
            pats.append(e)
    return pats


def test_criterion_1_parameters(contexts):
    bad = [code_id for code_id in BINARY_IDS
           if (lambda c: (c.n, c.k, c.min_distance()))
           (contexts[code_id].binary_code) != (*EXPECTED_NK[code_id], 8)]
    report("criterion 1: parameters [36,19,8] x2 and [40,22,8] x2, d from "
           "the closed-form weight distribution", not bad,
           "all four codes" if not bad else f"wrong: {bad}")


def test_criterion_2_binary_weight_distributions(contexts):
    bad = [code_id for code_id in BINARY_IDS
           if _nonzero(contexts[code_id].binary_code.weight_distribution())
           != REFERENCE_WDIST[code_id]]
    report("criterion 2: binary weight distributions match the reference "
           "tables entry for entry", not bad,
           "4 tables" if not bad else f"wrong: {bad}")


def test_criterion_3_quaternary_weight_distributions():
    ok = (_nonzero(c4_9().weight_distribution()) == QDIST_9
          and _nonzero(c4_10().weight_distribution()) == QDIST_10)
    report("criterion 3: quaternary weight distributions match the "
           "reference values", ok, "[9,5,4] and [10,6,4]")


def test_criterion_4_construction_fidelity(contexts):
    bad = []
    for code_id in BINARY_IDS:
        rows, n = parse_matrix(REFERENCE_GEN[code_id])
        if not code_equal(BinaryLinearCode(rows, n),
                          contexts[code_id].binary_code):
            bad.append(code_id)
    report("criterion 4: constructed codes span the same row spaces as "
           "the reference generator matrices", not bad,
           "4 rank checks" if not bad else f"wrong: {bad}")


def test_criterion_5_projection_property(contexts):
    # the proof enumerates every codeword; has_projection, which checks
    # only the generators, must agree with it
    bad = [code_id for code_id, ctx in contexts.items()
           if not enumerated_has_projection(ctx.binary_code, ctx.c4,
                                            ctx.variant)
           or not has_projection(ctx.binary_code, ctx.c4, ctx.variant)]
    report("criterion 5: every codeword projects into the quaternary code "
           "with uniform column parity and the variant's first-row rule, "
           "by enumeration, and the generator check agrees",
           not bad, "2^19 x2 and 2^22 x2 codewords"
           if not bad else f"wrong: {bad}")


def test_criterion_6_decoding_completeness(contexts):
    total = 0
    wrong = 0
    for idx, code_id in enumerate(BINARY_IDS):
        ctx = contexts[code_id]
        code = ctx.binary_code
        oracle = CosetTable(code).decode
        rng = random.Random(600 + idx)
        words = [0] + [code.encode(rng.getrandbits(code.k))
                       for _ in range(200)]
        patterns = _patterns(code.n)
        for c in words:
            for e in patterns:
                y = c ^ e
                out = decode(ctx, y)
                if not out.ok or out.codeword != c or oracle(y) != c:
                    wrong += 1
            total += len(patterns)
    report("criterion 6: every error of weight <= 3 on 201 codewords per "
           "code decodes to the original and agrees with the coset-leader "
           "oracle", wrong == 0, f"{total} decode+oracle pairs, {wrong} wrong")


# the syndrome of each worked example as a column combination: (column,
# coefficient) terms that must add up to the traced syndrome
SYNDROME_TERMS = {
    1: ((5, gf4.OMEGA),),
    2: ((5, gf4.OMEGA_BAR),),
    3: ((4, gf4.OMEGA_BAR),),
    4: ((8, gf4.ONE), (10, gf4.OMEGA_BAR)),
}


def test_criterion_7_golden_traces(contexts):
    bad = []
    for num, ex in DECODE_EXAMPLES.items():
        ctx = contexts[ex["code"]]
        out = decode(ctx, word_from_rows(ex["rows"]))
        expected = [0, 0, 0, 0]
        for col, coeff in SYNDROME_TERMS[num]:
            for t, h in enumerate(ctx.c4.parity_check):
                expected[t] ^= gf4._MUL[coeff][h[col - 1]]
        good = (out.ok
                and out.trace.branch == ex["branch"]
                and out.trace.syndrome == tuple(expected)
                and out.trace.syndrome
                == tuple(gf4.parse_vector(ex["syndrome"]))
                and out.trace.corrections == ex["corrections"]
                and out.trace.error_weight == ex["weight"]
                and out.trace.profile.p == ex["p"])
        if not good:
            bad.append(num)
    report("criterion 7: the four worked examples reproduce branch, "
           "syndrome, corrections and error weight exactly", not bad,
           "4 traces" if not bad else f"wrong: {bad}")


def test_criterion_8_inequivalence_evidence(contexts):
    wd = {code_id: contexts[code_id].binary_code.weight_distribution()
          for code_id in BINARY_IDS}
    ok = (wd["o36"][9], wd["e36"][9]) == (496, 528) \
        and (wd["o40"][10], wd["e40"][10]) == (6144, 6208)
    report("criterion 8: weight distributions separate the O and E codes "
           "(A_9 496 vs 528, A_10 6144 vs 6208)", ok,
           "both pairs inequivalent")


def test_criterion_9_branch_coverage(contexts):
    seen = set()
    ok = True
    for idx, code_id in enumerate(BINARY_IDS):
        ctx = contexts[code_id]
        rng = random.Random(900 + idx)
        words = [0, ctx.binary_code.encode(rng.getrandbits(
            ctx.binary_code.k))]
        for c in words:
            for branch, errors in BRANCH_ERRORS:
                out = decode(ctx, plant(ctx, c, errors))
                ok = ok and out.ok and out.trace.branch == branch
                if out.ok:
                    seen.add(out.trace.branch)
    ok = ok and seen == set(BRANCHES)
    report("criterion 9: planted error shapes hit every decoder branch",
           ok, f"{len(seen)}/{len(BRANCHES)} branches")


def _coset_representatives(code: BinaryLinearCode) -> list[int]:
    """The 2^(n-k) words supported on the non-pivot coordinates: the pivots
    are an information set, so each coset holds exactly one of them."""
    pivots = set(code._pivots)
    reps = [0]
    for c in range(code.n):
        if c not in pivots:
            bit = 1 << (code.n - 1 - c)
            reps += [r | bit for r in reps]
    return reps


def test_criterion_10_every_coset(contexts, monkeypatch):
    # decode(y ^ c) == decode(y) ^ c for every codeword c, so one word per
    # coset fixes the decoder's behaviour on all 2^n words
    bad = []
    # the final membership guard in decode: how often it runs and rejects
    guard = Counter()
    contains = BinaryLinearCode.__contains__

    def counted(code, word):
        inside = contains(code, word)
        guard[inside] += 1
        return inside

    monkeypatch.setattr(BinaryLinearCode, "__contains__", counted)
    decoded = {}
    digest = hashlib.sha256()
    for code_id in BINARY_IDS:
        ctx = contexts[code_id]
        oracle = CosetTable(ctx.binary_code).decode
        reps = _coset_representatives(ctx.binary_code)
        hits = mismatches = 0
        reasons: Counter = Counter()
        branches: Counter = Counter()
        for y in reps:
            out = decode(ctx, y)
            if (out.codeword if out.ok else None) != oracle(y):
                mismatches += 1
            if out.ok:
                hits += 1
                branches[out.trace.branch] += 1
            else:
                reasons[out.reason] += 1
            digest.update(repr((out.ok, out.codeword, out.error, out.reason,
                                out.trace)).encode())
        decoded[code_id] = hits
        expected = sum(math.comb(ctx.n, w) for w in range(4))
        if mismatches or hits != expected:
            bad.append(code_id)
        # every branch count follows its formula in m, and the formulas
        # cover each error of weight <= 3 once
        formulas = branch_counts(ctx.m)
        if branches != formulas or sum(formulas.values()) != expected:
            bad.append(f"{code_id} branches {dict(branches)}")
        if reasons != COSET_REFUSAL_REASONS[code_id]:
            bad.append(f"{code_id} refusal reasons {dict(reasons)}")
        if code_id == "o36" and (len(reps) - hits != COSET_REFUSALS_O36
                                 or dict(branches) != COSET_BRANCHES_O36):
            bad.append("o36 histogram")
    if digest.hexdigest() != COSET_OUTCOMES_SHA256:
        bad.append(f"outcome sha256 {digest.hexdigest()}")
    # it accepts every decoded word and rejects none
    if guard != {True: sum(decoded.values())}:
        bad.append(f"membership guard {dict(guard)}")
    report("criterion 10: every coset of the four codes decodes exactly as "
           "the coset-leader oracle, with the golden o36 branch table, "
           "branch counts from their formulas in m, refusal reasons and "
           "outcome hash; the final membership guard rejects no word",
           not bad, f"decoded {decoded}, o36 refused "
           f"{COSET_REFUSALS_O36}" if not bad else f"wrong: {bad}")
