from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import tracemalloc
from types import SimpleNamespace

import pytest

from projcode import cli, gf4
from projcode.bitlin import (BinaryLinearCode, CosetTable, format_bits,
                             parse_matrix)
from projcode.cli import main
from projcode.decoder import decode
from projcode.projection import parity_profile, project
from projcode.quaternary import c4_9, parse_gf4_matrix

from conftest import code_equal, run_cli, word_from_rows
from golden import (CLI_DISTRIBUTION_SHA256, CLI_TRACE_E40_EXAMPLE_4,
                    CLI_TRACE_O36_REFUSED, DECODE_EXAMPLES, QDIST_9,
                    REFUSED_O36_WORD, WDIST_O36)


def run(capsys, *argv):
    rv = main(list(argv))
    captured = capsys.readouterr()
    return rv, captured.out, captured.err


def example_word(num: int) -> str:
    ex = DECODE_EXAMPLES[num]
    n = 4 * len(ex["rows"][0].split())
    return format_bits(word_from_rows(ex["rows"]), n)


# ---------------------------------------------------------------------------
# gen / wdist / mindist

def test_gen_binary_round_trip(capsys, contexts):
    rv, out, _ = run(capsys, "gen", "o36")
    assert rv == 0
    assert out.startswith("# code=o36 n=36 k=19\n")
    rows, n = parse_matrix(out)     # the # header line is skipped
    assert code_equal(BinaryLinearCode(rows, n), contexts["o36"].binary_code)


def test_gen_binary_json(capsys):
    rv, out, _ = run(capsys, "gen", "e40", "--json")
    assert rv == 0
    payload = json.loads(out)
    assert (payload["code"], payload["n"], payload["k"]) == ("e40", 40, 22)
    assert len(payload["rows"]) == 22
    assert all(len(r) == 40 for r in payload["rows"])


def test_gen_quaternary(capsys):
    rv, out, _ = run(capsys, "gen", "c4-9", "--mindist")
    assert rv == 0
    header, body = out.split("\n", 1)
    assert header == "# code=c4-9 m=9 r=10 codewords=2^10 d=4"
    assert parse_gf4_matrix(body) == list(c4_9().generators)


def test_wdist_binary_json(capsys):
    rv, out, _ = run(capsys, "wdist", "o36", "--json")
    assert rv == 0
    payload = json.loads(out)
    assert payload["weights"] == {str(i): a for i, a in WDIST_O36.items()}


def test_wdist_quaternary_text(capsys):
    rv, out, _ = run(capsys, "wdist", "c4-9")
    assert rv == 0
    lines = out.strip().splitlines()
    assert lines == [f"A_{i} = {a}" for i, a in sorted(QDIST_9.items())]


def test_mindist(capsys):
    rv, out, _ = run(capsys, "mindist", "e40", "--json")
    assert rv == 0
    assert json.loads(out) == {"code": "e40", "d": 8}
    rv, out, _ = run(capsys, "mindist", "c4-10")
    assert rv == 0
    assert out.strip() == "d = 4"


def test_distribution_outputs_are_pinned(capsys):
    # every byte that wdist, mindist and gen --mindist print for the six
    # codes, whichever route computes the distributions
    outputs = []
    for code_id in ("o36", "e36", "o40", "e40", "c4-9", "c4-10"):
        for argv in (["wdist", code_id], ["wdist", code_id, "--json"],
                     ["mindist", code_id, "--json"],
                     ["gen", code_id, "--mindist"]):
            rv, out, _ = run(capsys, *argv)
            assert rv == 0
            outputs.append(out)
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == CLI_DISTRIBUTION_SHA256


# ---------------------------------------------------------------------------
# encode

def test_encode_zero_and_unit(capsys, contexts):
    rv, out, _ = run(capsys, "encode", "o36", "0" * 19)
    assert rv == 0
    assert out.strip() == "0" * 36
    rv, out, _ = run(capsys, "encode", "o36", "1" + "0" * 18, "--json")
    payload = json.loads(out)
    assert payload["codeword"] == format_bits(
        contexts["o36"].binary_code.generator[0], 36)


def test_encode_rejects_wrong_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encode", "o36", "10101"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# decode

def test_decode_success_plain(capsys):
    ex = DECODE_EXAMPLES[1]
    fixed = word_from_rows(ex["rows"])
    for col, old, new in ex["corrections"]:
        fixed ^= (old ^ new) << 4 * (9 - col)
    rv, out, err = run(capsys, "decode", "o36", example_word(1))
    assert rv == 0
    assert out.strip() == format_bits(fixed, 36)
    assert err == ""


def test_decode_success_json_with_oracle(capsys):
    rv, out, _ = run(capsys, "decode", "o36", example_word(1),
                     "--json", "--oracle")
    assert rv == 0
    payload = json.loads(out)
    assert payload["branch"] == "c.ii"
    assert payload["syndrome"] == "w w W w"
    assert payload["p"] == 2
    assert payload["error_positions"] == [19, 21]
    assert payload["oracle"] == payload["decoded"]
    assert payload["oracle_agrees"] is True


def test_decode_accepts_spaced_input(capsys):
    word = example_word(3)
    spaced = " ".join(word[i:i + 4] for i in range(0, 40, 4))
    rv, out, _ = run(capsys, "decode", "o40", spaced, "--json")
    assert rv == 0
    assert json.loads(out)["branch"] == "a.ii"


def test_decode_trace_rendering(capsys):
    rv, out, _ = run(capsys, "decode", "e40", example_word(4), "--trace")
    assert rv == 0
    assert "received:" in out and "decoded:" in out
    assert "branch d.iii" in out
    assert "p = 3" in out
    assert out.count("*") == 3      # three corrected bits marked


@pytest.mark.parametrize("code_id, word, rv_expected, lines", [
    ("e40", example_word(4), 0, CLI_TRACE_E40_EXAMPLE_4),
    ("o36", REFUSED_O36_WORD, 1, CLI_TRACE_O36_REFUSED),
], ids=["e40-example-4", "o36-refused"])
def test_decode_trace_golden_output(capsys, code_id, word, rv_expected,
                                    lines):
    rv, out, err = run(capsys, "decode", code_id, word, "--trace")
    assert rv == rv_expected
    assert out == "\n".join(lines) + "\n"
    assert err == ""


def test_decode_failure(capsys):
    word = "1111" + "0" * 32        # distance 4 from the zero codeword
    rv, out, err = run(capsys, "decode", "o36", word)
    assert rv == 1
    assert out == ""
    assert "decode failed: uncorrectable" in err
    rv, out, _ = run(capsys, "decode", "o36", word, "--json", "--oracle")
    assert rv == 1
    payload = json.loads(out)
    assert payload["decoded"] is None
    assert payload["branch"] is None
    assert payload["oracle"] is None
    assert payload["error_positions"] == []


def test_decode_failure_reports_syndrome_and_p(capsys, contexts):
    # weight 4 in two odd columns: p = 2 and an unsolvable syndrome
    word = REFUSED_O36_WORD
    rv, out, _ = run(capsys, "decode", "o36", word, "--json")
    assert rv == 1
    payload = json.loads(out)
    assert (payload["syndrome"], payload["p"]) == ("w 1 w 1", 2)
    # the decoder's packed syndrome equals the projected word's syndrome
    assert gf4.pack(gf4.parse_vector(payload["syndrome"])) \
        == contexts["o36"].c4.syndrome(project(int(word, 2), 9))
    assert payload["p"] == parity_profile(int(word, 2), 9).p


def test_decode_rejects_wrong_length(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decode", "o36", "0101"])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# exhaust

def test_exhaust_small_sweep(capsys):
    argv = ("exhaust", "o36", "--samples", "2", "--max-weight", "2",
            "--seed", "5")
    rv, out, _ = run(capsys, *argv, "--json")
    assert rv == 0
    payload = json.loads(out)
    assert payload["trials"] == 3 * (1 + 36 + 36 * 35 // 2)
    assert payload["wrong"] == 0
    assert payload["oracle_mismatches"] == 0
    assert payload["ok"] is True
    assert out == ('{"code": "o36", "max_weight": 2, "samples": 2, '
                   '"seed": 5, "trials": 2001, "wrong": 0, '
                   '"oracle_mismatches": 0, "ok": true}\n')
    rv, out, _ = run(capsys, *argv)
    assert rv == 0
    assert out == ("2001 decodes over 3 codewords, errors up to weight 2: "
                   "2001 correct, 0 wrong, 0 oracle mismatches\n")


def test_error_patterns_are_position_combinations():
    for max_weight in range(4):
        expected = [sum(1 << c for c in positions)
                    for w in range(max_weight + 1)
                    for positions in itertools.combinations(range(36), w)]
        assert list(cli._error_patterns(36, max_weight)) == expected


def test_exhaust_memory_does_not_grow_with_the_patterns(capsys):
    # o40 has 10,701 error patterns of weight <= 3: held in a list they
    # take about 400 KB, while the whole call without them, its decoder
    # context included, takes about 140 KB
    argv = ["exhaust", "o40", "--samples", "0", "--no-oracle"]
    main(argv)          # first call: the quaternary code and lazy imports
    capsys.readouterr()
    tracemalloc.start()
    try:
        rv = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rv == 0
    assert "10701 correct, 0 wrong" in capsys.readouterr().out
    assert peak < 300 * 1024


@pytest.mark.parametrize("flags, bad_decode, bad_oracle, wrong, mismatches", [
    ((), 5, 9, 1, 3),
    (("--no-oracle",), 5, None, 1, None),
    ((), None, 9, 0, 2),
], ids=["both", "decoder-only", "oracle-only"])
def test_exhaust_counts_failures(capsys, monkeypatch, contexts, flags,
                                 bad_decode, bad_oracle, wrong, mismatches):
    # the decoder never fails, so stubs make the failures: the decoder is
    # wrong on its call bad_decode, and the oracle, read once per pattern,
    # answers None on its call bad_oracle, so both codewords of that
    # pattern mismatch; the oracle's true answer also disagrees with the
    # wrong decode
    received, oracle_calls = [], []
    real_decode = cli.decode

    def decode(ctx, y):
        received.append(y)
        outcome = real_decode(ctx, y)
        if len(received) == bad_decode:
            return SimpleNamespace(codeword=outcome.codeword ^ 1)
        return outcome

    class Oracle(CosetTable):
        def decode(self, y):
            oracle_calls.append(y)
            if len(oracle_calls) == bad_oracle:
                return None
            return super().decode(y)

    monkeypatch.setattr(cli, "decode", decode)
    monkeypatch.setattr(cli, "CosetTable", Oracle)
    argv = ("exhaust", "o36", "--samples", "1", "--max-weight", "1",
            "--seed", "5", *flags)
    rv, out, _ = run(capsys, *argv, "--json")
    assert rv == 1
    assert json.loads(out) == {
        "code": "o36", "max_weight": 1, "samples": 1, "seed": 5,
        "trials": 74, "wrong": wrong, "oracle_mismatches": mismatches,
        "ok": False}
    # every received word is a sampled codeword plus a pattern
    code = contexts["o36"].binary_code
    words = [0, code.encode(cli._trial_rng(5, 0).getrandbits(code.k))]
    assert received == [c ^ e for e in [0, *(1 << b for b in range(36))]
                        for c in words]
    received.clear()
    oracle_calls.clear()
    rv, out, _ = run(capsys, *argv)
    assert rv == 1
    assert out == (f"74 decodes over 2 codewords, errors up to weight 1: "
                   f"{74 - wrong} correct, {wrong} wrong"
                   + ("" if mismatches is None
                      else f", {mismatches} oracle mismatches") + "\n")


def test_exhaust_reads_the_oracle_once_per_pattern(capsys, monkeypatch):
    received, oracle_calls = [], []
    real_decode = cli.decode

    def decode(ctx, y):
        received.append(y)
        return real_decode(ctx, y)

    class Oracle(CosetTable):
        def decode(self, y):
            oracle_calls.append(y)
            return super().decode(y)

    monkeypatch.setattr(cli, "decode", decode)
    monkeypatch.setattr(cli, "CosetTable", Oracle)
    rv, out, _ = run(capsys, "exhaust", "o36", "--samples", "2",
                     "--max-weight", "2", "--seed", "5", "--json")
    assert rv == 0
    patterns = list(cli._error_patterns(36, 2))
    assert oracle_calls == patterns
    assert len(received) == json.loads(out)["trials"] == 3 * len(patterns)


class DamagedTable(CosetTable):
    """Coset leaders with wrong answers on some cosets: no leader for one
    syndrome in five, and a leader moved by a nonzero codeword for
    another; each answer still depends on the word's coset alone."""

    def __init__(self, code):
        super().__init__(code)
        for s in list(self.leaders):
            if s % 5 == 1:
                del self.leaders[s]
            elif s % 5 == 2:
                self.leaders[s] ^= code.generator[0]


@pytest.mark.parametrize("table", [CosetTable, DamagedTable],
                         ids=["oracle", "damaged-oracle"])
@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("code_id, max_weight, samples", [
    ("o36", 2, 2), ("e36", 2, 2), ("o40", 2, 2), ("e40", 2, 2),
    ("o36", 3, 1),
])
def test_exhaust_matches_a_per_word_oracle(capsys, monkeypatch, contexts,
                                           table, seed, code_id, max_weight,
                                           samples):
    # the report of a sweep that asks the oracle about every word; the
    # damaged table's answers differ from coset to coset, so an answer
    # used for the wrong pattern, or a None taken for a codeword, shows
    ctx = contexts[code_id]
    code = ctx.binary_code
    oracle = table(code)
    words = [0] + [code.encode(cli._trial_rng(seed, t).getrandbits(code.k))
                   for t in range(samples)]
    trials = wrong = mismatches = 0
    for w in range(max_weight + 1):
        for positions in itertools.combinations(range(code.n), w):
            e = sum(1 << b for b in positions)
            for c in words:
                decoded = decode(ctx, c ^ e).codeword
                trials += 1
                wrong += decoded != c
                mismatches += oracle.decode(c ^ e) != decoded
    monkeypatch.setattr(cli, "CosetTable", table)
    rv, out, _ = run(capsys, "exhaust", code_id, "--max-weight",
                     str(max_weight), "--samples", str(samples),
                     "--seed", str(seed), "--json")
    ok = wrong == 0 and mismatches == 0
    assert (table is CosetTable) == ok
    assert rv == (0 if ok else 1)
    assert json.loads(out) == {
        "code": code_id, "max_weight": max_weight, "samples": samples,
        "seed": seed, "trials": trials, "wrong": wrong,
        "oracle_mismatches": mismatches, "ok": ok}


def test_zero_and_full_weights_run(capsys):
    rv, out, _ = run(capsys, "exhaust", "o36", "--samples", "2",
                     "--max-weight", "0")
    assert rv == 0
    assert out == ("3 decodes over 3 codewords, errors up to weight 0: "
                   "3 correct, 0 wrong, 0 oracle mismatches\n")
    for weight, successes in (("0", 5), ("36", 0)):
        rv, out, _ = run(capsys, "simulate", "o36", "--trials", "5",
                         "--weight", weight, "--json")
        assert rv == 0
        assert json.loads(out)["successes"] == successes


def test_exhaust_without_oracle(capsys, monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("--no-oracle built a CosetTable")

    monkeypatch.setattr(cli, "CosetTable", no_table)
    rv, out, _ = run(capsys, "exhaust", "e36", "--samples", "1",
                     "--max-weight", "1", "--json", "--no-oracle")
    assert rv == 0
    payload = json.loads(out)
    assert payload["oracle_mismatches"] is None
    assert payload["ok"] is True


# ---------------------------------------------------------------------------
# simulate

def test_simulate_weight3_always_succeeds(capsys):
    rv, out, err = run(capsys, "simulate", "o40", "--trials", "60",
                       "--weight", "3", "--seed", "11", "--json")
    assert rv == 0
    payload = json.loads(out)
    assert payload["successes"] == 60
    assert payload["failures"] == 0
    assert payload["miscorrections"] == 0
    assert "mean decode time" in err


def test_simulate_report_is_pinned(capsys):
    # the per-trial streams that make reports reproducible, and the
    # miscorrections: weight-5 errors that land within 3 of another
    # codeword
    rv, out, _ = run(capsys, "simulate", "o36", "--weight", "5",
                     "--trials", "2000", "--seed", "3", "--json")
    assert rv == 0
    assert out == ('{"code": "o36", "trials": 2000, "weight": 5, "seed": 3, '
                   '"successes": 0, "failures": 1875, '
                   '"miscorrections": 125}\n')


def test_simulate_is_deterministic(capsys):
    args = ["simulate", "e36", "--trials", "40", "--weight", "2",
            "--seed", "9", "--json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert "mean_decode_us" not in first    # timing stays out of the report


def test_simulate_weight4_never_decodes(capsys):
    # minimum distance 8: a weight-4 error can never land within 3 of a
    # codeword, so every trial must be a reported failure
    rv, out, _ = run(capsys, "simulate", "o36", "--trials", "40",
                     "--weight", "4", "--seed", "3", "--json")
    assert rv == 0
    payload = json.loads(out)
    assert payload["successes"] == 0
    assert payload["miscorrections"] == 0
    assert payload["failures"] == 40


# ---------------------------------------------------------------------------
# usage errors

def test_unknown_code_or_command(capsys):
    for argv in (["gen", "x36"], ["frobnicate", "o36"],
                 ["encode", "c4-9", "000"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "o36", "--weight", "37"], "--weight must be in 0..36"),
    (["simulate", "o40", "--weight", "-1"], "--weight must be in 0..40"),
    (["simulate", "e36", "--trials", "-3"], "--trials must be >= 0"),
    (["exhaust", "e40", "--samples", "-3"], "--samples must be >= 0"),
    # a negative seed would replay the stream of its absolute value
    (["exhaust", "o36", "--seed", "-1"], "--seed must be >= 0"),
    (["simulate", "o36", "--seed", "-1"], "--seed must be >= 0"),
    # the sweep stops at the decoder's radius
    (["exhaust", "o36", "--max-weight", "4"],
     "--max-weight: invalid choice"),
], ids=["weight-above-n", "weight-negative", "trials-negative",
        "samples-negative", "exhaust-seed-negative",
        "simulate-seed-negative", "max-weight-above-3"])
def test_out_of_range_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_closed_reader_exits_nonzero_without_traceback():
    # as in `projcode gen o36 | head -1`: the reader is gone before the
    # first write; exit 1, as for a failure
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = run_cli(["gen", "o36"], stdout=write_end,
                       stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
