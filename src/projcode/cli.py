"""Command-line front end.

Code identifiers: o36, e36, o40, e40 for the binary codes and c4-9,
c4-10 for the underlying quaternary codes.  Subcommands:

  gen       print a generator matrix (--mindist to also report d)
  wdist     weight distribution
  encode    message bits -> codeword
  decode    received word -> corrected codeword (--trace, --oracle)
  mindist   minimum distance
  exhaust   sweep all error patterns up to a weight over sampled codewords,
            cross-checked against the coset-leader decoder, which is read
            once per error pattern
  simulate  random-error trials with per-trial seeded RNG streams

Exit codes: 0 success, 1 decoding/verification failure or a reader that
closed stdout early, 2 usage error.
All randomised commands derive an independent RNG per trial from
(seed, trial index), so reports are reproducible and independent of
execution order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
import time

from . import gf4
from .bitlin import (BinaryLinearCode, CosetTable, format_bits, format_matrix,
                     parse_bits)
from .decoder import DecoderContext, decode
from .projection import Variant, construct, parity_profile, render_array
from .quaternary import QuaternaryCode, c4_9, c4_10, format_gf4_matrix

BINARY_CODES = {
    "o36": (c4_9, Variant.O),
    "e36": (c4_9, Variant.E),
    "o40": (c4_10, Variant.O),
    "e40": (c4_10, Variant.E),
}
QUAT_CODES = {"c4-9": c4_9, "c4-10": c4_10}
ALL_CODES = tuple(BINARY_CODES) + tuple(QUAT_CODES)


def _context(code_id: str) -> DecoderContext:
    factory, variant = BINARY_CODES[code_id]
    return DecoderContext(factory(), variant)


def _code(code_id: str) -> QuaternaryCode | BinaryLinearCode:
    if code_id in QUAT_CODES:
        return QUAT_CODES[code_id]()
    factory, variant = BINARY_CODES[code_id]
    return construct(factory(), variant)


def _trial_rng(seed: int, trial: int) -> random.Random:
    return random.Random((seed << 32) + trial)


def _nonnegative(parser, args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        if value < 0:
            parser.error(f"--{name} must be >= 0, got {value}")


def _bits(parser, text: str, width: int, what: str) -> int:
    """The packed int of ``text``, which must hold exactly ``width`` bits."""
    try:
        value, got = parse_bits(text)
    except ValueError as exc:
        parser.error(str(exc))
    if got != width:
        parser.error(f"{what} must be {width} bits, got {got}")
    return value


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen(args, parser) -> int:
    code = _code(args.code)
    if isinstance(code, QuaternaryCode):
        payload = {"code": args.code, "m": code.m, "r": code.r,
                   "rows": [gf4.format_vector(g, sep="")
                            for g in code.generators]}
        header = (f"# code={args.code} m={code.m} r={code.r} "
                  f"codewords=2^{code.r}")
        body = format_gf4_matrix(code.generators)
    else:
        payload = {"code": args.code, "n": code.n, "k": code.k,
                   "rows": [format_bits(r, code.n) for r in code.generator]}
        header = f"# code={args.code} n={code.n} k={code.k}"
        body = format_matrix(code.generator, code.n, group=4)
    if args.mindist:
        payload["d"] = code.min_distance()
        header += f" d={payload['d']}"
    _emit(args, payload, f"{header}\n{body}")
    return 0


def cmd_wdist(args, parser) -> int:
    code = _code(args.code)
    dist = code.weight_distribution()
    size = ({"m": code.m, "r": code.r} if isinstance(code, QuaternaryCode)
            else {"n": code.n, "k": code.k})
    payload = {"code": args.code, **size,
               "weights": {str(i): a for i, a in enumerate(dist) if a}}
    _emit(args, payload,
          "\n".join(f"A_{i} = {a}" for i, a in enumerate(dist) if a))
    return 0


def cmd_mindist(args, parser) -> int:
    d = _code(args.code).min_distance()
    _emit(args, {"code": args.code, "d": d}, f"d = {d}")
    return 0


def cmd_encode(args, parser) -> int:
    code = _code(args.code)
    msg = _bits(parser, args.message, code.k, "message")
    word = code.encode(msg)
    _emit(args, {"code": args.code, "message": format_bits(msg, code.k),
                 "codeword": format_bits(word, code.n)},
          format_bits(word, code.n))
    return 0


def cmd_decode(args, parser) -> int:
    ctx = _context(args.code)
    received = _bits(parser, args.word, ctx.n, "received word")
    outcome = decode(ctx, received)
    syndrome = gf4.format_vector(
        gf4.unpack(ctx.syndrome_packed(received) & 255, 4))
    p = parity_profile(received, ctx.m).p
    trace = outcome.trace           # None for a refusal
    branch = decoded_str = None
    positions = []
    if outcome.ok:
        branch = trace.branch
        decoded_str = format_bits(outcome.codeword, ctx.n)
        positions = [i + 1 for i in range(ctx.n)
                     if (outcome.error >> (ctx.n - 1 - i)) & 1]

    if args.trace:
        print("received:")
        print(render_array(received, ctx.m))
        if outcome.ok:
            print(f"branch {branch}; syndrome ({syndrome}); "
                  f"p = {p}; {trace.error_weight} bit(s) corrected")
            print("decoded:")
            print(render_array(outcome.codeword, ctx.m, outcome.error))
        else:
            print(f"decode failed: {outcome.reason} "
                  f"(syndrome ({syndrome}), p = {p})")

    payload = {
        "code": args.code,
        "n": ctx.n,
        "k": ctx.binary_code.k,
        "received": format_bits(received, ctx.n),
        "decoded": decoded_str,
        "error_positions": positions,
        "branch": branch,
        "syndrome": syndrome,
        "p": p,
    }
    if args.oracle:
        table = CosetTable(ctx.binary_code)
        oracle_word = table.decode(received)
        payload["oracle"] = (None if oracle_word is None
                             else format_bits(oracle_word, ctx.n))
        payload["oracle_agrees"] = oracle_word == outcome.codeword

    if args.json:
        print(json.dumps(payload))
    elif not args.trace:
        if outcome.ok:
            print(decoded_str)
        else:
            print(f"decode failed: {outcome.reason}", file=sys.stderr)
    return 0 if outcome.ok else 1


def _error_patterns(n: int, max_weight: int):
    units = [1 << c for c in range(n)]
    for w in range(max_weight + 1):
        yield from map(sum, itertools.combinations(units, w))


def cmd_exhaust(args, parser) -> int:
    _nonnegative(parser, args, "samples", "seed")
    ctx = _context(args.code)
    code = ctx.binary_code
    table = CosetTable(code) if args.oracle else None
    words = [0] + [code.encode(_trial_rng(args.seed, t).getrandbits(code.k))
                   for t in range(args.samples)]
    trials = 0
    wrong = 0
    oracle_mismatch = 0
    # patterns outermost, so none is kept once its codewords are decoded
    for e in _error_patterns(ctx.n, args.max_weight):
        trials += len(words)
        # each c ^ e has e's syndrome, as c is a codeword, so the oracle's
        # answer for it is c ^ table.decode(e), and None when that is None
        shift = table and table.decode(e)
        for c in words:
            decoded = decode(ctx, c ^ e).codeword     # None for a refusal
            if decoded != c:
                wrong += 1
            if table and decoded != (shift if shift is None else c ^ shift):
                oracle_mismatch += 1
    ok = wrong == 0 and oracle_mismatch == 0
    payload = {
        "code": args.code,
        "max_weight": args.max_weight,
        "samples": args.samples,
        "seed": args.seed,
        "trials": trials,
        "wrong": wrong,
        "oracle_mismatches": oracle_mismatch if args.oracle else None,
        "ok": ok,
    }
    text = (f"{trials} decodes over {len(words)} codewords, "
            f"errors up to weight {args.max_weight}: "
            f"{trials - wrong} correct, {wrong} wrong"
            + (f", {oracle_mismatch} oracle mismatches" if args.oracle else ""))
    _emit(args, payload, text)
    return 0 if ok else 1


def cmd_simulate(args, parser) -> int:
    _nonnegative(parser, args, "trials", "seed")
    ctx = _context(args.code)
    if not 0 <= args.weight <= ctx.n:
        parser.error(f"--weight must be in 0..{ctx.n}, got {args.weight}")
    code = ctx.binary_code
    successes = failures = miscorrections = 0
    elapsed = 0.0
    for t in range(args.trials):
        rng = _trial_rng(args.seed, t)
        sent = code.encode(rng.getrandbits(code.k))
        e = 0
        for pos in rng.sample(range(ctx.n), args.weight):
            e |= 1 << pos
        t0 = time.perf_counter()
        outcome = decode(ctx, sent ^ e)
        elapsed += time.perf_counter() - t0
        if not outcome.ok:
            failures += 1
        elif outcome.codeword == sent:
            successes += 1
        else:
            miscorrections += 1
    print(f"mean decode time: {elapsed / max(args.trials, 1) * 1e6:.1f} us",
          file=sys.stderr)
    payload = {"code": args.code, "trials": args.trials,
               "weight": args.weight, "seed": args.seed,
               "successes": successes, "failures": failures,
               "miscorrections": miscorrections}
    text = (f"{args.trials} trials at weight {args.weight}: "
            f"{successes} decoded, {failures} failures, "
            f"{miscorrections} miscorrections")
    _emit(args, payload, text)
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projcode",
        description="Projection-decodable binary [36,19,8] and [40,22,8] "
                    "codes over GF(4) projections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, run, help_, binary_only=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("code",
                       choices=sorted(BINARY_CODES) if binary_only
                       else sorted(ALL_CODES))
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report")
        p.set_defaults(run=run)
        return p

    p = add("gen", cmd_gen, "print a generator matrix")
    p.add_argument("--mindist", action="store_true",
                   help="also compute the minimum distance")
    add("wdist", cmd_wdist, "weight distribution")
    add("mindist", cmd_mindist,
        "minimum distance from the weight distribution")

    p = add("encode", cmd_encode, "encode a message", binary_only=True)
    p.add_argument("message", help="k message bits (spaces allowed)")

    p = add("decode", cmd_decode, "decode a received word", binary_only=True)
    p.add_argument("word", help="n received bits (spaces allowed)")
    p.add_argument("--trace", action="store_true",
                   help="show the projection arrays and corrections")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the coset-leader decoder")

    p = add("exhaust", cmd_exhaust,
            "exhaustive error sweep vs the coset-leader decoder",
            binary_only=True)
    p.add_argument("--max-weight", type=int, default=3, choices=(0, 1, 2, 3))
    p.add_argument("--samples", type=int, default=200,
                   help="random codewords besides the zero word")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", dest="oracle", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="compare against the coset-leader decoder, read "
                        "once per error pattern")

    p = add("simulate", cmd_simulate, "random error trials", binary_only=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--weight", type=int, default=3,
                   help="planted error weight per trial")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
            return args.run(args, parser)
        finally:
            sys.stdout.flush()      # a closed reader fails here, not at exit
    except BrokenPipeError:
        # send the unwritten rest to devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
