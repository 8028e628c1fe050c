"""The four benchmark workloads.

Every workload follows the same life cycle:

* ``build(pkg)`` and ``warm()`` run on a freshly imported package; their
  time, together with the import, is the workload's set-up time;
* ``generate(seed)`` makes the inputs from the seed (untimed);
* ``run_unit(i)`` runs one timed unit of work and returns
  ``(elapsed_ns, words, latencies_ns)``; ``units_per_pass`` consecutive
  units, starting at a multiple of it, make one full pass over the inputs;
  units whose indices agree modulo ``unit_kinds`` do the same work; the
  first ``memory_units`` units are run again to measure peak allocation;
* ``check_unit(i)`` checks that unit's results outside the timed region
  and returns ``(attempted, failed)``.

Load is a closed loop from one thread: the next word is sent only after
the previous call returned.  ``pkg`` is a namespace holding the package's
modules (``pkg.decoder``, ``pkg.cli``, ...); workloads look functions up
through it when a unit starts, so the traced run's wrappers take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import time
from collections import Counter

import numpy as np

clock = time.perf_counter_ns

BINARY_CODES = ("o36", "e36", "o40", "e40")

# decoded cosets per branch over all 2^17 cosets of o36, and the refusals
GOLDEN_O36 = {
    "d.iv": 2268, "d.iii": 2268, "b.iv": 1296, "d.ii": 756, "b.iii": 432,
    "c.iii": 324, "c.ii": 216, "d.i": 84, "a.ii": 54, "b.ii": 54,
    "c.i": 36, "b.i.1": 9, "b.i.2": 9, "a.i": 1,
}
GOLDEN_O36_REFUSED = 123_265

# reference parameters of the binary codes: (n, k, d, (w, A_w))
REFERENCE = {
    "o36": (36, 19, 8, (9, 496)),
    "e36": (36, 19, 8, (9, 528)),
    "o40": (40, 22, 8, (10, 6144)),
    "e40": (40, 22, 8, (10, 6208)),
}
# quaternary factory name -> (m, r, minimum weight)
QUAT_REFERENCE = {"c4_9": (9, 10, 4), "c4_10": (10, 12, 4)}

_first_error_shown = False


def _note_exception(where: str, exc: BaseException) -> None:
    """Report the first exception of a run on stderr; every one counts as
    a failed operation."""
    global _first_error_shown
    if not _first_error_shown:
        _first_error_shown = True
        print(f"{where}: {type(exc).__name__}: {exc}", file=sys.stderr)


def correctable_cosets(n: int) -> int:
    """Number of error patterns of weight <= 3, i.e. cosets the decoder
    must correct."""
    return sum(math.comb(n, w) for w in range(4))


def make_context(pkg, code_id: str):
    factory, variant = pkg.cli.BINARY_CODES[code_id]
    return pkg.decoder.DecoderContext(factory(), variant)


def warm_context(pkg, ctx) -> None:
    """Decode one word per column-parity pattern (a row-4 bit in each
    chosen column).  This fills the context's parity-profile cache and,
    through the p = 2 patterns, every pair table of the shared quaternary
    code, so no lazy set-up is left for the timed region."""
    decode = pkg.decoder.decode
    for subset in range(1 << ctx.m):
        word = 0
        for i in range(ctx.m):
            if subset >> i & 1:
                word |= 1 << (4 * i)
        decode(ctx, word)


def random_codewords(code, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` codewords of uniformly random messages, as uint64."""
    msgs = rng.integers(0, 1 << code.k, size=count, dtype=np.uint64)
    words = np.zeros(count, dtype=np.uint64)
    for i, row in enumerate(code.generator):
        bit = (msgs >> np.uint64(code.k - 1 - i)) & np.uint64(1)
        words ^= bit * np.uint64(row)
    return words


def bsc_errors(rng: np.random.Generator, count: int, n: int,
               crossover: float) -> np.ndarray:
    """Error patterns of a binary symmetric channel, as uint64."""
    flips = rng.random((count, n)) < crossover
    weights = np.uint64(1) << np.arange(n, dtype=np.uint64)
    return (flips * weights).sum(axis=1, dtype=np.uint64)


def coset_representatives(pkg, code) -> np.ndarray:
    """The 2^(n-k) words supported on the non-pivot coordinates: one per
    coset, since the pivot coordinates form an information set."""
    n = code.n
    reduced, rank = pkg.bitlin.rref(code.generator, n)
    pivots = {n - row.bit_length() for row in reduced[:rank]}
    free = [c for c in range(n) if c not in pivots]
    index = np.arange(1 << len(free), dtype=np.uint64)
    reps = np.zeros_like(index)
    for j, c in enumerate(free):
        reps |= ((index >> np.uint64(j)) & np.uint64(1)) << np.uint64(n - 1 - c)
    return reps


def _answer(outcome):
    """The codeword a decode returned, None for a refusal, or the
    exception it raised."""
    if isinstance(outcome, BaseException):
        return outcome
    return outcome.codeword if outcome.ok else None


class BscStream:
    """Library use: one ``decoder.decode`` call per received word.

    Words are random codewords of the four codes in equal shares, sent
    through a binary symmetric channel; each answer is compared with the
    coset-leader oracle's, computed before timing."""

    name = "bsc_stream"
    crossover = 0.04
    unit_words = 1024
    # few, short units, each its own kind, so every unit repeats often
    # enough in a run to meet a quiet moment of the host
    units_per_pass = 4
    unit_kinds = units_per_pass
    memory_units = units_per_pass
    decodes = True
    required_spans = ("decoder.decode", "decoder.syndrome",
                      "decoder.context_build", "projection.select_candidate",
                      "bitlin.membership")

    def build(self, pkg) -> None:
        self.pkg = pkg
        self.contexts = [make_context(pkg, c) for c in BINARY_CODES]

    def warm(self) -> None:
        for ctx in self.contexts:
            warm_context(self.pkg, ctx)

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        per_code = self.unit_words * self.units_per_pass // len(self.contexts)
        columns = []
        for ctx in self.contexts:
            code = ctx.binary_code
            sent = random_codewords(code, rng, per_code)
            received = (sent ^ bsc_errors(rng, per_code, code.n,
                                          self.crossover)).tolist()
            oracle = self.pkg.bitlin.CosetTable(code).decode
            columns.append([(ctx, y, oracle(y)) for y in received])
        # interleave the codes so every unit holds them in equal shares
        pool = [item for group in zip(*columns) for item in group]
        self.items = [(ctx, y) for ctx, y, _ in pool]
        self.expected = [ref for _, _, ref in pool]

    def _span(self, i: int) -> tuple[int, int]:
        start = (i % self.units_per_pass) * self.unit_words
        return start, start + self.unit_words

    def run_unit(self, i: int):
        lo, hi = self._span(i)
        items = self.items[lo:hi]
        decode = self.pkg.decoder.decode
        outcomes: list = []
        latencies: list[int] = []
        begin = clock()
        for ctx, y in items:
            t0 = clock()
            try:
                out = decode(ctx, y)
            except Exception as exc:
                out = exc
            latencies.append(clock() - t0)
            outcomes.append(out)
        elapsed = clock() - begin
        self._outcomes = outcomes
        return elapsed, len(items), latencies

    def check_unit(self, i: int) -> tuple[int, int]:
        lo, hi = self._span(i)
        failed = 0
        for out, ref in zip(self._outcomes, self.expected[lo:hi]):
            got = _answer(out)
            if isinstance(got, BaseException):
                _note_exception("decode", got)
            if got != ref:
                failed += 1
        return len(self._outcomes), failed


class CosetSweep:
    """Decode every coset representative of o36 and e40, each shifted by
    a seeded random codeword, and compare with ``CosetTable.decode``.

    A unit takes an equal slice of both codes' shuffled cosets, so every
    unit has about the same mix; a pass covers every coset once and checks
    the decoded counts and the o36 branch histogram against the golden
    table."""

    name = "coset_sweep"
    codes = ("o36", "e40")
    units_per_pass = 256
    # every unit decodes its own slice of the cosets: its own kind
    unit_kinds = units_per_pass
    memory_units = 1
    decodes = True
    required_spans = ("decoder.decode", "decoder.syndrome",
                      "decoder.context_build", "projection.select_candidate",
                      "bitlin.membership", "bitlin.oracle",
                      "bitlin.coset_table_build")

    def build(self, pkg) -> None:
        self.pkg = pkg
        self.contexts = [make_context(pkg, c) for c in self.codes]
        self.tables = [pkg.bitlin.CosetTable(ctx.binary_code)
                       for ctx in self.contexts]

    def warm(self) -> None:
        for ctx in self.contexts:
            warm_context(self.pkg, ctx)

    def generate(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.words = []
        self.passes_done = 0
        for ctx in self.contexts:
            # shuffled, so every unit is a like sample of the cosets
            reps = rng.permutation(coset_representatives(self.pkg,
                                                         ctx.binary_code))
            shift = random_codewords(ctx.binary_code, rng, len(reps))
            self.words.append(reps ^ shift)

    def _slices(self, i: int):
        """This unit's words of each code, as fresh ints: the timed loop
        then reads no more memory than one unit's worth."""
        j = i % self.units_per_pass
        for words in self.words:
            size = len(words) // self.units_per_pass
            yield words[j * size:(j + 1) * size].tolist()

    def run_unit(self, i: int):
        decode = self.pkg.decoder.decode
        segments = [(ctx, table.decode, ys) for ctx, table, ys
                    in zip(self.contexts, self.tables, self._slices(i))]
        results: list = []
        latencies: list[int] = []
        words = 0
        begin = clock()
        for ctx, oracle, ys in segments:
            outcomes = []
            refs = []
            for y in ys:
                t0 = clock()
                try:
                    out = decode(ctx, y)
                    t1 = clock()
                    ref = oracle(y)
                except Exception as exc:
                    t1 = clock()
                    out = ref = exc
                latencies.append(t1 - t0)
                outcomes.append(out)
                refs.append(ref)
            results.append((outcomes, refs))
            words += len(ys)
        elapsed = clock() - begin
        self._results = results
        return elapsed, words, latencies

    def check_unit(self, i: int) -> tuple[int, int]:
        attempted = failed = 0
        if i % self.units_per_pass == 0:
            self.decoded = [0] * len(self.codes)
            self.branches: Counter = Counter()
        for c, (outcomes, refs) in enumerate(self._results):
            for out, ref in zip(outcomes, refs):
                attempted += 1
                got = _answer(out)
                if isinstance(ref, BaseException):
                    _note_exception("decode/oracle", ref)
                    failed += 1
                    continue
                if got != ref:
                    failed += 1
                if got is not None:
                    self.decoded[c] += 1
                    if c == 0:
                        self.branches[out.trace.branch] += 1
        if i % self.units_per_pass == self.units_per_pass - 1:
            checks = [self.decoded[c] == correctable_cosets(ctx.n)
                      for c, ctx in enumerate(self.contexts)]
            refused = len(self.words[0]) - self.decoded[0]
            checks.append(dict(self.branches) == GOLDEN_O36)
            checks.append(refused == GOLDEN_O36_REFUSED)
            if not all(checks) or not self.passes_done:
                verdict = "match" if all(checks) else "MISMATCH"
                print(f"coset_sweep pass: decoded {self.decoded}, o36 refused "
                      f"{refused}, o36 branches {dict(self.branches)} "
                      f"({verdict} with the golden table)", file=sys.stderr)
            self.passes_done += 1
            attempted += len(checks)
            failed += checks.count(False)
        return attempted, failed


class ExhaustCli:
    """The ``exhaust`` verification sweep through ``cli.main``, in process,
    for all four codes; stdout is captured and the JSON report parsed."""

    name = "exhaust_cli"
    # the sweep of criterion 6 over the zero codeword and one seeded random
    # codeword, which the CLI encodes
    samples = 1
    # one call per unit, lengths alternating: o36 and e36 do the same work,
    # as do o40 and e40, so the units of one length are one kind
    codes = ("o36", "o40", "e36", "e40")
    units_per_pass = len(codes)
    unit_kinds = 2
    memory_units = unit_kinds
    decodes = True
    required_spans = ("cli.main", "decoder.decode", "decoder.syndrome",
                      "decoder.context_build", "projection.select_candidate",
                      "bitlin.membership", "bitlin.oracle", "bitlin.encode",
                      "bitlin.coset_table_build")

    def build(self, pkg) -> None:
        self.pkg = pkg
        # the CLI builds its own contexts per call; these only warm the
        # quaternary codes' pair tables, which the CLI's contexts share
        self.contexts = [make_context(pkg, c) for c in BINARY_CODES]

    def warm(self) -> None:
        for ctx in self.contexts:
            warm_context(self.pkg, ctx)

    def generate(self, seed: int) -> None:
        self.argvs = [["exhaust", code, "--samples", str(self.samples),
                       "--seed", str(seed), "--json"]
                      for code in self.codes]
        self.trials = {code: (self.samples + 1) * correctable_cosets(
            REFERENCE[code][0]) for code in self.codes}

    def run_unit(self, i: int):
        argv = self.argvs[i % self.units_per_pass]
        main = self.pkg.cli.main
        out = io.StringIO()
        begin = clock()
        try:
            with contextlib.redirect_stdout(out):
                status = main(argv)
        except (Exception, SystemExit) as exc:
            status = exc
        elapsed = clock() - begin
        self._result = (argv[1], status, out.getvalue())
        return elapsed, self.trials[argv[1]], None

    def check_unit(self, i: int) -> tuple[int, int]:
        code, status, text = self._result
        trials = self.trials[code]
        try:
            report = json.loads(text)
        except ValueError:
            report = None
        if isinstance(status, BaseException):
            _note_exception(f"exhaust {code}", status)
        if (status != 0 or report is None or not report["ok"]
                or report["trials"] != trials):
            print(f"exhaust {code}: status {status!r}, report {report}",
                  file=sys.stderr)
            return trials, trials
        return trials, report["wrong"] + report["oracle_mismatches"]


class ConstructVerify:
    """From fresh objects, build both quaternary codes and the four binary
    codes, compute all weight distributions and run ``has_projection``.

    Each step of a pass is a unit of its own kind, and its words are the
    codewords it enumerates."""

    name = "construct_verify"
    steps = ("quaternary_codes", "binary_codes", "quaternary_distributions",
             "binary_distributions", "projection_checks")
    units_per_pass = len(steps)
    unit_kinds = units_per_pass
    memory_units = units_per_pass
    decodes = False
    required_spans = ("quaternary.code_build", "quaternary.weight_distribution",
                      "projection.construct", "projection.has_projection",
                      "bitlin.weight_distribution")

    def build(self, pkg) -> None:
        self.pkg = pkg

    def warm(self) -> None:
        pass

    def generate(self, seed: int) -> None:
        pass

    def run_unit(self, i: int):
        step = getattr(self, "_" + self.steps[i % self.units_per_pass])
        if i % self.units_per_pass == 0:
            # both factories are lru_cached: clear them so the pass builds
            # anew
            for name in QUAT_REFERENCE:
                getattr(self.pkg.quaternary, name).cache_clear()
            self._result = {}
        words = 0
        begin = clock()
        try:
            words = step(self._result)
        except Exception as exc:
            self._result.setdefault("error", exc)
        elapsed = clock() - begin
        return elapsed, words, None

    def _quaternary_codes(self, r) -> int:
        quaternary = self.pkg.quaternary
        r["quats"] = {name: getattr(quaternary, name)()
                      for name in QUAT_REFERENCE}
        return 0

    def _binary_codes(self, r) -> int:
        projection = self.pkg.projection
        r["codes"] = {}
        for code_id in BINARY_CODES:
            c4 = r["quats"]["c4_9" if code_id.endswith("36") else "c4_10"]
            variant = projection.Variant[code_id[0].upper()]
            r["codes"][code_id] = (projection.construct(c4, variant), c4,
                                   variant)
        return 0

    def _quaternary_distributions(self, r) -> int:
        r["quat_dists"] = {name: q.weight_distribution()
                           for name, q in r["quats"].items()}
        return sum(1 << q.r for q in r["quats"].values())

    def _binary_distributions(self, r) -> int:
        r["dists"] = {cid: code.weight_distribution()
                      for cid, (code, _, _) in r["codes"].items()}
        return sum(1 << code.k for code, _, _ in r["codes"].values())

    def _projection_checks(self, r) -> int:
        projection = self.pkg.projection
        r["proj"] = {cid: projection.has_projection(code, c4, variant)
                     for cid, (code, c4, variant) in r["codes"].items()}
        return sum(1 << code.k for code, _, _ in r["codes"].values())

    def check_unit(self, i: int) -> tuple[int, int]:
        """Checks the pass after its last step."""
        if i % self.units_per_pass != self.units_per_pass - 1:
            return 0, 0
        checks = 5 * len(REFERENCE) + 2 * len(QUAT_REFERENCE)
        r = self._result
        if "error" in r:
            _note_exception("construct_verify", r["error"])
            return checks, checks
        results = []
        for cid, (n, k, d, (w, a_w)) in REFERENCE.items():
            code = r["codes"][cid][0]
            dist = r["dists"][cid]
            results += [code.n == n, code.k == k, _min_weight(dist) == d,
                        dist[w] == a_w, r["proj"][cid] is True]
        for name, (m, r_, d) in QUAT_REFERENCE.items():
            q = r["quats"][name]
            results += [(q.m, q.r) == (m, r_),
                        _min_weight(r["quat_dists"][name]) == d]
        if not all(results):
            print(f"construct_verify check failed: {results}", file=sys.stderr)
        return len(results), results.count(False)


def _min_weight(dist) -> int | None:
    return next((w for w, a in enumerate(dist) if w and a), None)


WORKLOADS = {w.name: w for w in (BscStream, ExhaustCli, CosetSweep,
                                 ConstructVerify)}
