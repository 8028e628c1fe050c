"""Spans around the package's public functions, for the traced run.

A ``Tracer`` replaces functions and methods where the package looks them
up -- ``projcode.cli.decode`` as well as ``projcode.decoder.decode``, and
``projcode.decoder.select_candidate``, which the decoder imports by name --
and puts the originals back on exit.  Each span records its name, start,
end, parent span, the index of the word it served, a tag (the outcome of
a decode, or whether the oracle found a leader) and the time the wrapper
itself took, in flat arrays kept in memory until the run writes them out.
Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

clock = time.perf_counter_ns

NO_PARENT = -1
NO_WORD = -1
TAG_RAISED = -2
TAG_REFUSED = -1

# span kinds: a decode starts a new word, a CLI entry serves no word yet,
# every other call serves the current word
WORD, ENTRY, CALL = "word", "entry", "call"

# (owner, attribute, span name, kind); the owner is a module of the
# package or a class in one, written as a dotted path below the package
DECODE_SITES = (
    ("decoder", "decode", "decoder.decode", WORD),
    ("cli", "decode", "decoder.decode", WORD),
)
FULL_SITES = DECODE_SITES + (
    ("decoder.DecoderContext", "syndrome_packed", "decoder.syndrome", CALL),
    ("decoder.DecoderContext", "__init__", "decoder.context_build", CALL),
    ("decoder", "select_candidate", "projection.select_candidate", CALL),
    ("decoder", "construct", "projection.construct", CALL),
    ("projection", "construct", "projection.construct", CALL),
    ("projection", "has_projection", "projection.has_projection", CALL),
    ("bitlin.BinaryLinearCode", "__contains__", "bitlin.membership", CALL),
    ("bitlin.BinaryLinearCode", "encode", "bitlin.encode", CALL),
    ("bitlin.BinaryLinearCode", "weight_distribution",
     "bitlin.weight_distribution", CALL),
    ("bitlin.CosetTable", "decode", "bitlin.oracle", CALL),
    ("bitlin.CosetTable", "__init__", "bitlin.coset_table_build", CALL),
    ("quaternary", "c4_9", "quaternary.code_build", CALL),
    ("quaternary", "c4_10", "quaternary.code_build", CALL),
    ("quaternary.QuaternaryCode", "weight_distribution",
     "quaternary.weight_distribution", CALL),
    ("cli", "main", "cli.main", ENTRY),
)


def _owner(pkg, path: str):
    module, _, cls = path.partition(".")
    owner = getattr(pkg, module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs span wrappers on ``__enter__`` and removes them on exit."""

    def __init__(self, pkg, sites):
        self.pkg = pkg
        self.sites = sites
        self.branches = pkg.decoder.BRANCHES
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.word = array("i")
        self.tag = array("h")
        self.outer = array("q")
        self.word_index = NO_WORD
        self.residual_ns = 0.0
        self._stack = [NO_PARENT]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.residual_ns = self._calibrate()
        for path, attr, span, kind in self.sites:
            owner = _owner(self.pkg, path)
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, kind))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {attr}")

    def _name_id(self, span: str) -> int:
        if span not in self.names:
            self.names.append(span)
        return self.names.index(span)

    def _wrap(self, fn, span: str, kind: str):
        nid = self._name_id(span)
        stack = self._stack
        starts, ends, tags, outer = self.start, self.end, self.tag, self.outer
        classify = {"decoder.decode": self._decode_tag,
                    "bitlin.oracle": _oracle_tag}.get(span)

        def wrapper(*args, **kwargs):
            w0 = clock()
            if kind == WORD:
                self.word_index += 1
            elif kind == ENTRY:
                self.word_index = NO_WORD
            idx = len(starts)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.word.append(self.word_index)
            tags.append(TAG_RAISED)
            starts.append(0)
            ends.append(0)
            outer.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            tags[idx] = classify(result) if classify else 0
            outer[idx] = clock() - w0
            return result

        if hasattr(fn, "cache_clear"):
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _calibrate(self, rounds: int = 5, calls: int = 20_000) -> float:
        """Nanoseconds per call that a wrapper costs its caller beyond a
        plain call and outside the wrapper's own recorded time; the fastest
        of a few rounds, on a wrapped no-op."""
        def noop(a, b):
            return None

        plain = extra = float("inf")
        for _ in range(rounds):
            probe = Tracer(self.pkg, ())
            wrapped = probe._wrap(noop, "calibrate", CALL)
            begin = clock()
            for _ in range(calls):
                wrapped(1, 2)
            extra = min(extra, (clock() - begin - sum(probe.outer)) / calls)
            begin = clock()
            for _ in range(calls):
                noop(1, 2)
            plain = min(plain, (clock() - begin) / calls)
        return max(extra - plain, 0.0)

    def _decode_tag(self, outcome) -> int:
        """16 * p + branch index for a decoded word, TAG_REFUSED otherwise."""
        if not outcome.ok:
            return TAG_REFUSED
        trace = outcome.trace
        return 16 * trace.profile.p + self.branches.index(trace.branch)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "word": np.frombuffer(self.word, dtype=np.int32),
            "tag": np.frombuffer(self.tag, dtype=np.int16),
            "outer": np.frombuffer(self.outer, dtype=np.int64),
        }

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self time (ns) and tags.

        Self time is a span's duration minus, for each direct child, the
        whole time of the child's wrapper and the calibrated wrapper cost
        that falls outside it; so tracing overhead is charged to no span."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        # a wrapper whose function raised recorded no outer time
        cost = np.maximum(a["outer"], dur) + self.residual_ns
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=cost[nested],
                            minlength=len(dur))
        own = dur - child
        out = {}
        for nid, span in enumerate(self.names):
            sel = a["name"] == nid
            out[span] = {"calls": int(sel.sum()), "total_ns": dur[sel],
                         "self_ns": own[sel], "tag": a["tag"][sel]}
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            residual_ns=np.float64(self.residual_ns),
                            **self.arrays())


def _oracle_tag(leader_decoded) -> int:
    return int(leader_decoded is not None)


def _mean(values: np.ndarray, scale: float) -> float:
    return float(values.mean()) * scale if len(values) else 0.0


def per_layer_metrics(stats: dict, light_stats: dict, branches,
                      overhead_frac: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the span statistics of the traced pass and
    of the pass with only decode calls timed; name -> (value, unit)."""
    empty = {"calls": 0, "total_ns": np.zeros(0), "self_ns": np.zeros(0),
             "tag": np.zeros(0, dtype=np.int16)}

    def get(span):
        return stats.get(span, empty)

    m: dict[str, tuple[float, str]] = {}
    for span in ("decoder.decode", "decoder.syndrome",
                 "projection.select_candidate", "bitlin.membership",
                 "bitlin.oracle"):
        m[f"{span}.calls"] = (get(span)["calls"], "count")
        m[f"{span}.self_us"] = (_mean(get(span)["self_ns"], 1e-3), "us")
    oracle_tags = get("bitlin.oracle")["tag"]
    m["bitlin.oracle.hit_frac"] = (_mean(oracle_tags, 1.0), "ratio")
    m["bitlin.encode.self_us"] = (_mean(get("bitlin.encode")["self_ns"], 1e-3),
                                  "us")
    m["cli.main.self_s"] = (_mean(get("cli.main")["self_ns"], 1e-9), "s")
    for span in ("decoder.context_build", "bitlin.coset_table_build",
                 "projection.construct", "projection.has_projection",
                 "bitlin.weight_distribution", "quaternary.code_build",
                 "quaternary.weight_distribution"):
        m[f"{span}_ms"] = (_mean(get(span)["total_ns"], 1e-6), "ms")

    tags = get("decoder.decode")["tag"]
    decoded = tags >= 0
    for index, label in enumerate(branches):
        m[f"decoder.branch.{label}"] = (
            int(np.count_nonzero(decoded & (tags % 16 == index))), "count")
    m["decoder.refused"] = (int(np.count_nonzero(tags == TAG_REFUSED)), "count")
    m["decoder.ok_frac"] = (_mean(decoded, 1.0), "ratio")

    timed = light_stats.get("decoder.decode", empty)
    for p in range(4):
        sel = (timed["tag"] >= 0) & (timed["tag"] // 16 == p)
        m[f"decoder.decode_us.p{p}"] = (_mean(timed["total_ns"][sel], 1e-3), "us")
    sel = timed["tag"] == TAG_REFUSED
    m["decoder.decode_us.refused"] = (_mean(timed["total_ns"][sel], 1e-3), "us")
    m["trace.overhead_frac"] = (overhead_frac, "ratio")
    return m
