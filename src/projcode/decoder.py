"""Projection decoding of the constructed binary codes.

``decode`` corrects every error pattern of weight at most 3 and otherwise
reports failure (bounded-distance decoding; no maximum-likelihood
fallback).  The received word is viewed as a 4 x m array.  Let p be the
number of columns whose parity disagrees with the majority; since at most
three columns can be hit, the majority parity is the parity pi of the
transmitted word's columns.  The expected first-row parity rho is pi for
construction O and even for construction E, so delta = observed first-row
parity XOR rho tells how many first-row errors occurred (mod 2).

The syndrome s of the projected word then locates the non-first-row
errors.  Branches, by p:

  p=0: a.i   s = 0, clean word
       a.ii  s = e_i H_i: two errors in column i
  p=1: b.i.1 s = 0, delta = 1: single error in the first entry of column i
       b.i.2 s = 0, delta = 0: three errors in rows 2-4 of column i
       b.ii  s = e_i H_i: one (delta=0) or three (delta=1) errors in col i
       b.iii s = e_j H_j, j != i: two errors in column j, one first-entry
             error in column i
       b.iv  s = e_i H_i + e_j H_j, both nonzero: one non-first-row error
             in column i plus two errors in column j
  p=2: c.i   s = 0: first-entry errors in both minority columns
       c.ii  s = e_i H_i: non-first-row error in minority column i,
             first-entry error in the other minority column
       c.iii s = e_i H_i + e_j H_j: non-first-row errors in both
  p=3: d.i - d.iv: s = sum over the three minority columns, split by how
       many coefficients are nonzero (zero coefficient = first-entry
       error, nonzero = non-first-row error in that column)

A corrected column is the unique coset member with the repaired value and
majority parity whose first bit keeps the whole first row at parity rho
(minority columns with a nonzero coefficient carry exactly one
non-first-row error, so they keep their first bit and sit at distance 1).
Any inconsistency - p > 3, a parity tie, an undecomposable syndrome, or a
delta that contradicts the branch - is a failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from . import gf4
from .bitlin import BinaryLinearCode
from .projection import (NIBBLE_VALUE, CodewordArray, ParityProfile, Variant,
                         construct, select_candidate)
from .quaternary import QuaternaryCode, _unpack_syndrome

FAIL_PARITY = "parity-inconsistent"
FAIL_UNCORRECTABLE = "uncorrectable"

BRANCHES = ("a.i", "a.ii", "b.i.1", "b.i.2", "b.ii", "b.iii", "b.iv",
            "c.i", "c.ii", "c.iii", "d.i", "d.ii", "d.iii", "d.iv")


@dataclass(frozen=True)
class DecodeTrace:
    """How a successful decode arrived at its answer."""
    profile: ParityProfile
    syndrome: tuple[int, int, int, int]
    branch: str
    corrections: tuple[tuple[int, int, int], ...]  # (column, old, new)
    error_weight: int


class DecodeOutcome:
    """The read-only result of a decode.

    A successful ``decode`` keeps the raw values it computed and builds
    ``trace`` from them on first read; refusals are shared objects, one
    per reason, with ``trace`` None."""

    __slots__ = ("_ok", "_codeword", "_error", "_trace", "_reason", "_raw")

    def __init__(self, ok: bool, codeword: int | None = None,
                 error: int | None = None, trace: DecodeTrace | None = None,
                 reason: str | None = None):
        self._ok = ok
        self._codeword = codeword
        self._error = error
        self._trace = trace
        self._reason = reason
        self._raw = None

    ok = property(attrgetter("_ok"))
    codeword = property(attrgetter("_codeword"))
    error = property(attrgetter("_error"))
    reason = property(attrgetter("_reason"))

    @property
    def trace(self) -> DecodeTrace | None:
        """How the decode arrived at its answer; None for a refusal."""
        raw = self._raw
        if raw is not None:
            self._trace = _build_trace(self._codeword ^ self._error,
                                       self._error, *raw)
            self._raw = None
        return self._trace

    def _fields(self) -> tuple:
        return (self.ok, self.codeword, self.error, self.trace, self.reason)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        return ("DecodeOutcome(ok={!r}, codeword={!r}, error={!r}, "
                "trace={!r}, reason={!r})".format(*self._fields()))


_REFUSED_PARITY = DecodeOutcome(False, reason=FAIL_PARITY)
_REFUSED_UNCORRECTABLE = DecodeOutcome(False, reason=FAIL_UNCORRECTABLE)


def _decoded(codeword: int, error: int, raw: tuple) -> DecodeOutcome:
    """A successful outcome whose trace ``_build_trace`` makes from ``raw``
    on first read; set slot by slot, which is cheaper than ``__init__``."""
    out = object.__new__(DecodeOutcome)
    out._ok = True
    out._codeword = codeword
    out._error = error
    out._trace = None
    out._reason = None
    out._raw = raw
    return out


def _build_trace(received: int, error: int, info: tuple, f: int, s8: int,
                 branch: str, cols: tuple[int, ...]) -> DecodeTrace:
    """The trace of a decode from the values it kept: the parity-pattern
    entry of ``_col_info``, first-row parity, packed syndrome, branch and
    the repaired columns in the order the branch planned them."""
    pars, y_odd, y_even, p = info[:4]
    m = len(pars)
    corrections = []
    for c in cols:
        shift = 4 * (m - c)
        old = (received >> shift) & 15
        corrections.append((c, old, old ^ ((error >> shift) & 15)))
    profile = ParityProfile(column_parities=pars, first_row_parity=f,
                            y_odd=y_odd, y_even=y_even, p=p)
    return DecodeTrace(profile=profile, syndrome=_unpack_syndrome(s8),
                       branch=branch, corrections=tuple(corrections),
                       error_weight=error.bit_count())


class DecoderContext:
    """Precomputed tables for decoding one (quaternary code, variant) pair."""

    def __init__(self, c4: QuaternaryCode, variant: Variant):
        self.c4 = c4
        self.variant = variant
        self.binary_code: BinaryLinearCode = construct(c4, variant)
        m = c4.m
        self.m = m
        self.n = 4 * m
        self.first_row_mask = int("1000" * m, 2)
        self.col_parity_mask = int("0001" * m, 2)
        # packed GF(4) syndrome of the projection, one table per byte of
        # the received word: bit q (LSB order) is row (n-q-1) % 4 ... of
        # column ceil((n-q)/4); rows 2-4 contribute label * H_col.
        unit = [0] * self.n
        for q in range(self.n):
            coord = self.n - q
            col = (coord + 3) // 4
            label = (0, gf4.ONE, gf4.OMEGA, gf4.OMEGA_BAR)[(coord - 1) % 4]
            if label:
                unit[q] = c4._colmul[col][label]
        tables = []
        for b in range((self.n + 7) // 8):
            t = [0] * 256
            for v in range(1, 256):
                low = v & -v
                q = 8 * b + low.bit_length() - 1
                t[v] = t[v ^ low] ^ (unit[q] if q < self.n else 0)
            tables.append(t)
        self._synd_tables = tables
        self._profiles: dict[int, tuple] = {}

    def syndrome_packed(self, word: int) -> int:
        s = 0
        for b, table in enumerate(self._synd_tables):
            s ^= table[(word >> (8 * b)) & 255]
        return s

    def _col_info(self, word: int) -> tuple:
        """What decode needs of the word's column parities, cached on the
        parity pattern: (column parities, y_odd, y_even, p, majority parity
        pi (None on a tie), expected first-row parity rho, minority
        columns, pair table of the last two minority columns or None)."""
        t = word ^ (word >> 2)
        colbits = (t ^ (t >> 1)) & self.col_parity_mask
        info = self._profiles.get(colbits)
        if info is None:
            m = self.m
            y_odd = colbits.bit_count()
            y_even = m - y_odd
            p = min(y_odd, y_even)
            if y_odd == y_even:
                majority = None
            else:
                majority = 1 if y_odd > y_even else 0
            rho = majority if self.variant is Variant.O else 0
            pars = tuple((colbits >> (4 * (m - i))) & 1
                         for i in range(1, m + 1))
            minority = tuple(i for i, par in enumerate(pars, 1)
                             if par != majority)
            pair = None
            if majority is not None and p in (2, 3):
                pair = self.c4._pair_table(*minority[-2:])
            info = (pars, y_odd, y_even, p, majority, rho, minority, pair)
            self._profiles[colbits] = info
        return info

    def column_of(self, word: int, i: int) -> int:
        return (word >> (4 * (self.m - i))) & 15


def apply_column_correction(arr: CodewordArray, i: int, value: int,
                            target_parity: int,
                            expected_first_row_parity: int) -> CodewordArray:
    """Replace column i with the coset member of ``value`` and
    ``target_parity`` whose first bit brings the array's first row to
    ``expected_first_row_parity`` (other planned corrections are the
    caller's business)."""
    first = 0
    for nib in arr.columns:
        first ^= nib >> 3
    old = arr.column(i)
    delta = first ^ expected_first_row_parity
    return arr.replace(i, select_candidate(value, target_parity,
                                           (old >> 3) ^ delta))


def _repair(word: int, m: int, i: int, e: int, pi: int,
            first_flip: int) -> int:
    """Error bits that move column i of ``word`` to the candidate whose
    projection is shifted by e, with parity pi and the first bit flipped
    by ``first_flip``."""
    shift = 4 * (m - i)
    old = (word >> shift) & 15
    new = select_candidate(NIBBLE_VALUE[old] ^ e, pi, (old >> 3) ^ first_flip)
    return (old ^ new) << shift


def decode(ctx: DecoderContext, received: int) -> DecodeOutcome:
    """Bounded-distance projection decoding of a length-n word."""
    m = ctx.m
    if received >> ctx.n:
        raise ValueError(f"word does not fit in {ctx.n} bits")
    info = ctx._col_info(received)
    _, _, _, p, pi, rho, minority, pair = info
    if p > 3 or pi is None:
        return _REFUSED_PARITY
    f = (received & ctx.first_row_mask).bit_count() & 1
    delta = f ^ rho
    s8 = ctx.syndrome_packed(received)
    single = ctx.c4._single

    # diff collects the error bits of every repaired column; cols lists
    # those columns in the order the branch plans them, for the trace
    if p == 0:
        if s8 == 0:
            if delta:
                return _REFUSED_UNCORRECTABLE
            branch, cols, diff = "a.i", (), 0
        else:
            hit = single.get(s8)
            if hit is None:
                return _REFUSED_UNCORRECTABLE
            branch, cols = "a.ii", hit[:1]
            diff = _repair(received, m, hit[0], hit[1], pi, delta)
    elif p == 1:
        i = minority[0]
        cols = minority
        if s8 == 0:
            if delta:
                branch, diff = "b.i.1", 0b1000 << 4 * (m - i)
            else:
                branch, diff = "b.i.2", 0b0111 << 4 * (m - i)
        else:
            hit = single.get(s8)
            if hit is not None and hit[0] == i:
                branch = "b.ii"
                diff = _repair(received, m, i, hit[1], pi, delta)
            elif hit is not None:
                branch, cols = "b.iii", (i, hit[0])
                diff = (0b1000 << 4 * (m - i)) | _repair(
                    received, m, hit[0], hit[1], pi, delta ^ 1)
            else:
                ci = ctx.c4._colmul[i]
                for e_i in gf4.NONZERO:
                    hit = single.get(s8 ^ ci[e_i])
                    if hit is not None:
                        break
                else:
                    return _REFUSED_UNCORRECTABLE
                branch, cols = "b.iv", (i, hit[0])
                diff = (_repair(received, m, i, e_i, pi, 0)
                        | _repair(received, m, hit[0], hit[1], pi, delta))
    elif p == 2:
        i, j = cols = minority
        if s8 == 0:
            if delta:
                return _REFUSED_UNCORRECTABLE
            branch = "c.i"
            diff = (0b1000 << 4 * (m - i)) | (0b1000 << 4 * (m - j))
        else:
            hit = single.get(s8)
            if hit is not None and hit[0] in minority:
                if not delta:
                    return _REFUSED_UNCORRECTABLE
                other = j if hit[0] == i else i
                branch, cols = "c.ii", (hit[0], other)
                diff = (_repair(received, m, hit[0], hit[1], pi, 0)
                        | 0b1000 << 4 * (m - other))
            else:
                if delta:
                    return _REFUSED_UNCORRECTABLE
                sol = pair.get(s8)
                if sol is None or 0 in sol:
                    return _REFUSED_UNCORRECTABLE
                branch = "c.iii"
                diff = (_repair(received, m, i, sol[0], pi, 0)
                        | _repair(received, m, j, sol[1], pi, 0))
    else:
        cols = minority
        ci = ctx.c4._colmul[minority[0]]
        for e_i in gf4.ELEMENTS:
            hit = pair.get(s8 ^ ci[e_i])
            if hit is not None:
                break
        else:
            return _REFUSED_UNCORRECTABLE
        coeffs = (e_i, *hit)
        zeros = coeffs.count(0)
        if (zeros & 1) != delta:
            return _REFUSED_UNCORRECTABLE
        branch = ("d.iv", "d.iii", "d.ii", "d.i")[zeros]
        diff = 0
        for c, e in zip(minority, coeffs):
            if e == 0:
                diff |= 0b1000 << 4 * (m - c)
            else:
                diff |= _repair(received, m, c, e, pi, 0)

    decoded = received ^ diff
    if diff.bit_count() > 3 or decoded not in ctx.binary_code:
        return _REFUSED_UNCORRECTABLE
    return _decoded(decoded, diff, (info, f, s8, branch, cols))
