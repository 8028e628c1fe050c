"""Projection decoding of the constructed binary codes.

``decode`` corrects every error pattern of weight at most 3 and otherwise
reports failure (bounded-distance decoding; no maximum-likelihood
fallback).  The received word is viewed as a 4 x m array.  Let p be the
number of columns whose parity disagrees with the majority; since at most
three columns can be hit, the majority parity is the parity pi of the
transmitted word's columns, and the p minority columns M are exactly the
columns holding an odd number of errors.  The expected first-row parity
rho is pi for construction O and even for construction E, so delta =
observed first-row parity XOR rho is the number of first-row errors mod 2.

The decoder first counts the odd columns y with one popcount and, by one
bit test on y, refuses p = min(y, m - y) > 3 or a tie, with no syndrome
read.  Any other word reads one syndrome, the code's own over
``projection_checks``.  Its bits 8 to m + 6, the parities of adjacent
column pairs, give the parity pattern up to complement, so they index
the context's entry for M; its top bit is delta, flipped for O when
column 1 is a minority column.

The error in column c projects to a coefficient e_c, and the syndrome's
low byte, that of the projected word, is s = sum of e_c H_c.  One rule
decodes every case:

1. Solve s = sum of e_c H_c over M, plus at most one other column x when
   p <= 1 (two errors in one even column).  The solution is unique because
   any three columns of H are independent.  When p is odd the first
   minority coefficient is searched; the rest is one lookup, in the pair
   table of the last two minority columns when p >= 2 and in the
   single-column table when p <= 1.
2. Repair.  The error in each repaired column is ``select_candidate(e_c,
   c in M, flip)``: it projects to e_c, is odd in a minority column and
   even in x, and its first entry is flipped for a zero minority
   coefficient (a lone first-entry error).  The last repaired column also
   takes whatever first-row flip delta still owes, which swaps its error
   for the complement within the column's coset.  A flip owed with no
   column to take it, or an error of weight above 3, is a refusal.
3. Label.  The paper's case a.i - d.iv is derived for the trace only: the
   letter is a, b, c, d for p = 0..3; the numeral is i, ii, ... for 0, 1,
   ... nonzero minority coefficients, continued past those p + 1 numerals
   when x is used; b.i splits into b.i.1 (delta = 1) and b.i.2 (delta = 0).

  p=0: a.i   clean word                a.ii  two errors in x
  p=1: b.i.1 first entry of i          b.i.2 rows 2-4 of i
       b.ii  one or three errors in i  b.iii first entry of i, two in x
       b.iv  one error in i, two in x
  p=2: c.i - c.iii  0 - 2 minority columns with a nonzero coefficient
  p=3: d.i - d.iv   0 - 3 minority columns with a nonzero coefficient

Refused besides the parity refusal: an unsolvable syndrome.  A decoded
word must also pass the code's membership check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import attrgetter

from . import gf4
from .bitlin import BinaryLinearCode
from .projection import (NIBBLE_VALUE, ParityProfile, Variant, construct,
                         parity_profile, select_candidate)
from .quaternary import QuaternaryCode

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
    ``trace`` from them on each read; refusals are shared objects, one
    per reason, with ``trace`` None."""

    __slots__ = ("_ok", "_codeword", "_error", "_reason", "_raw")

    def __init__(self, ok: bool, reason: str | None = None):
        self._ok = ok
        self._codeword = self._error = self._raw = None
        self._reason = reason

    ok = property(attrgetter("_ok"))
    codeword = property(attrgetter("_codeword"))
    error = property(attrgetter("_error"))
    reason = property(attrgetter("_reason"))

    @property
    def trace(self) -> DecodeTrace | None:
        """How the decode arrived at its answer; None for a refusal."""
        if self._raw is None:
            return None
        return _build_trace(self._codeword ^ self._error, self._error,
                            *self._raw)

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
    on each read; set slot by slot, which is cheaper than ``__init__``."""
    out = object.__new__(DecodeOutcome)
    out._ok = True
    out._codeword = codeword
    out._error = error
    out._reason = None
    out._raw = raw
    return out


# the numeral of a branch label, by its index within the letter
_NUMERALS = ("i", "ii", "iii", "iv")


def _build_trace(received: int, error: int, info: tuple,
                 s8: int) -> DecodeTrace:
    """The trace of a decode from the values it kept: the minority-set
    entry of ``_profiles`` and the packed syndrome.  The repaired columns
    and the branch label are read back from the error."""
    m, p, _, minority = info[:4]
    profile = parity_profile(received, m)
    nibbles = [(error >> 4 * (m - c)) & 15 for c in range(m + 1)]
    other = tuple(c for c in range(1, m + 1)
                  if nibbles[c] and c not in minority)
    nonzero = sum(1 for c in minority if NIBBLE_VALUE[nibbles[c]])
    branch = "abcd"[p] + "." + _NUMERALS[nonzero + (p + 1) * len(other)]
    if branch == "b.i":
        branch += ".1" if nibbles[minority[0]] >> 3 else ".2"
    corrections = []
    for c in minority + other:
        old = (received >> 4 * (m - c)) & 15
        corrections.append((c, old, old ^ nibbles[c]))
    return DecodeTrace(profile=profile, syndrome=gf4.unpack(s8, 4),
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
        self.col_parity_mask = int("0001" * m, 2)
        self._first_row_bit = self.n - self.binary_code.k - 1
        # bit y is set when y odd columns leave p > 3 minority columns or
        # a tie: the parity refusal
        self._refused_counts = sum(1 << y for y in range(m + 1)
                                   if min(y, m - y) > 3 or 2 * y == m)
        self._key_mask = (1 << m - 1) - 1
        # What decode needs of each minority set M of at most three columns,
        # in the slot that the syndrome's adjacent-column-pair bits give:
        # bit j is the parity of columns j + 1 and j + 2, so M's slot is
        # P ^ P >> 1 for P the sum of 1 << c - 1 over M.  Slots of patterns
        # with p > 3 or a tie stay empty; decode refuses those first.
        # An entry is (m, p, flip, minority, search, table).  ``flip``,
        # XORed into the syndrome's top bit, is 1 for O when column 1 is a
        # minority column.  ``search`` pairs each coefficient of the first
        # minority column with its packed syndrome multiple when p is odd
        # and is ((0, 0),) otherwise; ``table`` is the pair table of the
        # last two minority columns when p >= 2, else the single-column
        # table.
        multiples = [tuple(enumerate(row)) for row in c4.colmul]
        self._profiles: list[tuple | None] = [None] * (1 << m - 1)
        for p in range(4):
            for minority in combinations(range(1, m + 1), p):
                search, table = ((0, 0),), c4.single
                if p & 1:
                    search = multiples[minority[0]]
                if p >= 2:
                    table = c4.pair_table(*minority[-2:])
                flip = int(variant is Variant.O and 1 in minority)
                pattern = sum(1 << c - 1 for c in minority)
                self._profiles[(pattern ^ pattern >> 1) & self._key_mask] = (
                    m, p, flip, minority, search, table)

    def syndrome_packed(self, word: int) -> int:
        """The code's syndrome; its low byte is the projection's."""
        return self.binary_code.syndrome(word)


def decode(ctx: DecoderContext, received: int) -> DecodeOutcome:
    """Bounded-distance projection decoding of a length-n word."""
    if received >> ctx.n:
        raise ValueError(f"word does not fit in {ctx.n} bits")
    # 0. parities: refuse p > 3 or a tie before reading the syndrome
    t = received ^ received >> 2
    y_odd = ((t ^ t >> 1) & ctx.col_parity_mask).bit_count()
    if ctx._refused_counts >> y_odd & 1:
        return _REFUSED_PARITY
    synd = ctx.syndrome_packed(received)
    info = ctx._profiles[synd >> 8 & ctx._key_mask]
    m, p, flip, minority, search, table = info
    s8 = synd & 255

    # 1. solve: the coefficients of the minority columns, then that of the
    #    other column when one is used
    for e, shift in search:
        rest = s8 ^ shift
        if p >= 2:
            hit = table.get(rest)
            if hit is not None:
                cols, coeffs = minority, (e, *hit)[-p:]
                break
        elif not rest:
            cols, coeffs = minority, (e,) * p
            break
        else:
            hit = table.get(rest)
            if hit is not None and hit[0] not in minority:
                cols, coeffs = minority + hit[:1], (e,) * p + hit[1:]
                break
    else:
        return _REFUSED_UNCORRECTABLE

    # 2. repair: column t of cols is odd (a minority column) when t < p
    diff = 0
    owed = (synd >> ctx._first_row_bit) ^ flip
    t = 0
    for c in cols:
        e = coeffs[t]
        odd = t < p
        nib = select_candidate(e, odd, odd and not e)
        owed ^= nib >> 3
        diff |= nib << 4 * (m - c)
        t += 1
    # the last repaired column takes the first-row flip still owed
    if owed:
        if not cols:
            return _REFUSED_UNCORRECTABLE
        diff ^= 0b1111 << 4 * (m - cols[-1])

    decoded = received ^ diff
    if diff.bit_count() > 3 or decoded not in ctx.binary_code:
        return _REFUSED_UNCORRECTABLE
    return _decoded(decoded, diff, (info, s8))
