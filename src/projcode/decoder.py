"""Projection decoding of the constructed binary codes.

``decode`` corrects every error pattern of weight at most 3 and otherwise
reports failure (bounded-distance decoding; no maximum-likelihood
fallback).  The received word is viewed as a 4 x m array.  Let p be the
number of columns whose parity disagrees with the majority; since at most
three columns can be hit, the majority parity is the parity pi of the
transmitted word's columns, and the p minority columns M are exactly the
columns holding an odd number of errors.

The decoder first counts the odd columns y with one popcount and, by one
bit test on y, refuses p = min(y, m - y) > 3 or a tie, with no syndrome
read.  Any other word reads one syndrome, the code's own over
``projection_checks``, from the code's byte tables in the frame of
``DecoderContext.syndrome_packed``.  Its bits 8 to m + 6, the parities
of adjacent column pairs, give the parity pattern up to complement, so
they index the code's entry for M.  The last check row, the first row
plus column 1 for O, asks a first-row parity of pi for O and 0 for E.

The error in column c projects to a coefficient e_c, and the syndrome's
low byte, that of the projected word, is s = sum of e_c H_c.  One rule
decodes every case:

1. Solve s = sum of e_c H_c over M, plus at most one other column x when
   p <= 1 (two errors in one even column).  Any three columns of H are
   independent, which ``QuaternaryCode`` checks, so the solution is
   unique: one byte of M's solve table, UNSOLVABLE for none.
2. Repair.  A repaired column's error projects to e_c; it is one bit in
   a minority column, the first entry only for e_c = 0, and two bits in
   x.  The entries hold these errors shifted into place, so the byte
   picks at most three to OR, and the repaired word meets every check
   row but perhaps the last.  If one membership read finds no codeword,
   x, or else a lone minority column, swaps its error for the complement
   (XOR 1111): that meets the last row alone and keeps the weight at most
   3.  With no such column (p = 0 without x, or p >= 2), it is refused.
3. Label.  The paper's case a.i - d.iv is derived for the trace only: the
   letter is a, b, c, d for p = 0..3; the numeral is i, ii, ... for 0, 1,
   ... nonzero minority coefficients, continued past those p + 1 numerals
   when x is used; b.i splits into b.i.1 and b.i.2 by the repair of i.

  p=0: a.i   clean word                a.ii  two errors in x
  p=1: b.i.1 first entry of i          b.i.2 rows 2-4 of i
       b.ii  one or three errors in i  b.iii first entry of i, two in x
       b.iv  one error in i, two in x
  p=2: c.i - c.iii  0 - 2 minority columns with a nonzero coefficient
  p=3: d.i - d.iv   0 - 3 minority columns with a nonzero coefficient

Refused besides the parity refusal: an unsolvable syndrome, or an owed
flip with no column to take it.  A success, a ``DecodeOutcome``, is built
with no Python frame.
"""

from __future__ import annotations

import weakref
from itertools import combinations
from typing import NamedTuple

from . import gf4
from .bitlin import BinaryLinearCode
from .projection import (NIBBLE_VALUE, ParityProfile, Variant, construct,
                         parity_profile, select_candidate)
from .quaternary import QuaternaryCode

_new_tuple = tuple.__new__

# the byte of a solve table that no decomposition reaches
UNSOLVABLE = 255

FAIL_PARITY = "parity-inconsistent"
FAIL_UNCORRECTABLE = "uncorrectable"

BRANCHES = ("a.i", "a.ii", "b.i.1", "b.i.2", "b.ii", "b.iii", "b.iv",
            "c.i", "c.ii", "c.iii", "d.i", "d.ii", "d.iii", "d.iv")


class DecodeTrace(NamedTuple):
    """How a successful decode arrived at its answer."""
    profile: ParityProfile
    syndrome: tuple[int, int, int, int]
    branch: str
    corrections: tuple[tuple[int, int, int], ...]  # (column, old, new)
    error_weight: int


class DecodeOutcome(NamedTuple):
    """The read-only result of a decode.

    A successful ``decode`` keeps the code's ``m`` and the projected
    syndrome ``s8``, and builds ``trace`` from them on each read; refusals
    are shared objects, one per reason, with ``trace`` None.  The trace
    determines m and s8, so outcomes are equal exactly when their (ok,
    codeword, error, trace, reason) are.  ``decode`` builds a success with
    ``tuple.__new__``, so no Python frame runs."""

    ok: bool
    codeword: int | None = None
    error: int | None = None
    reason: str | None = None
    m: int | None = None
    s8: int | None = None

    @property
    def trace(self) -> DecodeTrace | None:
        """How the decode arrived at its answer, None for a refusal.  The
        repaired columns and the branch label are read back from the
        error: a minority column's repair is odd, x's even."""
        m, error = self.m, self.error
        if m is None:
            return None
        received = self.codeword ^ error
        nibbles = [(error >> 4 * (m - c)) & 15 for c in range(m + 1)]
        minority, other = [], []
        for c in range(1, m + 1):
            if nibbles[c]:
                (minority if nibbles[c].bit_count() & 1 else other).append(c)
        p = len(minority)
        nonzero = sum(1 for c in minority if NIBBLE_VALUE[nibbles[c]])
        branch = "abcd"[p] + "." + _NUMERALS[nonzero + (p + 1) * len(other)]
        if branch == "b.i":
            branch += ".1" if nibbles[minority[0]] >> 3 else ".2"
        corrections = []
        for c in minority + other:
            old = (received >> 4 * (m - c)) & 15
            corrections.append((c, old, old ^ nibbles[c]))
        return DecodeTrace(profile=parity_profile(received, m),
                           syndrome=gf4.unpack(self.s8, 4), branch=branch,
                           corrections=tuple(corrections),
                           error_weight=error.bit_count())

    def __repr__(self) -> str:
        return (f"DecodeOutcome(ok={self.ok!r}, codeword={self.codeword!r}, "
                f"error={self.error!r}, trace={self.trace!r}, "
                f"reason={self.reason!r})")


# the numeral of a branch label, by its index within the letter
_NUMERALS = ("i", "ii", "iii", "iv")

_REFUSED_PARITY = DecodeOutcome(False, reason=FAIL_PARITY)
_REFUSED_UNCORRECTABLE = DecodeOutcome(False, reason=FAIL_UNCORRECTABLE)


_ENTRIES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _column_repairs(m: int) -> tuple[list, ...]:
    """Column c's odd (minority) repairs in place, by coefficient e: the
    error projecting to e, first entry set only for e = 0; its 1111; and by
    3 (x - 1) + ex, 0 for no x, an extra column x's even repairs and 1111."""
    odd, masks, even, even_mask = [(0,)], [0], [0], [0]
    for c in range(1, m + 1):
        at = 4 * (m - c)
        masks.append(0b1111 << at)
        odd.append(tuple(select_candidate(e, 1, not e) << at
                         for e in gf4.ELEMENTS))
        for e in gf4.NONZERO:
            even.append(select_candidate(e, 0, 0) << at)
            even_mask.append(masks[c])
    return odd, masks, even, even_mask


def _entries(c4: QuaternaryCode, repairs: tuple) -> list[tuple | None]:
    """The entries of ``c4``'s minority sets by slot, built in one pass
    with the first context's column repairs and kept in ``_ENTRIES``,
    weakly keyed, while the code lives.  Byte s of M's solve table is the
    decomposition of the syndrome s over M, UNSOLVABLE for none:
    e1 << 4 | e2 << 2 | e3 for a triple, with e3 = 0 for a pair, and for
    M of at most one column i plus one other column x,
    (3 (x - 1) + ex) << 2 | e1, 0 for no x: below UNSOLVABLE for m <= 16.
    H is a cap, so each decomposition is unique."""
    if c4 in _ENTRIES:
        return _ENTRIES[c4]
    colmul, m = c4.colmul, c4.m
    blank = bytes([UNSOLVABLE]) * 256
    # What decode needs of each minority set M of at most three columns,
    # in the slot that the syndrome's adjacent-column-pair bits give: bit j
    # is the parity of columns j + 1 and j + 2, so M's slot is P ^ P >> 1
    # for P the sum of 1 << c - 1 over M.  Slots of patterns with p > 3 or
    # a tie stay empty; decode refuses those first.  An entry is (m, p,
    # table, a, b, c, last): M's solve table and the repairs its byte
    # picks.  When p >= 2, a, b and c are the odd repairs of M's columns,
    # c (0,) for a pair; when p <= 1, a and b are the even repairs and
    # their columns' 1111, and c is the minority column's odd repairs, (0,)
    # for M = ().  ``last``, which takes a first-row flip that the repaired
    # word still owes its last check row, is the minority column's 1111
    # when p = 1 and 0 otherwise: at p >= 2 its complement would make an
    # error of weight 4 or more.
    entries: list[tuple | None] = [None] * (1 << m - 1)
    odd, masks, even, even_mask = repairs
    # ex H_x and its byte's high bits, for each x and nonzero ex
    extra = [(colmul[x][ex], 3 * (x - 1) + ex << 2)
             for x in range(1, m + 1) for ex in gf4.NONZERO]

    def put(minority: tuple[int, ...], table: bytearray) -> None:
        p = len(minority)
        if 2 * p < m:       # else a tie, or the complement is the minority
            pattern = sum(1 << col - 1 for col in minority)
            # sum(minority) is M's column when p <= 1, 0 for M = ()
            picked = ((even, even_mask, odd[sum(minority)]) if p < 2
                      else [odd[col] for col in (*minority, 0)][:3])
            entries[(pattern ^ pattern >> 1) & len(entries) - 1] = (
                m, p, bytes(table), *picked,
                masks[minority[0]] if p == 1 else 0)

    for i in range(m + 1):
        # M = (i,), whose column is no x, or M = () for i = 0
        table = bytearray(blank)
        others = extra[:max(3 * i - 3, 0)] + extra[3 * i:]
        for e1, s1 in enumerate(colmul[i] if i else (0,)):
            table[s1] = e1
            for s, code in others:
                table[s1 ^ s] = code | e1
        put((i,) if i else (), table)
    for i, j in combinations(range(1, m + 1), 2):
        # each pair from its 16 coefficient sums, then the triples that
        # extend it, each from a copy of the pair's table
        sums = [(si ^ sj, e1 << 4 | e2 << 2)
                for e1, si in enumerate(colmul[i])
                for e2, sj in enumerate(colmul[j])]
        pair = bytearray(blank)
        for s, code in sums:
            pair[s] = code
        put((i, j), pair)
        for k in range(j + 1, m + 1):
            _, k1, k2, k3 = colmul[k]
            table = bytearray(pair)
            for s, code in sums:
                table[s ^ k1] = code | 1
                table[s ^ k2] = code | 2
                table[s ^ k3] = code | 3
            put((i, j, k), table)
    return _ENTRIES.setdefault(c4, entries)


class DecoderContext:
    """Precomputed tables for decoding one (quaternary code, variant) pair."""

    def __init__(self, c4: QuaternaryCode, variant: Variant):
        self.c4 = c4
        self.variant = variant
        self.binary_code: BinaryLinearCode = construct(c4, variant)
        m = c4.m
        self.m = m
        self.n = 4 * m
        # the code's five byte tables, built by its first syndrome, for
        # ``syndrome_packed`` to read in place; None past 40 bits
        self.binary_code.syndrome(0)
        self._synd_tables = (self.binary_code._synd_tables if self.n <= 40
                             else None)
        self.col_parity_mask = int("0001" * m, 2)
        # bit y is set when y odd columns leave p > 3 minority columns or
        # a tie: the parity refusal
        self._refused_counts = sum(1 << y for y in range(m + 1)
                                   if min(y, m - y) > 3 or 2 * y == m)
        self._key_mask = (1 << m - 1) - 1
        # the O and E contexts share the entries; each builds the column
        # repairs, a traced benchmark span, and the first's go into them
        self._profiles = _entries(c4, _column_repairs(m))

    def syndrome_packed(self, word: int) -> int:
        """The code's syndrome; its low byte is the projection's.  Read
        here from the code's five byte tables, with no nested call, when
        n <= 40; ValueError for a word outside 0..2^n - 1."""
        tables = self._synd_tables
        if word >> self.n or tables is None:
            return self.binary_code.syndrome(word)
        t0, t1, t2, t3, t4 = tables
        b0, b1, b2, b3, b4 = word.to_bytes(5, "little")
        return t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4]


def decode(ctx: DecoderContext, received: int) -> DecodeOutcome:
    """Bounded-distance projection decoding of a length-n word."""
    # 0. parities: refuse p > 3 or a tie before reading the syndrome, which
    #    checks the range of any other word
    t = received ^ received >> 2
    y_odd = ((t ^ t >> 1) & ctx.col_parity_mask).bit_count()
    if ctx._refused_counts >> y_odd & 1:
        if received >> ctx.n:
            raise ValueError(f"word does not fit in {ctx.n} bits")
        return _REFUSED_PARITY
    synd = ctx.syndrome_packed(received)
    m, p, table, a, b, c, last = ctx._profiles[
        synd >> 8 & ctx._key_mask]
    s8 = synd & 255

    # 1. solve: one byte, UNSOLVABLE when no decomposition exists
    code = table[s8]
    if code == UNSOLVABLE:
        return _REFUSED_UNCORRECTABLE
    # 2. repair: each coefficient picks its column's repair; for p <= 1 the
    #    byte's high bits number x and its coefficient, and x takes the flip
    if p < 2:
        diff = a[code >> 2] | c[code & 3]
        last = b[code >> 2] or last
    else:
        diff = a[code >> 4] | b[code >> 2 & 3] | c[code & 3]
    decoded = received ^ diff
    # the repaired word meets every check row but perhaps the last, so if
    # it is no codeword, the last repaired column takes the first-row flip;
    # a direct method call: ``in`` would enter through the C slot wrapper
    if not ctx.binary_code.__contains__(decoded):
        if not last:
            return _REFUSED_UNCORRECTABLE
        diff ^= last
        decoded ^= last
    return _new_tuple(DecodeOutcome, (True, decoded, diff, None, m, s8))
