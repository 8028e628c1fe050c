"""Binary vectors, matrices and linear codes packed into ints.

A length-n bit vector is a plain int: coordinate 1 (leftmost in text form)
is the most significant of the n bits, so ``format_bits(v, n)`` prints the
vector the way a generator matrix row is written.  Matrices are lists of
row ints plus an explicit width.

A weight distribution enumerates all 2^k codewords, vectorised with
numpy on uint64 words (``BinaryLinearCode`` rejects n > 64), and refuses
k > 26; the constructed codes of ``projection`` use a closed form
instead, so the codes enumerated are the quaternary codes' images.
A syndrome is one lookup per byte of the word, in tables spanned by that
byte's unit syndromes: five tables for n <= 40, ceil(n / 8) past.
``syndrome`` is the one general read, a loop over the tables at every
length; ``in``, ``CosetTable.decode`` and the decoder's
``syndrome_packed``, which run once per checked word, do the five-table
read unrolled in their own frame, with no nested call, and call
``syndrome`` past 40 bits.
``CosetTable`` implements syndrome decoding by stored coset leaders for
every error of weight <= 3, and is the ground-truth decoder of the tests,
``exhaust`` and ``decode --oracle``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

_MAX_ENUM_K = 26         # refuse to enumerate more than 2^26 words
_CHUNK_ROWS = 16         # enumeration chunk size: 2^16 words at a time


# ---------------------------------------------------------------------------
# text formats

def parse_bits(text: str) -> tuple[int, int]:
    """Parse a 0/1 string (spaces ignored) into (value, length)."""
    s = "".join(text.split())
    if not s:
        raise ValueError("empty bit string")
    if s.strip("01"):
        bad = next(c for c in s if c not in "01")
        raise ValueError(f"not a binary digit: {bad!r}")
    return int(s, 2), len(s)


def format_bits(v: int, n: int, group: int = 0) -> str:
    """Format a word in 0..2^n - 1 as an n-character 0/1 string, optionally
    space-grouped; ValueError outside that range."""
    if v >> n:
        raise ValueError(f"word does not fit in {n} bits")
    s = format(v, f"0{n}b") if n else ""
    if group:
        s = " ".join(s[i:i + group] for i in range(0, n, group))
    return s


def matrix_rows(text: str, parse_row: Callable) -> tuple[list, int]:
    """Read a matrix: one row per line, which ``parse_row`` turns into
    (row, length); blank lines and lines starting with ``#`` are skipped.
    Returns (rows, n); ValueError for no rows, or naming the line of a row
    of another length or one that ``parse_row`` rejects.
    """
    rows = []
    n = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            row, width = parse_row(stripped)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if n is None:
            n = width
        elif width != n:
            raise ValueError(f"line {lineno}: row length {width} != {n}")
        rows.append(row)
    if n is None:
        raise ValueError("no matrix rows found")
    return rows, n


def parse_matrix(text: str) -> tuple[list[int], int]:
    """Parse a 0/1 matrix (spaces ignored) with ``matrix_rows``."""
    return matrix_rows(text, parse_bits)


def format_matrix(rows: Iterable[int], n: int, group: int) -> str:
    return "\n".join(format_bits(r, n, group) for r in rows)


# ---------------------------------------------------------------------------
# GF(2) elimination

def _echelon(rows: Iterable[int], n: int) -> dict[int, int]:
    """An echelon basis keyed by leading bit length: each row XORs in the
    kept row of its leading bit until that bit is new or the row vanishes.
    ValueError for a row that does not fit in n bits."""
    basis: dict[int, int] = {}
    for row in rows:
        if row >> n:
            raise ValueError(f"row {row:#b} does not fit in {n} bits")
        while row and (lead := row.bit_length()) in basis:
            row ^= basis[lead]
        if row:
            basis[lead] = row
    return basis


def rref(rows: Sequence[int], n: int) -> tuple[list[int], int]:
    """Reduced row echelon form over GF(2): (nonzero reduced rows, rank) in
    pivot order, from the echelon basis back-substituted lowest pivot first."""
    done: dict[int, int] = {}           # pivot bit -> its reduced row
    for lead, row in sorted(_echelon(rows, n).items()):
        for bit, piv in done.items():
            if row & bit:
                row ^= piv
        done[1 << lead - 1] = row
    return list(done.values())[::-1], len(done)


def rank(rows: Sequence[int], n: int) -> int:
    return len(_echelon(rows, n))


def orthogonal(rows: Sequence[int], checks: Sequence[int]) -> bool:
    """True iff every row meets every check in an even number of places:
    a check copied into each power-of-two slot of the packed rows meets all
    in one AND; halving folds leave each slot's parity in its low bit."""
    width = max(map(int.bit_length, (*rows, *checks)), default=0)
    slot = 1 << (width - 1).bit_length()
    packed = ones = 0                   # ones: the low bit of every slot
    for g in rows:
        packed = packed << slot | g
        ones = ones << slot | 1
    folds = [slot >> j for j in range(1, slot.bit_length())]
    for h in checks:
        x = packed & h * ones
        for shift in folds:
            x ^= x >> shift
        if x & ones:
            return False
    return True


# ---------------------------------------------------------------------------
# spans

def xor_span(rows: Sequence[int]) -> np.ndarray:
    """All 2^len(rows) XOR combinations as a uint64 array (doubling)."""
    table = np.zeros(1, dtype=np.uint64)
    for r in rows:
        table = np.concatenate([table, table ^ np.uint64(r)])
    return table


# ---------------------------------------------------------------------------
# syndrome tables

def _byte_tables(parity_rows: Sequence[int], n: int) -> list[list[int]]:
    """The per-byte lookup tables of the syndrome whose bit j is the
    parity of ``parity_rows[j]``, so a syndrome costs one indexing per
    byte: each is the span of its byte's unit syndromes below n, as long
    as the range check in ``syndrome`` lets that byte be, and a byte past
    n, always 0, shares one ``[0]``.  There are five tables for n <= 40,
    which covers the constructed codes, and ceil(n / 8) past 40 bits."""
    units = [0] * n
    for j, h in enumerate(parity_rows):
        while h:                        # one pass per set bit of the row
            low = h & -h
            units[low.bit_length() - 1] |= 1 << j
            h ^= low
    tables = [xor_span(units[b:b + 8]).tolist() for b in range(0, n, 8)]
    return tables + [[0]] * (5 - len(tables))


class BinaryLinearCode:
    """A binary [n, k] linear code given by k independent generator rows
    and optionally a parity-check basis, which fixes the syndrome's bits."""

    def __init__(self, rows: Sequence[int], n: int,
                 parity_rows: Sequence[int] | None = None):
        if not 0 <= n <= 64:
            raise ValueError(f"length {n} is outside 0..64")
        self.n = n
        self.generator = tuple(rows)
        self.k = len(self.generator)
        self._parity_rows = given = (None if parity_rows is None
                                     else tuple(parity_rows))
        leads = sorted(_echelon(self.generator, n), reverse=True)
        if len(leads) != self.k:
            raise ValueError(f"generator rows are dependent: rank "
                             f"{len(leads)} < {self.k}")
        self._pivots = [n - lead for lead in leads]
        if given is not None:
            if len(given) != n - self.k or rank(given, n) != len(given):
                raise ValueError(f"parity rows are not {n - self.k} "
                                 f"independent rows")
            if not orthogonal(self.generator, given):
                raise ValueError("parity rows are not orthogonal to the code")
        self._synd_tables: list[list[int]] | None = None

    # -- encoding ----------------------------------------------------------

    def encode(self, message: int) -> int:
        """Multiply a k-bit message (MSB = first coordinate) by the generator."""
        if message >> self.k:
            raise ValueError(f"message does not fit in {self.k} bits")
        word = 0
        for i, row in enumerate(self.generator):
            if (message >> (self.k - 1 - i)) & 1:
                word ^= row
        return word

    # -- parity checks -----------------------------------------------------

    @property
    def parity_rows(self) -> tuple[int, ...]:
        """(n-k) parity-check rows, given or derived from the generator."""
        if self._parity_rows is None:
            # free column c's check: c and the pivots whose rows hold c
            n, reduced = self.n, rref(self.generator, self.n)[0]
            self._parity_rows = tuple(
                1 << n - 1 - c | sum(1 << n - 1 - pc for pc, row
                                     in zip(self._pivots, reduced)
                                     if row >> n - 1 - c & 1)
                for c in range(n) if c not in self._pivots)
        return self._parity_rows

    def syndrome(self, word: int) -> int:
        """The syndrome of a word in 0..2^n - 1: bit j is the parity of
        ``parity_rows[j]`` over the word; ValueError outside that range."""
        n = self.n
        if word >> n:
            raise ValueError(f"word does not fit in {n} bits")
        tables = self._synd_tables
        if tables is None:
            tables = self._synd_tables = _byte_tables(self.parity_rows, n)
        synd = 0
        for table, byte in zip(tables, word.to_bytes(len(tables), "little")):
            synd ^= table[byte]
        return synd

    def __contains__(self, word: int) -> bool:
        # the five-table read of ``syndrome``, in place: the decoder reads
        # it once per repaired word to decide the owed first-row flip
        n = self.n
        if word >> n:           # not a word of length n
            return False
        tables = self._synd_tables
        if tables is None or n > 40:
            return not self.syndrome(word)
        t0, t1, t2, t3, t4 = tables
        b0, b1, b2, b3, b4 = word.to_bytes(5, "little")
        return not t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4]

    # -- weight distribution -----------------------------------------------

    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_n) by enumerating all 2^k codewords, 2^16 at a
        time: the span of the low 16 rows, XORed with each word of the
        span of the rest.  ValueError for k above the budget of 26."""
        if self.k > _MAX_ENUM_K:
            raise ValueError(f"k = {self.k} exceeds enumeration budget "
                             f"{_MAX_ENUM_K}")
        rows = self.generator
        base = xor_span(rows[:_CHUNK_ROWS])
        counts = np.zeros(self.n + 1, dtype=np.int64)
        for high in xor_span(rows[_CHUNK_ROWS:]):
            counts += np.bincount(np.bitwise_count(base ^ high),
                                  minlength=self.n + 1)
        return tuple(int(c) for c in counts)

    def min_distance(self) -> int:
        return min_weight(self.weight_distribution())


def min_weight(dist: Sequence[int]) -> int:
    """The least nonzero weight of a distribution (A_0, A_1, ...);
    ValueError when it counts no nonzero codeword."""
    d = next((w for w, a in enumerate(dist) if w and a), None)
    if d is None:
        raise ValueError("no nonzero codeword: minimum distance undefined")
    return d


class CosetTable:
    """Coset leaders for every syndrome reachable by an error of weight
    <= 3, the decoder's radius: at most sum_{w <= 3} C(n, w) entries.

    Built by enumerating error patterns of weight 0, 1, 2, 3 with
    positions in left-to-right order; the first pattern to reach a
    syndrome wins, so stored leaders are minimum-weight and ties resolve
    to the lexicographically smallest position tuple.  Each pattern is a
    lower-weight prefix extended by one later position.
    """

    def __init__(self, code: BinaryLinearCode):
        self.code = code
        # (unit syndrome, unit bit) by position, left to right
        units = [(code.syndrome(1 << b), 1 << b) for b in range(code.n)][::-1]
        leaders: dict[int, int] = {0: 0}
        add = leaders.setdefault
        for s, e in units:
            add(s, e)
        for i, (s, e) in enumerate(units, 1):
            for s2, e2 in units[i:]:
                add(s ^ s2, e | e2)
        for i, (s, e) in enumerate(units, 1):
            for j, (s2, e2) in enumerate(units[i:], i + 1):
                s2 ^= s
                e2 |= e
                for s3, e3 in units[j:]:
                    add(s2 ^ s3, e2 | e3)
        self.leaders = leaders
        self._n = code.n
        # the code's five byte tables, built by the unit syndromes above,
        # for ``decode`` to read in place; None past 40 bits
        self._tables = code._synd_tables if code.n <= 40 else None

    def decode(self, word: int) -> int | None:
        """Nearest codeword by coset leader, or None if the syndrome is
        outside the table (word further than 3 from the code).
        A word outside 0..2^n - 1 raises ValueError."""
        tables = self._tables
        if word >> self._n or tables is None:
            synd = self.code.syndrome(word)
        else:
            t0, t1, t2, t3, t4 = tables
            b0, b1, b2, b3, b4 = word.to_bytes(5, "little")
            synd = t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3] ^ t4[b4]
        leader = self.leaders.get(synd)
        if leader is None:
            return None
        return word ^ leader
