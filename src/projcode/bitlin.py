"""Binary vectors, matrices and linear codes packed into ints.

A length-n bit vector is a plain int: coordinate 1 (leftmost in text form)
is the most significant of the n bits, so ``format_bits(v, n)`` prints the
vector the way a generator matrix row is written.  Matrices are lists of
row ints plus an explicit width.

Weight distributions enumerate the smaller of a code and its dual,
vectorised with numpy on uint64 words (``BinaryLinearCode`` rejects
n > 64), and map a dual distribution back with the MacWilliams identity,
so a [40,22] code costs a sweep of 2^18 words.
``CosetTable`` implements syndrome decoding by stored coset leaders and is
used as the ground-truth decoder in tests.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

_MAX_ENUM_K = 26         # refuse to enumerate more than 2^26 words
_MAX_TABLE_REDUNDANCY = 20   # refuse coset tables beyond 2^20 syndromes
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
    """Format ``v`` as an n-character 0/1 string, optionally space-grouped."""
    s = format(v, f"0{n}b")
    if group:
        s = " ".join(s[i:i + group] for i in range(0, n, group))
    return s


def parse_matrix(text: str) -> tuple[list[int], int]:
    """Parse a matrix: one row per line, 0/1 characters, spaces ignored.

    Blank lines and lines starting with ``#`` are skipped.  Returns
    (rows, n) and requires all rows to have equal length.
    """
    rows: list[int] = []
    n = None
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        v, width = parse_bits(stripped)
        if n is None:
            n = width
        elif width != n:
            raise ValueError(f"line {lineno}: row length {width} != {n}")
        rows.append(v)
    if n is None:
        raise ValueError("no matrix rows found")
    return rows, n


def format_matrix(rows: Iterable[int], n: int, group: int = 0) -> str:
    return "\n".join(format_bits(r, n, group) for r in rows)


# ---------------------------------------------------------------------------
# GF(2) elimination

def _rref_pivots(rows: Sequence[int], n: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    Pivot columns are 0-based from the left (column c is bit n-1-c).
    """
    work = [r for r in rows]
    reduced: list[int] = []
    pivots: list[int] = []
    for col in range(n):
        bit = 1 << (n - 1 - col)
        src = next((i for i, r in enumerate(work) if r & bit), None)
        if src is None:
            continue
        piv = work.pop(src)
        work = [r ^ piv if r & bit else r for r in work]
        reduced = [r ^ piv if r & bit else r for r in reduced]
        reduced.append(piv)
        pivots.append(col)
        if not work:
            break
    return reduced, pivots


def rref(rows: Sequence[int], n: int) -> tuple[list[int], int]:
    """Reduced row echelon form over GF(2): (reduced rows, rank)."""
    reduced, pivots = _rref_pivots(rows, n)
    return reduced, len(pivots)


def rank(rows: Sequence[int], n: int) -> int:
    return rref(rows, n)[1]


def orthogonal(rows: Iterable[int], checks: Sequence[int]) -> bool:
    """True iff every row meets every check in an even number of places."""
    return not any((g & h).bit_count() & 1 for g in rows for h in checks)


def code_equal(a: "BinaryLinearCode", b: "BinaryLinearCode") -> bool:
    """True iff two codes have identical row spaces."""
    if a.n != b.n or a.k != b.k:
        return False
    return rank(list(a.generator) + list(b.generator), a.n) == a.k


# ---------------------------------------------------------------------------
# bulk enumeration helpers

def xor_span(rows: Sequence[int]) -> np.ndarray:
    """All 2^len(rows) XOR combinations as a uint64 array (doubling)."""
    table = np.zeros(1, dtype=np.uint64)
    for r in rows:
        table = np.concatenate([table, table ^ np.uint64(r)])
    return table


def iter_span_chunks(rows: Sequence[int]) -> Iterator[np.ndarray]:
    """Yield the full XOR span of ``rows`` in uint64 chunks.

    The low _CHUNK_ROWS rows form a base table; one chunk per combination
    of the remaining rows.  Every combination appears exactly once.
    """
    base = xor_span(rows[:_CHUNK_ROWS])
    high = rows[_CHUNK_ROWS:]
    if not high:
        yield base
        return
    for hv in xor_span(high):
        yield base ^ hv


def span_distribution(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """(A_0, ..., A_n) of the span of independent ``rows``, no word of
    which weighs more than n, by enumerating all 2^len(rows) words."""
    counts = np.zeros(n + 1, dtype=np.int64)
    for chunk in iter_span_chunks(rows):
        counts += np.bincount(np.bitwise_count(chunk), minlength=n + 1)
    return tuple(int(c) for c in counts)


def _macwilliams(dual_dist: Sequence[int], r: int) -> tuple[int, ...]:
    """The distribution of a code from that of its dual of dimension r:
    A_j = 2^-r sum_i B_i K_j(i), in exact ints.  The Krawtchouk values
    follow (j + 1) K_{j+1}(i) = (n - 2i) K_j(i) - (n - j + 1) K_{j-1}(i)
    from K_0 = 1, K_{-1} = 0."""
    n = len(dual_dist) - 1
    sums = [0] * (n + 1)
    for i, b in enumerate(dual_dist):
        if not b:
            continue
        prev, cur = 0, 1
        for j in range(n + 1):
            sums[j] += b * cur
            prev, cur = cur, ((n - 2 * i) * cur
                              - (n - j + 1) * prev) // (j + 1)
    dist = []
    for j, total in enumerate(sums):
        a, rem = divmod(total, 1 << r)
        if rem:
            raise ValueError(f"MacWilliams sum for A_{j} is not divisible "
                             f"by 2^{r}")
        dist.append(a)
    return tuple(dist)


# ---------------------------------------------------------------------------
# syndrome tables

def _byte_tables(parity_rows: Sequence[int], n: int) -> list[list[int]]:
    """The eight per-byte lookup tables of the syndrome whose bit j is the
    parity of ``parity_rows[j]``, so a syndrome costs one indexing per
    byte: each is the span of its byte's eight unit syndromes, which are
    zero past n."""
    units = [sum(((h >> q) & 1) << j for j, h in enumerate(parity_rows))
             for q in range(n)] + [0] * (-n % 8)
    tables = [xor_span(units[b:b + 8]).tolist() for b in range(0, n, 8)]
    return tables + [[0] * 256] * (8 - len(tables))


class BinaryLinearCode:
    """A binary [n, k] linear code given by k independent generator rows
    and optionally a parity-check basis, which fixes the syndrome's bits."""

    def __init__(self, rows: Sequence[int], n: int,
                 parity_rows: Sequence[int] | None = None):
        if n > 64:
            raise ValueError(f"length {n} exceeds 64 bits")
        self.n = n
        self.generator = tuple(rows)
        self.k = len(self.generator)
        self._parity_rows = given = (None if parity_rows is None
                                     else tuple(parity_rows))
        for row in self.generator + (given or ()):
            if row >> n:
                raise ValueError(f"row {row:#b} does not fit in {n} bits")
        reduced, pivots = _rref_pivots(self.generator, n)
        if len(pivots) != self.k:
            raise ValueError(
                f"generator rows are dependent: rank {len(pivots)} < {self.k}")
        self._reduced = reduced
        self._pivots = pivots
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
            pivot_set = set(self._pivots)
            free = [c for c in range(self.n) if c not in pivot_set]
            rows = []
            for fc in free:
                h = 1 << (self.n - 1 - fc)
                for i, pc in enumerate(self._pivots):
                    if (self._reduced[i] >> (self.n - 1 - fc)) & 1:
                        h |= 1 << (self.n - 1 - pc)
                rows.append(h)
            self._parity_rows = tuple(rows)
        return self._parity_rows

    def syndrome(self, word: int) -> int:
        """The syndrome of a word in 0..2^n - 1: bit j is the parity of
        ``parity_rows[j]`` over the word; ValueError outside that range."""
        if word >> self.n:
            raise ValueError(f"word does not fit in {self.n} bits")
        tables = self._synd_tables
        if tables is None:
            tables = self._synd_tables = _byte_tables(self.parity_rows, self.n)
        t0, t1, t2, t3, t4, t5, t6, t7 = tables
        b0, b1, b2, b3, b4, b5, b6, b7 = word.to_bytes(8, "little")
        return (t0[b0] ^ t1[b1] ^ t2[b2] ^ t3[b3]
                ^ t4[b4] ^ t5[b5] ^ t6[b6] ^ t7[b7])

    def __contains__(self, word: int) -> bool:
        try:
            return self.syndrome(word) == 0
        except ValueError:      # not a word of length n
            return False

    # -- weight distribution -----------------------------------------------

    def weight_distribution(self) -> tuple[int, ...]:
        """(A_0, ..., A_n), enumerating the smaller of the code and its dual.

        ``parity_rows`` are a basis of the dual.  When the dual is smaller
        (n - k < k) its distribution is mapped back with the MacWilliams
        identity; the enumeration budget applies to the side enumerated."""
        r = self.n - self.k
        dim = min(self.k, r)
        if dim > _MAX_ENUM_K:
            raise ValueError(f"min(k, n-k) = {dim} exceeds enumeration "
                             f"budget {_MAX_ENUM_K}")
        if r < self.k:
            return _macwilliams(span_distribution(self.parity_rows, self.n), r)
        return span_distribution(self.generator, self.n)

    def min_distance(self) -> int:
        dist = self.weight_distribution()
        return next(i for i in range(1, self.n + 1) if dist[i])


class CosetTable:
    """Coset leaders for every syndrome reachable by weight <= max_weight.

    Built by enumerating error patterns of weight 0, 1, 2, ... with
    positions in left-to-right order; the first pattern to reach a
    syndrome wins, so stored leaders are minimum-weight and ties resolve
    to the lexicographically smallest position tuple.
    """

    def __init__(self, code: BinaryLinearCode, max_weight: int = 3):
        if code.n - code.k > _MAX_TABLE_REDUNDANCY:
            raise ValueError(f"n-k = {code.n - code.k} exceeds table budget "
                             f"{_MAX_TABLE_REDUNDANCY}")
        self.code = code
        n = code.n
        # unit syndrome by 1-based coordinate (coordinate c is bit n-c)
        by_coord = [code.syndrome(1 << (n - c)) for c in range(1, n + 1)]
        leaders: dict[int, int] = {0: 0}
        for w in range(1, max_weight + 1):
            for coords in itertools.combinations(range(1, n + 1), w):
                s = 0
                e = 0
                for c in coords:
                    s ^= by_coord[c - 1]
                    e |= 1 << (n - c)
                if s not in leaders:
                    leaders[s] = e
        self.leaders = leaders

    def decode(self, word: int) -> int | None:
        """Nearest codeword by coset leader, or None if the syndrome is
        outside the table (word further than max_weight from the code).
        A word outside 0..2^n - 1 raises ValueError."""
        leader = self.leaders.get(self.code.syndrome(word))
        if leader is None:
            return None
        return word ^ leader
