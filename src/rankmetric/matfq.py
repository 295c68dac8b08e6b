"""Exact linear algebra over F_q: matrices, canonical subspaces, Grassmannians.

Matrices are immutable value types with entries 0..q-1 (integer encoding of
F_q, see :mod:`rankmetric.ff`).  Subspaces of F_q^n are kept in reduced row
echelon form, so equal subspaces compare equal and enumeration is canonical.
``grassmannian_order_key`` places a subspace in that enumeration order, and
``_singer_orbits`` lists the RREF basis, as elements of F_{q^m}, of one
subspace per orbit of Gr(m, t) under multiplication by F_{q^m}^*, walking
the smaller of Gr(m, t) and Gr(m, m - t), for the Gabidulin witnesses.

Linear algebra runs on two elimination algorithms, each in a scalar form and
a numpy form over a stack: Gauss-Jordan reduction to RREF for every q
(``_gauss_jordan`` and ``_rrefs``), and an XOR basis at q = 2, keyed by
leading bit in ``_column_rank``, and in ``_elimination_ranks`` one unsigned
vector per column reduced by ``minimum(v, v ^ b)``.  Every
rank question (``rank``, ``subspace_distance`` and the rank of a vector over
F_{q^m}) is the XOR basis at q = 2 and the pivot count of ``_gauss_jordan``
at q > 2: ``rank`` hands its rows to ``_gauss_jordan`` as they are, the rank
of a vector goes through ``_column_rank``.  ``_column_ranks`` ranks a stack of
words of n entries: while the space has q^{mn} <= _RANK_TABLE_MAX (2^16)
matrices by one gather from ``_rank_table``, a cached read-only copy of
``_space_ranks``, which ranks every matrix of a whole m x n space with no
elimination, from span tables of the column prefixes the matrices share;
above that by ``_elimination_ranks`` (the XOR basis at q = 2, the pivot
counts of ``_rrefs`` at q > 2).  ``rank_distances`` is the one entry point
for the rank distances of words to a word: ``_column_rank`` per word, or in
numpy ``_block_distances`` per block of words, the step that the oracle's
decoding lists also take on their codeword blocks.  ``_word_sums`` alone
adds and subtracts numpy words: XOR at p = 2, at odd p one read of a cached
Q x Q table (``_sum_table``) per term while Q^2 <= _RANK_TABLE_MAX, Q = q^m,
base-p digits above that.  Over F_q both RREF kernels and the span tables
read one row-operation table per base field,
``BaseField._axpy[c][x][y] = x - c y``; a row combination over F_{q^m} is
``_combine`` (scalar) or a sum of ``_row_tables`` (numpy).
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

from . import ff
from .bounds import gaussian_binomial
from .ff import Field, base_field, json_int, json_key, json_list

# the most items one call walks: codewords, cosets, subspaces or matrices
ENUMERATION_GUARD = 1 << 24


def _entries(row: Iterable) -> tuple[int, ...]:
    """``row`` as a tuple of ints, read with ``operator.index``: numpy
    integers pass, floats, strings and None raise ValueError rather than
    being truncated or parsed by ``int``."""
    row = tuple(row)
    try:
        return tuple(map(operator.index, row))
    except TypeError:
        for x in row:
            try:
                operator.index(x)
            except TypeError:
                raise ValueError(f"entries must be integers, got {x!r}") from None
        raise


@dataclass(frozen=True)
class MatrixFq:
    """Dense matrix over F_q; ``rows`` may be empty (0 x ncols)."""

    q: int
    rows: tuple[tuple[int, ...], ...]
    ncols: int = field(default=-1)

    def __post_init__(self):
        rows = tuple(map(_entries, self.rows))
        object.__setattr__(self, "rows", rows)
        ncols = self.ncols
        if ncols < 0:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        object.__setattr__(self, "ncols", ncols)
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            if r and (min(r) < 0 or max(r) >= self.q):
                raise ValueError(f"entries must lie in 0..{self.q - 1}")

    @classmethod
    def _unchecked(cls, q: int, rows: tuple[tuple[int, ...], ...], ncols: int) -> "MatrixFq":
        """A matrix from a tuple of equal-length int tuples with entries in
        0..q-1, without the checks of ``__post_init__``."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "q", q)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "ncols", ncols)
        return mat

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def to_jsonable(self) -> list[list[int]]:
        return [list(r) for r in self.rows]


def rref(mat: MatrixFq) -> tuple[MatrixFq, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns."""
    rows = list(mat.rows)
    pivots = _gauss_jordan(rows, mat.ncols, base_field(mat.q))
    return MatrixFq._unchecked(mat.q, tuple(rows), mat.ncols), pivots


def _gauss_jordan(rows: list[Sequence[int]], ncols: int, F) -> tuple[int, ...]:
    """Reduce the list ``rows`` of rows of elements of F (F_q or F_{q^m}) in
    place to RREF; returns the pivot columns.

    Rows are swapped and replaced by ``F.scale_row`` and ``F.axpy_row``
    (table lookups for a ``BaseField``), never mutated, so they may be tuples.
    """
    pivots = []
    nrows, r = len(rows), 0
    for c in range(ncols):
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        lead = rows[r][c]
        if lead != 1:
            rows[r] = F.scale_row(F.inv(lead), rows[r])
        pivot_row = rows[r]
        for i in range(nrows):
            coef = rows[i][c]
            if coef and i != r:
                rows[i] = F.axpy_row(coef, rows[i], pivot_row)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


def rank(mat: MatrixFq) -> int:
    """Rank over F_q: at q > 2 the pivot count of ``_gauss_jordan`` on the
    rows, at q = 2 ``_column_rank`` of the rows read as bits, entry j of a
    row being bit j."""
    if mat.q > 2:
        return len(_gauss_jordan(list(mat.rows), mat.ncols, base_field(mat.q)))
    packed = []
    for row in mat.rows:
        v = 0
        for x in reversed(row):
            v = v * 2 + x
        packed.append(v)
    return _column_rank(packed, 2, mat.ncols, mat.nrows)


def rank_of_vector(vec: Sequence[int], fld: Field) -> int:
    """Rank of the F_q matrix expansion of a vector over F_{q^m}."""
    return _column_rank(vec, fld.q, fld.m, len(vec))


def _column_rank(cols: Sequence[int], q: int, m: int, limit: int) -> int:
    """F_q-rank of the m x len(cols) matrix whose column j holds the base-q
    digits of the F_{q^m} element cols[j]; at q = 2 it stops at limit + 1
    once the rank exceeds limit.

    q = 2 keeps an XOR basis keyed by leading bit; q > 2 counts the pivots of
    ``_gauss_jordan`` on the digit rows.  Elements are not range checked.
    """
    if q == 2:
        basis: dict[int, int] = {}
        for v in cols:
            while v:
                lead = v.bit_length()
                b = basis.get(lead)
                if b is None:
                    basis[lead] = v
                    if len(basis) > limit:
                        return len(basis)
                    break
                v ^= b
        return len(basis)
    return len(_gauss_jordan([ff._digits(a, q, m) for a in cols], m, base_field(q)))


# _batched weighs the work a call's scalar path would do, in scalar rank
# computations, against a floor.  While numpy is not yet imported the floor
# is _BATCH_MIN: a one-shot run must not pay numpy's import (37-62 ms) to
# save less work than that.  Once numpy is loaded only its per-call overhead
# is left, and _BATCH_MIN_LOADED is the lowest power of two at which numpy
# wins at every q measured: 32 rank distances take 0.043 ms scalar against
# 0.015 ms batched at q=2, m=n=4, 0.28 against 0.015 ms at q=3, m=n=3, 0.23
# against 0.12 ms at q=2, m=n=16 and 4.5 against 0.66 ms at q=3, m=n=12,
# while 16 at q=2, m=n=16 take 0.11 ms either way (8: 0.06 scalar against
# 0.10 ms); a 256-word decoding list (1024 work) takes 1.15 ms scalar
# against 0.035 ms batched.  Batched, a rank read from a rank table
# (q^{mn} <= _RANK_TABLE_MAX) costs 0.005-0.008 us at every q once the table
# is built (0.01-8 ms per space); by elimination it costs 0.007-0.02 us at
# q=2 (m=n=4..8) and 0.37-0.82 us at q>2.  Figures from a 2-vCPU Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6.
_BATCH_MIN = 1 << 17
_BATCH_MIN_LOADED = 32
# scalar work per item, in ranks: one ``_combine`` call (a codeword from its
# message, or a membership test from the unit keys), 5-23 us at q=2, m=4..8
_CODEWORD_WORK = 4
_BATCH_ROWS = 1 << 12  # words ranked per numpy block
_BATCH_ORDER = 1 << 32  # larger fields keep to the scalar loop
# spaces of at most this many matrices are ranked from a cached table (one
# byte per matrix), and odd-p fields of at most its square root elements
# add and subtract from cached sum tables
_RANK_TABLE_MAX = 1 << 16


def _digits(a, base: int, width: int):
    """Base-``base`` digits of the integer array ``a``, least significant first,
    on a new last axis (uint8 when base <= 256): one divmod by the scalar base
    per digit, which numpy runs 2-3x faster than a division by every power."""
    import numpy as np

    a = np.asarray(a, dtype=np.int64)
    digits = np.empty(a.shape + (width,), dtype=np.uint8 if base <= 256 else np.int64)
    for i in range(width):
        a, digits[..., i] = np.divmod(a, base)
    return digits


def _undigits(digits, base: int):
    """Inverse of ``_digits`` along the last axis, as int64."""
    import numpy as np

    return digits @ base ** np.arange(digits.shape[-1], dtype=np.int64)


def _word_sums(fld: Field, terms: Iterable, sign: int = 1):
    """terms[0] + sign terms[1] + sign terms[2] + ... over F_{q^m}, sign = 1
    or -1, for integer arrays of elements, broadcast: the one place that
    decides how elements are added.  XOR at p = 2; at odd p one read of
    ``_sum_table`` per term while it has at most _RANK_TABLE_MAX entries,
    else digitwise mod p, each term split into its base-p digits once and
    the sum packed once.  The terms are read one at a time, in order."""
    terms = iter(terms)
    total, p = next(terms), fld.char
    if p == 2:
        for term in terms:
            total = total ^ term
        return total
    width = fld.m * fld.base.e
    if fld.order**2 <= _RANK_TABLE_MAX:
        table = _sum_table(p, width, sign)
        for term in terms:
            total = table[total, term]
        return total
    total = _digits(total, p, width)
    for term in terms:
        digits = _digits(term, p, width)
        total = (total + (digits if sign == 1 else p - digits)) % p
    return _undigits(total, p)


@lru_cache(maxsize=32)
def _sum_table(p: int, width: int, sign: int):
    """x + sign y at [x, y] for x, y in F_{p^width}, p^width <= 256, sign =
    1 or -1, a read-only int64 array kept per (p, width, sign): addition is
    digitwise mod p, so it ignores the modulus.  The twenty odd-p tables take
    1.4 MB together.  Built one digit at a time in int16."""
    import numpy as np

    values = np.arange(p**width, dtype=np.int16)
    table = np.zeros((len(values), len(values)), dtype=np.int64)
    for i in range(width):
        digit = values // p**i % p
        table += (digit[:, None] + sign * digit) % p * p**i
    table.flags.writeable = False
    return table


@lru_cache(maxsize=64)
def _log_arrays(fld: Field):
    """(log, exp) of ``fld`` as read-only int64 arrays, kept per field, with
    log 0 pointing past two periods of exp, into zeros: exp[log a + log b] = a b."""
    import numpy as np

    n1 = fld.order - 1
    log, exp = np.asarray(fld._log, dtype=np.int64), np.zeros(4 * n1 + 1, dtype=np.int64)
    log[0], exp[:n1], exp[n1 : 2 * n1] = 2 * n1, fld._exp, fld._exp
    log.flags.writeable = exp.flags.writeable = False
    return log, exp


def _products(fld: Field, a, b):
    """a * b over F_{q^m} for integer arrays a and b, broadcast, as int64:
    from ``_log_arrays`` when ``fld`` has log tables, else one ``Field.mul``
    per entry."""
    import numpy as np

    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    if fld._exp is None:
        return np.frompyfunc(fld.mul, 2, 1)(a, b).astype(np.int64)
    log, exp = _log_arrays(fld)
    return exp[log[a] + log[b]]


def _combine(fld: Field, coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """sum_i coeffs[i] rows[i] over F_{q^m}, a word of ``width`` entries: the
    scalar form of the row combination whose numpy form sums ``_row_tables``."""
    add, mul, total = fld.add, fld.mul, (0,) * width
    for c, row in zip(coeffs, rows):
        if c:
            total = [add(x, mul(c, y)) for x, y in zip(total, row)]
    return tuple(total)


def _row_tables(fld: Field, rows: Sequence[Sequence[int]]) -> list:
    """Per row of ``rows``, the int64 table of its multiples x row, x in
    F_{q^m}: ``_table_sums(_row_tables(fld, rows), c, fld)`` is the
    ``_combine`` of every coefficient row of the array c."""
    import numpy as np

    xs = np.arange(fld.order)[:, None]
    return [_products(fld, xs, row) for row in rows]


def _table_sums(tables, index, fld: Field):
    """sum over j of tables[j][index[..., j]] over F_{q^m}, for tables made
    by ``_row_tables``, added by ``_word_sums``."""
    return _word_sums(fld, (table[index[..., j]] for j, table in enumerate(tables)))


def _outer_sums(a, b, fld: Field):
    """a[i] + b[j] over F_{q^m} at row i len(b) + j, for integer arrays of
    words, added by ``_word_sums``."""
    return _word_sums(fld, (a[:, None], b)).reshape(-1, *b.shape[1:])


def _column_ranks(words, q: int, m: int):
    """``_column_rank`` of every row of the integer array ``words`` (one
    F_{q^m} word of n entries per row, q^m <= 2^32), as an int64 array.

    While the space has q^{mn} <= _RANK_TABLE_MAX matrices the ranks are one
    gather from ``_rank_table``, at the index sum_j w_j (q^m)^j of each
    word w; larger spaces are ranked by ``_elimination_ranks``.
    """
    import numpy as np

    words = np.asarray(words, dtype=np.int64)
    n = words.shape[1]
    if q ** (m * n) > _RANK_TABLE_MAX:
        return _elimination_ranks(words, q, m)
    return _rank_table(q, m, n)[words @ (q**m) ** np.arange(n, dtype=np.int64)].astype(np.int64)


def _elimination_ranks(words, q: int, m: int):
    """``_column_ranks`` by elimination, for a space of any size.

    q = 2 keeps, per row, an XOR basis of one unsigned integer per column.
    Each column is reduced by the vectors before it, in order, with
    ``minimum(v, v ^ b)``: v ^ b < v exactly when v has b's leading bit set,
    so each step clears that bit.  Every vector was reduced so before it
    joined, so it has none of the earlier vectors' leading bits, and no step
    sets a bit that an earlier step cleared.  A column ends at zero exactly
    when it depends on the columns before it, so the rank is the count of
    nonzero vectors, after n(n - 1)/2 steps of two numpy calls each on
    whole columns of the block, whatever m is.  q > 2 counts the pivots of
    ``_rrefs`` on the (rows, n, m) uint8 stack of base-q digits.
    """
    import numpy as np

    words = np.asarray(words, dtype=np.int64)
    if q == 2:
        dtype = np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32
        basis = []
        for v in np.array(words.T, dtype=dtype, order="C"):  # one contiguous row per column
            for b in basis:
                np.minimum(v, v ^ b, out=v)
            basis.append(v)
        return np.count_nonzero(basis, axis=0) if basis else np.zeros(len(words), dtype=np.int64)
    return _rrefs(_digits(words, q, m), q)[1]


@lru_cache(maxsize=16)
def _rank_table(q: int, m: int, n: int):
    """``_space_ranks(q, m, n)`` made read-only, kept for the last 16 spaces
    asked for; ``_column_ranks`` reads it for spaces of at most
    _RANK_TABLE_MAX matrices, so the tables hold at most 1 MB together."""
    ranks = _space_ranks(q, m, n)
    ranks.flags.writeable = False
    return ranks


def _space_ranks(q: int, m: int, n: int):
    """The F_q-rank of every m x n matrix over F_q, as a uint8 array in the
    index order of ``_digits(np.arange(q**(m*n)), q**m, n)``: column j of
    matrix i is the base-q^m digit j of i, read as ``_column_rank`` reads an
    F_{q^m} element.

    Matrices that share their first columns share the work on them, since
    rank([P | w]) = rank(P) + [w not in colspan(P)].  The columns are walked
    in order, and each prefix P before the last column keeps a boolean table
    over the q^m column values of its span; the span of [P | w] is the union
    over a in F_q of span(P) + a w, read at x - a w, which is taken digitwise
    from ``BaseField._axpy`` (XOR at q = 2).  So each rank is one gather from
    the tables of its own entries, with no elimination and no counting
    formula, and the closed-form ball volumes stay an independent check.

    Ranks are uint8 and tables bool: the last table and the result take one
    byte per matrix each, and the last column is ranked _BATCH_ROWS prefixes
    at a time.
    """
    import numpy as np

    order = q**m
    ranks = np.zeros(1, dtype=np.uint8)
    if n == 0:
        return ranks
    span = np.zeros((1, order), dtype=bool)
    span[0, 0] = True  # the empty prefix spans {0}
    if n > 1:  # then order**2 <= q**(m*n), so no array over the column values spans the space
        values = np.arange(order)
        if q == 2:
            def shifted(a, ws):  # x - a w for every x, one row per w of ws
                return ws[:, None] ^ values
        else:
            axpy, digits = np.array(base_field(q)._axpy, dtype=np.uint8), _digits(values, q, m)

            def shifted(a, ws):
                return _undigits(axpy[a][digits, _digits(ws, q, m)[:, None, :]], q)

    for _ in range(n - 1):
        prefixes = len(ranks)
        ranks = (ranks + ~span.T).reshape(-1)  # [w, P] for the prefixes [P | w]
        grown = np.empty((order, prefixes, order), dtype=bool)
        # a block of ws gathers at most _BATCH_ROWS tables of order entries,
        # and shifts at most _BATCH_ROWS entries (9m + 8 bytes each at q > 2)
        step = max(1, _BATCH_ROWS // max(prefixes, order))
        for lo in range(0, order, step):
            ws, block = values[lo : lo + step], grown[lo : lo + step]
            block[...] = span
            for a in range(1, q):
                block |= np.take(span, shifted(a, ws), axis=1).transpose(1, 0, 2)
        span = grown.reshape(-1, order)
    out = np.empty((order, len(ranks)), dtype=np.uint8)
    for lo in range(0, len(ranks), _BATCH_ROWS):
        out[:, lo : lo + _BATCH_ROWS] = ranks[lo : lo + _BATCH_ROWS] + ~span[lo : lo + _BATCH_ROWS].T
    return out.reshape(-1)


def _rrefs(block, q: int):
    """``rref`` of every matrix of the (N, r, c) uint8 stack ``block`` over
    F_q: the reduced stack and the ranks, an int64 array.

    The numpy twin of ``_gauss_jordan``: column by column, every matrix with
    a nonzero entry at or below its next pivot row swaps the first such row
    up, scales it by the inverse of its lead and clears the column from each
    other row, through the base-field tables.  Zero rows and columns appended
    to a matrix stay zero and leave the rest of its RREF as it is.

    The stack is reduced as an (r, c, N) copy, matrix index last, so each
    elementwise step runs numpy's inner loop over N entries rather than c:
    the (N, r, c) layout took 1.3-1.6x as long at N = 100..20000, r, c <= 8
    (numpy 2.4, 2-vCPU VM).
    """
    import numpy as np

    F = base_field(q)
    mul, inv = np.array(F._mul, dtype=np.uint8), np.array(F._inv, dtype=np.uint8)
    axpy = np.array(F._axpy, dtype=np.uint8).reshape(-1)  # axpy[(a q + x) q + y] = x - a y
    index = np.min_scalar_type(q**3 - 1)
    count, nrows, ncols = np.shape(block)
    work = np.array(np.transpose(block, (1, 2, 0)), dtype=np.uint8, order="C")
    ranks = np.zeros(count, dtype=np.int64)
    row_ids = np.arange(nrows)[:, None]
    for c in range(ncols):
        candidates = (work[:, c] != 0) & (row_ids >= ranks)
        found = np.flatnonzero(candidates.any(axis=0))
        if not found.size:
            continue
        r, i = ranks[found], candidates[:, found].argmax(axis=0)
        tail = work[:, c:]  # rows at or below the rank, the pivot row among them, are zero left of column c
        lead_rows = tail[i, :, found]  # (len(found), ncols - c): row i of each matrix found
        tail[i, :, found] = tail[r, :, found]
        tail[r, :, found] = mul[inv[lead_rows[:, 0]][:, None], lead_rows]
        pivot_rows = np.zeros((ncols - c, count), dtype=index)
        pivot_rows[:, found] = tail[r, :, found].T
        coefs = work[:, c].astype(index) * q
        coefs[r, found] = 0  # every row but the pivot row, i != r
        tail[...] = np.take(axpy, (coefs[:, None, :] + tail) * q + pivot_rows)
        ranks[found] += 1
    return np.ascontiguousarray(work.transpose(2, 0, 1)), ranks


def _batched(work: int, order: int) -> bool:
    """Whether a call whose scalar path does ``work`` scalar rank computations
    over a field of ``order`` elements should run in numpy (see _BATCH_MIN)."""
    floor = _BATCH_MIN_LOADED if "numpy" in sys.modules else _BATCH_MIN
    return 0 < work and floor <= work and order <= _BATCH_ORDER


def _block_distances(center, block, fld: Field):
    """rank(center - w) for each row w of the int64 array ``block``, an int64
    array from ``_column_ranks``; ``center`` is an int64 word."""
    diffs = _word_sums(fld, (center, block), -1) if center.any() else block  # rank(0 - w) = rank(w)
    return _column_ranks(diffs, fld.q, fld.m)


def rank_distances(r: Sequence[int], words: Sequence[Sequence[int]], fld: Field) -> list[int]:
    """[rank(r - w) for w in words]: with enough words for ``_batched``,
    _BATCH_ROWS at a time in numpy (``_block_distances``), else by the scalar
    ``_column_rank``."""
    if not _batched(len(words), fld.order):
        shift = any(r)  # rank(0 - w) = rank(w)
        return [_column_rank(tuple(map(fld.sub, r, w)) if shift else w, fld.q, fld.m, len(r)) for w in words]
    import numpy as np

    center = np.asarray(r, dtype=np.int64)
    return [
        dist
        for lo in range(0, len(words), _BATCH_ROWS)
        for dist in _block_distances(center, np.asarray(words[lo : lo + _BATCH_ROWS], dtype=np.int64), fld).tolist()
    ]


def min_pairwise_rank_distance(words: Sequence[Sequence[int]], fld: Field) -> int | None:
    """min rank(u - v) over pairs of distinct positions; None for fewer than two
    words.  Batched in numpy from _BATCH_MIN pairs on."""
    count = len(words)
    if count < 2:
        return None
    if not _batched(count * (count - 1) // 2, fld.order):
        return min(min(rank_distances(u, words[i + 1 :], fld)) for i, u in enumerate(words[:-1]))
    import numpy as np

    words = np.asarray(words, dtype=np.int64)
    # pair number k is (i, j) with starts[i] <= k < starts[i + 1], j = i + 1 + k - starts[i]
    starts = np.concatenate(([0], np.cumsum(np.arange(count - 1, 0, -1))))
    pairs = int(starts[-1])
    lows = []
    for lo in range(0, pairs, _BATCH_ROWS):
        k = np.arange(lo, min(lo + _BATCH_ROWS, pairs))
        i = np.searchsorted(starts, k, side="right") - 1
        j = i + 1 + k - starts[i]
        lows.append(_column_ranks(_word_sums(fld, (words[i], words[j]), -1), fld.q, fld.m).min())
    return int(min(lows))


def right_kernel(mat: MatrixFq) -> list[tuple[int, ...]]:
    """Basis of {v : mat @ v = 0}, one vector per free column, ascending."""
    F = base_field(mat.q)
    reduced, pivots = rref(mat)
    pivot_set = set(pivots)
    basis = []
    for c in range(mat.ncols):
        if c in pivot_set:
            continue
        vec = [0] * mat.ncols
        vec[c] = 1
        for i, p in enumerate(pivots):
            vec[p] = F.neg(reduced.rows[i][c])
        basis.append(tuple(vec))
    return basis


@dataclass(frozen=True)
class Subspace:
    """Subspace of F_q^n stored as an RREF basis (canonical form)."""

    q: int
    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mat = MatrixFq(self.q, self.basis, ncols=self.ambient_dim)
        rows = mat.rows
        object.__setattr__(self, "basis", rows)
        reduced, pivots = rref(mat)
        if len(pivots) != len(rows) or reduced.rows[: len(rows)] != rows:
            raise ValueError("basis is not a full-rank RREF matrix; use Subspace.from_vectors")

    @classmethod
    def from_vectors(cls, q: int, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        return row_space(MatrixFq(q, tuple(tuple(v) for v in vectors), ncols=ambient_dim))

    @classmethod
    def _canonical(cls, q: int, ambient_dim: int, basis: tuple[tuple[int, ...], ...]) -> "Subspace":
        """A subspace from a basis of int tuples already in full-rank RREF,
        without the second ``rref`` of ``__post_init__``."""
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "q", q)
        object.__setattr__(subspace, "ambient_dim", ambient_dim)
        object.__setattr__(subspace, "basis", basis)
        return subspace

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self, other: "Subspace") -> None:
        if self.q != other.q:
            raise ValueError("field size mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def to_jsonable(self) -> dict:
        basis = MatrixFq._unchecked(self.q, self.basis, self.ambient_dim)
        return {"ambient": self.ambient_dim, "basis": basis.to_jsonable()}


def row_space(mat: MatrixFq) -> Subspace:
    reduced, pivots = rref(mat)
    return Subspace._canonical(mat.q, mat.ncols, reduced.rows[: len(pivots)])


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """2 dim(U+V) - dim U - dim V; a metric on subspaces of F_q^n."""
    U._check(V)
    return 2 * rank(MatrixFq._unchecked(U.q, U.basis + V.basis, U.ambient_dim)) - U.dim - V.dim


def grassmannian_enumerate(n: int, r: int, q: int) -> list[Subspace]:
    """All r-dimensional subspaces of F_q^n, canonically ordered.

    Order: lexicographic by pivot pattern, then by the free entries read
    row-major with the last position varying fastest.  The length of the
    result is the Gaussian binomial [n; r]_q: per pivot pattern, the
    ``itertools.product`` of the lists of each row's RREF rows, in this order.
    """
    if not 0 <= r <= n:
        raise ValueError(f"dimension r={r} out of range for ambient n={n}")
    total = gaussian_binomial(n, r, q)
    if total > ENUMERATION_GUARD:
        raise ValueError(f"Grassmannian size {total} exceeds guard {ENUMERATION_GUARD}")
    out = []
    for piv in itertools.combinations(range(n), r):
        # the entries of row p's RREF rows: 1 at p, any value at a later non-pivot column, else 0
        rows = [[(1,) if j == p else (0,) if j < p or j in piv else range(q) for j in range(n)] for p in piv]
        bases = itertools.product(*(itertools.product(*row) for row in rows))
        out += (Subspace._canonical(q, n, basis) for basis in bases)
    return out


def grassmannian_order_key(U: Subspace) -> tuple:
    """Sort key of U in the order of ``grassmannian_enumerate``: its pivot
    columns, then its RREF basis row-major.  For given pivots the entries
    outside the free positions are fixed, so the basis compares as the free
    entries do."""
    return tuple(row.index(1) for row in U.basis), U.basis


def _singer_orbits(fld: Field, t: int) -> list[tuple[list[int], int]]:
    """One (basis, size) per orbit of Gr(m, t) under multiplication by F_{q^m}^*.

    ``basis`` lists the RREF basis of the orbit's representative U as
    elements of F_{q^m}; ``size`` is the number of subspaces xU.  {0} is an
    orbit of one subspace, with an empty basis.  Otherwise the walk runs on
    the smaller side:

    * 2t <= m: the orbit members that hold 1 are the u^{-1} U, u in U
      nonzero, and are the U = <1> + (0 | W), W in Gr(m - 1, t - 1), with
      basis [e_0; 0 | W].  U represents its orbit when its sorted span is
      the smallest of theirs; the (q^m - 1)/size u with u^{-1} U = U are its
      stabilizer.
    * 2t > m: the orbits of Gr(m, m - t) are walked, and each representative
      V gives its dual V^perp = {y : Tr(b y) = 0 for b in V} under the trace
      form.  Over the basis b_i of V and the polynomial basis x^j, the
      equation rows Tr(b_i x^j) are the rows of the Gram matrix Tr(x^i x^j)
      combined by b_i's coordinates (``_combine``).  (xV)^perp =
      x^{-1} V^perp, so V -> V^perp maps orbits onto orbits and keeps their
      sizes; F_{q^m}, t = m, is the dual of {0}, with the polynomial basis.
    """
    q, m = fld.q, fld.m
    if t == 0:
        return [([], 1)]
    if 2 * t > m:
        xs = [fld.basis_element(i) for i in range(m)]
        gram = [[_trace(fld, fld.mul(a, b)) for b in xs] for a in xs]
        orbits = []
        for basis, size in _singer_orbits(fld, m - t):
            equations = MatrixFq._unchecked(q, tuple(_combine(fld, fld.coeffs(b), gram, m) for b in basis), m)
            dual = row_space(MatrixFq._unchecked(q, tuple(right_kernel(equations)), m))
            orbits.append(([ff._undigits(row, q) for row in dual.basis], size))
        return orbits
    orbits = []
    for W in grassmannian_enumerate(m - 1, t - 1, q):
        basis = [1] + [ff._undigits((0,) + row, q) for row in W.basis]
        span = _span(fld, basis)
        smallest, stabilizer = sorted(span), 0
        for u in span[1:]:
            inv = fld.inv(u)
            moved = sorted(fld.mul(inv, x) for x in span)
            if moved < smallest:
                break
            stabilizer += moved == smallest
        else:
            orbits.append((basis, (fld.order - 1) // stabilizer))
    return orbits


def _span(fld: Field, basis: Sequence[int]) -> list[int]:
    """[sum_i a_i basis[i] for a in range(q^len(basis))], a_i the base-q digits of a."""
    span = [0]
    for b in basis:
        span = [fld.add(x, y) for y in [fld.mul(c, b) for c in range(fld.q)] for x in span]
    return span


def _trace(fld: Field, x: int) -> int:
    """Tr(x) = x + x^q + ... + x^{q^{m-1}}, an element of F_q."""
    total = 0
    for _ in range(fld.m):
        total, x = fld.add(total, x), fld.frobenius(x)
    return total


def matrix_from_jsonable(q: int, data, ncols: int | None = None, name: str = "matrix") -> MatrixFq:
    """The matrix of ``MatrixFq.to_jsonable``, entries read with ``json_int``;
    a malformed one raises ValueError naming ``name``."""
    rows = tuple(
        tuple(json_int(x, f"{name} entries must be integers; an entry of row {i}") for x in json_list(row, f"{name} row {i}"))
        for i, row in enumerate(json_list(data, name))
    )
    return MatrixFq(q, rows, ncols=(len(rows[0]) if rows else 0) if ncols is None else ncols)


def subspace_from_jsonable(q: int, data: dict, name: str = "subspace") -> Subspace:
    """The subspace of ``Subspace.to_jsonable``; a missing or ill-typed field raises ValueError naming it."""
    ambient = json_key(data, "ambient", f"{name} ambient dimension", json_int)
    basis = matrix_from_jsonable(q, json_key(data, "basis", f"{name} field 'basis'"), ambient, f"{name} field 'basis'")
    return Subspace(q, ambient, basis.rows)
