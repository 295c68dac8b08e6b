"""Exact linear algebra over F_q: matrices, canonical subspaces, Grassmannians.

Matrices are immutable value types with entries 0..q-1 (integer encoding of
F_q, see :mod:`rankmetric.ff`).  Subspaces of F_q^n are kept in reduced row
echelon form, so equal subspaces compare equal and enumeration is canonical.
``grassmannian_order_key`` places a subspace in that enumeration order, and
``_singer_orbits`` lists one subspace of F_{q^m} per orbit of Gr(m, t) under
multiplication by F_{q^m}^*, for the oracle's coset histogram and the
Gabidulin witnesses.

Linear algebra runs on two elimination algorithms, each in a scalar form and
a numpy form over a stack: Gauss-Jordan reduction to RREF for every q
(``_gauss_jordan`` and ``_rrefs``), and an XOR basis keyed by leading bit at
q = 2 (the q = 2 branches of ``_column_rank`` and ``_column_ranks``).  Every
rank question (``rank``, ``subspace_distance``, ``Subspace.contains`` and the
rank of a vector over F_{q^m}) goes through ``_column_rank``, whose q > 2
rank is the pivot count of ``_gauss_jordan``; ``_column_ranks`` ranks a
stack of words, at q > 2 by the pivot counts of ``_rrefs``.  Over F_q both
RREF kernels and the matrix sums and products read one row-operation table
per base field, ``BaseField._axpy[c][x][y] = x - c y``.
"""

from __future__ import annotations

import itertools
import operator
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import ff
from .bounds import gaussian_binomial
from .ff import Field, base_field, json_int, json_key, json_list

GRASSMANNIAN_GUARD = 1 << 24


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

    @classmethod
    def zeros(cls, q: int, nrows: int, ncols: int) -> "MatrixFq":
        return cls(q, tuple((0,) * ncols for _ in range(nrows)), ncols=ncols)

    @classmethod
    def identity(cls, q: int, n: int) -> "MatrixFq":
        return cls(q, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def add(self, other: "MatrixFq") -> "MatrixFq":
        return self._minus_multiple(base_field(self.q).neg(1), other)

    def sub(self, other: "MatrixFq") -> "MatrixFq":
        return self._minus_multiple(1, other)

    def _minus_multiple(self, c: int, other: "MatrixFq") -> "MatrixFq":
        """self - c other."""
        self._check_compatible(other)
        F = base_field(self.q)
        return MatrixFq._unchecked(
            self.q, tuple(F.axpy_row(c, ra, rb) for ra, rb in zip(self.rows, other.rows)), self.ncols
        )

    def scale(self, c: int) -> "MatrixFq":
        F = base_field(self.q)
        return MatrixFq._unchecked(self.q, tuple(F.scale_row(c, r) for r in self.rows), self.ncols)

    def mul(self, other: "MatrixFq") -> "MatrixFq":
        if self.q != other.q:
            raise ValueError("field size mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} x {other.shape}")
        F = base_field(self.q)
        zero = (0,) * other.ncols
        out = []
        for ra in self.rows:
            row = zero
            for a, rb in zip(ra, other.rows):
                if a:
                    row = F.axpy_row(F.neg(a), row, rb)  # row + a rb
            out.append(row)
        return MatrixFq._unchecked(self.q, tuple(out), other.ncols)

    def transpose(self) -> "MatrixFq":
        columns = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return MatrixFq._unchecked(self.q, columns, self.nrows)

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.nrows != other.nrows or self.q != other.q:
            raise ValueError("hstack shape mismatch")
        return MatrixFq._unchecked(
            self.q, tuple(ra + rb for ra, rb in zip(self.rows, other.rows)), self.ncols + other.ncols
        )

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def _check_compatible(self, other: "MatrixFq") -> None:
        if self.q != other.q or self.shape != other.shape:
            raise ValueError(f"incompatible matrices: {self.shape}/{other.shape}")

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
    """Rank over F_q: ``_column_rank`` of the rows read as base-q digits,
    entry j of a row being digit j."""
    q, packed = mat.q, []
    for row in mat.rows:
        v = 0
        for x in reversed(row):
            v = v * q + x
        packed.append(v)
    return _column_rank(packed, q, mat.ncols, mat.nrows)


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
# computations (1.25-1.8 us each at q=2, m=n<=3; 2.0-3.0 us at q=2, m=n=4;
# 5-18 us at q>2), against a floor.  While numpy is not yet imported the floor
# is _BATCH_MIN: a one-shot run must not pay numpy's import (0.14-0.17 s
# measured, Python 3.11, numpy 2.4, 2-vCPU VM) to save less work than that.
# Once numpy is loaded only its per-call overhead is left, 0.1-0.2 ms, which
# _BATCH_MIN_LOADED covers: at q=2, m=n=4, 64 rank distances take 0.20 ms
# either way and 128 take 0.38 ms scalar against 0.24 ms batched; a 16-word
# decoding list (64 work) takes 0.11 ms scalar against 0.19 ms batched, a
# 256-word one (1024 work) 1.06 against 0.19 ms.  Batched, a rank costs
# 0.08-0.13 us (q=2) and 0.3-1.9 us (q>2).
_BATCH_MIN = 1 << 17
_BATCH_MIN_LOADED = 128
# scalar work per item, in ranks: one ``_combine`` call (a codeword from its
# message, or a membership test from the unit keys), 5-23 us at q=2, m=4..8
_CODEWORD_WORK = 4
_BATCH_ROWS = 1 << 12  # words ranked per numpy block
_BATCH_ORDER = 1 << 32  # larger fields keep to the scalar loop


def _digits(a, base: int, width: int):
    """Base-``base`` digits of the integer array ``a``, least significant first,
    on a new last axis (uint8 when base <= 256)."""
    import numpy as np

    digits = np.asarray(a, dtype=np.int64)[..., None] // base ** np.arange(width, dtype=np.int64) % base
    return digits.astype(np.uint8) if base <= 256 else digits


def _undigits(digits, base: int):
    """Inverse of ``_digits`` along the last axis, as int64."""
    import numpy as np

    return digits @ base ** np.arange(digits.shape[-1], dtype=np.int64)


def _sub_words(a, b, fld: Field):
    """a - b entrywise for integer arrays of F_{q^m} elements: XOR for p = 2,
    digitwise mod p on the base-p digits otherwise."""
    p = fld.char
    if p == 2:
        return a ^ b
    width = fld.m * fld.base.e
    return _undigits((_digits(a, p, width) + (p - _digits(b, p, width))) % p, p)


def _multiples(fld: Field, xs: Iterable[int], vec: Sequence[int]):
    """int64 array with one row [x * v for v in vec] per x of ``xs``."""
    import numpy as np

    return np.array([[fld.mul(x, v) for v in vec] for x in xs], dtype=np.int64)


def _combine(fld: Field, coeffs: Sequence[int], rows: Sequence[Sequence[int]], width: int) -> tuple[int, ...]:
    """sum_i coeffs[i] rows[i] over F_{q^m}, a word of ``width`` entries: the
    scalar form of the row combination whose numpy form sums ``_row_tables``."""
    add, mul, total = fld.add, fld.mul, (0,) * width
    for c, row in zip(coeffs, rows):
        if c:
            total = [add(x, mul(c, y)) for x, y in zip(total, row)]
    return tuple(total)


def _row_tables(fld: Field, rows: Sequence[Sequence[int]]) -> list:
    """Per row of ``rows``, the ``_table_sums`` table of its multiples x row,
    x in F_{q^m}: ``_table_sums(_row_tables(fld, rows), c, p)`` is the
    ``_combine`` of every coefficient row of the array c."""
    return [_addends(_multiples(fld, range(fld.order), row), fld.char, fld.m * fld.base.e) for row in rows]


def _addends(values, p: int, width: int):
    """The integer array ``values`` in the form ``_table_sums`` adds in
    characteristic p: unchanged for p = 2, else its ``width`` base-p digits."""
    return values if p == 2 else _digits(values, p, width)


def _table_sums(tables, index, p: int):
    """sum over j of tables[j][index[..., j]] in characteristic p, for tables
    made by ``_addends``: XOR for p = 2, else digitwise mod p and packed back.

    F_{q^m} addition is exactly this on the integer encoding of
    :mod:`rankmetric.ff`, also for integers that pack several elements.
    """
    if p != 2 and len(tables) * (p - 1) > 255:
        raise ValueError(f"{len(tables)} uint8 digit addends of characteristic {p} could overflow")
    total = tables[0][index[..., 0]]
    for j in range(1, len(tables)):
        addend = tables[j][index[..., j]]
        total = total ^ addend if p == 2 else total + addend
    return total if p == 2 else _undigits(total % p, p)


def _column_ranks(words, q: int, m: int):
    """``_column_rank`` of every row of the integer array ``words`` (one
    F_{q^m} word per row, q^m <= 2^32), as an int64 array.

    q = 2 keeps one XOR basis per row in m bit planes (plane b holds the
    basis vector led by bit b, 0 if none), reduced with 0/1 arithmetic masks.
    q > 2 counts the pivots of ``_rrefs`` on the (rows, n, m) uint8 stack of
    base-q digits.
    """
    import numpy as np

    words = np.asarray(words, dtype=np.int64)
    rows, n = words.shape
    if q == 2:
        dtype = np.uint8 if m <= 8 else np.uint16 if m <= 16 else np.uint32
        basis = np.zeros((m, rows), dtype=dtype)
        for j in range(n):
            v = words[:, j].astype(dtype)
            for b in range(m - 1, -1, -1):
                lead = (v >> b) & 1
                plane = basis[b]
                new = v * (lead * (plane == 0))  # v where it opens plane b, else 0
                v = v ^ (plane * lead) ^ new
                basis[b] |= new
        return (basis != 0).sum(axis=0)
    return _rrefs(_digits(words, q, m), q)[1]


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
        lead_rows = work[i, :, found]  # (len(found), ncols): row i of each matrix found
        work[i, :, found] = work[r, :, found]
        work[r, :, found] = mul[inv[lead_rows[:, c]][:, None], lead_rows]
        pivot_rows = np.zeros((ncols, count), dtype=index)
        pivot_rows[:, found] = work[r, :, found].T
        coefs = work[:, c].astype(index) * q
        coefs[r, found] = 0  # every row but the pivot row, i != r
        work = np.take(axpy, (coefs[:, None, :] + work) * q + pivot_rows)
        ranks[found] += 1
    return np.ascontiguousarray(work.transpose(2, 0, 1)), ranks


def _batched(work: int, order: int) -> bool:
    """Whether a call whose scalar path does ``work`` scalar rank computations
    over a field of ``order`` elements should run in numpy (see _BATCH_MIN)."""
    floor = _BATCH_MIN_LOADED if "numpy" in sys.modules else _BATCH_MIN
    return 0 < work and floor <= work and order <= _BATCH_ORDER


def iter_rank_distances(
    r: Sequence[int], words: Iterable[Sequence[int]], fld: Field, count: int
) -> Iterator[tuple[Sequence[int], int]]:
    """(w, rank(r - w)) for each w of ``words``, an iterable of ``count`` words.

    Words are read _BATCH_ROWS at a time, so a stream is never held whole;
    ``count`` only chooses the path: numpy from _BATCH_MIN words on, else the
    scalar ``_column_rank`` loop (a wrong count costs time, not correctness).
    """
    r, q, m = tuple(r), fld.q, fld.m
    words = iter(words)
    if not _batched(count, fld.order):
        shift = any(r)  # rank(0 - w) = rank(w)
        for w in words:
            yield w, _column_rank(tuple(fld.sub(x, y) for x, y in zip(r, w)) if shift else w, q, m, len(r))
        return
    import numpy as np

    center = np.asarray(r, dtype=np.int64)
    while block := list(itertools.islice(words, _BATCH_ROWS)):
        diffs = _sub_words(center, np.asarray(block, dtype=np.int64), fld)
        yield from zip(block, _column_ranks(diffs, q, m).tolist())


def rank_distances(r: Sequence[int], words: Sequence[Sequence[int]], fld: Field) -> list[int]:
    """[rank(r - w) for w in words], batched in numpy from _BATCH_MIN words on."""
    return [dist for _, dist in iter_rank_distances(r, words, fld, len(words))]


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
        lows.append(_column_ranks(_sub_words(words[i], words[j], fld), fld.q, fld.m).min())
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

    @classmethod
    def zero(cls, q: int, ambient_dim: int) -> "Subspace":
        return cls(q, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        v = tuple(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        return rank(MatrixFq(self.q, self.basis + (v,), ncols=self.ambient_dim)) == self.dim

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return row_space(MatrixFq._unchecked(self.q, self.basis + other.basis, self.ambient_dim))

    def to_matrix(self) -> MatrixFq:
        return MatrixFq._unchecked(self.q, self.basis, self.ambient_dim)

    def _check(self, other: "Subspace") -> None:
        if self.q != other.q:
            raise ValueError("field size mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def to_jsonable(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": [list(r) for r in self.basis]}


def row_space(mat: MatrixFq) -> Subspace:
    reduced, pivots = rref(mat)
    return Subspace._canonical(mat.q, mat.ncols, reduced.rows[: len(pivots)])


def column_space(mat: MatrixFq) -> Subspace:
    return row_space(mat.transpose())


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """2 dim(U+V) - dim U - dim V; a metric on subspaces of F_q^n."""
    U._check(V)
    return 2 * rank(MatrixFq._unchecked(U.q, U.basis + V.basis, U.ambient_dim)) - U.dim - V.dim


def grassmannian_enumerate(n: int, r: int, q: int) -> list[Subspace]:
    """All r-dimensional subspaces of F_q^n, canonically ordered.

    Order: lexicographic by pivot pattern, then by the free entries read
    row-major with the last position varying fastest.  The length of the
    result is the Gaussian binomial [n; r]_q.
    """
    if not 0 <= r <= n:
        raise ValueError(f"dimension r={r} out of range for ambient n={n}")
    total = gaussian_binomial(n, r, q)
    if total > GRASSMANNIAN_GUARD:
        raise ValueError(f"Grassmannian size {total} exceeds guard {GRASSMANNIAN_GUARD}")
    out = []
    for piv in itertools.combinations(range(n), r):
        pivot_set = set(piv)
        free = [(i, j) for i in range(r) for j in range(piv[i] + 1, n) if j not in pivot_set]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i, p in enumerate(piv):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(Subspace._canonical(q, n, tuple(tuple(row) for row in rows)))
    return out


def grassmannian_order_key(U: Subspace) -> tuple:
    """Sort key of U in the order of ``grassmannian_enumerate``: its pivot
    columns, then its RREF basis row-major.  For given pivots the entries
    outside the free positions are fixed, so the basis compares as the free
    entries do."""
    return tuple(row.index(1) for row in U.basis), U.basis


def _singer_orbits(fld: Field, t: int) -> list[tuple[list[int], int]]:
    """One (span, size) per orbit of Gr(m, t) under multiplication by F_{q^m}^*.

    ``span`` lists the elements of the orbit's representative U, span[a] =
    sum_i a_i b_i over the base-q digits a_i of a and the RREF basis b_i of
    U; ``size`` is the number of subspaces xU.  The orbit members that hold
    1 are the u^{-1} U, u in U nonzero, and are the U = <1> + (0 | W), W in
    Gr(m - 1, t - 1), with basis [e_0; 0 | W].  U represents its orbit when
    its sorted span is the smallest of theirs; the (q^m - 1)/size u with
    u^{-1} U = U are its stabilizer.
    """
    orbits = []
    for W in grassmannian_enumerate(fld.m - 1, t - 1, fld.q):
        span = [0]
        for b in [1] + [fld.from_coeffs((0,) + row) for row in W.basis]:
            span = [fld.add(x, fld.mul(c, b)) for c in range(fld.q) for x in span]
        smallest, stabilizer = sorted(span), 0
        for u in span[1:]:
            inv = fld.inv(u)
            moved = sorted(fld.mul(inv, x) for x in span)
            if moved < smallest:
                break
            stabilizer += moved == smallest
        else:
            orbits.append((span, (fld.order - 1) // stabilizer))
    return orbits


def rank_decompose(X: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Full-rank G (r x m), H (r x n) with X = G^T H.

    Rowspace(G) is the column space of X and Rowspace(H) its row space.
    Rank 0 yields empty factors whose product is the zero matrix.
    """
    reduced, pivots = rref(X)
    columns = X.transpose().rows
    H = MatrixFq._unchecked(X.q, reduced.rows[: len(pivots)], X.ncols)
    G = MatrixFq._unchecked(X.q, tuple(columns[p] for p in pivots), X.nrows)
    return G, H


def distance_sandwich_check(X: MatrixFq, Y: MatrixFq) -> tuple[int, int, int]:
    """(lower, middle, upper) rank-distance sandwich for equal-rank X, Y.

    lower  = d_S(rowspaces)/2 + d_S(colspaces)/2
    middle = rank(X - Y)
    upper  = min(d_S(rowspaces), d_S(colspaces))/2 + rank(X)

    rank(X) and rank(Y) are read as the dimensions of the row spaces.
    """
    X._check_compatible(Y)
    row_x, row_y = row_space(X), row_space(Y)
    rx, ry = row_x.dim, row_y.dim
    if rx != ry:
        raise ValueError(f"unequal ranks: {rx} != {ry}")
    ds_row = subspace_distance(row_x, row_y)
    ds_col = subspace_distance(column_space(X), column_space(Y))
    lower = ds_row // 2 + ds_col // 2
    middle = rank(X.sub(Y))
    upper = min(ds_row, ds_col) // 2 + rx
    if not lower <= middle <= upper:
        raise AssertionError(f"distance sandwich violated: {lower} <= {middle} <= {upper}")
    return lower, middle, upper


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
