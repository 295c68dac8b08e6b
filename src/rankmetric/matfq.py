"""Exact linear algebra over F_q: matrices, canonical subspaces, Grassmannians.

Matrices are immutable value types with entries 0..q-1 (integer encoding of
F_q, see :mod:`rankmetric.ff`).  Subspaces of F_q^n are kept in reduced row
echelon form, so equal subspaces compare equal and enumeration is canonical.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .ff import Field, base_field

GRASSMANNIAN_GUARD = 1 << 24


@dataclass(frozen=True)
class MatrixFq:
    """Dense matrix over F_q; ``rows`` may be empty (0 x ncols)."""

    q: int
    rows: tuple[tuple[int, ...], ...]
    ncols: int = field(default=-1)

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
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
            if any(not 0 <= x < self.q for x in r):
                raise ValueError(f"entries must lie in 0..{self.q - 1}")

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
        self._check_compatible(other)
        F = base_field(self.q)
        return MatrixFq(
            self.q,
            tuple(tuple(F.add(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            ncols=self.ncols,
        )

    def sub(self, other: "MatrixFq") -> "MatrixFq":
        self._check_compatible(other)
        F = base_field(self.q)
        return MatrixFq(
            self.q,
            tuple(tuple(F.sub(a, b) for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)),
            ncols=self.ncols,
        )

    def scale(self, c: int) -> "MatrixFq":
        F = base_field(self.q)
        return MatrixFq(
            self.q, tuple(tuple(F.mul(c, a) for a in r) for r in self.rows), ncols=self.ncols
        )

    def mul(self, other: "MatrixFq") -> "MatrixFq":
        if self.q != other.q:
            raise ValueError("field size mismatch")
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch: {self.shape} x {other.shape}")
        F = base_field(self.q)
        out = []
        for ra in self.rows:
            row = [0] * other.ncols
            for k, a in enumerate(ra):
                if a:
                    rb = other.rows[k]
                    for j in range(other.ncols):
                        if rb[j]:
                            row[j] = F.add(row[j], F.mul(a, rb[j]))
            out.append(tuple(row))
        return MatrixFq(self.q, tuple(out), ncols=other.ncols)

    def transpose(self) -> "MatrixFq":
        return MatrixFq(
            self.q,
            tuple(tuple(self.rows[i][j] for i in range(self.nrows)) for j in range(self.ncols)),
            ncols=self.nrows,
        )

    def hstack(self, other: "MatrixFq") -> "MatrixFq":
        if self.nrows != other.nrows or self.q != other.q:
            raise ValueError("hstack shape mismatch")
        return MatrixFq(
            self.q,
            tuple(ra + rb for ra, rb in zip(self.rows, other.rows)),
            ncols=self.ncols + other.ncols,
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
    F = base_field(mat.q)
    rows = [list(r) for r in mat.rows]
    pivots = []
    r = 0
    for c in range(mat.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = F.inv(rows[r][c])
        if inv != 1:
            rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                coef = rows[i][c]
                rows[i] = [F.sub(x, F.mul(coef, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    reduced = MatrixFq(mat.q, tuple(tuple(row) for row in rows), ncols=mat.ncols)
    return reduced, tuple(pivots)


def rank(mat: MatrixFq) -> int:
    """Rank over F_q via Gaussian elimination."""
    return len(rref(mat)[1])


def rank_of_vector(vec: Sequence[int], fld: Field) -> int:
    """Rank of the F_q matrix expansion of a vector over F_{q^m}."""
    return _column_rank(vec, fld.q, fld.m, len(vec))


def _column_rank(cols: Sequence[int], q: int, m: int, limit: int) -> int:
    """F_q-rank of the m x len(cols) matrix whose column j holds the base-q
    digits of the F_{q^m} element cols[j]; stops at limit + 1 once the rank
    exceeds limit.

    q = 2 keeps an XOR basis keyed by leading bit; q > 2 keeps normalized
    digit rows reduced with the base-field tables.  Elements are not range
    checked.
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
    F = base_field(q)
    add, mul, neg, inv = F._add, F._mul, F._neg, F._inv
    rows: list[tuple[int, list[int]]] = []
    for a in cols:
        v = []
        for _ in range(m):
            a, digit = divmod(a, q)
            v.append(digit)
        for piv, row in rows:
            c = v[piv]
            if c:
                minus_c = mul[neg[c]]
                v = [add[x][minus_c[y]] for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            continue
        if v[piv] != 1:
            scale = mul[inv[v[piv]]]
            v = [scale[x] for x in v]
        rows.append((piv, v))
        if len(rows) > limit:
            return len(rows)
    return len(rows)


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
        rows = tuple(tuple(int(x) for x in r) for r in self.basis)
        object.__setattr__(self, "basis", rows)
        mat = MatrixFq(self.q, rows, ncols=self.ambient_dim)
        reduced, pivots = rref(mat)
        if len(pivots) != len(rows) or reduced.rows[: len(rows)] != rows:
            raise ValueError("basis is not a full-rank RREF matrix; use Subspace.from_vectors")

    @classmethod
    def from_vectors(cls, q: int, ambient_dim: int, vectors: Iterable[Sequence[int]]) -> "Subspace":
        mat = MatrixFq(q, tuple(tuple(v) for v in vectors), ncols=ambient_dim)
        reduced, pivots = rref(mat)
        return cls(q, ambient_dim, reduced.rows[: len(pivots)])

    @classmethod
    def zero(cls, q: int, ambient_dim: int) -> "Subspace":
        return cls(q, ambient_dim, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: Sequence[int]) -> bool:
        F = base_field(self.q)
        v = [int(x) for x in vec]
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
        for row in self.basis:
            p = next(i for i, x in enumerate(row) if x)
            if v[p]:
                c = v[p]
                v = [F.sub(x, F.mul(c, y)) for x, y in zip(v, row)]
        return all(x == 0 for x in v)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace.from_vectors(self.q, self.ambient_dim, self.basis + other.basis)

    def to_matrix(self) -> MatrixFq:
        return MatrixFq(self.q, self.basis, ncols=self.ambient_dim)

    def _check(self, other: "Subspace") -> None:
        if self.q != other.q:
            raise ValueError("field size mismatch")
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")

    def to_jsonable(self) -> dict:
        return {"ambient": self.ambient_dim, "basis": [list(r) for r in self.basis]}


def row_space(mat: MatrixFq) -> Subspace:
    return Subspace.from_vectors(mat.q, mat.ncols, mat.rows)


def column_space(mat: MatrixFq) -> Subspace:
    return row_space(mat.transpose())


def subspace_distance(U: Subspace, V: Subspace) -> int:
    """2 dim(U+V) - dim U - dim V; a metric on subspaces of F_q^n."""
    U._check(V)
    return 2 * U.sum(V).dim - U.dim - V.dim


def grassmannian_enumerate(n: int, r: int, q: int, guard: int = GRASSMANNIAN_GUARD) -> list[Subspace]:
    """All r-dimensional subspaces of F_q^n, canonically ordered.

    Order: lexicographic by pivot pattern, then by the free entries read
    row-major with the last position varying fastest.  The length of the
    result is the Gaussian binomial [n; r]_q.
    """
    if not 0 <= r <= n:
        raise ValueError(f"dimension r={r} out of range for ambient n={n}")
    num = den = 1
    for i in range(r):
        num *= q**n - q**i
        den *= q**r - q**i
    total = num // den
    if total > guard:
        raise ValueError(f"Grassmannian size {total} exceeds guard {guard}")
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
            out.append(Subspace(q, n, tuple(tuple(row) for row in rows)))
    return out


def rank_decompose(X: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Full-rank G (r x m), H (r x n) with X = G^T H.

    Rowspace(G) is the column space of X and Rowspace(H) its row space.
    Rank 0 yields empty factors whose product is the zero matrix.
    """
    reduced, pivots = rref(X)
    r = len(pivots)
    H = MatrixFq(X.q, reduced.rows[:r], ncols=X.ncols)
    G = MatrixFq(
        X.q,
        tuple(tuple(X.rows[i][p] for i in range(X.nrows)) for p in pivots),
        ncols=X.nrows,
    )
    return G, H


def distance_sandwich_check(X: MatrixFq, Y: MatrixFq) -> tuple[int, int, int]:
    """(lower, middle, upper) rank-distance sandwich for equal-rank X, Y.

    lower  = d_S(rowspaces)/2 + d_S(colspaces)/2
    middle = rank(X - Y)
    upper  = min(d_S(rowspaces), d_S(colspaces))/2 + rank(X)
    """
    X._check_compatible(Y)
    rx, ry = rank(X), rank(Y)
    if rx != ry:
        raise ValueError(f"unequal ranks: {rx} != {ry}")
    ds_row = subspace_distance(row_space(X), row_space(Y))
    ds_col = subspace_distance(column_space(X), column_space(Y))
    lower = ds_row // 2 + ds_col // 2
    middle = rank(X.sub(Y))
    upper = min(ds_row, ds_col) // 2 + rx
    if not lower <= middle <= upper:
        raise AssertionError(f"distance sandwich violated: {lower} <= {middle} <= {upper}")
    return lower, middle, upper


def matrix_from_jsonable(q: int, data: Sequence[Sequence[int]], ncols: int | None = None) -> MatrixFq:
    rows = tuple(tuple(int(x) for x in r) for r in data)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return MatrixFq(q, rows, ncols=ncols)


def subspace_from_jsonable(q: int, data: dict) -> Subspace:
    return Subspace(q, int(data["ambient"]), tuple(tuple(int(x) for x in r) for r in data["basis"]))
