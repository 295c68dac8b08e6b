"""Scalar references that the tests compare the library's fast paths against.

This module holds no tests.  Each function is the plain form of a question
the library answers another way, written on the primitives it keeps (``rref``,
``row_space``, ``subspace_distance``, ``rank``, ``rank_of_vector``,
``BaseField.axpy_row``/``add``/``mul`` and
``Field.coeffs``/``from_coeffs``/``sub``):

* ``matrix_product`` multiplies F_q matrices entry by entry; the tests check
  ``rank_decompose``, ``right_kernel``, the words of ``crc_from_cdc_pair``
  and criterion 3's batched products with it;
* ``rank_decompose`` and ``distance_sandwich_check`` (with ``column_space``)
  are the references for acceptance criteria 3 and 4, which run batched;
* ``expand_to_matrix`` and ``vector_from_matrix`` are the references for
  ``rank_of_vector`` and, through ``slow_pair_words``, for the row-combination
  words of ``crc_from_cdc_pair``;
* ``symbolic_product`` composes linearized polynomials and ``poly_sum`` adds
  them;
* ``pack_word`` is the big-endian index that ``oracle.unpack_word`` reads and
  the coset counts are keyed by;
* ``max_list_scan`` counts the codewords around each received word, the
  reference for the coset counts of ``oracle.max_list_size`` and for its
  random mode;
* ``orbit_count`` counts the orbits of a Grassmannian under F_{q^m}^* in
  closed form, the reference for ``matfq._singer_orbits``;
* ``krawtchouk`` is one entry of ``bounds.rank_krawtchouk``, from
  ``gaussian_binomial`` term by term;
* ``smallest_tau_geq_root`` walks tau = 0, 1, ... in fractions, the reference
  for the closed form of ``bounds._smallest_tau_geq_root``;
* ``grassmannian_rref_bases`` fills one r x n RREF basis per tuple of free
  values, the reference for the row products of
  ``matfq.grassmannian_enumerate``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from rankmetric.bounds import gaussian_binomial
from rankmetric.ff import Field, base_field
from rankmetric.linpoly import LinearizedPoly
from rankmetric.matfq import MatrixFq, Subspace, rank, rank_of_vector, row_space, rref, subspace_distance


def matrix_product(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """a b over F_q, each entry summed term by term with ``BaseField.add``/``mul``."""
    F = base_field(a.q)
    rows = []
    for ra in a.rows:
        row = []
        for j in range(b.ncols):
            acc = 0
            for x, rb in zip(ra, b.rows):
                acc = F.add(acc, F.mul(x, rb[j]))
            row.append(acc)
        rows.append(tuple(row))
    return MatrixFq(a.q, tuple(rows), ncols=b.ncols)


def transpose(mat: MatrixFq) -> MatrixFq:
    return MatrixFq(mat.q, tuple(zip(*mat.rows)) if mat.rows else ((),) * mat.ncols, ncols=mat.nrows)


def column_space(mat: MatrixFq) -> Subspace:
    return row_space(transpose(mat))


def rank_decompose(X: MatrixFq) -> tuple[MatrixFq, MatrixFq]:
    """Full-rank G (r x m), H (r x n) with X = G^T H.

    Rowspace(G) is the column space of X and Rowspace(H) its row space.
    Rank 0 yields empty factors whose product is the zero matrix.
    """
    reduced, pivots = rref(X)
    columns = transpose(X).rows
    H = MatrixFq(X.q, reduced.rows[: len(pivots)], ncols=X.ncols)
    G = MatrixFq(X.q, tuple(columns[p] for p in pivots), ncols=X.nrows)
    return G, H


def distance_sandwich_check(X: MatrixFq, Y: MatrixFq) -> tuple[int, int, int]:
    """(lower, middle, upper) rank-distance sandwich for equal-rank X, Y.

    lower  = d_S(rowspaces)/2 + d_S(colspaces)/2
    middle = rank(X - Y)
    upper  = min(d_S(rowspaces), d_S(colspaces))/2 + rank(X)

    rank(X) and rank(Y) are read as the dimensions of the row spaces.
    """
    if X.q != Y.q or (X.nrows, X.ncols) != (Y.nrows, Y.ncols):
        raise ValueError("incompatible matrices")
    row_x, row_y = row_space(X), row_space(Y)
    rx, ry = row_x.dim, row_y.dim
    if rx != ry:
        raise ValueError(f"unequal ranks: {rx} != {ry}")
    ds_row = subspace_distance(row_x, row_y)
    ds_col = subspace_distance(column_space(X), column_space(Y))
    lower = ds_row // 2 + ds_col // 2
    F = base_field(X.q)
    middle = rank(MatrixFq(X.q, tuple(F.axpy_row(1, a, b) for a, b in zip(X.rows, Y.rows)), ncols=X.ncols))
    upper = min(ds_row, ds_col) // 2 + rx
    if not lower <= middle <= upper:
        raise AssertionError(f"distance sandwich violated: {lower} <= {middle} <= {upper}")
    return lower, middle, upper


def expand_to_matrix(vec: Sequence[int], field: Field) -> MatrixFq:
    """m x n matrix over F_q whose column j holds the coordinates of vec[j].

    The map is F_q-linear and injective; rank of the result is the rank
    of the vector.
    """
    cols = [field.coeffs(v) for v in vec]
    return MatrixFq(field.q, tuple(tuple(col[i] for col in cols) for i in range(field.m)), ncols=len(cols))


def vector_from_matrix(mat: MatrixFq, field: Field) -> tuple[int, ...]:
    """Inverse of ``expand_to_matrix``: columns back to field elements."""
    if mat.nrows != field.m or mat.q != field.q:
        raise ValueError("matrix shape does not match the field")
    return tuple(field.from_coeffs([row[j] for row in mat.rows]) for j in range(mat.ncols))


def symbolic_product(f: LinearizedPoly, g: LinearizedPoly) -> LinearizedPoly:
    """Composition f(g(x)); q-degrees add, the product is not commutative."""
    if f.field != g.field:
        raise ValueError("operands live in different fields")
    F = f.field
    out = [0] * (len(f.coeffs) + len(g.coeffs))
    for i, fi in enumerate(f.coeffs):
        for j, gj in enumerate(g.coeffs):
            out[i + j] = F.add(out[i + j], F.mul(fi, F.frobenius(gj, i)))
    return LinearizedPoly(F, tuple(out))


def poly_sum(f: LinearizedPoly, g: LinearizedPoly) -> LinearizedPoly:
    """f + g, coefficientwise; with ``symbolic_product`` the ring operations."""
    F = f.field
    return LinearizedPoly(F, tuple(F.add(f.coeff(i), g.coeff(i)) for i in range(max(len(f.coeffs), len(g.coeffs)))))


def pack_word(vec: Sequence[int], order: int) -> int:
    """The big-endian base-``order`` index of ``vec``, the inverse of ``oracle.unpack_word``."""
    index = 0
    for x in vec:
        index = index * order + x
    return index


def max_list_scan(
    words: Sequence[Sequence[int]], field: Field, tau: int, received: Iterable[Sequence[int]]
) -> tuple[int, tuple[int, ...] | None]:
    """(ell, r): the largest number of ``words`` within rank distance tau of
    one received word, and the lexicographically smallest received word
    (the smallest big-endian index) that has that many; (-1, None) when
    ``received`` is empty."""
    best, best_word = -1, None
    for r in map(tuple, received):
        count = sum(rank_of_vector(tuple(map(field.sub, r, w)), field) <= tau for w in words)
        if count > best or (count == best and r < best_word):
            best, best_word = count, r
    return best, best_word


def orbit_count(m: int, t: int, q: int) -> int:
    """Number of orbits of Gr(m, t) under multiplication by F_{q^m}^*.

    The stabilizer of U is F_{q^s}^* for the largest s such that U is an
    F_{q^s}-subspace (s divides m and t), and its orbit has (q^m - 1)/(q^s - 1)
    subspaces.  The F_{q^s}-subspaces number [m/s; t/s]_{q^s}, so those whose
    largest such s is exactly s follow by inclusion-exclusion over the
    multiples of s.
    """
    g = math.gcd(m, t)
    exact: dict[int, int] = {}
    for s in sorted((s for s in range(1, g + 1) if g % s == 0), reverse=True):
        exact[s] = gaussian_binomial(m // s, t // s, q**s) - sum(c for r, c in exact.items() if r % s == 0)
    return sum(c * (q**s - 1) for s, c in exact.items()) // (q**m - 1)


def krawtchouk(m: int, n: int, q: int, i: int, x: int) -> int:
    """P_i(x) = sum_j (-1)^{i-j} q^{mj + C(i-j, 2)} [n-j; i-j] [n-x; j], with
    [n-x; j] = 0 for j > n - x."""
    return sum(
        (-1) ** (i - j) * q ** (m * j + (i - j) * (i - j - 1) // 2)
        * gaussian_binomial(n - j, i - j, q) * gaussian_binomial(n - x, j, q)
        for j in range(min(i, n - x) + 1)
    )


def smallest_tau_geq_root(shift: Fraction, radicand: Fraction) -> int:
    """Smallest integer tau >= 0 with shift - tau <= sqrt(radicand), found by walking tau up."""
    tau = 0
    while True:
        gap = shift - tau
        if gap <= 0 or gap * gap <= radicand:
            return tau
        tau += 1


def grassmannian_rref_bases(n: int, r: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """The RREF bases of Gr(n, r) over F_q: pivot patterns in lexicographic
    order, then the free entries read row-major, the last position fastest."""
    out = []
    for piv in itertools.combinations(range(n), r):
        free = [(i, j) for i in range(r) for j in range(piv[i] + 1, n) if j not in piv]
        for values in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(r)]
            for i, p in enumerate(piv):
                rows[i][p] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            out.append(tuple(tuple(row) for row in rows))
    return out
