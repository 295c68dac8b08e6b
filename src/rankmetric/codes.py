"""Code constructions in the rank and subspace metrics.

Three families:

* Gabidulin codes: evaluations of q-degree-restricted linearized polynomials
  at F_q-linearly independent points; length n <= m over F_{q^m}.
* Constant-dimension codes: sets of r-dimensional subspaces of F_q^n at
  pairwise subspace distance >= d_S, here built by lifting rank-metric codes.
* Constant-rank codes: rank-metric codes whose words all have the same rank,
  built from pairs of constant-dimension codes.

A Gabidulin codeword sum_i f_i g_i, a coset key sum_j w_j key(u_j) and a
constant-rank word G^T H (entry j is sum_i H_ij g_i) are one F_{q^m} row
combination: ``matfq._combine`` for one word, and for numpy blocks sums of
the integer tables of ``matfq._row_tables`` by ``matfq._word_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce
from typing import Iterator, Sequence

from . import ff
from .ff import Field, Words, json_bool, json_int, json_key, json_list, json_text, make_field
from .matfq import (
    _BATCH_ROWS,
    _CODEWORD_WORK,
    ENUMERATION_GUARD,
    MatrixFq,
    Subspace,
    _batched,
    _combine,
    _digits,
    _gauss_jordan,
    _outer_sums,
    _row_tables,
    _table_sums,
    rank_of_vector,
    subspace_from_jsonable,
)


@dataclass(frozen=True)
class GabidulinCode:
    """Gab[n, k] over F_{q^m}: evaluations of q-degree < k polynomials.

    Default evaluation points are the polynomial basis 1, x, ..., x^{n-1};
    any F_q-linearly independent points can be supplied instead.
    """

    field: Field
    n: int
    k: int
    alphas: tuple[int, ...] = dc_field(default=())

    def __post_init__(self):
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if self.n > self.field.m:
            raise ValueError(f"length n={self.n} exceeds extension degree m={self.field.m}")
        alphas = self.alphas or self.field.polynomial_basis(self.n)
        alphas = tuple(json_int(a, f"evaluation point {i}") for i, a in enumerate(alphas))
        if len(alphas) != self.n:
            raise ValueError(f"need {self.n} evaluation points, got {len(alphas)}")
        if any(not 0 <= a < self.field.order for a in alphas):
            raise ValueError(f"evaluation points must lie in 0..{self.field.order - 1}")
        if rank_of_vector(alphas, self.field) != self.n:
            raise ValueError("evaluation points are not F_q-linearly independent")
        object.__setattr__(self, "alphas", alphas)

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def d(self) -> int:
        """Design minimum rank distance n - k + 1 (met with equality: MRD)."""
        return self.n - self.k + 1

    @property
    def cardinality(self) -> int:
        return self.field.order**self.k

    def generator_rows(self) -> list[tuple[int, ...]]:
        """Rows g_i = (alpha_j^{q^i})_j of the k x n generator matrix."""
        F = self.field
        return [tuple(F.frobenius(a, i) for a in self.alphas) for i in range(self.k)]

    @cached_property
    def _rows(self) -> tuple[tuple[int, ...], ...]:
        """``generator_rows``, computed once per code."""
        return tuple(self.generator_rows())

    def codeword(self, index: int) -> tuple[int, ...]:
        """Codeword for message index sum_i f_i Q^i (digit i = coefficient f_i):
        the evaluations f(alpha_j) of f = sum_i f_i x^{[i]}, that is sum_i f_i g_i."""
        if not 0 <= index < self.cardinality:
            raise ValueError("message index out of range")
        return _combine(self.field, ff._digits(index, self.field.order, self.k), self._rows, self.n)

    def codewords(self, indices: Sequence[int]) -> list[tuple[int, ...]]:
        """[self.codeword(i) for i in indices].

        Enough indices (see ``matfq._batched``) are encoded in one numpy pass
        (``matfq._table_sums``).  Fields with more elements than there are
        indices keep the scalar loop, since their tables would cost more than
        the scalar sums they replace, and so do codes whose message indices
        do not fit in int64.
        """
        F = self.field
        batched = _batched(len(indices) * _CODEWORD_WORK, F.order) and F.order <= len(indices)
        if not batched or self.cardinality > 1 << 63:
            return [self.codeword(i) for i in indices]
        import numpy as np

        index = np.asarray(indices, dtype=np.int64)
        if index.min() < 0 or index.max() >= self.cardinality:
            raise ValueError("message index out of range")
        words = _table_sums(_row_tables(F, self._rows), _digits(index, F.order, self.k), F)
        return list(map(tuple, words.tolist()))

    def iter_codewords(self) -> Iterator[tuple[int, ...]]:
        """All codewords in message-index order."""
        if self.cardinality > ENUMERATION_GUARD:
            raise ValueError(f"code too large to enumerate ({self.cardinality} words)")
        F, rows = self.field, self._rows
        for index in range(self.cardinality):
            yield _combine(F, ff._digits(index, F.order, self.k), rows, self.n)

    def codeword_blocks(self):
        """All codewords in the order of ``iter_codewords``, as int64 numpy
        arrays of at most _BATCH_ROWS rows, one codeword per row: codeword
        i L + j is codeword j plus codeword i L.  The first L = Q^d, d >= 1
        the most low digits (at most k) with L <= _BATCH_ROWS, are the outer
        sums of the first d ``_row_tables`` (``tables[0]`` itself at d = 1),
        and a block adds _BATCH_ROWS // L rows i L to them."""
        import numpy as np

        if self.cardinality > ENUMERATION_GUARD:
            raise ValueError(f"code too large to enumerate ({self.cardinality} words)")
        F, size = self.field, self.cardinality
        d = next(d for d in range(self.k, 0, -1) if d == 1 or F.order**d <= _BATCH_ROWS)
        tables = _row_tables(F, self._rows)
        low = reduce(lambda low, table: _outer_sums(table, low, F), tables[1:d], tables[0])
        step = max(1, _BATCH_ROWS // len(low)) * len(low)
        for lo in range(0, size, step):
            sums = low
            if len(low) < size:
                highs = _table_sums(tables, _digits(np.arange(lo, min(lo + step, size), len(low)), F.order, self.k), F)
                sums = _outer_sums(highs, low, F)
            yield from (sums[start : start + _BATCH_ROWS] for start in range(0, len(sums), _BATCH_ROWS))

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership test: the coset key sum_j w_j key(u_j) is 0 (``_unit_keys``);
        False for a wrong length or an entry that is not an integer (``__index__``) in 0..q^m-1."""
        F = self.field
        if len(vec) != self.n or not all(hasattr(type(w), "__index__") and 0 <= w < F.order for w in vec):
            return False
        return not any(_combine(F, vec, self._unit_keys, self.n - self.k))

    @cached_property
    def _unit_keys(self) -> tuple[tuple[int, ...], ...]:
        """key(u_j) for the unit words u_j of F_{q^m}^n, computed once per code.

        The key of a word is its reduction modulo the generator rows without
        the first k entries, which the reduction zeroes.  Any k positions of
        an MRD code are an information set, so the rows reduce to [I | A], and
        u_j reduces to (0, -A_j) for j < k and to itself for j >= k.  The key
        is F_{q^m}-linear, so key(w) is the sum over j of w_j key(u_j), and it
        is 0 exactly on the codewords.
        """
        F, k = self.field, self.k
        rows = list(self._rows)
        _gauss_jordan(rows, self.n, F)
        units = tuple(tuple(int(i == j) for i in range(self.n - k)) for j in range(self.n - k))
        return tuple(tuple(F.neg(x) for x in row[k:]) for row in rows) + units

    def contains_all(self, words: Sequence[Sequence[int]]) -> bool:
        """all(self.contains(w) for w in words).

        Enough words (see ``matfq._batched``) are checked in numpy blocks: a
        word is a codeword exactly when its coset key (``_unit_keys``) is 0,
        and the key of w is the sum over j of w_j key(u_j), read from
        ``matfq._row_tables``.  Fields with more elements than there are words
        keep the scalar test, since their tables would cost more than the
        scalar sums they replace.  Entries are refused as by ``contains``.
        """
        F = self.field
        batched = _batched(len(words) * _CODEWORD_WORK, F.order) and F.order <= len(words)
        if not batched or any(len(w) != self.n for w in words):
            return all(self.contains(w) for w in words)
        import numpy as np

        tables = _row_tables(F, self._unit_keys)
        for lo in range(0, len(words), _BATCH_ROWS):
            block = np.asarray(words[lo : lo + _BATCH_ROWS])
            if block.dtype.kind not in "biu" or block.min() < 0 or block.max() >= F.order:
                return False
            if _table_sums(tables, block.astype(np.int64), F).any():
                return False
        return True


@dataclass(frozen=True)
class ConstantDimensionCode:
    """Subspace code whose words all have the same dimension."""

    q: int
    ambient: int
    dim: int
    words: tuple[Subspace, ...]
    min_subspace_distance: int

    def __post_init__(self):
        for w in self.words:
            if w.q != self.q or w.ambient_dim != self.ambient or w.dim != self.dim:
                raise ValueError("word does not match the code parameters")

    @property
    def cardinality(self) -> int:
        return len(self.words)

    def to_jsonable(self) -> dict:
        return {
            "type": "constant_dimension",
            "q": self.q,
            "ambient": self.ambient,
            "dim": self.dim,
            "min_subspace_distance": self.min_subspace_distance,
            "words": [w.to_jsonable() for w in self.words],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ConstantDimensionCode":
        """Inverse of to_jsonable; a missing or ill-typed field raises ValueError naming it."""
        name = "constant-dimension code field {!r}".format
        q, ambient, dim, distance = (
            json_key(data, key, name(key), json_int) for key in ("q", "ambient", "dim", "min_subspace_distance")
        )
        words = json_key(data, "words", name("words"), json_list)
        subspaces = (subspace_from_jsonable(q, w, f"constant-dimension code word {i}") for i, w in enumerate(words))
        return cls(q, ambient, dim, tuple(subspaces), distance)


@dataclass(frozen=True)
class ConstantRankCode:
    """Rank-metric code whose words all have the same rank.

    ``min_rank_distance`` is a guaranteed lower bound on the minimum rank
    distance; it is the exact minimum iff ``distance_exact``.
    """

    field: Field
    n: int
    rank: int
    words: tuple[tuple[int, ...], ...]
    min_rank_distance: int
    distance_exact: bool = False

    def __post_init__(self):
        if self.n > self.field.m:
            raise ValueError(f"length n={self.n} exceeds extension degree m={self.field.m}")
        for w in self.words:
            if len(w) != self.n:
                raise ValueError("word length mismatch")

    @property
    def cardinality(self) -> int:
        return len(self.words)

    def to_jsonable(self) -> dict:
        return self._document(self.field.words_to_jsonable(self.words))

    def to_json(self) -> str:
        return json_text(self._document(Words(self.field, self.words)))

    def _document(self, words) -> dict:
        """The JSON object of the code, with ``words`` as its word list: lists
        for ``to_jsonable``, a ``Words`` leaf for ``json_text``."""
        return {
            "type": "constant_rank",
            "q": self.field.q,
            "m": self.field.m,
            "modulus": list(self.field.modulus),
            "n": self.n,
            "rank": self.rank,
            "min_rank_distance": self.min_rank_distance,
            "distance_exact": self.distance_exact,
            "words": words,
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ConstantRankCode":
        """Inverse of to_jsonable; a missing or ill-typed field raises ValueError naming it."""
        name = "constant-rank code field {!r}".format
        q, m, n, rank, distance = (
            json_key(data, key, name(key), json_int) for key in ("q", "m", "n", "rank", "min_rank_distance")
        )
        modulus = [json_int(c, name("modulus")) for c in json_key(data, "modulus", name("modulus"), json_list)]
        fld = make_field(q, m, modulus)
        words = tuple(fld.word_from_jsonable(w, name("words")) for w in json_key(data, "words", name("words"), json_list))
        return cls(fld, n, rank, words, distance, json_key(data, "distance_exact", name("distance_exact"), json_bool))


def lift(X: MatrixFq) -> Subspace:
    """Rowspace([I_r | X]) for an r x (n-r) matrix X; injective in X."""
    r = X.nrows
    # the rows e_i || X_i are already in full-rank RREF
    basis = tuple((0,) * i + (1,) + (0,) * (r - 1 - i) + row for i, row in enumerate(X.rows))
    return Subspace._canonical(X.q, r + X.ncols, basis)


def _lifts(q: int, ambient: int, dim: int, k: int, count: int | None = None) -> Iterator[Subspace]:
    """Lift the first ``count`` words (all when None) of a dimension-k
    Gabidulin code of length dim over F_{q^(ambient-dim)} into Gr(ambient,
    dim), in message order, row i of X holding the coordinates of entry i;
    more than ENUMERATION_GUARD words are refused.
    """
    subfield = make_field(q, ambient - dim)
    code = GabidulinCode(subfield, n=dim, k=k)
    count = code.cardinality if count is None else count
    if count > ENUMERATION_GUARD:
        raise ValueError(f"code too large to enumerate ({count} words)")
    for cw in code.codewords(range(count)):
        yield lift(MatrixFq._unchecked(q, tuple(map(subfield.coeffs, cw)), ambient - dim))


def lifted_mrd_cdc(n: int, tau: int, d: int, q: int) -> ConstantDimensionCode:
    """Constant-dimension code in Gr(n, tau) from a lifted MRD code.

    Requires even d and n/2 >= tau >= d/2.  Cardinality is exactly
    q^{(n-tau)(tau - d/2 + 1)} and the minimum subspace distance is d
    (twice the rank distance of the underlying MRD code).
    """
    if d % 2 != 0 or d < 2:
        raise ValueError(f"subspace-distance parameter d={d} must be a positive even integer")
    if not d // 2 <= tau <= n - tau:
        raise ValueError(f"need n/2 >= tau >= d/2, got n={n}, tau={tau}, d={d}")
    return ConstantDimensionCode(q, n, tau, tuple(_lifts(q, n, tau, tau - d // 2 + 1)), d)


def lifted_mrd_cdc_odd(
    ambient: int, tau: int, d: int, variant: str, q: int
) -> ConstantDimensionCode:
    """Lifted-MRD constant-dimension codes for odd target distance d.

    variant "minus": distance d-1, cardinality q^{(ambient-tau)(tau-(d-1)/2+1)}; needs d >= 3.
    variant "plus":  distance d+1, cardinality q^{(ambient-tau)(tau-(d-1)/2)}; needs d >= 1.
    """
    if d % 2 != 1:
        raise ValueError(f"d={d} must be odd; use lifted_mrd_cdc for even distances")
    if variant not in ("minus", "plus"):
        raise ValueError(f"variant must be 'minus' or 'plus', got {variant!r}")
    least = 3 if variant == "minus" else 1
    if d < least:
        raise ValueError(f"variant {variant!r} needs d >= {least}, got d={d}")
    if tau < (d - 1) // 2 + 1:
        raise ValueError(f"need tau >= (d-1)/2 + 1, got tau={tau}, d={d}")
    if tau > ambient - tau:
        raise ValueError(f"need tau <= ambient - tau, got tau={tau}, ambient={ambient}")
    half = (d - 1) // 2
    if variant == "minus":
        k, ds = tau - half + 1, d - 1
    else:
        k, ds = tau - half, d + 1
    return ConstantDimensionCode(q, ambient, tau, tuple(_lifts(q, ambient, tau, k)), ds)


def _pair_word(fld: Field, U: Subspace, V: Subspace) -> tuple[int, ...]:
    """G^T H for the bases G of U and H of V as a word over fld: entry j is
    sum_i H_ij g_i, where row i of G holds the coordinates of g_i."""
    return _combine(fld, [fld.from_coeffs(row) for row in U.basis], V.basis, V.ambient_dim)


def crc_from_cdc_pair(M: ConstantDimensionCode, N: ConstantDimensionCode, fld: Field) -> ConstantRankCode:
    """Constant-rank code from a pair of constant-dimension codes.

    Pairs the first min(|M|, |N|) words of each (canonical order) as
    full-rank matrices G_i, H_i and emits A_i = G_i^T H_i, reinterpreted as
    vectors of length N.ambient over fld = F_{q^{M.ambient}}; only those
    pairs are read.  The minimum rank distance is at least d_S(M)/2 +
    d_S(N)/2; when |M| = |N| some pair also satisfies the upper bound
    min(d_S)/2 + r.
    """
    if M.q != N.q or M.q != fld.q:
        raise ValueError("field size mismatch between the codes and the field")
    if M.dim != N.dim:
        raise ValueError(f"dimension mismatch: {M.dim} != {N.dim}")
    r = M.dim
    if r > min(M.ambient, N.ambient):
        raise ValueError("dimension exceeds an ambient space")
    if fld.m != M.ambient:
        raise ValueError(f"field degree {fld.m} must equal the first code's ambient {M.ambient}")
    if N.ambient > M.ambient:
        raise ValueError("need N.ambient <= M.ambient so the result has length n <= m")
    words = tuple(_pair_word(fld, U, V) for U, V in zip(M.words, N.words))
    return ConstantRankCode(fld, N.ambient, r, words, M.min_subspace_distance // 2 + N.min_subspace_distance // 2)


def crc_theorem8(n: int, m: int, tau: int, d: int, q: int) -> ConstantRankCode:
    """Constant-rank code of cardinality q^{(n-tau)(tau - floor((d-1)/2))}.

    All words have rank tau and pairwise rank distance >= d.  Even d pairs
    two lifted-MRD constant-dimension codes of distance d over ambients m
    and n; odd d pairs a distance-(d-1) code over ambient m with a
    distance-(d+1) code over ambient n.  The ambient-n code is the smaller
    one, and only the pairs it forms are lifted: 2|C| subspaces, so the
    enumeration guard weighs the |C| words kept.
    """
    half = (d - 1) // 2
    if not half + 1 <= tau < d <= n <= m:
        raise ValueError(
            f"need floor((d-1)/2)+1 <= tau < d <= n <= m, got tau={tau}, d={d}, n={n}, m={m}"
        )
    if tau > n - tau:
        raise ValueError(f"need tau <= n - tau, got tau={tau}, n={n}")
    fld, k = make_field(q, m), tau - half
    expected = q ** ((n - tau) * (tau - half))
    N = _lifts(q, n, tau, k, count=expected)
    M = _lifts(q, m, tau, k + d % 2, count=expected)
    words = tuple(_pair_word(fld, U, V) for U, V in zip(M, N))
    exact = d % 2 == 0 and n == m and tau == d // 2
    crc = ConstantRankCode(fld, n, tau, words, d, exact)
    if crc.cardinality != expected:
        raise AssertionError(f"cardinality {crc.cardinality} != q^((n-tau)(tau-floor((d-1)/2))) = {expected}")
    return crc
