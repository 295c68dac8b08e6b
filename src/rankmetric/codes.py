"""Code constructions in the rank and subspace metrics.

Three families:

* Gabidulin codes: evaluations of q-degree-restricted linearized polynomials
  at F_q-linearly independent points; length n <= m over F_{q^m}.
* Constant-dimension codes: sets of r-dimensional subspaces of F_q^n at
  pairwise subspace distance >= d_S, here built by lifting rank-metric codes.
* Constant-rank codes: rank-metric codes whose words all have the same rank,
  built from pairs of constant-dimension codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Iterator, Sequence

from . import ff
from .ff import Field, expand_to_matrix, json_bool, json_int, json_key, json_list, make_field, vector_from_matrix
from .linpoly import LinearizedPoly, evaluate
from .matfq import (
    _BATCH_ROWS,
    _MEMBER_WORK,
    MatrixFq,
    Subspace,
    _addends,
    _batched,
    _digits,
    _gauss_jordan,
    _multiples,
    _table_sums,
    rank_of_vector,
    subspace_from_jsonable,
)

ENUMERATION_GUARD = 1 << 24


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
        alphas = tuple(int(a) for a in alphas)
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

    def encode(self, message: LinearizedPoly) -> tuple[int, ...]:
        if message.field != self.field:
            raise ValueError("message polynomial lives in a different field")
        if message.q_degree >= self.k:
            raise ValueError(f"message q-degree {message.q_degree} >= k={self.k}")
        return tuple(evaluate(message, a) for a in self.alphas)

    def codeword(self, index: int) -> tuple[int, ...]:
        """Codeword for message index sum_i f_i Q^i (digit i = coefficient f_i)."""
        if not 0 <= index < self.cardinality:
            raise ValueError("message index out of range")
        return self.encode(LinearizedPoly(self.field, ff._digits(index, self.field.order, self.k)))

    def iter_codewords(self) -> Iterator[tuple[int, ...]]:
        """All codewords in message-index order."""
        if self.cardinality > ENUMERATION_GUARD:
            raise ValueError(f"code too large to enumerate ({self.cardinality} words)")
        F = self.field
        Q = F.order
        rows = self.generator_rows()
        # per-row scalar multiple cache: scaled[i][f] = f * g_i
        scaled = [[tuple(F.mul(f, x) for x in row) for f in range(Q)] for row in rows]
        zero = (0,) * self.n
        for index in range(self.cardinality):
            word = zero
            idx = index
            for i in range(self.k):
                f = idx % Q
                idx //= Q
                if f:
                    word = tuple(F.add(a, b) for a, b in zip(word, scaled[i][f]))
            yield word

    def codeword_blocks(self, size: int = _BATCH_ROWS):
        """All codewords in the order of ``iter_codewords``, as int64 numpy
        arrays of at most ``size`` rows, one codeword per row.

        Row i of a block is the sum over generator rows g_j of f_j g_j, with
        f_j digit j of the message index, read from one table of the
        multiples f g_j per row.
        """
        import numpy as np

        if self.cardinality > ENUMERATION_GUARD:
            raise ValueError(f"code too large to enumerate ({self.cardinality} words)")
        F = self.field
        Q, p = F.order, F.char
        tables = [_addends(_multiples(F, range(Q), g), p, F.m * F.base.e) for g in self.generator_rows()]
        for lo in range(0, self.cardinality, size):
            messages = _digits(np.arange(lo, min(lo + size, self.cardinality)), Q, self.k)
            yield _table_sums(tables, messages, p)

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership test: the coset key sum_j w_j key(u_j) is 0 (``_unit_keys``)."""
        F = self.field
        if len(vec) != self.n or any(not 0 <= int(w) < F.order for w in vec):
            return False
        key = [0] * (self.n - self.k)
        for w, unit in zip(vec, self._unit_keys):
            key = [F.add(x, F.mul(int(w), y)) for x, y in zip(key, unit)]
        return not any(key)

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
        rows = [list(r) for r in self.generator_rows()]
        _gauss_jordan(rows, self.n, F)
        units = tuple(tuple(int(i == j) for i in range(self.n - k)) for j in range(self.n - k))
        return tuple(tuple(F.neg(x) for x in row[k:]) for row in rows) + units

    def contains_all(self, words: Sequence[Sequence[int]]) -> bool:
        """all(self.contains(w) for w in words).

        Enough words (see ``matfq._batched``) are checked in numpy blocks: a
        word is a codeword exactly when its coset key (``_unit_keys``) is 0,
        and the key of w is the sum over j of w_j key(u_j), read from one
        table of the multiples x key(u_j) per coordinate.  Fields with more
        elements than there are words keep the scalar test, since their
        tables would cost more than the scalar sums they replace.
        """
        F = self.field
        batched = _batched(len(words) * _MEMBER_WORK, F.order) and F.order <= len(words)
        if not batched or any(len(w) != self.n for w in words):
            return all(self.contains(w) for w in words)
        import numpy as np

        tables = [_addends(_multiples(F, range(F.order), key), F.char, F.m * F.base.e) for key in self._unit_keys]
        for lo in range(0, len(words), _BATCH_ROWS):
            block = np.asarray(words[lo : lo + _BATCH_ROWS], dtype=np.int64)
            if block.min() < 0 or block.max() >= F.order or _table_sums(tables, block, F.char).any():
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

    def iter_codewords(self) -> Iterator[tuple[int, ...]]:
        return iter(self.words)

    def to_jsonable(self) -> dict:
        return {
            "type": "constant_rank",
            "q": self.field.q,
            "m": self.field.m,
            "modulus": list(self.field.modulus),
            "n": self.n,
            "rank": self.rank,
            "min_rank_distance": self.min_rank_distance,
            "distance_exact": self.distance_exact,
            "words": [self.field.word_to_jsonable(w) for w in self.words],
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
    identity = MatrixFq.identity(X.q, r)
    stacked = identity.hstack(X) if r else MatrixFq(X.q, (), ncols=X.ncols)
    # [I | X] is already in RREF
    return Subspace._canonical(X.q, r + X.ncols, stacked.rows)


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
    return _lifted_cdc(q, n, tau, tau - d // 2 + 1, d, transpose=True)


def lifted_mrd_cdc_odd(
    ambient: int, tau: int, d: int, variant: str, q: int
) -> ConstantDimensionCode:
    """Lifted-MRD constant-dimension codes for odd target distance d.

    variant "minus": distance d-1, cardinality q^{(ambient-tau)(tau-(d-1)/2+1)}.
    variant "plus":  distance d+1, cardinality q^{(ambient-tau)(tau-(d-1)/2)}.
    """
    if d % 2 != 1:
        raise ValueError(f"d={d} must be odd; use lifted_mrd_cdc for even distances")
    if variant not in ("minus", "plus"):
        raise ValueError(f"variant must be 'minus' or 'plus', got {variant!r}")
    if tau < (d - 1) // 2 + 1:
        raise ValueError(f"need tau >= (d-1)/2 + 1, got tau={tau}, d={d}")
    if tau > ambient - tau:
        raise ValueError(f"need tau <= ambient - tau, got tau={tau}, ambient={ambient}")
    half = (d - 1) // 2
    if variant == "minus":
        k, ds = tau - half + 1, d - 1
    else:
        k, ds = tau - half, d + 1
    return _lifted_cdc(q, ambient, tau, k, ds, transpose=True)


def lift_untransposed_cdc(n: int, tau: int, d: int, q: int) -> ConstantDimensionCode:
    """Constant-dimension code for tau >= n - tau, lifting untransposed words.

    Builds [I_tau | C_i] from the codewords C_i of an MRD code of length
    n - tau over F_{q^tau}; cardinality q^{tau(n-tau-d/2+1)}, distance d.
    """
    if d % 2 != 0 or d < 2:
        raise ValueError(f"subspace-distance parameter d={d} must be a positive even integer")
    if n - tau < d // 2:
        raise ValueError(f"need n - tau >= d/2, got n={n}, tau={tau}, d={d}")
    if tau > n:
        raise ValueError(f"need tau <= n, got tau={tau}, n={n}")
    if n - tau > tau:
        raise ValueError(
            f"untransposed lifting needs tau >= n - tau (got tau={tau}, n={n}); "
            "use lifted_mrd_cdc for tau <= n - tau"
        )
    return _lifted_cdc(q, n, tau, n - tau - d // 2 + 1, d, transpose=False)


def _lifted_cdc(
    q: int, ambient: int, dim: int, k: int, distance: int, transpose: bool
) -> ConstantDimensionCode:
    """Lift every word of a dimension-k Gabidulin code into Gr(ambient, dim).

    transpose=True: the code has length dim over F_{q^(ambient-dim)} and each
    (ambient-dim) x dim expansion is transposed before lifting.
    transpose=False: the code has length ambient-dim over F_{q^dim} and each
    dim x (ambient-dim) expansion is lifted as it is.
    """
    if transpose:
        subfield, length = make_field(q, ambient - dim), dim
    else:
        subfield, length = make_field(q, dim), ambient - dim
    gab = GabidulinCode(subfield, n=length, k=k)
    words = []
    for cw in gab.iter_codewords():
        mat = expand_to_matrix(cw, subfield)
        words.append(lift(mat.transpose() if transpose else mat))
    return ConstantDimensionCode(q, ambient, dim, tuple(words), distance)


def crc_from_cdc_pair(
    M: ConstantDimensionCode,
    N: ConstantDimensionCode,
    fld: Field,
    min_rank_distance: int | None = None,
    distance_exact: bool = False,
) -> ConstantRankCode:
    """Constant-rank code from a pair of constant-dimension codes.

    Pairs the first min(|M|, |N|) words of each (canonical order) as
    full-rank matrices G_i, H_i and emits A_i = G_i^T H_i, reinterpreted as
    vectors of length N.ambient over fld = F_{q^{M.ambient}}.  The minimum
    rank distance is at least d_S(M)/2 + d_S(N)/2; when |M| = |N| some pair
    also satisfies the upper bound min(d_S)/2 + r.
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
    count = min(M.cardinality, N.cardinality)
    words = []
    for i in range(count):
        G = M.words[i].to_matrix()  # r x m, full rank (RREF basis)
        H = N.words[i].to_matrix()  # r x n
        A = G.transpose().mul(H) if r else MatrixFq.zeros(fld.q, M.ambient, N.ambient)
        words.append(vector_from_matrix(A, fld))
    guaranteed = M.min_subspace_distance // 2 + N.min_subspace_distance // 2
    if min_rank_distance is None:
        min_rank_distance = guaranteed
    return ConstantRankCode(fld, N.ambient, r, tuple(words), min_rank_distance, distance_exact)


def crc_theorem8(n: int, m: int, tau: int, d: int, q: int) -> ConstantRankCode:
    """Constant-rank code of cardinality q^{(n-tau)(tau - floor((d-1)/2))}.

    All words have rank tau and pairwise rank distance >= d.  Even d pairs
    two lifted-MRD constant-dimension codes of distance d over ambients m
    and n; odd d pairs a distance-(d-1) code over ambient m with a
    distance-(d+1) code over ambient n.
    """
    half = (d - 1) // 2
    if not half + 1 <= tau < d <= n <= m:
        raise ValueError(
            f"need floor((d-1)/2)+1 <= tau < d <= n <= m, got tau={tau}, d={d}, n={n}, m={m}"
        )
    if tau > n - tau:
        raise ValueError(f"need tau <= n - tau, got tau={tau}, n={n}")
    if d % 2 == 0:
        M = lifted_mrd_cdc(m, tau, d, q)
        N = lifted_mrd_cdc(n, tau, d, q)
    else:
        M = lifted_mrd_cdc_odd(m, tau, d, "minus", q)
        N = lifted_mrd_cdc_odd(n, tau, d, "plus", q)
    fld = make_field(q, m)
    exact = d % 2 == 0 and n == m and tau == d // 2
    crc = crc_from_cdc_pair(M, N, fld, min_rank_distance=d, distance_exact=exact)
    expected = q ** ((n - tau) * (tau - half))
    if crc.cardinality != expected:
        raise AssertionError(f"cardinality {crc.cardinality} != q^((n-tau)(tau-floor((d-1)/2))) = {expected}")
    return crc


def gabidulin_to_jsonable(code: GabidulinCode, include_words: bool = False) -> dict:
    out = {
        "type": "gabidulin",
        "q": code.q,
        "m": code.m,
        "modulus": list(code.field.modulus),
        "n": code.n,
        "k": code.k,
        "alphas": code.field.word_to_jsonable(code.alphas),
    }
    if include_words:
        out["words"] = [code.field.word_to_jsonable(w) for w in code.iter_codewords()]
    return out
