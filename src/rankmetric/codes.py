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
from typing import Iterator, Sequence

from .ff import Field, expand_to_matrix, make_field, vector_from_matrix
from .linpoly import LinearizedPoly, evaluate
from .matfq import MatrixFq, Subspace, rank_of_vector

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
        Q = self.field.order
        coeffs = []
        for _ in range(self.k):
            coeffs.append(index % Q)
            index //= Q
        return self.encode(LinearizedPoly(self.field, tuple(coeffs)))

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

    def contains(self, vec: Sequence[int]) -> bool:
        """Membership test by row reduction against the generator matrix."""
        if len(vec) != self.n:
            return False
        reduced = _ext_reduce(self.generator_rows(), tuple(int(v) for v in vec), self.field)
        return all(x == 0 for x in reduced)


def _ext_reduce(rows: list[tuple[int, ...]], vec: tuple[int, ...], F: Field) -> tuple[int, ...]:
    """Reduce vec modulo the F_{q^m}-row space of rows (Gaussian elimination)."""
    work = [list(r) for r in rows]
    v = list(vec)
    r = 0
    n = len(vec)
    for c in range(n):
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = F.inv(work[r][c])
        work[r] = [F.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                coef = work[i][c]
                work[i] = [F.sub(x, F.mul(coef, y)) for x, y in zip(work[i], work[r])]
        if v[c]:
            coef = v[c]
            v = [F.sub(x, F.mul(coef, y)) for x, y in zip(v, work[r])]
        r += 1
        if r == len(work):
            break
    return tuple(v)


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
        q, ambient, dim, distance = (
            _json_field(data, key, int) for key in ("q", "ambient", "dim", "min_subspace_distance")
        )
        words = []
        for i, w in enumerate(_json_field(data, "words", list)):
            where = f"words[{i}]"
            basis = _json_field(w, "basis", list, where)
            if not all(isinstance(r, list) and all(isinstance(x, int) for x in r) for r in basis):
                raise ValueError(f"{where}: field 'basis' must be a list of integer lists")
            words.append(Subspace(q, _json_field(w, "ambient", int, where), tuple(map(tuple, basis))))
        return cls(q, ambient, dim, tuple(words), distance)


def _json_field(data, key: str, kind: type, where: str = "constant-dimension code"):
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{where}: field {key!r} is missing or not of type {kind.__name__}")
    return value


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
            "words": [[list(self.field.coeffs(x)) for x in w] for w in self.words],
        }

    @classmethod
    def from_jsonable(cls, data: dict) -> "ConstantRankCode":
        fld = make_field(int(data["q"]), int(data["m"]), data["modulus"])
        words = tuple(tuple(fld.from_coeffs(c) for c in w) for w in data["words"])
        return cls(
            fld,
            int(data["n"]),
            int(data["rank"]),
            words,
            int(data["min_rank_distance"]),
            bool(data.get("distance_exact", False)),
        )


def lift(X: MatrixFq) -> Subspace:
    """Rowspace([I_r | X]) for an r x (n-r) matrix X; injective in X."""
    r = X.nrows
    identity = MatrixFq.identity(X.q, r)
    stacked = identity.hstack(X) if r else MatrixFq(X.q, (), ncols=X.ncols)
    # [I | X] is already in RREF
    return Subspace(X.q, r + X.ncols, stacked.rows)


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
        "alphas": [list(code.field.coeffs(a)) for a in code.alphas],
    }
    if include_words:
        out["words"] = [[list(code.field.coeffs(x)) for x in w] for w in code.iter_codewords()]
    return out
