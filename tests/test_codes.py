"""Code constructions: Gabidulin, lifting, constant-dimension, constant-rank."""

import itertools
import random

import pytest

from rankmetric.bounds import singleton_max, CodeParams
from rankmetric.codes import (
    ConstantDimensionCode,
    ConstantRankCode,
    GabidulinCode,
    crc_from_cdc_pair,
    crc_theorem8,
    gabidulin_to_jsonable,
    lift,
    lift_untransposed_cdc,
    lifted_mrd_cdc,
    lifted_mrd_cdc_odd,
)
from rankmetric.ff import make_field
from rankmetric.linpoly import LinearizedPoly
from rankmetric.matfq import MatrixFq, Subspace, rank_of_vector, subspace_distance

F16 = make_field(2, 4)


def pairwise_rank_distances(code):
    fld = code.field
    words = list(code.iter_codewords())
    return [
        rank_of_vector(tuple(fld.sub(a, b) for a, b in zip(u, v)), fld)
        for i, u in enumerate(words)
        for v in words[i + 1 :]
    ]


def min_weight(code):
    fld = code.field
    return min(
        rank_of_vector(cw, fld) for i, cw in enumerate(code.iter_codewords()) if i > 0
    )


# --- Gabidulin -----------------------------------------------------------------


def test_gabidulin_validation():
    with pytest.raises(ValueError, match="exceeds extension degree"):
        GabidulinCode(F16, n=5, k=2)
    with pytest.raises(ValueError, match="k <= n"):
        GabidulinCode(F16, n=3, k=4)
    with pytest.raises(ValueError, match="independent"):
        GabidulinCode(F16, n=2, k=1, alphas=(1, 1))
    with pytest.raises(ValueError, match="evaluation points"):
        GabidulinCode(F16, n=2, k=1, alphas=(1, 16))


def test_gabidulin_encode_examples():
    code = GabidulinCode(F16, n=4, k=2)
    assert code.alphas == (1, 2, 4, 8)
    assert code.encode(LinearizedPoly.zero(F16)) == (0, 0, 0, 0)
    # f = x evaluates to the points themselves, a full-rank word
    word = code.encode(LinearizedPoly.identity(F16))
    assert word == code.alphas
    assert rank_of_vector(word, F16) == 4
    with pytest.raises(ValueError, match="q-degree"):
        code.encode(LinearizedPoly(F16, (0, 0, 1)))


def test_gabidulin_enumeration_injective_and_mrd():
    code = GabidulinCode(F16, n=4, k=2)
    words = list(code.iter_codewords())
    assert len(words) == len(set(words)) == 256
    assert min_weight(code) == 3 == code.d


def test_gabidulin_codeword_indexing():
    code = GabidulinCode(F16, n=3, k=2)
    words = list(code.iter_codewords())
    for index in (0, 1, 17, 255):
        assert code.codeword(index) == words[index]
    # message index digits are the polynomial coefficients, low index first
    assert code.codeword(5) == code.encode(LinearizedPoly(F16, (5,)))
    assert code.codeword(3 * 16) == code.encode(LinearizedPoly(F16, (0, 3)))


def test_gabidulin_mrd_sweep_and_singleton():
    for n in range(1, 5):
        for k in range(1, n + 1):
            code = GabidulinCode(F16, n=n, k=k)
            if code.cardinality > 1:
                assert min_weight(code) == n - k + 1
            params = CodeParams(q=2, m=4, n=n, d=n - k + 1)
            assert code.cardinality <= singleton_max(params)


def test_gabidulin_membership():
    code = GabidulinCode(F16, n=4, k=2)
    for index in (0, 3, 100, 255):
        assert code.contains(code.codeword(index))
    # a word of weight below the minimum distance cannot be a nonzero codeword
    assert not code.contains((1, 0, 0, 0))


def test_gabidulin_custom_alphas():
    alphas = (3, 7, 9)
    code = GabidulinCode(F16, n=3, k=1, alphas=alphas)
    assert code.alphas == alphas
    assert min_weight(code) == 3


def test_gabidulin_odd_characteristic():
    F9 = make_field(3, 2)
    code = GabidulinCode(F9, n=2, k=1)
    words = list(code.iter_codewords())
    assert len(set(words)) == 9
    assert min_weight(code) == 2
    F81 = make_field(9, 2)
    code81 = GabidulinCode(F81, n=2, k=1)
    assert min_weight(code81) == 2  # MRD over a prime-power base field


def test_lifted_mrd_cdc_odd_characteristic():
    cdc = lifted_mrd_cdc(4, 2, 4, 3)
    assert cdc.cardinality == 9  # (3^2)^1
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(cdc.words, 2)]
    assert min(dists) == 4
    crc = crc_theorem8(4, 4, 2, 4, 3)
    assert crc.cardinality == 9
    assert all(rank_of_vector(w, crc.field) == 2 for w in crc.words)
    assert min(pairwise_rank_distances(crc)) == 4


# --- lifting ---------------------------------------------------------------------


def test_lift_examples():
    zero = MatrixFq.zeros(2, 2, 2)
    s = lift(zero)
    assert s.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    one = MatrixFq(2, ((1,),))
    assert lift(one) == Subspace.from_vectors(2, 2, [(1, 1)])


def test_lift_is_injective():
    seen = set()
    for entries in itertools.product(range(2), repeat=4):
        X = MatrixFq(2, (entries[:2], entries[2:]))
        seen.add(lift(X))
    assert len(seen) == 16


def test_lifted_mrd_cdc_4_2_4():
    cdc = lifted_mrd_cdc(4, 2, 4, 2)
    assert cdc.cardinality == 4
    assert cdc.min_subspace_distance == 4
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(cdc.words, 2)]
    assert min(dists) == 4


def test_lifted_mrd_cdc_6_2_4():
    cdc = lifted_mrd_cdc(6, 2, 4, 2)
    assert cdc.cardinality == 16
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(cdc.words, 2)]
    assert min(dists) == 4
    assert all(w.dim == 2 for w in cdc.words)


def test_lifted_mrd_cdc_cardinality_formula():
    cdc = lifted_mrd_cdc(6, 3, 2, 2)
    assert cdc.cardinality == 2 ** (3 * 3) == 512
    assert len(set(cdc.words)) == 512


def test_lifted_mrd_cdc_distance_is_twice_rank_distance():
    # lifting doubles rank distances; check exhaustively on the small instance
    subfield = make_field(2, 2)
    gab = GabidulinCode(subfield, n=2, k=1)
    words = list(gab.iter_codewords())
    lifted = lifted_mrd_cdc(4, 2, 4, 2)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i < j:
                rd = rank_of_vector(tuple(subfield.sub(a, b) for a, b in zip(u, v)), subfield)
                sd = subspace_distance(lifted.words[i], lifted.words[j])
                assert sd == 2 * rd


def test_lifted_mrd_cdc_preconditions():
    with pytest.raises(ValueError, match="even"):
        lifted_mrd_cdc(6, 2, 3, 2)
    with pytest.raises(ValueError, match="tau"):
        lifted_mrd_cdc(4, 3, 4, 2)  # tau > n - tau
    with pytest.raises(ValueError, match="tau"):
        lifted_mrd_cdc(6, 1, 4, 2)  # tau < d/2


def test_lifted_mrd_cdc_odd_plus():
    cdc = lifted_mrd_cdc_odd(6, 2, 3, "plus", 2)
    assert cdc.cardinality == 16
    assert cdc.min_subspace_distance == 4
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(cdc.words, 2)]
    assert min(dists) == 4


def test_lifted_mrd_cdc_odd_minus():
    cdc = lifted_mrd_cdc_odd(6, 2, 3, "minus", 2)
    assert cdc.cardinality == 256
    assert cdc.min_subspace_distance == 2
    rng = random.Random(0)
    sample = rng.sample(range(256), 24)
    assert all(
        subspace_distance(cdc.words[i], cdc.words[j]) >= 2
        for i in sample
        for j in sample
        if i < j
    )


def test_lifted_mrd_cdc_odd_preconditions():
    with pytest.raises(ValueError, match="tau"):
        lifted_mrd_cdc_odd(6, 1, 3, "plus", 2)  # tau < (d-1)/2 + 1
    with pytest.raises(ValueError, match="odd"):
        lifted_mrd_cdc_odd(6, 2, 4, "plus", 2)
    with pytest.raises(ValueError, match="variant"):
        lifted_mrd_cdc_odd(6, 2, 3, "both", 2)


def test_lift_untransposed_cdc():
    cdc = lift_untransposed_cdc(5, 3, 4, 2)
    assert cdc.cardinality == 8
    assert all(w.dim == 3 and w.ambient_dim == 5 for w in cdc.words)
    dists = [subspace_distance(a, b) for a, b in itertools.combinations(cdc.words, 2)]
    assert min(dists) == 4
    # coincides with the transposed construction at tau = n - tau
    square = lift_untransposed_cdc(4, 2, 4, 2)
    assert square.cardinality == 4
    with pytest.raises(ValueError, match="n - tau >= d/2"):
        lift_untransposed_cdc(4, 3, 6, 2)


# --- constant-rank constructions ---------------------------------------------------


def test_crc_from_cdc_pair_square_case():
    M = lifted_mrd_cdc(4, 2, 4, 2)
    crc = crc_from_cdc_pair(M, M, F16)
    assert crc.cardinality == 4
    assert all(rank_of_vector(w, F16) == 2 for w in crc.words)
    dists = pairwise_rank_distances(crc)
    lower = M.min_subspace_distance // 2 * 2
    upper = M.min_subspace_distance // 2 + 2
    assert all(d >= lower for d in dists)
    assert min(dists) <= upper
    assert min(dists) == 4  # bounds coincide here


def test_crc_from_cdc_pair_min_rule():
    M = lifted_mrd_cdc_odd(6, 2, 3, "minus", 2)  # 256 words
    N = lifted_mrd_cdc_odd(6, 2, 3, "plus", 2)  # 16 words
    crc = crc_from_cdc_pair(M, N, make_field(2, 6))
    assert crc.cardinality == 16
    assert crc.min_rank_distance == (2 + 4) // 2


def test_crc_from_cdc_pair_degenerate_rank_zero():
    q = 2
    M = ConstantDimensionCode(q, 4, 0, (Subspace.zero(q, 4),), 0)
    N = ConstantDimensionCode(q, 3, 0, (Subspace.zero(q, 3),), 0)
    crc = crc_from_cdc_pair(M, N, F16)
    assert crc.cardinality == 1
    assert crc.words == ((0, 0, 0),)


def test_crc_from_cdc_pair_validation():
    M = lifted_mrd_cdc(4, 2, 4, 2)
    N = lifted_mrd_cdc(6, 2, 4, 2)
    with pytest.raises(ValueError, match="ambient"):
        crc_from_cdc_pair(M, N, F16)  # N.ambient > M.ambient
    M3 = lifted_mrd_cdc(6, 3, 2, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        crc_from_cdc_pair(M3, lifted_mrd_cdc(6, 2, 4, 2), make_field(2, 6))


def test_crc_theorem8_odd():
    crc = crc_theorem8(6, 6, 2, 3, 2)
    assert crc.cardinality == 16 == 2 ** ((6 - 2) * (2 - 1))
    assert all(rank_of_vector(w, crc.field) == 2 for w in crc.words)
    assert min(pairwise_rank_distances(crc)) >= 3
    assert crc.min_rank_distance == 3 and not crc.distance_exact


def test_crc_theorem8_even():
    crc = crc_theorem8(6, 6, 2, 4, 2)
    assert crc.cardinality == 16
    dists = pairwise_rank_distances(crc)
    assert min(dists) >= 4
    # tau = d/2 and n = m: the distance is exactly d
    assert crc.distance_exact and min(dists) == 4


def test_crc_theorem8_rectangular():
    crc = crc_theorem8(6, 8, 2, 3, 2)
    assert crc.cardinality == 16
    assert crc.n == 6 and crc.field.m == 8
    assert all(rank_of_vector(w, crc.field) == 2 for w in crc.words)
    assert min(pairwise_rank_distances(crc)) >= 3


def test_crc_theorem8_sweep_all_desk_parameters():
    rng = random.Random(5)
    for q, mmax in ((2, 6), (3, 4)):
        for m in range(2, mmax + 1):
            for n in range(2, m + 1):
                for d in range(2, n + 1):
                    half = (d - 1) // 2
                    for tau in range(half + 1, d):
                        if tau > n - tau:
                            continue
                        crc = crc_theorem8(n, m, tau, d, q)
                        assert crc.cardinality == q ** ((n - tau) * (tau - half))
                        fld = crc.field
                        assert all(rank_of_vector(w, fld) == tau for w in crc.words)
                        words = crc.words
                        idx = (
                            range(len(words))
                            if len(words) <= 24
                            else sorted(rng.sample(range(len(words)), 24))
                        )
                        for i in idx:
                            for j in idx:
                                if i < j:
                                    diff = tuple(
                                        fld.sub(a, b) for a, b in zip(words[i], words[j])
                                    )
                                    assert rank_of_vector(diff, fld) >= d


def test_lifted_mrd_cdc_exact_distance_sweep():
    for q, nmax in ((2, 6), (3, 4)):
        for n in range(2, nmax + 1):
            for tau in range(1, n // 2 + 1):
                for d in range(2, 2 * tau + 1, 2):
                    cdc = lifted_mrd_cdc(n, tau, d, q)
                    assert cdc.cardinality == q ** ((n - tau) * (tau - d // 2 + 1))
                    assert len(set(cdc.words)) == cdc.cardinality
                    if cdc.cardinality <= 32:
                        dists = [
                            subspace_distance(a, b)
                            for a, b in itertools.combinations(cdc.words, 2)
                        ]
                        if dists:
                            assert min(dists) == d


def test_crc_theorem8_preconditions():
    with pytest.raises(ValueError, match="tau <= n - tau"):
        crc_theorem8(4, 4, 3, 4, 2)
    with pytest.raises(ValueError):
        crc_theorem8(6, 6, 1, 3, 2)  # tau < floor((d-1)/2) + 1
    with pytest.raises(ValueError):
        crc_theorem8(6, 4, 2, 3, 2)  # n > m


# --- serialization ------------------------------------------------------------------


def test_cdc_serialization_roundtrip():
    cdc = lifted_mrd_cdc(6, 2, 4, 2)
    doc = cdc.to_jsonable()
    assert doc["words"][0] == {"ambient": 6, "basis": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]]}
    back = ConstantDimensionCode.from_jsonable(doc)
    assert back == cdc


def test_crc_serialization_roundtrip():
    crc = crc_theorem8(6, 6, 2, 3, 2)
    back = ConstantRankCode.from_jsonable(crc.to_jsonable())
    assert back.words == crc.words
    assert back.field == crc.field
    assert back.min_rank_distance == crc.min_rank_distance


def test_gabidulin_serialization():
    code = GabidulinCode(F16, n=3, k=2)
    doc = gabidulin_to_jsonable(code, include_words=False)
    assert doc["modulus"] == [1, 1, 0, 0, 1]
    assert doc["alphas"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
