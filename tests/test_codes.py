"""Code constructions: Gabidulin, lifting, constant-dimension, constant-rank."""

import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rankmetric import codes, matfq
from rankmetric.bounds import singleton_max, CodeParams
from rankmetric.codes import (
    ConstantDimensionCode,
    ConstantRankCode,
    GabidulinCode,
    crc_from_cdc_pair,
    crc_theorem8,
    lift,
    lifted_mrd_cdc,
    lifted_mrd_cdc_odd,
)
from rankmetric.ff import SUPPORTED_Q, make_field
from rankmetric.linpoly import LinearizedPoly, evaluate
from rankmetric.matfq import MatrixFq, Subspace, rank_of_vector, subspace_distance
from rankmetric.witness import bound1_witness
from reference import matrix_product, transpose, vector_from_matrix

F16 = make_field(2, 4)


def pairwise_rank_distances(code):
    fld = code.field
    words = code.words
    return [
        rank_of_vector(tuple(fld.sub(a, b) for a, b in zip(u, v)), fld)
        for i, u in enumerate(words)
        for v in words[i + 1 :]
    ]


def slow_pair_words(M, N, fld):
    """crc_from_cdc_pair's words by F_q matrix algebra: A_i = G_i^T H_i, column j read as an element of fld."""
    words = []
    for U, V in zip(M.words, N.words):
        G, H = MatrixFq(fld.q, U.basis, ncols=M.ambient), MatrixFq(fld.q, V.basis, ncols=N.ambient)
        words.append(vector_from_matrix(matrix_product(transpose(G), H), fld))
    return tuple(words)


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
    assert code.codeword(0) == (0, 0, 0, 0)
    # message 1 is f = x, which evaluates to the points themselves, a full-rank word
    word = code.codeword(1)
    assert word == code.alphas
    assert rank_of_vector(word, F16) == 4
    with pytest.raises(ValueError, match="message index"):
        code.codeword(code.cardinality)  # f = x^{[k]}, of q-degree k


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
    for index, coeffs in ((5, (5,)), (3 * 16, (0, 3))):
        assert code.codeword(index) == tuple(evaluate(LinearizedPoly(F16, coeffs), a) for a in code.alphas)


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
    # against the set of codewords, for each q: every word of a small space
    # (tampered codewords included), short words and out-of-range entries
    for q in SUPPORTED_Q:
        fld = make_field(q, 3 if q == 2 else 2)
        alphas = tuple(fld.frobenius(a, 1) for a in fld.polynomial_basis(fld.m))
        for k in range(1, fld.m):
            code = GabidulinCode(fld, n=fld.m, k=k, alphas=alphas)
            members = set(code.iter_codewords())
            words = list(itertools.product(range(fld.order), repeat=code.n))
            assert [code.contains(w) for w in words] == [w in members for w in words]
            word = code.codeword(code.cardinality - 1)
            assert not code.contains(word[:-1])
            assert not code.contains(word + (0,))
            assert not code.contains(word[:-1] + (fld.order,))
            assert not code.contains((-1,) + word[1:])


@pytest.mark.parametrize("q", SUPPORTED_Q)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_codeword_blocks_match_iter_codewords(q, seed):
    rng = random.Random(seed)
    fld = make_field(q, rng.randint(1, {2: 5, 3: 3, 4: 3}.get(q, 2)))
    n = rng.randint(1, fld.m)
    k = rng.randint(1, n)
    while fld.order**k > 4096:
        k -= 1
    while True:
        alphas = tuple(rng.randrange(1, fld.order) for _ in range(n))
        if rank_of_vector(alphas, fld) == n:
            break
    code = GabidulinCode(fld, n=n, k=k, alphas=alphas)
    # most sizes do not divide a power of q^m: blocks then start mid-way through message digits
    size = rng.choice([1, fld.order - 1, fld.order + 1, rng.randint(1, code.cardinality + 1)]) or 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(codes, "_BATCH_ROWS", size)
        blocks = list(code.codeword_blocks())
    assert all(b.dtype == np.int64 and b.shape[1:] == (n,) and 0 < len(b) <= size for b in blocks)
    assert [tuple(w) for b in blocks for w in b.tolist()] == list(code.iter_codewords())


@pytest.mark.parametrize(
    "q, m, n, k", [(3, 3, 3, 3), (9, 2, 2, 2), (5, 2, 2, 2), (4, 3, 3, 2), (2, 4, 4, 4), (2, 13, 2, 1), (2, 13, 13, 1)]
)
def test_codeword_blocks_across_low_tables(q, m, n, k, monkeypatch):
    # odd p with k >= 3, fields with more elements than _BATCH_ROWS, and
    # _BATCH_ROWS below Q, where a block is a slice of one low table plus a
    # high row; at k = 1 the blocks are slices of the one row table itself.
    # Odd-p sums read the sum tables, and with the cap at 0 add digitwise
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    Q, expected = code.field.order, list(code.iter_codewords())
    made = []
    monkeypatch.setattr(codes, "_row_tables", lambda *args: made.append(matfq._row_tables(*args)) or made[-1])
    for table_max in (matfq._RANK_TABLE_MAX, 0):
        monkeypatch.setattr(matfq, "_RANK_TABLE_MAX", table_max)
        for size in sorted({matfq._BATCH_ROWS, Q - 1, Q + 1, 2 * Q * Q + 1}):
            monkeypatch.setattr(codes, "_BATCH_ROWS", size)
            blocks = list(code.codeword_blocks())
            assert all(b.dtype == np.int64 and b.shape[1:] == (n,) and 0 < len(b) <= size for b in blocks)
            assert [tuple(w) for b in blocks for w in b.tolist()] == expected, (table_max, size)
            if k == 1:
                assert all(np.shares_memory(b, made[-1][0]) for b in blocks)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_contains_all_matches_contains(q, force_batching, monkeypatch):
    rng = random.Random(q)
    fld = make_field(q, 3 if q <= 4 else 2)
    code = GabidulinCode(fld, n=fld.m, k=fld.m - 1)
    # as many words as field elements, so that the batched check tabulates
    words = [code.codeword(rng.randrange(code.cardinality)) for _ in range(fld.order)]
    tampered = []
    for _ in range(4):
        i, j = rng.randrange(len(words)), rng.randrange(code.n)
        bad = list(words[i])
        bad[j] = fld.add(bad[j], rng.randrange(1, fld.order))
        tampered.append(words[:i] + [tuple(bad)] + words[i + 1 :])
    tampered.append(words[:-1] + [words[-1][:-1]])  # a word of the wrong length
    assert all(code.contains(w) for w in words)
    assert not any(all(code.contains(w) for w in t) for t in tampered)
    # odd-p keys add through the sum tables, and with the cap at 0 digitwise
    for batched, table_max in itertools.product((False, True), (matfq._RANK_TABLE_MAX, 0)):
        force_batching(batched)
        monkeypatch.setattr(matfq, "_RANK_TABLE_MAX", table_max)
        with monkeypatch.context() as mp:
            if batched:
                mp.setattr(GabidulinCode, "contains", None)  # the batched check never calls it
            assert code.contains_all(words)
            assert not any(code.contains_all(t) for t in tampered[:-1])
        assert not code.contains_all(tampered[-1])
    out_of_range = words[:-1] + [(fld.order,) + words[-1][1:]]
    assert not code.contains_all(out_of_range)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_codewords_match_codeword(q, force_batching, monkeypatch):
    rng = random.Random(300 + q)
    fld = make_field(q, 3 if q <= 4 else 2)
    code = GabidulinCode(fld, n=fld.m, k=2)
    # more indices than field elements, so that the batched path tabulates
    indices = [rng.randrange(code.cardinality) for _ in range(fld.order)] + [0, code.cardinality - 1]
    expected = [code.codeword(i) for i in indices]
    # odd-p words add through the sum tables, and with the cap at 0 digitwise
    for batched, table_max in itertools.product((True, False), (matfq._RANK_TABLE_MAX, 0)):
        force_batching(batched)
        monkeypatch.setattr(matfq, "_RANK_TABLE_MAX", table_max)
        with monkeypatch.context() as mp:
            if batched:
                mp.setattr(GabidulinCode, "codeword", None)  # one table pass, no scalar word
            words = code.codewords(indices)
            assert words == expected and all(type(x) is int for w in words for x in w)
            assert code.codewords(range(fld.order)) == [w for w, _ in zip(code.iter_codewords(), range(fld.order))]
            for bad in (-1, code.cardinality):
                with pytest.raises(ValueError, match="^message index out of range$"):
                    code.codewords(indices + [bad])
        assert code.codewords([]) == [] and code.codewords(indices[:1]) == expected[:1]


def test_gabidulin_non_integer_entries(force_batching):
    # points are read by the JSON integer rule; a word entry that is not an
    # integer makes a non-member, on the scalar and the batched path alike
    with pytest.raises(ValueError, match="evaluation point 0 must be an integer, got 1.9"):
        GabidulinCode(F16, 2, 1, alphas=(1.9, 2.2))
    code = GabidulinCode(F16, n=4, k=2)
    assert not code.contains((0.7, 0, 0, 0))
    assert code.contains(tuple(np.int64(x) for x in code.codeword(77)))
    words = [code.codeword(i) for i in range(F16.order)]  # as many words as field elements
    for batched in (False, True):
        force_batching(batched)
        assert code.contains_all(words)
        for bad in (0.7, 0.0, "0", None):
            assert not code.contains_all(words[:-1] + [(bad, 0, 0, 0)])


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
    assert crc.words == crc_from_cdc_pair(cdc, cdc, crc.field).words == slow_pair_words(cdc, cdc, crc.field)
    assert all(rank_of_vector(w, crc.field) == 2 for w in crc.words)
    assert min(pairwise_rank_distances(crc)) == 4


# --- lifting ---------------------------------------------------------------------


def test_lift_examples():
    zero = MatrixFq(2, ((0, 0), (0, 0)))
    s = lift(zero)
    assert s.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    one = MatrixFq(2, ((1,),))
    assert lift(one) == Subspace.from_vectors(2, 2, [(1, 1)])
    empty = lift(MatrixFq(2, (), ncols=3))
    assert empty == Subspace(2, 3, ()) and empty.dim == 0


def test_lift_builds_canonical_subspaces():
    # lift skips Subspace validation; the validating constructor must agree
    for entries in itertools.product(range(3), repeat=4):
        s = lift(MatrixFq(3, (entries[:2], entries[2:])))
        assert Subspace(3, 4, s.basis) == s


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
    # the Gabidulin code behind these would have k > n; the refusal names d instead
    with pytest.raises(ValueError, match=r"'minus' needs d >= 3, got d=1"):
        lifted_mrd_cdc_odd(6, 2, 1, "minus", 2)
    with pytest.raises(ValueError, match=r"'minus' needs d >= 3, got d=-1"):
        lifted_mrd_cdc_odd(6, 2, -1, "minus", 2)
    with pytest.raises(ValueError, match=r"'plus' needs d >= 1, got d=-1"):
        lifted_mrd_cdc_odd(6, 2, -1, "plus", 2)
    assert lifted_mrd_cdc_odd(6, 2, 1, "plus", 2) == lifted_mrd_cdc_odd(6, 2, 3, "minus", 2)


# --- constant-rank constructions ---------------------------------------------------


def test_crc_from_cdc_pair_square_case():
    M = lifted_mrd_cdc(4, 2, 4, 2)
    crc = crc_from_cdc_pair(M, M, F16)
    assert crc.cardinality == 4
    assert crc.words == slow_pair_words(M, M, F16)
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
    assert crc.words == slow_pair_words(M, N, crc.field)
    assert crc.min_rank_distance == (2 + 4) // 2


def test_crc_from_cdc_pair_degenerate_rank_zero():
    q = 2
    M = ConstantDimensionCode(q, 4, 0, (Subspace(q, 4, ()),), 0)
    N = ConstantDimensionCode(q, 3, 0, (Subspace(q, 3, ()),), 0)
    crc = crc_from_cdc_pair(M, N, F16)
    assert crc.cardinality == 1
    assert crc.words == ((0, 0, 0),) == slow_pair_words(M, N, F16)


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
                        if d % 2 == 0:
                            M, N = lifted_mrd_cdc(m, tau, d, q), lifted_mrd_cdc(n, tau, d, q)
                        else:
                            M, N = lifted_mrd_cdc_odd(m, tau, d, "minus", q), lifted_mrd_cdc_odd(n, tau, d, "plus", q)
                        assert crc.words == crc_from_cdc_pair(M, N, crc.field).words
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


@pytest.mark.parametrize("args, size", [((6, 6, 2, 3, 2), 16), ((5, 6, 2, 3, 3), 27)])
def test_crc_theorem8_lifts_only_the_kept_pairs(monkeypatch, args, size):
    calls = []

    def counting_lift(X):
        calls.append(X)
        return lift(X)

    monkeypatch.setattr(codes, "lift", counting_lift)
    assert crc_theorem8(*args).cardinality == size
    assert len(calls) == 2 * size


def test_enumeration_guard_weighs_the_lifted_words(monkeypatch):
    # the constant-dimension builders lift whole codes and crc_theorem8 the
    # |C| words it keeps: the guard counts those, not the codes behind them
    monkeypatch.setattr(codes, "ENUMERATION_GUARD", 15)
    with pytest.raises(ValueError, match=r"^code too large to enumerate \(16 words\)$"):
        lifted_mrd_cdc(4, 2, 2, 2)  # 2^((4-2)(2-1+1)) = 16 words
    monkeypatch.setattr(codes, "ENUMERATION_GUARD", 16)
    assert lifted_mrd_cdc(4, 2, 2, 2).cardinality == 16
    # (q, m, n, d, tau) = (2, 8, 6, 3, 2): |C| = 16 of the 2^12 words of the ambient-8 code
    assert crc_theorem8(6, 8, 2, 3, 2).cardinality == 16
    monkeypatch.setattr(codes, "ENUMERATION_GUARD", 15)
    with pytest.raises(ValueError, match=r"^code too large to enumerate \(16 words\)$"):
        crc_theorem8(6, 8, 2, 3, 2)


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
    # the text and the data share one document
    assert crc.to_json() == json.dumps(crc.to_jsonable(), indent=2, sort_keys=True)
    back = ConstantRankCode.from_jsonable(crc.to_jsonable())
    assert back.words == crc.words
    assert back.field == crc.field
    assert back.min_rank_distance == crc.min_rank_distance


def test_gabidulin_serialization():
    # a Gabidulin code is written as its field modulus and evaluation points,
    # the "modulus" and "alphas" params of a certificate
    code = GabidulinCode(F16, n=3, k=2)
    doc = code.field.word_to_jsonable(code.alphas)
    assert list(code.field.modulus) == [1, 1, 0, 0, 1]
    assert doc == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    assert code.field.word_from_jsonable(doc, "alphas") == code.alphas
    params = bound1_witness(GabidulinCode(F16, n=4, k=2), 2).to_jsonable()["params"]
    assert params["modulus"] == [1, 1, 0, 0, 1]
    assert params["alphas"] == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
