"""Brute-force oracle: cross-checked against naive recounts written here."""

import concurrent.futures
import itertools
import json
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from rankmetric.bounds import CodeParams, ball_volume, bound1_lower, bound2_upper, mrd_weight_tau
from rankmetric.cli import main
from rankmetric.codes import GabidulinCode
from rankmetric.ff import base_field, make_field
from rankmetric.linpoly import LinearizedPoly, evaluate
from rankmetric.matfq import rank_of_vector
from rankmetric import acceptance, oracle
from rankmetric.oracle import (
    ball_volume_bruteforce,
    distance_counts,
    iter_codewords,
    list_codewords,
    list_to_crc,
    max_list_size,
    pack_word,
    rank_leq,
    unpack_word,
)
from rankmetric.witness import bound1_witness

F4 = make_field(2, 2)
F16 = make_field(2, 4)
F9 = make_field(3, 2)


def naive_rank(vec, fld):
    """Independent rank oracle: log_q of the span size of the expansion columns."""
    F = base_field(fld.q)
    cols = [fld.coeffs(x) for x in vec]
    span = set()
    for coefs in itertools.product(range(fld.q), repeat=len(cols)):
        acc = tuple(0 for _ in range(fld.m))
        for c, col in zip(coefs, cols):
            if c:
                acc = tuple(F.add(x, F.mul(c, y)) for x, y in zip(acc, col))
        span.add(acc)
    r = 0
    while fld.q**r < len(span):
        r += 1
    assert fld.q**r == len(span)
    return r


def naive_codewords(code):
    """Independent Gabidulin enumeration via direct polynomial evaluation.

    Message-index order: coefficient f_0 is the least significant digit, so
    it varies fastest; itertools.product varies its last slot fastest.
    """
    fld = code.field
    out = []
    for rev in itertools.product(range(fld.order), repeat=code.k):
        poly = LinearizedPoly(fld, tuple(reversed(rev)))
        out.append(tuple(evaluate(poly, a) for a in code.alphas))
    return out


def naive_max_list(code, tau):
    fld = code.field
    words = naive_codewords(code)
    best, best_word = -1, None
    for r in itertools.product(range(fld.order), repeat=code.n):
        count = sum(
            1
            for cw in words
            if naive_rank(tuple(fld.sub(a, b) for a, b in zip(r, cw)), fld) <= tau
        )
        if count > best:
            best, best_word = count, r
    return best, best_word


def test_pack_unpack_roundtrip_and_order():
    for idx in range(64):
        word = unpack_word(idx, 4, 3)
        assert pack_word(word, 4) == idx
    # ascending index order is lexicographic order on tuples
    words = [unpack_word(i, 4, 3) for i in range(64)]
    assert words == sorted(words)


def test_rank_leq_agrees_with_naive():
    rng = random.Random(2)
    for fld in (F4, F16, F9, make_field(8, 2)):
        for _ in range(60):
            vec = tuple(rng.randrange(fld.order) for _ in range(3))
            r = naive_rank(vec, fld)
            for tau in range(4):
                assert rank_leq(vec, fld, tau) == (r <= tau)


def test_iter_codewords_matches_naive_enumeration():
    code = GabidulinCode(F16, n=3, k=2)
    assert list(iter_codewords(code)) == naive_codewords(code)


def test_list_codewords_examples():
    code = GabidulinCode(F16, n=4, k=2)
    cw = code.codeword(37)
    res = list_codewords(code, cw, 0)
    assert res.codewords == (cw,) and res.sphere_counts == (1,)
    # at the unique-decoding radius any word sees at most one codeword
    rng = random.Random(8)
    for _ in range(20):
        r = tuple(rng.randrange(16) for _ in range(4))
        assert list_codewords(code, r, 1).size <= 1


def test_list_codewords_against_witness_word():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    res = list_codewords(code, cert.received_word, 2)
    assert res.sphere_counts[2] >= 35
    assert set(cert.codewords) <= set(res.codewords)


def test_max_list_size_unique_decoding():
    code = GabidulinCode(F16, n=4, k=2)
    res = max_list_size(code, 1)
    assert res.ell == 1 and res.exhaustive


def test_max_list_size_matches_naive_on_tiny_code():
    code = GabidulinCode(F4, n=2, k=1)
    expected_ell, expected_word = naive_max_list(code, 1)
    res = max_list_size(code, 1)
    assert res.ell == expected_ell == 3
    assert res.word == expected_word  # both scans pick the lexicographic argmax
    assert res.scanned == 16


def test_max_list_size_generic_path_matches_naive():
    code = GabidulinCode(F9, n=2, k=1)
    expected_ell, expected_word = naive_max_list(code, 1)
    res = max_list_size(code, 1)
    assert (res.ell, res.word) == (expected_ell, expected_word)


def test_max_list_size_sandwich_gab42():
    code = GabidulinCode(F16, n=4, k=2)
    res = max_list_size(code, 2)
    assert 35 <= res.ell <= 36
    b2 = bound2_upper(CodeParams(q=2, m=4, n=4, d=3), 2)
    assert res.ell <= b2.anticode_sum


def test_max_list_size_tight_at_pigeonhole_bound():
    # Gab[3,1] over F_8 at tau = 2: the pigeonhole lower bound is attained
    F8 = make_field(2, 3)
    code = GabidulinCode(F8, n=3, k=1)
    res = max_list_size(code, 2)
    assert res.ell == 7
    cert = bound1_witness(code, 2)
    assert cert.total_size == 7


def test_max_list_size_jobs_deterministic():
    # the worker count is gone with the process pool: repeated calls agree with each other
    # and with the plain-sequence scan, and `jobs` is no longer accepted
    code = GabidulinCode(F4, n=2, k=1)
    a, b = max_list_size(code, 1), max_list_size(code, 1)
    plain = max_list_size(list(iter_codewords(code)), 1, field=F4)
    assert (a.ell, a.word) == (b.ell, b.word) == (plain.ell, plain.word)
    with pytest.raises(TypeError):
        max_list_size(code, 1, jobs=3)


def test_max_list_size_caps_jobs_at_cpu_count(monkeypatch, capsys):
    # `oracle max --jobs` has no effect: even 10^6 starts no worker process
    created = []

    class NoPool:
        def __init__(self, *args, **kwargs):
            created.append(kwargs.get("max_workers", args[0] if args else None))
            raise AssertionError("oracle max started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    args = ["oracle", "max", "--q", "2", "--m", "2", "--n", "2", "--k", "1", "--tau", "1"]
    outs = []
    for extra in ([], ["--jobs", str(10**6)]):
        assert main(args + extra) == 0
        d = json.loads(capsys.readouterr().out)
        d.pop("elapsed_ms")
        outs.append(d)
    assert created == [] and outs[0] == outs[1]
    assert outs[0]["ell"] == max_list_size(GabidulinCode(F4, n=2, k=1), 1).ell
    assert not hasattr(oracle, "ProcessPoolExecutor")


def test_max_list_size_random_mode():
    code = GabidulinCode(F16, n=4, k=2)
    r1 = max_list_size(code, 2, mode="random", seed=11, trials=300)
    r2 = max_list_size(code, 2, mode="random", seed=11, trials=300)
    assert r1 == r2 and not r1.exhaustive
    full = max_list_size(code, 2)
    assert r1.ell <= full.ell
    with pytest.raises(ValueError, match="trials"):
        max_list_size(code, 2, mode="random", seed=1)
    with pytest.raises(ValueError, match="mode"):
        max_list_size(code, 2, mode="greedy")


def test_max_list_size_translation_invariance():
    code = GabidulinCode(F4, n=2, k=1)
    shift = (3, 1)
    translated = [
        tuple(F4.add(x, s) for x, s in zip(cw, shift)) for cw in iter_codewords(code)
    ]
    a = max_list_size(code, 1)
    b = max_list_size(translated, 1, field=F4)
    assert a.ell == b.ell


def test_oracle_rejects_wrong_length_and_tau_out_of_range():
    code = GabidulinCode(F16, n=4, k=2)
    with pytest.raises(ValueError, match="length 2"):
        list_codewords(code, (0, 1), 2)
    with pytest.raises(ValueError, match="length 5"):
        list_codewords(code, (0,) * 5, 2)
    with pytest.raises(ValueError, match="length"):
        list_codewords([(0, 0), (1, 2)], (0, 0, 0), 1, field=F4)
    for tau in (-1, 5):
        with pytest.raises(ValueError, match="tau"):
            list_codewords(code, (0,) * 4, tau)
        with pytest.raises(ValueError, match="tau"):
            max_list_size(code, tau)
    with pytest.raises(ValueError, match="tau"):
        max_list_size([(0, 0), (1, 2)], 3, field=F4)
    assert list_codewords(code, (0,) * 4, 4).size == code.cardinality


def test_plain_sequence_requires_field():
    with pytest.raises(ValueError, match="Field"):
        max_list_size([(0, 0), (1, 2)], 1)


def test_exhaustive_guard():
    code = GabidulinCode(make_field(2, 8), n=8, k=1)
    with pytest.raises(ValueError, match="guard"):
        max_list_size(code, 2)


def test_exhaustive_guard_override():
    code = GabidulinCode(F4, n=2, k=1)
    with pytest.raises(ValueError, match="guard"):
        max_list_size(code, 1, guard=8)  # word space is 16
    assert max_list_size(code, 1, guard=16).ell == 3


def test_enumeration_guard():
    big = GabidulinCode(make_field(2, 6), n=6, k=5)  # 2^30 codewords
    # the coset count enumerates no codeword: 3970 errors over 64 cosets
    assert max_list_size(big, 1).ell == 63
    with pytest.raises(ValueError, match="too large"):
        max_list_size(big, 1, mode="random", trials=1)
    with pytest.raises(ValueError, match="too large"):
        list_codewords(big, (0,) * 6, 1)


def test_exhaustive_guard_refuses_before_work():
    code = GabidulinCode(make_field(2, 6), n=6, k=3)  # ball of 3.3e8 errors at tau = 3
    start = time.perf_counter()
    with pytest.raises(ValueError, match="guard"):
        max_list_size(code, 3)
    assert time.perf_counter() - start < 1.0


def test_coset_guard():
    code = GabidulinCode(make_field(2, 7), n=7, k=3)  # 2^28 cosets
    with pytest.raises(ValueError, match="coset guard"):
        max_list_size(code, 1)


def test_plain_sequence_scan_guards_pairs():
    words = [(0, 0), (1, 2), (2, 3)]
    with pytest.raises(ValueError, match="guard"):
        max_list_size(words, 1, field=F4, guard=47)  # 16 words x 3 codewords
    assert max_list_size(words, 1, field=F4, guard=48).scanned == 16


# --- coset histogram: cross-checks against the naive scan and closed forms ---------


@st.composite
def gabidulin_codes(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    m = draw(st.integers(2, 3)) if q == 2 else 2
    fld = make_field(q, m)
    n = draw(st.integers(1, 2 if q > 2 else m))
    alphas = draw(st.lists(st.integers(1, fld.order - 1), min_size=n, max_size=n))
    assume(rank_of_vector(alphas, fld) == n)
    k = draw(st.integers(1, n))
    return GabidulinCode(fld, n=n, k=k, alphas=tuple(alphas)), draw(st.integers(0, n))


@settings(max_examples=25)
@given(gabidulin_codes())
def test_coset_path_matches_naive_scan(case):
    code, tau = case
    coset = max_list_size(code, tau)
    naive = max_list_size(list(iter_codewords(code)), tau, field=code.field)
    assert (coset.ell, coset.word, coset.scanned) == (naive.ell, naive.word, naive.scanned)


@pytest.mark.parametrize("q,m,n,k", [(2, 4, 4, 2), (2, 3, 3, 1), (3, 3, 3, 2), (4, 3, 2, 1), (5, 2, 2, 1)])
def test_coset_histogram_totals(q, m, n, k):
    code = GabidulinCode(make_field(q, m), n=n, k=k)
    for tau in range(n + 1):
        counts = oracle._coset_histogram(code, range(tau + 1))
        assert len(counts) == code.field.order ** (n - k)
        assert counts.sum() == ball_volume(m, n, q, tau)
    # coset 0 is the code itself: the zero word and the minimum-weight codewords
    counts = oracle._coset_histogram(code, range(code.d + 1))
    assert counts[0] == 1 + mrd_weight_tau(n, m, code.d, q)


@pytest.mark.parametrize("m,k,ell", [(5, 3, 155), (6, 4, 651)])
def test_max_list_size_beyond_word_space_scan(m, k, ell):
    code = GabidulinCode(make_field(2, m), n=m, k=k)
    res = max_list_size(code, 2)
    params = CodeParams(q=2, m=m, n=m, d=code.d, k=k)
    assert res.ell == ell
    assert bound1_lower(params, 2).guarantee <= res.ell <= bound2_upper(params, 2).anticode_sum
    assert res.scanned == 2 ** (m * m)
    if m == 5:  # 2^15 codewords: cheap enough to recount the list at the argmax
        assert list_codewords(code, res.word, 2).size == ell


def test_list_to_crc_from_witness_list():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    res = list_codewords(code, cert.received_word, 2)
    crc = list_to_crc(res, 2)
    assert crc.cardinality == res.sphere_counts[2] == 35
    assert crc.rank == 2
    assert crc.min_rank_distance >= 3 and crc.distance_exact
    # translate members are received - codeword
    assert crc.words[0] == tuple(
        F16.sub(a, b) for a, b in zip(res.received_word, res.codewords[0])
    )


def test_list_to_crc_single_member():
    code = GabidulinCode(F16, n=4, k=2)
    cw = code.codeword(5)
    res = list_codewords(code, cw, 0)
    crc = list_to_crc(res, 0)
    assert crc.cardinality == 1 and crc.rank == 0


def test_list_to_crc_empty_sphere_rejected():
    code = GabidulinCode(F16, n=4, k=2)
    res = list_codewords(code, code.codeword(7), 1)
    with pytest.raises(ValueError, match="no codewords"):
        list_to_crc(res, 1)


def test_list_to_crc_recovers_existence_construction():
    # scanning the constant-rank code around the zero word and translating
    # back gives the code itself (q = 2: negation is the identity)
    from rankmetric.codes import crc_theorem8

    crc = crc_theorem8(6, 6, 2, 3, 2)
    res = list_codewords(crc, (0,) * 6, 2)
    assert res.sphere_counts[2] == 16
    back = list_to_crc(res, 2)
    assert set(back.words) == set(crc.words)
    assert back.rank == crc.rank == 2


def test_list_sizes_never_exceed_upper_bound():
    code = GabidulinCode(F16, n=4, k=2)
    cap = bound2_upper(CodeParams(q=2, m=4, n=4, d=3), 2).anticode_sum
    rng = random.Random(21)
    for _ in range(30):
        r = tuple(rng.randrange(16) for _ in range(4))
        assert list_codewords(code, r, 2).size <= cap


def test_ball_volume_bruteforce_values():
    assert ball_volume_bruteforce(2, 2, 2, 1) == 10
    assert ball_volume_bruteforce(3, 3, 2, 3) == 512
    assert ball_volume_bruteforce(2, 2, 2, 0) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_ball_volume_bruteforce_matches_formula(q):
    for m in range(1, 4):
        for n in range(1, 4 if q == 2 else 3):
            for tau in range(min(m, n) + 1):
                assert ball_volume_bruteforce(m, n, q, tau) == ball_volume(m, n, q, tau)


def test_ball_volume_bruteforce_center_independent():
    rng = random.Random(6)
    for q, fld in ((2, F4), (3, F9)):
        base = ball_volume_bruteforce(2, 2, q, 1)
        for _ in range(3):
            center = tuple(rng.randrange(fld.order) for _ in range(2))
            assert ball_volume_bruteforce(2, 2, q, 1, center=center) == base


def test_ball_volume_bruteforce_rejects_bad_center():
    with pytest.raises(ValueError, match="length"):
        ball_volume_bruteforce(2, 2, 2, 1, center=(1,))
    with pytest.raises(ValueError, match="length"):
        ball_volume_bruteforce(2, 2, 3, 1, center=(1, 2, 3))
    with pytest.raises(ValueError, match="0..3"):
        ball_volume_bruteforce(2, 2, 2, 1, center=(1, 4))


def test_oracle_batched_path_matches_scalar(force_batching, monkeypatch):
    # each path forced through both floors of matfq._batched; the enumerator of
    # the other path is removed, so a wrong choice fails instead of agreeing
    F27, F16_2 = make_field(3, 3), make_field(4, 2)

    def run():
        lists = [
            list_codewords(GabidulinCode(F9, n=2, k=1), (3, 7), 1),
            list_codewords(GabidulinCode(F16, n=4, k=2), (1, 2, 3, 4), 2),
            list_codewords(GabidulinCode(F27, n=3, k=2), (0, 0, 0), 1),
            list_codewords(GabidulinCode(F27, n=3, k=1), (5, 0, 26), 2),
            list_codewords(GabidulinCode(F16_2, n=2, k=1), (5, 9), 1),
        ]
        counts = [
            distance_counts(GabidulinCode(F16, n=4, k=2), (0, 0, 0, 0)),
            distance_counts(GabidulinCode(F27, n=3, k=2), (1, 2, 3)),
        ]
        return lists, counts, list_to_crc(lists[1], 2).min_rank_distance, acceptance._check_mrd()

    results = []
    for batched, unused in ((False, "codeword_blocks"), (True, "iter_codewords")):
        force_batching(batched)
        with monkeypatch.context() as mp:
            mp.setattr(GabidulinCode, unused, None)
            results.append(run())
    assert results[0] == results[1]
    assert results[0][3][0] is True  # criterion 6 passes on both paths
    assert results[0][1][0] == [1, 0, 0, 15 * 15, 255 - 15 * 15]  # Gab[4,2]: [4;3]*15 words of weight d = 3


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("batched", [False, True])
def test_ball_volume_bruteforce_paths_match_formula(q, batched, force_batching, monkeypatch):
    force_batching(batched)
    monkeypatch.setattr(oracle, "_column_rank" if batched else "_column_ranks", None)  # the other path
    rng = random.Random(q)
    for m in range(1, 4):
        for n in range(1, 4 if q == 2 else 3):
            for tau in range(min(m, n) + 1):
                center = tuple(rng.randrange(q**m) for _ in range(n))
                closed = ball_volume(m, n, q, tau)
                assert ball_volume_bruteforce(m, n, q, tau) == closed
                assert ball_volume_bruteforce(m, n, q, tau, center=center) == closed


def test_ball_volume_bruteforce_guard():
    with pytest.raises(ValueError, match="guard"):
        ball_volume_bruteforce(5, 6, 2, 2)
