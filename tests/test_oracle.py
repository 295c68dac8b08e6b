"""Brute-force oracle: cross-checked against naive recounts written here."""

import itertools
import random

import pytest

from rankmetric.bounds import CodeParams, ball_volume, bound2_upper
from rankmetric.codes import GabidulinCode
from rankmetric.ff import base_field, make_field
from rankmetric.linpoly import LinearizedPoly, evaluate
from rankmetric import oracle
from rankmetric.oracle import (
    ball_volume_bruteforce,
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
    code = GabidulinCode(F4, n=2, k=1)
    a = max_list_size(code, 1, jobs=1)
    b = max_list_size(code, 1, jobs=3)
    assert (a.ell, a.word) == (b.ell, b.word)


def test_max_list_size_caps_jobs_at_cpu_count(monkeypatch):
    created = []

    class InlinePool:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 3)
    code = GabidulinCode(F4, n=2, k=1)
    res = max_list_size(code, 1, jobs=10**6)
    assert created == [3]
    assert res == max_list_size(code, 1)


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
    with pytest.raises(ValueError, match="too large"):
        max_list_size(big, 2)
    with pytest.raises(ValueError, match="too large"):
        list_codewords(big, (0,) * 6, 1)


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


def test_ball_volume_bruteforce_guard():
    with pytest.raises(ValueError, match="guard"):
        ball_volume_bruteforce(5, 6, 2, 2)
