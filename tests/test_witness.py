"""Adversarial witness certificates: sizes, verification, determinism."""

import dataclasses
import json
import math

import pytest

from rankmetric.bounds import CodeParams, bound1_alt_lower, bound1_lower, bound3_lower, mrd_weight_tau
from rankmetric.codes import GabidulinCode, crc_theorem8
from rankmetric.ff import make_field
from rankmetric.matfq import rank_of_vector
from rankmetric.oracle import list_codewords
from rankmetric import witness
from rankmetric.witness import (
    bound1_alt_witness,
    bound1_witness,
    bound3_witness,
    certificate_from_jsonable,
    verify_certificate,
)

F16 = make_field(2, 4)


# --- bound 1 ------------------------------------------------------------------


def test_bound1_witness_full_bucket():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 35 == cert.claimed_size
    assert cert.meta["bucket_total"] == 1  # all polynomials share the key
    ok, checks = verify_certificate(cert)
    assert ok, checks
    # every difference received - codeword has rank exactly tau
    for cw in cert.codewords:
        diff = tuple(F16.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, F16) == 2
    # codewords are distinct members of the code
    assert len(set(cert.codewords)) == 35


def test_bound1_witness_pigeonhole_bucket():
    code = GabidulinCode(F16, n=4, k=1)
    cert = bound1_witness(code, 2)
    assert cert.claimed_size == math.ceil(35 / 16) == 3
    assert cert.total_size >= 3
    assert cert.meta["bucket_total"] == 16
    ok, _ = verify_certificate(cert)
    assert ok


def test_bound1_witness_tau_zero():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 0)
    assert cert.total_size == 1 == cert.claimed_size
    assert cert.codewords == ((0, 0, 0, 0),)
    ok, _ = verify_certificate(cert)
    assert ok


def test_bound1_witness_requires_square_parameters():
    fld = make_field(2, 4)
    code = GabidulinCode(fld, n=2, k=1)
    with pytest.raises(ValueError, match="n = m"):
        bound1_witness(code, 1)


def test_bound1_witness_tau_bounds():
    code = GabidulinCode(F16, n=4, k=2)
    with pytest.raises(ValueError):
        bound1_witness(code, 3)  # tau >= d


def test_bound1_witness_size_meets_bound_formula():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2)
    params = CodeParams(q=2, m=4, n=4, d=3, k=2)
    assert cert.total_size >= bound1_lower(params, 2).guarantee
    scan = list_codewords(code, cert.received_word, 2)
    assert scan.sphere_counts[2] >= cert.total_size


def test_bound1_witness_deterministic():
    code = GabidulinCode(F16, n=4, k=1)
    a = bound1_witness(code, 2)
    b = bound1_witness(code, 2)
    assert a.to_json() == b.to_json()


def test_bound1_witness_larger_instance():
    # Gab[6,4] over F_64 at tau = 2: one bucket holding all 651 polynomials
    fld = make_field(2, 6)
    code = GabidulinCode(fld, n=6, k=4)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 651 == cert.claimed_size
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound1_witness_odd_characteristic():
    fld = make_field(3, 3)
    code = GabidulinCode(fld, n=3, k=1)
    cert = bound1_witness(code, 2)
    assert cert.total_size == 13 == cert.claimed_size  # the 13 lines of F_3^3
    ok, checks = verify_certificate(cert)
    assert ok, checks


# --- bound 1, alternative ----------------------------------------------------------


def test_alt_witness_values():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    assert cert.claimed_size == 33 == math.ceil(bound1_alt_lower(params, 2))
    assert cert.total_size >= 33
    assert cert.meta["coset_total"] == 525
    assert len(cert.meta["coset_counts"]) == 16
    assert sum(cert.meta["coset_counts"]) == 525
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_alt_witness_average_argument():
    # the average coset count equals the weight total divided by |B|
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    counts = cert.meta["coset_counts"]
    assert sum(counts) / len(counts) == 525 / 16
    assert max(counts) == cert.total_size


def test_alt_witness_members_are_codewords_at_exact_distance():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    code = GabidulinCode(F16, n=4, k=2)
    for cw in cert.codewords:
        assert code.contains(cw)
        diff = tuple(F16.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, F16) == 2


def test_alt_witness_received_word_is_in_complement_code():
    params = CodeParams(q=2, m=4, n=4, d=3)
    cert = bound1_alt_witness(params, 2)
    shift = 4 - 3 + 1
    alphas_b = tuple(F16.frobenius(a, shift) for a in GabidulinCode(F16, n=4, k=2).alphas)
    code_b = GabidulinCode(F16, n=4, k=1, alphas=alphas_b)
    assert code_b.contains(cert.received_word)


def test_alt_witness_validation():
    with pytest.raises(ValueError, match="n = m"):
        bound1_alt_witness(CodeParams(q=2, m=6, n=4, d=3), 2)
    with pytest.raises(ValueError):
        bound1_alt_witness(CodeParams(q=2, m=4, n=4, d=3), 0)


def test_alt_witness_complement_size_at_tau_d_minus_one():
    # tau = d - 1 leaves a one-dimensional complement code of q^m words
    params = CodeParams(q=2, m=4, n=4, d=4)
    cert = bound1_alt_witness(params, 3)
    assert len(cert.meta["coset_counts"]) == 16  # |B| = q^m
    ok, _ = verify_certificate(cert)
    assert ok


def test_alt_witness_deterministic():
    params = CodeParams(q=2, m=4, n=4, d=3)
    assert bound1_alt_witness(params, 2).to_json() == bound1_alt_witness(params, 2).to_json()


@pytest.mark.parametrize("q,n,d,tau", [(2, 4, 3, 1), (2, 4, 4, 2), (3, 3, 3, 1), (3, 3, 2, 1), (5, 2, 2, 1)])
def test_alt_witness_histogram_and_scan_agree(monkeypatch, q, n, d, tau):
    # these sets count by histogram; a zero guard forces the B x C scan
    params = CodeParams(q=q, m=n, n=n, d=d)
    by_histogram = bound1_alt_witness(params, tau).to_json()
    monkeypatch.setattr(witness, "ENUMERATION_GUARD", 0)
    assert bound1_alt_witness(params, tau).to_json() == by_histogram


def test_alt_witness_counts_small_sphere_by_histogram(monkeypatch):
    # rank-1 sphere of 338 words and 729 cosets against |B| x |C| = 19683 pairs:
    # only the best coset is scanned, to list its words
    scanned = []
    at_rank = witness._at_rank
    monkeypatch.setattr(witness, "_at_rank", lambda b, *rest: scanned.append(b) or at_rank(b, *rest))
    cert = bound1_alt_witness(CodeParams(q=3, m=3, n=3, d=3), 1)
    assert scanned == [cert.received_word]
    assert cert.total_size >= cert.claimed_size


def test_alt_witness_counts_large_sphere_by_scan(monkeypatch):
    # 2^30 cosets of C and a rank-4 sphere of 8.5e9 words, but only
    # |B| x |C| = 2^18 pairs: the histogram would be refused by its guards
    def refuse(*args):
        raise AssertionError("the histogram was chosen")

    monkeypatch.setattr(witness, "_coset_histogram", refuse)
    cert = bound1_alt_witness(CodeParams(q=2, m=6, n=6, d=6), 4)
    assert cert.total_size >= cert.claimed_size
    # the cosets of C partition the rank-4 (minimum-weight) words of B + C = Gab[6, 3]
    assert len(cert.meta["coset_counts"]) == 4096
    assert cert.meta["coset_total"] == mrd_weight_tau(6, 6, 4, 2)


# --- bound 3 ---------------------------------------------------------------------------


def test_bound3_witness_zero_received():
    cert = bound3_witness(6, 6, 2, 3, 2)
    assert cert.total_size == 16 == cert.claimed_size
    assert cert.received_word == (0,) * 6
    assert (0,) * 6 not in cert.codewords
    fld = cert.field
    assert all(rank_of_vector(cw, fld) == 2 for cw in cert.codewords)
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound3_witness_translate():
    cert = bound3_witness(6, 6, 2, 3, 2, translate=0)
    crc = crc_theorem8(6, 6, 2, 3, 2)
    assert cert.received_word == crc.words[0]
    assert (0,) * 6 in cert.codewords
    assert len(cert.codewords) == 16
    fld = cert.field
    for cw in cert.codewords:
        diff = tuple(fld.sub(r, c) for r, c in zip(cert.received_word, cw))
        assert rank_of_vector(diff, fld) == 2
    ok, checks = verify_certificate(cert)
    assert ok, checks


def test_bound3_witness_even_distance():
    cert = bound3_witness(6, 6, 2, 4, 2)
    assert cert.total_size == 16
    ok, _ = verify_certificate(cert)
    assert ok
    params = CodeParams(q=2, m=6, n=6, d=4)
    assert cert.claimed_size == bound3_lower(params, 2)


def test_bound3_witness_validation():
    with pytest.raises(ValueError):
        bound3_witness(4, 4, 3, 4, 2)  # tau > n - tau
    with pytest.raises(ValueError, match="translate"):
        bound3_witness(6, 6, 2, 3, 2, translate=99)


def test_bound3_witness_deterministic():
    assert bound3_witness(6, 6, 2, 3, 2).to_json() == bound3_witness(6, 6, 2, 3, 2).to_json()


# --- certificates ------------------------------------------------------------------------


def test_certificate_json_roundtrip():
    cert = bound3_witness(6, 6, 2, 3, 2, translate=1)
    doc = json.loads(cert.to_json())
    back = certificate_from_jsonable(doc)
    assert back == cert
    ok, _ = verify_certificate(back)
    assert ok


def test_certificate_schema_fields():
    cert = bound1_witness(GabidulinCode(F16, n=4, k=2), 2)
    doc = json.loads(cert.to_json(verified=True))
    assert doc["kind"] == "bound1"
    assert doc["verified"] is True
    assert set(doc["params"]) >= {"q", "m", "n", "k", "d", "tau", "modulus"}
    assert doc["claimed_size"] == "35"
    assert len(doc["codewords"]) == 35
    assert all(len(w) == 4 and len(w[0]) == 4 for w in doc["codewords"])


def test_tampered_certificate_fails_verification():
    cert = bound3_witness(6, 6, 2, 3, 2)
    bad = certificate_from_jsonable(json.loads(cert.to_json()))
    tampered = bad.codewords[:-1] + ((1, 0, 0, 0, 0, 0),)
    bad = dataclasses.replace(bad, codewords=tampered)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["membership"]


@pytest.fixture(scope="module")
def gab64_bound1_cert():
    """The 651-word bound1 certificate of Gab[6,4]/F_64 at tau=2 (211 575 pairs)."""
    cert = bound1_witness(GabidulinCode(make_field(2, 6), n=6, k=4), 2)
    assert cert.total_size == len(cert.codewords) == 651
    return cert


def test_tampered_large_certificate_duplicate_codeword(gab64_bound1_cert):
    cert = gab64_bound1_cert
    bad = dataclasses.replace(cert, codewords=cert.codewords[:-1] + cert.codewords[:1])
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["pairwise_distance"]
    assert checks["membership"] and checks["sphere_distance_exact"]


def test_tampered_large_certificate_wrong_distance(gab64_bound1_cert, force_batching):
    cert = gab64_bound1_cert
    fld = cert.field
    code = GabidulinCode(fld, n=6, k=4, alphas=cert.alphas)
    listed = set(cert.codewords)
    other = next(
        c
        for c in code.iter_codewords()
        if c not in listed
        and rank_of_vector(tuple(fld.sub(r, x) for r, x in zip(cert.received_word, c)), fld) != 2
    )
    bad = dataclasses.replace(cert, codewords=cert.codewords[:-1] + (other,))
    force_batching(True)  # the sphere and membership checks run batched too
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["sphere_distance_exact"]
    assert checks["membership"]


@pytest.mark.parametrize("batched", [False, True])
def test_tampered_large_certificate_non_codeword(gab64_bound1_cert, force_batching, batched):
    # 100 words: at least the 64 field elements, so the batched check tabulates
    cert = gab64_bound1_cert
    fld = cert.field
    word = list(cert.codewords[99])
    word[2] = fld.add(word[2], 1)
    bad = dataclasses.replace(cert, codewords=cert.codewords[:99] + (tuple(word),))
    force_batching(batched)
    ok, checks = verify_certificate(bad)
    assert not ok
    assert not checks["membership"]


def test_word_cap_produces_sampled_certificate():
    code = GabidulinCode(F16, n=4, k=2)
    cert = bound1_witness(code, 2, word_cap=10)
    assert cert.truncated and 1 <= len(cert.codewords) <= 10
    assert cert.total_size == 35
    ok, checks = verify_certificate(cert)
    assert ok, checks
