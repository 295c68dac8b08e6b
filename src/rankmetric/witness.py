"""Constructive witnesses realizing the list-size lower bounds.

Each witness is a machine-checkable certificate: a received word plus a list
of codewords, every one at rank distance exactly tau from the received word,
pairwise at distance >= d.  Certificates are deterministic (fixed
tie-breaking), so identical inputs serialize to identical JSON.

* bound1: enumerate the monic subspace polynomials of q-degree n - tau over
  F_{q^n} (n = m), bucket them by their coefficients of q-degree >= k, take
  a maximum bucket P; differences of members of P encode to codewords at
  distance exactly tau from the evaluation of a representative of P.
* bound1_alt: exhaustively search the cosets C + b, b in a complementary
  code B, for the one holding the most rank-tau words of the MRD direct sum;
  the per-coset counts come from the oracle's coset histogram of the rank-tau
  sphere or from a B x C scan, whichever has less work.
* bound3: the constant-rank code of crc_theorem8 viewed from the zero word
  (or from one of its own words, the ``translate`` variant).

Distances to the received word (also in the B x C scan) and pairwise
distances are computed by ``matfq.rank_distances`` and
``matfq.min_pairwise_rank_distance``, which batch the ranks in numpy once
there are enough of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Sequence

from .bounds import CodeParams, bound1_alt_lower, bound1_lower, bound3_lower, sphere_volume
from .codes import ENUMERATION_GUARD, GabidulinCode, crc_theorem8
from .ff import Field, make_field
from .linpoly import LinearizedPoly, evaluate, min_subspace_poly
from .matfq import grassmannian_enumerate, min_pairwise_rank_distance, rank_distances
from .oracle import _coset_histogram, _coset_key

CERTIFICATE_WORD_CAP = 1 << 16
PAIRWISE_CHECK_CAP = 700

KIND_BOUND1 = "bound1"
KIND_BOUND1_ALT = "bound1_alt"
KIND_BOUND3 = "bound3"


@dataclass(frozen=True)
class WitnessCertificate:
    """Adversarial receive-and-list certificate for one lower bound."""

    kind: str
    q: int
    m: int
    n: int
    k: int | None
    d: int
    tau: int
    modulus: tuple[int, ...]
    alphas: tuple[int, ...] | None
    received_word: tuple[int, ...]
    codewords: tuple[tuple[int, ...], ...]
    claimed_size: int
    total_size: int
    truncated: bool
    meta: dict = dc_field(default_factory=dict)

    @property
    def field(self) -> Field:
        return make_field(self.q, self.m, self.modulus)

    def to_jsonable(self) -> dict:
        fld = self.field
        params = {
            "q": self.q,
            "m": self.m,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "tau": self.tau,
            "modulus": list(self.modulus),
        }
        if self.alphas is not None:
            params["alphas"] = [list(fld.coeffs(a)) for a in self.alphas]
        return {
            "kind": self.kind,
            "params": params,
            "received_word": [list(fld.coeffs(x)) for x in self.received_word],
            "claimed_size": str(self.claimed_size),
            "total_size": str(self.total_size),
            "truncated": self.truncated,
            "codewords": [[list(fld.coeffs(x)) for x in w] for w in self.codewords],
            "meta": self.meta,
        }

    def to_json(self, verified: bool | None = None) -> str:
        doc = self.to_jsonable()
        if verified is not None:
            doc["verified"] = verified
        return json.dumps(doc, indent=2, sort_keys=True)


def certificate_from_jsonable(data: dict) -> WitnessCertificate:
    p = data["params"]
    fld = make_field(int(p["q"]), int(p["m"]), p["modulus"])
    alphas = None
    if "alphas" in p:
        alphas = tuple(fld.from_coeffs(c) for c in p["alphas"])
    return WitnessCertificate(
        kind=data["kind"],
        q=int(p["q"]),
        m=int(p["m"]),
        n=int(p["n"]),
        k=None if p.get("k") is None else int(p["k"]),
        d=int(p["d"]),
        tau=int(p["tau"]),
        modulus=tuple(int(c) for c in p["modulus"]),
        alphas=alphas,
        received_word=tuple(fld.from_coeffs(c) for c in data["received_word"]),
        codewords=tuple(tuple(fld.from_coeffs(c) for c in w) for w in data["codewords"]),
        claimed_size=int(data["claimed_size"]),
        total_size=int(data["total_size"]),
        truncated=bool(data["truncated"]),
        meta=dict(data.get("meta", {})),
    )


def _cap_words(words: Sequence[tuple[int, ...]], cap: int) -> tuple[tuple, bool]:
    """Deterministic evenly-strided sample of at most cap words."""
    if len(words) <= cap:
        return tuple(words), False
    stride = math.ceil(len(words) / cap)
    return tuple(words[::stride][:cap]), True


def bound1_witness(code: GabidulinCode, tau: int, word_cap: int = CERTIFICATE_WORD_CAP) -> WitnessCertificate:
    """Pigeonhole witness for Gabidulin codes (requires n = m).

    Enumerates Gr(n, n-tau), forms the monic subspace polynomial of each
    subspace, buckets by the coefficient tuple (f_k, ..., f_{n-tau-1}), and
    evaluates a maximum bucket.  Certificate size is at least
    ceil([n; n-tau] / q^{m(n-tau-k)}).
    """
    fld = code.field
    n, k = code.n, code.k
    if n != fld.m:
        raise ValueError(
            "this witness evaluates subspace polynomials over the whole field and "
            f"requires n = m; got n={n}, m={fld.m} (smaller n is not supported, "
            "including divisors of m)"
        )
    d = code.d
    if not 0 <= tau < d:
        raise ValueError(f"need 0 <= tau < d, got tau={tau}, d={d}")
    rdim = n - tau
    buckets: dict[tuple[int, ...], list[LinearizedPoly]] = {}
    for U in grassmannian_enumerate(n, rdim, fld.q):
        poly = min_subspace_poly(U, fld)  # monic of q-degree rdim
        buckets.setdefault(poly.coeffs[k:rdim], []).append(poly)
    max_size = max(len(v) for v in buckets.values())
    best_key = min(key for key, v in buckets.items() if len(v) == max_size)
    bucket = buckets[best_key]
    rep = min(bucket, key=lambda f: f.coeffs)
    rep_evals = tuple(evaluate(rep, a) for a in code.alphas)
    codewords = []
    for g in bucket:
        g_evals = tuple(evaluate(g, a) for a in code.alphas)
        codewords.append(tuple(fld.sub(x, y) for x, y in zip(rep_evals, g_evals)))
    params = CodeParams(q=fld.q, m=fld.m, n=n, d=d, k=k)
    claimed = bound1_lower(params, tau).guarantee
    stored, truncated = _cap_words(codewords, word_cap)
    return WitnessCertificate(
        kind=KIND_BOUND1,
        q=fld.q,
        m=fld.m,
        n=n,
        k=k,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code.alphas,
        received_word=rep_evals,
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta={
            "bucket_count": max_size,
            "bucket_total": len(buckets),
            "bucket_key": [list(fld.coeffs(c)) for c in best_key],
        },
    )


ALT_SEARCH_GUARD = 1 << 24


def _at_rank(b: Sequence[int], c_words: list, fld: Field, tau: int) -> list:
    """The words c of c_words with rank(b - c) = tau."""
    return [c for c, dist in zip(c_words, rank_distances(b, c_words, fld)) if dist == tau]


def bound1_alt_witness(
    params: CodeParams, tau: int, word_cap: int = CERTIFICATE_WORD_CAP
) -> WitnessCertificate:
    """Coset-search witness via the direct sum of two Gabidulin codes (n = m).

    C = Gab[n, n-d+1] on the default points alpha_i; B = Gab[n, d-tau] on the
    Frobenius-shifted points alpha_i^{q^{n-d+1}}.  The best translate C + b
    over b in B holds at least ceil([n; tau](q^m - 1)/q^{m(d-tau)}) words of
    rank exactly tau.
    """
    q, m, n, d = params.q, params.m, params.n, params.d
    if n != m:
        raise ValueError(f"this witness requires n = m; got n={n}, m={m}")
    if not 1 <= tau < d:
        raise ValueError(f"need 1 <= tau < d, got tau={tau}, d={d}")
    fld = make_field(q, m)
    code_c = GabidulinCode(fld, n=n, k=n - d + 1)
    shift = n - d + 1
    alphas_b = tuple(fld.frobenius(a, shift) for a in code_c.alphas)
    code_b = GabidulinCode(fld, n=n, k=d - tau, alphas=alphas_b)
    if code_b.cardinality * code_c.cardinality > ALT_SEARCH_GUARD:
        raise ValueError("coset search space exceeds the enumeration guard")
    b_words, c_words = list(code_b.iter_codewords()), list(code_c.iter_codewords())
    # the rank-tau words of each coset b - C are counted either in the rank-tau
    # histogram of C (work: the sphere plus one bin per coset) or by a B x C
    # scan (work: one rank test per pair, measured 15-25 times slower per step);
    # the histogram must also stay inside the enumeration guard
    histogram_cost = sphere_volume(m, n, q, tau) + fld.order ** (d - 1)
    if histogram_cost < min(10 * len(b_words) * len(c_words), ENUMERATION_GUARD):
        counts, rows = _coset_histogram(code_c, (tau,)), code_c.generator_rows()
        coset_counts = [int(counts[_coset_key(rows, b, fld)]) for b in b_words]
    else:
        coset_counts = [len(_at_rank(b, c_words, fld, tau)) for b in b_words]
    best_index = coset_counts.index(max(coset_counts))
    best_b = b_words[best_index]
    codewords = _at_rank(best_b, c_words, fld, tau)
    claimed = max(1, math.ceil(bound1_alt_lower(params, tau)))
    stored, truncated = _cap_words(codewords, word_cap)
    meta: dict = {"coset_total": sum(coset_counts), "best_coset_index": best_index}
    if len(coset_counts) <= 4096:
        meta["coset_counts"] = coset_counts
    return WitnessCertificate(
        kind=KIND_BOUND1_ALT,
        q=q,
        m=m,
        n=n,
        k=n - d + 1,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=code_c.alphas,
        received_word=tuple(best_b),
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta=meta,
    )


def bound3_witness(
    n: int,
    m: int,
    tau: int,
    d: int,
    q: int,
    translate: int | None = None,
    word_cap: int = CERTIFICATE_WORD_CAP,
) -> WitnessCertificate:
    """Existence witness: the crc_theorem8 code seen from r = 0.

    With ``translate = j`` the received word is the j-th code word a_j and
    the listed codewords are {a_j - a_i}; the zero word then enters the list
    while a_j leaves it.  Certificate size is exactly
    q^{(n-tau)(tau - floor((d-1)/2))}.
    """
    crc = crc_theorem8(n, m, tau, d, q)
    fld = crc.field
    if translate is None:
        received = (0,) * n
        codewords = list(crc.words)
    else:
        if not 0 <= translate < crc.cardinality:
            raise ValueError(f"translate index {translate} out of range")
        a_j = crc.words[translate]
        received = tuple(a_j)
        codewords = [
            tuple(fld.sub(a_j[i], a[i]) for i in range(n)) for a in crc.words
        ]
    claimed = bound3_lower(CodeParams(q=q, m=m, n=n, d=d), tau)
    stored, truncated = _cap_words(codewords, word_cap)
    return WitnessCertificate(
        kind=KIND_BOUND3,
        q=q,
        m=m,
        n=n,
        k=None,
        d=d,
        tau=tau,
        modulus=fld.modulus,
        alphas=None,
        received_word=received,
        codewords=stored,
        claimed_size=claimed,
        total_size=len(codewords),
        truncated=truncated,
        meta={"translate": translate},
    )


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, dict]:
    """Independent re-verification of a certificate.

    Checks: claimed size equals the bound formula; the list is at least that
    large; every stored codeword belongs to the declared code; every stored
    codeword has rank distance exactly tau from the received word; pairwise
    rank distances are >= d (exhaustive up to PAIRWISE_CHECK_CAP words, a
    deterministic prefix beyond).
    """
    fld = cert.field
    checks: dict[str, bool] = {}
    params = CodeParams(q=cert.q, m=cert.m, n=cert.n, d=cert.d)
    if cert.kind == KIND_BOUND1:
        formula = bound1_lower(CodeParams(q=cert.q, m=cert.m, n=cert.n, d=cert.d, k=cert.k), cert.tau).guarantee
    elif cert.kind == KIND_BOUND1_ALT:
        formula = max(1, math.ceil(bound1_alt_lower(params, cert.tau)))
    elif cert.kind == KIND_BOUND3:
        formula = bound3_lower(params, cert.tau)
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")
    checks["claimed_matches_formula"] = cert.claimed_size == formula
    checks["size_at_least_claimed"] = cert.total_size >= cert.claimed_size
    if not cert.truncated:
        checks["stored_matches_total"] = len(cert.codewords) == cert.total_size
    checks["sphere_distance_exact"] = all(
        dist == cert.tau for dist in rank_distances(cert.received_word, cert.codewords, fld)
    )
    if cert.kind in (KIND_BOUND1, KIND_BOUND1_ALT):
        code = GabidulinCode(fld, n=cert.n, k=cert.k, alphas=cert.alphas)
        checks["membership"] = code.contains_all(cert.codewords)
    else:
        crc = crc_theorem8(cert.n, cert.m, cert.tau, cert.d, cert.q)
        translate = cert.meta.get("translate")
        if translate is None:
            expected = set(crc.words)
        else:
            a_j = crc.words[int(translate)]
            expected = {
                tuple(fld.sub(a_j[i], a[i]) for i in range(cert.n)) for a in crc.words
            }
        checks["membership"] = set(cert.codewords) <= expected
        checks["size_exact"] = cert.total_size == crc.cardinality == cert.claimed_size
    sample = cert.codewords[:PAIRWISE_CHECK_CAP]
    min_dist = min_pairwise_rank_distance(sample, fld)
    checks["pairwise_distance"] = min_dist is None or min_dist >= cert.d
    checks["pairwise_exhaustive"] = len(sample) == len(cert.codewords)
    ok = all(v for key, v in checks.items() if key != "pairwise_exhaustive")
    return ok, checks
