"""Acceptance checks: one callable per criterion, shared by the CLI and pytest.

Each check returns (passed, detail).  They are deterministic (fixed seeds)
and sized to run on a laptop: on a 2-vCPU Intel Xeon VM criterion 3 (rank
decompositions of 2000 random matrices) takes about 12 ms, criterion 5 about
6 ms and each other one under 5 ms.

Criteria 3 and 4 run batched in numpy: they draw their random matrices with
the RNG calls of the scalar loop they replace, then reduce them as stacks
with ``matfq._rrefs`` and rank them with ``matfq._column_ranks``; criterion
3 multiplies G^T H as integers mod q, since it draws over prime q only.  Their
scalar references, ``rank_decompose``, ``column_space`` and
``distance_sandwich_check``, are in ``tests/reference.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from . import bounds, codes, matfq, oracle, witness
from .ff import base_field, make_field
from .linpoly import min_subspace_poly, root_space


def _check_gaussian_binomials() -> tuple[bool, str]:
    if bounds.gaussian_binomial(4, 2, 2) != 35:
        return False, "[4;2]_2 != 35"
    if bounds.gaussian_binomial(6, 3, 2) != 1395:
        return False, "[6;3]_2 != 1395"
    def gb0(n: int, r: int, q: int) -> int:
        # zero-extension outside 0 <= r <= n, as the recurrence needs
        return bounds.gaussian_binomial(n, r, q) if 0 <= r <= n else 0

    for q in (2, 3):
        for n in range(9):
            for r in range(n + 1):
                val = bounds.gaussian_binomial(n, r, q)
                if r >= 1:
                    pascal = gb0(n - 1, r - 1, q) + q**r * gb0(n - 1, r, q)
                    if val != pascal:
                        return False, f"Pascal recurrence fails at (n={n}, r={r}, q={q})"
                lo, hi = q ** (r * (n - r)), 4 * q ** (r * (n - r))
                if not lo <= val <= hi:
                    return False, f"sandwich fails at (n={n}, r={r}, q={q})"
    return True, "[4;2]=35, [6;3]=1395, Pascal recurrence and sandwich hold for n <= 8, q in {2,3}"


def _check_ball_volumes() -> tuple[bool, str]:
    for m in range(1, 4):
        for n in range(1, 4):
            for tau in range(min(m, n) + 1):
                closed = bounds.ball_volume(m, n, 2, tau)
                brute = oracle.ball_volume_bruteforce(m, n, 2, tau)
                if closed != brute:
                    return False, f"(m={m}, n={n}, tau={tau}): formula {closed} != count {brute}"
    if bounds.ball_volume(2, 2, 2, 1) != 10:
        return False, "ball volume (2,2,2,1) != 10"
    return True, "closed-form ball volumes match exhaustive counts for q=2, m,n <= 3 (incl. (2,2,2,1)=10)"


def _rank_decompose_samples():
    """Criterion 3's matrices: per q in {2, 3}, (q, shapes, X) with the shapes
    of 1000 random matrices of 1..6 rows and columns and their (1000, 6, 6)
    digit stack, zero-padded, which leaves every RREF as it is."""
    import numpy as np

    rng = random.Random(0xDEC0)
    for q in (2, 3):
        # one RNG call per row: a number below q^cols split into base-q digits
        draw = rng.getrandbits if q == 2 else lambda cols: rng.randrange(q**cols)
        shapes, packed = [], np.zeros((1000, 6), dtype=np.int64)
        for i in range(1000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            shapes.append((rows, cols))
            packed[i, :rows] = [draw(cols) for _ in range(rows)]
        yield q, shapes, matfq._digits(packed, q, 6)


def _rank_decompositions(X, q: int):
    """``rank_decompose`` of each matrix of the stack X, zero-padded: (G, H)
    with G^T H = X, G holding the pivot columns of X as rows and H the RREF of X."""
    import numpy as np

    H, ranks = matfq._rrefs(X, q)
    pivots = (H != 0).argmax(axis=2)  # the lead of row i < rank is column pivots[:, i]
    G = X.transpose(0, 2, 1)[np.arange(len(X))[:, None], pivots]
    G *= (np.arange(X.shape[1]) < ranks[:, None])[:, :, None]
    return G, H


def _prime_products(A, B, q: int):
    """A^T B over the prime field F_q for stacks A (N, r, a) and B (N, r, b),
    as one integer matmul reduced mod q."""
    import numpy as np

    if base_field(q).e != 1:
        raise AssertionError(f"q={q} is not prime: F_q arithmetic is not integer arithmetic mod q")
    return np.matmul(A.transpose(0, 2, 1), B) % q


def _check_rank_decompose() -> tuple[bool, str]:
    import numpy as np

    for q, shapes, X in _rank_decompose_samples():
        G, H = _rank_decompositions(X, q)
        checks = np.stack(
            [
                (_prime_products(G, H, q) == X).all(axis=(1, 2)),
                (matfq._rrefs(G, q)[0] == matfq._rrefs(X.transpose(0, 2, 1), q)[0]).all(axis=(1, 2)),
                (matfq._rrefs(H, q)[0] == H).all(axis=(1, 2)),
            ],
            axis=1,
        )
        if not checks.all():
            i, check = np.argwhere(~checks)[0]  # the first failing matrix, and its first failing check
            return False, (
                f"G^T H != X for q={q}, shape {shapes[i]}",
                "Rowspace(G) != Colspace(X)",
                "Rowspace(H) != Rowspace(X)",
            )[check]
    return True, "rank decomposition round-trips exactly on 1000 random matrices per q in {2,3}"


def _sandwich_samples():
    """Criterion 4's pairs of matrices over F_2 as an (N, 8) array, X's rows
    then Y's, each row packed into an int (entry j is bit j): the first 1000
    random pairs of equal-rank 4x4 matrices, then every pair of rank-1 2x2
    matrices, zero-padded to 4x4; and the number of rank-1 2x2 matrices."""
    import numpy as np

    rng = random.Random(0x5A17)
    pairs = np.zeros((0, 8), dtype=np.int64)
    while len(pairs) < 1000:
        drawn = np.array([[rng.getrandbits(4) for _ in range(8)] for _ in range(1000 - len(pairs))])
        ranks = matfq._column_ranks(drawn.reshape(-1, 4), 2, 4).reshape(-1, 2)
        pairs = np.concatenate([pairs, drawn[ranks[:, 0] == ranks[:, 1]]])
    small = np.array([[bits & 3, bits >> 2, 0, 0] for bits in range(16)])
    rank1 = small[matfq._column_ranks(small, 2, 4) == 1]
    rank1_pairs = np.hstack([np.repeat(rank1, len(rank1), axis=0), np.tile(rank1, (len(rank1), 1))])
    return np.concatenate([pairs, rank1_pairs]), len(rank1)


def _sandwiches(pairs):
    """For each pair of packed 4x4 matrices over F_2 (X's rows, then Y's):
    whether rank X = rank Y, and the (lower, middle, upper) of
    ``distance_sandwich_check``.  A subspace dimension is the rank of the
    packed rows, or columns, spanning it; one ``_column_ranks`` call takes all."""
    import numpy as np

    X, Y, zeros = pairs[:, :4], pairs[:, 4:], np.zeros((len(pairs), 4), dtype=np.int64)
    # the columns of X, then of Y, packed: bit i of column j is row i's entry j
    columns = matfq._undigits(matfq._digits(pairs, 2, 4).reshape(-1, 2, 4, 4).transpose(0, 1, 3, 2), 2)
    words = np.concatenate(
        [
            np.hstack([X, zeros]),
            np.hstack([Y, zeros]),
            pairs,  # rowspace X + rowspace Y
            columns.reshape(-1, 8),  # colspace X + colspace Y
            np.hstack([X ^ Y, zeros]),  # X - Y over F_2
        ]
    )
    rx, ry, row_sum, column_sum, middle = matfq._column_ranks(words, 2, 4).reshape(5, -1)
    ds_row, ds_col = 2 * row_sum - rx - ry, 2 * column_sum - rx - ry
    return rx == ry, ds_row // 2 + ds_col // 2, middle, np.minimum(ds_row, ds_col) // 2 + rx


def _check_distance_sandwich() -> tuple[bool, str]:
    pairs, rank1 = _sandwich_samples()
    equal, lower, middle, upper = _sandwiches(pairs)
    if not equal.all():
        return False, f"unequal ranks in pair {equal.argmin()}"
    violated = (lower > middle) | (middle > upper)
    if violated.any():
        i = violated.argmax()
        return False, f"distance sandwich violated: {lower[i]} <= {middle[i]} <= {upper[i]}"
    return True, f"sandwich holds on 1000 random equal-rank 4x4 pairs and all {rank1}^2 rank-1 2x2 pairs"


def _check_grassmannian_and_subspace_polys() -> tuple[bool, str]:
    for n in range(7):
        for r in range(n + 1):
            count = len(matfq.grassmannian_enumerate(n, r, 2))
            if count != bounds.gaussian_binomial(n, r, 2):
                return False, f"|Gr({n},{r})| = {count} != [n;r]"
    fld = make_field(2, 4)
    seen = set()
    for U in matfq.grassmannian_enumerate(4, 2, 2):
        poly = min_subspace_poly(U, fld)
        if poly.q_degree != 2 or not poly.is_monic:
            return False, "subspace polynomial is not monic of q-degree 2"
        if root_space(poly, fld) != U:
            return False, "root_space(min_subspace_poly(U)) != U"
        seen.add(poly.coeffs)
    if len(seen) != 35:
        return False, f"expected 35 distinct subspace polynomials, got {len(seen)}"
    return True, "Grassmannian counts match for n <= 6; 35 distinct subspace polynomials round-trip on Gr(4,2)"


def _check_mrd() -> tuple[bool, str]:
    fld, weights = make_field(2, 4), {}
    for n in range(1, 5):
        for k in range(1, n + 1):
            weights[n, k] = oracle.distance_counts(codes.GabidulinCode(fld, n=n, k=k), (0,) * n)
            # the zero word is the one codeword of weight 0
            min_weight = min(w for w, count in enumerate(weights[n, k]) if count > (w == 0))
            if min_weight != n - k + 1:
                return False, f"Gab[{n},{k}] min distance {min_weight} != {n - k + 1}"
    for t in range(1, 5):
        count = weights[4, 4 - t + 1][t]  # Gab[4, 5 - t], counted above
        expected = bounds.gaussian_binomial(4, t, 2) * 15
        if count != expected:
            return False, f"rank-{t} words in Gab[4,{4 - t + 1}]: {count} != {expected}"
    return True, "Gab[n,k]/F_16 are MRD for n <= 4; rank-t counts match [4;t]*15 (t=2: 525)"


def _check_bound1_witness() -> tuple[bool, str]:
    fld = make_field(2, 4)
    code = codes.GabidulinCode(fld, n=4, k=2)
    cert = witness.bound1_witness(code, tau=2)
    ok, checks = witness.verify_certificate(cert)
    if not ok:
        return False, f"certificate failed verification: {checks}"
    params = bounds.CodeParams(q=2, m=4, n=4, d=3, k=2)
    b1 = bounds.bound1_lower(params, 2)
    if b1.exact_ratio != 35 or cert.total_size < 35:
        return False, f"certificate size {cert.total_size} below exact ratio {b1.exact_ratio}"
    scan = oracle.list_codewords(code, cert.received_word, tau=2)
    if scan.sphere_counts[2] < 35:
        return False, f"exhaustive sphere count {scan.sphere_counts[2]} < 35"
    if b1.exp_form != 16 or not b1.exp_form <= cert.total_size:
        return False, f"chain value {b1.exp_form} vs certificate size {cert.total_size}"
    return True, (
        f"pigeonhole certificate holds {cert.total_size} codewords at distance exactly 2 "
        f"(>= 35 = exact ratio >= 16 = exponential form); full scan agrees"
    )


def _check_exhaustive_max_list() -> tuple[bool, str]:
    fld = make_field(2, 4)
    code = codes.GabidulinCode(fld, n=4, k=2)
    result = oracle.max_list_size(code, tau=2)
    if not 35 <= result.ell <= 36:
        return False, f"exhaustive ell = {result.ell} outside [35, 36]"
    params = bounds.CodeParams(q=2, m=4, n=4, d=3)
    b2 = bounds.bound2_upper(params, 2)
    tiers = (b2.anticode_sum, b2.four_sum, b2.closed_form)
    if tiers != (36, 65, 65):
        return False, f"bound2 tiers {tiers} != (36, 65, 65)"
    return True, f"exhaustive scan of 65536 words gives ell = {result.ell} in [35, 36]; tiers 36 <= 65 <= 65"


def _check_bound3_witness() -> tuple[bool, str]:
    cert = witness.bound3_witness(n=6, m=6, tau=2, d=3, q=2)
    ok, checks = witness.verify_certificate(cert)
    if not ok:
        return False, f"zero-word certificate failed: {checks}"
    if cert.total_size != 16:
        return False, f"certificate size {cert.total_size} != 16"
    fld = cert.field
    if any(matfq.rank_of_vector(cw, fld) != 2 for cw in cert.codewords):
        return False, "a codeword does not have rank exactly 2"
    if (0,) * 6 in cert.codewords:
        return False, "zero word appears in the list"
    cert_t = witness.bound3_witness(n=6, m=6, tau=2, d=3, q=2, translate=0)
    ok_t, checks_t = witness.verify_certificate(cert_t)
    if not ok_t:
        return False, f"translate certificate failed: {checks_t}"
    return True, "16 = q^{(n-tau)(tau-1)} codewords, rank 2, pairwise distance >= 3; translate variant verified"


def _check_constructions() -> tuple[bool, str]:
    cdc = codes.lifted_mrd_cdc(6, 2, 4, 2)
    if cdc.cardinality != 16:
        return False, f"lifted CDC cardinality {cdc.cardinality} != 16"
    dists = [
        matfq.subspace_distance(cdc.words[i], cdc.words[j])
        for i in range(16)
        for j in range(i + 1, 16)
    ]
    if min(dists) != 4:
        return False, f"lifted CDC min subspace distance {min(dists)} != 4"
    fld = make_field(2, 4)
    M = codes.lifted_mrd_cdc(4, 2, 4, 2)
    crc = codes.crc_from_cdc_pair(M, M, fld)
    min_dist = matfq.min_pairwise_rank_distance(crc.words, fld)
    lower = M.min_subspace_distance // 2 + M.min_subspace_distance // 2
    upper = min(M.min_subspace_distance, M.min_subspace_distance) // 2 + crc.rank
    if min_dist < lower:
        return False, f"pair distance {min_dist} below the guaranteed bound {lower}"
    if min_dist > upper:
        return False, f"no pair achieves the upper bound {upper} (min = {min_dist})"
    return True, (
        f"lifted CDC(6,2,4,2): 16 words at distance 4; CDC-pair code meets both distance bounds "
        f"(min pair distance {min_dist} in [{lower}, {upper}])"
    )


def _check_alt_witness() -> tuple[bool, str]:
    params = bounds.CodeParams(q=2, m=4, n=4, d=3)
    cert = witness.bound1_alt_witness(params, tau=2)
    ok, checks = witness.verify_certificate(cert)
    if not ok:
        return False, f"certificate failed: {checks}"
    if cert.total_size < 33:
        return False, f"best coset holds {cert.total_size} < 33 rank-2 words"
    total = cert.meta["coset_total"]
    if total != 525:
        return False, f"total rank-2 words over all cosets {total} != 525"
    return True, f"best translate holds {cert.total_size} >= 33 rank-2 words; coset total is exactly 525"


def _check_johnson_and_regions() -> tuple[bool, str]:
    j1 = bounds.johnson_radii(4, 4, 3, 0)
    j2 = bounds.johnson_radii(9, 9, 5, 0)
    if j1.tau_j_int != 2 or j2.tau_j_int != 3:
        return False, f"integer thresholds ({j1.tau_j_int}, {j2.tau_j_int}) != (2, 3)"
    if abs(j1.tau_j - 2.0) > 1e-12 or abs(j2.tau_j - 3.0) > 1e-12:
        return False, f"float radii ({j1.tau_j}, {j2.tau_j}) != (2.0, 3.0)"
    row = bounds.regions_table([Fraction(3, 4)])[0]
    if abs(row["tau_j_over_n"] - 0.5) > 1e-12:
        return False, f"regions tau_j/n at delta=3/4 is {row['tau_j_over_n']}, expected 0.5"
    return True, "tau_J(4,3)=2 and tau_J(9,5)=3 exactly; regions table gives tau_J/n = 0.5 at delta = 3/4"


CRITERIA: list[tuple[int, str, Callable[[], tuple[bool, str]]]] = [
    (1, "Gaussian binomial values, recurrence, and sandwich", _check_gaussian_binomials),
    (2, "ball volume formula vs exhaustive matrix counts", _check_ball_volumes),
    (3, "rank decomposition round-trip", _check_rank_decompose),
    (4, "rank/subspace distance sandwich", _check_distance_sandwich),
    (5, "Grassmannian enumeration and subspace polynomials", _check_grassmannian_and_subspace_polys),
    (6, "MRD distance and rank weight counts", _check_mrd),
    (7, "pigeonhole lower-bound witness realized", _check_bound1_witness),
    (8, "exhaustive list-size maximum inside the bound sandwich", _check_exhaustive_max_list),
    (9, "constant-rank lower-bound witness realized", _check_bound3_witness),
    (10, "lifted CDC and CDC-pair construction distances", _check_constructions),
    (11, "coset-search witness and weight total", _check_alt_witness),
    (12, "Johnson radii and regions table", _check_johnson_and_regions),
]


def run_all(selected: set[int] | None = None) -> list[tuple[int, str, bool, str]]:
    """Run the acceptance checks; returns (id, description, passed, detail) rows."""
    out = []
    for cid, desc, fn in CRITERIA:
        if selected is not None and cid not in selected:
            continue
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        out.append((cid, desc, passed, detail))
    return out
