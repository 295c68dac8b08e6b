"""Exact bound calculators: frozen values, chains, and property sweeps."""

import time
from fractions import Fraction

import pytest

from rankmetric.bounds import (
    _MR_LIMIT,
    Bound2Values,
    CodeParams,
    anticode_bound,
    ball_volume,
    bound1_alt_lower,
    bound1_lower,
    bound2_iterated_johnson,
    bound2_upper,
    bound3_large_tau,
    bound3_lower,
    bound3_refined,
    compute_report,
    gaussian_binomial,
    johnson_radii,
    mrd_weight_tau,
    regions_table,
    report_to_jsonable,
    singleton_max,
    _is_prime_power,
    sphere_volume,
)


# --- Gaussian binomials ---------------------------------------------------------


@pytest.mark.parametrize(
    "n,r,q,expected",
    [(2, 1, 2, 3), (4, 2, 2, 35), (6, 3, 2, 1395), (4, 0, 2, 1), (5, 5, 3, 1)],
)
def test_gaussian_binomial_values(n, r, q, expected):
    assert gaussian_binomial(n, r, q) == expected


def test_gaussian_binomial_symmetry_and_sandwich():
    for q in (2, 3):
        for n in range(9):
            for r in range(n + 1):
                v = gaussian_binomial(n, r, q)
                assert v == gaussian_binomial(n, n - r, q)
                assert q ** (r * (n - r)) <= v <= 4 * q ** (r * (n - r))


def test_gaussian_binomial_range_error():
    with pytest.raises(ValueError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ValueError):
        gaussian_binomial(3, -1, 2)


# --- volumes ----------------------------------------------------------------------


def test_sphere_and_ball_values():
    assert sphere_volume(2, 2, 2, 0) == 1 and ball_volume(2, 2, 2, 0) == 1
    assert sphere_volume(2, 2, 2, 1) == 9 and ball_volume(2, 2, 2, 1) == 10
    assert ball_volume(3, 3, 2, 3) == 512


def test_sphere_volumes_sum_to_whole_space():
    for q in (2, 3):
        for m in range(1, 5):
            for n in range(1, 5):
                total = sum(sphere_volume(m, n, q, t) for t in range(min(m, n) + 1))
                assert total == q ** (m * n)


def test_volume_range_errors():
    with pytest.raises(ValueError):
        sphere_volume(2, 2, 2, 3)
    with pytest.raises(ValueError):
        ball_volume(2, 2, 2, -1)


# --- params and Singleton -----------------------------------------------------------


def test_code_params_validation():
    with pytest.raises(ValueError, match="n <= m"):
        CodeParams(q=2, m=3, n=4, d=2)
    with pytest.raises(ValueError, match="1 <= d <= n"):
        CodeParams(q=2, m=4, n=4, d=5)
    with pytest.raises(ValueError, match="inconsistent k"):
        CodeParams(q=2, m=4, n=4, d=3, k=3)
    for q in (0, 1, 6, 12, 100):
        with pytest.raises(ValueError, match="prime power"):
            CodeParams(q=q, m=4, n=4, d=3)
    for q in (16, 25, 49, 101):  # closed forms need no field tables
        assert CodeParams(q=q, m=4, n=4, d=3).q == q
    p = CodeParams(q=2, m=4, n=4, d=3)
    assert p.dimension == 2


def test_is_prime_power_matches_sympy():
    sympy = pytest.importorskip("sympy")
    limit = 10**5
    powers = set()
    for p in sympy.primerange(2, limit):
        v = p
        while v < limit:
            powers.add(v)
            v *= p
    assert [q for q in range(-2, limit) if _is_prime_power(q) != (q in powers)] == []


def test_is_prime_power_large_q():
    sympy = pytest.importorskip("sympy")
    p = sympy.nextprime(10**18)
    start = time.perf_counter()
    assert CodeParams(q=p, m=4, n=4, d=3).q == p
    assert time.perf_counter() - start < 0.1
    assert _is_prime_power((10**9 + 7) ** 2) and _is_prime_power(sympy.prevprime(_MR_LIMIT))
    assert not _is_prime_power(sympy.nextprime(10**9) * sympy.nextprime(10**10))
    assert not _is_prime_power(sympy.nextprime(10**6) ** 2 * 43**2)
    with pytest.raises(ValueError, match="too large"):
        CodeParams(q=_MR_LIMIT, m=4, n=4, d=3)


def test_singleton_values():
    assert singleton_max(CodeParams(q=2, m=4, n=4, d=3)) == 256
    assert singleton_max(CodeParams(q=2, m=5, n=4, d=4)) == 2**5
    assert singleton_max(CodeParams(q=2, m=4, n=4, d=1)) == 2**16


# --- bound 1 --------------------------------------------------------------------------


def test_bound1_values():
    p = CodeParams(q=2, m=4, n=4, d=3)
    b2 = bound1_lower(p, 2)
    assert b2.exact_ratio == 35 and b2.guarantee == 35
    assert b2.exp_form == 16 and b2.exp_form_nm == 16
    b1 = bound1_lower(p, 1)
    assert b1.exact_ratio == Fraction(15, 16) and b1.guarantee == 1
    b0 = bound1_lower(p, 0)
    assert b0.exact_ratio == Fraction(1, 2**8) and b0.guarantee == 1
    with pytest.raises(ValueError):
        bound1_lower(p, 3)


def test_bound1_chain_exact_dominates_exponential():
    for n in range(1, 7):
        for extra in (0, 2):
            m = n + extra
            for d in range(1, n + 1):
                p = CodeParams(q=2, m=m, n=n, d=d)
                for tau in range(d):
                    b = bound1_lower(p, tau)
                    assert b.exact_ratio >= b.exp_form


def test_mrd_weight_and_alt_bound():
    assert mrd_weight_tau(4, 4, 2, 2) == 525
    assert mrd_weight_tau(4, 4, 4, 2) == 15
    p = CodeParams(q=2, m=4, n=4, d=3)
    alt = bound1_alt_lower(p, 2)
    assert alt == Fraction(525, 16)
    # tau = d: denominator is one, the weight itself
    assert bound1_alt_lower(p, 3) == mrd_weight_tau(4, 4, 3, 2)
    with pytest.raises(ValueError):
        mrd_weight_tau(5, 4, 2, 2)  # n > m


# --- Johnson radii ---------------------------------------------------------------------


def test_johnson_radii_values():
    j = johnson_radii(4, 4, 3, 0)
    assert j.tau_j == pytest.approx(2.0, abs=1e-12) and j.tau_j_int == 2
    assert j.tau_j_star == pytest.approx(2.0, abs=1e-12) and j.tau_j_star_int == 2
    j9 = johnson_radii(9, 9, 5, 0)
    assert j9.tau_j == pytest.approx(3.0, abs=1e-12) and j9.tau_j_int == 3
    assert johnson_radii(4, 4, 0, 0).tau_j == 0.0


def test_johnson_radii_accepts_code_params():
    p = CodeParams(q=2, m=4, n=4, d=3)
    assert johnson_radii(p) == johnson_radii(4, 4, 3, 0)
    assert johnson_radii(p, epsilon=Fraction(1, 4)).epsilon == Fraction(1, 4)
    with pytest.raises(TypeError):
        johnson_radii(p, 4, 3)


def test_johnson_radii_rectangular_and_epsilon():
    j = johnson_radii(6, 4, 3, Fraction(1, 2))
    assert j.tau_j is None and j.tau_j_int is None
    assert 0 < j.tau_j_star < 4
    # integer threshold is consistent with the float value
    assert j.tau_j_star_int == 2


def test_johnson_radii_integer_threshold_is_exact():
    # perturbations around a perfect square must not shift the threshold
    j = johnson_radii(9, 9, 5, 0)
    assert j.tau_j_int == 3
    j_eps = johnson_radii(9, 9, 5, Fraction(1, 1000))
    assert j_eps.tau_j_int == 3  # radicand grows, threshold unchanged
    with pytest.raises(ValueError, match="epsilon"):
        johnson_radii(4, 4, 3, 1)


# --- anticode and bound 2 -----------------------------------------------------------------


def test_anticode_values():
    assert anticode_bound(4, 2, 2, 2) == 35
    assert anticode_bound(6, 4, 2, 2) == 21
    assert anticode_bound(5, 2, 1, 2) == gaussian_binomial(5, 1, 2)
    with pytest.raises(ValueError):
        anticode_bound(4, 3, 2, 2)  # odd distance
    with pytest.raises(ValueError):
        anticode_bound(4, 6, 2, 2)  # d_s > 2r


def test_bound2_values():
    p = CodeParams(q=2, m=4, n=4, d=3)
    b = bound2_upper(p, 2)
    assert b == Bound2Values(36, 65, 65, 36)
    p6 = CodeParams(q=2, m=6, n=6, d=3)
    b6 = bound2_upper(p6, 2)
    assert b6.anticode_sum == 652
    assert b6.iterated_johnson == 652
    assert b6.four_sum == 1025 and b6.closed_form == 1025


def test_bound2_trivial_radius():
    p = CodeParams(q=2, m=6, n=6, d=3)
    b = bound2_upper(p, 1)  # tau = floor((d-1)/2): empty sum
    assert b == Bound2Values(1, 1, 1, 1)


def test_bound2_iterated_johnson_values():
    assert bound2_iterated_johnson(CodeParams(q=2, m=4, n=4, d=3), 2) == 36
    assert bound2_iterated_johnson(CodeParams(q=2, m=6, n=6, d=3), 2) == 652


def test_bound2_tier_ordering_sweep():
    for n in range(1, 9):
        for d in range(1, n + 1):
            half = (d - 1) // 2
            for tau in range(half, d):
                p = CodeParams(q=2, m=n, n=n, d=d)
                b = bound2_upper(p, tau)  # raises internally if misordered
                assert b.anticode_sum <= b.four_sum <= b.closed_form
                assert b.iterated_johnson <= b.anticode_sum


def test_bound2_preconditions():
    p = CodeParams(q=2, m=6, n=6, d=5)
    with pytest.raises(ValueError):
        bound2_upper(p, 1)  # below floor((d-1)/2)
    with pytest.raises(ValueError):
        bound2_upper(p, 5)  # tau >= d


# --- bound 3 ----------------------------------------------------------------------------------


def test_bound3_values():
    assert bound3_lower(CodeParams(q=2, m=6, n=6, d=3), 2) == 16
    assert bound3_refined(CodeParams(q=2, m=6, n=6, d=4), 2) == 16  # tau = d/2
    assert bound3_large_tau(CodeParams(q=2, m=5, n=5, d=4), 3) == 8


def test_bound3_refined_large_m_and_dominance():
    # m large: refined applies and dominates the standard value
    p = CodeParams(q=2, m=16, n=6, d=3)
    std = bound3_lower(p, 2)
    ref = bound3_refined(p, 2)
    assert ref == 2 ** ((6 - 2) * (2 * 2 - 3 + 1)) == 256
    assert ref >= std


def test_bound3_at_half_distance_plus_one():
    # at tau = floor((d-1)/2) + 1 the bound is q^{n - tau} for any rate
    for q in (2, 3):
        for n in range(2, 9):
            for d in range(2, n + 1):
                tau = (d - 1) // 2 + 1
                if tau >= d or tau > n - tau:
                    continue
                p = CodeParams(q=q, m=n, n=n, d=d)
                assert bound3_lower(p, tau) == q ** (n - tau)


def test_bound3_preconditions():
    with pytest.raises(ValueError):
        bound3_lower(CodeParams(q=2, m=6, n=6, d=3), 1)
    with pytest.raises(ValueError, match="tau <= n - tau"):
        bound3_lower(CodeParams(q=2, m=4, n=4, d=4), 3)
    with pytest.raises(ValueError, match="even"):
        bound3_large_tau(CodeParams(q=2, m=5, n=5, d=3), 2)
    with pytest.raises(ValueError):
        bound3_refined(CodeParams(q=2, m=6, n=6, d=3), 2)  # d < n fails (d=3 < n=6 ok) -> cond fails
    with pytest.raises(ValueError, match="d < n"):
        bound3_refined(CodeParams(q=2, m=6, n=6, d=6), 4)


# --- report and regions -------------------------------------------------------------------------


def test_compute_report_and_jsonable():
    p = CodeParams(q=2, m=4, n=4, d=3)
    report = compute_report(p, 2)
    doc = report_to_jsonable(report)
    assert doc["bound1"]["exact_ratio"] == "35/1"
    assert doc["bound1"]["guarantee"] == "35"
    assert doc["bound2"]["anticode_sum"] == "36"
    assert doc["johnson"]["tau_j_int"] == 2
    assert doc["bound3"]["standard"] == "4"  # 2^{(n-tau)(tau - floor((d-1)/2))}
    assert doc["bound3"]["refined"] is None and "bound3.refined" in doc["notes"]
    assert doc["bound3"]["large_tau"] is None and "bound3.large_tau" in doc["notes"]
    assert doc["singleton"] == "256"


def test_compute_report_lower_below_upper():
    for n in (4, 6):
        for d in range(1, n + 1):
            for tau in range(d):
                p = CodeParams(q=2, m=n, n=n, d=d)
                report = compute_report(p, tau)
                if report.bound2 is not None:
                    assert report.bound1.guarantee <= report.bound2.anticode_sum
                    if report.bound3.standard is not None:
                        assert report.bound3.standard <= report.bound2.anticode_sum


def test_compute_report_rejects_bad_tau():
    p = CodeParams(q=2, m=4, n=4, d=3)
    with pytest.raises(ValueError):
        compute_report(p, 3)
    with pytest.raises(ValueError):
        compute_report(p, -1)


def test_regions_table_values():
    rows = regions_table([Fraction(3, 4), Fraction(1), Fraction(0)])
    assert rows[0]["tau_j_over_n"] == pytest.approx(0.5, abs=1e-12)
    assert rows[0]["tau_bmd_over_n"] == Fraction(3, 8)
    assert rows[1]["tau_j_over_n"] == pytest.approx(1.0, abs=1e-12)
    assert rows[2]["tau_j_over_n"] == 0.0 and rows[2]["tau_bmd_over_n"] == 0


def test_regions_table_finite_columns():
    rows = regions_table([Fraction(1, 2), Fraction(1, 3)], n=8)
    assert rows[0]["d"] == 4
    assert rows[0]["tau_bmd_finite"] == Fraction(1, 8)
    assert rows[0]["tau_j_finite"] == pytest.approx((8 - (8 * 4) ** 0.5) / 8)
    assert "d" not in rows[1]  # 8/3 is not an integer


def test_regions_table_rejects_bad_delta():
    with pytest.raises(ValueError):
        regions_table([Fraction(3, 2)])
    for n in (0, -3):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            regions_table([Fraction(1, 2)], n=n)
