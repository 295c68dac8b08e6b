"""Exact calculators for list-size bounds of rank-metric codes.

Everything is computed in arbitrary-precision integer / rational arithmetic;
floats appear only as companions to the Johnson-radius square roots, whose
integer thresholds are decided exactly.

Notation: a code over F_{q^m} of length n <= m and minimum rank distance d
is list-decoded within rank radius tau.  [n; r] denotes the Gaussian
binomial with parameter q.

The implemented quantities:

* bound1: pigeonhole lower bound on the list size of Gabidulin codes,
  [n; n-tau] / q^{m(n-tau-k)} with k = n-d+1, plus its exponential
  relaxations q^m q^{tau(m+n)-tau^2-md} and (for n = m)
  q^n q^{2n tau - tau^2 - nd}.
* Johnson radii: the thresholds tau_J* (general) and tau_J (n = m) above
  which bound1 grows exponentially.
* bound2: upper bound for any rank-metric code via the anticode bound on
  constant-dimension codes, its 4-term exponential relaxations, and the
  iterated-Johnson variant.
* bound3: existence lower bound q^{(n-tau)(tau - floor((d-1)/2))} realized
  by constant-rank codes, with the refined and large-tau variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """[n; r]_q = prod_{i<r} (q^n - q^i) / (q^r - q^i), exactly."""
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n, got r={r}, n={n}")
    num = 1
    den = 1
    for i in range(r):
        num *= q**n - q**i
        den *= q**r - q**i
    assert num % den == 0
    return num // den


def sphere_volume(m: int, n: int, q: int, tau: int) -> int:
    """Number of m x n matrices over F_q of rank exactly tau."""
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    prod = 1
    for j in range(tau):
        prod *= q**n - q**j
    return gaussian_binomial(m, tau, q) * prod


def ball_volume(m: int, n: int, q: int, tau: int) -> int:
    """Number of m x n matrices over F_q of rank at most tau."""
    if not 0 <= tau <= min(m, n):
        raise ValueError(f"need 0 <= tau <= min(m, n), got tau={tau}")
    return sum(sphere_volume(m, n, q, i) for i in range(tau + 1))


@dataclass(frozen=True)
class CodeParams:
    """Parameters of a rank-metric code over F_{q^m}: length n <= m, distance d."""

    q: int
    m: int
    n: int
    d: int
    k: int | None = None

    def __post_init__(self):
        if not _is_prime_power(self.q):
            raise ValueError(f"q must be a prime power (the size of a field F_q), got {self.q}")
        if self.n > self.m:
            raise ValueError(f"need n <= m, got n={self.n}, m={self.m}")
        if not 1 <= self.d <= self.n:
            raise ValueError(f"need 1 <= d <= n, got d={self.d}, n={self.n}")
        if self.k is not None and self.d != self.n - self.k + 1:
            raise ValueError(f"inconsistent k: d={self.d} != n-k+1={self.n - self.k + 1}")

    @property
    def dimension(self) -> int:
        """k = n - d + 1 (the MRD dimension for the given distance)."""
        return self.k if self.k is not None else self.n - self.d + 1


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981  # these bases decide primality of every n below it


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < _MR_LIMIT."""
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


def _is_prime_power(q: int) -> bool:
    """q = p^e for a prime p.

    A q with a prime factor p <= 41 is stripped of p; for any other q the
    integer e-th root of q is tested for primality, for each feasible e.
    """
    if q >= _MR_LIMIT:
        raise ValueError(f"q={q} is too large to test for a prime power (limit {_MR_LIMIT})")
    if q < 2:
        return False
    small = next((p for p in _MR_BASES if q % p == 0), None)
    if small is not None:
        while q % small == 0:
            q //= small
        return q == 1
    for e in range(1, q.bit_length() // 5 + 1):  # q >= 43^e > 2^(5e)
        root = q if e == 1 else math.isqrt(q) if e == 2 else round(q ** (1 / e))
        if root**e == q and _is_prime(root):
            return True
    return False


def singleton_max(params: CodeParams) -> int:
    """Largest cardinality of a length-n distance-d code: q^{m(n-d+1)}."""
    return params.q ** (params.m * (params.n - params.d + 1))


@dataclass(frozen=True)
class Bound1Values:
    """Lower bound tiers for Gabidulin list decoding at radius tau."""

    exact_ratio: Fraction
    guarantee: int
    exp_form: Fraction
    exp_form_nm: Fraction | None


def _q_power(q: int, e: int) -> Fraction:
    return Fraction(q**e) if e >= 0 else Fraction(1, q**-e)


def bound1_lower(params: CodeParams, tau: int) -> Bound1Values:
    """Pigeonhole lower bound [n; n-tau]/q^{m(n-tau-k)} and its relaxations.

    Requires tau < d.  exp_form may be a fraction below 1 when its exponent
    is negative; the integer guarantee is the ceiling of the exact ratio.
    """
    q, m, n, d = params.q, params.m, params.n, params.d
    if not 0 <= tau < d:
        raise ValueError(f"need 0 <= tau < d, got tau={tau}, d={d}")
    k = params.dimension
    exact = Fraction(gaussian_binomial(n, n - tau, q), q ** (m * (n - tau - k)))
    exp_form = Fraction(q**m) * _q_power(q, tau * (m + n) - tau * tau - m * d)
    exp_form_nm = None
    if n == m:
        exp_form_nm = Fraction(q**n) * _q_power(q, 2 * n * tau - tau * tau - n * d)
        assert exp_form_nm == exp_form
    return Bound1Values(exact, max(1, math.ceil(exact)), exp_form, exp_form_nm)


@dataclass(frozen=True)
class JohnsonRadii:
    """Radius thresholds beyond which bound1 grows exponentially.

    tau_j_star = (m+n)/2 - sqrt((m+n)^2/4 - m(d-eps)); tau_j is the n = m
    specialization n - sqrt(n(n-d+eps)).  The *_int fields hold the smallest
    integers satisfying tau >= threshold, decided in exact arithmetic.
    """

    tau_j_star: float
    tau_j_star_int: int
    tau_j: float | None
    tau_j_int: int | None
    epsilon: Fraction


def _smallest_tau_geq_root(shift: Fraction, radicand: Fraction) -> int:
    """Smallest integer tau with shift - tau <= sqrt(radicand)."""
    tau = 0
    while True:
        gap = shift - tau
        if gap <= 0 or gap * gap <= radicand:
            return tau
        tau += 1


def johnson_radii(
    m: int | CodeParams, n: int | None = None, d: int | None = None, epsilon: Fraction | int = 0
) -> JohnsonRadii:
    """Johnson-type radii; takes a CodeParams or plain (m, n, d) integers.

    epsilon is a rational in [0, 1).  The integer form accepts d = 0.
    """
    if isinstance(m, CodeParams):
        if n is not None or d is not None:
            raise TypeError("pass either CodeParams or plain integers, not both")
        m, n, d = m.m, m.n, m.d
    eps = Fraction(epsilon)
    if not 0 <= eps < 1:
        raise ValueError(f"epsilon must lie in [0, 1), got {eps}")
    if not 0 <= d <= n <= m:
        raise ValueError(f"need 0 <= d <= n <= m, got d={d}, n={n}, m={m}")
    radicand = Fraction((m + n) ** 2, 4) - m * (d - eps)
    if radicand < 0:
        raise ValueError("negative discriminant: (m+n)^2/4 < m(d - epsilon)")
    shift = Fraction(m + n, 2)
    tau_star = float(shift) - math.sqrt(float(radicand))
    tau_star_int = _smallest_tau_geq_root(shift, radicand)
    tau_j = tau_j_int = None
    if n == m:
        rad = n * (n - d + eps)
        tau_j = n - math.sqrt(float(rad))
        tau_j_int = _smallest_tau_geq_root(Fraction(n), Fraction(rad))
    return JohnsonRadii(tau_star, tau_star_int, tau_j, tau_j_int, eps)


def mrd_weight_tau(n: int, m: int, tau: int, q: int) -> int:
    """Number of rank-tau words in an MRD code of length n and distance tau.

    Equals [n; tau] (q^m - 1), the minimum-weight count of the rank weight
    distribution of MRD codes.
    """
    if not 1 <= tau <= n <= m:
        raise ValueError(f"need 1 <= tau <= n <= m, got tau={tau}, n={n}, m={m}")
    return gaussian_binomial(n, tau, q) * (q**m - 1)


def bound1_alt_lower(params: CodeParams, tau: int) -> Fraction:
    """Coset-averaging lower bound [n; tau](q^m - 1) / q^{m(d-tau)}."""
    q, m, n, d = params.q, params.m, params.n, params.d
    if not 1 <= tau <= d:
        raise ValueError(f"need 1 <= tau <= d, got tau={tau}, d={d}")
    return Fraction(mrd_weight_tau(n, m, tau, q), q ** (m * (d - tau)))


def anticode_bound(n: int, d_s: int, r: int, q: int) -> int:
    """Anticode upper bound on constant-dimension codes in Gr(n, r).

    With delta = d_s/2: [n; r-delta+1] / [r; r-delta+1], floored when the
    ratio is not integral.
    """
    if d_s % 2 != 0 or d_s <= 0:
        raise ValueError(f"subspace distance d_s={d_s} must be a positive even integer")
    if not d_s <= 2 * r <= 2 * n:
        raise ValueError(f"need d_s <= 2r <= 2n, got d_s={d_s}, r={r}, n={n}")
    delta = d_s // 2
    value = Fraction(
        gaussian_binomial(n, r - delta + 1, q), gaussian_binomial(r, r - delta + 1, q)
    )
    return math.floor(value)


@dataclass(frozen=True)
class Bound2Values:
    """Upper bound tiers, ordered anticode_sum <= four_sum <= closed_form."""

    anticode_sum: int
    four_sum: int
    closed_form: int
    iterated_johnson: int


def bound2_upper(params: CodeParams, tau: int) -> Bound2Values:
    """Upper bound on the list size of any rank-metric code at radius tau.

    anticode_sum = 1 + sum_{t=floor((d-1)/2)+1}^{tau} [n; 2t+1-d]/[t; 2t+1-d],
    then the 4-term exponential sum and single-term closed form.  Requires
    floor((d-1)/2) <= tau < d <= n <= m.
    """
    q, n, d = params.q, params.n, params.d
    half = (d - 1) // 2
    if not half <= tau < d:
        raise ValueError(f"need floor((d-1)/2) <= tau < d, got tau={tau}, d={d}")
    anticode_sum = 1
    four_sum_total = 0
    for t in range(half + 1, tau + 1):
        anticode_sum += anticode_bound(n, 2 * (d - t), t, q)
        four_sum_total += q ** ((2 * t - d + 1) * (n - t))
    four_sum = 1 + 4 * four_sum_total
    if tau == half:
        closed_form = 1
    else:
        closed_form = 1 + 4 * (tau - half) * q ** ((2 * tau - d + 1) * (n - half - 1))
    values = Bound2Values(anticode_sum, four_sum, closed_form, bound2_iterated_johnson(params, tau))
    if not values.anticode_sum <= values.four_sum <= values.closed_form:
        raise AssertionError(f"tier ordering violated: {values}")
    return values


def bound2_iterated_johnson(params: CodeParams, tau: int) -> int:
    """Upper bound with the iterated Johnson bound in place of the anticode bound.

    Each term is the nested floor product
    floor((q^n - 1)/(q^t - 1) * floor((q^{n-1} - 1)/(q^{t-1} - 1) * ... )).
    """
    q, n, d = params.q, params.n, params.d
    half = (d - 1) // 2
    if not half <= tau < d:
        raise ValueError(f"need floor((d-1)/2) <= tau < d, got tau={tau}, d={d}")
    total = 1
    for t in range(half + 1, tau + 1):
        value = 1
        for j in range(d - t, t + 1):
            value = (q ** (n - t + j) - 1) * value // (q**j - 1)
        total += value
    return total


def bound3_lower(params: CodeParams, tau: int) -> int:
    """Existence lower bound q^{(n-tau)(tau - floor((d-1)/2))}.

    Requires floor((d-1)/2)+1 <= tau < d <= n and tau <= n - tau; realized
    by the constant-rank construction (see codes.crc_theorem8).
    """
    q, n, d = params.q, params.n, params.d
    half = (d - 1) // 2
    if not half + 1 <= tau < d:
        raise ValueError(f"need floor((d-1)/2)+1 <= tau < d, got tau={tau}, d={d}")
    if tau > n - tau:
        raise ValueError(f"need tau <= n - tau, got tau={tau}, n={n}")
    return q ** ((n - tau) * (tau - half))


def bound3_refined(params: CodeParams, tau: int) -> int:
    """Refined lower bound q^{(n-tau)(2 tau - d + 1)}.

    Applies when floor((d-1)/2) < tau < d < n, tau <= n - tau, and either
    tau = d/2 (d even) or m >= (n-tau)(2 tau - d + 1) + tau + 1.
    """
    q, m, n, d = params.q, params.m, params.n, params.d
    half = (d - 1) // 2
    if not half < tau < d < n:
        raise ValueError(f"need floor((d-1)/2) < tau < d < n, got tau={tau}, d={d}, n={n}")
    if tau > n - tau:
        raise ValueError(f"need tau <= n - tau, got tau={tau}, n={n}")
    cond_half = d % 2 == 0 and tau == d // 2
    cond_large_m = m >= (n - tau) * (2 * tau - d + 1) + tau + 1
    if not (cond_half or cond_large_m):
        raise ValueError(
            "refinement needs tau = d/2 or m >= (n-tau)(2tau-d+1)+tau+1 "
            f"(got tau={tau}, d={d}, m={m}, n={n})"
        )
    return q ** ((n - tau) * (2 * tau - d + 1))


def bound3_large_tau(params: CodeParams, tau: int) -> int:
    """Lower bound q^{tau(n - tau - d/2 + 1)} for the regime tau > n - tau (even d)."""
    q, n, d = params.q, params.n, params.d
    half = (d - 1) // 2
    if d % 2 != 0:
        raise ValueError(f"large-tau variant needs even d, got d={d}")
    if not half + 1 <= tau < d:
        raise ValueError(f"need floor((d-1)/2)+1 <= tau < d, got tau={tau}, d={d}")
    if tau <= n - tau:
        raise ValueError(f"large-tau variant needs tau > n - tau, got tau={tau}, n={n}")
    return q ** (tau * (n - tau - d // 2 + 1))


@dataclass(frozen=True)
class Bound3Values:
    standard: int | None
    refined: int | None
    large_tau: int | None


@dataclass(frozen=True)
class BoundsReport:
    """All bound values for one (params, tau) instance; None = precondition unmet."""

    params: CodeParams
    tau: int
    epsilon: Fraction
    singleton: int
    sphere: int
    ball: int
    bound1: Bound1Values
    johnson: JohnsonRadii | None
    bound2: Bound2Values | None
    bound3: Bound3Values
    notes: tuple[tuple[str, str], ...]


def compute_report(params: CodeParams, tau: int, epsilon: Fraction | int = 0) -> BoundsReport:
    """Evaluate every applicable bound at radius tau (requires 0 <= tau < d)."""
    if not 0 <= tau < params.d:
        raise ValueError(f"need 0 <= tau < d, got tau={tau}, d={params.d}")
    notes: list[tuple[str, str]] = []
    bound1 = bound1_lower(params, tau)
    try:
        johnson = johnson_radii(params.m, params.n, params.d, epsilon)
    except ValueError as exc:
        johnson = None
        notes.append(("johnson", str(exc)))
    bound2 = None
    try:
        bound2 = bound2_upper(params, tau)
    except ValueError as exc:
        notes.append(("bound2", str(exc)))
    variants: dict[str, int | None] = {}
    for name, fn in (
        ("standard", bound3_lower),
        ("refined", bound3_refined),
        ("large_tau", bound3_large_tau),
    ):
        try:
            variants[name] = fn(params, tau)
        except ValueError as exc:
            variants[name] = None
            notes.append((f"bound3.{name}", str(exc)))
    bound3 = Bound3Values(**variants)
    if bound2 is not None and bound1.guarantee > bound2.anticode_sum:
        raise AssertionError("lower bound exceeds upper bound; calculator bug")
    return BoundsReport(
        params=params,
        tau=tau,
        epsilon=Fraction(epsilon),
        singleton=singleton_max(params),
        sphere=sphere_volume(params.m, params.n, params.q, tau),
        ball=ball_volume(params.m, params.n, params.q, tau),
        bound1=bound1,
        johnson=johnson,
        bound2=bound2,
        bound3=bound3,
        notes=tuple(notes),
    )


def regions_table(
    delta_grid: Sequence[Fraction | float | str], n: int | None = None
) -> list[dict]:
    """Normalized decoding-radius table over a grid of delta = d/n in (0, 1].

    Columns: delta, the half-distance radius delta/2, and the normalized
    Johnson radius 1 - sqrt(1 - delta).  When n is supplied and delta*n is an
    integer d, exact finite-length columns floor((d-1)/2)/n and
    (n - sqrt(n(n-d)))/n are added.
    """
    if n is not None and n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    rows = []
    for raw in delta_grid:
        delta = Fraction(raw)
        if not 0 <= delta <= 1:
            raise ValueError(f"delta must lie in [0, 1], got {delta}")
        row: dict = {
            "delta": delta,
            "tau_bmd_over_n": Fraction(delta, 2),
            "tau_j_over_n": 1.0 - math.sqrt(float(1 - delta)),
        }
        if n is not None:
            d_exact = delta * n
            if d_exact.denominator == 1:
                d = int(d_exact)
                row["n"] = n
                row["d"] = d
                row["tau_bmd_finite"] = Fraction((d - 1) // 2, n) if d >= 1 else Fraction(0)
                row["tau_j_finite"] = (n - math.sqrt(n * (n - d))) / n
        rows.append(row)
    return rows


# --- JSON helpers: big integers as decimal strings, rationals as "p/q" ---


def _int_str(v: int) -> str:
    return str(v)


def _frac_str(v: Fraction) -> str:
    return f"{v.numerator}/{v.denominator}"


def report_to_jsonable(report: BoundsReport) -> dict:
    p = report.params
    out: dict = {
        "schema": "rankmetric-bounds-report-v1",
        "params": {"q": p.q, "m": p.m, "n": p.n, "d": p.d, "k": p.dimension},
        "tau": report.tau,
        "epsilon": _frac_str(report.epsilon),
        "singleton": _int_str(report.singleton),
        "sphere_volume": _int_str(report.sphere),
        "ball_volume": _int_str(report.ball),
        "bound1": {
            "exact_ratio": _frac_str(report.bound1.exact_ratio),
            "guarantee": _int_str(report.bound1.guarantee),
            "exp_form": _frac_str(report.bound1.exp_form),
            "exp_form_nm": (
                _frac_str(report.bound1.exp_form_nm) if report.bound1.exp_form_nm is not None else None
            ),
        },
        "johnson": None,
        "bound2": None,
        "bound3": {
            "standard": _int_str(report.bound3.standard) if report.bound3.standard is not None else None,
            "refined": _int_str(report.bound3.refined) if report.bound3.refined is not None else None,
            "large_tau": (
                _int_str(report.bound3.large_tau) if report.bound3.large_tau is not None else None
            ),
        },
        "notes": {key: msg for key, msg in report.notes},
    }
    if report.johnson is not None:
        j = report.johnson
        out["johnson"] = {
            "tau_j_star": j.tau_j_star,
            "tau_j_star_int": j.tau_j_star_int,
            "tau_j": j.tau_j,
            "tau_j_int": j.tau_j_int,
            "epsilon": _frac_str(j.epsilon),
        }
    if report.bound2 is not None:
        b2 = report.bound2
        out["bound2"] = {
            "anticode_sum": _int_str(b2.anticode_sum),
            "four_sum": _int_str(b2.four_sum),
            "closed_form": _int_str(b2.closed_form),
            "iterated_johnson": _int_str(b2.iterated_johnson),
        }
    return out
