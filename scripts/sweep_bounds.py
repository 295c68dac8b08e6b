#!/usr/bin/env python3
"""Sweep the decoding radius and tabulate every bound side by side.

Example:
    python scripts/sweep_bounds.py --q 2 --m 6 --n 6 --d 3
    python scripts/sweep_bounds.py --q 2 --m 4 --n 4 --d 3 --oracle
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankmetric.bounds import CodeParams, compute_report
from rankmetric.codes import GabidulinCode
from rankmetric.ff import make_field
from rankmetric.oracle import max_list_size


def fmt(value, width=14):
    text = "-" if value is None else str(value)
    return text.rjust(width)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--oracle", action="store_true", help="also run the exhaustive scan (desk scale only)")
    args = parser.parse_args()

    params = CodeParams(q=args.q, m=args.m, n=args.n, d=args.d)
    header = ["tau", "lower1(exact)", "lower3", "upper2(anticode)", "upper2(iter)"]
    if args.oracle:
        header.append("oracle ell")
    print("  ".join(h.rjust(14) for h in header))
    code = None
    if args.oracle:
        code = GabidulinCode(make_field(args.q, args.m), n=args.n, k=params.dimension)
    for tau in range(args.d):
        report = compute_report(params, tau)
        row = [
            fmt(tau, 14),
            fmt(report.bound1.guarantee),
            fmt(report.bound3.standard),
            fmt(report.bound2.anticode_sum if report.bound2 else None),
            fmt(report.bound2.iterated_johnson if report.bound2 else None),
        ]
        if args.oracle:
            result = max_list_size(code, tau)
            row.append(fmt(result.ell))
        print("  ".join(row))
    j = report.johnson
    if j is not None:
        print(f"\njohnson thresholds: tau_J* = {j.tau_j_star:.4f} (int {j.tau_j_star_int})", end="")
        if j.tau_j is not None:
            print(f", tau_J = {j.tau_j:.4f} (int {j.tau_j_int})")
        else:
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
