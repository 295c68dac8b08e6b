#!/usr/bin/env python3
"""End-to-end desk experiment: witnesses vs exhaustive truth for one code.

Builds Gab[n, k] over F_{q^n} (square case), derives the bound values,
constructs both lower-bound witnesses, computes the exact maximum list size
over all received words, and prints how tightly everything sandwiches it.

Example:
    python scripts/list_size_experiment.py --q 2 --n 4 --k 2 --tau 2
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rankmetric.bounds import CodeParams, bound1_lower, bound2_upper
from rankmetric.codes import GabidulinCode
from rankmetric.ff import make_field
from rankmetric.oracle import list_codewords, max_list_size
from rankmetric.witness import bound1_alt_witness, bound1_witness, verify_certificate


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=int, default=2)
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--k", type=int, default=2)
    parser.add_argument("--tau", type=int, default=2)
    args = parser.parse_args()

    fld = make_field(args.q, args.n)
    code = GabidulinCode(fld, n=args.n, k=args.k)
    d = code.d
    params = CodeParams(q=args.q, m=args.n, n=args.n, d=d, k=args.k)
    print(f"code: Gab[{args.n},{args.k}] over F_{args.q}^{args.n}, |C| = {code.cardinality}, d = {d}")

    b1 = bound1_lower(params, args.tau)
    print(f"lower bound (pigeonhole): {b1.guarantee}  (exact ratio {b1.exact_ratio})")

    cert = bound1_witness(code, args.tau)
    ok, _ = verify_certificate(cert)
    print(f"witness list: {cert.total_size} codewords at distance exactly {args.tau} (verified: {ok})")
    scan = list_codewords(code, cert.received_word, args.tau)
    print(f"full rescan at the witness word: {scan.size} in the ball, counts {scan.sphere_counts}")

    alt = bound1_alt_witness(params, args.tau)
    print(f"coset witness: best translate holds {alt.total_size} (claimed {alt.claimed_size})")

    b2 = bound2_upper(params, args.tau)
    print(f"upper bound tiers: {b2.anticode_sum} <= {b2.four_sum} <= {b2.closed_form}")

    start = time.perf_counter()
    result = max_list_size(code, args.tau)
    elapsed = time.perf_counter() - start
    print(f"exhaustive maximum over {result.scanned} words: ell = {result.ell}  ({elapsed:.1f}s)")
    print(f"argmax word: {result.word}")
    print(f"sandwich: {max(cert.total_size, alt.total_size)} <= ell = {result.ell} <= {b2.anticode_sum}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
