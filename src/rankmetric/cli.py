"""Command-line frontend.

Subcommands: ``bounds``, ``witness bound1|alt|bound3``, ``oracle list|max``,
``construct cdc|cdc-odd|crc|crc-theorem8``, ``regions``, ``verify``.

Exit codes: 0 success, 1 usage error, 2 precondition violation,
3 verification failure.  Reports are UTF-8 JSON or RFC-4180 CSV with a
versioned header; big integers are serialized as decimal strings.  JSON is
written by ``ff.json_text``, byte for byte the layout of ``json.dumps`` with
sorted keys and an indent of 2.
Identical arguments (and seed) produce byte-identical reports, except for
the ``elapsed_ms`` field of ``oracle``.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction

from . import acceptance, bounds, codes, oracle, witness
from .ff import Words, json_text, make_field

CSV_SCHEMA_BOUNDS = "rankmetric-bounds-csv-v1"
CSV_SCHEMA_REGIONS = "rankmetric-regions-csv-v1"
REGIONS_GRID_LIMIT = 10**6  # grid points of ``regions``, counted as floor(1/step) before any row is built


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _rational(text: str, option: str) -> Fraction:
    """``text`` as a Fraction; a malformed one or a zero denominator raises ValueError naming ``option``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} must be a rational number such as 0.05 or 1/20, got {text!r}") from None


def _json_input(option: str, text: str | None = None, path: str | None = None):
    """The JSON document ``text``, or the UTF-8 file at ``path``; a syntax or
    encoding error raises ValueError, a file that cannot be read OSError,
    each naming ``option`` and the path."""
    source = option if path is None else f"{option} {path!r}"
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{source}: {exc}") from None
    except OSError as exc:
        raise OSError(f"{source}: {exc}") from None


# --- bounds -----------------------------------------------------------------


def _check_writable(params: bounds.CodeParams, tau: int) -> None:
    """Refuse a report whose singleton q^{m(n-d+1)}, or whose sphere and ball
    volumes (at least q^{tau(m+n-tau-1)}), have more decimal digits than
    ``sys.get_int_max_str_digits()`` lets the writer print (0: no limit),
    before any of it is computed."""
    q, m, n, d = params.q, params.m, params.n, params.d
    limit = sys.get_int_max_str_digits()
    for name, relation, e in (("singleton", "=", m * (n - d + 1)), ("ball_volume", ">=", tau * (m + n - tau - 1))):
        x = e * math.log10(q)  # the digits of q^e, exact near the limit
        if limit and (x > limit + 1 or (x > limit - 1 and q**e >= 10**limit)):
            raise ValueError(
                f"{name} {relation} {q}^{e} has more decimal digits than the limit of {limit} "
                "(sys.get_int_max_str_digits())"
            )


def _check_fractions(report: bounds.BoundsReport) -> None:
    """Refuse a report with a fraction whose numerator or denominator has
    more decimal digits than ``sys.get_int_max_str_digits()`` lets the writer
    print (0: no limit), as ``_check_writable`` refuses integers; the
    fractions are known only once the report is computed.  johnson.epsilon,
    when written, is epsilon."""
    limit, b1 = sys.get_int_max_str_digits(), report.bound1
    fractions = {
        "epsilon": report.epsilon,
        "bound1.exact_ratio": b1.exact_ratio,
        "bound1.exp_form": b1.exp_form,
        "bound1.exp_form_nm": b1.exp_form_nm,
    }
    for name, value in fractions.items():
        for part in ("numerator", "denominator"):
            x = abs(getattr(value, part, 0))
            # None reads as 0; below 2^(3 limit) < 10^limit no power of 10 is built
            if limit and x.bit_length() > 3 * limit and x >= 10**limit:
                raise ValueError(
                    f"the {part} of {name} has more decimal digits than the limit of {limit} "
                    "(sys.get_int_max_str_digits())"
                )


def _cmd_bounds(args) -> int:
    params = bounds.CodeParams(q=args.q, m=args.m, n=args.n, d=args.d, k=args.k)
    epsilon = _rational(args.epsilon, "--epsilon")
    if 0 <= args.tau < params.d:  # else compute_report refuses tau
        _check_writable(params, args.tau)
    report = bounds.compute_report(params, args.tau, epsilon)
    _check_fractions(report)
    doc = bounds.report_to_jsonable(report)
    if args.format == "json":
        _emit(json_text(doc), args.out)
    else:
        _emit(_bounds_csv(doc), args.out)
    return 0


_BOUNDS_CSV_COLUMNS = [
    "q", "m", "n", "d", "k", "tau", "epsilon", "singleton", "sphere_volume",
    "ball_volume", "bound1_exact_ratio", "bound1_guarantee", "bound1_exp_form",
    "bound1_exp_form_nm", "tau_j_star", "tau_j_star_int", "tau_j", "tau_j_int",
    "bound2_anticode_sum", "bound2_four_sum", "bound2_closed_form",
    "bound2_iterated_johnson", "bound3_standard", "bound3_refined",
    "bound3_large_tau",
]


def _bounds_csv(doc: dict) -> str:
    import csv

    # report and params fields keep their names, the bound sections are prefixed
    flat = {**(doc.get("johnson") or {}), **doc["params"], **doc}
    for section in ("bound1", "bound2", "bound3"):
        flat.update({f"{section}_{key}": v for key, v in (doc.get(section) or {}).items()})
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([CSV_SCHEMA_BOUNDS])
    writer.writerow(_BOUNDS_CSV_COLUMNS)
    writer.writerow(["" if flat.get(c) is None else flat[c] for c in _BOUNDS_CSV_COLUMNS])
    return buf.getvalue()


# --- witness ----------------------------------------------------------------


def _cmd_witness(args) -> int:
    if args.variant == "bound1":
        fld = make_field(args.q, args.n)
        code = codes.GabidulinCode(fld, n=args.n, k=args.k)
        cert = witness.bound1_witness(code, args.tau)
    elif args.variant == "alt":
        params = bounds.CodeParams(q=args.q, m=args.n, n=args.n, d=args.d)
        cert = witness.bound1_alt_witness(params, args.tau)
    else:
        cert = witness.bound3_witness(
            n=args.n, m=args.m, tau=args.tau, d=args.d, q=args.q, translate=args.translate
        )
    ok, checks = witness.verify_certificate(cert)
    doc = cert._document(Words(cert.field, cert.codewords))
    doc["verified"] = ok
    doc["checks"] = checks
    _emit(json_text(doc), args.out)
    return 0 if ok else 3


# --- oracle -----------------------------------------------------------------


def _load_received(args, fld) -> tuple[int, ...]:
    if args.received_file:
        doc = _json_input("--received-file", path=args.received_file)
    elif args.received:
        doc = _json_input("--received", text=args.received)
    else:
        raise ValueError("provide --received or --received-file")
    return fld.word_from_jsonable(doc, "received word")


def _cmd_oracle(args) -> int:
    fld = make_field(args.q, args.m)
    code = codes.GabidulinCode(fld, n=args.n, k=args.k)
    start = time.perf_counter()
    if args.action == "list":
        received = _load_received(args, fld)
        result = oracle.list_codewords(code, received, args.tau)
        elapsed = int((time.perf_counter() - start) * 1000)
        doc = {
            "received_word": fld.word_to_jsonable(result.received_word),
            "tau": result.tau,
            "size": result.size,
            "sphere_counts": list(result.sphere_counts),
            "codewords": Words(fld, result.codewords),
            "elapsed_ms": elapsed,
        }
    else:
        if args.mode == "random":
            result = oracle.sampled_max_list_size(code, args.tau, args.trials, args.seed, args.guard)
        else:
            result = oracle.max_list_size(code, args.tau)
        elapsed = int((time.perf_counter() - start) * 1000)
        doc = {
            "ell": result.ell,
            "argmax_word": fld.word_to_jsonable(result.word),
            "mode": args.mode,
            "scanned": result.scanned,
            "exhaustive": result.exhaustive,
            "elapsed_ms": elapsed,
        }
    _emit(json_text(doc), args.out)
    return 0


# --- construct ----------------------------------------------------------------


def _cmd_construct(args) -> int:
    if args.family == "cdc":
        text = json_text(codes.lifted_mrd_cdc(args.n, args.tau, args.d, args.q).to_jsonable())
    elif args.family == "cdc-odd":
        text = json_text(codes.lifted_mrd_cdc_odd(args.ambient, args.tau, args.d, args.variant, args.q).to_jsonable())
    elif args.family == "crc":
        M = codes.ConstantDimensionCode.from_jsonable(_json_input("--m-file", path=args.m_file))
        N = codes.ConstantDimensionCode.from_jsonable(_json_input("--n-file", path=args.n_file))
        fld = make_field(M.q, M.ambient)
        text = codes.crc_from_cdc_pair(M, N, fld).to_json()
    else:
        text = codes.crc_theorem8(args.n, args.m, args.tau, args.d, args.q).to_json()
    _emit(text, args.out)
    return 0


# --- regions ------------------------------------------------------------------


def _cmd_regions(args) -> int:
    import csv

    step = _rational(args.grid, "--grid")
    if not 0 < step <= 1:
        raise ValueError(f"grid step must lie in (0, 1], got {step}")
    points = 1 // step
    if points > REGIONS_GRID_LIMIT:
        raise ValueError(f"grid step {step} gives {points} points, above the limit of {REGIONS_GRID_LIMIT}")
    rows = bounds.regions_table([k * step for k in range(1, points + 1)], n=args.n)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow([CSV_SCHEMA_REGIONS])
    finite = args.n is not None
    header = ["delta", "tau_bmd_over_n", "tau_j_over_n"]
    if finite:
        header += ["n", "d", "tau_bmd_finite", "tau_j_finite"]
    writer.writerow(header)
    for row in rows:
        record = [str(row["delta"]), str(row["tau_bmd_over_n"]), repr(row["tau_j_over_n"])]
        if finite:
            record += [
                row.get("n", ""),
                row.get("d", ""),
                str(row["tau_bmd_finite"]) if "tau_bmd_finite" in row else "",
                repr(row["tau_j_finite"]) if "tau_j_finite" in row else "",
            ]
        writer.writerow(record)
    _emit(buf.getvalue(), args.out)
    return 0


# --- verify -------------------------------------------------------------------


def _cmd_verify(args) -> int:
    selected = None
    if args.criteria:
        try:
            selected = {int(x) for x in args.criteria.split(",")}
        except ValueError:
            raise ValueError(f"--criteria takes comma-separated ids such as 1,2,8, got {args.criteria!r}") from None
        known = [cid for cid, _, _ in acceptance.CRITERIA]
        if unknown := sorted(selected.difference(known)):
            raise ValueError(f"unknown criterion id {', '.join(map(str, unknown))}; valid ids are 1..{known[-1]}")
    rows = acceptance.run_all(selected)
    failures = 0
    for cid, desc, passed, detail in rows:
        status = "PASS" if passed else "FAIL"
        print(f"{status} criterion {cid}: {desc} :: {detail}")
        if not passed:
            failures += 1
    print(f"{len(rows) - failures}/{len(rows)} criteria passed")
    return 0 if failures == 0 else 3


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="evaluate every applicable list-size bound")
    p_bounds.add_argument("--q", type=int, required=True)
    p_bounds.add_argument("--m", type=int, required=True)
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--d", type=int, required=True)
    p_bounds.add_argument("--k", type=int, default=None)
    p_bounds.add_argument("--tau", type=int, required=True)
    p_bounds.add_argument("--epsilon", type=str, default="0", help="rational in [0,1), e.g. 1/10")
    p_bounds.add_argument("--format", choices=("json", "csv"), default="json")
    p_bounds.add_argument("--out", type=str, default=None)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_witness = sub.add_parser("witness", help="emit a machine-checkable lower-bound certificate")
    wsub = p_witness.add_subparsers(dest="variant", required=True)
    w1 = wsub.add_parser("bound1", help="subspace-polynomial pigeonhole witness (n = m)")
    w1.add_argument("--q", type=int, required=True)
    w1.add_argument("--n", type=int, required=True)
    w1.add_argument("--k", type=int, required=True)
    w1.add_argument("--tau", type=int, required=True)
    w1.add_argument("--out", type=str, default=None)
    w1.set_defaults(func=_cmd_witness)
    walt = wsub.add_parser("alt", help="coset witness over a direct-sum code, from subspace polynomials (n = m)")
    walt.add_argument("--q", type=int, required=True)
    walt.add_argument("--n", type=int, required=True)
    walt.add_argument("--d", type=int, required=True)
    walt.add_argument("--tau", type=int, required=True)
    walt.add_argument("--out", type=str, default=None)
    walt.set_defaults(func=_cmd_witness)
    w3 = wsub.add_parser("bound3", help="constant-rank existence witness")
    w3.add_argument("--q", type=int, required=True)
    w3.add_argument("--m", type=int, required=True)
    w3.add_argument("--n", type=int, required=True)
    w3.add_argument("--d", type=int, required=True)
    w3.add_argument("--tau", type=int, required=True)
    w3.add_argument("--translate", type=int, default=None)
    w3.add_argument("--out", type=str, default=None)
    w3.set_defaults(func=_cmd_witness)

    p_oracle = sub.add_parser("oracle", help="exact brute-force list sizes for Gabidulin codes")
    osub = p_oracle.add_subparsers(dest="action", required=True)
    olist = osub.add_parser("list", help="decoding list around one received word")
    omax = osub.add_parser("max", help="maximum list size over received words")
    for p in (olist, omax):
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--tau", type=int, required=True)
        p.add_argument("--out", type=str, default=None)
        p.set_defaults(func=_cmd_oracle)
    olist.add_argument("--received", type=str, default=None, help="JSON list of coordinate lists")
    olist.add_argument("--received-file", type=str, default=None)
    omax.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    omax.add_argument("--trials", type=int, default=None)
    omax.add_argument("--seed", type=int, default=None)
    omax.add_argument("--jobs", type=int, default=1, help="no effect; accepted so older command lines run")
    omax.add_argument(
        "--guard",
        type=int,
        default=None,
        help="random mode only: the limit on trials times codewords (default 2^28)",
    )

    p_con = sub.add_parser("construct", help="build constant-dimension / constant-rank codes")
    csub = p_con.add_subparsers(dest="family", required=True)
    ccdc = csub.add_parser("cdc", help="lifted MRD constant-dimension code (even distance)")
    ccdc.add_argument("--q", type=int, required=True)
    ccdc.add_argument("--n", type=int, required=True)
    ccdc.add_argument("--tau", type=int, required=True)
    ccdc.add_argument("--d", type=int, required=True)
    ccdc.add_argument("--out", type=str, default=None)
    ccdc.set_defaults(func=_cmd_construct)
    codd = csub.add_parser("cdc-odd", help="lifted MRD constant-dimension code (odd target distance)")
    codd.add_argument("--q", type=int, required=True)
    codd.add_argument("--ambient", type=int, required=True)
    codd.add_argument("--tau", type=int, required=True)
    codd.add_argument("--d", type=int, required=True)
    codd.add_argument("--variant", choices=("minus", "plus"), required=True)
    codd.add_argument("--out", type=str, default=None)
    codd.set_defaults(func=_cmd_construct)
    ccrc = csub.add_parser("crc", help="constant-rank code from two CDC JSON files")
    ccrc.add_argument("--m-file", type=str, required=True)
    ccrc.add_argument("--n-file", type=str, required=True)
    ccrc.add_argument("--out", type=str, default=None)
    ccrc.set_defaults(func=_cmd_construct)
    ct8 = csub.add_parser("crc-theorem8", help="constant-rank code realizing the existence bound")
    ct8.add_argument("--q", type=int, required=True)
    ct8.add_argument("--m", type=int, required=True)
    ct8.add_argument("--n", type=int, required=True)
    ct8.add_argument("--d", type=int, required=True)
    ct8.add_argument("--tau", type=int, required=True)
    ct8.add_argument("--out", type=str, default=None)
    ct8.set_defaults(func=_cmd_construct)

    p_regions = sub.add_parser("regions", help="normalized decoding-radius table (CSV)")
    p_regions.add_argument("--grid", type=str, default="0.05", help="grid step, e.g. 0.05 or 1/20")
    p_regions.add_argument("--n", type=int, default=None, help="also emit exact finite-length columns")
    p_regions.add_argument("--out", type=str, default=None)
    p_regions.set_defaults(func=_cmd_regions)

    p_verify = sub.add_parser("verify", help="run the acceptance checks")
    p_verify.add_argument("--criteria", type=str, default=None, help="comma-separated ids, e.g. 1,2,8")
    p_verify.set_defaults(func=_cmd_verify)

    return parser


@functools.lru_cache(maxsize=None)
def _shared_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses: building one costs far more than a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _shared_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
