"""Command-line frontend.

Subcommands:

  report MODEL   extract S/eta, classify, canonical parameters, harmonicity,
                 Laplacian cross-check; --at T adds the exact class flags at
                 a specific rational parameter value
  verify         run the acceptance suite; one PASS/FAIL line per check
  scan MODEL     numeric harmonicity-residual norms over a t grid (oracle)
  dump MODEL     emit the model as a canonical JSON model file

MODEL is a built-in name (cp3, spin4, aw11) or a path to a JSON model file.
Structured output is byte-deterministic (sorted keys, canonical scalar
strings).  Exit codes: 0 success, 1 verification failure, 2 input error,
3 internal invariant breach or any other internal error (one line on
stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .scalars import format_scalar, IrrationalRoots, vanishes_at
from .coeffexpr import ParseError, parse_fraction
from .gstruct import InternalInvariantError
from .homogeneous import (BUILTIN_MODELS, ModelAnalysis, ModelError,
                          load_model)


def _fraction(text):
    try:
        return parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_fraction(text):
    t = _fraction(text)
    if t <= 0:
        raise argparse.ArgumentTypeError(f"t must be positive: {text!r}")
    return t


@cache
def build_parser():
    """The argument parser, built once per process (parsing leaves it
    unchanged)."""
    p = argparse.ArgumentParser(
        prog="spinharm",
        description="Exact spinorial analysis of SU(3)/G2-structures "
                    "on parametrized homogeneous models.")
    sub = p.add_subparsers(dest="command", required=True)

    rp = sub.add_parser("report", help="full exact report for one model")
    rp.add_argument("model", help="built-in name (%s) or model file path"
                                  % ", ".join(BUILTIN_MODELS))
    rp.add_argument("--at", type=_positive_fraction, metavar="T",
                    help="also classify exactly at this rational t > 0")
    rp.add_argument("--format", choices=("text", "structured"),
                    default="text")
    rp.add_argument("--include-negative-roots", action="store_true",
                    help="report root sets without the t > 0 restriction")

    vp = sub.add_parser("verify", help="run the acceptance suite")
    vp.add_argument("--format", choices=("text", "structured"),
                    default="text")
    vp.add_argument("--trials", type=int, default=100,
                    help="random instances per property check (positive)")

    sp = sub.add_parser("scan", help="numeric residual scan over a t range")
    sp.add_argument("model")
    sp.add_argument("--min", type=_fraction, required=True, dest="t_min")
    sp.add_argument("--max", type=_fraction, required=True, dest="t_max")
    sp.add_argument("--steps", type=int, default=100,
                    help="grid intervals (steps+1 sample points)")
    sp.add_argument("--format", choices=("text", "structured"),
                    default="text")

    dp = sub.add_parser("dump", help="emit a model as a JSON model file")
    dp.add_argument("model")
    return p


def _matrix_strings(m, var="u"):
    return [[format_scalar(e, var) for e in row] for row in m.data]


def _report_data(args):
    model = load_model(args.model)
    an = ModelAnalysis(model)
    positive = not args.include_negative_roots
    # rational-parameter models read better in t; u otherwise
    var = "t" if model.substitution.u_squared_per_t is None else "u"
    s, eta = an.extract_S_eta()
    classes = an.classify()
    data = {
        "model": model.name,
        "n": model.n,
        "substitution": model.substitution.label,
        "S": _matrix_strings(s, var),
        "eta": [format_scalar(e, var) for e in eta],
        "classes": {
            "flags": sorted(classes.flags()),
        },
        "canonical_parameters":
            an.canonical_parameters(positive).to_dict(),
        "harmonicity": an.harmonicity(positive).verdict.to_dict(),
    }
    cross = an.laplacian_cross_check(positive)
    data["cross_check"] = {
        "verdict": cross.verdict.to_dict(),
        "residual_identically_zero": all(c.is_zero for c in cross.residual),
    }
    if model.n == 6:
        data["classes"]["mu_W1minus"] = format_scalar(classes.mu, var)
        data["classes"]["lambda_W1plus"] = format_scalar(classes.lam, var)
        data["classes"]["eta_W5"] = [format_scalar(e, var)
                                     for e in classes.eta]
    else:
        data["classes"]["lambda_W1"] = format_scalar(classes.lam, var)
        data["classes"]["W4_vector"] = [format_scalar(c, var)
                                        for c in classes.v]
    if args.format == "structured":   # text output never prints them
        data["classes"]["components"] = {
            label: _matrix_strings(mat, var)
            for label, mat in sorted(classes.components.items())
        }
    if args.at is not None:
        site = _pole_site(model, args.at)
        if site:
            raise ValueError(f"t = {args.at} is a pole of the model's "
                             f"coefficients ({site})")
        flags = classes.flags_at(model.substitution, args.at)
        data["at"] = {"t": str(args.at), "flags": sorted(flags)}
    return data


def _pole_site(model, t0):
    """'slot k, entry (i, j)' naming the first Lambda coefficient whose
    denominator vanishes at t0, or '' if none does.  Every class
    coordinate is reduced over a power of Lambda's common denominator, so
    none has a pole where Lambda has none."""
    c, root = model.substitution.u_value(t0)
    for k, slot in enumerate(model.lam, 1):
        for (i, j), coeff in sorted(slot.terms.items()):
            if vanishes_at(coeff.den, c, root):
                return f"slot {k}, entry ({i}, {j})"
    return ""


def _print_report_text(data, out):
    print(f"model {data['model']} (n={data['n']}, "
          f"{data['substitution']})", file=out)
    print("S =", file=out)
    for row in data["S"]:
        print("  [" + ", ".join(row) + "]", file=out)
    print("eta =", data["eta"], file=out)
    cls = data["classes"]
    print("class flags:", " ".join(cls["flags"]) or "(torsion-free)",
          file=out)
    for key in ("mu_W1minus", "lambda_W1plus", "lambda_W1"):
        if key in cls:
            print(f"  {key} = {cls[key]}", file=out)
    print("canonical parameters:", _verdict_text(data["canonical_parameters"]),
          file=out)
    print("harmonicity:", _verdict_text(data["harmonicity"]), file=out)
    cc = data["cross_check"]
    print("cross-check:", _verdict_text(cc["verdict"]),
          "(residual identically zero)" if cc["residual_identically_zero"]
          else "", file=out)
    if "at" in data:
        print(f"at t = {data['at']['t']}: flags",
              " ".join(data["at"]["flags"]), file=out)


def _verdict_text(v):
    if v["kind"] == "ROOT_SET":
        inner = ", ".join(f"{r} (mult {m})" for r, m in v["roots"].items())
        return f"ROOT_SET {{{inner}}}"
    return v["kind"]


def cmd_report(args, out):
    data = _report_data(args)
    if args.format == "structured":
        print(json.dumps(data, sort_keys=True, indent=2), file=out)
    else:
        _print_report_text(data, out)
    return 0


def cmd_verify(args, out):
    from . import verify   # imported here, like numeric in cmd_scan
    results = verify.run_all(trials=args.trials)
    if args.format == "structured":
        payload = [{"name": r.name, "ok": r.ok, "detail": r.detail}
                   for r in results]
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        for r in results:
            print(r.line(), file=out)
        failed = [r.name for r in results if not r.ok]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed",
              file=out)
        if failed:
            print("failing:", ", ".join(failed), file=out)
    return 0 if all(r.ok for r in results) else 1


def cmd_scan(args, out):
    from . import numeric   # numpy: report and dump never import it
    model = load_model(args.model)
    rows = numeric.scan(model, args.t_min, args.t_max, args.steps)
    if args.format == "structured":
        payload = [{"t": str(t),
                    "residual": None if r is None else r,
                    "pole": r is None}
                   for (t, r) in rows]
        print(json.dumps(payload, sort_keys=True, indent=2), file=out)
    else:
        for (t, r) in rows:
            if r is None:
                print(f"{float(t):12.6f}  pole", file=out)
            else:
                print(f"{float(t):12.6f}  {r:.3e}", file=out)
    return 0


def cmd_dump(args, out):
    model = load_model(args.model)
    out.write(model.dumps())
    return 0


def main(argv=None, out=None):
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"report": cmd_report, "verify": cmd_verify,
               "scan": cmd_scan, "dump": cmd_dump}[args.command]
    try:
        return handler(args, out)
    except (ModelError, ParseError, IrrationalRoots, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
