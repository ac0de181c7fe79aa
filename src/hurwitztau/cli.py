"""Command-line front end.

Subcommands:

  analyze <file> [--json] [--strict]        full report for one covering
  check   <file> [--tol] [--seed]           identity suite, one line each
  sweep   <file> --param PATH --to RE,IM --steps N [--json]   ratio constancy
  example <name> [--out FILE] [--seed]     emit a built-in covering spec

``check`` takes its gradient identities from exact lambda derivatives of one
analysis (implicit differentiation at the critical points), so it has no
step size to choose.  Its cross-route sweep and ``sweep`` walk their segment
alike: one critical-data round continued along the exact tangent.  The
commands do not ask for the genus: the report calls the genus module
``(cover0, cover1)[cov.genus]`` through the names both define.

Covering spec files are JSON; complex numbers are two-element [re, im]
arrays throughout.  Exit codes: 0 ok, 1 failed identity, 2 parse error
(an unreadable spec, one with a non-finite number or nesting deeper than
the recursion limit included; a ``--tol`` that is not positive and finite;
a negative ``--seed``; an ``example --out`` path that cannot be written; or
a ``sweep`` path that is not in the covering's parameter table, a target
that is not two finite numbers or fewer than 2 steps),
3 boundary point (a spec on the boundary is rejected when it is loaded, by
every command; ``analyze`` and ``check`` also reject critical data too near
a pole to verify, the model's ``reject_ill_conditioned``), 4 caustic under
--strict, 5 sweep left the moduli space,
6 numerical failure (any other ``HurwitzError``, such as coincident
critical points or a route B that vanishes, or a floating-point overflow),
each with a one-line message on stderr.  A reader that closes the output
pipe early (``| head``) ends the command quietly with 0.  JSON output is
strict: a smallest gap that does not exist (M = 1) is null.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import os
import sys

import numpy as np

from . import cover0, cover1, isomon
from .cover0 import Covering0, Pole
from .cover1 import Covering1
from .elliptic import Modulus
from .errors import CausticWarning, CommonRootError, HurwitzError, OnBoundaryError
from .samples import builtin_example

EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_BOUNDARY = 3
EXIT_CAUSTIC = 4
EXIT_SWEEP = 5
EXIT_NUMERICAL = 6


def _c2pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _pair2c(v, where: str) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError(f"{where}: complex values are [re, im] pairs, got {v!r}")
    z = complex(float(v[0]), float(v[1]))
    if not cmath.isfinite(z):  # json reads NaN and Infinity
        raise ValueError(f"{where}: complex values are finite, got {v!r}")
    return z


def covering_to_spec(cov: Covering0 | Covering1) -> dict:
    poles = [{"b": _c2pair(p.b), "c": [_c2pair(v) for v in p.c]} for p in cov.poles]
    if isinstance(cov, Covering0):
        return {
            "genus": 0,
            "profile": list(cov.profile),
            "poly_coeffs": [_c2pair(a) for a in cov.poly_coeffs],
            "poles": poles,
        }
    return {
        "genus": 1,
        "profile": list(cov.profile),
        "modulus": _c2pair(cov.modulus.sigma),
        "constant": _c2pair(cov.constant),
        "poles": poles,
    }


def spec_to_covering(doc: dict) -> Covering0 | Covering1:
    if not isinstance(doc, dict):
        raise ValueError(f"a covering spec is a JSON object, got {type(doc).__name__}")
    genus = doc.get("genus")
    profile = tuple(int(k) for k in doc.get("profile", ()))
    poles = tuple(
        Pole(
            _pair2c(p["b"], f"poles[{i}].b"),
            tuple(_pair2c(v, f"poles[{i}].c[{a}]") for a, v in enumerate(p["c"])),
        )
        for i, p in enumerate(doc.get("poles", ()))
    )
    if genus == 0:
        coeffs = tuple(
            _pair2c(v, f"poly_coeffs[{r}]") for r, v in enumerate(doc.get("poly_coeffs", ()))
        )
        return cover0.reject_near_s2(Covering0(profile, coeffs, poles))
    if genus == 1:
        if profile != (orders := tuple(p.order for p in poles)):
            raise ValueError(f"profile {list(profile)} is not the pole orders {list(orders)}")
        mod = Modulus(_pair2c(doc["modulus"], "modulus"))
        return Covering1(mod, _pair2c(doc["constant"], "constant"), poles)
    raise ValueError(f"genus must be 0 or 1, got {genus!r}")


def load_covering(path: str) -> Covering0 | Covering1:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return spec_to_covering(doc)


def _load_or_exit(path: str) -> Covering0 | Covering1 | int:
    """The covering in ``path``, or the exit code after reporting why it is unreadable.

    A spec on the boundary raises ``OnBoundaryError``, which ``main`` reports.
    """
    try:
        return load_covering(path)
    except json.JSONDecodeError as exc:
        return _parse_error(f"parse error: {exc.msg} at line {exc.lineno}, column {exc.colno}")
    except (ValueError, KeyError, TypeError, OSError, RecursionError) as exc:
        return _parse_error(f"invalid covering spec: {exc}")


def _parse_error(message: str) -> int:
    """EXIT_PARSE, after ``message`` on stderr."""
    print(message, file=sys.stderr)
    return EXIT_PARSE


# --------------------------------------------------------------------------
# analyze


def _pairs(v) -> list:
    return [_c2pair(x) for x in v] if isinstance(v, tuple) else _c2pair(v)


def build_report(cov: Covering0 | Covering1) -> dict:
    """Assemble the full analysis report, annotating verification status."""
    model = (cover0, cover1)[cov.genus]
    an = isomon.analyze(cov)
    cd = an.critical
    model.reject_ill_conditioned(cov, an.pts)
    iso = isomon.build_isomonodromy(cov, an)
    (tb,) = model.tau_resultant([cov], [cd])
    # every flat coordinate but h_s, the root that t_s is built from
    fc = cd.flat
    flat = {name: _pairs(v) for name, v in vars(fc).items() if name != "h"}
    ta = an.tau

    h1 = np.array(iso.hamiltonians)
    h2 = np.array(iso.hamiltonians_bergmann)
    h_disc = isomon._rel_error(h1 - h2, h1)
    ratio = isomon.route_ratio(ta, tb)
    # G and log(tau / J^(1/24)) differ by -(1/24) sum (k_s+1) log(t_s / h_s)
    cross_const = -sum((k + 1) * cmath.log(t / h) for k, t, h in zip(an.ks, fc.t, fc.h)) / 24.0
    g_cross_err = abs(ta.G - ta.g_from_jacobian - cross_const)

    order = np.argsort([(v.real, v.imag) for v in an.lam], axis=0)[:, 0]
    report = {
        "genus": cov.genus,
        "profile": list(cov.profile),
        "dim": cov.dim,
        "canonical": {
            "lambda": [_c2pair(an.lam[i]) for i in order],
            "points": [_c2pair(an.pts[i]) for i in order],
            "status": "checked" if len(an.lam) == cov.dim else "warned",
        },
        "flat": {**flat, "status": "unchecked"},
        "frame": {
            "fsq": [_c2pair(an.fsq[i]) for i in order],
            "sb": [_c2pair(an.sb[i]) for i in order],
            "sw": [_c2pair(an.sw[i]) for i in order],
            "status": "unchecked",
        },
        "hamiltonians": {
            "quadratic": [_c2pair(h1[i]) for i in order],
            "connection": [_c2pair(h2[i]) for i in order],
            "max_discrepancy": h_disc,
            "status": "checked" if h_disc < 1e-6 else "warned",
        },
        "tau": {
            "log_tau_product": _c2pair(ta.log_tau),
            "tau_inv48_product": _c2pair(ta.tau_inv48),
            "tau_inv48_resultant": _c2pair(tb.tau_inv48),
            "route_ratio": _c2pair(ratio),
            "status": "checked",
        },
        "g_function": {
            "g": _c2pair(ta.G),
            "gamma": _c2pair(an.gamma),
            "g_from_jacobian": _c2pair(ta.g_from_jacobian),
            "status": "checked" if g_cross_err < 1e-9 else "warned",
        },
        "caustic": {
            "min_lambda_gap": _gap(cd.min_lambda_gap),
            "min_point_gap": _gap(cd.min_point_gap),
            "warned": bool(cd.caustic),
            "status": "warned" if cd.caustic else "checked",
        },
    }
    return report


def _gap(value: float) -> float | None:
    """A smallest gap for the report: None (JSON null) where there is no pair (M = 1)."""
    return None if math.isinf(value) else value


def _fmt_c(pair: list[float]) -> str:
    return f"{pair[0]:+.12g}{pair[1]:+.12g}i"


def _print_report(rep: dict) -> None:
    print(f"genus {rep['genus']}  profile {tuple(rep['profile'])}  dim M = {rep['dim']}")
    print(f"[{rep['canonical']['status']}] canonical coordinates")
    for lam, pt in zip(rep["canonical"]["lambda"], rep["canonical"]["points"]):
        print(f"   lambda = {_fmt_c(lam):<36s} at point {_fmt_c(pt)}")
    print(f"[{rep['flat']['status']}] flat coordinates")
    for name, values in rep["flat"].items():
        if name != "status":
            # one [re, im] pair (t0) or a list of them
            for v in [values] if values and isinstance(values[0], float) else values:
                print(f"   {name:2s} = {_fmt_c(v)}")
    print(f"[{rep['frame']['status']}] frame data (fsq, sb)")
    for f2, sb in zip(rep["frame"]["fsq"], rep["frame"]["sb"]):
        print(f"   fsq = {_fmt_c(f2):<36s} sb = {_fmt_c(sb)}")
    h = rep["hamiltonians"]
    print(f"[{h['status']}] Hamiltonians (two routes, max discrepancy {h['max_discrepancy']:.2e})")
    for a, b in zip(h["quadratic"], h["connection"]):
        print(f"   H = {_fmt_c(a):<36s} | {_fmt_c(b)}")
    t = rep["tau"]
    print(f"[{t['status']}] tau function")
    print(f"   log tau (product route)  = {_fmt_c(t['log_tau_product'])}")
    print(f"   tau^-48 (product route)  = {_fmt_c(t['tau_inv48_product'])}")
    print(f"   tau^-48 (resultant route)= {_fmt_c(t['tau_inv48_resultant'])}")
    print(f"   route ratio              = {_fmt_c(t['route_ratio'])}")
    g = rep["g_function"]
    print(f"[{g['status']}] G-function")
    print(f"   G     = {_fmt_c(g['g'])}")
    print(f"   gamma = {_fmt_c(g['gamma'])}")
    c = rep["caustic"]
    gaps = ["none" if c[k] is None else f"{c[k]:.6g}" for k in ("min_lambda_gap", "min_point_gap")]
    print(f"[{c['status']}] caustic diagnostics: min |lambda_i - lambda_j| = {gaps[0]}, "
          f"min point gap = {gaps[1]}" + ("  ** near caustic **" if c["warned"] else ""))


def cmd_analyze(args: argparse.Namespace) -> int:
    cov = _load_or_exit(args.file)
    if isinstance(cov, int):
        return cov
    rep = build_report(cov)
    if args.strict and rep["caustic"]["warned"]:
        print("caustic proximity escalated by --strict", file=sys.stderr)
        return EXIT_CAUSTIC
    if args.json:
        print(json.dumps(rep, indent=2, allow_nan=False))
    else:
        _print_report(rep)
    return 0


# --------------------------------------------------------------------------
# check


def cmd_check(args: argparse.Namespace) -> int:
    if args.tol is not None and not 0.0 < args.tol < math.inf:
        return _parse_error(f"--tol must be positive and finite, got {args.tol}")
    if args.seed < 0:
        return _parse_error(f"--seed must be >= 0, got {args.seed}")
    cov = _load_or_exit(args.file)
    if isinstance(cov, int):
        return cov
    checks = isomon.identity_report(cov, tol=args.tol, seed=args.seed)
    failed = 0
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        failed += not c.passed
        print(f"{status}  {c.name:26s} error {c.error:10.3e}  tol {c.tol:8.1e}  {c.detail}")
    print(f"{len(checks) - failed}/{len(checks)} identities passed")
    return EXIT_CHECK_FAILED if failed else 0


# --------------------------------------------------------------------------
# sweep


def cmd_sweep(args: argparse.Namespace) -> int:
    cov = _load_or_exit(args.file)
    if isinstance(cov, int):
        return cov
    try:
        target = complex(*(float(x) for x in args.to.split(",")))
        if not cmath.isfinite(target):
            raise ValueError
    except (TypeError, ValueError):
        return _parse_error("--to expects RE,IM (finite numbers)")
    if args.steps < 2:
        return _parse_error(f"--steps must be at least 2, got {args.steps}")
    if args.param not in (cover0, cover1)[cov.genus].params(cov):
        return _parse_error(f"--param: no parameter {args.param!r} in this covering")
    try:
        table = isomon.sweep_ratios(cov, args.param, target, args.steps)
    except (CausticWarning, HurwitzError, ValueError) as exc:
        print(f"sweep left the moduli space: {exc}", file=sys.stderr)
        return EXIT_SWEEP
    ref = table[0][2]
    keys = [key for key in ("route_ratio", "resultant_ratio") if key in ref]
    rows = []
    for s, _, row in table:
        entry = {"step": s}
        for key in keys:
            entry[key], entry[f"{key}_drift"] = _c2pair(row[key]), abs(row[key] / ref[key] - 1.0)
        rows.append(entry)
    result = {
        "param": args.param,
        "steps": args.steps,
        "rows": rows,
        "max_drift": {key: max(entry[f"{key}_drift"] for entry in rows) for key in keys},
    }
    if args.json:
        print(json.dumps(result, indent=2, allow_nan=False))
    else:
        for entry in rows:
            parts = [f"step {entry['step']:3d}", f"tau route ratio {_fmt_c(entry['route_ratio'])} "
                     f"(drift {entry['route_ratio_drift']:.3e})"]
            if "resultant_ratio" in entry:
                parts.append(f"resultant ratio drift {entry['resultant_ratio_drift']:.3e}")
            print("  ".join(parts))
        for k, v in result["max_drift"].items():
            print(f"max {k.replace('_', ' ')} drift: {v:.3e}")
    return 0


# --------------------------------------------------------------------------
# example


def cmd_example(args: argparse.Namespace) -> int:
    if args.seed < 0:
        return _parse_error(f"--seed must be >= 0, got {args.seed}")
    try:
        cov = builtin_example(args.name, seed=args.seed)
    except KeyError:
        return _parse_error(f"unknown example {args.name!r} (choose a2, h0_surf, h12)")
    doc = json.dumps(covering_to_spec(cov), indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(doc + "\n")
        except OSError as exc:
            return _parse_error(f"--out: cannot write {args.out}: {exc.strerror}")
    else:
        print(doc)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process (a build costs about 20 parses)."""
    ap = argparse.ArgumentParser(
        prog="hurwitztau",
        description="Canonical coordinates, Hamiltonians, tau- and G-functions "
        "of genus-0/1 branched coverings, with built-in identity checks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one covering spec")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the instance is near the caustic")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("check", help="run the identity suite")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=None,
                   help="replace every per-identity tolerance with this value")
    p.add_argument("--seed", type=int, default=42,
                   help="seed for the deterministic sweep directions")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("sweep", help="ratio constancy along a parameter segment")
    p.add_argument("file")
    p.add_argument("--param", required=True,
                   help="dot path of one complex parameter, e.g. poles.0.b")
    p.add_argument("--to", required=True, help="target value as RE,IM")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("example", help="emit a built-in covering spec")
    p.add_argument("name", help="a2 | h0_surf | h12")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_example)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # overflow shows as a HurwitzError or OverflowError below, not as numpy warnings
        with np.errstate(all="ignore"):
            code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not in the exit flush
        return code
    except BrokenPipeError:  # the reader (``| head``) has what it wanted
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OnBoundaryError as exc:
        print(f"boundary point ({exc.component}): {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except CommonRootError as exc:
        print(f"boundary point: {exc}", file=sys.stderr)
        return EXIT_BOUNDARY
    except (HurwitzError, OverflowError) as exc:
        print(f"numerical failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
