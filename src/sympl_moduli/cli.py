"""Command-line front end: JSON reports, CSV traces, enumeration tables.

Exit codes: 0 success, 1 domain error (inadmissible label, degenerate
angle, bad curve domain, a size past its budget in `budgets`), 2 parse
error, malformed flags or an `--out` that cannot be written, 3 breach of
an internal invariant (e.g. the double-point methods disagree).  Output
is deterministic: fixed key order, floats printed with at most twelve
significant digits, no timestamps.  The one exception is each double
point's z, w and residual, which double-points prints in full (repr),
as the library computes them.  An `--out` file gets exactly the bytes
stdout would get.

Start-up: at module level this file imports only the standard library
and `errors`; each `_cmd_*` handler imports the modules it runs, so a
command loads only what it needs (`classify` never loads `invariants`,
`model_maps` or `catalog`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

from .errors import (InternalError, ParityError, ParseError, ResidualError,
                     SymplModuliError)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3

_INVARIANT_ERRORS = (InternalError, ParityError, ResidualError)


def _fmt(x: float) -> float:
    """Round-trip float capped at 12 significant digits."""
    return float(f"{x:.12g}")


def parse_pairs(text: str) -> list[tuple[int, int]]:
    """Parse semicolon-separated 'm,m'' integer pairs; whitespace ignored."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty pair in {text!r}")
        parts = [p.strip() for p in chunk.split(",")]
        if len(parts) != 2:
            raise ParseError(f"expected 'm,m'' but got {chunk!r}")
        try:
            out.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ParseError(f"non-integer entry in {chunk!r}") from exc
    if not 1 <= len(out) <= 3:
        raise ParseError(f"need 1, 2 or 3 pairs, got {len(out)}")
    return out


def _emit(text: str, out_path: str | None) -> None:
    """Print text to out_path when one is given, else to stdout."""
    if out_path:
        with open(out_path, "w") as fp:
            print(text, file=fp)
    else:
        print(text)


def _json(payload: dict | list) -> str:
    """Indented JSON: the format of every one-payload report."""
    return json.dumps(payload, indent=2)


def _cmd_classify(ns: argparse.Namespace) -> int:
    from .moduli import Label2, validate_label2, validate_label3
    from .reeb import classify_pair
    pairs = parse_pairs(ns.pairs)
    if len(pairs) == 1:
        ok, why = classify_pair(*pairs[0])
        payload = {"pairs": [list(pairs[0])], "admissible": ok, "violations": why}
    elif len(pairs) == 2:
        ok, why = validate_label2(*pairs)
        payload = {"pairs": [list(p) for p in pairs], "admissible": ok,
                   "violations": why}
        if ok:
            payload["delta"] = Label2.make(*pairs).delta
    else:
        ok, orderings = validate_label3(pairs)
        payload = {"pairs": [list(p) for p in pairs], "admissible": ok,
                   "orderings": [[list(p) for p in o] for o in orderings]}
    _emit(_json(payload), ns.out)
    return EXIT_OK if ok else EXIT_DOMAIN


def _label_from_ns(pairs: list[tuple[int, int]], ordering: int):
    from .moduli import Label2, OrderedLabel3
    if len(pairs) == 2:
        return Label2.make(*pairs)
    if len(pairs) == 3:
        return OrderedLabel3.make(pairs, which=ordering)
    raise ParseError("this command needs 2 or 3 pairs")


def _checked_report(label) -> dict:
    """The label's sphere report with the root-of-unity count beside m_C.

    Raises InternalError when the gcd formula and the oracle disagree."""
    from . import invariants as inv
    report = inv.sphere_report(label)
    oracle = inv.double_points_bruteforce(label)
    payload = report.to_json(label)
    if oracle != report.m_c:
        raise InternalError(f"m_C formula {report.m_c} != oracle {oracle} "
                            f"on {payload['label']}")
    payload["m_C_oracle"] = oracle
    return payload


def _cmd_invariants(ns: argparse.Namespace) -> int:
    pairs = parse_pairs(ns.pairs)
    label = _label_from_ns(pairs, ns.ordering)
    payload = _checked_report(label)
    # 1 + 2 m_C + sum(g_i - 1) = Delta by the gcd identity.
    payload["translate_intersection_count"] = payload["delta"]
    _emit(_json(payload), ns.out)
    return EXIT_OK


def _cmd_trace(ns: argparse.Namespace) -> int:
    from .curves import classify_branches, integrate_profile
    pairs = parse_pairs(ns.pair)
    if len(pairs) != 1:
        raise ParseError("--pair takes exactly one 'p,p'' pair")
    p, pp = pairs[0]
    if ns.samples < 2:
        raise ParseError(f"--samples must be at least 2, got {ns.samples}")
    if not ns.clip > 0:
        raise ParseError(f"--clip must be positive, got {ns.clip}")
    if not math.isfinite(ns.anchor):
        raise ParseError(f"--anchor must be finite, got {ns.anchor}")
    ranges = classify_branches(p, pp)
    if not 0 <= ns.range < len(ranges):
        raise ParseError(
            f"range id {ns.range} invalid: ({p}, {pp}) has {len(ranges)} ranges")
    trace = integrate_profile(p, pp, ns.range, s_anchor=ns.anchor,
                              n_samples=ns.samples, clip=ns.clip)
    trace.write_csv(ns.out)
    rng = ranges[ns.range]
    s_vals = [row.s for row in trace.samples]
    summary = {
        "pair": [p, pp],
        "range": ns.range,
        "theta_endpoints": [_fmt(rng.lo), _fmt(rng.hi)],
        "endpoint_labels": [rng.lo_label, rng.hi_label],
        "samples": len(trace.samples),
        "s_min": _fmt(min(s_vals)),
        "s_max": _fmt(max(s_vals)),
        "csv": ns.out,
    }
    _emit(_json(summary), None)
    return EXIT_OK


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    from .moduli import OrderedLabel3, enumerate_labels
    if ns.max_abs < 1:
        raise ParseError(f"--max-abs must be at least 1, got {ns.max_abs}")
    labels = enumerate_labels(ns.max_abs, ns.ends)
    lines = []
    for label in labels:
        orderings = None
        if ns.ends == 3:
            orderings = label.orderings()
            label = OrderedLabel3(label, orderings[0])
        payload = _checked_report(label)
        if orderings is not None:
            payload["orderings"] = [[list(p) for p in o] for o in orderings]
        lines.append(json.dumps(payload))
    _emit("\n".join(lines), ns.out)
    return EXIT_OK


def _cmd_double_points(ns: argparse.Namespace) -> int:
    from . import invariants as inv
    from .model_maps import (ModelMapParams, double_points_json,
                             phi_double_points, residual_tolerance)
    pairs = parse_pairs(ns.pairs)
    run_model = ns.method in ("model", "all")
    if run_model:
        # Read before any route runs: the roots route is O(Delta).
        try:
            tol = residual_tolerance()
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    label = _label_from_ns(pairs, 0)     # three pairs: ordering 0
    results: dict = {"label": {"pairs": [list(p) for p in label.pairs()]},
                     "delta": inv.delta(label)}
    counts = {}
    if ns.method in ("formula", "all"):
        counts["formula"] = inv.double_points_formula(label)
    if ns.method in ("roots", "all"):
        counts["roots"] = inv.double_points_bruteforce(label)
    if run_model:
        points = phi_double_points(ModelMapParams(label=label), tol=tol)
        counts["model"] = len(points) // 2
        results["points"] = double_points_json(points)
        results["residual_tolerance"] = tol
    results["m_C"] = counts
    if len(set(counts.values())) > 1:
        raise InternalError(f"methods disagree: {counts}")
    _emit(_json(results), ns.out)
    return EXIT_OK


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    from . import invariants as inv
    from .reeb import ReebOrbit
    if (ns.pair is None) == (ns.polar_m is None):
        raise ParseError("give exactly one of --pair or --polar-m")
    if ns.nmax < 0:
        raise ParseError(f"--nmax must be at least 0, got {ns.nmax}")
    if ns.polar_m is not None and ns.polar_m < 1:
        raise ParseError(f"--polar-m must be at least 1, got {ns.polar_m}")
    payload: dict
    if ns.polar_m is not None:
        spec = inv.l0_spectrum(inv.PolarSpectrumCase(m=ns.polar_m), ns.nmax)
        payload = {
            "case": "polar", "m": ns.polar_m,
            "spectrum": [[_fmt(ev), mult] for ev, mult in spec],
        }
    else:
        pairs = parse_pairs(ns.pair)
        if len(pairs) != 1:
            raise ParseError("--pair takes exactly one 'm,m'' pair")
        m, mp = pairs[0]
        orbit = ReebOrbit.generic(m, mp)
        data = inv.asymptotic_constants(orbit.theta0, orbit.pair)
        period = orbit.multiplicity * (abs(orbit.pair.m) or 1)
        spec = inv.l0_spectrum(
            inv.GenericSpectrumCase(zeta=data.zeta, period=period), ns.nmax)
        payload = {
            "case": "generic", "pair": [m, mp],
            "theta0": _fmt(orbit.theta0),
            "zeta": _fmt(data.zeta),
            "kappa": _fmt(data.kappa),
            "sigma0": None if data.sigma0 is None else _fmt(data.sigma0),
            "period": period,
            "spectrum": [[_fmt(ev), mult] for ev, mult in spec],
        }
    _emit(_json(payload), ns.out)
    return EXIT_OK


def _cmd_catalog(ns: argparse.Namespace) -> int:
    from .catalog import catalog_entries
    payload = [entry.to_json() for entry in catalog_entries()]
    _emit(_json(payload), ns.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    from .geometry import DEFAULT_CLIP    # every subcommand loads geometry
    parser = argparse.ArgumentParser(
        prog="sympl-moduli",
        description="Moduli data of invariant pseudoholomorphic subvarieties "
                    "in R x (S^1 x S^2): classification, indices, double "
                    "points, traces and spectra.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("classify", help="Admissibility of 1, 2 or 3 pairs.")
    c.add_argument("--pairs", required=True,
                   help="semicolon-separated integer pairs, e.g. \"2,1;1,2\"")
    c.add_argument("--out", help="write JSON here instead of stdout")
    c.set_defaults(func=_cmd_classify)

    i = sub.add_parser("invariants", help="Invariant report of a label.")
    i.add_argument("--pairs", required=True)
    i.add_argument("--ordering", type=int, choices=(0, 1), default=0,
                   help="which valid ordering to use for 3-pair labels")
    i.add_argument("--out")
    i.set_defaults(func=_cmd_invariants)

    t = sub.add_parser("trace", help="CSV trace of a profile cylinder.")
    t.add_argument("--pair", required=True, help="one 'p,p'' pair, p > 0")
    t.add_argument("--range", type=int, required=True, help="theta range id")
    t.add_argument("--anchor", type=float, default=0.0,
                   help="value of s at the range midpoint")
    t.add_argument("--samples", type=int, default=1000)
    t.add_argument("--clip", type=float, default=DEFAULT_CLIP,
                   help="distance (> 0) to keep from the range endpoints")
    t.add_argument("--out", required=True, help="CSV output path")
    t.set_defaults(func=_cmd_trace)

    e = sub.add_parser("enumerate", help="Enumerate admissible labels.")
    e.add_argument("--max-abs", type=int, required=True, dest="max_abs")
    e.add_argument("--ends", type=int, choices=(2, 3), default=2)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_enumerate)

    d = sub.add_parser("double-points",
                       help="Double points by formula, root count or model map.")
    d.add_argument("--pairs", required=True,
                   help="2 or 3 pairs; 3 pairs use their ordering 0")
    d.add_argument("--method", choices=("formula", "roots", "model", "all"),
                   default="all")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_double_points)

    s = sub.add_parser("spectrum", help="Asymptotic constants and spectrum.")
    s.add_argument("--pair", help="one 'm,m'' pair (generic orbit)")
    s.add_argument("--polar-m", type=int, dest="polar_m",
                   help="covering multiplicity of a polar orbit")
    s.add_argument("--nmax", type=int, default=5)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_spectrum)

    g = sub.add_parser("catalog", help="Dump the curve catalog as JSON.")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> None:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        code = ns.func(ns)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except _INVARIANT_ERRORS as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        code = EXIT_INVARIANT
    except SymplModuliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DOMAIN
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    sys.exit(code)


if __name__ == "__main__":
    main()
