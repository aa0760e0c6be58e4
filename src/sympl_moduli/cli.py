"""Command-line front end: JSON reports, CSV traces, enumeration tables.

The package's one module that reads the environment, lays out a
report, writes files, prints or exits: the library takes the tolerance
as an argument and returns records, and each layout is stated once.

Exit codes: 0 success, 1 domain error (inadmissible label, degenerate
angle, bad curve domain, a size past its budget in `budgets`), 2 a
malformed flag, an unwritable `--out` or a value refused where argparse
reads it (SYMPL_MODULI_TOL by the same reader), 3 an `InternalError`, a
breached invariant (e.g. the double-point methods disagree, or a
catalog entry's index or aleph is not the one it expects).  A refused
value has one wording, "<option> <rule>, got <its first 40 characters>"
and its length if longer.  A pair entry has at most E = (L - 1) // 2
digits, L Python's limit on an int's digits in text, so every int a
command prints (2 E + 1 digits at most) can be printed.  Output
is deterministic: fixed key order, floats printed with at most twelve
significant digits, no timestamps.  The one exception is each double
point's z, w and residual, which double-points prints in full (repr),
as the library computes them.  Every report is the text json.dumps
gives it (indented, or one compact line per label for enumerate), and
nothing is printed until every check has passed.  Three outputs are
written from their tuples through fixed templates, with the same bytes:
enumerate's lines (_LINE2, _LINE3, from _REPORT_KEYS, the one statement
of the sphere report's layout, which invariants prints too), the points
of double-points (_POINT) and the eigenvalues of spectrum (_EIGEN); the
rest goes through json.dumps.  An `--out` file gets exactly the bytes
stdout would get.  It is opened before any work, so a path that cannot
be written exits 2 at once, and it appears only when the command
prints its report: a command that fails leaves no file behind.

Start-up: at module level this file imports only the standard library
and `errors`.  The package's `__init__` runs first and loads `curves`,
with `geometry`, `reeb` and `budgets`, so every command loads those
five modules.  Each `_cmd_*` handler imports the others it runs, so a
command loads only what it needs (`classify` never loads `invariants`,
`model_maps` or `catalog`, and `spectrum` loads `spectra` but neither
`moduli` nor `invariants`), and no command loads `points`, whose curve
points no command evaluates yet.  When `main` runs the process's own
command line (no argv: the console script and `python -m`), it freezes
the collector's heap (gc.freeze) before it builds the parser: what
start-up made lives until the process ends, and the collections after
it, the full one at interpreter exit included (about a tenth of a
command's time), then skip it.  A caller that passes argv keeps its
collector as it was.  This is the package's one use of `gc`.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import math
import os
import stat
import sys
from functools import partial
from typing import IO, Sequence

from .errors import InternalError, ParseError, SymplModuliError, _text

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3

#: Environment variable overriding the model map's residual tolerance.
RESIDUAL_TOL_ENV = "SYMPL_MODULI_TOL"


def _fmt(x: float) -> float:
    """Round-trip float capped at 12 significant digits."""
    return float(f"{x:.12g}")


#: One CSV line of a trace row: its six fields at 12 significant
#: digits ('%.12g' formats a float as f"{x:.12g}" does).
_TRACE_ROW = ",".join(["%.12g"] * 6) + "\n"


def _write_trace_csv(samples, fp: IO[str]) -> None:
    """Trace rows as CSV, each field at 12 significant digits."""
    fp.write("s,t,theta,phi,f,h\n")
    fp.writelines(_TRACE_ROW % row for row in samples)


@contextlib.contextmanager
def _out_file(path: str | None, newline: str | None):
    """The file `--out` names, opened for writing before the command
    runs (sys.stdout without a path).  An empty path names no
    file: FileNotFoundError, as open("") raises, not the working
    directory that it resolves to.

    A regular file is written beside its target and renamed onto it
    when the block ends without an exception; otherwise the partial
    file is removed and an earlier file at the path stays as it was.
    Anything else that exists there (a device, a FIFO) is opened
    directly, and a directory raises here.
    """
    if path is None:
        yield sys.stdout
        return
    if not path:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    target = os.path.realpath(path)
    exists = os.path.exists(target)
    if exists and not os.path.isfile(target):
        with open(target, "w", newline=newline) as fp:
            yield fp
        return
    if exists and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    part = f"{target}.{os.getpid()}.part"
    try:
        fp = open(part, "x", newline=newline)
    except OSError as exc:
        exc.filename = path         # the error names the path given
        raise
    try:
        with fp:
            yield fp
        if exists:
            os.chmod(part, stat.S_IMODE(os.stat(target).st_mode))
        os.replace(part, target)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(part)
        raise


def _refused(option: str, rule: str, text: str) -> ParseError:
    """The one wording of a refused value, quoting 40 characters at most."""
    more = f"... ({_text(len(text))} characters)" if len(text) > 40 else ""
    return ParseError(f"{option} {rule}, got {text[:40]!r}{more}")


def _reader(option: str, kind: type, lo=None, hi=None):
    """argparse's type for an int or float option: kind(text), refused
    unless lo < value < hi (a bound of None is open)."""
    rule = f"must be {'an integer' if kind is int else 'a number'}"
    if lo is not None:
        rule += f" > {_text(lo)}" + (
            "" if hi is None else f" and < {_text(hi)}")

    def read(text: str):
        try:
            value = kind(text)
            if (lo is None or lo < value) and (hi is None or value < hi):
                return value
        except ValueError:
            pass
        raise _refused(option, rule, text)
    return read


def residual_tolerance() -> float:
    """SYMPL_MODULI_TOL, read as a number > 0 and < inf, else 1e-9."""
    from .model_maps import DEFAULT_RESIDUAL_TOL
    raw = os.environ.get(RESIDUAL_TOL_ENV, DEFAULT_RESIDUAL_TOL)
    return _reader(RESIDUAL_TOL_ENV, float, 0, math.inf)(raw)


def parse_pairs(text: str, least: int = 1, most: int = 3,
                option: str = "--pairs") -> list[tuple[int, int]]:
    """From `least` to `most` 'm,m'' pairs split by ';', whitespace ignored,
    each entry as int() reads it and of at most (L - 1) // 2 digits, L =
    sys.get_int_max_str_digits() (none if L is 0): every int a command
    prints then has at most 2 ((L - 1) // 2) + 1 <= L digits."""
    chunks = [chunk.split(",") for chunk in text.split(";")]
    if not least <= len(chunks) <= most or any(len(c) != 2 for c in chunks):
        count = (_text(least) if least == most
                 else f"{_text(least)} to {_text(most)}")
        raise _refused(option, f"must be {count} 'm,m'' pair(s)", text)
    # Python before 3.10.7 has no limit, and no function that reads it.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    digits = (limit - 1) // 2
    try:
        entries = [int(x) for chunk in chunks for x in chunk]
        if not limit or max(map(abs, entries)) < 10 ** digits:
            return list(zip(entries[::2], entries[1::2]))
    except ValueError:
        pass
    rule = f" of at most {_text(digits)} digits" if limit else ""
    raise _refused(option, "must have integer entries" + rule, text)


def _json(payload: dict | list) -> str:
    """Indented JSON: the format of every one-payload report."""
    return json.dumps(payload, indent=2)


def _pairs(pairs) -> list[list[int]]:
    """A sequence of pairs as every report lays it out: [[m, m'], ...]."""
    return [list(p) for p in pairs]


#: One double point in the `points` list of `double-points`, as
#: json.dumps(indent=2) writes an item of a top-level list, after its
#: separator: a and b are ints, and every float is finite, which
#: json.dumps writes as its repr.
_POINT = (',\n    {\n      "a": %d,\n      "b": %d,\n      "z": [\n'
          '        %r,\n        %r\n      ],\n      "w": [\n        %r,\n'
          '        %r\n      ],\n      "residual": %r\n    }')
#: One [eigenvalue, multiplicity] item of `spectrum`, likewise.
_EIGEN = ",\n    [\n      %s,\n      %d\n    ]"


def _point_items(points):
    """The _POINT text of each double point."""
    return (_POINT % (a, b, z.real, z.imag, w.real, w.imag, res)
            for a, b, z, w, res in points)


def _eigen_items(spec):
    """The _EIGEN text of each eigenvalue, repr(_fmt(ev)), spelled from
    its '%.12g' string ('%.12g' formats a float as f"{x:.12g}" does)
    where that has no exponent: there it is the repr less a trailing
    ".0".  '%g' takes an exponent from 1e12, repr from 1e16, and a
    subnormal's 12 digits are more than its repr's, so a string with an
    exponent goes through float and repr."""
    for ev, mult in spec:
        s = "%.12g" % ev
        if "e" in s:
            s = repr(float(s))
        elif "." not in s:
            s += ".0"
        yield _EIGEN % (s, mult)


def _print_listed(payload: dict, key: str, items, out: IO[str]) -> None:
    """print(_json(payload), file=out), where payload[key] is an empty
    list that stands for the texts the iterator items yields, each one
    item of a top-level list with its separator (_POINT, _EIGEN).

    The head and tail are _json's; the items are written one by one,
    so the list's text is never held whole.
    """
    text = _json(payload)
    first = next(items, None)
    if first is None:
        print(text, file=out)
        return
    # key is the payload's only string that can spell its empty list.
    head, _, tail = text.partition(f'"{key}": []')
    out.write(f'{head}"{key}": [{first[1:]}')
    out.writelines(items)
    out.write(f"\n  ]{tail}\n")


def _cmd_classify(ns: argparse.Namespace, out: IO[str]) -> int:
    from .moduli import Label2, delta, validate_label2, validate_label3
    from .reeb import classify_pair
    pairs = ns.pairs
    if len(pairs) == 1:
        ok, why = classify_pair(*pairs[0])
        payload = {"pairs": _pairs(pairs), "admissible": ok, "violations": why}
    elif len(pairs) == 2:
        ok, why = validate_label2(*pairs)
        payload = {"pairs": _pairs(pairs), "admissible": ok,
                   "violations": why}
        if ok:
            payload["delta"] = delta(Label2.make(*pairs))
    else:
        ok, orderings = validate_label3(pairs)
        payload = {"pairs": _pairs(pairs), "admissible": ok,
                   "orderings": [_pairs(o) for o in orderings]}
    print(_json(payload), file=out)
    return EXIT_OK if ok else EXIT_DOMAIN


def _label_from_ns(pairs: list[tuple[int, int]], ordering: int):
    from .moduli import Label2, OrderedLabel3
    if len(pairs) == 2:
        if ordering:
            raise _refused("--ordering", "must be 0 for a 2-pair label",
                           _text(ordering))
        return Label2.make(*pairs)
    return OrderedLabel3.make(pairs, which=ordering)


def _checked_reports(labels):
    """(sphere report, root-of-unity count of m_C) of each label, in turn.

    Raises InternalError when the gcd formula and the oracle disagree.
    The import runs once, not per label (~1.3 us each)."""
    from .invariants import double_points_bruteforce, sphere_report
    for label in labels:
        report = sphere_report(label)
        oracle = double_points_bruteforce(label)
        if oracle != report.m_c:
            raise InternalError(f"m_C formula {_text(report.m_c)} != oracle "
                                f"{_text(oracle)} on {_text(label.pairs())}")
        yield report, oracle


#: A sphere report's keys: InvariantReport's fields in order, then the
#: oracle's count.
_REPORT_KEYS = ("delta", "gcds", "m_C", "index", "aleph", "e_pairing", "c1",
                "chi", "m_C_oracle")
#: Its `enumerate` line after the label's pairs, as json.dumps writes it.
_REPORT = ", ".join(f'"{key}": ' + ("[%d, %d, %d]" if key == "gcds" else "%d")
                    for key in _REPORT_KEYS)
_TRIPLE = "[[%d, %d], [%d, %d], [%d, %d]]"
_LINE2 = '{"label": {"pairs": [[%d, %d], [%d, %d]]}, ' + _REPORT + "}\n"
_LINE3 = ('{"label": {"pairs": ' + _TRIPLE + "}, " + _REPORT
          + ', "orderings": [' + _TRIPLE + ", " + _TRIPLE + "]}\n")


def _report_json(pairs, report, oracle: int) -> dict:
    """A sphere report's payload, its label's pairs then _REPORT_KEYS."""
    return {"label": {"pairs": _pairs(pairs)},
            **dict(zip(_REPORT_KEYS, (*report, oracle)))}


def _report_line(pairs, report, oracle: int, orderings=None) -> str:
    """One `enumerate` line: json.dumps of _report_json, and orderings."""
    fields = (report.delta, *report.gcd_triple, *report[2:], oracle)
    if orderings is None:
        (p, pp), (q, qp) = pairs
        return _LINE2 % (p, pp, q, qp, *fields)
    flat = [x for o in (pairs, *orderings) for pair in o for x in pair]
    return _LINE3 % (*flat[:6], *fields, *flat[6:])


def _cmd_invariants(ns: argparse.Namespace, out: IO[str]) -> int:
    label = _label_from_ns(ns.pairs, ns.ordering)
    (report, oracle), = _checked_reports([label])
    payload = _report_json(label.pairs(), report, oracle)
    # 1 + 2 m_C + sum(g_i - 1) = Delta by the gcd identity.
    payload["translate_intersection_count"] = report.delta
    print(_json(payload), file=out)
    return EXIT_OK


def _cmd_trace(ns: argparse.Namespace, out: IO[str]) -> int:
    from .curves import classify_branches, integrate_profile
    (p, pp), = ns.pair
    ranges = classify_branches(p, pp)
    if not 0 <= ns.range < len(ranges):
        raise _refused("--range", f"must be > -1 and < {_text(len(ranges))} "
                       "for this pair", _text(ns.range))
    trace = integrate_profile(p, pp, ns.range, s_anchor=ns.anchor,
                              n_samples=ns.samples, clip=ns.clip)
    _write_trace_csv(trace.samples, out)
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
    print(_json(summary))
    return EXIT_OK


def _cmd_enumerate(ns: argparse.Namespace, out: IO[str]) -> int:
    from .moduli import OrderedLabel3, enumerate_labels
    labels = enumerate_labels(ns.max_abs, ns.ends)
    orderings = [None] * len(labels)
    if ns.ends == 3:
        orderings = [label.orderings() for label in labels]
        labels = [OrderedLabel3(label, o[0])
                  for label, o in zip(labels, orderings)]
    lines = [_report_line(label.pairs(), *checked, o) for label, checked, o
             in zip(labels, _checked_reports(labels), orderings)]
    # Written once every label has passed: nothing on stdout on exit 3.
    out.writelines(lines or ["\n"])
    return EXIT_OK


def _cmd_double_points(ns: argparse.Namespace, out: IO[str]) -> int:
    from . import invariants as inv
    from .model_maps import ModelMapParams, phi_double_points
    from .moduli import delta
    run_model = ns.method in ("model", "all")
    # Read before any route runs: the roots route is O(Delta).
    tol = residual_tolerance() if run_model else None
    label = _label_from_ns(ns.pairs, 0)     # three pairs: ordering 0
    results: dict = {"label": {"pairs": _pairs(label.pairs())},
                     "delta": delta(label)}
    counts = {}
    points = []
    if ns.method in ("formula", "all"):
        counts["formula"] = inv.double_points_formula(label)
    if ns.method in ("roots", "all"):
        counts["roots"] = inv.double_points_bruteforce(label)
    if run_model:
        points = phi_double_points(ModelMapParams(label=label), tol=tol)
        counts["model"] = len(points) // 2
        results["points"] = []
        results["residual_tolerance"] = tol
    results["m_C"] = counts
    if len(set(counts.values())) > 1:
        raise InternalError(f"methods disagree: {_text(list(counts.items()))}")
    # Every point has passed its checks, so writing cannot fail.
    _print_listed(results, "points", _point_items(points), out)
    return EXIT_OK


def _cmd_spectrum(ns: argparse.Namespace, out: IO[str]) -> int:
    from . import spectra
    from .reeb import ReebOrbit
    if (ns.pair is None) == (ns.polar_m is None):
        raise ParseError("give exactly one of --pair or --polar-m")
    payload: dict
    if ns.polar_m is not None:
        spec = spectra.polar_spectrum(ns.polar_m, ns.nmax)
        payload = {
            "case": "polar", "m": ns.polar_m, "spectrum": [],
        }
    else:
        (m, mp), = ns.pair
        orbit = ReebOrbit.generic(m, mp)
        data = spectra.asymptotic_constants(orbit.pair)
        period = abs(m)
        spec = spectra.generic_spectrum(data.zeta, period, ns.nmax)
        payload = {
            "case": "generic", "pair": [m, mp],
            "theta0": _fmt(orbit.theta0),
            "zeta": _fmt(data.zeta),
            "kappa": _fmt(data.kappa),
            "sigma0": _fmt(data.sigma0),
            "period": period,
            "spectrum": [],
        }
    _print_listed(payload, "spectrum", _eigen_items(spec), out)
    return EXIT_OK


def _catalog_item(entry) -> dict:
    """One catalog entry as `catalog` prints it."""
    from .moduli import Label2
    ends = []
    for e in entry.ends:
        item: dict = {"side": e.side.value, "kind": e.kind}
        if e.end_class is not None:
            item["pair"] = list(e.end_class)
        if e.multiplicity is not None:
            item["multiplicity"] = e.multiplicity
        if e.winding is not None:
            item["winding"] = e.winding
        ends.append(item)
    out: dict = {
        "case_id": entry.case_id,
        "description": entry.description,
        "chi": entry.chi,
        "nu0": entry.nu0,
        "ends": ends,
        "c1": entry.c1(),
        "index": entry.index(),
        "expected_index": entry.expected_index,
        "aleph": entry.aleph(),
        "expected_aleph": entry.expected_aleph,
    }
    bound = entry.lower_bound()
    if bound is not None:
        out["index_lower_bound"] = bound
    label = entry.label
    if label is not None:
        # A Label2 is the tuple of its two pairs; a Label3 holds its own.
        pairs = label if isinstance(label, Label2) else label.pairs
        out["label"] = {"pairs": _pairs(pairs)}
    if entry.winding_provenance:
        out["winding_provenance"] = entry.winding_provenance
    return out


def _cmd_catalog(ns: argparse.Namespace, out: IO[str]) -> int:
    from .catalog import catalog_entries
    payload = [_catalog_item(entry) for entry in catalog_entries()]
    for item in payload:
        got = (item["index"], item["aleph"])
        want = (item["expected_index"], item["expected_aleph"])
        if got != want:
            raise InternalError(f"{item['case_id']}: (index, aleph) "
                                f"{_text(got)} != expected {_text(want)}")
    print(_json(payload), file=out)
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
    c.add_argument("--pairs", required=True, type=parse_pairs,
                   help="semicolon-separated integer pairs, e.g. \"2,1;1,2\"")
    c.add_argument("--out", help="write JSON here instead of stdout")
    c.set_defaults(func=_cmd_classify)

    i = sub.add_parser("invariants", help="Invariant report of a label.")
    i.add_argument("--pairs", required=True,
                   type=partial(parse_pairs, least=2))
    i.add_argument("--ordering", type=_reader("--ordering", int, -1, 2),
                   default=0, help="ordering 0 or 1 of a 3-pair label")
    i.add_argument("--out")
    i.set_defaults(func=_cmd_invariants)

    t = sub.add_parser("trace", help="CSV trace of a profile cylinder.")
    t.add_argument("--pair", required=True, help="one 'p,p'' pair, p > 0",
                   type=partial(parse_pairs, most=1, option="--pair"))
    t.add_argument("--range", type=_reader("--range", int), required=True,
                   help="theta range id")
    t.add_argument("--anchor", default=0.0,
                   type=_reader("--anchor", float, -math.inf, math.inf),
                   help="value of s at the range midpoint")
    t.add_argument("--samples", type=_reader("--samples", int, 1),
                   default=1000)
    t.add_argument("--clip", type=_reader("--clip", float, 0),
                   default=DEFAULT_CLIP,
                   help="distance (> 0) to keep from the range endpoints")
    t.add_argument("--out", required=True, help="CSV output path")
    t.set_defaults(func=_cmd_trace)

    e = sub.add_parser("enumerate", help="Enumerate admissible labels.")
    e.add_argument("--max-abs", required=True,
                   type=_reader("--max-abs", int, 0))
    e.add_argument("--ends", type=_reader("--ends", int, 1, 4), default=2,
                   help="2 or 3")
    e.add_argument("--out")
    e.set_defaults(func=_cmd_enumerate)

    d = sub.add_parser("double-points",
                       help="Double points by formula, root count or model map.")
    d.add_argument("--pairs", required=True,
                   type=partial(parse_pairs, least=2),
                   help="2 or 3 pairs; 3 pairs use their ordering 0")
    d.add_argument("--method", choices=("formula", "roots", "model", "all"),
                   default="all")
    d.add_argument("--out")
    d.set_defaults(func=_cmd_double_points)

    s = sub.add_parser("spectrum", help="Asymptotic constants and spectrum.")
    s.add_argument("--pair", help="one 'm,m'' pair (generic orbit)",
                   type=partial(parse_pairs, most=1, option="--pair"))
    s.add_argument("--polar-m", type=_reader("--polar-m", int, 0),
                   help="covering multiplicity of a polar orbit")
    s.add_argument("--nmax", type=_reader("--nmax", int, -1), default=5)
    s.add_argument("--out")
    s.set_defaults(func=_cmd_spectrum)

    g = sub.add_parser("catalog", help="Dump the curve catalog as JSON.")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: Sequence[str] | None = None) -> None:
    if argv is None:
        # The process's own command line: start-up's heap lives until
        # exit, so no collection, the one at exit included, walks it.
        gc.freeze()
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        # The trace CSV ends its lines in "\n" on every platform.
        newline = "" if ns.func is _cmd_trace else None
        with _out_file(ns.out, newline) as out:
            code = ns.func(ns, out)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = EXIT_PARSE
    except InternalError as exc:
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
