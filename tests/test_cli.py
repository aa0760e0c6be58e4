import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import struct
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympl_moduli import (catalog, classify_pair, curves, geometry,
                          invariants, moduli, spectra)
from sympl_moduli.cli import (_eigen_items, _fmt, _json, _point_items,
                              _print_listed, _report_json, _report_line,
                              _write_trace_csv, main, parse_pairs,
                              residual_tolerance)
from sympl_moduli.errors import DomainError, ParseError
from sympl_moduli.invariants import InvariantReport
from sympl_moduli.model_maps import DoublePoint

import shadow
from conftest import double_points_json, loaded_after, m0


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "cli_golden.json"
GOLDEN_CASES = json.loads(GOLDEN.read_text())

#: The first golden case of each subcommand, and of the unknown one.
FIRST_CASES = [next(c for c in GOLDEN_CASES if c["argv"][0] == name)
               for name in dict.fromkeys(c["argv"][0] for c in GOLDEN_CASES)]


#: The most digits parse_pairs takes in a pair entry: (L - 1) // 2 for
#: L = sys.get_int_max_str_digits(), 2,149 at Python's default of 4,300.
DIGITS = (sys.get_int_max_str_digits() - 1) // 2


#: The prefix of a refusal's one stderr line, by its exit code.
STDERR_PREFIXES = {1: ("error: ",),
                   2: ("parse error: ", "cannot write output: "),
                   3: ("invariant breach: ",)}


def stderr_has_its_shape(code: int, err: str) -> bool:
    """Nothing on stderr on exit 0; otherwise nothing, one line with the
    prefix of its exit code, or argparse's usage message (exit 2)."""
    if not err:
        return True
    if code == 2 and err.startswith("usage: sympl-moduli"):
        return True
    return (code in STDERR_PREFIXES and err.count("\n") == 1
            and err.endswith("\n") and err.startswith(STDERR_PREFIXES[code]))


def run_cli(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestParsePairs:
    def test_basic(self):
        assert parse_pairs("2,1;1,2") == [(2, 1), (1, 2)]

    def test_whitespace_and_negatives(self):
        assert parse_pairs(" 1 , -1 ; 1 , 4 ; -2 , -3 ") == [
            (1, -1), (1, 4), (-2, -3)]

    def test_malformed(self):
        for bad in ("", "1", "1,2,3", "a,b", "1,2;;3,4", "1,2;3,4;5,6;7,8"):
            with pytest.raises(ParseError):
                parse_pairs(bad)


class TestClassify:
    def test_admissible_pair(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pairs", "2,1;1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert payload["delta"] == 3

    def test_inadmissible_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pairs", "1,2;2,1")
        assert code == 1
        assert json.loads(out)["admissible"] is False

    def test_three_pairs_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pairs", "1,-1;1,4;-2,-3")
        assert code == 0
        payload = json.loads(out)
        assert payload["admissible"] is True
        assert len(payload["orderings"]) == 2

    def test_single_pair(self, capsys):
        # Values starting with '-' need the --pairs=... form.
        code, out, _ = run_cli(capsys, "classify", "--pairs=-2,3")
        assert code == 0
        code, out, _ = run_cli(capsys, "classify", "--pairs=-1,1")
        assert code == 1

    def test_negative_entries_bracketed(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pairs=-1,1")
        assert json.loads(out)["violations"] == [
            "(b) 2*1^2 = 2 <= 3 = 3*(-1)^2 with m < 0"]
        assert classify_pair(-2, -1)[1] == [
            "(b) 2*(-1)^2 = 2 <= 12 = 3*(-2)^2 with m < 0"]

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--pairs", "1,2,3")
        assert code == 2
        assert "parse error" in err

    @pytest.mark.parametrize("entry", ["9" * 5000, "-" + "9" * 5000])
    def test_entry_with_too_many_digits(self, capsys, entry):
        """int() refuses an entry past Python's digit limit (4,300 by
        default, 640 at the least); the parse error gives the entry limit
        and quotes only the value's first 40 characters, with its
        length."""
        code, out, err = run_cli(capsys, "classify", f"--pairs=1,{entry}")
        assert code == 2 and out == ""
        assert err == ("parse error: --pairs must have integer entries of "
                       f"at most {DIGITS} digits, got {('1,' + entry)[:40]!r}... "
                       f"({len(entry) + 2} characters)\n")
        assert len(err) < 160

    def test_entry_that_is_not_an_integer(self):
        for bad in ("1,2x", "1,+-2", "1,\u00b2", "1," + "9" * 5000 + "x"):
            with pytest.raises(ParseError, match="must have integer entries"):
                parse_pairs(bad)


class TestInvariants:
    def test_symmetric_label(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--pairs", "2,1;1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == 0
        assert payload["m_C_oracle"] == 0
        assert payload["index"] == 3
        assert payload["e_pairing"] == 1
        assert payload["translate_intersection_count"] == 3

    def test_one_double_point(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--pairs", "4,1;1,1")
        payload = json.loads(out)
        assert payload["m_C"] == 1
        assert payload["translate_intersection_count"] == 3

    def test_ordered_triple(self, capsys):
        code, out, _ = run_cli(capsys, "invariants", "--pairs",
                               "1,-1;1,4;-2,-3", "--ordering", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == 2
        assert payload["index"] == 4

    def test_inadmissible(self, capsys):
        code, _, err = run_cli(capsys, "invariants", "--pairs", "1,2;2,1")
        assert code == 1


class TestTrace:
    def test_csv_output(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "trace", "--pair", "1,2", "--range", "1",
                               "--samples", "200", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "s,t,theta,phi,f,h"
        assert len(lines) == 201
        thetas = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b > a for a, b in zip(thetas, thetas[1:]))
        summary = json.loads(out)
        assert summary["endpoint_labels"] == ["theta0", "theta0_bar"]

    def test_equatorial_pair_range0(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, out, _ = run_cli(capsys, "trace", "--pair", "1,0", "--range", "0",
                               "--samples", "50", "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["theta_endpoints"] == [0.0, pytest.approx(math.pi / 2)]

    def test_csv_lines_match_the_format_spec(self):
        # '%.12g' % x against f"{x:.12g}": random bit patterns (nan and
        # inf among them) and the floats whose printing is special.
        rng = random.Random(7)
        values = [struct.unpack("<d", rng.randbytes(8))[0]
                  for _ in range(6000)]
        values += [math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324,
                   -2.2250738585072014e-308, 1e16, 123456789012.5, 1e-5]
        values += [0.0] * (-len(values) % 6)
        rows = [tuple(values[i:i + 6]) for i in range(0, len(values), 6)]
        fp = io.StringIO()
        _write_trace_csv(rows, fp)
        expected = "".join(",".join(f"{x:.12g}" for x in row) + "\n"
                           for row in rows)
        assert fp.getvalue() == "s,t,theta,phi,f,h\n" + expected

    def test_csv_round_trip(self, tmp_path):
        tr = curves.integrate_profile(1, 2, 1, n_samples=50)
        path = tmp_path / "trace.csv"
        with open(path, "w", newline="") as fp:
            _write_trace_csv(tr.samples, fp)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "s,t,theta,phi,f,h"
        assert len(lines) == 51
        for line, row in zip(lines[1:], tr.samples):
            vals = [float(x) for x in line.split(",")]
            assert vals[0] == pytest.approx(row.s, rel=1e-11)
            assert vals[2] == pytest.approx(row.theta, rel=1e-11)

    def test_bad_range_exit_code(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "trace", "--pair", "1,1", "--range", "7",
                               "--samples", "10", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 2

    def test_one_sample_is_a_flag_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "trace", "--pair", "1,2", "--range", "1",
                               "--samples", "1", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 2
        assert "--samples" in err

    @pytest.mark.parametrize("clip", ["0", "-1", "nan"])
    def test_non_positive_clip_is_a_flag_error(self, capsys, tmp_path, clip):
        code, _, err = run_cli(capsys, "trace", "--pair", "1,2", "--range", "1",
                               f"--clip={clip}", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 2
        assert "--clip" in err
        assert not (tmp_path / "t.csv").exists()

    def test_clip_swallowing_the_range_is_a_domain_error(self, capsys,
                                                         tmp_path):
        code, _, err = run_cli(capsys, "trace", "--pair", "1,2", "--range", "1",
                               "--clip", "2", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 1

    def test_non_positive_p_is_inadmissible(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "trace", "--pair", "0,1", "--range", "0",
                               "--out", str(tmp_path / "t.csv"))
        assert code == 1
        assert "p > 0" in err

    def test_overflowing_trace_is_a_domain_error(self, capsys, tmp_path):
        # s falls below -290 near the pole end of this range, where
        # e^{-sqrt6 s} leaves the float range.
        code, _, err = run_cli(capsys, "trace", "--pair", "5,6", "--range", "1",
                               "--samples", "50", "--out",
                               str(tmp_path / "t.csv"))
        assert code == 1
        assert "overflow" in err

    @pytest.mark.parametrize("anchor, want", [
        ("nan", 2), ("inf", 2), ("-inf", 2),
        # -sqrt6 s overflows to inf before exp, which then returns inf
        # without raising.
        ("-1e308", 1),
    ])
    def test_non_finite_anchor_or_rows(self, capsys, tmp_path, anchor, want):
        path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "trace", "--pair", "1,2", "--range",
                                 "1", "--samples", "20", f"--anchor={anchor}",
                                 "--out", str(path))
        # Neither a NaN/Infinity summary nor a CSV row comes out.
        assert (code, out) == (want, "")
        assert not path.exists()
        assert "Traceback" not in err
        if want == 2:
            assert "--anchor" in err

    def test_underflowing_rows(self, capsys, tmp_path):
        # e^{-sqrt6 s} underflows to 0: rows with f = h = 0 are refused.
        path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "trace", "--pair", "1,2", "--range",
                                 "1", "--samples", "3", "--anchor=1e308",
                                 "--out", str(path))
        assert (code, out) == (1, "")
        assert not path.exists()
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_subnormal_rows(self, capsys, tmp_path):
        # e^{-sqrt6 s} is subnormal at s ~ 296: rows with few bits left
        # are refused like rows that underflow to 0.
        path = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "trace", "--pair", "1,2", "--range",
                                 "1", "--samples", "3", "--anchor", "296",
                                 "--out", str(path))
        assert (code, out) == (1, "")
        assert not path.exists()
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_quad_tol_flag_is_gone(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "trace", "--pair", "1,2", "--range", "1",
                             "--quad-tol", "-1", "--out",
                             str(tmp_path / "t.csv"))
        assert code == 2


class TestStartup:
    def test_import_pulls_in_no_numerics_stack(self):
        # Importing the package must stay stdlib-only: scipy or numpy at
        # import time costs most of a CLI command's run time.
        import os
        import pathlib
        import subprocess
        import sys
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = ("import sympl_moduli, sympl_moduli.cli, sys; "
                 "print(sorted(m for m in ('scipy', 'numpy') "
                 "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=60)
        assert out.stdout.strip() == "[]"

    def test_import_loads_only_the_standard_library(self):
        # dataclasses (with inspect, ast and tokenize) once cost about two
        # thirds of the import; the records are named tuples instead.
        # decimal (with numbers and _decimal) costs 1-2 ms, and only the
        # 40-digit roots of a profile curve import it.
        # -I -S: no site packages and no PYTHON* variables; -B: no .pyc
        # files written.
        import pathlib
        import subprocess
        import sys
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "before = set(sys.modules); import sympl_moduli; "
                 "print(*sorted(set(sys.modules) - before)); "
                 "import sympl_moduli.cli; "
                 "print(*[m in sys.modules for m in ('dataclasses', "
                 "'decimal')])")
        out = subprocess.run(
            [sys.executable, "-B", "-I", "-S", "-c", probe, src],
            capture_output=True, text=True, check=True, timeout=60)
        loaded, has_slow = out.stdout.splitlines()
        assert "sympl_moduli" in loaded.split()
        foreign = [m for m in loaded.split()
                   if m.partition(".")[0] != "sympl_moduli"
                   and m.partition(".")[0] not in sys.stdlib_module_names]
        assert foreign == []
        assert has_slow == "False False"

    def test_import_loads_no_command_module(self):
        loaded = loaded_after("import sympl_moduli")
        assert not loaded & {"sympl_moduli.moduli", "sympl_moduli.invariants",
                             "sympl_moduli.model_maps",
                             "sympl_moduli.catalog", "sympl_moduli.points"}

    @pytest.mark.parametrize("case", FIRST_CASES,
                             ids=lambda case: case["argv"][0])
    def test_no_command_loads_the_point_layer(self, tmp_path, case):
        # No subcommand evaluates a point, so none compiles that layer.
        # Each command exits with its golden code; trace writes its CSV
        # to a path relative to the repository root.
        (tmp_path / "bench" / "out").mkdir(parents=True)
        loaded = loaded_after(
            "from sympl_moduli import cli\n"
            "try:\n"
            f"    cli.main({case['argv']!r})\n"
            "except SystemExit as exc:\n"
            f"    assert exc.code in {case['exit']!r}, exc.code", cwd=tmp_path)
        assert "sympl_moduli.cli" in loaded
        assert "sympl_moduli.points" not in loaded

    def test_classify_loads_only_what_it_runs(self):
        loaded = loaded_after(
            "from sympl_moduli import cli\n"
            "try:\n"
            "    cli.main(['classify', '--pairs', '2,1;1,2'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")
        assert "sympl_moduli.moduli" in loaded
        assert not loaded & {"sympl_moduli.invariants",
                             "sympl_moduli.model_maps",
                             "sympl_moduli.catalog"}

    def test_spectrum_loads_only_what_it_runs(self):
        loaded = loaded_after(
            "from sympl_moduli import cli\n"
            "try:\n"
            "    cli.main(['spectrum', '--pair', '2,3', '--nmax', '5'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")
        assert "sympl_moduli.spectra" in loaded
        assert not loaded & {"sympl_moduli.moduli", "sympl_moduli.invariants"}

    def test_cli_imports_only_stdlib_and_errors_at_module_level(self):
        import ast
        import sys
        cli_py = Path(__file__).resolve().parents[1] / "src/sympl_moduli/cli.py"
        tree = ast.parse(cli_py.read_text())
        for node in tree.body:
            if isinstance(node, ast.Import):
                assert all(a.name.partition(".")[0] in sys.stdlib_module_names
                           for a in node.names), ast.unparse(node)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    assert (node.level, node.module) == (1, "errors"), \
                        ast.unparse(node)
                else:
                    assert (node.module.partition(".")[0]
                            in sys.stdlib_module_names), ast.unparse(node)

    def test_only_the_cli_touches_the_outside_world(self):
        # The library reads no environment, writes no files, prints
        # nothing, never exits and leaves the garbage collector alone:
        # that is the CLI's alone.
        import ast
        pkg = Path(__file__).resolve().parents[1] / "src/sympl_moduli"
        for path in sorted(pkg.glob("*.py")):
            if path.name == "cli.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    modules = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [] if node.level else [node.module]
                else:
                    modules = []
                assert all(m.partition(".")[0] not in ("os", "gc")
                           for m in modules), \
                    f"{path.name}: {ast.unparse(node)}"
                if isinstance(node, ast.Call):
                    func = ast.unparse(node.func)
                    assert (func not in ("open", "print", "sys.exit")
                            and not func.startswith("gc.")), \
                        f"{path.name}: {ast.unparse(node)}"

    def test_one_angle_wrap(self):
        # t and phi are reduced to [0, 2*pi) by geometry._reduce_angle
        # alone: no other module takes an angle % 2*pi.
        import ast
        pkg = Path(__file__).resolve().parents[1] / "src/sympl_moduli"
        wraps = []
        for path in sorted(pkg.glob("*.py")):
            text = path.read_text()
            assert "% math.tau" not in text, path.name
            for func in ast.walk(ast.parse(text)):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if (isinstance(node, ast.BinOp)
                            and isinstance(node.op, ast.Mod)
                            and ast.unparse(node.right) in ("tau", "math.tau")):
                        wraps.append((path.name, func.name))
        assert wraps == [("geometry.py", "_reduce_angle")]


#: The golden commands the collector tests run: exit 0, a report of
#: exit 1, and argparse's own exit 2.
COLLECTOR_CASES = [next(c for c in GOLDEN_CASES if c["argv"] == argv)
                   for argv in (["catalog"], ["classify", "--pairs", "1,1;1,1"],
                                ["frobnicate"])]

#: Run in the child before the command: at exit, after every other
#: atexit hook, it writes the collector's frozen count to stderr.
_FREEZE_PROBE = ("import atexit, gc, sys\n"
                 "atexit.register(lambda: sys.stderr.write("
                 "f'frozen {gc.get_freeze_count()}\\n'))\n")


class TestCollector:
    """main freezes the collector's heap only for the process's own
    command line; a caller that passes argv keeps its collector."""

    @pytest.mark.parametrize("case", COLLECTOR_CASES,
                             ids=lambda c: " ".join(c["argv"]))
    @pytest.mark.parametrize("enabled", [True, False],
                             ids=["enabled", "disabled"])
    def test_in_process_caller_keeps_its_collector(self, capsys, case,
                                                   enabled):
        import gc
        frozen = gc.get_freeze_count()
        if not enabled:
            gc.disable()
        try:
            code, out, _ = run_cli(capsys, *case["argv"])
            assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)
        finally:
            gc.enable()
        assert code in case["exit"] and out == case["stdout"]

    @pytest.mark.parametrize("case", COLLECTOR_CASES,
                             ids=lambda c: " ".join(c["argv"]))
    @pytest.mark.parametrize("entry", ["-m", "console-script"])
    def test_own_command_line_freezes_the_heap(self, tmp_path, case, entry):
        # -m: the probe is a sitecustomize module, which site imports
        # before the command runs.  The console script calls main() with
        # the command line in sys.argv.
        import subprocess
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(tmp_path), str(src)]), "PYTHONDONTWRITEBYTECODE": "1"}
        if entry == "-m":
            (tmp_path / "sitecustomize.py").write_text(_FREEZE_PROBE)
            argv = [sys.executable, "-m", "sympl_moduli.cli", *case["argv"]]
        else:
            argv = [sys.executable, "-c", _FREEZE_PROBE + (
                f"sys.argv = ['sympl-moduli', *{case['argv']!r}]\n"
                "from sympl_moduli.cli import main\n"
                "sys.exit(main())\n")]
        proc = subprocess.run(argv, env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode in case["exit"], proc.stderr
        assert proc.stdout == case["stdout"]
        *_, last = proc.stderr.splitlines()
        assert re.fullmatch(r"frozen [1-9]\d*", last), proc.stderr
        assert "Traceback" not in proc.stderr


class TestEnumerate:
    def test_bound_2_regression(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--max-abs", "2",
                               "--ends", "2")
        assert code == 0
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert len(lines) == 104
        assert all(row["m_C"] == row["m_C_oracle"] for row in lines)

    def test_label3_two_orderings(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--max-abs", "3",
                               "--ends", "3")
        assert code == 0
        for line in out.strip().split("\n"):
            row = json.loads(line)
            assert len(row["label"]["pairs"]) == 3
            assert row["index"] == 4
            assert len(row["orderings"]) == 2

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "enumerate", "--max-abs", "2", "--ends", "2")
        _, out2, _ = run_cli(capsys, "enumerate", "--max-abs", "2", "--ends", "2")
        assert out1 == out2


class TestDoublePoints:
    def test_model_method(self, capsys):
        code, out, _ = run_cli(capsys, "double-points", "--pairs", "4,1;1,1",
                               "--method", "model")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == {"model": 1}
        assert len(payload["points"]) == 2
        assert all(pt["residual"] < 1e-9 for pt in payload["points"])

    def test_all_methods_agree(self, capsys):
        code, out, _ = run_cli(capsys, "double-points", "--pairs", "1,-1;1,4")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == {"formula": 2, "roots": 2, "model": 2}

    def test_three_pairs_use_ordering_0(self, capsys):
        code, out, _ = run_cli(capsys, "double-points", "--pairs",
                               "1,-1;1,4;-2,-3", "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == {"formula": 2, "roots": 2, "model": 2}
        assert len(payload["points"]) == 4
        # The label and Delta are the ones invariants reports.
        code, out, _ = run_cli(capsys, "invariants", "--pairs",
                               "1,-1;1,4;-2,-3")
        report = json.loads(out)
        assert payload["label"] == report["label"]
        assert payload["delta"] == report["delta"] == 5

    @pytest.mark.parametrize("pairs, want", [("1,1", 2), ("2,1;1,2;3,3", 1)])
    def test_pair_count_and_admissibility(self, capsys, pairs, want):
        # One pair is a parse error; an inadmissible triple is a domain
        # error; neither writes stdout.
        code, out, _ = run_cli(capsys, "double-points", "--pairs", pairs,
                               "--method", "all")
        assert (code, out) == (want, "")

    def test_embedded_label_empty(self, capsys):
        code, out, _ = run_cli(capsys, "double-points", "--pairs", "2,1;1,2",
                               "--method", "model")
        assert code == 0
        assert json.loads(out)["points"] == []

    def test_methods_agree_on_many_labels(self):
        import random
        from sympl_moduli import (Label2, double_points_bruteforce,
                                  double_points_formula, validate_label2)
        rnd = random.Random(12345)
        checked = 0
        while checked < 200:
            pairs = [(rnd.randint(-9, 9), rnd.randint(-9, 9)) for _ in range(2)]
            if any(p == (0, 0) for p in pairs):
                continue
            if not validate_label2(*pairs)[0]:
                continue
            label = Label2.make(*pairs)
            assert double_points_formula(label) == double_points_bruteforce(label)
            checked += 1

    def test_absurd_tolerance_trips_invariant_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "1e-30")
        code, _, err = run_cli(capsys, "double-points", "--pairs", "4,1;1,1",
                               "--method", "model")
        assert code == 3
        assert "invariant breach" in err

    def test_underflowing_powers_exit_without_traceback(self, capsys):
        # z**200 underflows for this label: it ended in a ZeroDivisionError
        # traceback, then in a breach of the tolerance, because a side in
        # the subnormal range keeps too few bits for the direct quotient.
        # Such a point is now certified by its congruences and the
        # relation 1 - w = eta'(1 - z).
        code, out, err = run_cli(capsys, "double-points", "--pairs",
                                 "200,1;1,200", "--method", "all")
        assert code == 0
        assert "Traceback" not in err
        payload = json.loads(out)
        assert payload["m_C"] == {"formula": 19899, "roots": 19899,
                                  "model": 19899}
        assert all(pt["residual"] < 1e-9 for pt in payload["points"])

    def test_formula_computed_only_when_printed(self, capsys, monkeypatch):
        def refuse(label):
            raise AssertionError("formula computed but not printed")
        monkeypatch.setattr(invariants, "double_points_formula", refuse)
        for method in ("roots", "model"):
            code, out, _ = run_cli(capsys, "double-points", "--pairs",
                                   "4,1;1,1", "--method", method)
            assert code == 0
            assert json.loads(out)["m_C"] == {method: 1}

    @pytest.mark.parametrize("pairs, count", [("-9,-144;37,58;-28,86", 2398),
                                              ("-81,-128;83,73;-2,55", 2355)])
    def test_subnormal_power_under_a_normal_side(self, capsys, pairs, count):
        # At one point of each, z**m is subnormal (8.4e-323, 2.8e-317)
        # while its side is normal, so the direct quotient compared a
        # power with ~4 bits left: residuals 0.0294 and 6.4e-8, exit 3.
        code, out, _ = run_cli(capsys, "double-points", f"--pairs={pairs}",
                               "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == {"formula": count, "roots": count,
                                  "model": count}
        assert all(pt["residual"] < 1e-9 for pt in payload["points"])

    @pytest.mark.parametrize("pairs, count", [
        ("1,0;3,9999", 4998),
        ("4,-3419;5,-3368", 1811),
        ("1,-1254;9,2282", 6783),
        ("7,-100000000000000000000;0,12;-7,99999999999999999988", 36),
    ], ids=["Delta 9999", "Delta 3623", "Delta 13568", "entries near 1e20"])
    def test_certified_labels_exit_0(self, capsys, pairs, count):
        # Correct labels whose points failed the log-space residual that
        # certification replaced (exit 3, residuals 1.3e-9 to 3.1e5).
        code, out, _ = run_cli(capsys, "double-points", f"--pairs={pairs}",
                               "--method", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["m_C"] == {"formula": count, "roots": count,
                                  "model": count}
        assert len(payload["points"]) == 2 * count
        assert all(pt["residual"] < 1e-9 for pt in payload["points"])

    def test_loose_tolerance_ok(self, capsys, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "1e-3")
        code, out, _ = run_cli(capsys, "double-points", "--pairs", "4,1;1,1",
                               "--method", "model")
        assert code == 0
        assert json.loads(out)["residual_tolerance"] == 1e-3


class TestWalkBudget:
    """Past the Delta budget the O(Delta) routes exit 1 before any walk;
    the gcd formula still answers."""

    @pytest.mark.parametrize("argv", [
        ["double-points", "--pairs", "1025,1;1,1025", "--method", "roots"],
        ["double-points", "--pairs", "1025,1;1,1025", "--method", "model"],
        ["double-points", "--pairs", "1025,1;1,1025", "--method", "all"],
        ["invariants", "--pairs", "1025,1;1,1025"],
    ], ids=lambda argv: argv[-1])
    def test_refused(self, capsys, monkeypatch, argv):
        def no_walk(*args):
            raise AssertionError("a residue walk started past the budget")
        monkeypatch.setattr(invariants, "range", no_walk, raising=False)
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "budget" in err
        assert "Traceback" not in err

    def test_formula_answers(self, capsys):
        code, out, _ = run_cli(capsys, "double-points", "--pairs",
                               "1025,1;1,1025", "--method", "formula")
        assert code == 0
        assert json.loads(out)["m_C"] == {"formula": 524799}


def _no_work(*args):
    raise AssertionError("work started past the budget")


#: The loops behind each budget, patched to raise: trace rows, the
#: spectrum's square roots (after the generic orbit's decay constants,
#: which take square roots of their own) and enumeration candidates.
_NO_ROWS = [(curves, "fh_rows", _no_work)]
_NO_EIGENVALUES = [(spectra, "math", types.SimpleNamespace(sqrt=_no_work))]
_NO_GENERIC_EIGENVALUES = _NO_EIGENVALUES + [
    (spectra, "asymptotic_constants",
     lambda *args: spectra.AsymptoticData(zeta=1.0, kappa=1.0, sigma0=1.0))]
_NO_CANDIDATES = [(moduli, "_end_classes", _no_work)]


class TestSizeBudgets:
    """A size past its budget exits 1 with one error line and an empty
    stdout, before any work."""

    @pytest.mark.parametrize("argv,patches", [pytest.param(
        argv, patches, id=" ".join(argv)) for argv, patches in [
        (["trace", "--pair", "1,2", "--range", "1", "--samples", "1000001"],
         _NO_ROWS),
        (["trace", "--pair", "1,2", "--range", "1", "--samples", str(10 ** 20)],
         _NO_ROWS),
        (["spectrum", "--pair", "1,0", "--nmax", "1000001"],
         _NO_GENERIC_EIGENVALUES),
        (["spectrum", "--pair", "1,0", "--nmax", str(10 ** 20)],
         _NO_GENERIC_EIGENVALUES),
        (["spectrum", "--polar-m", "1", "--nmax", "1000001"], _NO_EIGENVALUES),
        (["enumerate", "--max-abs", "21"], _NO_CANDIDATES),
        (["enumerate", "--max-abs", str(10 ** 8), "--ends", "3"],
         _NO_CANDIDATES),
    ]])
    def test_refused(self, capsys, monkeypatch, tmp_path, argv, patches):
        for module, name, stub in patches:
            monkeypatch.setattr(module, name, stub)
        csv = tmp_path / "t.csv"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(csv)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "budget" in err
        assert not csv.exists()


#: Past the float range, and of 311 digits: under the entry limit at any
#: digit limit of at least 640.
HUGE = str(10 ** 310)


class TestHugeEntries:
    """An entry that must become a float and is past the float range
    exits 1 with one error line, an empty stdout and no CSV."""

    @pytest.mark.parametrize("argv", [
        ["trace", "--pair", f"1,{HUGE}", "--range", "0"],
        ["spectrum", "--pair", f"1,{HUGE}"],
        ["spectrum", "--pair", f"{HUGE},1"],
        ["spectrum", "--pair", f"1,{10 ** 200}"],
    ], ids=["trace", "spectrum p'/p", "spectrum period",
            "spectrum 2 (p'/p)^2"])
    def test_refused(self, capsys, tmp_path, argv):
        csv = tmp_path / "t.csv"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(csv)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "float range" in err
        assert not csv.exists()

    @pytest.mark.parametrize("method", ["model", "all"])
    def test_model_map_takes_them(self, capsys, method):
        # The model map certifies such a label's points by exact
        # congruences and raises z to no power, so no entry is too large.
        code, out, _ = run_cli(capsys, "double-points", "--pairs",
                               f"1,0;{HUGE},997", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["delta"] == 997
        assert set(payload["m_C"].values()) == {498}
        assert len(payload["points"]) == 2 * 498
        assert all(pt["residual"] < 1e-9 for pt in payload["points"])


#: Past the entry limit, with a square past Python's limit: 2,151 and
#: 4,301 digits at the default limit of 4,300.
B = "1" + "0" * (DIGITS + 1)


class TestEntryDigitLimit:
    """A pair entry has at most (L - 1) // 2 digits, L Python's limit on
    the digits of an int's text (4,300 by default), so that every int a
    command prints, Delta at most, has at most L digits.  A longer entry
    is refused as the reader meets it, where printing a Delta of L + 1
    digits ended five commands in a ValueError traceback."""

    @pytest.mark.parametrize("argv", [
        ["classify"], ["invariants"],
        ["double-points", "--method", "formula"],
        ["double-points", "--method", "roots"],
        ["double-points", "--method", "model"],
    ], ids=lambda argv: " ".join(argv))
    def test_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--pairs", f"{B},1;1,{B}")
        assert (code, out) == (2, "")
        assert err.startswith("parse error: --pairs must have integer entries "
                              f"of at most {DIGITS} digits, got ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_longest_entries_taken(self, capsys):
        a = "9" * DIGITS
        code, out, _ = run_cli(capsys, "classify", "--pairs", f"{a},1;1,{a}")
        assert code == 0
        assert json.loads(out)["delta"] == int(a) ** 2 - 1
        assert len(str(json.loads(out)["delta"])) == 2 * DIGITS

    def test_limit_follows_python(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert parse_pairs(f"1,{'9' * 319}") == [(1, 10 ** 319 - 1)]
            with pytest.raises(ParseError, match="at most 319 digits"):
                parse_pairs(f"1,{10 ** 319}")
        finally:
            sys.set_int_max_str_digits(limit)


class TestCosineRounding:
    """Pairs just past 2 p'^2 = 3 p^2, whose float orbit cosine would
    round onto or past +-1.  spectrum prints their angles, taken from the
    pole distance, up to the first angle within rounding of pi, which
    exits 1 with one error line, an empty stdout and no CSV.  trace of a
    positive pair whose companion root rounds onto x = -1, or lies
    within 2^-52 of it, was refused so too, since the float residues of
    that root and pole left s no digit.  Now range 0 is traced
    (TestTraceDigits) and range 1 is refused only where s, to twelve
    digits of the 50-digit oracle, overflows f, h or g."""

    @pytest.mark.parametrize("argv,why", [
        (["spectrum", "--pair=-11190938864748161,-13706044980657122"],
         "(-11190938864748161, -13706044980657122): the angle rounds onto "
         "pi"),
        (["trace", "--pair", "1201527053,1471564096", "--range", "1"],
         "f, h or g overflow a float at theta = 3.1051580867896975 "
         "(s = -308.55091981954837)"),
        (["trace", "--pair", "196658561,240856564", "--range", "1"],
         "f, h or g overflow a float at theta = 3.1051580765684297 "
         "(s = -308.5507471305099)"),
    ], ids=["spectrum", "trace", "trace-near-pole"])
    def test_refused(self, capsys, tmp_path, argv, why):
        csv = tmp_path / "x.csv"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(csv)]
            _assert_refused_row(argv[2], int(argv[4]), 0.0, why)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {why}\n")
        assert not csv.exists()

    ANGLES = [("-1201527053,1471564096", "7.59758947496e-10"),
              ("-121378881,148658162", "7.52083823524e-09"),
              ("-121378881,-148658162", "3.14159264607"),
              ("-2690393533394559,-3295045682050082", "3.14159265359")]

    @pytest.mark.parametrize("pair,theta0", ANGLES,
                             ids=[pair for pair, _ in ANGLES])
    def test_spectrum_prints_the_angle(self, capsys, pair, theta0):
        # The float cosine rounded onto +-1 (outside [-1, 1] for the
        # first pair), and the angle was refused.
        code, out, err = run_cli(capsys, "spectrum", f"--pair={pair}")
        assert (code, err) == (0, "")
        assert f'"theta0": {theta0},' in out


#: Traces that fail, each with the DomainError message of its first
#: refused row, as recorded when each row was evaluated on its own:
#: every later refused row (a different kind of failure, in the clip
#: 1e-12 case) must stay unreported, also past the first block of rows.
#: Each s is right to twelve digits of the 50-digit oracle; the three
#: that moved when a pair's pole and root became one term were 2e-15 to
#: 4.3e-15 from it, and are 1.6e-16 to 5.8e-16.
FAILING_TRACES = [
    ("--pair 1,2 --range 1 --anchor 296",
     "f and h underflow the normal floats at theta = 1.1503619915109313 "
     "(s = 293.0716698559951)"),                   # 999 of 1000 rows
    ("--pair 5,6 --range 1",
     "f, h or g overflow a float at theta = 3.141492653589793 "
     "(s = -294.10228649834846)"),                 # the last row alone
    ("--pair 1,2 --range 2 --anchor 289",
     "f and h underflow the normal floats at theta = 2.8655714228747446 "
     "(s = 289.20404450334354)"),                  # rows 551 to 999
    ("--pair 1,2 --range 2 --anchor 289 --samples 10000",
     "f and h underflow the normal floats at theta = 2.8652044355749875 "
     "(s = 289.2016530421777)"),                   # rows 5509 to 9999
    ("--pair 4,-5 --range 0 --clip 1e-12",
     "f and h underflow the normal floats at theta = 1e-12 "
     "(s = 995.1344615459021)"),                   # row 0; row 999 overflows
    ("--pair 11,14 --range 1 --clip 1e-15",
     "f, h or g overflow a float at theta = 2.9475848590509335 "
     "(s = -345.26507367496595)"),                 # the last row alone
]


def _assert_refused_row(pair, rid, anchor, message):
    """The s that a refusal of a trace row names is right to twelve
    digits of max(|s|, 1) of the 50-digit oracle at the row's angle."""
    p, pp = map(int, pair.split(","))
    refused = _REFUSED_ROW.fullmatch(f"error: {message}\n")
    rng = curves.classify_branches(p, pp)[rid]
    exact, = shadow.profile_s(p, pp, 0.5 * (rng.lo + rng.hi),
                              [float(refused[2])])
    _s_digits([float(refused[3])], [anchor + exact], (pair, rid))


class TestFailingTraces:
    @pytest.mark.parametrize("args,message", FAILING_TRACES,
                             ids=[args for args, _ in FAILING_TRACES])
    def test_first_refused_row_is_reported(self, capsys, tmp_path, args,
                                           message):
        ns = dict(zip(args.split()[::2], args.split()[1::2]))
        p, pp = map(int, ns["--pair"].split(","))
        _assert_refused_row(ns["--pair"], int(ns["--range"]),
                            float(ns.get("--anchor", 0.0)), message)
        with pytest.raises(DomainError) as exc:
            curves.integrate_profile(
                p, pp, int(ns["--range"]),
                s_anchor=float(ns.get("--anchor", 0.0)),
                n_samples=int(ns.get("--samples", 1000)),
                clip=float(ns.get("--clip", curves.DEFAULT_CLIP)))
        assert type(exc.value) is DomainError and str(exc.value) == message
        csv = tmp_path / "t.csv"
        code, out, err = run_cli(capsys, "trace", *args.split(), "--out",
                                 str(csv))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not csv.exists()


def _pell_family(p, pp, n=12):
    """The first n solutions from (p, p') under (p, p') -> (5p + 4p',
    6p + 5p'), which keeps 2 p'^2 - 3 p^2."""
    out = []
    for _ in range(n):
        out.append((p, pp))
        p, pp = 5 * p + 4 * pp, 6 * p + 5 * pp
    return out


#: Pairs at the regime boundary 2 p'^2 = 3 p^2: 2 p'^2 - 3 p^2 = 5 (three
#: ranges) and -1 (two), where poles of ds/dx and fixed angles round
#: onto each other and onto x = -1 as p grows.
PELL_PAIRS = _pell_family(1, 2) + _pell_family(1, 1)


class TestPellPairs:
    """Every range of every regime-boundary pair through trace, and every
    pair through spectrum: exit 0, or exit 1 with one error line, an
    empty stdout and no CSV; never a traceback."""

    @pytest.mark.parametrize("p,pp", PELL_PAIRS, ids=str)
    def test_exit_0_or_one_error_line(self, capsys, tmp_path, p, pp):
        csv = tmp_path / "t.csv"
        n_ranges = 3 if 2 * pp * pp > 3 * p * p else 2
        runs = [["trace", "--pair", f"{p},{pp}", "--range", str(rid),
                 "--samples", "5", "--out", str(csv)]
                for rid in range(n_ranges)]
        runs.append(["spectrum", f"--pair={p},{pp}"])
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            if code == 0:
                assert err == "", argv
                if argv[0] == "trace":
                    assert csv.read_text().count("\n") == 6
                    csv.unlink()
            else:
                assert (code, out) == (1, ""), argv
                assert err.count("\n") == 1 and err.startswith("error: ")
            assert not csv.exists()

    @pytest.mark.parametrize("pair", ["121378881,148658162",
                                      "83739041,102558961"])
    def test_merged_poles_traced(self, capsys, tmp_path, pair):
        # The first pair's companion root rounds onto the pole x = -1,
        # the second's 2 p'/p onto sqrt6, and both were refused: their
        # residues had no float value.  As one term they trace range 0
        # to twelve digits.
        p, pp = map(int, pair.split(","))
        assert _check_trace(capsys, tmp_path / "t.csv", p, pp, 0, 6) == 0


def _no_work_before_out(*args):
    raise AssertionError("work started before --out was opened")


class TestOutFile:
    """--out is opened before any work, and a file appears at its path
    only when the command prints its report."""

    @pytest.mark.parametrize("argv,module,name", [pytest.param(
        argv, module, name, id=argv[0]) for argv, module, name in [
        (["classify", "--pairs", "2,1;1,2"], moduli, "validate_label2"),
        (["invariants", "--pairs", "4,1;1,1"], invariants, "sphere_report"),
        (["trace", "--pair", "1,2", "--range", "1", "--samples", "200000"],
         curves, "integrate_profile"),
        (["enumerate", "--max-abs", "12", "--ends", "2"], moduli,
         "enumerate_labels"),
        (["double-points", "--pairs", "4,1;1,1"], moduli, "delta"),
        (["spectrum", "--pair", "1,0"], spectra, "generic_spectrum"),
        (["catalog"], catalog, "catalog_entries"),
    ]])
    @pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
    def test_unwritable_path_exits_2_before_work(
            self, capsys, monkeypatch, tmp_path, argv, module, name, where):
        monkeypatch.setattr(module, name, _no_work_before_out)
        # An empty path names no file: not stdout, nor the working
        # directory it resolves to, and the error names it as given.
        monkeypatch.chdir(tmp_path)
        path = {"missing-dir": str(tmp_path / "missing" / "x"),
                "directory": str(tmp_path), "empty": ""}[where]
        code, out, err = run_cli(capsys, *argv, "--out", path)
        assert (code, out) == (2, "")
        assert err.startswith("cannot write output: ")
        assert err.count("\n") == 1 and ".part" not in err
        assert path or err.endswith(": ''\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,patch", [
        (["trace", "--pair", "121378881,148658162", "--range", "1"], False),
        (["trace", "--pair", "1,2", "--range", "1", "--samples", "1"], False),
        (["invariants", "--pairs", "1,1"], False),
        (["invariants", "--pairs", "4,1;1,1"], True),
        (["enumerate", "--max-abs", "1"], True),
    ], ids=["trace-1", "trace-2", "invariants-1", "invariants-3",
            "enumerate-3"])
    def test_failure_leaves_the_path_as_it_was(self, capsys, monkeypatch,
                                               tmp_path, argv, patch):
        if patch:         # a formula/oracle disagreement: exit 3
            monkeypatch.setattr(
                invariants, "double_points_bruteforce",
                lambda label: invariants.double_points_formula(label) + 1)
        fresh, kept = tmp_path / "fresh", tmp_path / "kept"
        kept.write_text("earlier\n")
        for path in (fresh, kept):
            code, out, _ = run_cli(capsys, *argv, "--out", str(path))
            assert code in (1, 2, 3) and out == ""
        assert not fresh.exists()
        assert kept.read_text() == "earlier\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept"]

    def test_replaces_through_a_link_and_keeps_the_mode(self, capsys,
                                                        tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_text("earlier\n")
        target.chmod(0o640)
        link.symlink_to(target)
        code, out, _ = run_cli(capsys, "classify", "--pairs", "3,2")
        assert run_cli(capsys, "classify", "--pairs", "3,2", "--out",
                       str(link)) == (code, "", "")
        assert link.is_symlink()
        assert target.read_text() == out
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "target"]

    def test_device_is_written_directly(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--pairs", "3,2",
                               "--out", os.devnull)
        assert (code, out) == (0, "")


def _floats(node, path=()):
    """(path, value) of every float in a JSON value."""
    if isinstance(node, float):
        yield path, node
    elif isinstance(node, dict):
        for key, val in node.items():
            yield from _floats(val, (*path, key))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _floats(val, (*path, i))


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("sympl-moduli ")]


class TestTwelveDigits:
    """Every float the README's example commands print has at most
    twelve significant digits, except the z, w and residual of each
    double point, which are printed in full."""

    def test_readme_lists_every_command(self):
        assert {argv[0] for argv in _readme_commands()} == {
            "classify", "invariants", "trace", "enumerate", "double-points",
            "spectrum", "catalog"}

    @pytest.mark.parametrize("argv", _readme_commands(),
                             ids=lambda argv: " ".join(argv))
    def test_stdout_floats(self, capsys, tmp_path, argv):
        argv = [str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        for line in out.splitlines() if argv[0] == "enumerate" else [out]:
            for path, x in _floats(json.loads(line)):
                if path[:1] == ("points",) and path[2] in ("z", "w", "residual"):
                    continue
                assert float(f"{x:.12g}") == x, (path, x)


class TestSpectrum:
    def test_equatorial_orbit(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--pair", "1,0",
                               "--nmax", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["zeta"] == pytest.approx(math.sqrt(6), rel=1e-11)
        evs = [ev for ev, mult in payload["spectrum"]]
        assert 0.0 in evs
        assert any(abs(ev + math.sqrt(6)) < 1e-9 for ev in evs)

    def test_polar_no_zero(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--polar-m", "1",
                               "--nmax", "2")
        assert code == 0
        payload = json.loads(out)
        assert all(abs(ev) > 1e-6 for ev, _ in payload["spectrum"])

    def test_degenerate_angle_exit(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--pair", "0,1")
        assert code == 1
        assert "1/3" in err

    @pytest.mark.parametrize("pair", ["1,1000000000000", "-1,1000000000",
                                      "31,85", f"1,{8 * 10 ** 153}"])
    def test_steep_orbit_decay_constants(self, capsys, pair):
        # The decay constants come from the pair, so a steep orbit is not
        # taken for cos^2 = 1/3 (the first exited 1, the second was 5e-8
        # off), and each printed eigenvalue, the positive ones n^2 / (T^2
        # zeta) included, is the 50-digit one to its 12 printed digits.
        zeta, kappa, _ = shadow.decay_constants(*map(int, pair.split(",")))
        code, out, _ = run_cli(capsys, "spectrum", f"--pair={pair}")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["zeta"] - zeta) <= 1e-11 * zeta
        assert abs(payload["kappa"] - kappa) <= 1e-11 * kappa
        # With multiplicity: -zeta and the -zeta - n^2 / (T^2 zeta) tie
        # as floats, so the two lists need not agree in order.
        printed = sorted(ev for ev, mult in payload["spectrum"]
                         for _ in range(mult))
        expected = shadow.generic_spectrum(zeta, payload["period"], 5)
        assert len(printed) == len(expected) == 22
        for ev, ref in zip(printed, expected):
            assert abs(ev - ref) <= 1e-11 * abs(ref)

    def test_needs_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--pair", "1,0",
                             "--polar-m", "2")
        assert code == 2

    def test_multiplicity_uses_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--pair", "2,2", "--nmax", "0")
        assert code == 0
        assert json.loads(out)["period"] == 2


def _spectrum_draws():
    """The generic pairs of TestSpectrumDigits: 6 seeded uniform
    admissible coprime pairs per decade of |m| to 1e12; near-boundary
    pairs m < 0, m' = +-(m0(|m|) + j), one |m| per decade from 1e2 to
    1e15; the Pell pairs in every admissible sign; and defect 6's."""
    rnd = random.Random(36)
    pairs = []
    for decade in range(12):
        drawn = 0
        while drawn < 6:
            m = rnd.choice((1, -1)) * rnd.randrange(10 ** decade,
                                                   10 ** (decade + 1))
            mp = rnd.randrange(-3 * abs(m), 3 * abs(m) + 1)
            if mp and math.gcd(m, mp) == 1 and classify_pair(m, mp)[0]:
                pairs.append((m, mp))
                drawn += 1
    for decade in range(2, 16):
        m = rnd.randrange(10 ** decade, 10 ** (decade + 1))
        for j in (0, 1, 2, 3, 50):
            pairs += [(-m, s * (m0(m) + j)) for s in (1, -1)]
    for p, pp in PELL_PAIRS:
        pairs += [(sm, s * pp) for sm in (p, -p) for s in (1, -1)
                  if classify_pair(sm, s * pp)[0]]
    return pairs + [(-778756320, 953777809), (-121378881, 148658162),
                    (-3698970430319935, 4530295063963482)]


class TestSpectrumDigits:
    """ROADMAP item 21, the spectrum half: every float spectrum prints --
    theta0, zeta, kappa, sigma0 and every generic and polar eigenvalue --
    lies within one unit of its twelfth significant digit of the exact
    value from a 50-digit oracle written apart from the library.  Near
    2 m'^2 = 3 m^2 no pair with m < 0 may be refused.  The float angle's
    acos of the outer cosine, a factor 1 + 1e-11 on zeta, and the polar
    eigenvalue as the direct sum -sqrt(3/2) + n/m each fail it."""

    @staticmethod
    def _assert_digits(printed, exact, what):
        for got, want in zip(printed, exact, strict=True):
            unit = (10.0 ** (math.floor(math.log10(abs(want))) - 11)
                    if want else 0.0)
            assert abs(type(want)(got) - want) <= unit, (what, got, want)

    def test_generic(self, capsys):
        for m, mp in _spectrum_draws():
            code, out, err = run_cli(capsys, "spectrum", f"--pair={m},{mp}")
            assert (code, err) == (0, ""), (m, mp)
            payload = json.loads(out)
            consts = shadow.decay_constants(m, mp)
            self._assert_digits(
                [payload[k] for k in ("theta0", "zeta", "kappa", "sigma0")],
                [shadow.orbit_angle(m, mp), *consts], (m, mp))
            self._assert_digits(sorted(ev for ev, mult in payload["spectrum"]
                                       for _ in range(mult)),
                                shadow.generic_spectrum(consts[0], abs(m), 5),
                                (m, mp))

    def test_polar(self, capsys):
        rnd = random.Random(36)
        cases = [(881, 1079), (8721, 10681)]
        cases += [(m, rnd.randrange(0, 2 * m)) for m in
                  (rnd.randrange(1, 1001) for _ in range(10))]
        for m, n_max in cases:
            code, out, _ = run_cli(capsys, "spectrum", "--polar-m", str(m),
                                   "--nmax", str(n_max))
            assert code == 0
            spectrum = json.loads(out)["spectrum"]
            assert {mult for _, mult in spectrum} == {2}
            self._assert_digits([ev for ev, _ in spectrum],
                                shadow.polar_spectrum(m, n_max), m)


def _trace_draws():
    """The pairs of TestTraceDigits, p > 0: 2 seeded uniform admissible
    coprime pairs per decade of p to 1e12; near-boundary pairs
    p' = +-(m0(p) + j), j in (-1, 0, 50), one p per decade from 1e1 to
    1e11; and the Pell pairs, defect 10's among them, in both signs of
    p'."""
    rnd = random.Random(37)
    pairs = []
    for decade in range(12):
        drawn = 0
        while drawn < 2:
            p = rnd.randrange(10 ** decade, 10 ** (decade + 1))
            pp = rnd.randrange(-3 * p, 3 * p + 1)
            if math.gcd(p, pp) == 1 and classify_pair(p, pp)[0]:
                pairs.append((p, pp))
                drawn += 1
    for decade in range(1, 12):
        p = rnd.randrange(10 ** decade, 10 ** (decade + 1))
        for j in (-1, 0, 50):
            pp = m0(p) + j
            if math.gcd(p, pp) == 1:
                pairs += [(p, pp), (p, -pp)]
    assert set(DEFECT_10_PAIRS) <= set(PELL_PAIRS)
    return pairs + [(p, s * pp) for p, pp in PELL_PAIRS for s in (1, -1)]


#: ROADMAP defect 10's pairs, 2 p'^2 - 3 p^2 = 5 and -1, with the worst
#: |s - s_exact| / max(1, |s_exact|) it measured: 1.4e-12, 1.9e-8,
#: 1.5e-4, 1.4 and 4.7e-8, 2.0e-3, 7.3.
DEFECT_10_PAIRS = [(13, 16), (129, 158), (1277, 1564), (12641, 15482),
                   (89, 109), (881, 1079), (8721, 10681)]


#: A row fh_rows refuses, as the trace names it.
_REFUSED_ROW = re.compile(r"error: (f, h or g overflow a float|f and h "
                          r"underflow the normal floats) at theta = (\S+) "
                          r"\(s = (\S+)\)\n")


def _s_digits(printed, exact, what):
    """TestSpectrumDigits._assert_digits for s, whose unit is that of the
    twelfth digit of max(|s|, 1) (TestTraceDigits)."""
    for got, want in zip(printed, exact, strict=True):
        unit = 10.0 ** (math.floor(math.log10(max(abs(want), 1))) - 11)
        assert abs(type(want)(got) - want) <= unit, (what, got, want)


def _check_trace(capsys, path, p, pp, rid, n, anchor=0.0):
    """Run trace on one range and check it against the 50-digit shadow
    (shadow.profile_s): on exit 0 every CSV s, theta, f and h and the
    summary's theta_endpoints, s_min and s_max lie within one unit of
    their twelfth significant digit of the exact values at the rows'
    float angles (of max(|s|, 1) for s: TestTraceDigits); on exit 1 the
    refusal is the clip's, of a range no wider than two clips or with
    an end the clip rounds onto, or fh_rows', naming a row angle whose
    exact e^{-sqrt6 s} lies outside [_TINY, _E_MAX], and its s.
    Returns the exit code."""
    clip = curves.DEFAULT_CLIP
    code, out, err = run_cli(capsys, "trace", "--pair", f"{p},{pp}",
                             "--range", str(rid), "--samples", str(n),
                             "--anchor", repr(anchor), "--out", str(path))
    rng = curves.classify_branches(p, pp)[rid]
    lo, hi = rng.lo + clip, rng.hi - clip
    thetas = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    digits = TestSpectrumDigits._assert_digits
    what = (p, pp, rid)
    if code == 1 and "leaves no angles" in err:
        assert rng.hi - rng.lo <= 2 * clip, what
        return code
    if code == 1 and "rounds onto the end" in err:
        assert lo == rng.lo or hi == rng.hi, what
        return code
    mid = 0.5 * (rng.lo + rng.hi)
    if code == 1:
        refused = _REFUSED_ROW.fullmatch(err)
        assert refused and out == "", (what, err)
        theta, s = float(refused[2]), float(refused[3])
        assert theta in thetas, what
        exact = anchor + shadow.profile_s(p, pp, mid, [theta])[0]
        assert not geometry._TINY <= shadow.fh(exact, theta)[0] <= (
            geometry._E_MAX), what
        _s_digits([s], [exact], what)
        return code
    assert (code, err) == (0, ""), what
    s_exact = [anchor + ds for ds in shadow.profile_s(p, pp, mid, thetas)]
    rows = [list(map(float, line.split(",")))
            for line in path.read_text().splitlines()[1:]]
    assert len(rows) == n, what
    for (s, t, theta, phi, f, h), x, se in zip(rows, thetas, s_exact):
        _s_digits([s], [se], what)
        digits([theta, f, h], [shadow.mpf(x), *shadow.fh(se, x)[1:]], what)
        assert (t, phi) == (0.0, 0.0), what
    summary = json.loads(out)
    fixed = shadow.fixed_angles(p, pp)
    digits(summary["theta_endpoints"],
           [fixed[label] for label in summary["endpoint_labels"]], what)
    _s_digits([summary["s_min"], summary["s_max"]],
              [min(s_exact), max(s_exact)], what)
    return code


class TestTraceDigits:
    """ROADMAP item 21, the trace half: every float trace prints lies
    within one unit of its twelfth significant digit of the exact value
    at the rows' float angles, or the trace refuses the range
    (_check_trace), on every range of _trace_draws.  Near
    2 p'^2 = 3 p^2 a pole of ds/dx and its nearby root are one term of
    s, taken from the exact 2 p'^2 - 3 p^2: the float residues of the
    two, each of order p^2 / |D|, gave errors of 1.45 at
    (12641, +-15482) and 7.34 at (8721, +-10681), and fail this.

    s is held to one unit of the twelfth digit of max(|s|, 1): it is the
    difference of two log sums, so where it crosses 0 (at the anchor,
    the range's midpoint, and wherever else it does) its error is a few
    ulps of those sums, not of itself, and (2, 3) range 1 prints
    1.11022302463e-16 at the anchor row for the exact 8.2e-17.  f and h
    carry e^{-sqrt6 s}, so their twelve digits hold the absolute error
    of s to about 4e-13 anyway."""

    def test_draws(self, capsys, tmp_path):
        codes = []
        for p, pp in _trace_draws():
            for rid in range(len(curves.classify_branches(p, pp))):
                codes.append(_check_trace(capsys, tmp_path / "t.csv", p, pp,
                                          rid, 5))
        # 171 ranges traced, 130 refused: by fh_rows or the clip.
        assert (codes.count(0), codes.count(1)) == (171, 130)

    @pytest.mark.parametrize("p,pp,rid,n", [(1, 2, 1, 500), (3, 7, 0, 1000),
                                            (2, -1, 1, 200)])
    def test_golden_traces(self, capsys, tmp_path, p, pp, rid, n):
        # Row 846 of (3, 7) lies 4e-10 from the cone angle, where
        # 1 - 3 cos^2 theta cancelled and f was 6.3e-8 off.
        assert _check_trace(capsys, tmp_path / "t.csv", p, pp, rid, n) == 0

    def test_defect_10(self, capsys, tmp_path):
        # It printed s = -0.0547978579998 here.
        assert _check_trace(capsys, tmp_path / "t.csv", 12641, 15482, 0,
                            5) == 0
        row = (tmp_path / "t.csv").read_text().splitlines()[2]
        assert row.startswith("-0.162826873854,0,0.307789854105,")
        # The oracle's sum agrees with quadrature of ds/dtheta.
        rng = curves.classify_branches(12641, 15482)[0]
        mid = 0.5 * (rng.lo + rng.hi)
        want, = shadow.profile_s(12641, 15482, mid, [0.307789854105])
        assert abs(shadow.profile_s_quad(12641, 15482, mid, 0.307789854105)
                   - want) < 1e-15


class TestFlagErrors:
    """Out-of-domain flags and environment values exit 2 up front."""

    @pytest.mark.parametrize("argv, env", [
        (["enumerate", "--max-abs", "0"], {}),
        (["spectrum", "--pair", "1,0", "--nmax", "-1"], {}),
        (["spectrum", "--polar-m", "0"], {}),
        (["double-points", "--pairs", "4,1;1,1", "--method", "model"],
         {"SYMPL_MODULI_TOL": "abc"}),
        # The tolerance is read before the label is checked or any
        # double-point route runs.
        (["double-points", "--pairs", "1,2;2,1"], {"SYMPL_MODULI_TOL": "-1"}),
        # A tolerance that is not finite would switch the residual check
        # off and print a JSON-invalid Infinity or NaN.
        (["double-points", "--pairs", "4,1;1,1", "--method", "model"],
         {"SYMPL_MODULI_TOL": "inf"}),
        (["double-points", "--pairs", "4,1;1,1", "--method", "model"],
         {"SYMPL_MODULI_TOL": "1e400"}),
        (["double-points", "--pairs", "4,1;1,1", "--method", "model"],
         {"SYMPL_MODULI_TOL": "nan"}),
    ], ids=["max-abs", "nmax", "polar-m", "tol-env", "tol-env-first",
            "tol-env-inf", "tol-env-1e400", "tol-env-nan"])
    def test_exit_2_without_traceback(self, capsys, monkeypatch, argv, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "parse error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("ordering", ["2", "5", "-1"])
    def test_ordering_outside_0_1(self, capsys, ordering):
        # A three-end label has exactly two orderings, 0 and 1.
        code, out, err = run_cli(capsys, "invariants", "--pairs",
                                 "1,-1;1,4;-2,-3", "--ordering", ordering)
        assert (code, out) == (2, "")
        assert "--ordering must be an integer > -1 and < 2" in err

    def test_r_flag_is_gone(self, capsys):
        # No output depended on the model-map scale.
        code, out, _ = run_cli(capsys, "double-points", "--pairs", "4,1;1,1",
                               "--r", "0.5")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["classify", "--pairs", "2,1;1,2"],
        ["invariants", "--pairs", "4,1;1,1"],
        ["trace", "--pair", "1,2", "--range", "1", "--samples", "10"],
        ["enumerate", "--max-abs", "1"],
        ["double-points", "--pairs", "4,1;1,1"],
        ["spectrum", "--pair", "1,0"],
        ["catalog"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--out",
                                 str(tmp_path / "missing" / "x"))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestTolerance:
    """SYMPL_MODULI_TOL is read by the CLI alone."""

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "1e-3")
        assert residual_tolerance() == 1e-3
        monkeypatch.delenv("SYMPL_MODULI_TOL")
        assert residual_tolerance() == 1e-9

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("SYMPL_MODULI_TOL", "-1")
        with pytest.raises(ParseError):
            residual_tolerance()


class TestInvariantBreach:
    """A formula/oracle disagreement exits 3 with nothing on stdout."""

    @pytest.mark.parametrize("argv", [
        ["invariants", "--pairs", "4,1;1,1"],
        ["enumerate", "--max-abs", "1"],
        ["double-points", "--pairs", "4,1;1,1"],
    ], ids=lambda argv: argv[0])
    def test_exit_3(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(
            invariants, "double_points_bruteforce",
            lambda label: invariants.double_points_formula(label) + 1)
        code, out, err = run_cli(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "invariant breach" in err
        assert "Traceback" not in err


class TestViolationLists:
    """A refusal lists the rules a pair breaks joined by "; ", as
    Label2.make words a label's, never as Python writes a list."""

    @pytest.mark.parametrize("argv,want", [
        (["spectrum", "--pair=-1,0"],
         "(-1, 0) is not admissible: (a) m' = 0 requires m = 1, got m = -1; "
         "(b) 2*0^2 = 0 <= 3 = 3*(-1)^2 with m < 0"),
        (["trace", "--pair", "2,4", "--range", "0"],
         "(2, 4): (a) gcd(2, 4) = 2 != 1"),
    ], ids=["ReebOrbit.generic", "classify_branches"])
    def test_joined(self, capsys, tmp_path, argv, want):
        code, out, err = run_cli(capsys, *argv, "--out",
                                 str(tmp_path / "out"))
        assert (code, out, err) == (1, "", f"error: {want}\n")
        assert not list(tmp_path.iterdir())


class TestThreeEndRefusal:
    """A three-end set is refused with the rule it fails: its pairs' sum
    when that is not (0, 0), else its count of valid orderings."""

    @pytest.mark.parametrize("argv,want", [
        (["double-points", "--pairs", "1,0;0,1;-1,-1"],
         "[(1, 0), (0, 1), (-1, -1)] is not admissible: "
         "0 valid orderings, 2 needed"),
        (["invariants", "--pairs", "2,1;1,2;3,3"],
         "[(2, 1), (1, 2), (3, 3)] is not admissible: "
         "the pairs sum to (6, 6), not (0, 0)"),
    ], ids=["orderings", "sum"])
    def test_names_its_rule(self, capsys, argv, want):
        assert run_cli(capsys, *argv) == (1, "", f"error: {want}\n")


class TestGoldenOutput:
    """Every command of the golden set reproduces its recorded exit code
    and stdout byte for byte, so a refactor cannot silently change a
    report, the violation wording or the label order."""

    @pytest.mark.parametrize("case", GOLDEN_CASES,
                             ids=lambda c: " ".join(c["argv"]))
    def test_matches_golden(self, capsys, monkeypatch, tmp_path, case):
        # trace writes its CSV to a path relative to the repository root.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench" / "out").mkdir(parents=True)
        for name, value in case["env"].items():
            monkeypatch.setenv(name, value)
        code, out, err = run_cli(capsys, *case["argv"])
        assert code in case["exit"]
        assert out == case["stdout"]
        assert "Traceback" not in err
        assert "['" not in err and '["' not in err      # no list repr
        assert stderr_has_its_shape(code, err), (code, err)

    @pytest.mark.parametrize("argv", [
        c["argv"] for c in GOLDEN_CASES
        if c["stdout"] and c["argv"][0] != "trace"
    ] + [["enumerate", "--max-abs", "1", "--ends", "3"]],
        ids=lambda argv: " ".join(argv))
    def test_out_file_gets_stdout_bytes(self, capsys, tmp_path, argv):
        code, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "out"
        code_out, out_out, _ = run_cli(capsys, *argv, "--out", str(path))
        assert (code_out, out_out) == (code, "")
        assert path.read_bytes() == out.encode()


class TestPinnedEnumerate:
    @pytest.mark.parametrize("argv,lines,digest", [
        (["enumerate", "--max-abs", "6", "--ends", "2"], 6178,
         "5fcdafbd4fdd0b430dcbbefc67fa084a790844940813d33d3c61f214dd6bcd7a"),
        (["enumerate", "--max-abs", "5", "--ends", "3"], 273,
         "729b35c5cefc572b84feee096740f837a5bcd558cc16e21d11d3d2c709e1d388"),
    ], ids=["max-abs 6 ends 2", "max-abs 5 ends 3"])
    def test_stdout_keeps_its_bytes(self, capsys, argv, lines, digest):
        """Every report line of a larger enumeration than the golden set
        runs keeps its bytes.

        The digests were recorded at the commit before the sphere report
        was reduced to a closed form in the label's pairs, before any of
        that code changed.
        """
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPinnedPayloads:
    @pytest.mark.parametrize("argv,lines,digest", [
        (["double-points", "--pairs", "211,3;5,213", "--method", "all"],
         581279,
         "3f83df5c05d3562a1ca015ae668f4e715318c6c003efcd6aab44c6888ae01bfe"),
        (["spectrum", "--pair", "1,0", "--nmax", "20000"], 160022,
         "bd840eeda77f954f680a54c4476bf2718b43e258f749a1bb9f127294aea46a11"),
        (["spectrum", "--polar-m", "7", "--nmax", "20000"], 160010,
         "58de3b5b14712a3dd1e1a4256b6695e61af8ae7ca3575669fc4b756ecf95d247"),
    ], ids=["double-points 211,3;5,213", "spectrum generic",
            "spectrum polar"])
    def test_stdout_keeps_its_bytes(self, capsys, argv, lines, digest):
        """Payloads far larger than the golden set's keep their bytes:
        44,712 double points, and 40,002 eigenvalues of each spectrum
        case.

        The digests were recorded at the commit before the points and
        eigenvalues were written through fixed templates, before any of
        that code changed.
        """
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest


#: Ints of either sign and of any size up to 10^30.
_INTS = st.integers(-10 ** 30, 10 ** 30)
#: Every finite float: -0.0, subnormals and those at the overflow
#: limit among them.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
     -1.7976931348623157e308, 1.7976931348623155e308, 9.999999999995e307])
_PAIR = st.tuples(_INTS, _INTS)
_TRIPLE = st.tuples(_PAIR, _PAIR, _PAIR)
#: Eigenvalues where '%.12g' and repr part ways: subnormals, whose 12
#: digits are more than their repr's, integer-valued floats, which
#: '%g' writes without a point, and |ev| in [1e12, 1e16), where only
#: '%g' takes an exponent.
_EIGENVALUES = (
    _FLOATS
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
    | st.integers(-10 ** 16, 10 ** 16).map(float)
    | st.builds(math.copysign, st.floats(1e12, 1e16, exclude_max=True),
                st.sampled_from([1.0, -1.0])))


class TestTemplatesMatchJsonDumps:
    """Each fixed template writes what json.dumps writes for the same
    record; the golden set and the pinned digests cover real output."""

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(st.one_of(st.tuples(_PAIR, _PAIR), _TRIPLE),
           st.lists(_INTS, min_size=10, max_size=10),
           st.tuples(_TRIPLE, _TRIPLE))
    def test_enumerate_line(self, pairs, ints, orderings):
        # _report_json is the payload `invariants` prints.
        d, g1, g2, g3, m_c, index, aleph, e, c1, chi = ints
        report = InvariantReport(d, (g1, g2, g3), m_c, index, aleph, e, c1,
                                 chi)
        oracle = ints[2] - 1
        payload = _report_json(pairs, report, oracle)
        if len(pairs) == 2:
            orderings = None
        else:
            payload["orderings"] = [[list(p) for p in o] for o in orderings]
        got = _report_line(pairs, report, oracle, orderings)
        assert got == json.dumps(payload) + "\n"

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=30)
    @given(st.lists(st.builds(DoublePoint, _INTS, _INTS,
                              st.builds(complex, _FLOATS, _FLOATS),
                              st.builds(complex, _FLOATS, _FLOATS), _FLOATS),
                    max_size=4),
           _FLOATS, _INTS)
    def test_double_points_payload(self, points, tol, count):
        head = {"label": {"pairs": [[4, 1], [1, 1]]}, "delta": 3}
        tail = {"residual_tolerance": tol, "m_C": {"formula": count}}
        out = io.StringIO()
        _print_listed({**head, "points": [], **tail}, "points",
                      _point_items(points), out)
        want = {**head, "points": double_points_json(points), **tail}
        assert out.getvalue() == _json(want) + "\n"

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(st.lists(st.tuples(_EIGENVALUES, _INTS), max_size=4),
           st.booleans())
    def test_spectrum_payload(self, spec, generic):
        head = ({"case": "generic", "pair": [1, 0], "period": 1} if generic
                else {"case": "polar", "m": 7})
        out = io.StringIO()
        _print_listed({**head, "spectrum": []}, "spectrum",
                      _eigen_items(spec), out)
        want = {**head, "spectrum": [[_fmt(ev), mult] for ev, mult in spec]}
        assert out.getvalue() == _json(want) + "\n"


class TestPinnedTrace:
    @pytest.mark.parametrize("argv,rows,digest", [
        (["--pair", "1,2", "--range", "1", "--samples", "500"], 500,
         "222f4909ce36141ac0b77b912342c97e3476cfeb195c05e3615cb9b7fe0f60f3"),
        (["--pair", "3,7", "--range", "0", "--samples", "1000"], 1000,
         "04691f62222fd0bcd66a277f6fff3c64b0ad42ed9a08d44c6f725bea0fe5ec20"),
        (["--pair", "2,-1", "--range", "1", "--samples", "200"], 200,
         "64b38792951dee3542ffb330fedc54628304c5db5d14b00fb61da39fbb054a55"),
        (["--pair", "12,-19", "--range", "2", "--samples", "300",
          "--anchor", "0.4"], 300,
         "d2fd4f5a57dc2972c34d63b055981023db861f744bfe0b5cf70c7cce03f7b95a"),
        (["--pair", "1,0", "--range", "0"], 1000,
         "5099fb2a1239ceac7ca2d0a4989fdf268dc045ad963a866a27a47d71a5c54b56"),
    ], ids=["1,2 range 1", "3,7 range 0", "2,-1 range 1", "12,-19 range 2",
            "1,0 range 0"])
    def test_csv_keeps_its_bytes(self, capsys, tmp_path, argv, rows, digest):
        """Every CSV row of a trace keeps its bytes; the golden set checks
        only the stdout summary.

        The first three commands are the golden set's traces.  The
        digests were recorded at the commit before a pair's fixed angles
        and theta ranges were given one source, before any of that code
        changed.  (1, 2)'s was re-recorded when its companion angle came
        from the pole distance: 11 of its 500 rows moved, by at most
        1.1e-11 relative.  The three golden traces' were re-recorded when
        a pole of ds/dx and its nearby root became one term and f took
        1 - 3 cos^2 theta near the cone from the cone angle: 5, 7 and 2
        rows moved, by at most 6.1e-12, 6.3e-8 (f of the row 4e-10 from
        the cone) and 2.5e-12 relative, and every field is within half a
        unit of its twelfth digit of the 50-digit oracle
        (TestTraceDigits.test_golden_traces), where that f was 14,541
        units off.
        """
        path = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "trace", *argv, "--out", str(path))
        assert (code, err) == (0, "")
        data = path.read_bytes()
        assert data.count(b"\n") == rows + 1
        assert hashlib.sha256(data).hexdigest() == digest


class TestCatalogCommand:
    def test_dump(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        payload = json.loads(out)
        assert any(e["case_id"] == "I=aleph=0.polar-cylinder" for e in payload)
        assert all(e["index"] == e["expected_index"] for e in payload)

    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run_cli(capsys, "catalog")
        _, out2, _ = run_cli(capsys, "catalog")
        assert out1 == out2

    @pytest.mark.parametrize("field", ["expected_index", "expected_aleph"])
    def test_expected_value_missed_exits_3(self, capsys, monkeypatch, field):
        # The computed index and aleph were printed beside the expected
        # ones without a comparison: an entry off by one exited 0.
        entries = catalog.catalog_entries()
        last = entries[-1]
        monkeypatch.setattr(catalog, "catalog_entries", lambda: [
            *entries[:-1], last._replace(**{field: getattr(last, field) + 1})])
        code, out, err = run_cli(capsys, "catalog")
        assert (code, out) == (3, "")
        assert err.startswith(f"invariant breach: {last.case_id}: ")
        assert "Traceback" not in err


#: The fuzz's pools: small values, values at the edge of a flag's domain,
#: and values far past a budget or the float range.  Label entries and
#: --samples, --nmax leave out 10**6, which a budget accepts (a Delta of
#: 10**6, 10**6 trace rows or eigenvalues take seconds).
FUZZ_INTS = (0, 1, -1, 2, -2, 3, 5, 7, -7, 12, 10 ** 6, -10 ** 20, 10 ** 400)
FUZZ_SIZES = tuple(n for n in FUZZ_INTS if n != 10 ** 6)
FUZZ_FLOATS = ("0", "-1", "nan", "inf", "1e-300", "1e308", "400", "-400")
FUZZ_TOLS = (None, "abc", "-1", "1e-9")


def _fuzz_case(rnd, pell, tmp_path):
    """(argv, SYMPL_MODULI_TOL) for one fuzz call.  Each flag is present
    or not, and its value is mostly one inside its domain, so that every
    subcommand also runs to exit 0.  pell, a generator of its own (so
    that rnd draws the same sequence with or without it), swaps some
    pairs for regime-boundary PELL_PAIRS."""
    def flag(name, good, pool=FUZZ_INTS, chance=0.8):
        if rnd.random() >= chance:
            return []
        value = rnd.choice(good if rnd.random() < 0.7 else pool)
        return [f"{name}={value}"]

    def pairs(name, counts):
        n = rnd.choice(counts)
        ps = [(rnd.choice(FUZZ_SIZES), rnd.choice(FUZZ_SIZES))
              for _ in range(n)]
        ps = [pell.choice(PELL_PAIRS) if pell.random() < 0.15 else pair
              for pair in ps]
        if n == 3 and rnd.random() < 0.7:      # a sum-zero triple
            ps[2] = (-ps[0][0] - ps[1][0], -ps[0][1] - ps[1][1])
        text = ";".join(f"{m},{mp}" for m, mp in ps)
        return flag(name, [text], [text] * 4 + ["1,x", "1", "1,2;;3,4",
                                                "1,2;3,4;5,6;7,8"], 0.95)

    def out(default=None):
        if rnd.random() < 0.1:
            return ["--out", str(tmp_path / "missing" / "x")]
        return ["--out", default] if default else []

    cmd = rnd.choice(["classify", "invariants", "trace", "enumerate",
                      "double-points", "spectrum"] * 3
                     + ["catalog", "frobnicate"])
    argv = [cmd]
    if cmd == "classify":
        argv += pairs("--pairs", (1, 2, 3)) + out()
    elif cmd == "invariants":
        argv += (pairs("--pairs", (2, 3, 3)) + flag("--ordering", (0, 1))
                 + out())
    elif cmd == "trace":
        argv += (pairs("--pair", (1, 1, 1, 2))
                 + flag("--range", (0, 1, 2), chance=0.95)
                 + flag("--samples", (2, 3, 12), FUZZ_SIZES, 0.5)
                 + flag("--anchor", ("0", "-1"), FUZZ_FLOATS, 0.3)
                 + flag("--clip", ("1e-300",), FUZZ_FLOATS, 0.3)
                 + out(str(tmp_path / "t.csv")))
    elif cmd == "enumerate":
        argv += (flag("--max-abs", (0, 1, 2, 3, 21), chance=0.95)
                 + flag("--ends", (2, 3), (2, 3, 4), 0.5) + out())
    elif cmd == "double-points":
        argv += (pairs("--pairs", (2, 2, 3, 3))
                 + flag("--method", ("formula", "roots", "model", "all"),
                        ("bogus",), 0.5)
                 + out())
    elif cmd == "spectrum":
        source = rnd.choice([["--pair"]] * 4 + [["--polar-m"]] * 3
                            + [["--pair", "--polar-m"], []])
        if "--pair" in source:
            argv += pairs("--pair", (1, 1, 1, 2))
        if "--polar-m" in source:
            argv += flag("--polar-m", (1, 2, 3, 5, 7, 12), chance=0.95)
        argv += flag("--nmax", (0, 1, 2, 3, 5, 12), FUZZ_SIZES, 0.5) + out()
    elif cmd == "catalog":
        argv += out()
    if rnd.random() < 0.05:
        argv.insert(rnd.randrange(1, len(argv) + 1), "--bogus")
    return argv, rnd.choice(FUZZ_TOLS)


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


class TestFuzz:
    """main() over seeded argv for all seven subcommands: it exits with a
    documented code, no exception escapes, and a non-zero exit leaves
    stdout empty, except for classify, which prints its report also for
    an inadmissible label (exit 1)."""

    def test_seeded_argv(self, capsys, monkeypatch, tmp_path):
        rnd, pell = random.Random(20261018), random.Random(5)
        for _ in range(600):
            argv, tol = _fuzz_case(rnd, pell, tmp_path)
            if tol is None:
                monkeypatch.delenv("SYMPL_MODULI_TOL", raising=False)
            else:
                monkeypatch.setenv("SYMPL_MODULI_TOL", tol)
            try:
                code, out, _ = run_cli(capsys, *argv)
            except BaseException as exc:
                raise AssertionError(f"{argv} (tol {tol}): {exc!r}") from exc
            assert code in (0, 1, 2, 3), argv
            if code in (2, 3) or (code == 1 and argv[0] != "classify"):
                assert out == "", argv
            if code == 0:      # JSON, one document per line for enumerate
                docs = out.splitlines() if argv[0] == "enumerate" else [out]
                for doc in filter(None, docs):
                    json.loads(doc, parse_constant=_refuse_constant)
