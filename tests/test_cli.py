import hashlib
import json
import math
import random
import shlex
import types
from pathlib import Path

import pytest

from sympl_moduli import curves, invariants, moduli
from sympl_moduli.cli import main, parse_pairs
from sympl_moduli.errors import ParseError


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

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "classify", "--pairs", "1,2,3")
        assert code == 2
        assert "parse error" in err


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
        # -I -S: no site packages and no PYTHON* variables; -B: no .pyc
        # files written.
        import pathlib
        import subprocess
        import sys
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
                 "before = set(sys.modules); import sympl_moduli; "
                 "print(*sorted(set(sys.modules) - before)); "
                 "print('dataclasses' in sys.modules)")
        out = subprocess.run(
            [sys.executable, "-B", "-I", "-S", "-c", probe, src],
            capture_output=True, text=True, check=True, timeout=60)
        loaded, has_dataclasses = out.stdout.splitlines()
        assert "sympl_moduli" in loaded.split()
        foreign = [m for m in loaded.split()
                   if m.partition(".")[0] != "sympl_moduli"
                   and m.partition(".")[0] not in sys.stdlib_module_names]
        assert foreign == []
        assert has_dataclasses == "False"

    @staticmethod
    def _loaded_after(statement):
        """The sympl_moduli submodules loaded once `statement` has run in
        a fresh -I -S -B interpreter, on the probe's last stdout line."""
        import pathlib
        import subprocess
        import sys
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        probe = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                 f"{statement}\n"
                 "print(*sorted(m for m in sys.modules "
                 "if m.startswith('sympl_moduli.')))")
        out = subprocess.run(
            [sys.executable, "-B", "-I", "-S", "-c", probe, src],
            capture_output=True, text=True, check=True, timeout=60)
        return set(out.stdout.splitlines()[-1].split())

    def test_import_loads_no_command_module(self):
        loaded = self._loaded_after("import sympl_moduli")
        assert not loaded & {"sympl_moduli.moduli", "sympl_moduli.invariants",
                             "sympl_moduli.model_maps",
                             "sympl_moduli.catalog"}

    def test_classify_loads_only_what_it_runs(self):
        loaded = self._loaded_after(
            "from sympl_moduli import cli\n"
            "try:\n"
            "    cli.main(['classify', '--pairs', '2,1;1,2'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code")
        assert "sympl_moduli.moduli" in loaded
        assert not loaded & {"sympl_moduli.invariants",
                             "sympl_moduli.model_maps",
                             "sympl_moduli.catalog"}

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
        # Such a side is now compared in log space.
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
        monkeypatch.setattr(invariants, "_solve_at", no_walk)
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
_NO_ROWS = [(curves, "fh_at", _no_work)]
_NO_EIGENVALUES = [(invariants, "math", types.SimpleNamespace(sqrt=_no_work))]
_NO_GENERIC_EIGENVALUES = _NO_EIGENVALUES + [
    (invariants, "asymptotic_constants",
     lambda *args: invariants.AsymptoticData(zeta=1.0, kappa=1.0))]
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


HUGE = str(10 ** 400)


class TestHugeEntries:
    """An entry that must become a float and is past the float range
    exits 1 with one error line, an empty stdout and no CSV."""

    @pytest.mark.parametrize("argv", [
        ["trace", "--pair", f"1,{HUGE}", "--range", "0"],
        ["spectrum", "--pair", f"1,{HUGE}"],
        ["spectrum", "--pair", f"{HUGE},1"],
        ["double-points", "--pairs", f"1,0;{HUGE},997", "--method", "model"],
        ["double-points", "--pairs", f"1,0;{HUGE},997", "--method", "all"],
    ], ids=["trace", "spectrum p'/p", "spectrum period", "model", "all"])
    def test_refused(self, capsys, tmp_path, argv):
        csv = tmp_path / "t.csv"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(csv)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "float range" in err
        assert not csv.exists()


class TestCosineRounding:
    """A pair just past 2 p'^2 = 3 p^2 whose orbit cosine rounds outside
    [-1, 1] exits 1 with one error line, an empty stdout and no CSV."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--pair=-1201527053,1471564096"],
        ["trace", "--pair", "1201527053,1471564096", "--range", "0"],
    ], ids=["spectrum", "trace"])
    def test_refused(self, capsys, tmp_path, argv):
        csv = tmp_path / "x.csv"
        if argv[0] == "trace":
            argv = [*argv, "--out", str(csv)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.count("\n") == 1
        assert err.startswith("error: ") and "outside [-1, 1]" in err
        assert not csv.exists()


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

    def test_needs_exactly_one_source(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--pair", "1,0",
                             "--polar-m", "2")
        assert code == 2

    def test_multiplicity_uses_gcd(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--pair", "2,2", "--nmax", "0")
        assert code == 0
        assert json.loads(out)["period"] == 2


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
    ], ids=["max-abs", "nmax", "polar-m", "tol-env", "tol-env-first"])
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
        assert "invalid choice" in err

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


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "cli_golden.json"
GOLDEN_CASES = json.loads(GOLDEN.read_text())


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


class TestPinnedTrace:
    @pytest.mark.parametrize("argv,rows,digest", [
        (["--pair", "1,2", "--range", "1", "--samples", "500"], 500,
         "313315b1283d9b7e17563ad62646232e03bf8f7dd2a51a682dbb4b1de2140e5f"),
        (["--pair", "3,7", "--range", "0", "--samples", "1000"], 1000,
         "5e16fc6d3c10351a1146ed90ecf7b69b8ad0d54811f8de586d61e61a9bc27df2"),
        (["--pair", "2,-1", "--range", "1", "--samples", "200"], 200,
         "9c2753ebffb2d78fdc6c02a0a0468e6c7eb5cdf5e13cbd145f038dadeec8ccd4"),
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
        changed.
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


#: The fuzz's pools: small values, values at the edge of a flag's domain,
#: and values far past a budget or the float range.  Label entries and
#: --samples, --nmax leave out 10**6, which a budget accepts (a Delta of
#: 10**6, 10**6 trace rows or eigenvalues take seconds).
FUZZ_INTS = (0, 1, -1, 2, -2, 3, 5, 7, -7, 12, 10 ** 6, -10 ** 20, 10 ** 400)
FUZZ_SIZES = tuple(n for n in FUZZ_INTS if n != 10 ** 6)
FUZZ_FLOATS = ("0", "-1", "nan", "inf", "1e-300", "1e308", "400", "-400")
FUZZ_TOLS = (None, "abc", "-1", "1e-9")


def _fuzz_case(rnd, tmp_path):
    """(argv, SYMPL_MODULI_TOL) for one fuzz call.  Each flag is present
    or not, and its value is mostly one inside its domain, so that every
    subcommand also runs to exit 0."""
    def flag(name, good, pool=FUZZ_INTS, chance=0.8):
        if rnd.random() >= chance:
            return []
        value = rnd.choice(good if rnd.random() < 0.7 else pool)
        return [f"{name}={value}"]

    def pairs(name, counts):
        n = rnd.choice(counts)
        ps = [(rnd.choice(FUZZ_SIZES), rnd.choice(FUZZ_SIZES))
              for _ in range(n)]
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


class TestFuzz:
    """main() over seeded argv for all seven subcommands: it exits with a
    documented code, no exception escapes, and a non-zero exit leaves
    stdout empty, except for classify, which prints its report also for
    an inadmissible label (exit 1)."""

    def test_seeded_argv(self, capsys, monkeypatch, tmp_path):
        rnd = random.Random(20261018)
        for _ in range(600):
            argv, tol = _fuzz_case(rnd, tmp_path)
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
