"""What the benchmark under bench/ uses of the package still exists.

The benchmark imports the package and reads a few record shapes; a
change that drops or reshapes one of them would otherwise show only
when the benchmark runs.  The imported names are read from the
benchmark's sources with ast, so this follows the benchmark as it
changes; the shapes are the ones its workloads read.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sympl_moduli as sm

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _package_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) for every name a bench file imports from
    the package; name is "" for a plain ``import module``."""
    out = []
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 0
                    and node.module
                    and node.module.split(".")[0] == "sympl_moduli"):
                out += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, a.name, "") for a in node.names
                        if a.name.split(".")[0] == "sympl_moduli"]
    return out


IMPORTS = _package_imports()


def test_the_benchmark_imports_the_package():
    assert {name for _, module, name in IMPORTS if module == "sympl_moduli"}


@pytest.mark.parametrize("where,module,name", IMPORTS,
                         ids=[f"{f}: from {m} import {n}" if n
                              else f"{f}: import {m}"
                              for f, m, n in IMPORTS])
def test_imported_name_exists(where, module, name):
    mod = importlib.import_module(module)
    if name:
        assert (hasattr(mod, name)
                or importlib.util.find_spec(f"{module}.{name}") is not None)


def test_sweep_shapes():
    label3 = next(iter(sm.enumerate_labels(3, 3)))
    assert all(isinstance(p, sm.EndClass) for p in label3.pairs)
    assert all(p.as_tuple() == tuple(p) for p in label3.pairs)
    ordered = sm.OrderedLabel3(label3, label3.orderings()[0])
    rep = sm.sphere_report(ordered)
    assert isinstance(rep.m_c, int) and isinstance(rep.delta, int)
    label2 = sm.enumerate_labels(3, 2)[0]
    assert sm.sphere_report(label2).m_c == sm.double_points_bruteforce(label2)


def test_double_points_shapes():
    label = sm.Label2.make((2, 1), (1, 2))
    points = sm.phi_double_points(sm.ModelMapParams(label=label, r=10.0))
    assert len(points) == 2 * sm.double_points_formula(label)
    assert all(p.residual < 1e-9 for p in points)


def test_profile_shapes():
    trace = sm.integrate_profile(1, 2, 0, n_samples=3, clip=1e-4)
    assert all(isinstance(x, float) for row in trace.samples
               for x in (row.f, row.s, row.theta))
    lo, hi = trace.samples[0].theta, trace.samples[-1].theta
    assert lo < trace.spec.anchor_angle() < hi


def test_import_times_list_curves():
    # The benchmark's import_ms reads the sympl_moduli.curves line of
    # `python -X importtime -c "import sympl_moduli"`; the package keeps
    # that import eager until the probe names the submodules it times.
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sympl_moduli"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True, timeout=60)
    modules = [line.rpartition("|")[2].strip()
               for line in out.stderr.splitlines()]
    assert "sympl_moduli.curves" in modules


def test_cli_shape(capsys):
    # cli_mix calls cli.main(argv) in process and expects SystemExit.
    from sympl_moduli import cli
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--pairs", "2,1;1,2"])
    assert exc.value.code == 0
    assert capsys.readouterr().out
