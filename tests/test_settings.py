"""The test run's own settings, pyproject.toml's [tool.pytest.ini_options]:
a failing test is reported as a failure, and the run goes on."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

#: One failing derandomized property test and one passing test.
PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
"""


def test_failing_property_test_does_not_end_the_run(tmp_path):
    # Hypothesis's failure report sets off a DeprecationWarning in
    # mypy_extensions, which filterwarnings = ["error"] alone turned into
    # an INTERNALERROR: the run stopped with exit code 3, and the passing
    # test never ran.  The probe runs in tmp_path, where hypothesis
    # writes its .hypothesis directory even without a database.
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout[-3000:]
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout[-3000:]
