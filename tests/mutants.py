"""Recorded mutation checks, replayed: each row breaks one rule of `src/`
and names the tests that must fail on the broken copy.

Run from anywhere: `python tests/mutants.py`.  pytest does not collect
this file, since its name does not match test_*.py.

First the tests of every row run once against `src/` as it is, and must
pass: a test that already fails kills nothing.  Then, per row, `src/` is
copied to a temporary directory, the row's source text (which must
occur exactly once in its file) is replaced by its mutant, and each of
the row's tests runs alone, with -x, against that copy (PYTHONPATH, and
the copy must be the package imported).  A test kills the mutant only
when pytest exits 1, some test failed; 0 is a survivor, and 2-5
(interrupted, internal error, usage error, nothing collected) kill
nothing.  A row counts only when every one of its tests kills it.  Exit
status 0 when every row counts, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str               # under src/sympl_moduli/
    source: str             # occurs exactly once in the file
    mutant: str             # what replaces it
    tests: tuple[str, ...]  # node ids; each must fail on the mutant
    origin: str             # the CHANGES.md entry that records it


MUTANTS = (
    Mutant(
        "spectra.py",
        '    if n_max < 0:\n        raise DomainError("n_max must be >= 0")',
        '    if n_max < 2:\n        raise DomainError("n_max must be >= 0")',
        ("tests/test_exports.py::TestHostileInput::"
         "test_pinned_call_is_finite_or_refused[polar_spectrum(m=1.5)]",),
        "One refusal class: its FOUND line, a pinned refusal checked by "
        "its class alone passes on an earlier refusal"),
    Mutant(
        "moduli.py",
        "    return p * qp - q * pp\n",
        "    return q * pp - p * qp\n",
        ("tests/test_invariants.py::TestDelta",),
        "One entry point for Delta: moduli.delta with its sign flipped"),
    Mutant(
        "invariants.py",
        "@functools.lru_cache(maxsize=1 << 17)\n"
        "def _walk_count(",
        "def _by_delta(walk):\n"
        "    memo = {}\n"
        "\n"
        "    def count(d, g, coset, b1):\n"
        "        if d not in memo:\n"
        "            memo[d] = walk(d, g, coset, b1)\n"
        "        return memo[d]\n"
        "    count.cache_clear, count.__wrapped__ = memo.clear, walk\n"
        "    return count\n"
        "\n"
        "\n"
        "@_by_delta\n"
        "def _walk_count(",
        ("tests/test_invariants.py::TestDoublePoints::"
         "test_oracle_memo_answers_only_for_its_own_lattice",
         "tests/test_invariants.py::TestDoublePoints::"
         "test_oracle_memo_matches_a_fresh_walk_per_label"),
        "The root-of-unity oracle walks each residue lattice once per "
        "process: its mutation check, the walk memoised by Delta alone"),
    Mutant(
        "invariants.py",
        "    return below, below + 1\n",
        "    return below + 1, below + 2\n",
        ("tests/test_invariants.py::TestEndWindings",),
        "One statement of the work budgets: ROADMAP item 34's sizing run, "
        "a polar end's windings one too high"),
    Mutant(
        "invariants.py",
        "        return (0, 1) if e.side is Side.CONVEX else (0, 0)\n",
        "        return (0, 0) if e.side is Side.CONVEX else (0, 1)\n",
        ("tests/test_invariants.py::TestEndWindings::test_parities",
         "tests/test_invariants.py::TestFredholmIndex::test_plane",
         "tests/test_catalog.py::test_every_index_matches"),
        "One reader of an end: the Morse-Bott convention swapped"),
    Mutant(
        "invariants.py",
        '    require_within("Delta", d, MAX_WALK_DELTA,\n'
        '                   "the residue walk; use the gcd formula")\n',
        "",
        ("tests/test_cli.py::TestWalkBudget::test_refused",
         "tests/test_invariants.py::TestWalkBudget::"
         "test_refused_before_any_walk"),
        "One statement of the work budgets: the walk's budget call deleted"),
    Mutant(
        "reeb.py",
        "    def as_tuple(self) -> tuple[int, int]:\n",
        '    def swapped(self) -> "EndClass":\n'
        "        return EndClass(self.m_prime, self.m)\n"
        "\n"
        "    def as_tuple(self) -> tuple[int, int]:\n",
        ("tests/test_source.py::TestReach::"
         "test_every_def_serves_a_command_or_a_listed_entry_point",
         "tests/test_source.py::TestReach::"
         "test_readme_lists_the_exports_no_command_reaches"),
        "One layout per report: a method nothing calls, EndClass.swapped"),
)


def _pytest(src: Path, *tests: str) -> int:
    """pytest's exit status on the tests, with the package read from src."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(
               [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    probe = subprocess.run(
        [sys.executable, "-c", "import sympl_moduli; "
         "print(sympl_moduli.__file__)"],
        env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    imported = Path(probe.stdout.strip()).resolve()
    if src.resolve() not in imported.parents:
        sys.exit(f"sympl_moduli is imported from {imported}, not {src}")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL, timeout=600).returncode


def _apply(row: Mutant, src: Path) -> None:
    """Write the row's mutant into the copy of src/ at src."""
    path = src / "sympl_moduli" / row.file
    text = path.read_text()
    if text.count(row.source) != 1:
        sys.exit(f"{row.file}: the source text of '{row.origin}' occurs "
                 f"{text.count(row.source)} times, not once")
    path.write_text(text.replace(row.source, row.mutant))


def main() -> int:
    clean = _pytest(ROOT / "src", *(t for row in MUTANTS for t in row.tests))
    if clean != 0:
        print(f"the rows' tests exit {clean} on src/ as it is, not 0")
        return 1
    counted = 0
    for row in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src,
                            ignore=shutil.ignore_patterns("__pycache__",
                                                          "*.egg-info"))
            _apply(row, src)
            codes = [_pytest(src, test) for test in row.tests]
        killed = all(code == 1 for code in codes)
        counted += killed
        print(f"{'killed' if killed else 'NOT KILLED'}: {row.file}, "
              f"{row.origin} (pytest exits {codes})")
    print(f"{counted} of {len(MUTANTS)} mutants killed")
    return 0 if counted == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
