"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
in both the untraced and the traced run of every workload, and that a
deliberately corrupted expected value is reported as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run as bench_run
from common import BENCH, ROOT, Speed, latency_summary, tail_percentile
from tracing import NullTracer
from workloads import cli_mix, double_points, profile, sweep
from workloads.labels import count_labels

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(bench_run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    kind = "per_layer" if trace == "1" else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert result["metrics"].keys() == want.keys()
    for name, metric in result["metrics"].items():
        assert metric["unit"] == want[name], name
        assert isinstance(metric["value"], (int, float)), name
        assert not isinstance(metric["value"], bool), name
    if kind == "end_to_end":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_expected_label_totals_follow_from_the_rules():
    for (bound, ends), total in sweep.EXPECTED_LABELS.items():
        assert count_labels(bound, ends) == total


def test_corrupted_label_total_is_reported(monkeypatch):
    monkeypatch.setitem(sweep.EXPECTED_LABELS, (3, 2), 466)
    values, tally, _ = bench_run.measure("sweep", 1, 0.2, False, "tiny")
    result = bench_run._result(values, "end_to_end", tally)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert tally.wrong["two_end_total"] >= 1


def test_corrupted_golden_stdout_is_reported(monkeypatch):
    entry = dict(next(g for g in cli_mix.load_golden()
                      if g["argv"][:1] == ["classify"] and not g["malformed"]))
    entry["stdout"] = entry["stdout"].replace("true", "false")
    inputs = ([entry], [0])
    r = cli_mix.run(inputs, NullTracer(), Speed())
    tally = cli_mix.check(inputs, r)
    assert tally.wrong["stdout_vs_golden"] == 1
    assert tally.failed == 1


def test_corrupted_reference_integral_is_reported(monkeypatch):
    monkeypatch.setattr(profile, "_s_reference",
                        lambda *args: 1.0 + args[-1])
    inputs = profile.prepare(1, "tiny", 3)
    r = profile.run(inputs, NullTracer(), Speed())
    tally = profile.check(inputs, r)
    assert tally.wrong["s_vs_mpmath"] >= 1


def test_what_a_run_attempts_does_not_depend_on_the_seed():
    """The seed orders a run's inputs; which inputs follow from the
    run's size alone."""
    a, b = double_points.prepare(1, "full", 300), \
        double_points.prepare(2, "full", 300)
    assert a != b and sorted(a) == sorted(b)
    (_, a), (_, b) = profile.prepare(1, "tiny", 20), \
        profile.prepare(2, "tiny", 20)
    assert a != b and sorted(map(repr, a)) == sorted(map(repr, b))

    def classes(seed):
        golden, order = cli_mix.prepare(seed, "full", 18)
        kinds = [(golden[i]["malformed"], golden[i]["pinned"])
                 for i in order]
        return {k: kinds.count(k) for k in set(kinds)}

    assert classes(1) == classes(2) == {(False, False): 14,
                                        (True, False): 4}


def test_known_defects_are_tried_apart_and_never_drawn():
    labels = double_points.prepare(1, "full", 2500)
    known = double_points.known_defects("full")
    assert len(labels) == 2500 and known
    assert not set(labels) & set(known)
    _, pairs = profile.prepare(1, "full", 640)
    _, known = profile.known_defects("full")
    assert len(pairs) == 640 and known
    assert not set(map(repr, pairs)) & set(map(repr, known))
    golden, pinned = cli_mix.known_defects("full")
    assert pinned and all(golden[i]["pinned"] for i in pinned)
    assert sweep.known_defects("full") is None


def test_tail_resolves_to_a_percentile_with_ten_beyond():
    assert tail_percentile(15) == 50.0
    assert tail_percentile(1000) == 90.0
    assert tail_percentile(20000) == 99.9
    # Failures rank as missing: above every completed operation.
    lat = latency_summary([0.001] * 15 + [0.002] * 4, 11, 20.0)
    assert lat["samples"] == 30 and lat["tail_percentile"] == 50.0
    assert lat["tail_ms"] == pytest.approx(1.0)
    lat = latency_summary([0.001] * 5, 15, 20.0)
    assert lat["tail_ms"] == pytest.approx(20000.0)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "sweep", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
