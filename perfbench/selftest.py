"""The benchmark's own tests, at a tiny size.

    python -m pytest perfbench/selftest.py

They check that one run prints every metric ``BENCHMARK.json`` names, and
that a corrupted output is caught by the output checks and shows up in
``failed`` / ``ok_frac``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: Tiny stand-ins for the workload sizes: (households, days).
TINY = {"fleet_week": (3, 2), "market_zoned": (8, 2), "session_rolling": (3, 1)}


@pytest.fixture
def tiny(monkeypatch):
    for name, (households, days) in TINY.items():
        workload = workloads.WORKLOADS[name]
        monkeypatch.setattr(workload, "households", households)
        monkeypatch.setattr(workload, "days", days)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "SETUP_SECONDS", 0.0)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_printed(tiny, capsys, name, trace):
    code = run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out
    result = last_json(out)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert metric["name"] in out.split("\n{")[0]  # the human-readable table


def shifted(placement):
    """A copy of ``placement`` starting one interval after its window."""
    bad = copy.copy(placement)
    offer = placement.offer
    object.__setattr__(bad, "start", offer.latest_start + offer.resolution)
    return bad


def corrupted(schedule):
    """A copy of a zoned schedule with its first placement out of window."""
    results = list(schedule.results)
    index = next(i for i, result in enumerate(results) if result.schedules)
    zone_result = copy.copy(results[index])
    object.__setattr__(
        zone_result,
        "schedules",
        [shifted(zone_result.schedules[0])] + list(zone_result.schedules[1:]),
    )
    results[index] = zone_result
    return dataclasses.replace(schedule, results=tuple(results))


def test_placement_check_fires_on_a_shifted_placement(tiny, tmp_path):
    workload = workloads.WORKLOADS["market_zoned"]
    ctx = workload.setup(run.CANONICAL_SEED, tmp_path)
    schedule = workload.run_pass(ctx, None).outputs["result"].schedule
    assert workloads.placement_problems(schedule.schedules) == []
    problems = workloads.placement_problems(corrupted(schedule).schedules)
    assert len(problems) == 1 and "outside window" in problems[0]
    # The original result is untouched: the check ran on a copy.
    assert workloads.placement_problems(schedule.schedules) == []


def test_corrupted_output_shows_up_in_failed(tiny, monkeypatch, capsys):
    workload = workloads.WORKLOADS["market_zoned"]
    honest = workload.run_pass

    def corrupting(ctx, tracer):
        output = honest(ctx, tracer)
        result = output.outputs["result"]
        output.outputs["result"] = dataclasses.replace(
            result, schedule=corrupted(result.schedule)
        )
        return output

    monkeypatch.setattr(workload, "run_pass", corrupting)
    code = run.main(["--workload", "market_zoned", "--seconds", "0", "--trace", "0"])
    result = last_json(capsys.readouterr().out)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_program_sources(tmp_path):
    import subprocess

    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet_week"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
