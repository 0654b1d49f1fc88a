"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNT, ITER, SPAN, Tracer, installed  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def test_self_time_subtracts_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and b [5, 7].
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 7, 10]))
    tracer.enter("a")
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.enter("b")
    tracer.exit()
    tracer.exit()
    assert tracer.calls == {"a": 1, "b": 2, "c": 1}
    assert tracer.total_s == {"a": 10, "b": 5, "c": 1}
    assert tracer.self_s == {"a": 5, "b": 4, "c": 1}
    assert tracer.root_s == 10
    assert sum(tracer.self_s.values()) == tracer.root_s
    assert tracer.edges == {(None, "a"): 1, ("a", "b"): 2, ("b", "c"): 1}


class Widget:
    def work(self, n):
        return list(range(n))


def test_installed_wraps_then_restores_and_skips_missing():
    original = Widget.work
    tracer = Tracer()
    boundaries = [
        (__name__ + ":Widget.work", "widget.work", SPAN),
        (__name__ + ":Widget.gone", "widget.gone", SPAN),
        ("no_such_module_here:f", "f", COUNT),
    ]
    with installed(tracer, boundaries) as missing:
        assert Widget().work(3) == [0, 1, 2]
        assert missing == [__name__ + ":Widget.gone",
                           "no_such_module_here:f"]
    assert Widget.work is original
    assert tracer.calls["widget.work"] == 1


def test_iterator_boundary_times_each_item():
    tracer = Tracer()
    with installed(tracer, [(__name__ + ":Widget.work", "w", ITER)]):
        assert list(Widget().work(4)) == [0, 1, 2, 3]
    # Four items plus the call that found the iterator exhausted.
    assert tracer.calls["w"] == 5
    assert tracer.calls["w.items"] == 4


def test_digest_mismatch_fails_the_operation():
    checks = workloads.Checks()
    rnd = workloads.Round("round 1", {"cell": 1.0},
                          {"cell": "a" * 64, "other": "b" * 64}, {})
    checks.run("round 1 cell", lambda: None)
    checks.run("round 1 other", lambda: None)
    workloads.Workload().check_round(
        checks, rnd, {"cell": "c" * 64, "other": "b" * 64})
    assert (checks.attempted, checks.failed) == (2, 1)
    assert "round 1 cell" in checks.failures


@pytest.fixture
def tiny_cells(monkeypatch):
    monkeypatch.setattr(workloads, "TABLE3_REFS", 40)
    monkeypatch.setattr(workloads, "SMALL_LLC_REFS", 40)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _result(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_reference_mismatch_gives_error_ratio_and_exit_code(
        tiny_cells, monkeypatch, capsys):
    wrong = {"cycle-spec": {"5": {"hpcg/Hierarchy1/baseline": "0" * 64}}}
    monkeypatch.setattr(run, "load_references", lambda: wrong)
    code = run.main(["--workload", "cycle-spec", "--seed", "5",
                     "--seconds", "0", "--trace", "0"])
    result = _result(capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["attempted"] == 6     # one set-up probe + five cells


def test_traced_rounds_match_untraced_and_counts_repeat(tiny_cells,
                                                        capsys):
    counts = []
    for _ in range(2):
        code = run.main(["--workload", "cycle-hdmr", "--seed", "3",
                         "--trace", "1"])
        result = _result(capsys)
        # The traced round is checked against the untraced round.
        assert code == 0 and result["correct"] is True
        metrics = result["metrics"]
        assert set(metrics) == set(run.PER_LAYER)
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["mem_ctrl.pick_calls"] > 0
    assert counts[0]["core.read_rank_calls"] > 0


def _bench(args, cwd, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120)


def test_refuses_repro_environment_variables():
    env = dict(os.environ, REPRO_ENGINE="heap")
    out = _bench(["--workload", "soak", "--seconds", "1"], ROOT,
                 env)
    assert out.returncode == 2
    assert out.stdout == ""
    assert "REPRO_ENGINE" in out.stderr


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(["--workload", "soak", "--seconds", "1"],
                 tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
