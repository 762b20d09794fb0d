"""Self-tests for the benchmark.

Run from the repository root with ``python3 -m pytest -q pierbench/selftest.py``.
They run every workload at a tiny scale, show that the reference oracle
flags perturbed answers, check that the simulated workloads' counters
repeat exactly for a seed and differ across seeds, and keep
``BENCHMARK.json`` in step with the metrics the code prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from pierbench import run as bench  # noqa: E402
from pierbench.layers import per_layer_metrics  # noqa: E402
from pierbench.oracle import INCOMPLETE, OK, WRONG, Reference, check_groups, check_rows  # noqa: E402
from pierbench.workloads import WORKLOADS  # noqa: E402

SIMULATED = ("join", "aggregate", "standing")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_cli(*args: str) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _tiny(name: str, seed: int, steps: int):
    workload = WORKLOADS[name](seed)
    try:
        workload.setup()
        phase = bench.Phase(workload, seconds=0.0, max_steps=steps).run()
        return workload, phase, bench.summarize(workload, phase, {"raw": [0.0], "scaled": [0.0]})
    finally:
        workload.close()


# -- oracle ------------------------------------------------------------------- #
def test_oracle_flags_perturbed_rows():
    reference = Reference()
    reference.create("t", ("a", "b"))
    reference.insert("t", [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "y"}])
    expected = reference.rows("SELECT a, b FROM t")
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "y"}]
    assert check_rows(rows, ("a", "b"), expected) == OK
    assert check_rows(rows[:2], ("a", "b"), expected) == INCOMPLETE
    perturbed = [dict(rows[0], b="z")] + rows[1:]
    assert check_rows(perturbed, ("a", "b"), expected) == WRONG
    assert check_rows(rows + [rows[0]], ("a", "b"), expected) == WRONG


def test_oracle_flags_perturbed_aggregates():
    expected = [("tcp", 10, 500), ("udp", 4, 90)]
    good = [{"p": "tcp", "n": 10, "s": 500}, {"p": "udp", "n": 4, "s": 90}]
    assert check_groups(good, ("p",), ("n", "s"), expected) == OK
    assert check_groups(good[:1], ("p",), ("n", "s"), expected) == INCOMPLETE
    assert check_groups([dict(good[0], n=11), good[1]], ("p",), ("n", "s"), expected) == WRONG
    assert check_groups([dict(good[0], n=9), good[1]], ("p",), ("n", "s"), expected) == INCOMPLETE
    assert check_groups(good + [{"p": "icmp", "n": 1, "s": 1}], ("p",), ("n", "s"), expected) == WRONG


def test_oracle_top_k_is_tie_tolerant():
    expected = [("a", 5), ("b", 3), ("c", 3), ("d", 1)]
    assert check_groups([{"g": "a", "n": 5}, {"g": "c", "n": 3}], ("g",), ("n",), expected, top_k=2) == OK
    assert check_groups([{"g": "a", "n": 5}, {"g": "d", "n": 1}], ("g",), ("n",), expected, top_k=2) == INCOMPLETE
    assert check_groups([{"g": "c", "n": 3}, {"g": "a", "n": 5}], ("g",), ("n",), expected, top_k=2) == WRONG


def test_workload_check_catches_a_perturbed_answer():
    workload = WORKLOADS["join"](3)
    try:
        workload.setup()
        workload.step(0)
        workload.check()
        assert workload.records[0].verdict == OK
        record = workload.records[0]
        record.rows[0] = dict(record.rows[0], f_id=-1)
        workload.check()
        assert record.verdict == WRONG
    finally:
        workload.close()


# -- every workload at a tiny scale -------------------------------------------- #
@pytest.mark.parametrize("name,steps", [("join", 5), ("aggregate", 3), ("standing", 25), ("physical", 6)])
def test_workload_runs_tiny(name, steps):
    workload, phase, summary = _tiny(name, seed=5, steps=steps)
    assert summary["attempted"] >= 1
    assert set(summary["metrics"]) == set(bench.END_TO_END_UNITS)
    assert summary["correct"]
    if name != "aggregate":  # see README: paper-pure roots can miss the deadline
        assert summary["failed"] == 0
    # Simulated wall times are divided by the host slowdown; physical's are raw.
    extras = summary["extras"]
    ratio = extras["raw.op_wall_s.p50"] / summary["metrics"]["op_wall_s.p50"]
    assert ratio == pytest.approx(extras["host_slowdown.p50"])
    if name == "physical":
        assert extras["host_slowdown.p50"] == 1.0


def test_episodes_restart_from_a_fresh_deployment():
    workload = WORKLOADS["join"](5)
    workload.episode_steps = 2
    try:
        workload.setup()
        first = workload.network
        phase = bench.Phase(workload, seconds=1e9, max_episodes=2).run()
        assert workload.network is not first
    finally:
        workload.close()
    assert phase.episodes == 2 and [len(ops) for ops in phase.episode_records] == [2, 2]
    assert all(record.verdict == OK for record in phase.records)
    assert phase.snapshot["ops"] == 2  # counters cover the first episode only


# -- determinism of the simulated counters ------------------------------------- #
DETERMINISTIC = ("msgs_per_op", "bytes_per_op", "answer_s.p50", "first_row_s.p50")


def _counters(name: str, seed: int):
    _workload, phase, summary = _tiny(name, seed=seed, steps={"standing": 25}.get(name, 4))
    values = {key: summary["metrics"][key] for key in DETERMINISTIC}
    values["events"] = phase.snapshot["events"]
    return values


@pytest.mark.parametrize("name", SIMULATED)
def test_simulated_counters_repeat_with_seed_and_move_with_another(name):
    # Query ids come from a process-wide counter and decide placement, so
    # each run gets a fresh interpreter, as the benchmark itself does.
    script = (
        "import json, sys; sys.path[:0] = [{src!r}, {root!r}];"
        "from pierbench.selftest import _counters;"
        "print(json.dumps(_counters({name!r}, int(sys.argv[1]))))"
    ).format(src=os.path.join(ROOT, "src"), root=ROOT, name=name)

    def measure(seed: int) -> dict:
        out = subprocess.run(
            [sys.executable, "-c", script, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        return json.loads(out.stdout.strip().splitlines()[-1])

    first, again, other = measure(7), measure(7), measure(8)
    assert first == again
    assert first != other


# -- the contract ---------------------------------------------------------------- #
def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    # `aggregate` stays runnable but out of the benchmark (README.md).
    assert [w["name"] for w in spec["workloads"]] == [name for name in WORKLOADS if name != "aggregate"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_metrics()
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert max(spec["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"


def test_cli_prints_the_contract_line():
    line = _run_cli("--workload", "standing", "--seed", "2", "--seconds", "1", "--trace", "1")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(per_layer_metrics())
    share = line["metrics"]["trace.accounted_share"]["value"]
    assert abs(share - 1.0) < 0.03


def test_cli_refuses_without_the_program(tmp_path):
    os.makedirs(tmp_path / "pierbench")
    for name in ("run.py", "__init__.py"):
        with open(os.path.join(HERE, name)) as source, open(tmp_path / "pierbench" / name, "w") as target:
            target.write(source.read())
    completed = subprocess.run(
        [sys.executable, "pierbench/run.py", "--workload", "join", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
