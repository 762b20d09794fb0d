"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 pierbench/run.py --workload join --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that reports the per-layer metrics.  A human-readable
report goes to standard output first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program under test is imported from ``src/`` next to this directory;
the benchmark exits with status 2 when it is not there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# setup_s is the median of several full set-ups: at least SETUPS, more
# while they have taken under SETUP_BUDGET_S, at most SETUPS_MAX.
SETUPS = 5
SETUP_BUDGET_S = 1.0
SETUPS_MAX = 25

# Host speed.  On a shared 2-vCPU x86-64 container the same code ran up to
# ~50% slower for tens of seconds at a time, more than the bounds allow,
# so the simulated workloads (which only compute) rescale their wall times
# to a reference host speed: a fixed unit of work (HostSpeed.unit) is
# timed between operations, and each wall time is divided by the median
# of the unit's times around it over REFERENCE_UNIT_S.  The report prints
# the raw wall times beside the rescaled ones.  `physical` mostly waits on
# timers and sockets and is not rescaled.
REFERENCE_UNIT_S = 0.02  # a 2-vCPU x86-64 container ran the unit in 15-30 ms
CALIBRATE_EVERY_S = 0.5  # time the unit after a step once this much step time passed

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_wall_s.p50": "s",
    "answer_s.p50": "s",
    "first_row_s.p50": "s",
    "msgs_per_op": "count",
    "bytes_per_op": "B",
    "peak_rss_mb": "MB",
}


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(share * len(ordered)))
    return ordered[rank - 1]


def reportable(count: int, share: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return count - math.ceil(share * count) >= 10


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def resident_mb() -> float:
    """Current resident memory of this process (Linux)."""
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * resource.getpagesize() / 2**20


class HostSpeed:
    """A fixed unit of pure-Python work whose time tracks the host's speed.

    The unit makes random lookups in a dictionary of 100,000 string keys
    holding small lists.  Of the units tried, this one followed the
    simulator's own slowdowns most closely (it is bound by memory latency
    as the simulator is): it halved the spread of per-episode wall times
    on `join`, where a small cache-resident loop made it worse.  Its table
    takes about 30 MB, measured when built and left out of `peak_rss_mb`.
    """

    ENTRIES = 100_000
    LOOKUPS = 20_000

    def __init__(self) -> None:
        before = resident_mb()
        self.table = {f"key{i}": [i, str(i)] for i in range(self.ENTRIES)}
        self.keys = list(self.table)
        self.resident_mb = resident_mb() - before

    def unit(self) -> float:
        """Wall seconds of one unit."""
        table, keys, entries = self.table, self.keys, self.ENTRIES
        started = time.perf_counter()
        x, total = 7, 0
        for _ in range(self.LOOKUPS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            total += len(table[keys[x % entries]][1])
        return time.perf_counter() - started


_HOST: Optional[HostSpeed] = None


def host_speed() -> HostSpeed:
    global _HOST
    if _HOST is None:
        _HOST = HostSpeed()
    return _HOST


def workload_rss_mb() -> float:
    """Peak resident memory, less the host-speed unit's table."""
    return peak_rss_mb() - (_HOST.resident_mb if _HOST is not None else 0.0)


class Phase:
    """The timed closed loop of one workload.

    A workload runs as a series of episodes: each starts from a fresh
    deployment built from the same seed and runs ``episode_steps`` steps.
    The program keeps per-query state (finished opgraphs, the growing
    standing-query logs), so the cost of an operation depends on how many
    ran before it; with episodes every run samples the same operations at
    the same positions, however fast the host is.  A new
    episode starts only while the time left fits one more, so no episode
    is cut short.  Counters and memory are read at the end of the first
    episode, so on the simulator they are exact functions of the seed.
    Every episode's answers are checked against the reference before the
    next one replaces the deployment.
    """

    def __init__(
        self,
        workload,
        seconds: float,
        max_steps: Optional[int] = None,
        max_episodes: Optional[int] = None,
    ) -> None:
        self.workload = workload
        self.seconds = seconds
        self.max_steps = max_steps
        self.max_episodes = max_episodes
        self.steps = 0
        self.episodes = 0
        self.missing = 0
        self.records: List[Any] = []
        self.episode_records: List[List[Any]] = []
        self.episode_walls: List[float] = []  # wall seconds inside steps, per episode
        # Per episode: how much slower than the reference the host ran
        # (1.0 when the workload is not rescaled).
        self.episode_slowdown: List[float] = []
        self.op_wall = 0.0
        self.snapshot: Dict[str, float] = {}

    def run(self) -> "Phase":
        workload = self.workload
        length = workload.episode_steps
        started = time.perf_counter()
        last_episode = 0.0
        while True:
            if self.episodes:
                if self.max_steps is not None and self.steps >= self.max_steps:
                    break
                if self.max_episodes is not None and self.episodes >= self.max_episodes:
                    break
                if time.perf_counter() - started + last_episode > self.seconds:
                    break
            episode_started = time.perf_counter()
            if self.episodes:
                workload.setup()  # a fresh deployment from the same seed
            self._episode(length)
            last_episode = time.perf_counter() - episode_started
        self.wall = time.perf_counter() - started
        self.op_wall = sum(self.episode_walls)
        return self

    def _episode(self, length: int) -> None:
        workload = self.workload
        first = not self.episodes
        if first:
            start_counters = workload.counters()
        rescale = workload.simulated
        unit = host_speed().unit if rescale else None
        units = [unit()] if rescale else []
        in_steps = 0.0
        since_unit = 0.0
        index = 0
        while True:
            if index >= length:
                break
            if self.max_steps is not None and self.steps >= self.max_steps:
                break
            step_started = time.perf_counter()
            workload.step(index)
            step = time.perf_counter() - step_started
            in_steps += step
            since_unit += step
            if rescale and since_unit >= CALIBRATE_EVERY_S:
                units.append(unit())
                since_unit = 0.0
            index += 1
            self.steps += 1
        if rescale:
            units.append(unit())
        workload.check()
        if first:
            counters = workload.counters()
            self.snapshot = {key: counters[key] - start_counters[key] for key in counters}
            self.snapshot["ops"] = len(workload.records)
            self.snapshot["rss_mb"] = workload_rss_mb()
        self.episode_records.append(list(workload.records))
        self.records.extend(workload.records)
        self.missing += getattr(workload, "missing", 0)
        self.episode_walls.append(in_steps)
        self.episode_slowdown.append(statistics.median(units) / REFERENCE_UNIT_S if units else 1.0)
        self.episodes += 1

    @property
    def scaled_op_wall(self) -> float:
        return sum(wall / slow for wall, slow in zip(self.episode_walls, self.episode_slowdown))


def set_up(workload) -> Dict[str, List[float]]:
    """Set the deployment up several times: raw wall seconds of each, and
    the same rescaled to the reference host speed (simulated workloads)."""
    unit = host_speed().unit if workload.simulated else None
    units = [unit()] if unit else []
    raw: List[float] = []
    while len(raw) < SETUPS or (sum(raw) < SETUP_BUDGET_S and len(raw) < SETUPS_MAX):
        started = time.perf_counter()
        workload.setup()
        raw.append(time.perf_counter() - started)
        if unit:
            units.append(unit())
    slowdown = statistics.median(units) / REFERENCE_UNIT_S if units else 1.0
    return {"raw": raw, "scaled": [value / slowdown for value in raw]}


def grouped(phase: Phase, group: int, value: Callable[[Any, float], float]) -> List[float]:
    """The mean of ``value(record, slowdown)`` over each run of ``group``
    consecutive operations within an episode."""
    means = []
    for ops, slowdown in zip(phase.episode_records, phase.episode_slowdown):
        values = [value(record, slowdown) for record in ops]
        means.extend(
            statistics.fmean(values[start:start + group]) for start in range(0, len(values) - group + 1, group)
        )
    return means


def summarize(workload, phase: Phase, setup_times: Dict[str, List[float]]) -> Dict[str, Any]:
    """End-to-end metrics plus the report's extras."""
    from pierbench.oracle import OK, WRONG

    records = phase.records
    attempted = len(records) + phase.missing
    good = [record for record in records if record.verdict == OK]
    failed = attempted - len(good)
    wrong = sum(1 for record in records if record.verdict == WRONG)
    snapshot = phase.snapshot
    # Simulated runtime-clock metrics come from the first episode, so they
    # are exact functions of the seed; on sockets every operation counts.
    counted = phase.episode_records[0] if workload.simulated else records
    walls = [record.wall_s for record in records]
    group = workload.wall_group
    walls_scaled = grouped(phase, group, lambda record, slowdown: record.wall_s / slowdown)
    walls_raw = grouped(phase, group, lambda record, _slowdown: record.wall_s)
    completed = sum(1 for record in records if record.completed)
    answers = [record.answer_s for record in counted]
    firsts = [record.first_row_s for record in counted if record.first_row_s is not None]
    ops = max(int(snapshot["ops"]), 1)
    if workload.simulated:
        msgs_per_op = snapshot["messages"] / ops
        bytes_per_op = snapshot["bytes"] / ops
    else:
        # On sockets every episode's deployment places data differently
        # (node identifiers hash the ports the OS assigns), so the counts
        # are averaged over all episodes.
        msgs_per_op = sum(record.extra["messages"] for record in records) / max(len(records), 1)
        bytes_per_op = sum(record.extra["bytes"] for record in records) / max(len(records), 1)
    metrics = {
        "setup_s": statistics.median(setup_times["scaled"]),
        "ops_per_s": completed / phase.scaled_op_wall,
        "op_wall_s.p50": statistics.median(walls_scaled) if walls_scaled else float("nan"),
        "answer_s.p50": statistics.median(answers) if answers else float("nan"),
        "first_row_s.p50": statistics.median(firsts) if firsts else float("nan"),
        "msgs_per_op": msgs_per_op,
        "bytes_per_op": bytes_per_op,
        "peak_rss_mb": snapshot["rss_mb"],
    }
    slacks = [
        record.answer_s - record.last_row_s for record in counted if record.last_row_s is not None
    ]
    extras: Dict[str, Any] = {
        "ops": len(records),
        "counted_ops": len(counted),
        "failed_frac": failed / attempted if attempted else 1.0,
        "wrong": wrong,
        "missing_epochs": phase.missing,
        "events_per_op": snapshot["events"] / ops,
        "timed_wall_s": phase.wall,
        "in_steps_wall_s": phase.op_wall,
        "episodes": phase.episodes,
        "host_slowdown.p50": statistics.median(phase.episode_slowdown),
        "raw.setup_s": statistics.median(setup_times["raw"]),
        "raw.ops_per_s": completed / phase.op_wall,
        "raw.op_wall_s.p50": statistics.median(walls_raw) if walls_raw else float("nan"),
        "samples": {"op_wall_s": len(walls_scaled), "answer_s": len(answers), "first_row_s": len(firsts)},
        "verdicts": dict(Counter(record.verdict for record in records)),
    }
    if walls:
        extras["query_wall_s.p50"] = statistics.median(walls)
    for name, values in (("query_wall_s", walls), ("answer_s", answers), ("first_row_s", firsts)):
        if reportable(len(values), 0.9):
            extras[f"{name}.p90"] = percentile(values, 0.9)
    if slacks:
        extras["completion_slack_s.p50"] = statistics.median(slacks)
    if workload.name == "standing":
        # On standing, an operation's answer time is the epoch lag.
        extras["epoch_lag_s.p50"] = metrics["answer_s.p50"]
        if "answer_s.p90" in extras:
            extras["epoch_lag_s.p90"] = extras["answer_s.p90"]
    extras["ops_by_kind"] = dict(sorted(Counter(record.kind for record in counted).items()))
    return {
        "metrics": metrics,
        "extras": extras,
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and attempted > 0,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from pierbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    try:
        setup_times = set_up(workload)
        if trace:
            from pierbench.layers import traced_run

            return traced_run(workload, seconds, setup_times)
        phase = Phase(workload, seconds).run()
        summary = summarize(workload, phase, setup_times)
        summary["units"] = END_TO_END_UNITS
        return summary
    finally:
        workload.close()


def print_report(workload: str, summary: Dict[str, Any]) -> None:
    units = summary["units"]
    print(f"== pierbench workload={workload}")
    for name, value in summary["metrics"].items():
        print(f"{name:<44} {value:>16.6g} {units.get(name, '')}")
    for name, value in summary.get("extras", {}).items():
        print(f"  {name}: {json.dumps(value, sort_keys=True)}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("pierbench: the program (src/repro) is not in this checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from pierbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"pierbench: unknown workload {args.workload!r}; options: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(args.workload, summary)
    result = {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value, "unit": summary["units"][name]}
            for name, value in summary["metrics"].items()
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
