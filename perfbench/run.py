"""binshor benchmark: cold CLI workloads, golden checks and traced layers.

    python3 perfbench/run.py --workload estimate-all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the program under test is
``src/binshor`` of that checkout.  One closed-loop client runs the
workload's command sequence as serial cold ``binshor`` processes, one
process at a time, and checks every output against the goldens in
``goldens/``.

Each command runs as ``tracer.py --cases-only``, which counts the oracle
cases it simulates, so every run checks that each sweep ran its cases.

--trace 0 reports the end-to-end metrics: ``wall_s`` (median wall time of
one command sequence), ``setup_s`` (median wall time of a cold process that
imports binshor.cli and loads the workload's data, two of them before each
sequence) and ``peak_rss_mb``.
--trace 1 runs one cold sequence and one traced sequence (``tracer.py``) and
reports the per-layer metrics.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the exit code is 0
only when every output matched its golden and every sweep ran its cases.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracer import LAYERS  # noqa: E402
from workloads import (MODMULT_TOFFOLI, STANDARD_FIELDS,  # noqa: E402
                       WORKLOADS, Command, Workload, check_output)

# At least this many sequences per run, so wall_s is a middle value.
MIN_SEQUENCES = 3
# Cold set-ups before each sequence, and at least this many in a run, so
# that setup_s is a median over the whole run and not over one moment of it.
SETUPS_PER_SEQUENCE = 2
MIN_SETUPS = 10
# Every process of a run must end before this many seconds have passed.
RUN_DEADLINE_S = 170.0

PER_FIELD = ("gf2.crt_constants", "synth.modmult_plan.build",
             "synth.modmult_counts", "synth.inversion_counts")
# span name -> metric holding the summed self time of its spans
SELF_TIME = {
    "process.import": "process.import.s",
    "formulas.load": "formulas.load.s",
    "gf2.enumerate_irreducibles": "gf2.enumerate_irreducibles.s",
    "gf2.crt_constants": "gf2.crt_constants.s",
    "linalg.plu_decompose": "linalg.plu_decompose.s",
    "linalg.matrix_power": "linalg.matrix_power.s",
    "synth.modmult_plan.build": "synth.modmult_plan.build_s",
    "synth.modmult_counts": "synth.modmult_counts.s",
    "synth.inversion_counts": "synth.inversion_counts.s",
    "shor.stream_pointadd_counts": "shor.stream_pointadd_counts.s",
    "shor.pointadd_cost": "shor.pointadd_cost.s",
    "shor.optimize_window": "shor.optimize_window.s",
    "physical.estimate": "physical.estimate.s",
    "synth.materialize": "synth.materialize.s",
    "ecc.synth_ecpointadd": "ecc.synth_ecpointadd.s",
    "circuit.simulate": "circuit.simulate.s",
    "circuit.serialize": "circuit.serialize.s",
    "circuit.parse": "circuit.parse.s",
    "ecc.oracle": "ecc.oracle.s",
    "gf2.oracle": "gf2.oracle.s",
    "cli.command": "cli.self.s",
}
# span name -> metric holding its number of calls
CALLS = {
    "gf2.enumerate_irreducibles": "gf2.enumerate_irreducibles.calls",
    "gf2.crt_constants": "gf2.crt_constants.calls",
    "linalg.plu_decompose": "linalg.plu_decompose.calls",
    "synth.modmult_plan.build": "synth.modmult_plan.builds",
    "synth.inversion_counts": "synth.inversion_counts.calls",
    "circuit.simulate": "circuit.simulate.calls",
    "ecc.oracle": "ecc.oracle.calls",
}
COUNTERS = {"circuit.cases": "count", "circuit.gate_evals": "count",
            "synth.gates_materialized": "count",
            "circuit.serialize.bytes": "bytes", "circuit.parse.gates": "count"}
# The self times then partition each traced process's wall time, with
# unattributed.s the rest (tracer.py), so no span's time goes unreported.
_UNTABLED = {name for name, *_ in LAYERS} - SELF_TIME.keys()
if _UNTABLED:
    raise RuntimeError(f"traced layers without a self-time metric: "
                       f"{sorted(_UNTABLED)}")


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Run:
    """One benchmark invocation: its scratch directory, clock and tallies."""

    def __init__(self, workload: str, seed: int):
        self.name = workload
        self.wl: Workload = WORKLOADS[workload]
        self.seed = seed
        self.start = time.perf_counter()
        self.work = OUT / f"work-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("BINSHOR_DATA", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def process(self, argv: list[str]) -> Proc:
        """Run argv to completion; wall time and max RSS from wait4."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out_path.read_text(), err_path.read_text())

    def record(self, what: str, error: str | None):
        self.attempted += 1
        if error:
            self.failed += 1
            self.errors.append(f"{what}: {error}")
            print(f"FAILED {what}: {error}", file=sys.stderr)

    def cli(self, cmd: Command) -> Proc:
        argv = cmd.render(self.seed, self.work)
        cases_file = self.work / "cases.json"
        cases_file.unlink(missing_ok=True)
        res = self.process([sys.executable, str(HERE / "tracer.py"),
                            "--cases-only", "--out", str(cases_file), "--",
                            *argv])
        error = check_output(cmd, res.rc, res.stdout, self.work)
        if error is None and cmd.cases:
            got = json.loads(cases_file.read_text())
            if got["cases"] < cmd.cases:
                error = (f"simulated {got['cases']} cases, the sweep has "
                         f"{cmd.cases}; layers not found: {got['unwrapped']}")
        self.record(" ".join(argv), error)
        return res

    def sequence(self) -> tuple[float, float]:
        """One cold pass over the commands: summed wall time, max RSS."""
        procs = [self.cli(cmd) for cmd in self.wl.commands]
        return sum(p.wall_s for p in procs), max(p.rss_mb for p in procs)

    def setup(self) -> float:
        res = self.process([sys.executable, str(HERE / "setup_load.py"),
                            *self.wl.setup.argv()])
        self.record("set-up", None if res.rc == 0 else
                    f"exit code {res.rc}: {res.stderr.strip()[-200:]}")
        return res.wall_s


def warm_up(run: Run):
    """Compile the package's bytecode once, untimed, as an install would."""
    res = run.process([sys.executable, "-c", "import binshor.cli"])
    run.record("import binshor.cli", None if res.rc == 0 else
               f"exit code {res.rc}: {res.stderr.strip()[-200:]}")


def end_to_end(run: Run, seconds: float) -> dict:
    setups, walls, rss = [], [], 0.0
    while len(walls) < MIN_SEQUENCES or sum(walls) < seconds:
        if walls and run.remaining() < 1.5 * (
                max(walls) + max(setups) * max(SETUPS_PER_SEQUENCE,
                                               MIN_SETUPS - len(setups))):
            break
        setups += [run.setup() for _ in range(SETUPS_PER_SEQUENCE)]
        wall, peak = run.sequence()
        walls.append(wall)
        rss = max(rss, peak)
    while len(setups) < MIN_SETUPS:
        setups.append(run.setup())
    run.samples = {"wall_s": walls, "setup_s": setups}
    print(f"wall_s       {statistics.median(walls):.4f} s  median of "
          f"{len(walls)} sequences (max {max(walls):.4f} s; no tail "
          f"percentile: a tail needs at least 10 samples beyond it)")
    print(f"setup_s      {statistics.median(setups):.4f} s  median of "
          f"{len(setups)} cold set-ups")
    print(f"peak_rss_mb  {rss:.3f} MB")
    return {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }


def traced(run: Run) -> dict:
    """Per-layer metrics from one cold and one traced pass."""
    untraced, _ = run.sequence()
    merged = {"wall_s": 0.0, "unattributed_s": 0.0, "process_s": 0.0,
              "spans": 0}
    self_s, calls, counters, by_field = {}, {}, {}, {}
    toffoli, spans = {}, []
    for i, cmd in enumerate(run.wl.commands):
        argv = cmd.render(run.seed, run.work)
        out = run.work / f"trace-{i}.json"
        res = run.process([sys.executable, str(HERE / "tracer.py"),
                           "--out", str(out), "--", *argv])
        merged["process_s"] += res.wall_s
        what = "traced " + " ".join(argv)
        if res.rc != 0 or not out.exists():
            run.record(what, f"tracer exit code {res.rc}: "
                             f"{res.stderr.strip()[-200:]}")
            continue
        t = json.loads(out.read_text())
        error = check_output(cmd, t["rc"], t["stdout"], run.work)
        cases = t["counters"].get("circuit.cases", 0)
        if error is None and cases < cmd.cases:
            error = f"simulated {cases} cases, the sweep has {cmd.cases}"
        if error is None and t["unwrapped"]:
            error = f"layers not found: {t['unwrapped']}"
        run.record(what, error)
        merged["wall_s"] += t["wall_s"]
        merged["unattributed_s"] += t["unattributed_s"]
        merged["spans"] += len(t["spans"])
        for table, part in ((self_s, t["self_s"]), (calls, t["calls"]),
                            (counters, t["counters"])):
            for k, v in part.items():
                table[k] = table.get(k, 0) + v
        for k, fields in t["self_s_by_field"].items():
            for n, v in fields.items():
                by_field[(k, n)] = by_field.get((k, n), 0.0) + v
        toffoli.update(t["modmult_toffoli"])
        spans.append({"argv": argv, "spans": t["spans"]})

    for n in run.wl.toffoli_fields:
        got = toffoli.get(str(n))
        run.record(f"ModmultPlan.counts() Toffoli at n={n}",
                   None if got == MODMULT_TOFFOLI[n] else
                   f"{got} != {MODMULT_TOFFOLI[n]}")
    metrics = {}
    for span, name in SELF_TIME.items():
        metrics[name] = (self_s.get(span, 0.0), "s")
        if span in PER_FIELD:
            for n in STANDARD_FIELDS:
                metrics[f"{name}.n{n}"] = (by_field.get((span, str(n)), 0.0),
                                           "s")
    for span, name in CALLS.items():
        metrics[name] = (calls.get(span, 0), "count")
    for name, unit in COUNTERS.items():
        metrics[name] = (counters.get(name, 0), unit)
    sim_s = self_s.get("circuit.simulate", 0.0)
    metrics["circuit.gate_evals_per_s"] = (
        counters.get("circuit.gate_evals", 0) / sim_s if sim_s else 0.0, "1/s")
    metrics["unattributed.s"] = (merged["unattributed_s"], "s")
    metrics["trace.wall_s"] = (merged["wall_s"], "s")
    metrics["trace.overhead_s"] = (merged["process_s"] - untraced, "s")
    metrics["trace.spans"] = (merged["spans"], "count")

    (OUT / f"spans-{run.name}-seed{run.seed}.json").write_text(
        json.dumps({"workload": run.name, "seed": run.seed,
                    "commands": spans}))
    print(f"traced wall {merged['process_s']:.4f} s, untraced "
          f"{untraced:.4f} s: tracing overhead "
          f"{metrics['trace.overhead_s'][0]:+.4f} s over {merged['spans']} "
          f"spans")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload; writes its result file and returns it."""
    run = Run(workload, seed)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        warm_up(run)
        print(f"workload {run.name}  seed {run.seed}  trace {trace}")
        metrics = traced(run) if trace else end_to_end(run, seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    print(f"failed_ratio {run.failed}/{run.attempted} operations")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    (OUT / f"result-{run.name}-seed{run.seed}-trace{trace}.json").write_text(
        json.dumps({"workload": run.name, "seed": run.seed,
                    "errors": run.errors, "samples": run.samples, **result},
                   indent=1))
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*sorted(WORKLOADS), "all"],
                    help="'all' runs every workload in turn and prefixes "
                         "each metric with its workload name")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "binshor" / "cli.py").is_file():
        print(f"error: no binshor sources at {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = bench(args.workload, args.seed, args.seconds, args.trace)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            one = bench(name, args.seed, args.seconds, args.trace)
            result["correct"] &= one["correct"]
            result["attempted"] += one["attempted"]
            result["failed"] += one["failed"]
            result["metrics"].update(
                {f"{name}.{k}": v for k, v in one["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
