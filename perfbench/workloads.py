"""Workload table and golden checks for the binshor benchmark.

Each workload is a fixed sequence of `binshor` CLI commands.  Placeholders
in a command's argv: ``{seed}`` is the benchmark's workload seed and
``{work}`` is the run's scratch directory inside the checkout.  README.md
in this directory gives the reason for each workload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"

STANDARD_FIELDS = (163, 233, 283, 571)

# Samples for the circuit-file round trip at n = 163.  Each case simulates
# the 112,903-gate modmult circuit once (about 30 ms), so this sets how much
# of the round trip is simulation rather than synthesis, emission and parse.
EMIT_SAMPLES = 100

# ModmultPlan.counts() Toffoli totals of the seed tree.  The reference table
# in tests/test_acceptance.py has 1776 at n = 283, within its tolerance.
MODMULT_TOFFOLI = {163: 999, 233: 1448, 283: 1778, 571: 3860}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    golden: str                 # file under goldens/
    kind: str                   # "json": whole report; "pass": PASS lines
    cases: int = 0              # oracle cases the command must simulate
    circuit_file: str | None = None  # argv path whose file is checked too

    def render(self, seed: int, work: Path) -> list[str]:
        return [a.format(seed=seed, work=work) for a in self.argv]


@dataclass(frozen=True)
class Setup:
    """Data a workload loads, for the cold set-up process."""
    fields: tuple[int, ...]          # modulus sets and field_for(n)
    chains: tuple[int, ...]          # addition chains
    av_weights: bool

    def argv(self) -> list[str]:
        out = ["--fields", ",".join(str(n) for n in self.fields)]
        if self.chains:
            out += ["--chains", ",".join(str(n) for n in self.chains)]
        if self.av_weights:
            out.append("--av-weights")
        return out


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    setup: Setup
    toffoli_fields: tuple[int, ...] = ()   # ModmultPlan.counts() checked


WORKLOADS = {
    "estimate-all": Workload(
        commands=(Command(("estimate", "--field", "all"),
                          "estimate-all.0.json", "json"),),
        setup=Setup(STANDARD_FIELDS, chains=STANDARD_FIELDS, av_weights=True),
        toffoli_fields=STANDARD_FIELDS),
    # The oracle sweeps and the circuit-file round trip share one workload so
    # that each run can time enough sequences to be steady on a machine whose
    # speed drifts; README.md gives the measurements behind this.
    "validate-emit": Workload(
        commands=(
            # exhaustive: 32*32 modmult + 31 inversion + 44^2 point-add cases
            Command(("validate", "--field", "5"), "validate-emit.0.txt",
                    "pass", cases=1024 + 31 + 44 * 44),
            # sampled: --samples 10000 modmult + 10000 // 10 + 1 inversion
            Command(("validate", "--field", "16", "--seed", "{seed}"),
                    "validate-emit.1.txt", "pass", cases=10000 + 1001),
            Command(("synth", "--field", "163", "--target", "modmult",
                     "--emit", "{work}/modmult163.txt", "--emit-cap", "1000"),
                    "validate-emit.2.json", "json",
                    circuit_file="{work}/modmult163.txt"),
            Command(("validate", "--field", "163", "--circuit",
                     "{work}/modmult163.txt", "--samples", str(EMIT_SAMPLES),
                     "--seed", "{seed}"),
                    "validate-emit.3.txt", "pass", cases=EMIT_SAMPLES),
        ),
        setup=Setup((5, 16, 163), chains=(5, 16), av_weights=False),
        toffoli_fields=(163,)),
}


def _mismatch(want, got, path="$"):
    """First place where ``got`` differs from ``want``, or None.

    Keys, list lengths, ints, strings and integral floats (rounded counts)
    must match exactly; other floats to a relative 1e-9, so that a change
    which only reorders float arithmetic still matches.
    """
    if isinstance(want, dict) and isinstance(got, dict):
        if want.keys() != got.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for key, val in want.items():
            err = _mismatch(val, got[key], f"{path}.{key}")
            if err:
                return err
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return f"{path}: {len(got)} items != {len(want)}"
        for i, (w, g) in enumerate(zip(want, got)):
            err = _mismatch(w, g, f"{path}[{i}]")
            if err:
                return err
        return None
    if isinstance(want, float) and not want.is_integer() \
            and type(got) in (int, float):
        return None if math.isclose(want, got, rel_tol=1e-9) else \
            f"{path}: {got!r} != {want!r}"
    return None if want == got else f"{path}: {got!r} != {want!r}"


def circuit_summary(text: str) -> dict:
    """Register headers and gate-line count of a serialized circuit."""
    regs, gates = [], 0
    for line in text.splitlines():
        if line.startswith("reg "):
            regs.append(line)
        elif line.strip():
            gates += 1
    return {"registers": regs, "gates": gates}


def check_output(cmd: Command, rc: int, stdout: str, work: Path) -> str | None:
    """Why this command's output is wrong, or None when it matches."""
    if rc != 0:
        return f"exit code {rc}"
    want = (GOLDENS / cmd.golden).read_text().replace("{work}", str(work))
    if cmd.kind == "json":
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError as e:
            return f"stdout is not JSON: {e}"
        err = _mismatch(json.loads(want), got)
        if err:
            return f"report differs from golden at {err}"
    else:
        lines = stdout.splitlines()
        if any(line.startswith("FAIL") for line in lines):
            return "FAIL line in output"
        got = [line for line in lines if line.startswith("PASS")]
        need = [line for line in want.splitlines() if line.startswith("PASS")]
        if got != need:
            return f"PASS lines {got!r} != golden {need!r}"
    if cmd.circuit_file:
        path = Path(cmd.circuit_file.format(work=work))
        if not path.exists():
            return f"circuit file {path.name} not written"
        golden = json.loads((GOLDENS / (cmd.golden + ".circuit")).read_text())
        if circuit_summary(path.read_text()) != golden:
            return f"circuit file {path.name} differs from golden summary"
    return None
