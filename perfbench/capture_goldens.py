"""Write goldens/ from the current tree's outputs.

    python3 perfbench/capture_goldens.py

Runs every workload command once (seed 1) and stores its standard output,
with the scratch directory replaced by ``{work}``, and for an emitted
circuit its register headers and gate count.  Run it only on a tree whose
outputs are known good: the goldens define what the benchmark accepts.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from workloads import GOLDENS, WORKLOADS, circuit_summary  # noqa: E402


def main() -> int:
    root = HERE.parent
    env = {k: v for k, v in os.environ.items() if k != "BINSHOR_DATA"}
    env["PYTHONPATH"] = str(root / "src")
    work = HERE / "out" / "goldens-work"
    work.mkdir(parents=True, exist_ok=True)
    GOLDENS.mkdir(exist_ok=True)
    try:
        for wl in WORKLOADS.values():
            for cmd in wl.commands:
                argv = cmd.render(1, work)
                res = subprocess.run([sys.executable, "-m", "binshor.cli",
                                      *argv], env=env, cwd=root,
                                     capture_output=True, text=True,
                                     check=True)
                (GOLDENS / cmd.golden).write_text(
                    res.stdout.replace(str(work), "{work}"))
                if cmd.circuit_file:
                    text = Path(cmd.circuit_file.format(work=work)).read_text()
                    (GOLDENS / (cmd.golden + ".circuit")).write_text(
                        json.dumps(circuit_summary(text), indent=1) + "\n")
                print("captured", " ".join(argv))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
