"""Cold set-up of one workload: import binshor.cli and load the data it uses.

    python3 perfbench/setup_load.py --fields 5,16,163 [--chains 5,16] [--av-weights]

Loads the split-multiplication formulas (re-verified against carry-less
multiplication), each field's modulus set and the inner sets its large
factors need, ``field_for(n)``, and optionally addition chains and the
active-volume weights.  Nothing else runs, so the process's wall time is
the set-up cost a cold ``binshor`` command pays before computing.
"""

import argparse

# A modulus-set factor of degree above this is multiplied by an inner CRT
# plan with its own modulus set (ModmultPlan's formula/inner split).
MAX_FORMULA_DEGREE = 8


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--fields", required=True)
    ap.add_argument("--chains", default="")
    ap.add_argument("--av-weights", action="store_true")
    args = ap.parse_args()

    import binshor.cli  # noqa: F401  (importing the CLI is part of set-up)
    from binshor import pipeline
    from binshor.datafiles import load_chain, load_inner_modulus_set
    from binshor.shor import AVWeights

    pipeline.load_formulas()
    for n in (int(f) for f in args.fields.split(",")):
        modset = pipeline.modulus_set_for(n)
        for d in sorted({m.degree for m in modset.moduli
                         if m.degree > MAX_FORMULA_DEGREE}):
            load_inner_modulus_set(d)
        pipeline.field_for(n)
    for n in (int(c) for c in args.chains.split(",") if c):
        load_chain(n)
    if args.av_weights:
        AVWeights.load_default()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
