"""Run one binshor CLI command in-process with a span around each layer.

    python3 perfbench/tracer.py --out trace.json -- estimate --field all

The script times ``import binshor.cli`` (span ``process.import``), rebinds
the module attributes through which the CLI and the pipeline reach each
layer (``binshor.cli.simulate``, ``binshor.synth.crt_constants``,
``ModmultPlan.__init__`` and so on) to wrappers that record spans, then
runs ``binshor.cli.main(argv)`` with its output captured (span
``cli.command``).  Spans (name, start, end, parent, field) stay in memory
and are written to ``--out`` at the end with their per-layer aggregates.
One command runs per process, so each traced command pays the same import
and fills the same module caches as a cold ``binshor`` process.

    python3 perfbench/tracer.py --cases-only --out cases.json -- validate --field 5

With ``--cases-only`` the script only counts the oracle cases simulated,
through the ``circuit.simulate`` layers, with no span and no clock read;
stdout, stderr and the exit code are the command's own.  The timed cold
runs go through this mode, so every run checks that its sweeps ran.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402


def _n_arg(n, *args, **kwargs):
    return n


def _self_n(obj, *args, **kwargs):
    return obj.n


def _init_n(self, n, *args, **kwargs):
    return n


def _simulated(tracer, args, result):
    tracer.counters["circuit.cases"] += 1
    tracer.counters["circuit.gate_evals"] += len(args[0].gates)


def _simulated_planes(tracer, args, result):
    lanes = 64 * args[1].shape[1]   # each uint64 word carries 64 cases
    tracer.counters["circuit.cases"] += lanes
    tracer.counters["circuit.gate_evals"] += lanes * len(args[0].gates)


def _materialized(tracer, args, result):
    tracer.counters["synth.gates_materialized"] += len(result.gates)


def _serialized(tracer, args, result):
    tracer.counters["circuit.serialize.bytes"] += len(result.encode())


def _parsed(tracer, args, result):
    tracer.counters["circuit.parse.gates"] += len(result.gates)


def _counted(tracer, args, result):
    tracer.modmult_toffoli[args[0].n] = result.toffoli


# (span name, "module:attr" or "module:Class.attr", rebind scope, field of
# the call, hook run on the result).  Scope "all" rebinds every binshor
# module attribute bound to the function; "cli" only binshor.cli's, so the
# oracle functions are timed where the CLI checks results and not where the
# library uses them internally.
LAYERS = (
    ("formulas.load", "binshor.pipeline:load_formulas", "all", None, None),
    ("gf2.enumerate_irreducibles", "binshor.gf2:enumerate_irreducibles",
     "all", None, None),
    ("gf2.crt_constants", "binshor.gf2:crt_constants", "all", None, None),
    ("linalg.plu_decompose", "binshor.linalg:plu_decompose", "all", None,
     None),
    ("linalg.matrix_power", "binshor.linalg:BitMatrix.__pow__", "all", None,
     None),
    ("synth.modmult_plan.build", "binshor.synth:ModmultPlan.__init__", "all",
     _init_n, None),
    ("synth.modmult_counts", "binshor.synth:ModmultPlan.counts", "all",
     _self_n, _counted),
    ("synth.inversion_counts", "binshor.synth:InversionPlan.counts", "all",
     _self_n, None),
    ("shor.stream_pointadd_counts", "binshor.shor:stream_pointadd_counts",
     "all", _self_n, None),
    ("shor.pointadd_cost", "binshor.shor:pointadd_cost", "all", _self_n,
     None),
    ("shor.optimize_window", "binshor.shor:optimize_window", "all", _n_arg,
     None),
    ("physical.estimate", "binshor.physical:baseline_estimate", "all", None,
     None),
    ("physical.estimate", "binshor.physical:av_estimate", "all", None, None),
    ("synth.materialize", "binshor.synth:synth_crt_modmult", "all", None,
     _materialized),
    ("synth.materialize", "binshor.synth:synth_flt_inversion", "all", None,
     _materialized),
    ("ecc.synth_ecpointadd", "binshor.ecc:synth_ecpointadd", "all", None,
     _materialized),
    ("circuit.simulate", "binshor.circuit:simulate", "all", None, _simulated),
    ("circuit.simulate", "binshor.circuit:simulate_planes", "all", None,
     _simulated_planes),
    ("circuit.serialize", "binshor.circuit:serialize", "all", None,
     _serialized),
    ("circuit.parse", "binshor.circuit:parse", "all", None, _parsed),
    ("ecc.oracle", "binshor.ecc:ec_add_classical", "cli", None, None),
    ("ecc.oracle", "binshor.ecc:slope_for", "cli", None, None),
    ("gf2.oracle", "binshor.gf2:poly_mul_mod", "cli", None, None),
    ("gf2.oracle", "binshor.gf2:field_inv", "cli", None, None),
)


class Tracer:
    """Spans and counters of one traced process.

    A span is ``[name, start, end, parent index, field]``; ``field`` is the
    field size of the outermost enclosing call that names one, so work in
    an inner plan is charged to the field whose plan built it.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counters = Counter()
        self.modmult_toffoli = {}

    def _open(self, name, field):
        parent = self.stack[-1] if self.stack else -1
        if parent >= 0 and self.spans[parent][4] is not None:
            field = self.spans[parent][4]
        span = [name, time.perf_counter(), 0.0, parent, field]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        self.stack.pop()
        span[2] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name):
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    def wrap(self, name, fn, field_of=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            field = field_of(*args, **kwargs) if field_of else None
            span = self._open(name, field)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(self, args, result)
            return result
        return traced

    def count(self, name, fn, field_of=None, after=None):
        """Like ``wrap``, but only runs the hook: no span, no clock read."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(self, args, result)
            return result
        return counted

    def aggregate(self):
        """Self time per span name, split by field, and call counts."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        by_field = defaultdict(lambda: defaultdict(float))
        calls = Counter()
        top = 0.0
        for i, (name, start, end, parent, field) in enumerate(self.spans):
            own = end - start - child[i]
            self_s[name] += own
            calls[name] += 1
            if field is not None:
                by_field[name][str(field)] += own
            if parent < 0:
                top += end - start
        return self_s, by_field, calls, top


def install(tracer: Tracer, layers=LAYERS, wrap=None) -> list[str]:
    """Rebind each layer's entry points; return the targets not found."""
    wrap = wrap or tracer.wrap
    modules = [m for name, m in list(sys.modules.items())
               if name == "binshor" or name.startswith("binshor.")]
    cli = sys.modules["binshor.cli"]
    missing = []
    for name, target, scope, field_of, after in layers:
        modname, attr = target.split(":")
        owner = importlib.import_module(modname)
        if "." in attr:
            clsname, attr = attr.split(".")
            owner = getattr(owner, clsname, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                missing.append(target)
                continue
            setattr(owner, attr, wrap(name, orig, field_of, after))
            continue
        orig = getattr(owner, attr, None)
        targets = modules if scope == "all" else [cli]
        hits = [(m, key) for m in targets for key, val in vars(m).items()
                if val is orig] if orig is not None else []
        if not hits:
            missing.append(target)
            continue
        wrapped = wrap(name, orig, field_of, after)
        for m, key in hits:
            setattr(m, key, wrapped)
    return missing


def count_cases(argv: list[str], out: str) -> int:
    """Run one command as a cold process does, counting simulated cases."""
    import binshor.cli
    tracer = Tracer()
    missing = install(tracer, [layer for layer in LAYERS
                               if layer[0] == "circuit.simulate"],
                      tracer.count)
    rc = binshor.cli.main(argv)
    with open(out, "w") as f:
        json.dump({"cases": tracer.counters["circuit.cases"],
                   "unwrapped": missing}, f)
    return rc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", required=True)
    ap.add_argument("--cases-only", action="store_true")
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    if args.cases_only:
        return count_cases(argv, args.out)

    tracer = Tracer()
    with tracer.span("process.import"):
        import binshor.cli
    missing = install(tracer)
    out, err = io.StringIO(), io.StringIO()
    with tracer.span("cli.command"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            rc = binshor.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # the result file must still be written
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - T0
    self_s, by_field, calls, top = tracer.aggregate()
    result = {
        "argv": argv,
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "wall_s": wall,
        "unattributed_s": wall - top,
        "self_s": self_s,
        "self_s_by_field": by_field,
        "calls": calls,
        "counters": tracer.counters,
        "modmult_toffoli": tracer.modmult_toffoli,
        "unwrapped": missing,
        "spans": [[name, start - T0, end - T0, parent, field]
                  for name, start, end, parent, field in tracer.spans],
    }
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
