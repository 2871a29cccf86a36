"""The benchmark tracer (perfbench/tracer.py) finds every layer it times.

The tracer rebinds each layer's entry point by its ``module:attr`` or
``module:Class.attr`` name; a rename in the package would leave that layer
untimed.  This resolves the names with the tracer's own ``install``, using
a wrap that returns each function unchanged, and reads the tracer without
writing its bytecode next to it.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import binshor.cli  # noqa: F401  (install reads it from sys.modules)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def resolve(target):
    modname, attr = target.split(":")
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    missing = tracer.install(tracer.Tracer(), wrap=lambda name, fn, *hooks: fn)
    assert missing == []


def test_field_hooks_read_the_field_size_argument():
    # a hook that takes the field size as argument ``n`` reads it from the
    # same position as the layer's own ``n``
    positional = (inspect.Parameter.POSITIONAL_ONLY,
                  inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for _, target, _, field_of, _ in load_tracer().LAYERS:
        if field_of is None:
            continue
        hook = [p.name for p in inspect.signature(field_of).parameters.values()
                if p.kind in positional]
        layer = [p.name for p in inspect.signature(resolve(target))
                 .parameters.values() if p.kind in positional]
        if "n" in hook:
            assert "n" in layer and layer.index("n") == hook.index("n"), target


def test_every_traced_layer_is_a_function_of_its_own():
    # the tracer rebinds every name bound to a layer's function, so two
    # layers on one function would wrap it twice and count each call twice
    # (synth.gates_materialized, say).  This is why synth_crt_modmult,
    # synth_flt_inversion, synth_ecpointadd and stream_pointadd_counts stay
    # functions of their own over emit_over_layout and count_plan.
    seen = {}
    for _, target, *_ in load_tracer().LAYERS:
        fn = resolve(target)
        assert id(fn) not in seen, (target, seen.get(id(fn)))
        seen[id(fn)] = target
