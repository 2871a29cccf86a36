import itertools
import json

import pytest

import binshor.cli as cli
from binshor.cli import main
from binshor.pipeline import (field_for, inversion_plan, modmult_plan,
                              pointadd_plan)
from helpers import (inversion_sweep_by_case, modmult_sweep_by_case,
                     pointadd_sweep_by_case)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_synth_modmult_163(capsys):
    rc, out, _ = run(capsys, "synth", "--field", "163", "--target", "modmult",
                     "--counts-only")
    assert rc == 0
    report = json.loads(out)
    assert report["counts"]["toffoli"] == 999


def test_synth_ecpointadd_emit_roundtrip(tmp_path, capsys):
    path = tmp_path / "pa.txt"
    rc, out, _ = run(capsys, "synth", "--field", "4", "--target", "ecpointadd",
                     "--curve-a", "0", "--curve-b", "1", "--emit", str(path))
    assert rc == 0
    from binshor.circuit import parse
    from binshor.ecc import synth_ecpointadd
    from binshor.pipeline import pointadd_plan

    circ = parse(path.read_text())
    assert circ == synth_ecpointadd(pointadd_plan(4, 0, 1))


def test_synth_missing_formula_file_reports_path(tmp_path, capsys, monkeypatch):
    # a data dir with modulus sets but no formula files: the error names
    # the file that could not be found
    import shutil

    from binshor.datafiles import data_dir

    shutil.copytree(data_dir() / "modsets", tmp_path / "modsets")
    shutil.copy(data_dir() / "chains.txt", tmp_path / "chains.txt")
    monkeypatch.setenv("BINSHOR_DATA", str(tmp_path))
    import binshor.pipeline as pipeline

    pipeline.clear_caches()
    try:
        rc, out, err = run(capsys, "synth", "--field", "163", "--target",
                           "modmult", "--counts-only")
        assert rc != 0
        assert "formulas/d" in err
    finally:
        monkeypatch.delenv("BINSHOR_DATA")
        pipeline.clear_caches()


def test_emit_cap_is_checked_before_the_circuit_is_built(tmp_path, monkeypatch,
                                                         capsys):
    def unbuildable(*args):
        raise AssertionError("circuit built before the emit cap was checked")

    monkeypatch.setattr(cli, "emit_over_layout", unbuildable)
    rc, out, err = run(capsys, "synth", "--field", "4", "--target",
                       "ecpointadd", "--emit", str(tmp_path / "pa.txt"),
                       "--emit-cap", "10")
    assert rc == 2
    assert out == ""
    assert err == ("refusing to emit 50-qubit circuit (cap 10); use "
                   "--counts-only or raise --emit-cap\n")
    assert list(tmp_path.iterdir()) == []


def _write_modmult_circuit(path, n):
    from binshor.circuit import serialize
    from binshor.pipeline import modmult_plan
    from binshor.synth import synth_crt_modmult

    path.write_text(serialize(synth_crt_modmult(modmult_plan(n))))


# lines that the circuit parser rejects, each read as line 2 of a circuit
# file, with the reason it reports: wrong arities, a reg line with an
# extra token, qubit indices that are not ASCII decimal digits, and
# registers and gates that the circuit itself rejects
MALFORMED_LINES = {
    "cnot-three-qubits": ("CNOT q[0] q[1] q[2]", "CNOT takes 2 qubits, got 3"),
    "x-trailing-token": ("X q[0] junk", "X takes 1 qubit, got 2"),
    "swap-three-qubits": ("SWAP q[0] q[1] q[2]", "SWAP takes 2 qubits, got 3"),
    "ccx-four-qubits": ("CCX q[0] q[1] q[2] q[3]",
                        "CCX takes 3 qubits, got 4"),
    "ccxu-four-qubits": ("CCXU q[0] q[1] q[2] q[3]",
                         "CCXU takes 3 qubits, got 4"),
    "ccx-two-qubits": ("CCX q[0] q[1]", "CCX takes 3 qubits, got 2"),
    "reg-extra-token": ("reg b 3 input extra",
                        "reg takes a name, a width and a kind"),
    "qubit-underscore": ("CNOT q[1_0] q[1]", "bad qubit token 'q[1_0]'"),
    "qubit-plus-sign": ("CNOT q[+1] q[2]", "bad qubit token 'q[+1]'"),
    "qubit-minus-sign": ("X q[-1]", "bad qubit token 'q[-1]'"),
    "qubit-non-ascii-digit": ("X q[\u0661]", "bad qubit token 'q[\u0661]'"),
    "reg-width-underscore": ("reg b 1_0 input", "bad register width '1_0'"),
    "reg-width-plus-sign": ("reg b +2 output", "bad register width '+2'"),
    "reg-width-non-ascii-digit": ("reg b \u0662 input",
                                  "bad register width '\u0662'"),
    "unknown-gate": ("FOO q[1]", "unknown gate 'FOO'"),
    "qubit-out-of-range": ("CNOT q[0] q[99]",
                           "qubit 99 out of range (width 12)"),
    "duplicate-qubit": ("CNOT q[1] q[1]", "duplicate qubit in gate: (1, 1)"),
    "duplicate-register": ("reg a 3 input", "duplicate register name 'a'"),
    "register-width-zero": ("reg b 0 input", "register b must have width >= 1"),
    "register-kind": ("reg b 1 bogus", "unknown register kind 'bogus'"),
}


def test_malformed_lines_are_reported_from_a_file_at_any_chunk_size(
        tmp_path, monkeypatch):
    import binshor.circuit as circuit
    from binshor.circuit import ParseError, parse

    for line, reason in MALFORMED_LINES.values():
        path = tmp_path / "bad.txt"
        path.write_text(f"reg a 12 input\n{line}\n", encoding="utf-8")
        for chunk in (1, 5, 1 << 16):
            monkeypatch.setattr(circuit, "_READ_BYTES", chunk)
            with open(path, "rb") as f, pytest.raises(ParseError) as e:
                parse(f)
            assert str(e.value) == f"line 2: {reason}"


def test_a_byte_that_is_not_utf8_is_reported_by_its_line(
        tmp_path, monkeypatch, capsys):
    # the n = 163 multiplier file with 0xff inserted at byte 135,015, past
    # the first 64 KiB chunk: line 7,276 at any chunk size
    import binshor.circuit as circuit

    path = tmp_path / "modmult163.txt"
    _write_modmult_circuit(path, 163)
    data = path.read_bytes()
    assert data[:135_015].count(b"\n") == 7_275
    path.write_bytes(data[:135_015] + b"\xff" + data[135_015:])
    for chunk in (1, 5, 1 << 16):
        monkeypatch.setattr(circuit, "_READ_BYTES", chunk)
        rc, out, err = run(capsys, "validate", "--field", "163", "--circuit",
                           str(path))
        assert (rc, out) == (2, "")
        assert err == "error: line 7276: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("argv, message, text", [
    (["estimate", "--field", "5"], "no window size", None),
    (["landscape", "--field", "163", "--precomp", "200"], "no window size",
     None),
    (["validate", "--mode", "sampled", "--samples", "0"], "--samples", None),
    (["synth", "--field", "4", "--emit", "{missing}/x.txt"], "{missing}/x.txt",
     None),
    # a 12-qubit (n = 4) multiplier checked as a field-5 or field-16 one
    (["validate", "--field", "5", "--circuit", "{modmult4}"],
     "needs at least 15", None),
    (["validate", "--field", "16", "--circuit", "{modmult4}", "--samples",
      "5"], "needs at least 48", None),
    *((["validate", "--field", "4", "--circuit", "{bad}"],
       f"error: line 2: {reason}\n", f"reg a 12 input\n{line}\n")
      for line, reason in MALFORMED_LINES.values()),
    # a multi-controlled NOT is emitted lowered and has no line of its own
    (["validate", "--field", "4", "--circuit", "{bad}"],
     "error: line 2: unknown gate 'MCX'\n",
     "reg a 12 input\nMCX +q[0] -q[1] q[2]\n"),
    # curve coefficients that are not elements of GF(2^n)
    (["validate", "--field", "4", "--curve-a", "1f"], "a = 0x1f", None),
    (["synth", "--field", "4", "--target", "ecpointadd", "--curve-a", "1f",
      "--counts-only"], "a = 0x1f", None),
    (["validate", "--field", "3", "--curve-b", "10"], "b = 0x10", None),
    # the curve is checked at every n, not only where the point addition
    # is swept
    (["validate", "--field", "16", "--curve-a", "1ffff", "--mode", "sampled",
      "--samples", "20"], "a = 0x1ffff", None),
    (["validate", "--field", "16", "--curve-b", "0", "--mode", "sampled",
      "--samples", "20"], "b must be nonzero", None),
    # physical parameters must be finite
    (["estimate", "--field", "163", "--cycle", "nan"], "cycle time", None),
    (["estimate", "--field", "163", "--cycle", "inf"], "cycle time", None),
    (["estimate", "--field", "163", "--delay", "inf"], "delay", None),
    (["estimate", "--field", "163", "--delay", "nan"], "delay", None),
    # finite parameters whose estimate is not
    (["estimate", "--field", "163", "--delay", "1e-320"], "module count",
     None),
    (["estimate", "--field", "163", "--cycle", "1e306", "--arch", "baseline",
      "--precomp", "0"], "runtime", None),
    (["estimate", "--field", "163", "--delay", "1e300"], "module count", None),
    (["estimate", "--field", "163", "--delay", "1e-310"], "runtime", None),
], ids=["estimate-empty-window", "landscape-empty-window", "zero-samples",
        "emit-missing-dir", "narrow-circuit-exhaustive",
        "narrow-circuit-sampled", *MALFORMED_LINES, "mcx-line",
        "curve-a-degree-validate",
        "curve-a-degree-synth", "curve-b-degree-validate",
        "curve-a-degree-validate-16", "curve-b-zero-validate-16",
        "cycle-nan", "cycle-inf", "delay-inf", "delay-nan",
        "delay-module-count-overflow", "cycle-runtime-overflow",
        "delay-module-count-underflow", "delay-runtime-underflow"])
def test_bad_input_exits_2_with_one_line(argv, message, text, tmp_path,
                                         capsys):
    missing = tmp_path / "missing"
    modmult4 = tmp_path / "modmult4.txt"
    _write_modmult_circuit(modmult4, 4)
    bad = tmp_path / "bad.txt"
    if text is not None:
        bad.write_text(text, encoding="utf-8")
    argv = [a.format(missing=missing, modmult4=modmult4, bad=bad)
            for a in argv]
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert len(err.strip().splitlines()) == 1
    assert message.format(missing=missing) in err
    assert ".tmp" not in err
    assert out == ""   # rejected before any check or report is printed


@pytest.mark.parametrize("target, n", [
    *itertools.product(["modmult", "inversion", "inversion-noclear",
                        "ecpointadd"], [4, 5, 8]),
    ("modmult", 163)])
def test_emitted_file_is_the_serialized_circuit(target, n, tmp_path, capsys):
    # the file is written as the gates are emitted; its bytes and the
    # report's gate count are those of the materialized circuit
    from binshor.circuit import serialize
    from binshor.ecc import synth_ecpointadd
    from binshor.synth import synth_crt_modmult, synth_flt_inversion

    path = tmp_path / "c.txt"
    rc, out, _ = run(capsys, "synth", "--field", str(n), "--target", target,
                     "--emit", str(path), "--emit-cap", "1000")
    assert rc == 0
    circ = {"modmult": lambda: synth_crt_modmult(modmult_plan(n)),
            "inversion": lambda: synth_flt_inversion(inversion_plan(n)),
            "inversion-noclear":
                lambda: synth_flt_inversion(inversion_plan(n, False)),
            "ecpointadd": lambda: synth_ecpointadd(pointadd_plan(n))}[target]()
    assert path.read_bytes() == serialize(circ).encode()
    assert json.loads(out)["gates"] == len(circ.gates)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt"]


def test_failed_emission_leaves_no_file(tmp_path, monkeypatch, capsys):
    # an emitter that raises once the file has been partly written
    import binshor.synth as synth
    from binshor.gf2 import GF2Error

    path = tmp_path / "mm.txt"
    tmp = tmp_path / "mm.txt.tmp"
    kmult = synth.emit_kmult
    written = []

    def failing(*args):
        if tmp.stat().st_size > 100_000:
            written.append(tmp.stat().st_size)
            raise GF2Error("emitter failed")
        kmult(*args)

    monkeypatch.setattr(synth, "emit_kmult", failing)
    rc, out, err = run(capsys, "synth", "--field", "163", "--target",
                       "modmult", "--emit", str(path), "--emit-cap", "1000")
    assert written
    assert rc == 2
    assert out == ""
    assert err == "error: emitter failed\n"
    assert list(tmp_path.iterdir()) == []


CENSUS_LINE = ("PASS  point addition census  {'equality-test': 9, "
               "'addition': 8, 'n-toffoli': 30, 'controlled-addition': 6, "
               "'inversion': 4, 'multiplication': 8, "
               "'controlled-const-addition': 1, 'squaring': 2}")


def test_validate_toy_curve_passes(capsys):
    # the census line is printed whole, in the order its groups begin
    for args in (("--field", "4"), ("--field", "3", "--curve-a", "1")):
        rc, out, _ = run(capsys, "validate", *args)
        assert rc == 0
        assert "PASS  point addition exhaustive" in out
        assert out.splitlines()[-1] == CENSUS_LINE


def test_validate_corrupted_circuit_reports_counterexample(tmp_path, capsys):
    path = tmp_path / "modmult3.txt"
    _write_modmult_circuit(path, 3)
    lines = path.read_text().splitlines()
    first_cnot = next(i for i, line in enumerate(lines)
                      if line.startswith("CNOT"))
    retargeted = lines.copy()
    retargeted[first_cnot] = f"X {lines[first_cnot].split()[1]}"
    deleted = lines[:first_cnot] + lines[first_cnot + 1:]
    for corrupted, counterexample in (
            (retargeted, "input=000000000 got=110000000 want=000000000"),
            (deleted, "input=010000000 got=110000000 want=010000000")):
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(corrupted) + "\n")
        rc, out, _ = run(capsys, "validate", "--field", "3", "--circuit",
                         str(bad))
        assert rc == 1
        assert out == ("FAIL  circuit file vs modmult oracle  counterexample "
                       + counterexample + "\n")


def test_validate_circuit_file_sweeps_prior_target(tmp_path, capsys):
    # deleting the first CNOT only breaks the multiplier on nonzero prior
    # target contents h, so an exhaustive sweep with h = 0 alone passes it
    path = tmp_path / "modmult4.txt"
    _write_modmult_circuit(path, 4)
    lines = path.read_text().splitlines()
    first_cnot = next(i for i, line in enumerate(lines)
                      if line.startswith("CNOT"))
    path.write_text("\n".join(lines[:first_cnot] + lines[first_cnot + 1:])
                    + "\n")
    rc, out, _ = run(capsys, "validate", "--field", "4", "--circuit",
                     str(path))
    assert rc == 1
    assert out.startswith("FAIL  circuit file vs modmult oracle  "
                          "counterexample input=")


def _drop_middle_gate(synth):
    def synth_without_one_gate(plan):
        circ = synth(plan)
        del circ.gates[len(circ.gates) // 2]
        return circ
    return synth_without_one_gate


@pytest.mark.parametrize("synth, line, mode", [
    ("synth_crt_modmult",
     "FAIL  modmult exhaustive  counterexample f=0x0 g=0x8 h=0x0 -> 0xa0", ()),
    ("synth_flt_inversion", "FAIL  inversion exhaustive  f=0x1 got 0x0 want 0x1",
     ()),
    ("synth_ecpointadd", "FAIL  point addition exhaustive (16^2 pairs)  "
                         "P1=(0,1) P2=(x^3+x,x^2+x) out=0x8016046a2c", ()),
    ("synth_ecpointadd", "FAIL  point addition sampled (50 pairs)  "
                         "P1=(x^3+x^2+x+1,x^3) P2=(x^3+x^2,x^3+x) "
                         "out=0x800204ac46",
     ("--mode", "sampled", "--samples", "50")),
], ids=["modmult", "inversion", "pointadd", "pointadd-sampled"])
def test_validate_sweeps_catch_a_dropped_gate(synth, line, mode, monkeypatch,
                                              capsys):
    # the batched sweeps must still reach and report a broken circuit
    import binshor.cli as cli

    monkeypatch.setattr(cli, synth, _drop_middle_gate(getattr(cli, synth)))
    rc, out, _ = run(capsys, "validate", "--field", "4", *mode)
    assert rc == 1
    fails = [s for s in out.splitlines() if s.startswith("FAIL")]
    assert fails == [line]


def test_validate_requires_the_inversion_temp_slot_at_zero(monkeypatch,
                                                           capsys):
    # the advertised inversion interface ends with |0>^n in the temp slot
    import binshor.cli as cli

    synth = cli.synth_flt_inversion

    def dirty_temp_slot(plan):
        circ = synth(plan)
        fw = circ.reg("f")
        circ.cnot(fw[0], plan.slots(fw, circ.reg("w"))[plan.temp_slot][0])
        return circ

    monkeypatch.setattr(cli, "synth_flt_inversion", dirty_temp_slot)
    rc, out, _ = run(capsys, "validate", "--field", "4")
    assert rc == 1
    fails = [s for s in out.splitlines() if s.startswith("FAIL")]
    assert fails == ["FAIL  inversion exhaustive  f=0x1 got 0x1 want 0x1 "
                     "temp 0x1"]


def test_validate_cap_falls_back_to_sampled(capsys):
    rc, out, _ = run(capsys, "validate", "--field", "16", "--mode",
                     "exhaustive", "--samples", "50", "--curve-a", "1")
    assert "refusing exhaustive" in out
    assert "sampled" in out
    assert rc == 0


def test_validate_sampled_mode_is_honoured(capsys):
    # n = 4 is under the exhaustive cap, but --mode sampled asks for samples
    rc, out, _ = run(capsys, "validate", "--field", "4", "--mode", "sampled",
                     "--samples", "50")
    assert rc == 0
    assert "PASS  modmult sampled (50)" in out.splitlines()
    assert "PASS  point addition sampled (50 pairs)" in out.splitlines()
    assert "exhaustive" not in out


def test_estimate_reproduces_physical_headline(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, _, _ = run(capsys, "estimate", "--field", "163", "--arch", "both",
                   "--precomp", "0", "--out", str(out_path))
    assert rc == 0
    rows = json.loads(out_path.read_text())
    baseline = next(r for r in rows if r["architecture"] == "baseline"
                    and r["cycle"] == 1e-6)
    assert baseline["d"] == 24
    av = next(r for r in rows if r["architecture"] == "active-volume"
              and r["delay"] == 1e-6)
    assert av["d"] == 22
    assert abs(av["device_size"] - 2058) <= 1


def test_estimate_empty_scenarios_warns(capsys):
    rc, out, err = run(capsys, "estimate", "--field", "", "--precomp", "0")
    assert rc == 0
    assert "empty scenario" in err


def test_estimate_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "estimate", "--field", "163", "--precomp", "0", "--arch",
        "baseline", "--out", str(a))
    run(capsys, "estimate", "--field", "163", "--precomp", "0", "--arch",
        "baseline", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_landscape_minima_233(tmp_path, capsys):
    out_path = tmp_path / "landscape.csv"
    rc, _, _ = run(capsys, "landscape", "--field", "233", "--out", str(out_path))
    assert rc == 0
    rows = [line.split(",") for line in
            out_path.read_text().splitlines()[1:]]
    toffoli = {int(s): float(t) for s, t, _ in rows}
    av = {int(s): float(a) for s, _, a in rows}
    assert min(toffoli, key=toffoli.get) == 13
    assert min(av, key=av.get) == 14


# -- the three contracts: met by each circuit, broken by one more gate --------

def _mutants(circ, mutations):
    """Yield each (gate, *qubits) of ``mutations`` while ``circ`` ends with
    that one extra gate."""
    for gate, *qubits in mutations:
        getattr(circ, gate)(*qubits)
        yield (gate, *qubits)
        circ.gates.pop()


def test_modmult_contract_clauses():
    plan = modmult_plan(4)
    layout = plan.layout()
    circ = cli.synth_crt_modmult(plan)
    cases = list(itertools.product(range(16), repeat=3))

    def sweep():
        return cli.modmult_sweep(circ, layout, field_for(4).p, cases)

    assert sweep() is None
    for mutation in _mutants(circ, [("x", layout.reg("f")[0]),
                                    ("x", layout.reg("h")[3])]):
        assert sweep() is not None, mutation


def test_inversion_contract_clauses():
    plan = inversion_plan(4)
    layout = plan.layout()
    circ = cli.synth_flt_inversion(plan)
    slots = plan.slots(layout.reg("f"), layout.reg("w"))
    vals = list(range(1, 16))
    assert cli.inversion_sweep(plan, circ, vals) is None
    for mutation in _mutants(circ, [("x", slots[0][1]),
                                    ("x", slots[plan.result_slot][0]),
                                    ("x", slots[plan.temp_slot][3])]):
        assert cli.inversion_sweep(plan, circ, vals) is not None, mutation


def test_pointadd_contract_clauses():
    plan = pointadd_plan(4, 0, 1)
    layout = plan.layout()
    circ = cli.synth_ecpointadd(plan)
    pts = plan.curve.points()
    pairs = list(itertools.product(range(len(pts)), repeat=2))
    assert cli.pointadd_sweep(plan, circ, pts, pairs) is None
    x1, y1, x2, lr = (layout.reg(name) for name in ("x1", "y1", "x2", "lr"))
    mutations = [("x", q) for q in layout.reg("flags")]
    mutations += [("x", layout.reg("lam")[0]), ("x", layout.reg("s")[0]),
                  ("x", layout.reg("w")[-1]), ("cnot", x1[0], x2[0]),
                  ("cnot", y1[1], lr[1])]
    for mutation in _mutants(circ, mutations):
        assert cli.pointadd_sweep(plan, circ, pts, pairs) is not None, mutation


def test_pointadd_contract_needs_the_ladder_back_at_0():
    # the last CCXU of the first MCX ladder (the x1 == x2 test of stage 1)
    # returns its first wire to 0; without it the whole-state sweep must fail
    plan = pointadd_plan(4, 0, 1)
    circ = cli.synth_ecpointadd(plan)
    anc0 = plan.layout().reg("ladder")[0]
    last = next(i for i, g in enumerate(circ.gates)
                if g[0] == "CCXU" and g[3] == anc0)
    del circ.gates[last]
    pts = plan.curve.points()
    pairs = list(itertools.product(range(len(pts)), repeat=2))
    assert cli.pointadd_sweep(plan, circ, pts, pairs) is not None


# -- the plane checks report what the per-case sweeps do ----------------------

def test_modmult_sweep_is_the_per_case_sweep():
    plan = modmult_plan(4)
    layout = plan.layout()
    circ = cli.synth_crt_modmult(plan)
    f, g, h = (layout.reg(name) for name in "fgh")
    cases = list(itertools.product(range(16), repeat=3))
    p = field_for(4).p
    # each extra gate breaks some lanes only, and not from lane 0
    for mutation in itertools.chain([None], _mutants(circ, [
            ("cnot", f[1], h[2]), ("ccx", f[2], g[3], g[0]),
            ("cnot", h[3], f[0])])):
        got = cli.modmult_sweep(circ, layout, p, cases)
        assert got == modmult_sweep_by_case(circ, layout, p, cases), mutation
        assert got[0] > 0 if mutation else got is None


@pytest.mark.parametrize("mutation", [
    ("f", 1, "temp", 0),      # a dirty temp slot
    ("result", 1, "f", 0),    # f not restored
    ("f", 1, "result", 2),    # a wrong result
], ids=["dirty-temp", "f-not-restored", "wrong-result"])
def test_inversion_mutants_get_the_per_case_counterexample(mutation,
                                                           monkeypatch,
                                                           capsys):
    # one CNOT more, from a bit that is 0 in the first lanes: the CLI line
    # of the plane check is the one the per-case sweep gives
    plan = inversion_plan(4)
    slots = plan.slots(*map(plan.layout().reg, ("f", "w")))
    named = {"f": slots[0], "temp": slots[plan.temp_slot],
             "result": slots[plan.result_slot]}
    src, i, dst, j = mutation
    synth = cli.synth_flt_inversion
    circs = []

    def mutated(plan):
        circ = synth(plan)
        circ.cnot(named[src][i], named[dst][j])
        circs.append(circ)
        return circ

    monkeypatch.setattr(cli, "synth_flt_inversion", mutated)
    rc, out, _ = run(capsys, "validate", "--field", "4")
    assert rc == 1
    vals = list(range(1, 16))
    k, got, want, temp = inversion_sweep_by_case(plan, circs[0], vals)
    line = ("FAIL  inversion exhaustive  f={:#x} got {:#x} want {:#x}".format(
        vals[k], got, want) + (f" temp {temp:#x}" if temp else ""))
    assert [s for s in out.splitlines() if s.startswith("FAIL")] == [line]
    assert k > 0


def test_pointadd_sweep_is_the_per_case_sweep():
    plan = pointadd_plan(4, 0, 1)
    layout = plan.layout()
    circ = cli.synth_ecpointadd(plan)
    pts = plan.curve.points()
    pairs = list(itertools.product(range(len(pts)), repeat=2))
    y1, x2, lr = (layout.reg(name) for name in ("y1", "x2", "lr"))
    # each extra gate breaks some lanes only, and not from lane 0
    for mutation in itertools.chain([None], _mutants(circ, [
            ("cnot", x2[1], y1[0]), ("ccx", x2[0], x2[1], lr[2])])):
        got = cli.pointadd_sweep(plan, circ, pts, pairs)
        assert got == pointadd_sweep_by_case(plan, circ, pts, pairs), mutation
        assert got[0] > 0 if mutation else got is None


@pytest.mark.parametrize("poly", ["15", "%x" % (1 << 163 | 1)],
                         ids=["n4", "n163"])
def test_reducible_poly_is_one_error_line(capsys, poly):
    # a --poly of a standard degree is still tested for irreducibility
    rc, out, err = run(capsys, "synth", "--poly", poly, "--counts-only")
    assert (rc, out) == (2, "")
    assert err.endswith(" is not irreducible\n") and err.count("\n") == 1


@pytest.fixture
def data_copy(tmp_path, monkeypatch):
    """A copy of the shipped data directory as ``BINSHOR_DATA``, with every
    cache that holds what was read from it dropped before and after."""
    import shutil

    import binshor.pipeline as pipeline
    from binshor.datafiles import data_dir

    shutil.copytree(data_dir(), tmp_path / "data")
    monkeypatch.setenv("BINSHOR_DATA", str(tmp_path / "data"))
    pipeline.clear_caches()
    yield tmp_path / "data"
    monkeypatch.delenv("BINSHOR_DATA")
    pipeline.clear_caches()


@pytest.mark.parametrize("value", ["1e400", "inf", "-inf", "nan"])
def test_non_finite_av_weight_is_one_error_line(data_copy, capsys, value):
    path = data_copy / "av_weights.txt"
    path.write_text(path.read_text().replace("cnot = 3.966510",
                                             f"cnot = {value}"))
    rc, out, err = run(capsys, "estimate", "--field", "163")
    assert rc == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: active-volume weight 'cnot' is ")


@pytest.mark.parametrize("text, reason", [
    ("", "formula d5.txt is empty"),
    ("# only a comment\n", "formula d5.txt is empty"),
    ("5\n", "formula d5.txt: the header '5' is not the two integers d v"),
    ("5 x\n", "formula d5.txt: the header '5 x' is not the two integers d v"),
    ("5 13 2\n", "formula d5.txt: the header '5 13 2' is not the two "
                  "integers d v"),
    ("5 13\n10000\n", "formula d5.txt: d = 5 and v = 13 need 22 rows, "
                        "found 1"),
])
def test_broken_formula_file_is_one_error_line(data_copy, capsys, text,
                                               reason):
    (data_copy / "formulas" / "d5.txt").write_text(text)
    rc, out, err = run(capsys, "synth", "--field", "4", "--counts-only")
    assert (rc, out, err) == (2, "", f"error: {reason}\n")


def test_truncated_formula_file_is_one_error_line(data_copy, capsys):
    path = data_copy / "formulas" / "d5.txt"
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    rc, out, err = run(capsys, "synth", "--field", "4", "--counts-only")
    assert (rc, out) == (2, "")
    assert err.startswith("error: formula d5.txt: ")
    assert err.count("\n") == 1
