"""Self-tests of the benchmark: seeding, the span recorder and the gate.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gearpinv  # noqa: E402
import gearpinv.pinv  # noqa: E402

import gate  # noqa: E402
from spans import Recorder  # noqa: E402
from timing import harrell_davis, rescale, CALIBRATION_REF_S  # noqa: E402
from workloads import WORKLOADS, Float, Oracle, Verify  # noqa: E402

LAYER_NAMES = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
               if not m["name"].startswith("trace.")]


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())
    return a == b


@pytest.fixture
def float_workload():
    workload = Float(0)
    yield workload
    workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs_and_order(name):
    first = WORKLOADS[name](7).make_pass(2)
    again = WORKLOADS[name](7).make_pass(2)
    assert [(op.kind, op.size) for op in first] == [(op.kind, op.size) for op in again]
    assert all(_same(a.inputs, b.inputs) for a, b in zip(first, again))
    other = WORKLOADS[name](8).make_pass(2)
    assert sorted((op.kind, op.size) for op in other) == sorted((op.kind, op.size) for op in first)
    assert [(op.kind, op.size) for op in other] != [(op.kind, op.size) for op in first]


def test_oracle_inputs_change_with_seed_and_pass():
    ops = {(seed, index): Oracle(seed).make_pass(index) for seed in (1, 2) for index in (0, 1)}
    trees = {key: [op.inputs for op in value if op.kind == "tree"] for key, value in ops.items()}
    assert trees[1, 0] != trees[2, 0]
    assert trees[1, 0] != trees[1, 1]


def test_wrapped_functions_return_identical_results(float_workload):
    ops = Oracle(0).warmup() + Verify(0).warmup() + float_workload.warmup()
    plain = [op.run() for op in ops]
    recorder = Recorder(LAYER_NAMES)
    original = gearpinv.pinv.rational_pinv
    with recorder.installed():
        assert gearpinv.pinv.rational_pinv is not original
        assert gearpinv.rational_pinv is gearpinv.pinv.rational_pinv
        traced = [op.run() for op in ops]
    assert gearpinv.pinv.rational_pinv is original
    assert gearpinv.rational_pinv is original
    for op, a, b in zip(ops, plain, traced):
        assert _same(a, b), (op.kind, op.size)
        assert op.check(b) == gate.OK


def test_recorder_nests_spans_and_counts_at_boundaries():
    op = Oracle(0).warmup()[2]  # 5x4 rank-2 product
    recorder = Recorder(LAYER_NAMES)
    with recorder.installed():
        op.run()
    recorder.finish_op(0)
    names = [span.name for span in recorder.spans]
    assert names[0] == "pinv.rational_pinv"
    assert recorder.spans[1].name == "rational.rref" and recorder.spans[1].parent == 0
    assert "rational.invert" in names
    values = recorder.layer_metrics(ops=1)
    assert values["pinv.rational_pinv.calls"] == 1
    assert values["pinv.rational_pinv.max_order"] == 5
    assert values["pinv.rational_pinv.max_rank"] == 2
    assert values["pinv.rational_pinv.max_den_bits"] > 1
    assert 0 < values["pinv.rational_pinv.self_s"] < values["pinv.rational_pinv.total_s"]


def _bump(matrix, amount):
    out = matrix.copy()
    out[1, 2] += amount
    return out


def test_gate_rejects_one_perturbed_fraction():
    product = Oracle(3).make_pass(0)
    product = next(op for op in product if op.kind == "product")
    pinv = product.run()
    assert product.check(pinv) == gate.OK
    assert product.check(_bump(pinv, Fraction(1, 10**30))) == gate.WRONG

    tree = next(op for op in Oracle(3).make_pass(0) if op.kind == "tree")
    dist, pinv, inverse, det = tree.run()
    assert tree.check((dist, pinv, inverse, det)) == gate.OK
    assert tree.check((dist, _bump(pinv, Fraction(1, 7)), inverse, det)) == gate.WRONG
    assert tree.check((dist, pinv, inverse, det + 1)) == gate.WRONG


def test_gate_rejects_one_perturbed_float(float_workload):
    pinv_op, spectrum_op = float_workload.warmup()
    code, parts = pinv_op.run()
    assert pinv_op.check((code, parts)) == gate.OK
    doc = json.loads("".join(parts))
    doc["payload"][3][4] *= 1 + 1e-6
    assert pinv_op.check((0, [json.dumps(doc)])) == gate.WRONG
    assert pinv_op.check((0, ["{not json"])) == gate.WRONG
    assert pinv_op.check((2, [])) == gate.REJECTED

    code, parts = spectrum_op.run()
    assert spectrum_op.check((code, parts)) == gate.OK
    doc = json.loads("".join(parts))
    doc["payload"]["theta"][0] += 1e-6
    assert spectrum_op.check((0, [json.dumps(doc)])) == gate.WRONG


def test_gate_judges_verify_reports_by_their_checks():
    op = Verify(0).warmup()[0]
    code, parts = op.run()
    assert code == 0 and op.check((code, parts)) == gate.OK
    doc = json.loads("".join(parts))
    doc["checks"][0]["pass"] = False
    doc["payload"]["checks_passed"] -= 1
    assert op.check((1, [json.dumps(doc)])) == gate.WRONG  # what the program prints for a failed check
    assert op.check((0, [json.dumps(doc)])) == gate.WRONG
    assert op.check((1, parts)) == gate.WRONG  # exit 1 with every check passed
    assert op.check((2, [])) == gate.REJECTED


@pytest.mark.parametrize("n", range(4, 13))
def test_gate_distances_match_the_package(n):
    assert (gate.gear_distances(n) == gearpinv.gear_distance_closed(n)).all()


def test_harrell_davis_quantiles():
    values = [float(v) for v in range(1, 22)]
    assert harrell_davis(values, 0.5) == pytest.approx(11.0)
    assert 11.0 < harrell_davis(values, Fraction(2, 3)) < harrell_davis(values, Fraction(3, 4)) < 21.0
    assert harrell_davis(values * 3, 0.5) == pytest.approx(11.0)


def test_rescale_divides_by_the_nearby_calibrations():
    speeds = [CALIBRATION_REF_S, 2 * CALIBRATION_REF_S, 2 * CALIBRATION_REF_S, 2 * CALIBRATION_REF_S]
    assert rescale([1.0, 1.0, 1.0], speeds) == pytest.approx([0.5, 0.5, 0.5])
