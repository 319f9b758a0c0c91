"""Differential tests: lane-batched functional verify vs the scalar oracle.

Functional verify re-executes a vector-captured issue over all of its
lanes in one kernel call and compares whole result columns
(:meth:`ResultComparator.verify` via :meth:`Executor.reexecute_event`).
The per-lane path (``reexecute_lane`` + ``compare`` per lane pair) stays
as the oracle: an event whose per-lane dicts have been materialized
takes it.  For every vectorizable instruction shape — ALU, SETP, SELP,
load/store addresses and BRA — each DMR mode (intra-warp RFU pairs,
inter-warp replay with and without lane shuffling, DMTR) must record the
same :class:`DetectionEvent` list from both, in the same order and with
byte-identical payloads.  Original results are perturbed with the fault
models' bit flips and with comparator corner cases (signed zeros, NaN,
infinities, an int lane turned into an equal-valued float) so that
mismatches, and near-mismatches that are not detections, actually occur.

The last tests pin the gate: a verify inside a live transient window
must stay on the per-lane path, so the one-shot flip is consumed by the
same verifier lane as before.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.baselines.dmtr import DMTRController
from repro.common.config import DMRConfig
from repro.core.comparator import ResultComparator
from repro.core.intra_warp import IntraWarpDMR
from repro.core.inter_warp import ReplayChecker
from repro.core.mapping import shuffled_lane
from repro.faults.injector import FaultInjector
from repro.faults.models import TransientFault, flip_bit
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode, UnitType
from repro.isa.operands import Reg
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor
from repro.sim.vexec import Val, py_lanes

from tests.sim.test_vexec_differential import (
    CROSS, IDENTITY, MEM_SPECS, NUM_PREDS, SPECS, WARP_SIZE, _build,
    _lane_values,
)

BRA = Instruction(opcode=Opcode.BRA, pred=0, target=7)
ALL_SPECS = {**SPECS, **MEM_SPECS, "bra": BRA}
MODES = ("intra", "inter", "dmtr")

#: integer-only kernels: a float operand (or an int64 extreme) sends the
#: issue to the scalar engine, which leaves nothing to batch
INT_OPS = {"iadd", "isub", "imul", "idiv", "irem", "imin", "imax", "and",
           "or", "xor", "shl", "shr", "imad", "not", "i2f"}
I32_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 31, 32, (1 << 31) - 1, -(1 << 31), 1 << 31,
                     (1 << 32) - 1, -(1 << 32)]),
    st.integers(min_value=-(1 << 40), max_value=1 << 40),
)


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def _issue(executor, warp, inst, reg_values, pred_values):
    for reg, column in enumerate(reg_values):
        for slot in range(warp.live_slots):
            warp.write_reg(slot, reg, column[slot])
    for pred, column in enumerate(pred_values):
        for slot in range(warp.live_slots):
            warp.write_pred(slot, pred, column[slot])
    return executor.execute(warp, inst, 0, cycle=9).event


def _dict_twin(event: IssueEvent) -> IssueEvent:
    """Same issue, but carrying per-lane dicts (the scalar-path record)."""
    twin = IssueEvent(
        cycle=event.cycle, sm_id=event.sm_id, warp_id=event.warp_id,
        pc=event.pc, instruction=event.instruction,
        logical_mask=event.logical_mask, hw_mask=event.hw_mask,
        warp_width=event.warp_width, dest_reg=event.dest_reg,
        capture=event.capture,
    )
    twin.lane_inputs  # materialize: from here on the dicts are the record
    assert twin.capture is None
    return twin


def _column(values: list) -> Val:
    """A result column whose ``py_lanes`` round-trips *values* exactly."""
    if all(type(v) is bool for v in values):
        return Val(np.array(values, dtype=np.bool_), None, None)
    tags = np.array([type(v) is float for v in values], dtype=np.bool_)
    ints = np.array([0 if t else v for v, t in zip(values, tags)],
                    dtype=np.int64)
    floats = np.array([v if t else 0.0 for v, t in zip(values, tags)],
                      dtype=np.float64)
    if not tags.any():
        return Val(ints, None, None)
    if tags.all():
        return Val(None, floats, True)
    return Val(ints, floats, tags)


def _perturb(value, how: str, bit: int):
    if how == "flip":
        try:
            return flip_bit(value, bit)
        except OverflowError:  # outside the 32-bit float encoding
            return value
    if type(value) is bool:
        return value
    if how == "as_float":  # same value, other type: equal, no detection
        return float(value) if type(value) is int and abs(value) < 2 ** 53 \
            else value
    if how == "neg_zero":
        return -0.0 if value == 0 else value
    if how == "nan":
        return math.nan if type(value) is float else value
    return -math.inf if type(value) is float else value


PERTURBATIONS = st.tuples(
    st.sampled_from(["flip", "as_float", "neg_zero", "nan", "inf"]),
    st.integers(min_value=0, max_value=31),
)


def _verify(mode, executor, event, cluster_size, shuffle, protected):
    """Run one DMR engine's functional verify; return its detections."""
    stats = MetricsRegistry()
    if mode == "intra":
        comparator = ResultComparator()
        IntraWarpDMR(cluster_size, stats, comparator, functional_verify=True,
                     protected_mask=protected).process(event, executor)
        return comparator.detections
    if mode == "inter":
        comparator = ResultComparator()
        checker = ReplayChecker(
            cluster_size, DMRConfig(lane_shuffle=shuffle,
                                    protected_mask=protected),
            stats, comparator, functional_verify=True)
        checker.accept(event, executor)
        checker.flush(event.cycle + 3)
        return comparator.detections
    controller = DMTRController(stats, functional_verify=True)
    controller.on_issue(event, executor)
    return controller.detections


def _payload_bytes(detections) -> bytes:
    return pickle.dumps([d.to_payload() for d in detections])


class _CountingExecutor:
    """Counts per-lane re-executions without changing them."""

    def __init__(self, executor: Executor) -> None:
        self.calls = 0
        original = executor.reexecute_lane

        def counting(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        executor.reexecute_lane = counting


# ----------------------------------------------------------------------
# Batched == scalar oracle
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ALL_SPECS))
@given(data=st.data())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
def test_batched_verify_matches_scalar_oracle(name, mode, data):
    inst = ALL_SPECS[name]
    block_dim = data.draw(st.sampled_from([WARP_SIZE, 17, 9, 1]),
                          label="dim")
    mapping = data.draw(st.sampled_from([IDENTITY, CROSS]), label="map")
    if name in INT_OPS:
        reg_values = [data.draw(st.lists(I32_INTS, min_size=WARP_SIZE,
                                         max_size=WARP_SIZE))
                      for _ in range(3)]
    else:
        value_mode = data.draw(st.sampled_from(["int", "float", "mixed"]),
                               label="mode")
        reg_values = [_lane_values(data.draw, WARP_SIZE, value_mode)
                      for _ in range(3)]
    if name in MEM_SPECS:
        reg_values[0] = data.draw(st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=WARP_SIZE, max_size=WARP_SIZE), label="addrs")
    pred_values = [data.draw(st.lists(st.booleans(), min_size=WARP_SIZE,
                                      max_size=WARP_SIZE))
                   for _ in range(NUM_PREDS)]
    cluster_size = data.draw(st.sampled_from([4, 8]), label="cluster")
    shuffle = data.draw(st.booleans(), label="shuffle")
    protected = data.draw(st.one_of(
        st.none(), st.integers(min_value=0, max_value=(1 << WARP_SIZE) - 1)),
        label="protected_mask")

    warp, executor, _ = _build("vector", block_dim, mapping)
    try:
        event = _issue(executor, warp, inst, reg_values, pred_values)
    except Exception:
        assume(False)  # both engines abort this issue (f2i of inf, ...)
    assume(event.capture is not None)  # vector engine declined: no batch

    # perturb some original results, as a fault on the original lane would
    n = len(event.capture.hw_lanes)
    originals = py_lanes(event.capture.result, n)
    for index in data.draw(st.sets(st.integers(0, max(n - 1, 0)),
                                   max_size=4), label="lanes"):
        if index < n:
            how, bit = data.draw(PERTURBATIONS, label="perturbation")
            originals[index] = _perturb(originals[index], how, bit)
    event.capture.result = _column(originals)

    twin = _dict_twin(event)
    oracle_executor = _CountingExecutor(executor)
    expected = _verify(mode, executor, twin, cluster_size, shuffle,
                       protected)
    scalar_calls = oracle_executor.calls
    batched_executor = _CountingExecutor(executor)
    got = _verify(mode, executor, event, cluster_size, shuffle, protected)

    assert batched_executor.calls == 0, "batched verify fell back per lane"
    assert event.capture is not None
    assert len(got) == len(expected)
    assert _payload_bytes(got) == _payload_bytes(expected)
    assert [(d.original_lane, d.verifier_lane) for d in got] == \
        [(d.original_lane, d.verifier_lane) for d in expected]
    if mode != "intra" and event.active_count and protected is None:
        assert scalar_calls == event.active_count  # the oracle ran


# ----------------------------------------------------------------------
# The may_perturb gate
# ----------------------------------------------------------------------
STRIKE_LANE = 5
STRIKE_CYCLE = 20
IADD = Instruction(opcode=Opcode.IADD, dst=Reg(3), srcs=(Reg(0), Reg(1)))


def _armed_issue():
    """An IADD issued (vectorized) before a transient strikes lane 5."""
    warp, _, memory = _build("vector", WARP_SIZE, IDENTITY)
    injector = FaultInjector([TransientFault(
        sm_id=0, hw_lane=STRIKE_LANE, unit=UnitType.SP, bit=3,
        cycle=STRIKE_CYCLE)])
    executor = Executor(0, memory, injector, engine="vector")
    event = _issue(executor, warp, IADD,
                   [list(range(WARP_SIZE)), [7] * WARP_SIZE], [])
    assert event.capture is not None  # issued outside the fault window
    return executor, injector, event


def _inter_verify(executor, event, cycle):
    comparator = ResultComparator()
    checker = ReplayChecker(4, DMRConfig(), MetricsRegistry(), comparator,
                            functional_verify=True)
    checker.accept(event, executor)
    checker.flush(cycle)
    return comparator.detections


def test_verify_inside_live_transient_window_takes_scalar_path():
    executor, injector, event = _armed_issue()
    counter = _CountingExecutor(executor)
    detections = _inter_verify(executor, event, STRIKE_CYCLE + 5)

    assert counter.calls == WARP_SIZE  # lane by lane, hook applied per lane
    assert injector.activations == 1
    assert not injector.may_perturb(0, STRIKE_CYCLE + 5)  # shot consumed
    [detection] = detections
    # the verifier lane the flip landed on replays its cluster neighbour
    assert detection.verifier_lane == STRIKE_LANE
    assert detection.original_lane == STRIKE_LANE - 1
    assert shuffled_lane(detection.original_lane, 4) == STRIKE_LANE

    # same as the scalar-path record of the same issue
    oracle_executor, oracle_injector, oracle_event = _armed_issue()
    expected = _inter_verify(oracle_executor, _dict_twin(oracle_event),
                             STRIKE_CYCLE + 5)
    assert _payload_bytes(detections) == _payload_bytes(expected)
    assert oracle_injector.activations == 1


def test_verify_before_the_strike_is_batched_and_leaves_the_shot():
    executor, injector, event = _armed_issue()
    counter = _CountingExecutor(executor)
    assert _inter_verify(executor, event, STRIKE_CYCLE - 5) == []
    assert counter.calls == 0
    assert injector.activations == 0
    assert injector.may_perturb(0, STRIKE_CYCLE)  # still armed


def test_writes_through_lane_dicts_are_honoured():
    """Materializing the dicts retires the capture, so a corrupted
    stored result is verified (and detected) on the per-lane path."""
    executor, injector, event = _armed_issue()
    event.lane_results[0] = 999
    assert event.capture is None
    detections = _inter_verify(executor, event, STRIKE_CYCLE - 5)
    assert [(d.original_lane, d.original_value) for d in detections] == \
        [(0, 999)]


def test_batched_compare_keeps_comparator_semantics():
    """``-0.0 == 0.0``, NaN == NaN and ``5 == 5.0`` are not detections;
    a flipped int and a NaN against a number are — in lane order."""
    warp, executor, _ = _build("vector", WARP_SIZE, IDENTITY)
    fmul = Instruction(opcode=Opcode.FMUL, dst=Reg(3), srcs=(Reg(0), Reg(1)))
    lhs = [0.0, math.nan, 2.0, 3.0] + [1.0] * (WARP_SIZE - 4)
    event = _issue(executor, warp, fmul, [lhs, [1.0] * WARP_SIZE], [])
    originals = py_lanes(event.capture.result, WARP_SIZE)
    originals[0] = -0.0          # equal to 0.0
    originals[2] = 5             # int 5 vs float 2.0: detected
    originals[3] = 3             # int 3 vs float 3.0: equal
    originals[1] = math.nan      # NaN vs NaN: equal
    originals[7] = math.nan      # NaN vs 1.0: detected
    event.capture.result = _column(originals)
    counter = _CountingExecutor(executor)
    detections = _verify("dmtr", executor, event, 4, False, None)
    assert counter.calls == 0
    assert [(d.original_lane, d.original_value, d.verify_value)
            for d in detections][:1] == [(2, 5, 2.0)]
    assert [d.original_lane for d in detections] == [2, 7]
