"""Result comparison and error-detection events.

The hardware comparator (paper Figure 6, 622 um^2) compares the
original lane's result against the verifier lane's redundant result.
Redundant executions recompute through the same pure ALU from the same
captured inputs, so any mismatch is — by construction — an injected (or
real) execution-unit error, never modeling noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.isa.opcodes import Opcode
from repro.sim.events import IssueEvent
from repro.sim.vexec import Val, py_lanes


@dataclass(frozen=True)
class DetectionEvent:
    """One detected execution error."""

    cycle: int
    sm_id: int
    warp_id: int
    pc: int
    opcode: Opcode
    original_lane: int
    verifier_lane: int
    original_value: object
    verify_value: object
    mode: str  # "intra" or "inter"

    def __str__(self) -> str:
        return (
            f"[cycle {self.cycle}] SM{self.sm_id} warp{self.warp_id} "
            f"pc={self.pc} {self.opcode.value}: lane {self.original_lane} "
            f"produced {self.original_value!r}, verifier lane "
            f"{self.verifier_lane} produced {self.verify_value!r} "
            f"({self.mode}-warp DMR)"
        )

    def to_payload(self) -> dict:
        """Plain-data form (opcode by name) for result serialization."""
        return {
            "cycle": self.cycle,
            "sm_id": self.sm_id,
            "warp_id": self.warp_id,
            "pc": self.pc,
            "opcode": self.opcode.name,
            "original_lane": self.original_lane,
            "verifier_lane": self.verifier_lane,
            "original_value": self.original_value,
            "verify_value": self.verify_value,
            "mode": self.mode,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "DetectionEvent":
        fields = dict(payload)
        fields["opcode"] = Opcode[fields["opcode"]]
        return cls(**fields)


class ResultComparator:
    """Collects mismatches between original and redundant executions."""

    def __init__(self) -> None:
        self.detections: List[DetectionEvent] = []

    def compare(
        self,
        cycle: int,
        sm_id: int,
        warp_id: int,
        pc: int,
        opcode: Opcode,
        original_lane: int,
        verifier_lane: int,
        original_value: object,
        verify_value: object,
        mode: str,
    ) -> Optional[DetectionEvent]:
        """Compare two results; record and return an event on mismatch."""
        if _values_equal(original_value, verify_value):
            return None
        event = DetectionEvent(
            cycle=cycle,
            sm_id=sm_id,
            warp_id=warp_id,
            pc=pc,
            opcode=opcode,
            original_lane=original_lane,
            verifier_lane=verifier_lane,
            original_value=original_value,
            verify_value=verify_value,
            mode=mode,
        )
        self.detections.append(event)
        return event

    def verify(self, executor, event: IssueEvent, originals: Sequence[int],
               verifiers: Sequence[int], cycle: int, mode: str) -> None:
        """Functional DMR: re-execute *event* and compare, per lane pair.

        ``originals[k]`` is re-executed on ``verifiers[k]``; pairs are
        compared in sequence order, so detections come out in the order
        of the per-lane loop.  When the executor can recompute the
        whole event at once (:meth:`Executor.reexecute_event
        <repro.sim.executor.Executor.reexecute_event>`), one array
        comparison replaces the loop and only mismatching pairs reach
        :meth:`compare`.  Otherwise — an event inside a live fault
        window, or one recorded by the scalar engine — every pair goes
        through ``reexecute_lane``, which applies the fault hook lane by
        lane in pair order.
        """
        batch = executor.reexecute_event(event, cycle)
        opcode = event.instruction.opcode
        if batch is None:
            inputs = event.lane_inputs
            results = event.lane_results
            for lane, verifier in zip(originals, verifiers):
                if lane not in inputs:
                    # no datapath computation on this lane (EXIT/JMP/BAR
                    # style bookkeeping issues have nothing to re-execute)
                    continue
                value = executor.reexecute_lane(event, lane, verifier, cycle)
                self.compare(cycle, event.sm_id, event.warp_id, event.pc,
                             opcode, lane, verifier, results[lane], value,
                             mode)
            return
        hw_lanes, original, redundant = batch
        n = len(hw_lanes)
        equal = lanes_equal(original, redundant, n)
        if equal.all():
            return
        column = {hw_lanes[i]: i for i in np.flatnonzero(~equal).tolist()}
        original_values = py_lanes(original, n)
        redundant_values = py_lanes(redundant, n)
        for lane, verifier in zip(originals, verifiers):
            i = column.get(lane)
            if i is not None:
                self.compare(cycle, event.sm_id, event.warp_id, event.pc,
                             opcode, lane, verifier, original_values[i],
                             redundant_values[i], mode)

    @property
    def detection_count(self) -> int:
        return len(self.detections)


def _values_equal(a: object, b: object) -> bool:
    """Bit-exact comparison as the hardware comparator would perform.

    Redundant executions are deterministic re-runs of the same pure
    function on the same inputs, so exact equality is the right test;
    NaNs compare equal to themselves (same bit pattern).
    """
    if isinstance(a, float) and isinstance(b, float):
        if a != a and b != b:  # both NaN
            return True
        return a == b
    return a == b


def lanes_equal(a: Val, b: Val, n: int) -> np.ndarray:
    """Lane-wise :func:`_values_equal` over two *n*-lane result columns.

    Float lanes keep the comparator's value semantics, not raw bit
    equality: ``0.0 == -0.0`` and NaN equals NaN.  Columns whose lanes
    mix int and float tags take Python's exact int-vs-float equality
    lane by lane.
    """
    if a.isf is None and b.isf is None:
        return np.equal(a.i, b.i)
    if a.isf is True and b.isf is True:
        return np.equal(a.f, b.f) | (np.isnan(a.f) & np.isnan(b.f))
    return np.fromiter(map(_values_equal, py_lanes(a, n), py_lanes(b, n)),
                       dtype=bool, count=n)
