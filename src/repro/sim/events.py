"""Issue events: the interface between the SM pipeline and Warped-DMR.

Every warp-instruction issue produces one :class:`IssueEvent` carrying
everything a later redundant execution needs: the opcode, the captured
per-lane source operand values (the ReplayQ stores *values*, not
register names — paper Section 4.3.1), the original per-lane results,
and the active masks in both logical-thread and hardware-lane space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.common.bitops import ActiveMask
from repro.isa.instruction import Instruction
from repro.isa.opcodes import UnitType


@dataclass(slots=True, eq=False)
class IssueEvent:
    """One dynamic warp-instruction issue.

    ``lane_inputs``
        hw lane -> tuple of evaluated source operand values (only lanes
        active in ``hw_mask``).  For memory instructions the computed
        address is what DMR verifies, so inputs are the address operands.
    ``lane_results``
        hw lane -> the value the original execution produced on that
        lane (ALU result, computed address for memory ops, branch
        taken/not-taken flag, SETP outcome).
    ``capture``
        set by the vector engine instead of the two dicts: the decoded
        instruction plus copies of its input and result columns
        (:class:`repro.sim.vexec.LaneCapture`), which functional verify
        re-executes in one kernel call.  The dicts are built from it on
        first access; from then on they are the record (writes through
        them are honoured) and the capture is dropped.
    """

    cycle: int
    sm_id: int
    warp_id: int
    pc: int
    instruction: Instruction
    logical_mask: ActiveMask
    hw_mask: ActiveMask
    warp_width: int
    dest_reg: Optional[int] = None
    capture: Optional[object] = field(default=None, repr=False)
    _inputs: Optional[Dict[int, Tuple]] = field(default=None, init=False,
                                               repr=False)
    _results: Optional[Dict[int, object]] = field(default=None, init=False,
                                                 repr=False)

    def _materialize(self) -> None:
        capture = self.capture
        if capture is None:
            self._inputs, self._results = {}, {}
        else:
            self._inputs, self._results = capture.lane_dicts()
            self.capture = None

    @property
    def lane_inputs(self) -> Dict[int, Tuple]:
        if self._inputs is None:
            self._materialize()
        return self._inputs

    @property
    def lane_results(self) -> Dict[int, object]:
        if self._results is None:
            self._materialize()
        return self._results

    def __eq__(self, other: object) -> bool:
        """Value equality over the whole record (``ReplayQ.remove``
        relies on it); the dicts are built only when the rest matches."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            (self.cycle, self.sm_id, self.warp_id, self.pc,
             self.instruction, self.logical_mask, self.hw_mask,
             self.warp_width, self.dest_reg)
            == (other.cycle, other.sm_id, other.warp_id, other.pc,
                other.instruction, other.logical_mask, other.hw_mask,
                other.warp_width, other.dest_reg)
            and self.lane_inputs == other.lane_inputs
            and self.lane_results == other.lane_results
        )

    @property
    def unit(self) -> UnitType:
        return self.instruction.unit

    @property
    def active_count(self) -> int:
        return self.hw_mask.bit_count()

    @property
    def is_full(self) -> bool:
        return self.hw_mask == (1 << self.warp_width) - 1

    def __repr__(self) -> str:
        return (
            f"IssueEvent(cycle={self.cycle}, sm={self.sm_id}, "
            f"warp={self.warp_id}, pc={self.pc}, "
            f"op={self.instruction.opcode.value}, "
            f"active={self.active_count}/{self.warp_width})"
        )
