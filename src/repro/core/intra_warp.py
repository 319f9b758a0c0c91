"""Intra-warp DMR (paper Section 3.1).

When a warp is partially utilized, the RFU pairs each idle SIMT lane
with an active lane of its own cluster; the idle lane re-executes the
active lane's computation in the *same cycle* and the comparator checks
the two results — verification is free.

Active lanes nobody pairs with (more actives than idles in a cluster)
stay unverified this cycle: that is exactly the paper's coverage gap
for highly utilized warps.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.common.bitops import active_lane_list
from repro.core.comparator import ResultComparator
from repro.core.rfu import RegisterForwardingUnit
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import Executor


class IntraWarpDMR:
    """Spatial redundancy engine for partially utilized warps."""

    def __init__(
        self,
        cluster_size: int,
        stats: MetricsRegistry,
        comparator: ResultComparator,
        functional_verify: bool = False,
        probe: Optional[object] = None,
        protected_mask: Optional[int] = None,
    ) -> None:
        self.rfu = RegisterForwardingUnit(cluster_size)
        self.stats = stats
        self.comparator = comparator
        self.functional_verify = functional_verify
        self.probe = probe
        # partial thread protection: only originals in this lane mask
        # are re-executed (None = every active lane, the full scheme)
        self.protected_mask = protected_mask
        # (hw_mask, width) -> memoized pairing (see _pairing)
        self._pairings: Dict[Tuple[int, int], tuple] = {}

    def process(self, event: IssueEvent,
                executor: Optional[Executor]) -> int:
        """Verify *event* using idle lanes; returns verified lane count.

        Zero-cost: no stall cycles are ever charged.
        """
        originals, verifiers, verified = self._pairing(event.hw_mask,
                                                       event.warp_width)
        self.stats.inc("intra_warp_instructions")
        self.stats.inc("intra_warp_verified_lanes", verified)
        self.stats.inc("intra_warp_redundant_executions", len(verifiers))
        self.stats.inc(
            f"intra_redundant_lanes_{event.instruction.unit.value}",
            len(verifiers),
        )
        if self.probe is not None:
            self.probe.on_intra_pairing(event, verified, len(verifiers))

        if self.functional_verify and executor is not None:
            self.comparator.verify(executor, event, originals, verifiers,
                                   event.cycle, "intra")
        return verified

    def _pairing(self, hw_mask: int, width: int) -> tuple:
        """``(originals, verifiers, verified lane count)`` of the RFU
        pairing for an issue mask, in the RFU's pair order; memoized,
        since a kernel issues under a handful of distinct masks."""
        key = (hw_mask, width)
        pairing = self._pairings.get(key)
        if pairing is None:
            pairs = self.rfu.pair_warp(hw_mask, width)
            if self.protected_mask is not None:
                pairs = {
                    verifier: original
                    for verifier, original in pairs.items()
                    if (self.protected_mask >> original) & 1
                }
            originals = tuple(pairs.values())
            pairing = (originals, tuple(pairs), len(set(originals)))
            self._pairings[key] = pairing
        return pairing

    def verified_mask(self, event: IssueEvent) -> int:
        """Mask of active lanes that this cycle's pairing verifies."""
        return self.rfu.verified_lanes(event.hw_mask, event.warp_width)

    def unverified_lane_count(self, event: IssueEvent) -> int:
        """Active lanes left unverified (coverage-gap accounting)."""
        verified = self.verified_mask(event)
        count = 0
        for lane in active_lane_list(event.hw_mask, event.warp_width):
            if not (verified >> lane) & 1:
                count += 1
        return count
