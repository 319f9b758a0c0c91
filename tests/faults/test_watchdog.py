"""Cycle-budget watchdog: HUNG is a measured outcome, not a hang.

A fault can corrupt control flow into a livelock — here, a stuck-at-1
on bit 0 of an SP output forces the counting kernel's loop predicate
permanently true, so the exit branch never falls through.  Without a
watchdog the campaign would never return; with it, the run exceeds its
budget (``factor x golden_cycles + slack``), the simulator raises, and
the campaign books ``HUNG``.
"""

from __future__ import annotations

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.common.errors import SimulationError
from repro.faults.campaign import CampaignEngine, CampaignSpec, Outcome
from repro.faults.injector import FaultInjector
from repro.faults.models import StuckAtFault
from repro.isa.opcodes import UnitType
from repro.resilience.deadline import (DEFAULT_MAX_FAULTY_CYCLES,
                                       DEFAULT_WATCHDOG_FACTOR,
                                       DEFAULT_WATCHDOG_SLACK, cycle_budget)
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory

from tests.conftest import CountingSpec, build_counting_kernel

#: forces the SETP loop predicate permanently true on every lane it hits
LIVELOCK_FAULT = StuckAtFault(sm_id=0, hw_lane=0, unit=UnitType.SP,
                              bit=0, stuck_to=1)


def launch_livelocked(max_cycles: int):
    gpu = GPU(GPUConfig.small(1), dmr=DMRConfig.paper_default(),
              fault_hook=FaultInjector([LIVELOCK_FAULT]),
              max_cycles=max_cycles)
    return gpu.launch(build_counting_kernel(6), LaunchConfig(1, 32),
                      memory=GlobalMemory())


class TestLivelockIsReal:
    def test_fault_hangs_without_watchdog(self):
        """The fault is a true livelock: raising the budget 20x past any
        plausible slow-run envelope still never terminates."""
        with pytest.raises(SimulationError):
            launch_livelocked(5_000)
        with pytest.raises(SimulationError):
            launch_livelocked(100_000)  # not slow — non-terminating

    def test_fault_free_run_fits_any_sane_budget(self):
        gpu = GPU(GPUConfig.small(1), dmr=DMRConfig.paper_default())
        result = gpu.launch(build_counting_kernel(6), LaunchConfig(1, 32),
                            memory=GlobalMemory())
        assert result.cycles < 5_000


class TestCampaignWatchdog:
    def _campaign(self) -> CampaignEngine:
        return CampaignEngine(CountingSpec())

    def test_campaign_classifies_livelock_as_hung(self):
        campaign = self._campaign()
        run = campaign.run([LIVELOCK_FAULT]).runs[0]
        assert run.outcome is Outcome.HUNG
        assert run.detections == 0

    def test_budget_scales_with_golden_runtime(self):
        campaign = self._campaign()
        golden = campaign.golden_result().cycles
        assert campaign.cycle_budget() == (
            DEFAULT_WATCHDOG_FACTOR * golden + DEFAULT_WATCHDOG_SLACK
        )
        assert campaign.cycle_budget() < DEFAULT_MAX_FAULTY_CYCLES

    def test_engine_campaign_books_hung(self):
        spec = CampaignSpec(workload="scan", config=GPUConfig.small(1),
                            dmr=DMRConfig.paper_default(), scale=0.25)
        engine = CampaignEngine(spec)
        run = engine.run([LIVELOCK_FAULT]).runs[0]
        assert run.outcome is Outcome.HUNG

    def test_hung_runs_excluded_from_coverage(self):
        campaign = self._campaign()
        result = campaign.run([LIVELOCK_FAULT])
        assert result.count(Outcome.HUNG) == 1
        assert result.harmful_runs == 0
        assert result.coverage_interval() == (0.0, 1.0)  # no evidence


class TestBudgetFormula:
    def test_budget_is_affine_in_golden_cycles(self):
        assert cycle_budget(100, factor=8, slack=5000) == 5_800
        assert cycle_budget(0, factor=8, slack=5000) == 5_000

    def test_budget_respects_cap(self):
        assert cycle_budget(10 ** 9) == DEFAULT_MAX_FAULTY_CYCLES
        assert cycle_budget(100, factor=2, slack=0, cap=150) == 150

    def test_budget_never_below_one_cycle(self):
        assert cycle_budget(0, factor=1, slack=0) == 1
