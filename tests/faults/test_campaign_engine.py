"""CampaignEngine tests: caching, resumption, fan-out, CI bracketing.

The scaled-campaign acceptance criteria, asserted:

* a warm-cache rerun (or an interrupted campaign resumed) performs
  **zero** new simulations and returns byte-identical payloads;
* parallel fan-out classifies identically to the serial loop;
* the sampled coverage interval brackets the exhaustively measured
  coverage on a small kernel.
"""

from __future__ import annotations

import random

import pytest

from repro.common.config import DMRConfig, GPUConfig
from repro.faults.campaign import (CampaignEngine, CampaignSpec, Outcome,
                                   fault_run_key)
from repro.faults.models import TransientFault
from repro.faults.sampler import FaultSampler
from repro.isa.opcodes import UnitType
from repro.resilience.deadline import wall_budget

from tests.conftest import CountingSpec


@pytest.fixture
def spec() -> CampaignSpec:
    return CampaignSpec(workload="scan", config=GPUConfig.small(1),
                        dmr=DMRConfig.paper_default(), scale=0.25)


def sampled_faults(spec: CampaignSpec, n: int, seed: int = 3) -> list:
    horizon = CampaignEngine(spec).golden_result().cycles
    return FaultSampler(spec.config, windows=2).sample(n, horizon, seed=seed)


class TestResumableCache:
    def test_warm_rerun_performs_zero_simulations(self, spec, tmp_path):
        faults = sampled_faults(spec, 8)
        cold = CampaignEngine(spec, cache=tmp_path)
        cold_result = cold.run(faults)
        assert cold.simulations == len(faults)

        warm = CampaignEngine(spec, cache=tmp_path)  # fresh process stand-in
        warm_result = warm.run(faults)
        assert warm.simulations == 0
        assert ([r.to_payload() for r in warm_result.runs]
                == [r.to_payload() for r in cold_result.runs])

    def test_interrupted_campaign_resumes_incrementally(self, spec, tmp_path):
        faults = sampled_faults(spec, 8)
        first = CampaignEngine(spec, cache=tmp_path)
        first.run(faults[:5])  # "interrupted" after 5 classifications

        resumed = CampaignEngine(spec, cache=tmp_path)
        result = resumed.run(faults)
        assert resumed.simulations == len(faults) - 5
        assert result.total == len(faults)

    def test_golden_run_computed_once_ever(self, spec, tmp_path):
        first = CampaignEngine(spec, cache=tmp_path)
        golden = first.golden_result()

        second = CampaignEngine(spec, cache=tmp_path)
        assert second.persistent_cache.hits == 0
        again = second.golden_result()
        assert second.persistent_cache.hits == 1
        assert again.to_payload() == golden.to_payload()

    def test_duplicate_faults_simulate_once(self, spec):
        fault = sampled_faults(spec, 1)[0]
        engine = CampaignEngine(spec)
        result = engine.run([fault, fault, fault])
        assert engine.simulations == 1
        assert result.total == 3
        assert len({r.outcome for r in result.runs}) == 1

    def test_key_covers_fault_and_spec(self, spec):
        fault = sampled_faults(spec, 1)[0]
        other_fault = TransientFault(sm_id=fault.sm_id,
                                     hw_lane=fault.hw_lane,
                                     unit=fault.unit, bit=fault.bit,
                                     cycle=fault.cycle + 1)
        assert fault_run_key(spec, fault) != fault_run_key(spec, other_fault)
        from dataclasses import replace
        assert (fault_run_key(replace(spec, seed=1), fault)
                != fault_run_key(spec, fault))
        # engine is excluded by the bit-identity contract
        assert (fault_run_key(replace(spec, engine="scalar"), fault)
                == fault_run_key(replace(spec, engine="vector"), fault))


class TestParallelFanOut:
    def test_parallel_matches_serial(self, spec):
        faults = sampled_faults(spec, 10)
        serial = CampaignEngine(spec).run(faults)
        parallel = CampaignEngine(spec, jobs=2).run(faults)
        assert ([r.to_payload() for r in parallel.runs]
                == [r.to_payload() for r in serial.runs])

    def test_parallel_workers_populate_shared_cache(self, spec, tmp_path):
        faults = sampled_faults(spec, 6)
        cold = CampaignEngine(spec, cache=tmp_path, jobs=2)
        cold.run(faults)
        assert cold.simulations == len(faults)

        warm = CampaignEngine(spec, cache=tmp_path)
        warm.run(faults)
        assert warm.simulations == 0


class TestDeadlineCalibration:
    """Each worker chunk's wall-clock deadline comes from the golden run."""

    @staticmethod
    def chunk(spec, faults) -> tuple:
        """The ``_campaign_worker`` argument tuple for one chunk."""
        return (spec, faults, [], 0, 0)

    def test_measured_golden_run_scales_with_chunk_size(self, spec):
        faults = sampled_faults(spec, 3)
        engine = CampaignEngine(spec)
        engine.golden_result()
        seconds = engine._golden_seconds
        assert seconds is not None and seconds > 0
        deadline = engine.supervisor.deadline
        for k in (1, 3):
            assert (deadline(self.chunk(spec, faults[:k]))
                    == wall_budget(seconds * k))

    def test_cache_served_golden_run_has_no_deadline(self, spec, tmp_path):
        faults = sampled_faults(spec, 3)
        CampaignEngine(spec, cache=tmp_path).golden_result()
        warm = CampaignEngine(spec, cache=tmp_path)
        warm.golden_result()
        assert warm.persistent_cache.hits == 1
        assert warm.supervisor.deadline(self.chunk(spec, faults)) is None


class TestSampledCoverageBracketsExhaustive:
    """The statistical-validity acceptance criterion.

    Enumerate a small transient-fault universe on the counting kernel,
    measure its coverage exhaustively, then estimate it from a uniform
    sample: the sample's 95% interval must bracket the exhaustive rate.
    """

    #: a 20-thread block leaves the last SIMT cluster partially idle, so
    #: intra-warp DMR engages with real gaps and the exhaustive coverage
    #: lands strictly inside (0, 1) — bracketing an interior rate is a
    #: much stronger check than bracketing a saturated 0% or 100%
    THREADS = 20

    @pytest.fixture(scope="class")
    def campaign(self):
        return CampaignEngine(CountingSpec(threads=self.THREADS))

    @pytest.fixture(scope="class")
    def universe(self, campaign):
        horizon = campaign.golden_result().cycles
        cycles = [horizon // 5 * step for step in range(1, 5)]
        return [
            TransientFault(sm_id=0, hw_lane=lane, unit=UnitType.SP,
                           bit=bit, cycle=cycle)
            for lane in range(0, self.THREADS, 2)
            for bit in (0, 7, 31)
            for cycle in cycles
        ]

    @pytest.fixture(scope="class")
    def exhaustive(self, campaign, universe):
        runs = campaign.run(universe).runs
        return {id(f): run for f, run in zip(universe, runs)}

    def test_interval_brackets_exhaustive_rate(self, campaign, universe,
                                               exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        assert full.harmful_runs > 0, "universe too tame to measure"
        true_rate = full.detection_rate
        assert 0.0 < true_rate < 1.0, "universe rate degenerated"

        rng = random.Random(5)
        sample = CampaignResult(
            runs=[exhaustive[id(f)] for f in rng.sample(universe, 36)]
        )
        low, high = sample.coverage_interval(0.95)
        assert low <= true_rate <= high

    def test_exhaustive_interval_tightens_around_rate(self, exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        low, high = full.coverage_interval(0.95)
        assert low <= full.detection_rate <= high

    def test_outcomes_partition_the_universe(self, exhaustive):
        from repro.faults.campaign import CampaignResult

        full = CampaignResult(runs=list(exhaustive.values()))
        assert sum(full.summary().values()) == full.total
        assert full.detected_runs == (full.count(Outcome.DETECTED)
                                      + full.count(Outcome.DETECTED_AND_CORRUPT))


class TestCampaignResultAccounting:
    def test_workload_campaign_end_to_end(self, spec):
        engine = CampaignEngine(spec)
        result = engine.run(sampled_faults(spec, 12))
        assert result.total == 12
        assert 0.0 <= result.detection_rate <= 1.0
        low, high = result.coverage_interval()
        assert 0.0 <= low <= high <= 1.0
        assert result.harmful_runs <= result.total

    def test_cache_summary_format(self, spec, tmp_path):
        engine = CampaignEngine(spec, cache=tmp_path)
        engine.run(sampled_faults(spec, 2))
        summary = engine.cache_summary()
        assert "simulations=2" in summary
        assert "disk-stores=" in summary

    def test_golden_output_matches_workload_check(self, spec):
        engine = CampaignEngine(spec)
        run = spec.prepare()
        run.memory = engine.golden_result().memory
        run.check(run.memory)  # golden run must be a correct execution
