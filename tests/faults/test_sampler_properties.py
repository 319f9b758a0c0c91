"""Property tests: stratified sampling and binomial interval statistics.

The sampled-campaign methodology rests on a few exact invariants —
allocation counts summing to N, intervals staying inside [0, 1] and
shrinking as samples accumulate, outcomes obeying the classification
lattice.  Hypothesis searches the parameter space for violations.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.common.config import GPUConfig
from repro.common.stats import (binomial_interval, clopper_pearson_interval,
                                wilson_interval)
from repro.faults.campaign import CampaignEngine, Outcome
from repro.faults.models import StuckAtFault, TransientFault
from repro.faults.sampler import FaultSampler, allocate
from repro.isa.opcodes import UnitType

from tests.conftest import CountingSpec


class TestAllocation:
    @given(n=st.integers(0, 2000), cells=st.integers(1, 96))
    def test_counts_sum_to_n(self, n, cells):
        counts = allocate(n, cells)
        assert sum(counts) == n
        assert len(counts) == cells

    @given(n=st.integers(0, 2000), cells=st.integers(1, 96))
    def test_allocation_is_balanced(self, n, cells):
        counts = allocate(n, cells)
        assert max(counts) - min(counts) <= 1
        assert all(count >= 0 for count in counts)


class TestSampler:
    @given(n=st.integers(0, 120), horizon=st.integers(1, 5000),
           seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_sample_size_and_bounds(self, n, horizon, seed):
        sampler = FaultSampler(GPUConfig.small(1), windows=4)
        faults = sampler.sample(n, horizon, seed=seed)
        assert len(faults) == n
        for fault in faults:
            assert isinstance(fault, TransientFault)
            assert 0 <= fault.hw_lane < sampler.config.warp_size
            assert 0 <= fault.cycle < horizon
            assert 0 <= fault.bit < 32
            assert fault.unit in sampler.units

    @given(n=st.integers(0, 80), horizon=st.integers(1, 5000),
           seed=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_sample_is_deterministic(self, n, horizon, seed):
        sampler = FaultSampler(GPUConfig.small(1), windows=3)
        assert (sampler.sample(n, horizon, seed=seed)
                == sampler.sample(n, horizon, seed=seed))

    @given(n=st.integers(0, 120), seed=st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_stuck_at_sample_size_and_bounds(self, n, seed):
        sampler = FaultSampler(GPUConfig.small(1), windows=4)
        faults = sampler.sample_stuck_ats(n, seed=seed)
        assert len(faults) == n
        for fault in faults:
            assert isinstance(fault, StuckAtFault)
            assert 0 <= fault.hw_lane < sampler.config.warp_size
            assert 0 <= fault.bit < 32
            assert fault.stuck_to in (0, 1)
            assert fault.unit in sampler.units

    @given(n=st.integers(0, 80), seed=st.integers(0, 10))
    @settings(max_examples=25, deadline=None)
    def test_stuck_at_sample_is_deterministic(self, n, seed):
        sampler = FaultSampler(GPUConfig.small(1), windows=3)
        assert (sampler.sample_stuck_ats(n, seed=seed)
                == sampler.sample_stuck_ats(n, seed=seed))

    @given(n=st.integers(96, 200))
    @settings(max_examples=10, deadline=None)
    def test_stuck_at_strata_all_represented(self, n):
        """With >= one sample per (unit, lane) cell, every cell draws."""
        sampler = FaultSampler(GPUConfig.small(1))
        cells = {(f.unit, f.hw_lane)
                 for f in sampler.sample_stuck_ats(n, seed=0)}
        assert len(cells) == len(sampler.units) * len(sampler.lanes)

    @given(horizon=st.integers(1, 5000))
    @settings(max_examples=25, deadline=None)
    def test_strata_tile_the_horizon(self, horizon):
        sampler = FaultSampler(GPUConfig.small(1), windows=4)
        windows = sampler.cycle_windows(horizon)
        assert windows[0][0] == 0
        assert windows[-1][1] == horizon
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert end == start  # contiguous, non-overlapping


proportions = st.integers(0, 400).flatmap(
    lambda n: st.tuples(st.integers(0, n), st.just(n))
)


class TestIntervals:
    @given(kn=proportions,
           confidence=st.sampled_from([0.8, 0.9, 0.95, 0.99]),
           method=st.sampled_from(["wilson", "clopper-pearson"]))
    def test_interval_contains_point_estimate(self, kn, confidence, method):
        k, n = kn
        low, high = binomial_interval(k, n, confidence, method)
        assert 0.0 <= low <= high <= 1.0
        if n:
            assert low <= k / n <= high

    @given(kn=proportions)
    def test_interval_shrinks_as_samples_double(self, kn):
        """At a fixed observed rate, 2x the evidence must tighten (or at
        worst preserve) the interval — the 'CIs shrink with N' claim."""
        k, n = kn
        if n == 0:
            return
        for fn in (wilson_interval, clopper_pearson_interval):
            low1, high1 = fn(k, n)
            low2, high2 = fn(2 * k, 2 * n)
            assert (high2 - low2) <= (high1 - low1) + 1e-12

    @given(kn=proportions)
    def test_higher_confidence_widens(self, kn):
        k, n = kn
        low90, high90 = wilson_interval(k, n, 0.90)
        low99, high99 = wilson_interval(k, n, 0.99)
        assert (high99 - low99) >= (high90 - low90) - 1e-12

    @given(kn=proportions)
    def test_clopper_pearson_contains_wilson_center(self, kn):
        """The exact interval is conservative: it can't be narrower than
        Wilson on both sides at once."""
        k, n = kn
        if n == 0:
            return
        w_low, w_high = wilson_interval(k, n)
        cp_low, cp_high = clopper_pearson_interval(k, n)
        assert cp_low <= w_low + 1e-9 or cp_high >= w_high - 1e-9

    @given(n=st.integers(1, 400))
    def test_certain_outcomes_pin_the_endpoints(self, n):
        assert wilson_interval(n, n)[1] == 1.0
        assert wilson_interval(0, n)[0] == 0.0
        assert clopper_pearson_interval(n, n)[1] == 1.0
        assert clopper_pearson_interval(0, n)[0] == 0.0


_SPEC = CountingSpec(iterations=5)
_CAMPAIGN = CampaignEngine(_SPEC)
_GOLDEN = _CAMPAIGN.golden_output()
_HORIZON = _CAMPAIGN.golden_result().cycles


fault_strategy = st.one_of(
    st.builds(TransientFault,
              sm_id=st.just(0),
              hw_lane=st.integers(0, 31),
              unit=st.sampled_from(list(UnitType)),
              bit=st.integers(0, 31),
              cycle=st.integers(0, _HORIZON + 50)),
    st.builds(StuckAtFault,
              sm_id=st.just(0),
              hw_lane=st.integers(0, 31),
              unit=st.sampled_from(list(UnitType)),
              bit=st.integers(0, 7),
              stuck_to=st.sampled_from([0, 1])),
)


class TestOutcomeInvariants:
    """The classification lattice, checked against live simulations."""

    @given(fault=fault_strategy)
    @settings(max_examples=30, deadline=None)
    def test_outcome_lattice_invariants(self, fault):
        run = _CAMPAIGN.run([fault]).runs[0]
        if run.outcome in (Outcome.DETECTED, Outcome.DETECTED_AND_CORRUPT):
            assert run.detections >= 1
        else:
            assert run.detections == 0
        if run.outcome is not Outcome.HUNG:
            # replaying the fault must corrupt iff the outcome says so
            fresh = _SPEC.prepare()
            from repro.faults.injector import FaultInjector
            from repro.sim.gpu import GPU
            gpu = GPU(_SPEC.config, dmr=_SPEC.dmr,
                      fault_hook=FaultInjector([fault]),
                      max_cycles=_CAMPAIGN.cycle_budget())
            gpu.launch(fresh.program, fresh.launch, memory=fresh.memory)
            output = fresh.output_of(fresh.memory)
            corrupt = output != _GOLDEN
            expect_corrupt = run.outcome in (Outcome.SDC,
                                             Outcome.DETECTED_AND_CORRUPT)
            assert corrupt == expect_corrupt
            if run.outcome is Outcome.MASKED:
                assert output == _GOLDEN

    @given(fault=fault_strategy)
    @settings(max_examples=15, deadline=None)
    def test_inactive_fault_is_masked(self, fault):
        run = _CAMPAIGN.run([fault]).runs[0]
        if run.activations == 0 and run.outcome is not Outcome.HUNG:
            assert run.outcome is Outcome.MASKED
