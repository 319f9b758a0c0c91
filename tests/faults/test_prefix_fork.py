"""Golden-prefix forking is exact.

:func:`run_fault_chunk` simulates one fault-free prefix per chunk and
forks each faulty run off it at its strike cycle.  These tests pin it,
byte for byte on the full :class:`FaultRun` payloads (outcome, cycles,
detections, activations, pcs and the obs snapshot), to the oracle the
campaign used before: one ``GPU(...).launch`` from cycle 0 per fault.
They also pin the resumable launch it is built on: ``GPU.launch`` ==
``start().finish()`` == a forked or advanced-then-finished launch.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.common.config import DMRConfig, GPUConfig
from repro.common.errors import SimulationError
from repro.faults.campaign import (
    CampaignEngine,
    CampaignSpec,
    FaultRun,
    Outcome,
    _detection_hook,
    _outputs_equal,
    _protection_obs,
    classify,
    run_fault_chunk,
)
from repro.faults.models import TransientFault
from repro.faults.sampler import FaultSampler
from repro.isa.opcodes import UnitType
from repro.sim.gpu import GPU
from repro.workloads import PAPER_ORDER, get_workload

from tests.faults.golden_corpus import STUCK_ATS

SCALE = 0.25
#: the scale at which every multi-block workload spans both SMs
TWO_SM_SCALE = 0.5
#: a workload whose ReplayQ fills, so a fork that sampled its parent's
#: queue (or any state shared by mistake) shows up in the obs payload
WORKLOAD = "matrixmul"


def scratch_run(spec: CampaignSpec, fault, golden, budget: int,
                golden_cycles: int) -> FaultRun:
    """The oracle: classify *fault* from a fresh ``GPU.launch``."""
    run = spec.prepare()
    hook, config = _detection_hook(spec, [fault])
    gpu = GPU(config, dmr=spec.dmr, fault_hook=hook, max_cycles=budget,
              engine=spec.engine, obs=("metrics" if spec.obs else False))
    try:
        result = gpu.launch(run.program, run.launch, memory=run.memory)
    except SimulationError:
        return FaultRun(fault=fault, outcome=Outcome.HUNG, detections=0,
                        activations=hook.activations)
    corrupt = not _outputs_equal(run.output_of(run.memory), golden)
    if spec.scheme == "secded":
        detections, pcs = hook.detections, None
    else:
        detections = len(result.detections)
        pcs = tuple(sorted({e.pc for e in result.detections})) or None
    return FaultRun(
        fault=fault, outcome=classify(detections, corrupt),
        detections=detections, activations=hook.activations,
        cycles=result.cycles,
        obs=_protection_obs(result.obs, spec, hook, result.cycles,
                            golden_cycles),
        pcs=pcs,
    )


def payload_bytes(runs) -> list:
    return [pickle.dumps(run.to_payload()) for run in runs]


def make_spec(scheme: str, num_sms: int = 1,
              scale: float = SCALE) -> CampaignSpec:
    config = GPUConfig.small(num_sms)
    if scheme == "secded":
        return CampaignSpec(workload=WORKLOAD, config=config,
                            dmr=DMRConfig.disabled(), scale=scale,
                            obs=True, scheme="secded")
    dmr = DMRConfig.paper_default()
    if scheme == "partial":
        dmr = dmr.with_protected_pcs((14, 17, 18, 33))
    return CampaignSpec(workload=WORKLOAD, config=config, dmr=dmr,
                        scale=scale, obs=True)


def campaign_inputs(spec: CampaignSpec):
    engine = CampaignEngine(spec)
    return (engine.golden_output(), engine.cycle_budget(),
            engine.golden_result().cycles)


def fault_mix(config: GPUConfig, horizon: int, sm_id: int = 0,
              seed: int = 7) -> list:
    """Sampled transients, stuck-ats (one of which hangs the kernel),
    duplicate strike cycles, and strikes at and past the kernel's end."""
    sampler = FaultSampler(config, windows=2, sm_id=sm_id)
    transients = sampler.sample(8, horizon, seed=seed)
    first = transients[0]
    extra = [
        # same strike cycle as `first`, different site and bit
        TransientFault(sm_id=sm_id, hw_lane=(first.hw_lane + 1) % 32,
                       unit=first.unit, bit=(first.bit + 3) % 32,
                       cycle=first.cycle),
        first,  # an exact duplicate
        TransientFault(sm_id=sm_id, hw_lane=4, unit=UnitType.SP, bit=2,
                       cycle=horizon),
        TransientFault(sm_id=sm_id, hw_lane=4, unit=UnitType.SP, bit=2,
                       cycle=horizon + 500),
    ]
    stuck = [type(f)(sm_id=sm_id, hw_lane=f.hw_lane, unit=f.unit,
                     bit=f.bit, stuck_to=f.stuck_to) for f in STUCK_ATS]
    return transients + extra + stuck


@pytest.fixture(scope="module", params=["dmr", "secded", "partial"])
def scheme_case(request):
    spec = make_spec(request.param)
    golden, budget, golden_cycles = campaign_inputs(spec)
    faults = fault_mix(spec.config, golden_cycles)
    expected = [scratch_run(spec, fault, golden, budget, golden_cycles)
                for fault in faults]
    return spec, faults, (golden, budget, golden_cycles), expected


def test_chunk_matches_scratch(scheme_case):
    spec, faults, inputs, expected = scheme_case
    got = run_fault_chunk(spec, faults, *inputs)
    assert payload_bytes(got) == payload_bytes(expected)


def test_mix_covers_the_edge_cases(scheme_case):
    """The fault mix really exercises what the differential claims."""
    spec, faults, inputs, expected = scheme_case
    outcomes = {run.outcome for run in expected}
    assert Outcome.HUNG in outcomes
    assert len(outcomes) >= 3
    assert any(run.obs for run in expected)
    assert any(run.activations for run in expected)
    golden_cycles = inputs[2]
    assert any(isinstance(f, TransientFault) and f.cycle > golden_cycles
               for f in faults)


def test_fork_independence(scheme_case):
    """Results depend on neither visiting order nor chunk boundaries."""
    spec, faults, inputs, expected = scheme_case
    want = payload_bytes(expected)
    rng = random.Random(13)
    for chunk_size in (1, 3, 5):
        order = list(range(len(faults)))
        rng.shuffle(order)
        got = {}
        for start in range(0, len(order), chunk_size):
            indices = order[start:start + chunk_size]
            runs = run_fault_chunk(spec, [faults[i] for i in indices],
                                   *inputs)
            got.update(zip(indices, payload_bytes(runs)))
        assert [got[i] for i in range(len(faults))] == want, chunk_size


def test_on_result_sees_every_run_in_input_order():
    spec = make_spec("dmr")
    inputs = campaign_inputs(spec)
    faults = fault_mix(spec.config, inputs[2])[:6]
    seen = {}
    runs = run_fault_chunk(spec, faults, *inputs,
                           on_result=lambda i, run: seen.setdefault(i, run))
    assert sorted(seen) == list(range(len(faults)))
    assert [seen[i] for i in range(len(faults))] == runs


def test_two_sms_interleaved():
    """Faults on both SMs, interleaved: the prefix completes SM 0
    (flushing it exactly once) before forking SM 1's faults."""
    spec = make_spec("dmr", num_sms=2, scale=TWO_SM_SCALE)
    golden, budget, golden_cycles = campaign_inputs(spec)
    per_sm = []
    for sm in (0, 1):
        mix = fault_mix(spec.config, golden_cycles, sm_id=sm, seed=sm)
        # three sampled strikes, one past the end, the hanging stuck-at
        per_sm.append(mix[:3] + mix[11:12] + mix[-1:])
    faults = [f for pair in zip(*per_sm) for f in pair]
    expected = [scratch_run(spec, fault, golden, budget, golden_cycles)
                for fault in faults]
    assert {run.fault.sm_id for run in expected if run.activations} \
        == {0, 1}
    assert Outcome.HUNG in {run.outcome for run in expected}
    got = run_fault_chunk(spec, faults, golden, budget, golden_cycles)
    assert payload_bytes(got) == payload_bytes(expected)


def test_prefix_overrunning_the_watchdog():
    """A budget so tight that the fault-free run itself overruns it
    (SECDED's deeper pipeline is slower than the unprotected golden run):
    the prefix dies partway through the chunk, and every fault is still
    classified as a from-scratch run would classify it (HUNG)."""
    spec = CampaignSpec(workload=WORKLOAD, config=GPUConfig.small(1),
                        dmr=DMRConfig.disabled(), scale=SCALE,
                        scheme="secded", watchdog_factor=1,
                        watchdog_slack=0)
    golden, budget, golden_cycles = campaign_inputs(spec)
    faults = fault_mix(spec.config, golden_cycles)
    assert any(isinstance(f, TransientFault) and f.cycle > budget
               for f in faults)
    expected = [scratch_run(spec, fault, golden, budget, golden_cycles)
                for fault in faults]
    assert {run.outcome for run in expected} == {Outcome.HUNG}
    got = run_fault_chunk(spec, faults, golden, budget, golden_cycles)
    assert payload_bytes(got) == payload_bytes(expected)


def _result_bytes(result) -> bytes:
    return pickle.dumps(result.to_payload())


@pytest.mark.parametrize("workload", PAPER_ORDER)
def test_unadvanced_finish_equals_launch(workload):
    config = GPUConfig.small(2)
    for dmr in (DMRConfig.disabled(), DMRConfig.paper_default()):
        results = []
        for mode in ("launch", "finish", "fork"):
            run = get_workload(workload).prepare(TWO_SM_SCALE, 0)
            gpu = GPU(config, dmr=dmr, obs="metrics")
            args = (run.program, run.launch, run.memory)
            if mode == "launch":
                results.append(_result_bytes(gpu.launch(*args)))
            elif mode == "finish":
                results.append(_result_bytes(gpu.start(*args).finish()))
            else:
                results.append(
                    _result_bytes(gpu.start(*args).fork().finish()))
        assert results[0] == results[1] == results[2], (workload, dmr)


@pytest.mark.parametrize("workload", ["scan", "matrixmul", "laplace"])
def test_advanced_fork_and_prefix_both_finish_exactly(workload):
    """Pause a fault-free launch mid-SM, fork it, and finish both: each
    equals the uninterrupted launch, and neither disturbs the other."""
    config = GPUConfig.small(2)
    dmr = DMRConfig.paper_default()

    def start():
        run = get_workload(workload).prepare(TWO_SM_SCALE, 0)
        return GPU(config, dmr=dmr, obs="metrics").start(
            run.program, run.launch, run.memory)

    assert len(start().sms) == 2
    want = _result_bytes(start().finish())
    for sm_id, cycle in ((0, 1), (0, 97), (1, 0), (1, 150), (1, 10 ** 6)):
        launch = start()
        launch.advance(sm_id, cycle)
        fork = launch.fork()
        assert _result_bytes(fork.finish()) == want, (sm_id, cycle)
        assert _result_bytes(launch.finish()) == want, (sm_id, cycle)
