"""Fault-injection campaigns: measure detection instead of assuming it.

A campaign runs one golden (fault-free) execution of a workload, then
one run per fault, classifying each faulty run:

* ``DETECTED`` — the DMR comparator flagged at least one mismatch;
* ``SDC`` — silent data corruption: output differs from golden, no
  detection (the outcome Warped-DMR exists to eliminate);
* ``MASKED`` — the fault never propagated to the output (e.g. it hit a
  lane executing a value that was later overwritten), no detection;
* ``DETECTED_AND_CORRUPT`` — flagged *and* output corrupted (detection
  turns this SDC into a DUE, the paper's stated goal);
* ``HUNG`` — the fault corrupted control flow into a livelock, caught
  by the campaign's cycle-budget watchdog (see below).

:class:`CampaignEngine` is the one harness.  It takes a plain-data
:class:`CampaignSpec` (a registry workload + configs), so every
``(workload, config, fault)`` run is content-addressable in the
persistent :class:`~repro.analysis.result_cache.ResultCache` and the
misses fan out across worker processes.  A warm-cache rerun — or a
campaign interrupted and restarted — performs **zero** new
simulations.  To inject into a hand-built kernel instead of a registry
workload, subclass :class:`CampaignSpec` (frozen, like its parent) and
override :meth:`~CampaignSpec.prepare` to return a fresh object with
``program``, ``launch``, ``memory`` and ``output_of(memory)``; keep
such a spec in-memory (no persistent cache), since the cache keys name
the workload, not the kernel.

Every faulty run is bounded by a *cycle-budget watchdog*: the
budget is ``watchdog_factor x golden_cycles + watchdog_slack`` (capped
by ``max_cycles``), mirroring how real fault-injection rigs detect
livelock — a timeout calibrated against the fault-free runtime, not an
absolute cap.  A faulty run that exceeds its budget raises inside the
simulator and is classified ``HUNG``.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.result_cache import (CachedRunner, code_version_salt,
                                         result_key)
from repro.common.config import DMRConfig, GPUConfig, config_fingerprint
from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import binomial_interval
from repro.faults.injector import FaultInjector
from repro.faults.models import (
    Fault,
    TransientFault,
    fault_from_payload,
    fault_to_payload,
)
from repro.resilience.deadline import (
    DEFAULT_MAX_FAULTY_CYCLES,
    DEFAULT_WATCHDOG_FACTOR,
    DEFAULT_WATCHDOG_SLACK,
    cycle_budget,
    wall_budget,
)
from repro.service.sharding import fanout_workers, pool_chunks
from repro.sim.gpu import GPU, KernelResult, Launch


class Outcome(enum.Enum):
    DETECTED = "detected"            # flagged, output still golden
    DETECTED_AND_CORRUPT = "due"     # flagged, output corrupted (DUE)
    SDC = "sdc"                      # corrupted silently
    MASKED = "masked"                # no effect, no flag
    HUNG = "hung"                    # corrupted control flow livelocked
    #                                  (caught by the cycle-budget watchdog)


@dataclass
class FaultRun:
    """One fault's classified outcome."""

    fault: Fault
    outcome: Outcome
    detections: int
    activations: int
    cycles: int = 0  # faulty-run kernel cycles (0 for HUNG runs)
    #: metrics snapshot payload of the faulty run (None unless the
    #: campaign spec enabled observability; HUNG runs never carry one)
    obs: Optional[dict] = None
    #: distinct PCs the comparator flagged (None when nothing was
    #: detected, or under a scheme without per-PC detection events).
    #: Partial-protection selection consumes these as the per-PC
    #: vulnerability signal (:mod:`repro.baselines.partial`).
    pcs: Optional[Tuple[int, ...]] = None

    def to_payload(self) -> dict:
        """Plain-data form for worker IPC and the persistent cache."""
        return {
            "fault": fault_to_payload(self.fault),
            "outcome": self.outcome.value,
            "detections": self.detections,
            "activations": self.activations,
            "cycles": self.cycles,
            "obs": self.obs,
            "pcs": list(self.pcs) if self.pcs is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultRun":
        pcs = payload.get("pcs")
        return cls(
            fault=fault_from_payload(payload["fault"]),
            outcome=Outcome(payload["outcome"]),
            detections=payload["detections"],
            activations=payload["activations"],
            cycles=payload.get("cycles", 0),
            obs=payload.get("obs"),
            pcs=tuple(pcs) if pcs is not None else None,
        )


@dataclass
class CampaignResult:
    """Aggregate over all injected faults."""

    runs: List[FaultRun] = field(default_factory=list)

    def count(self, outcome: Outcome) -> int:
        return sum(1 for run in self.runs if run.outcome is outcome)

    @property
    def total(self) -> int:
        return len(self.runs)

    @property
    def effective_runs(self) -> int:
        """Runs where the fault actually perturbed a computation."""
        return sum(1 for run in self.runs if run.activations > 0)

    @property
    def harmful_runs(self) -> int:
        """Runs whose fault mattered (neither masked nor hung)."""
        return sum(
            1 for run in self.runs
            if run.outcome not in (Outcome.MASKED, Outcome.HUNG)
        )

    @property
    def detected_runs(self) -> int:
        return sum(
            1 for run in self.runs
            if run.outcome in (Outcome.DETECTED, Outcome.DETECTED_AND_CORRUPT)
        )

    @property
    def detection_rate(self) -> float:
        """Detected fraction of *non-masked* faults (coverage measure).

        HUNG runs are excluded: a livelocked kernel is caught by the
        watchdog, not by the computation checker being measured here.
        """
        harmful = self.harmful_runs
        if not harmful:
            return 1.0
        return self.detected_runs / harmful

    def coverage_interval(self, confidence: float = 0.95,
                          method: str = "wilson") -> Tuple[float, float]:
        """Confidence interval on the detection rate.

        A sampled campaign estimates a binomial proportion (detected
        over harmful); with no harmful runs at all the interval is the
        vacuous (0, 1).
        """
        return binomial_interval(self.detected_runs, self.harmful_runs,
                                 confidence, method)

    def coverage(self, confidence: float) -> Dict[str, float]:
        """The detection rate with its Wilson interval, as plain data
        (the ``coverage`` block of campaign JSON outputs)."""
        low, high = self.coverage_interval(confidence)
        return {
            "rate": self.detection_rate,
            "detected": self.detected_runs,
            "harmful": self.harmful_runs,
            "confidence": confidence,
            "low": low,
            "high": high,
        }

    @property
    def sdc_rate(self) -> float:
        if not self.runs:
            return 0.0
        return self.count(Outcome.SDC) / len(self.runs)

    def summary(self) -> Dict[str, int]:
        return {outcome.value: self.count(outcome) for outcome in Outcome}

    def metrics(self):
        """Fleet-wide :class:`~repro.obs.MetricSnapshot` over all runs.

        Merges each run's snapshot payload (obs-enabled campaigns only;
        obs-off runs contribute nothing).  Runs are folded in campaign
        order but merge commutativity makes the result order-free, so
        serial and parallel campaigns aggregate byte-identically.
        """
        from repro.obs import aggregate_payloads
        return aggregate_payloads(run.obs for run in self.runs)


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------
def classify(detections: int, corrupt: bool) -> Outcome:
    """The outcome lattice over (was it flagged?, is the output wrong?)."""
    if detections and corrupt:
        return Outcome.DETECTED_AND_CORRUPT
    if detections:
        return Outcome.DETECTED
    if corrupt:
        return Outcome.SDC
    return Outcome.MASKED


def _outputs_equal(a: Sequence, b: Sequence) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if isinstance(x, float) and isinstance(y, float):
            if x != x and y != y:
                continue
            if x != y:
                return False
        elif x != y:
            return False
    return True


# ----------------------------------------------------------------------
# Scaled campaigns: plain-data specs, worker fan-out, persistent cache
# ----------------------------------------------------------------------
#: detection schemes a campaign can run under.  ``"dmr"`` is the
#: Warped-DMR machinery configured by ``CampaignSpec.dmr`` (including
#: the disabled no-protection baseline and partial thread protection);
#: ``"secded"`` replaces it with the Hamming(72,64) ECC backend
#: (:mod:`repro.baselines.secded`) running on the derived
#: deeper-latency :func:`~repro.baselines.secded.secded_config`.
SCHEMES = ("dmr", "secded")


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines one campaign's faulty runs.

    Plain data (registry workload name + frozen configs), so a spec
    pickles into worker processes and fingerprints into cache keys.
    ``engine`` pins the faulty runs' execution engine ("scalar" /
    "vector"; ``None`` = the GPU default).  Unlike the suite runner's
    cache, the fault-run cache key deliberately excludes it: the engines are
    bit-identical by contract (enforced by the engine-differential
    tests), so their classifications are interchangeable.  The watchdog
    parameters *are* keyed — they decide what counts as ``HUNG`` — and
    so is ``scheme``: a SECDED classification must never be served to
    (or shadowed by) a DMR request.
    """

    workload: str
    config: GPUConfig
    dmr: DMRConfig
    scale: float = 0.5
    seed: int = 0
    engine: Optional[str] = None
    watchdog_factor: int = DEFAULT_WATCHDOG_FACTOR
    watchdog_slack: int = DEFAULT_WATCHDOG_SLACK
    max_cycles: int = DEFAULT_MAX_FAULTY_CYCLES
    #: record per-run metrics snapshots (merged by CampaignResult.metrics)
    obs: bool = False
    #: detection scheme (see :data:`SCHEMES`)
    scheme: str = "dmr"

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ConfigError(
                f"unknown campaign scheme {self.scheme!r}; expected one "
                f"of {SCHEMES}"
            )
        if self.scheme == "secded" and self.dmr.enabled:
            raise ConfigError(
                "scheme='secded' replaces DMR as the detection backend; "
                "pass DMRConfig.disabled()"
            )

    def prepare(self):
        """A fresh :class:`~repro.workloads.base.WorkloadRun` instance."""
        from repro.workloads import get_workload
        return get_workload(self.workload).prepare(self.scale, self.seed)


def fault_run_key(spec: CampaignSpec, fault: Fault) -> str:
    """Content address of one ``(workload, config, fault)`` run.

    Covers every input of the faulty simulation — workload identity,
    both configs, scale/seed, the watchdog envelope and the fault
    itself — plus the code-version salt, so stale code never serves a
    classification.  The engine is excluded by the bit-identity
    contract (see :class:`CampaignSpec`).
    """
    material = config_fingerprint({
        "kind": "fault-run",
        "workload": spec.workload,
        "gpu": spec.config,
        "dmr": spec.dmr,
        "scale": spec.scale,
        "seed": spec.seed,
        "watchdog_factor": spec.watchdog_factor,
        "watchdog_slack": spec.watchdog_slack,
        "max_cycles": spec.max_cycles,
        "obs": spec.obs,
        "scheme": spec.scheme,
        "fault": fault_to_payload(fault),
        "salt": code_version_salt(),
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def protection_storage_bits(spec: CampaignSpec) -> Tuple[int, int]:
    """``(extra_bits, base_bits)`` of storage *spec*'s scheme adds per SM.

    SECDED taxes every register-file and shared-memory word with its 8
    check bits; Warped-DMR (full or partial) only buys the ReplayQ —
    each entry holds pc, opcode, active mask and per-lane operands plus
    the original result for the replay compare.  The unprotected
    baseline adds nothing.
    """
    config = spec.config
    base = (config.register_file_bytes + config.shared_memory_bytes) * 8
    if spec.scheme == "secded":
        from repro.baselines.secded import storage_bits
        return storage_bits(config)[0], base
    if spec.dmr.enabled:
        # pc(32) + opcode(10) + mask(warp_size) + 3 words/lane
        entry_bits = 42 + config.warp_size + config.warp_size * 3 * 32
        return spec.dmr.replayq_entries * entry_bits, base
    return 0, base


def _protection_obs(obs: Optional[dict], spec: CampaignSpec, hook,
                    cycles: int, golden_cycles: int) -> Optional[dict]:
    """Charge the scheme's overhead into the run's metrics snapshot.

    Coverage and cost must come out of the *same* instrumented runs, so
    each obs-enabled faulty run carries counters for the cycles it took
    versus the unprotected golden run (cycle overhead) and the scheme's
    storage tax (constant per run; normalize by ``protection_runs``).
    Merging stays associative/commutative, so serial and parallel
    campaigns still aggregate byte-identically.
    """
    if not spec.obs:
        return obs
    from repro.obs import aggregate_payloads
    from repro.obs.metrics import MetricsRegistry, MetricSnapshot

    registry = MetricsRegistry()
    registry.inc("protection_runs")
    registry.inc("protection_cycles", cycles)
    if golden_cycles > 0:
        registry.inc("protection_base_cycles", golden_cycles)
        registry.inc("protection_extra_cycles",
                     max(0, cycles - golden_cycles))
    extra_bits, base_bits = protection_storage_bits(spec)
    registry.inc("protection_storage_bits", extra_bits)
    registry.inc("protection_base_storage_bits", base_bits)
    if hasattr(hook, "checks"):  # the SECDED backend's codec counters
        registry.inc("secded_checks", hook.checks)
        registry.inc("secded_corrections", hook.corrections)
        registry.inc("secded_uncorrectable", hook.uncorrectable)
    payload = MetricSnapshot.from_registry(registry).to_payload()
    if obs is None:
        return payload
    return aggregate_payloads([obs, payload]).to_payload()


def _detection_hook(spec: CampaignSpec, faults: List[Fault]):
    """The fault hook and GPU config *spec*'s scheme runs under."""
    if spec.scheme == "secded":
        from repro.baselines.secded import SECDEDBackend, secded_config
        return SECDEDBackend(faults), secded_config(spec.config)
    return FaultInjector(faults), spec.config


def _start(spec: CampaignSpec, budget: int, faults: List[Fault]):
    """Prepare *spec*'s workload and start (not run) a launch of it
    under the scheme's hook armed with *faults*; returns
    ``(workload_run, launch)``."""
    run = spec.prepare()
    hook, config = _detection_hook(spec, faults)
    gpu = GPU(config, dmr=spec.dmr, fault_hook=hook,
              max_cycles=budget, engine=spec.engine,
              obs=("metrics" if spec.obs else False))
    return run, gpu.start(run.program, run.launch, memory=run.memory)


def strike_cycle(fault: Fault) -> int:
    """First cycle at which *fault* can perturb anything.

    A transient is inert before its strike cycle (the ``may_perturb``
    contract of every fault hook); a stuck-at is live from cycle 0.
    """
    return fault.cycle if isinstance(fault, TransientFault) else 0


def run_single_fault(spec: CampaignSpec, fault: Fault,
                     golden: Sequence, budget: int,
                     golden_cycles: int = 0,
                     prefix: Optional[Tuple[object, Launch]] = None
                     ) -> FaultRun:
    """Simulate and classify one faulty run of *spec* (pure function).

    ``golden_cycles`` is the unprotected golden run's cycle count —
    the baseline the scheme's cycle overhead is charged against when
    the spec records metrics (0 = unknown, no overhead charged).
    ``prefix`` is a ``(workload_run, launch)`` pair from
    :func:`run_fault_chunk`: a fault-free launch of *spec* paused no
    later than the fault's strike cycle, which this run arms with the
    fault and finishes (consuming it).  ``None`` simulates from cycle 0.
    """
    if prefix is None:
        run, launch = _start(spec, budget, [fault])
    else:
        run, launch = prefix
        launch.fault_hook.faults = [fault]
    hook = launch.fault_hook
    try:
        result = launch.finish()
    except SimulationError:
        # a HUNG run died mid-simulation: whatever partial metrics the
        # session gathered would not be reproducible, so none ride along
        return FaultRun(
            fault=fault,
            outcome=Outcome.HUNG,
            detections=0,
            activations=hook.activations,
        )
    output = run.output_of(result.memory)
    corrupt = not _outputs_equal(output, golden)
    if spec.scheme == "secded":
        detections = hook.detections
        pcs = None  # ECC flags words, not program counters
    else:
        detections = len(result.detections)
        detected_pcs = tuple(sorted({e.pc for e in result.detections}))
        pcs = detected_pcs or None
    return FaultRun(
        fault=fault,
        outcome=classify(detections, corrupt),
        detections=detections,
        activations=hook.activations,
        cycles=result.cycles,
        obs=_protection_obs(result.obs, spec, hook, result.cycles,
                            golden_cycles),
        pcs=pcs,
    )


def run_fault_chunk(spec: CampaignSpec, faults: Sequence[Fault],
                    golden: Sequence, budget: int, golden_cycles: int = 0,
                    on_result: Optional[Callable[[int, FaultRun], None]]
                    = None) -> List[FaultRun]:
    """Classify *faults* from one shared fault-free prefix.

    Byte-identical to one :func:`run_single_fault` from cycle 0 per
    fault, without re-simulating the prefix every faulty run shares
    with the fault-free one.  One launch runs under the scheme's hook
    armed with no faults (it never fires and moves no counter), and
    faults are visited in ``(sm_id, strike cycle)`` order: for each,
    the prefix advances to the strike, is forked, and the fork is armed
    with the fault and classified — the last fault takes the prefix
    itself.  The fork is exact because no hook can act before the
    strike and SMs run one at a time (DESIGN.md §6).  Results come back
    in input order; ``on_result(index, run)`` sees each one as soon as
    it is classified.
    """
    order = sorted(range(len(faults)),
                   key=lambda i: (faults[i].sm_id, strike_cycle(faults[i])))
    runs: List[Optional[FaultRun]] = [None] * len(faults)
    run, launch = _start(spec, budget, [])
    for position, index in enumerate(order):
        fault = faults[index]
        prefix = None
        if launch is not None:
            try:
                launch.advance(fault.sm_id, strike_cycle(fault))
            except SimulationError:
                # the fault-free prefix itself overran the watchdog:
                # classify the rest from cycle 0
                launch = None
            else:
                last = position == len(order) - 1
                prefix = (run, launch if last else launch.fork())
        runs[index] = run_single_fault(spec, fault, golden, budget,
                                       golden_cycles, prefix)
        if on_result is not None:
            on_result(index, runs[index])
    return runs


def _campaign_worker(args: Tuple[CampaignSpec, List[Fault], Sequence,
                                 int, int]) -> List[dict]:
    """Worker entry point: classify a chunk of faults, return payloads.

    Module-level so it pickles under any multiprocessing start method;
    chunks amortize process/IPC overhead — and the fault-free prefix
    (:func:`run_fault_chunk`) — over many sub-second runs.
    """
    return [run.to_payload() for run in run_fault_chunk(*args)]


class CampaignEngine(CachedRunner):
    """Fault-injection campaigns: parallel, cached, resumable.

    The golden run is fetched through the same content-addressed
    :class:`~repro.analysis.result_cache.ResultCache` the suite runner
    uses (so a figure regeneration and a campaign share baselines), and
    every fault-run classification is cached under
    :func:`fault_run_key` — rerunning a finished campaign, or resuming
    an interrupted one, re-simulates only the missing faults.

    ``cache``, ``jobs`` and ``supervisor`` work as for every
    :class:`~repro.analysis.result_cache.CachedRunner`; ``jobs`` is the
    default fan-out for :meth:`run`.  Worker deaths retry with backoff,
    pool collapses rebuild and resubmit only the lost chunks, and
    corrupt cache entries quarantine and recompute.  Unless a supplied
    ``supervisor`` sets its own, each worker chunk's wall clock is
    bounded by :func:`repro.resilience.deadline.wall_budget` of the
    measured golden runtime; there is no deadline when the golden run
    came from cache (nothing was timed).
    """

    summary_label = "campaign-cache"
    result_type = FaultRun

    def __init__(self, spec: CampaignSpec, cache=None, jobs: int = 1,
                 supervisor=None) -> None:
        super().__init__(cache, jobs, supervisor)
        if self.supervisor.deadline is None:
            self.supervisor.deadline = self._task_deadline
        self.spec = spec
        self._golden: Optional[KernelResult] = None
        self._golden_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    def _golden_key(self) -> str:
        spec = self.spec
        # the golden baseline never records metrics, so obs=False keeps
        # it shared with suite-runner baselines regardless of spec.obs
        return result_key(spec.workload, DMRConfig.disabled(), spec.config,
                          spec.scale, spec.seed, False, False)

    def golden_result(self) -> KernelResult:
        """The fault-free baseline run (computed at most once, ever)."""
        if self._golden is not None:
            return self._golden
        key = self._golden_key()
        if self.persistent_cache is not None:
            cached = self.persistent_cache.get(key)
            if cached is not None:
                self._golden = cached
                return cached
        spec = self.spec
        run = spec.prepare()
        gpu = GPU(spec.config, dmr=DMRConfig.disabled(), engine=spec.engine)
        started = time.perf_counter()
        result = gpu.launch(run.program, run.launch, memory=run.memory)
        # the measured fault-free wall time calibrates worker deadlines
        # (a cache-served golden run leaves this None: nothing was timed)
        self._golden_seconds = time.perf_counter() - started
        if self.persistent_cache is not None:
            self.persistent_cache.put(key, result)
        self._golden = result
        return result

    def golden_output(self) -> Sequence:
        return self.spec.prepare().output_of(self.golden_result().memory)

    def cycle_budget(self) -> int:
        """Per-run watchdog budget derived from the golden runtime."""
        spec = self.spec
        return cycle_budget(self.golden_result().cycles,
                            spec.watchdog_factor, spec.watchdog_slack,
                            spec.max_cycles)

    def _task_deadline(self, args: Tuple) -> Optional[float]:
        """Supervisor deadline for one worker chunk.

        The chunk's budget scales with how many faults it classifies —
        the wall-clock analogue of the cycle watchdog, calibrated from
        the same golden run.
        """
        if self._golden_seconds is None:
            return None
        faults = args[1]
        return wall_budget(self._golden_seconds * max(1, len(faults)))

    # ------------------------------------------------------------------
    def run(self, faults: Sequence[Fault], *,
            parallel: Optional[int] = None) -> CampaignResult:
        """Classify every fault, fanning cache misses out to workers.

        Duplicate faults simulate once; results come back in fault
        order.  With ``parallel`` (or ``self.jobs``) > 1 the misses are
        chunked across a supervised process pool — each chunk
        re-derives nothing (spec, golden output and watchdog budget
        ride along), so workers are pure classify loops, and the
        supervisor absorbs worker deaths, hangs and pool collapses.
        """
        keys = [fault_run_key(self.spec, fault) for fault in faults]
        missing: Dict[str, Fault] = {}
        for key, fault in zip(keys, faults):
            if key not in missing and self._lookup(key) is None:
                missing[key] = fault

        workers = fanout_workers(
            self.jobs if parallel is None else max(1, parallel),
            len(missing),
        )
        order = list(missing.items())
        if order:
            golden = self.golden_output()
            budget = self.cycle_budget()
            golden_cycles = self.golden_result().cycles
        if workers > 1:
            chunks = pool_chunks(order, workers)
            args = [(self.spec, [fault for _, fault in chunk], golden,
                     budget, golden_cycles) for chunk in chunks]
            for chunk, payloads in zip(
                    chunks,
                    self.supervisor.map(_campaign_worker, args, workers)):
                for (key, _), payload in zip(chunk, payloads):
                    self._store(key, FaultRun.from_payload(payload))
        elif order:
            # each classification reaches the cache as soon as it is
            # made, so an interrupted serial campaign keeps its progress
            run_fault_chunk(self.spec, [fault for _, fault in order],
                            golden, budget, golden_cycles,
                            lambda index, run: self._store(order[index][0],
                                                           run))

        return CampaignResult(runs=[self._memory[key] for key in keys])
