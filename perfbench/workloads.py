"""The benchmark workloads: ``suite`` and ``campaign``.

Each workload is a closed loop: one client issues an iteration, waits
for it, checks its outputs, and issues the next.  An iteration has an
untimed :meth:`prepare` (fresh caches and stores) and a timed
:meth:`run`; :meth:`finish` runs once after the loop for checks too
expensive to repeat.  ``README.md`` in this directory says why each
workload was chosen and which layers it stresses.

Every call into ``repro`` that a layer span wraps goes through the
module attribute at call time (``jobs.submit_campaign_job``, not a
name imported here), so an installed tracer sees it.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import shutil
import struct
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: faults per campaign pass and per fleet job
SAMPLES = 200
#: cycle windows per (unit x lane) stratum
WINDOWS = 4
#: faults per fleet work unit (200 faults -> 20 units)
UNIT_SIZE = 10
#: warm reruns after each cold campaign pass, and warm resubmits after
#: each cold fleet job: few enough that a run holds several cold
#: commands, enough that it holds over a hundred short operations
CAMPAIGN_WARM_REPEATS = 20
FLEET_WARM_REPEATS = 15
#: pool workers and fleet worker processes
WORKERS = 2
#: seconds a fleet worker process waits idle before exiting
FLEET_MAX_IDLE = 0.3
#: seconds between a fleet worker's idle polls, and the parent's polls
#: for ``merged.json``
FLEET_POLL = 0.02
MERGED_POLL = 0.005
#: seconds before a cold fleet job counts as failed
FLEET_TIMEOUT = 120.0
#: loop length and repeats of the host probe
PROBE_LOOPS = 50_000
PROBE_REPEATS = 3


def _probe_loop() -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def host_probe(cpus: int = 1) -> float:
    """Seconds the fastest of :data:`PROBE_REPEATS` runs of a fixed
    pure-Python loop takes right now; with ``cpus=2``, the mean of that
    time in this process and in a forked child running the loop at the
    same time.

    The host is shared, and how fast it runs Python changes by up to
    half from one stretch of seconds or minutes to the next.  Every
    timed operation is preceded by a probe that keeps as many CPUs busy
    as the operation does, so that a run's times can be scaled to a
    fixed host speed (``run.host_factor``).
    """
    if cpus == 1:
        return _probe_loop()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read)
        os.write(write, struct.pack("d", _probe_loop()))
        os._exit(0)
    os.close(write)
    try:
        mine = _probe_loop()
        with os.fdopen(read, "rb") as pipe:
            other, = struct.unpack("d", pipe.read(8))
    finally:
        os.waitpid(pid, 0)
    return (mine + other) / 2


class Stopwatch:
    """Times one operation of *it*, started right after a host probe on
    *cpus* CPUs that it records in ``it.probes`` (one CPU) or
    ``it.wide_probes`` (both)."""

    def __init__(self, it: "Iteration", cpus: int = 1) -> None:
        probes = it.probes if cpus == 1 else it.wide_probes
        probes.append(host_probe(cpus))
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


@dataclass
class Iteration:
    """What one timed iteration produced."""

    #: wall seconds of each part of the iteration's cold command (the
    #: suite's kernel runs; the campaign's pool pass and fleet job)
    parts: Dict[str, float] = field(default_factory=dict)
    #: wall milliseconds of each repeated short operation, by kind
    quick_ms: Dict[str, List[float]] = field(default_factory=dict)
    #: seconds of the host probe taken before each timed operation on
    #: one CPU, and on both CPUs (the pool pass and the fleet job)
    probes: List[float] = field(default_factory=list)
    wide_probes: List[float] = field(default_factory=list)
    #: per-iteration figures for the per-workload report (pass
    #: seconds, instruction and fault counts)
    phases: Dict[str, float] = field(default_factory=dict)
    #: simulated statistics; must not depend on tracing or host speed
    signature: Dict = field(default_factory=dict)
    attempted: int = 0
    #: supervisor retries and service unit re-attempts
    retries: int = 0
    #: descriptions of failed operations (checks, raises, retries)
    failures: List[str] = field(default_factory=list)

    @property
    def cold_s(self) -> float:
        """Wall seconds of the whole cold command."""
        return sum(self.parts.values())


def _canonical(payloads) -> str:
    return json.dumps(payloads, sort_keys=True, separators=(",", ":"))


def _paused(tracer):
    return tracer.suspended() if tracer is not None else \
        contextlib.nullcontext()


class SuiteWorkload:
    """All 11 Table-4 workloads, DMR off then paper-default DMR.

    Serial, default engine, outputs checked, no persistent cache: the
    Fig 9(b) run every figure normalises to.  Each kernel run (prepare,
    launch, output check) is one timed operation.
    """

    name = "suite"

    def __init__(self, scale: float = 1.0,
                 names: Optional[List[str]] = None) -> None:
        self.scale = scale
        self.names = names

    def setup(self, seed: int, tmp: pathlib.Path) -> None:
        from repro.analysis.runner import experiment_config
        from repro.workloads import PAPER_ORDER

        self.seed = seed
        self.config = experiment_config(num_sms=2)
        self.names = self.names or list(PAPER_ORDER)

    def prepare(self):
        return None

    def run(self, prepared, tracer=None) -> Iteration:
        from repro.analysis.runner import SuiteRunner
        from repro.common.config import DMRConfig

        it = Iteration()
        cycles = {}
        instructions = 0
        for label, dmr in (("dmr_off", DMRConfig.disabled()),
                           ("dmr_on", DMRConfig.paper_default())):
            runner = SuiteRunner(self.config, scale=self.scale,
                                 seed=self.seed, check_outputs=True)
            pass_s = 0.0
            cycles[label] = 0
            for name in self.names:
                it.attempted += 1
                watch = Stopwatch(it)
                try:
                    result = runner.run(name, dmr)
                except Exception as error:  # noqa: BLE001 — reported
                    it.failures.append(f"{label}/{name}: {error!r}")
                    continue
                elapsed = watch.elapsed()
                pass_s += elapsed
                it.parts[f"{label}/{name}"] = elapsed
                it.quick_ms[f"{label}/{name}"] = [1000.0 * elapsed]
                cycles[label] += result.cycles
                instructions += result.stats.value("thread_instructions")
                it.signature[f"{label}/{name}"] = dict(
                    result.stats.counters())
            it.phases[label] = pass_s
        it.phases["thread_instructions"] = instructions
        it.signature["dmr_cycle_overhead_pct"] = (
            100.0 * (cycles["dmr_on"] / cycles["dmr_off"] - 1.0)
            if cycles["dmr_off"] else 0.0)
        return it

    def cleanup(self, prepared) -> None:
        pass

    def finish(self) -> List[str]:
        return []


class _CampaignBase:
    """Shared spec and fault list of ``campaign`` and ``fleet``."""

    #: warm operations after each cold one
    warm_repeats = 0

    def __init__(self, samples: int = SAMPLES,
                 warm_repeats: Optional[int] = None,
                 scale: float = 0.5) -> None:
        self.samples = samples
        if warm_repeats is not None:
            self.warm_repeats = warm_repeats
        self.scale = scale

    def setup(self, seed: int, tmp: pathlib.Path) -> None:
        from repro.analysis.runner import experiment_config
        from repro.common.config import DMRConfig
        from repro.faults.campaign import CampaignEngine, CampaignSpec
        from repro.faults.sampler import FaultSampler

        self.seed = seed
        self.tmp = tmp
        self.spec = CampaignSpec(
            workload="scan", config=experiment_config(num_sms=1),
            dmr=DMRConfig.paper_default(), scale=self.scale, seed=seed,
        )
        horizon = CampaignEngine(self.spec).golden_result().cycles
        sampler = FaultSampler(self.spec.config, windows=WINDOWS)
        self.faults = sampler.sample(self.samples, horizon, seed=seed)
        self._iterations = 0
        self.reference_text: Optional[str] = None

    def _fresh_dir(self, prefix: str) -> pathlib.Path:
        self._iterations += 1
        path = self.tmp / f"{prefix}-{self._iterations}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    @staticmethod
    def _result_signature(result) -> Dict:
        return {
            "outcomes": result.summary(),
            "detected": result.detected_runs,
            "harmful": result.harmful_runs,
            "faulty_cycles": sum(run.cycles for run in result.runs),
        }


class CampaignWorkload(_CampaignBase):
    """Stratified transient campaign on ``scan`` through the pool.

    Cold pass: ``CampaignEngine(jobs=2)`` over an empty cache (the
    ``campaign --parallel 2`` path).  Then warm reruns, each from a
    fresh engine over the populated cache; each rerun is one timed
    short operation.
    """

    warm_repeats = CAMPAIGN_WARM_REPEATS

    def prepare(self):
        from repro.faults.campaign import CampaignEngine

        cache_dir = self._fresh_dir("campaign-cache")
        engine = CampaignEngine(self.spec, cache=str(cache_dir),
                                jobs=WORKERS)
        engine.golden_result()  # as the CLI does before timing
        return cache_dir, engine

    def run(self, prepared, tracer=None) -> Iteration:
        from repro.faults.campaign import CampaignEngine

        cache_dir, engine = prepared
        it = Iteration()
        it.attempted += 1
        watch = Stopwatch(it, cpus=WORKERS)
        result = engine.run(self.faults)
        it.parts["pool"] = watch.elapsed()
        with _paused(tracer):
            cold_text = _canonical([run.to_payload()
                                    for run in result.runs])
            if engine.simulations != len(self.faults):
                it.failures.append(
                    f"cold pass ran {engine.simulations} simulations for "
                    f"{len(self.faults)} faults")
            it.retries = engine.harness.value("resilience_retries")
            if it.retries:
                it.failures.append(f"cold pass needed {it.retries} retries")
            if self.reference_text is None:
                self.reference_text = cold_text
            elif cold_text != self.reference_text:
                it.failures.append("cold pass differs from the first one")
        it.signature = self._result_signature(result)
        it.signature["coverage_pct"] = 100.0 * result.detection_rate
        warm_ms = it.quick_ms.setdefault("rerun", [])
        for _ in range(self.warm_repeats):
            it.attempted += 1
            watch = Stopwatch(it)
            warm_engine = CampaignEngine(self.spec, cache=str(cache_dir),
                                         jobs=WORKERS)
            warm = warm_engine.run(self.faults)
            warm_ms.append(1000.0 * watch.elapsed())
            with _paused(tracer):
                if warm_engine.simulations != 0:
                    it.failures.append(
                        f"warm rerun ran {warm_engine.simulations} "
                        "simulations")
                elif _canonical([run.to_payload()
                                 for run in warm.runs]) != cold_text:
                    it.failures.append("warm rerun payloads differ")
        it.phases["cold_faults"] = len(self.faults)
        return it

    def cleanup(self, prepared) -> None:
        shutil.rmtree(prepared[0], ignore_errors=True)


class FleetWorkload(_CampaignBase):
    """The same campaign as a ``serve`` job on a fresh ``JobStore``.

    Cold job: submitted, then drained by two forked ``worker_entry``
    processes, timed from submit to ``merged.json``.  Then warm
    resubmits with bumped epochs, one at a time, each drained by one
    in-process ``ServiceWorker``; each is one timed short operation.
    Finished warm jobs are deleted so every submit sees a store of the
    same size.
    """

    warm_repeats = FLEET_WARM_REPEATS

    def setup(self, seed: int, tmp: pathlib.Path) -> None:
        import multiprocessing

        super().setup(seed, tmp)
        # fork, so a tracer installed in this process is inherited
        self.context = multiprocessing.get_context("fork")
        self._merged_text: Optional[str] = None
        #: worker processes forked while a tracer was installed
        self.traced_worker_pids: List[int] = []

    def prepare(self):
        from repro.service.store import JobStore

        root = self._fresh_dir("fleet-store")
        return JobStore(root)

    def _submit(self, store, epoch: int) -> str:
        from repro.service import jobs

        job_id, created = jobs.submit_campaign_job(
            store, self.spec, samples=len(self.faults), windows=WINDOWS,
            unit_size=UNIT_SIZE, epoch=epoch)
        if not created:
            raise RuntimeError(f"epoch {epoch} job {job_id} already existed")
        return job_id

    def _check_job(self, store, job_id: str, simulations: int,
                   it: Iteration) -> None:
        from repro.service.server import job_status

        status = job_status(store, job_id)
        counts = status["counts"]
        if status["state"] != "done" or counts["done"] != counts["total"]:
            it.failures.append(f"job {job_id} ended {status['state']} "
                               f"with {counts}")
        if counts["failed"] or status["quarantined"]:
            it.failures.append(f"job {job_id}: {counts['failed']} failed, "
                               f"{status['quarantined']} quarantined units")
        attempts = len(list((store.job_dir(job_id) / "attempts").glob("*")))
        it.retries += attempts
        if attempts:
            it.failures.append(f"job {job_id}: {attempts} unit retries")
        if status["simulations"] != simulations:
            it.failures.append(f"job {job_id} ran {status['simulations']} "
                               f"simulations, expected {simulations}")
        text = store.merged_path(job_id).read_text(encoding="utf-8")
        if self._merged_text is None:
            self._merged_text = text
        elif text != self._merged_text:
            it.failures.append(f"job {job_id} merged.json differs")

    def run(self, store, tracer=None) -> Iteration:
        from repro.service import worker as service_worker

        it = Iteration()
        it.attempted += 1
        watch = Stopwatch(it, cpus=WORKERS)
        job_id = self._submit(store, 0)
        procs = [
            self.context.Process(
                target=service_worker.worker_entry, args=(str(store.root),),
                kwargs={"owner": f"bench-{index}",
                        "max_idle": FLEET_MAX_IDLE, "poll": FLEET_POLL})
            for index in range(WORKERS)
        ]
        for proc in procs:
            proc.start()
            if tracer is not None:
                self.traced_worker_pids.append(proc.pid)
        merged = store.merged_path(job_id)
        while not merged.exists():
            if watch.elapsed() > FLEET_TIMEOUT:
                break
            time.sleep(MERGED_POLL)
        it.parts["fleet"] = watch.elapsed()
        for proc in procs:
            proc.join(FLEET_TIMEOUT)
            if proc.is_alive():
                proc.terminate()
                proc.join()
                it.failures.append(f"fleet worker {proc.pid} did not exit")
            elif proc.exitcode != 0:
                it.failures.append(
                    f"fleet worker {proc.pid} exited {proc.exitcode}")
        with _paused(tracer):
            if not merged.exists():
                it.failures.append(f"cold job {job_id} never merged")
                return it
            self._check_job(store, job_id, len(self.faults), it)
            payload = json.loads(self._merged_text)
        it.signature = {
            "outcomes": payload["outcomes"],
            "detected": payload["coverage"]["detected"],
            "harmful": payload["coverage"]["harmful"],
            "faulty_cycles": sum(run["cycles"] for run in payload["runs"]),
            "coverage_pct": 100.0 * payload["coverage"]["rate"],
        }
        warm_ms = it.quick_ms.setdefault("resubmit", [])
        for epoch in range(1, self.warm_repeats + 1):
            it.attempted += 1
            watch = Stopwatch(it)
            job_id = self._submit(store, epoch)
            warm_worker = service_worker.ServiceWorker(store, owner="bench")
            merged = store.merged_path(job_id)
            passes = 0
            while not merged.exists() and passes <= 2 * len(self.faults):
                warm_worker.run_once()
                passes += 1
            warm_ms.append(1000.0 * watch.elapsed())
            with _paused(tracer):
                if not merged.exists():
                    it.failures.append(f"warm job {job_id} never merged")
                    continue
                self._check_job(store, job_id, 0, it)
                shutil.rmtree(store.job_dir(job_id))
        return it

    def cleanup(self, store) -> None:
        shutil.rmtree(store.root, ignore_errors=True)

    def finish(self, payloads: List[Dict]) -> List[str]:
        """Compare the merged bytes with an in-process engine run of the
        same faults over an empty cache; *payloads* are its ``FaultRun``
        payloads."""
        from repro.service import jobs
        from repro.service.store import canonical_json

        if self._merged_text is None:
            return ["no fleet job merged"]
        spec = self.spec
        reference = canonical_json(jobs.campaign_merged_payload(
            spec.workload, spec.scheme, spec.scale, spec.seed, payloads))
        if reference != self._merged_text:
            return ["fleet merged.json differs from the in-process "
                    "CampaignEngine run"]
        return []


class CampaignFleetWorkload:
    """One fault campaign, classified both ways in every iteration:
    through the pool (:class:`CampaignWorkload`), then as a fleet job
    (:class:`FleetWorkload`).

    The cold command has two parts, ``pool`` and ``fleet``; the short
    operations are of two kinds, ``rerun`` and ``resubmit``.  The fleet
    job must classify every fault as the pool pass did, and its
    ``merged.json`` is checked against the pool pass, which is an
    in-process ``CampaignEngine`` run over an empty cache.
    """

    name = "campaign"

    def __init__(self, samples: int = SAMPLES,
                 warm_repeats: Optional[int] = None,
                 scale: float = 0.5) -> None:
        self.pool = CampaignWorkload(samples, warm_repeats, scale)
        self.fleet = FleetWorkload(samples, warm_repeats, scale)

    @property
    def traced_worker_pids(self) -> List[int]:
        return self.fleet.traced_worker_pids

    def setup(self, seed: int, tmp: pathlib.Path) -> None:
        self.pool.setup(seed, tmp)
        self.fleet.setup(seed, tmp)

    def prepare(self):
        return self.pool.prepare(), self.fleet.prepare()

    def run(self, prepared, tracer=None) -> Iteration:
        pool = self.pool.run(prepared[0], tracer)
        fleet = self.fleet.run(prepared[1], tracer)
        it = Iteration(
            parts={**pool.parts, **fleet.parts},
            quick_ms={**pool.quick_ms, **fleet.quick_ms},
            phases=pool.phases,
            signature={"pool": pool.signature, "fleet": fleet.signature,
                       "coverage_pct": pool.signature["coverage_pct"]},
            attempted=pool.attempted + fleet.attempted,
            retries=pool.retries + fleet.retries,
            failures=pool.failures + fleet.failures,
            probes=pool.probes + fleet.probes,
            wide_probes=pool.wide_probes + fleet.wide_probes,
        )
        if fleet.signature and fleet.signature != pool.signature:
            it.failures.append("the fleet job classified the faults "
                               "differently from the pool pass")
        return it

    def cleanup(self, prepared) -> None:
        self.pool.cleanup(prepared[0])
        self.fleet.cleanup(prepared[1])

    def finish(self) -> List[str]:
        if self.pool.reference_text is None:
            return ["no pool pass finished"]
        return self.fleet.finish(json.loads(self.pool.reference_text))


WORKLOADS = {
    "suite": SuiteWorkload,
    "campaign": CampaignFleetWorkload,
}
