"""End-to-end benchmark of the Warped-DMR reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite|campaign|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the workload for ``--seconds`` seconds as a
closed loop and prints every end-to-end metric.  ``--trace 1`` runs
untraced/traced iteration pairs instead and prints the per-layer
metrics, the tracing overhead, and whether both runs simulated
identical statistics.  ``--workload all`` runs both workloads one
after another.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is non-zero when any output check failed.

The benchmark imports ``repro`` from ``src/`` next to this directory,
writes only under ``.perfbench_tmp/`` in the repository root, and
refuses to run (exit code 2) when ``src/repro`` is absent.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"

#: subprocess set-ups whose median is ``setup_s``
SETUP_PROBES = 5
#: samples that must lie beyond the reported tail value
TAIL_BEYOND = 10
#: seconds ``workloads.host_probe`` takes on the reference host (a
#: 2-core Xeon VM running Python 3.11, in its faster phases); the
#: timed end-to-end metrics are scaled to that host
PROBE_REF_S = 0.004

#: end-to-end metrics, as BENCHMARK.json lists them: name -> unit
END_TO_END = {
    "setup_s": "s",
    "cold_s": "s",
    "op_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics, as BENCHMARK.json lists them: name -> unit
PER_LAYER = {
    "workloads.prepare_calls": "count",
    "workloads.prepare_s": "s",
    "workloads.check_s": "s",
    "sim.launch_calls": "count",
    "sim.launch_s": "s",
    "sim.schedule_self_s": "s",
    "sim.execute_calls": "count",
    "sim.execute_s": "s",
    "sim.fuse_calls": "count",
    "sim.fuse_s": "s",
    "sim.thread_instructions": "count",
    "sim.cycles": "count",
    "core.on_issue_calls": "count",
    "core.on_issue_self_s": "s",
    "core.intra_process_s": "s",
    "core.replayq_enqueues": "count",
    "core.replayq_full_stalls": "count",
    "core.cycles_dmr_stall": "count",
    "core.reexecute_calls": "count",
    "core.reexecute_s": "s",
    "core.compare_calls": "count",
    "core.compare_s": "s",
    "core.detect_ratio": "ratio",
    "faults.runs": "count",
    "faults.run_s": "s",
    "faults.hung_ratio": "ratio",
    "faults.key_s": "s",
    "result_cache.put_calls": "count",
    "result_cache.put_s": "s",
    "result_cache.bytes_written": "bytes",
    "result_cache.get_calls": "count",
    "result_cache.get_s": "s",
    "result_cache.hit_ratio": "ratio",
    "result_cache.bytes_read": "bytes",
    "resilience.map_s": "s",
    "resilience.worker_busy_s": "s",
    "resilience.pool_efficiency": "ratio",
    "resilience.retries": "count",
    "ipc.payload_s": "s",
    "service.store.claim_calls": "count",
    "service.store.claim_s": "s",
    "service.store.claim_misses": "count",
    "service.store.publish_s": "s",
    "service.store.read_s": "s",
    "service.store.requeue_s": "s",
    "service.jobs.submit_s": "s",
    "service.jobs.execute_unit_s": "s",
    "service.jobs.merge_s": "s",
    "service.worker.passes": "count",
    "service.worker.idle_passes": "count",
    "service.codec.encode_s": "s",
    "trace.overhead_s": "s",
    "trace.worker_processes": "count",
    "dmr_cycle_overhead_pct": "%",
    "campaign_coverage_pct": "%",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not {SRC}")


def _isolate(tmp: pathlib.Path) -> None:
    """Keep every file the run writes under *tmp* and pin the defaults."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    for name in ("REPRO_EXEC", "REPRO_OBS", "REPRO_JOBS"):
        os.environ.pop(name, None)
    import tempfile
    tempfile.tempdir = str(tmp)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail(samples: List[float]):
    """``(value, percentile)``: the highest sample with at least
    :data:`TAIL_BEYOND` samples beyond it (the maximum when there are
    too few samples), and the percentile it sits at."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def host_factor(probes: List[float]) -> float:
    """What a run's times are multiplied by to give them at the
    reference host's speed: :data:`PROBE_REF_S` over the median of the
    host probes the run took."""
    return PROBE_REF_S / statistics.median(probes)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def setup_probe(workload_name: str, seed: int, tmp: pathlib.Path) -> None:
    """Child side: set up, reach the first timed call, report the time."""
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    workload.setup(seed, tmp)
    prepared = workload.prepare()
    ready = time.monotonic()
    workload.cleanup(prepared)
    print(json.dumps({"ready": ready}))


def measure_setup(workload_name: str, seed: int):
    """Seconds from process start to first timed call, per set-up, and
    the host probe taken before each set-up."""
    from perfbench.workloads import host_probe

    samples, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(host_probe())
        started = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--setup-probe", "--workload", workload_name,
             "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr}")
        ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - started)
    return samples, probes


# ----------------------------------------------------------------------
# run record
# ----------------------------------------------------------------------
def run_record(workload_name: str, seed: int) -> Dict:
    import multiprocessing

    import numpy

    from perfbench.workloads import WORKERS
    from repro.analysis.runner import experiment_config
    from repro.sim.executor import Executor
    from repro.sim.gpu import GPU
    from repro.sim.memory import GlobalMemory

    engine = GPU(experiment_config(num_sms=2)).engine
    if engine == "scalar":
        resolved = "scalar"
    elif Executor(0, GlobalMemory(), engine=engine).fusion_capable:
        resolved = "mega"
    else:
        resolved = "vector"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpus = len(os.sched_getaffinity(0))
    return {
        "workload": workload_name,
        "seed": seed,
        "cpus": cpus,
        "workers": WORKERS,
        "parallel_valid": cpus >= WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "engine": engine,
        "resolved_engine": resolved,
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
    }


# ----------------------------------------------------------------------
# measurement (--trace 0)
# ----------------------------------------------------------------------
def _signature_failures(iterations) -> List[str]:
    first = iterations[0].signature
    return [f"iteration {index}: simulated statistics changed"
            for index, it in enumerate(iterations[1:], 1)
            if it.signature != first]


def measure(workload, seed: int, seconds: float,
            tmp: pathlib.Path) -> Dict:
    """Closed loop for about *seconds*: at least one iteration, and no
    iteration started that the previous one's length says would end
    past the budget."""
    workload.setup(seed, tmp)
    iterations = []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        prepared = workload.prepare()
        try:
            iterations.append(workload.run(prepared))
        finally:
            workload.cleanup(prepared)
        now = time.perf_counter()
        if now - started + (now - began) > seconds:
            break
    failures = [f for it in iterations for f in it.failures]
    failures += _signature_failures(iterations)
    failures += workload.finish()
    return {"iterations": iterations, "failures": failures,
            "attempted": sum(it.attempted for it in iterations)}


def end_to_end_metrics(iterations, setup) -> Dict[str, tuple]:
    """BENCHMARK.json's end-to-end metrics: name -> (value, samples,
    note).

    ``cold_s`` sums, over the parts of the cold command, each part's
    median across iterations; ``op_ms`` is the geometric mean, over the
    kinds of short operation, of each kind's median.  All three times
    are multiplied by the run's :func:`host_factor`, ``cold_s`` by the
    one of the probes on both CPUs when its parts keep both busy.
    """
    setup_samples, setup_probes = setup
    factor = host_factor(setup_probes
                         + [p for it in iterations for p in it.probes])
    wide = [p for it in iterations for p in it.wide_probes]
    cold_factor = host_factor(wide) if wide else factor
    parts = {key: [it.parts[key] for it in iterations]
             for key in iterations[0].parts}
    kinds = {key: [ms for it in iterations for ms in it.quick_ms[key]]
             for key in iterations[0].quick_ms}
    cold_s = sum(statistics.median(v) for v in parts.values())
    op_ms = statistics.geometric_mean(statistics.median(v)
                                      for v in kinds.values())
    return {
        "setup_s": (factor * statistics.median(setup_samples),
                    len(setup_samples), "median of set-ups, host-scaled"),
        "cold_s": (cold_factor * cold_s, len(iterations),
                   f"sum of {len(parts)} part medians, host-scaled"),
        "op_ms": (factor * op_ms, sum(len(v) for v in kinds.values()),
                  f"geomean of {len(kinds)} kind medians, host-scaled"),
        "peak_rss_mb": (peak_rss_mb(), 1, "max of parent and children"),
    }


def named_metrics(workload_name: str, iterations, setup,
                  attempted: int, failed: int, record: Dict) -> List:
    """The workload's metrics by the names README.md gives them:
    ``(name, value, unit, samples, note)`` rows."""
    invalid = ("" if record["parallel_valid"] else
               f"INVALID: {record['cpus']} usable CPU(s) < "
               f"{record['workers']} workers")
    n = len(iterations)
    setup_samples, probes = setup
    probes = probes + [p for it in iterations for p in it.probes]
    wide = [p for it in iterations for p in it.wide_probes]
    rows = [("setup_s", statistics.median(setup_samples), "s",
             len(setup_samples), "median of subprocess set-ups"),
            ("host_probe_ms", 1000.0 * statistics.median(probes), "ms",
             len(probes), f"median; {1000.0 * PROBE_REF_S:g} ms on the "
             "reference host")]
    if wide:
        rows.append(("host_probe_2cpu_ms", 1000.0 * statistics.median(wide),
                     "ms", len(wide), "median, on both CPUs at once"))
    first = iterations[0]
    if workload_name == "suite":
        wall = sum(it.cold_s for it in iterations)
        insts = sum(it.phases["thread_instructions"] for it in iterations)
        rows += [
            ("suite_dmr_off_s",
             statistics.median(it.phases["dmr_off"] for it in iterations),
             "s", n, "median"),
            ("suite_dmr_on_s",
             statistics.median(it.phases["dmr_on"] for it in iterations),
             "s", n, "median"),
            ("sim_minst_per_s", insts / wall / 1e6, "Minst/s", n,
             "thread-instructions over both passes"),
            ("dmr_cycle_overhead_pct",
             first.signature["dmr_cycle_overhead_pct"], "%", n,
             "simulated"),
        ]
    if "pool" in first.parts:
        faults = first.phases["cold_faults"]
        reruns = [ms for it in iterations for ms in it.quick_ms["rerun"]]
        rows += [
            ("campaign_cold_faults_per_s",
             faults / statistics.median(it.parts["pool"]
                                        for it in iterations),
             "faults/s", n, invalid or "median cold pass"),
            ("campaign_warm_faults_per_s",
             faults / (statistics.median(reruns) / 1000.0), "faults/s",
             len(reruns), "median warm rerun"),
        ]
    if "fleet" in first.parts:
        resubmits = [ms for it in iterations
                     for ms in it.quick_ms["resubmit"]]
        value, percentile = tail(resubmits)
        rows += [
            ("fleet_cold_s", statistics.median(it.parts["fleet"]
                                               for it in iterations),
             "s", n, invalid or "median submit -> merged"),
            ("fleet_warm_p50_ms", statistics.median(resubmits), "ms",
             len(resubmits), "median"),
            ("fleet_warm_tail_ms", value, "ms", len(resubmits),
             f"p{percentile:.1f}, {TAIL_BEYOND} samples beyond"),
        ]
    if "coverage_pct" in first.signature:
        rows.append(("campaign_coverage_pct",
                     first.signature["coverage_pct"], "%", n, "simulated"))
    rows += [
        ("peak_rss_mb", peak_rss_mb(), "MB", 1,
         "max of parent and children"),
        ("failed_ratio", failed / attempted if attempted else 0.0,
         "ratio", attempted, f"{failed} failed of {attempted} attempted"),
    ]
    return rows


# ----------------------------------------------------------------------
# tracing (--trace 1)
# ----------------------------------------------------------------------
def trace_pairs(workload, seed: int, seconds: float,
                tmp: pathlib.Path) -> Dict:
    """Untraced/traced iteration pairs until *seconds* have passed."""
    from perfbench.tracing import Tracer

    workload.setup(seed, tmp)
    spool = tmp / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spool)
    pairs = []
    failures: List[str] = []
    attempted = 0
    started = time.perf_counter()
    while True:
        pair_began = time.perf_counter()
        walls = []
        results = []
        for traced in (False, True):
            prepared = workload.prepare()
            if traced:
                tracer.install()
            began = time.perf_counter()
            try:
                results.append(workload.run(
                    prepared, tracer if traced else None))
            finally:
                walls.append(time.perf_counter() - began)
                tracer.uninstall()
                workload.cleanup(prepared)
        tracer.collect()
        untraced, traced_it = results
        attempted += untraced.attempted + traced_it.attempted
        failures += untraced.failures + traced_it.failures
        differing = sorted(
            key for key in set(untraced.signature) | set(traced_it.signature)
            if untraced.signature.get(key) != traced_it.signature.get(key))
        if differing:
            failures.append("traced run simulated different statistics: "
                            + ", ".join(differing))
        pairs.append((walls[1] - walls[0], untraced, traced_it))
        now = time.perf_counter()
        if now - started + (now - pair_began) > seconds:
            break
    failures += _signature_failures([it for _, u, t in pairs
                                     for it in (u, t)])
    failures += workload.finish()
    return {"tracer": tracer, "pairs": pairs, "failures": failures,
            "attempted": attempted}


def layer_metrics(tracer, pairs) -> Dict[str, float]:
    """Per-iteration per-layer numbers from the traced half of *pairs*."""
    from perfbench.workloads import WORKERS

    n = len(pairs)
    calls, incl, self_s = tracer.calls, tracer.inclusive, tracer.self_time
    counter = tracer.counters.get

    def ratio(a, b):
        return a / b if b else 0.0

    map_s = incl("resilience.map")
    busy = incl("resilience.worker_task")
    totals = {
        "workloads.prepare_calls": calls("workloads.prepare"),
        "workloads.prepare_s": incl("workloads.prepare"),
        "workloads.check_s": incl("workloads.check"),
        "sim.launch_calls": calls("sim.launch"),
        "sim.launch_s": incl("sim.launch"),
        "sim.schedule_self_s": self_s("sim.schedule"),
        "sim.execute_calls": calls("sim.execute"),
        "sim.execute_s": incl("sim.execute"),
        "sim.fuse_calls": calls("sim.fuse"),
        "sim.fuse_s": incl("sim.fuse"),
        "sim.thread_instructions": counter("thread_instructions", 0),
        "sim.cycles": counter("sim.cycles", 0),
        "core.on_issue_calls": calls("core.on_issue"),
        "core.on_issue_self_s": self_s("core.on_issue"),
        "core.intra_process_s": incl("core.intra_process"),
        "core.replayq_enqueues": counter("replayq_enqueues", 0),
        "core.replayq_full_stalls": counter("replayq_full_stalls", 0),
        "core.cycles_dmr_stall": counter("cycles_dmr_stall", 0),
        "core.reexecute_calls": calls("core.reexecute"),
        "core.reexecute_s": incl("core.reexecute"),
        "core.compare_calls": calls("core.compare"),
        "core.compare_s": incl("core.compare"),
        "faults.runs": calls("faults.run"),
        "faults.run_s": incl("faults.run"),
        "faults.key_s": incl("faults.key"),
        "result_cache.put_calls": calls("result_cache.put"),
        "result_cache.put_s": incl("result_cache.put"),
        "result_cache.bytes_written": counter("result_cache.bytes_written",
                                              0),
        "result_cache.get_calls": calls("result_cache.get"),
        "result_cache.get_s": incl("result_cache.get"),
        "result_cache.bytes_read": counter("result_cache.bytes_read", 0),
        "resilience.map_s": map_s,
        "resilience.worker_busy_s": busy,
        "ipc.payload_s": incl("ipc.payload"),
        "service.store.claim_calls": calls("service.store.claim"),
        "service.store.claim_s": incl("service.store.claim"),
        "service.store.claim_misses": counter("service.store.claim_misses",
                                              0),
        "service.store.publish_s": incl("service.store.publish"),
        "service.store.read_s": incl("service.store.read"),
        "service.store.requeue_s": incl("service.store.requeue"),
        "service.jobs.submit_s": incl("service.jobs.submit"),
        "service.jobs.execute_unit_s": incl("service.jobs.execute_unit"),
        "service.jobs.merge_s": incl("service.jobs.merge"),
        "service.worker.passes": calls("service.worker.pass"),
        "service.worker.idle_passes": counter("service.worker.idle_passes",
                                              0),
        "service.codec.encode_s": incl("service.codec.encode"),
    }
    metrics = {name: value / n for name, value in totals.items()}
    metrics.update({
        "core.detect_ratio": ratio(counter("core.detections", 0),
                                   calls("core.compare")),
        "faults.hung_ratio": ratio(counter("faults.hung", 0),
                                   calls("faults.run")),
        "result_cache.hit_ratio": ratio(counter("result_cache.hits", 0),
                                        calls("result_cache.get")),
        "resilience.pool_efficiency": ratio(busy, map_s * WORKERS),
        "resilience.retries": sum(p[2].retries for p in pairs) / n,
        "trace.overhead_s": statistics.median(p[0] for p in pairs),
        "trace.worker_processes": len(tracer.worker_pids) / n,
        "dmr_cycle_overhead_pct": pairs[0][2].signature.get(
            "dmr_cycle_overhead_pct", 0.0),
        "campaign_coverage_pct": pairs[0][2].signature.get(
            "coverage_pct", 0.0),
    })
    return metrics


def uncollected_notes(workload, tracer) -> List[str]:
    """Layers whose in-worker time should exist but was not collected."""
    notes = []
    if tracer.calls("resilience.map") and not tracer.calls(
            "resilience.worker_task"):
        notes.append("pool workers reported no spans: resilience."
                     "worker_busy_s and the faults/sim/core time inside "
                     "pool workers are missing")
    silent = (set(getattr(workload, "traced_worker_pids", ()))
              - set(tracer.worker_pids))
    if silent:
        notes.append(f"{len(silent)} fleet worker process(es) reported no "
                     "spans: the cold job's service/faults/sim time inside "
                     "them is missing")
    return notes


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _value(value: float) -> str:
    return f"{value:.6g}"


def print_rows(title: str, rows) -> None:
    print(title)
    print(f"  {'metric':<30} {'value':>14} {'unit':<9} {'n':>6}  note")
    for name, value, unit, samples, note in rows:
        print(f"  {name:<30} {_value(value):>14} {unit:<9} "
              f"{samples:>6}  {note}")


def print_self_times(tracer, n: int) -> None:
    print("self time per traced iteration (s), by span")
    ranked = sorted(tracer.spans.items(), key=lambda kv: -kv[1][2])
    for name, (calls, incl, self_s) in ranked:
        print(f"  {name:<28} self {self_s / n:>10.4f}  inclusive "
              f"{incl / n:>10.4f}  calls {calls / n:>12.1f}")


def run_one(workload, seed: int, seconds: float, trace: bool,
            tmp: pathlib.Path) -> Dict:
    """Measure or trace one workload instance; print the report and
    return the result object."""
    workload_name = workload.name
    record = run_record(workload_name, seed)
    if trace:
        outcome = trace_pairs(workload, seed, seconds, tmp)
        tracer, pairs = outcome["tracer"], outcome["pairs"]
        values = layer_metrics(tracer, pairs)
        print_self_times(tracer, len(pairs))
        for note in uncollected_notes(workload, tracer):
            print(f"note: in-worker time not collected: {note}")
        print_rows(f"per-layer metrics, {workload_name} (per traced "
                   f"iteration, {len(pairs)} pair(s))",
                   [(name, values[name], unit, len(pairs), "")
                    for name, unit in PER_LAYER.items()])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        setup = measure_setup(workload_name, seed)
        outcome = measure(workload, seed, seconds, tmp)
        iterations = outcome["iterations"]
        values = end_to_end_metrics(iterations, setup)
        print_rows(f"end-to-end metrics, {workload_name} "
                   f"({len(iterations)} iteration(s))",
                   named_metrics(workload_name, iterations, setup,
                                 outcome["attempted"],
                                 len(outcome["failures"]), record))
        print_rows("BENCHMARK.json metrics",
                   [(name, values[name][0], unit) + values[name][1:]
                    for name, unit in END_TO_END.items()])
        metrics = {name: {"value": values[name][0], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for failure in outcome["failures"]:
        print(f"FAILED: {failure}")
    print("record: " + json.dumps(record, sort_keys=True))
    return {
        "correct": not outcome["failures"],
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> Dict:
    """Each workload in its own process; metrics keyed by workload."""
    from perfbench.workloads import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(pathlib.Path(__file__).resolve()),
             "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(done.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            _fail(f"workload {name} printed no result "
                  f"(exit {done.returncode})")
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}/{metric}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "campaign", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_repro()
    tmp = TMP_ROOT / str(os.getpid())
    _isolate(tmp)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed, tmp)
            return 0
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, bool(args.trace))
        else:
            from perfbench.workloads import WORKLOADS
            result = run_one(WORKLOADS[args.workload](), args.seed,
                             args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass  # another run still owns a directory here
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
