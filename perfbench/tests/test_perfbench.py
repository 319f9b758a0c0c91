"""The benchmark's own checks: metric names and units, tracer hygiene,
and a tiny-size smoke run of every workload."""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

from perfbench import run, tracing
from perfbench.workloads import CampaignFleetWorkload, SuiteWorkload

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at a size that runs in seconds."""
    if name == "suite":
        return SuiteWorkload(scale=0.25, names=["scan", "bitonic", "bfs"])
    return CampaignFleetWorkload(samples=12, warm_repeats=2, scale=0.25)


def declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_metric_tables_match_benchmark_json():
    assert run.END_TO_END == declared("end_to_end")
    assert run.PER_LAYER == declared("per_layer")


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["suite", "campaign"])
def test_every_declared_metric_printed_with_unit(name, trace, tmp_path,
                                                 capsys):
    result = run.run_one(tiny(name), seed=1, seconds=0, trace=trace,
                         tmp=tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert result["correct"], [l for l in lines if l.startswith("FAILED")]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        value = result["metrics"][metric]["value"]
        assert isinstance(value, float) or isinstance(value, int)
        assert any(line.split()[:1] == [metric] and unit in line.split()
                   for line in lines), metric
    if not trace:
        assert all(result["metrics"][m]["value"] > 0 for m in units)


def test_tracer_leaves_nothing_patched(tmp_path):
    from repro.sim.gpu import GPU, KernelResult
    from repro.service import store

    before = (GPU.launch, KernelResult.__dict__["from_payload"],
              store.encode_canonical)
    assert tracing.patched_attributes() == []
    tracer = tracing.Tracer(tmp_path).install()
    try:
        patched = tracing.patched_attributes()
        assert "repro.service.store.encode_canonical" in patched
        assert "repro.sim.gpu.GPU.launch" in patched
        workload = tiny("suite")
        workload.setup(0, tmp_path)
        workload.run(None, tracer)
        assert tracer.calls("sim.launch") == 6
        assert tracer.calls("workloads.check") == 6
    finally:
        tracer.uninstall()
    assert tracing.patched_attributes() == []
    assert (GPU.launch, KernelResult.__dict__["from_payload"],
            store.encode_canonical) == before


def test_worker_time_reaches_the_parent(tmp_path):
    workload = tiny("campaign")
    outcome = run.trace_pairs(workload, seed=2, seconds=0, tmp=tmp_path)
    tracer = outcome["tracer"]
    assert outcome["failures"] == []
    assert len(workload.traced_worker_pids) == 2
    assert set(workload.traced_worker_pids) <= set(tracer.worker_pids)
    assert tracer.calls("resilience.worker_task") >= 1
    # the pool pass and the cold fleet job each classify every fault
    assert tracer.calls("faults.run") == 2 * 12
    assert run.uncollected_notes(workload, tracer) == []
    assert tracing.patched_attributes() == []


@pytest.mark.parametrize("name", ["suite", "campaign"])
def test_tiny_smoke_run_passes_output_checks(name, tmp_path):
    outcome = run.measure(tiny(name), seed=3, seconds=0, tmp=tmp_path)
    assert outcome["failures"] == []
    assert len(outcome["iterations"]) == 1


def test_fleet_merge_is_checked_against_the_pool_pass(tmp_path):
    workload = tiny("campaign")
    outcome = run.measure(workload, seed=3, seconds=0, tmp=tmp_path)
    assert outcome["failures"] == []
    merged = workload.fleet._merged_text
    workload.fleet._merged_text = merged.replace('"scan"', '"sca"')
    assert workload.finish() != []
    workload.fleet._merged_text = merged
    runs = json.loads(workload.pool.reference_text)
    runs[0]["cycles"] += 1
    workload.pool.reference_text = json.dumps(runs)
    assert workload.finish() != []


def test_host_probe_on_two_cpus(tmp_path):
    from perfbench.workloads import Iteration, Stopwatch, host_probe

    assert 0 < host_probe(cpus=2) < 1.0
    it = Iteration()
    Stopwatch(it, cpus=2).elapsed()
    Stopwatch(it).elapsed()
    assert len(it.wide_probes) == 1 and len(it.probes) == 1


def test_tail_has_ten_samples_beyond():
    samples = list(range(100))
    value, percentile = run.tail(samples)
    assert value == 89 and percentile == 90.0
    assert sum(s > value for s in samples) == 10
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable] + BENCHMARK["command"][1:]
        + ["--workload", "suite", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
