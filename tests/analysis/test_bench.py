"""Campaign-benchmark payload rendering."""

from repro.analysis.bench import format_campaign_bench
from repro.analysis.runner import usable_cpus


def _payload(workers: int, cpus: int) -> dict:
    mode = {"seconds": 1.0, "faults_per_s": 10.0, "simulations": 10}
    return {
        "workload": "scan", "samples": 10, "workers": workers,
        "cpus": cpus, "parallel_valid": workers <= cpus,
        "parallel_speedup": 1.5,
        "modes": {"serial_cold": mode, "parallel_cold": mode},
    }


def test_speedup_flagged_invalid_with_more_workers_than_cpus():
    text = format_campaign_bench(_payload(workers=4, cpus=2))
    assert "(2 usable cpus)" in text
    assert "INVALID" in text


def test_speedup_unflagged_when_workers_fit():
    assert "INVALID" not in format_campaign_bench(_payload(workers=2,
                                                           cpus=2))


def test_usable_cpus_is_positive():
    assert usable_cpus() >= 1
