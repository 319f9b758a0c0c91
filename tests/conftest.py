"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from dataclasses import dataclass, field

import pytest

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig
from repro.faults.campaign import CampaignSpec
from repro.isa.opcodes import CmpOp
from repro.kernel.builder import KernelBuilder
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory


@pytest.fixture
def tiny_config() -> GPUConfig:
    """One-SM chip for deterministic single-pipeline tests."""
    return GPUConfig.small(1)


@pytest.fixture
def small_config() -> GPUConfig:
    """Two-SM chip used by most integration tests."""
    return GPUConfig.small(2)


@pytest.fixture
def dmr_default() -> DMRConfig:
    return DMRConfig.paper_default()


def build_counting_kernel(iterations: int = 4) -> object:
    """A loop kernel: out[gtid] = gtid summed *iterations* times."""
    b = KernelBuilder("counting")
    i, acc, gid, addr = b.regs(4)
    p = b.pred()
    b.gtid(gid)
    b.mov(acc, 0)
    b.mov(i, 0)
    b.label("loop")
    b.iadd(acc, acc, gid)
    b.iadd(i, i, 1)
    b.setp(p, i, CmpOp.LT, iterations)
    b.bra("loop", pred=p)
    b.st_global(gid, acc)
    b.exit()
    return b.build()


class CountingRun:
    """A fresh launch of the counting kernel in one block of *threads*."""

    def __init__(self, iterations: int, threads: int) -> None:
        self.program = build_counting_kernel(iterations)
        self.launch = LaunchConfig(1, threads)
        self.memory = GlobalMemory()
        self.threads = threads

    def output_of(self, memory: GlobalMemory) -> list:
        return [memory.load(g) for g in range(self.threads)]


@dataclass(frozen=True)
class CountingSpec(CampaignSpec):
    """A fault campaign over the hand-built counting kernel.

    ``prepare`` returns a :class:`CountingRun` instead of a registry
    workload.  The cache keys do not see ``iterations``/``threads``,
    so engines over this spec must stay in-memory (no ``cache=``).
    """

    workload: str = "counting"
    config: GPUConfig = field(default_factory=lambda: GPUConfig.small(1))
    dmr: DMRConfig = field(default_factory=DMRConfig.paper_default)
    iterations: int = 6
    threads: int = 32

    def prepare(self) -> CountingRun:
        return CountingRun(self.iterations, self.threads)


def build_divergent_kernel() -> object:
    """Threads with even gtid double, odd gtid triple their id."""
    b = KernelBuilder("divergent")
    gid, t, out = b.regs(3)
    p = b.pred()
    b.gtid(gid)
    b.irem(t, gid, 2)
    b.setp(p, t, CmpOp.EQ, 0)
    b.bra("even", pred=p)
    b.imul(out, gid, 3)
    b.jmp("store")
    b.label("even")
    b.imul(out, gid, 2)
    b.label("store")
    b.st_global(gid, out)
    b.exit()
    return b.build()


def run_program(program, config: GPUConfig, grid: int = 1, block: int = 32,
                dmr: DMRConfig | None = None, memory=None,
                fault_hook=None):
    """Launch helper returning (result, memory)."""
    memory = memory or GlobalMemory()
    gpu = GPU(config, dmr=dmr or DMRConfig.disabled(), fault_hook=fault_hook)
    result = gpu.launch(
        program, LaunchConfig(grid_dim=grid, block_dim=block), memory=memory
    )
    return result, memory
