"""GPU top level: block dispatch across SMs and result collection.

SMs in this model do not interact (no shared L2/interconnect model, and
the workloads use no inter-block synchronization), so thread blocks are
statically dealt to SMs round-robin and each SM is simulated to
completion independently; kernel latency is the slowest SM's cycle
count.  This matches the paper's abstraction level — its evaluation
only consumes per-SM issue streams and total kernel cycles.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.common.config import DMRConfig, GPUConfig, LaunchConfig, MappingPolicy
from repro.obs import ObsSession, resolve_obs
from repro.obs.metrics import MetricsRegistry
from repro.sim.events import IssueEvent
from repro.sim.executor import FaultHook
from repro.sim.memory import GlobalMemory
from repro.sim.megakernel import WarpBatcher
from repro.sim.sm import DEFAULT_MAX_CYCLES, SM


@dataclass
class KernelResult:
    """Outcome of one kernel launch."""

    program_name: str
    cycles: int
    per_sm_cycles: List[int]
    stats: MetricsRegistry
    memory: GlobalMemory
    detections: List = field(default_factory=list)
    clock_period_ns: float = 1.25
    #: observability snapshot payload (plain data; None when obs was off).
    #: Rides the cache/IPC payload so warm hits replay metrics without
    #: re-simulating.
    obs: Optional[dict] = None

    @property
    def coverage(self):
        """Measured :class:`repro.core.coverage.CoverageReport`."""
        from repro.core.coverage import CoverageReport  # sim must not
        # import core at module scope (core builds on sim)
        return CoverageReport.from_stats(self.stats)

    @property
    def kernel_time_s(self) -> float:
        """Wall-clock kernel time at the modeled clock."""
        return self.cycles * self.clock_period_ns * 1e-9

    @property
    def instructions_issued(self) -> int:
        return self.stats.value("instructions_issued")

    def to_payload(self) -> dict:
        """Canonical plain-data form for caching and IPC.

        Deterministic: two equal results (same simulation) produce
        byte-identical pickles of this payload, which the determinism
        tests rely on.  Everything inside is built-in Python data, so a
        payload round-trips through pickle across worker processes and
        cache files without importing simulator classes.
        """
        return {
            "program_name": self.program_name,
            "cycles": self.cycles,
            "per_sm_cycles": list(self.per_sm_cycles),
            "stats": self.stats.to_payload(),
            "memory": self.memory.to_payload(),
            "detections": [event.to_payload() for event in self.detections],
            "clock_period_ns": self.clock_period_ns,
            "obs": self.obs,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "KernelResult":
        from repro.core.comparator import DetectionEvent  # sim must not
        # import core at module scope (core builds on sim)
        return cls(
            program_name=payload["program_name"],
            cycles=payload["cycles"],
            per_sm_cycles=list(payload["per_sm_cycles"]),
            stats=MetricsRegistry.from_payload(payload["stats"]),
            memory=GlobalMemory.from_payload(payload["memory"]),
            detections=[DetectionEvent.from_payload(entry)
                        for entry in payload["detections"]],
            clock_period_ns=payload["clock_period_ns"],
            obs=payload.get("obs"),
        )

    def __repr__(self) -> str:
        return (
            f"KernelResult({self.program_name!r}, cycles={self.cycles}, "
            f"insts={self.instructions_issued}, "
            f"detections={len(self.detections)})"
        )


class GPU:
    """A simulated GPGPU chip with optional Warped-DMR."""

    def __init__(
        self,
        config: Optional[GPUConfig] = None,
        dmr: Optional[DMRConfig] = None,
        fault_hook: Optional[FaultHook] = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        engine: Optional[str] = None,
        obs: object = False,
    ) -> None:
        self.config = config or GPUConfig.paper_baseline()
        self.dmr = dmr or DMRConfig.disabled()
        self.fault_hook = fault_hook
        self.max_cycles = max_cycles
        # execution engine: explicit arg > REPRO_EXEC env var > config.
        # "auto"/"mega" fuse straight-line regions whenever exactness
        # allows (never with a fault hook, DMR, or issue listeners
        # attached); "vector" pins per-issue vectorization; "scalar"
        # pins the per-lane interpreter.
        self.engine = engine or os.environ.get("REPRO_EXEC") \
            or self.config.engine
        # observability: an ObsSession, a mode string ("metrics"/
        # "trace"), True, or None to defer to $REPRO_OBS.  False (the
        # default) disables it outright: no probes are created and the
        # issue loop's only cost is one `is not None` check per tick.
        self.obs: Optional[ObsSession] = resolve_obs(obs)

    def launch(
        self,
        program,
        launch: LaunchConfig,
        memory: Optional[GlobalMemory] = None,
        issue_listener: Optional[Callable[[IssueEvent], None]] = None,
        block_ids: Optional[List[int]] = None,
        controller_factory: Optional[Callable] = None,
    ) -> KernelResult:
        """Run *program* over the launch grid and return merged results.

        ``block_ids`` overrides the dispatched block list (default
        ``range(grid_dim)``); repeating an id launches a redundant copy
        of that block — the R-Thread baseline uses this.
        ``controller_factory(stats) -> controller`` overrides the
        per-SM DMR controller (the DMTR baseline uses this); when given
        it is attached regardless of the DMRConfig.
        """
        return self.start(program, launch, memory, issue_listener,
                          block_ids, controller_factory).finish()

    def start(
        self,
        program,
        launch: LaunchConfig,
        memory: Optional[GlobalMemory] = None,
        issue_listener: Optional[Callable[[IssueEvent], None]] = None,
        block_ids: Optional[List[int]] = None,
        controller_factory: Optional[Callable] = None,
    ) -> "Launch":
        """Build every SM of a launch without running any of them.

        Same arguments as :meth:`launch`, which is ``start(...).finish()``.
        The returned :class:`Launch` can also be advanced partway and
        forked, which is how fault campaigns share a fault-free prefix.
        """
        # Late imports: the sim substrate must stay importable without
        # the core (Warped-DMR) layer, which itself builds on sim.
        from repro.core.dmr_controller import DMRController
        from repro.core.mapping import lane_permutation

        cfg = self.config
        memory = memory or GlobalMemory()

        mapping = self.dmr.mapping if self.dmr.enabled else MappingPolicy.IN_ORDER
        lane_of_slot = lane_permutation(
            mapping, cfg.warp_size, cfg.cluster_size
        )

        # Static round-robin block dispatch.
        dispatch = list(block_ids) if block_ids is not None else list(
            range(launch.grid_dim)
        )
        blocks_of_sm: List[List[int]] = [[] for _ in range(cfg.num_sms)]
        for position, block_id in enumerate(dispatch):
            blocks_of_sm[position % cfg.num_sms].append(block_id)

        functional_verify = self.fault_hook is not None
        session = self.obs

        # Construct and fully attach every SM before any of them runs:
        # the megakernel batcher needs all peers' initially-resident
        # warps, and fusion eligibility (no DMR, no listeners) is only
        # decidable after attachment.
        sms: List[SM] = []
        for sm_id, block_ids in enumerate(blocks_of_sm):
            if not block_ids:
                continue
            probe = session.probe(sm_id) if session is not None else None
            sm = SM(
                sm_id=sm_id,
                config=cfg,
                program=program,
                launch=launch,
                block_ids=block_ids,
                global_memory=memory,
                lane_of_slot=lane_of_slot,
                fault_hook=self.fault_hook,
                max_cycles=self.max_cycles,
                engine=self.engine,
                probe=probe,
            )
            if controller_factory is not None:
                sm.dmr = controller_factory(sm.stats)
            elif self.dmr.enabled:
                sm.dmr = DMRController(
                    gpu_config=cfg,
                    dmr_config=self.dmr,
                    stats=sm.stats,
                    functional_verify=functional_verify,
                    probe=probe,
                )
            if issue_listener is not None:
                sm.add_issue_listener(issue_listener)
            if probe is not None and session.tracing:
                sm.add_issue_listener(probe.on_issue)
            sms.append(sm)

        # Cross-SM warp batching: one batcher spanning every SM that
        # may fuse, so warps at the same pc on different SMs execute a
        # region as one wide array op.  SMs still run sequentially and
        # remain timing-independent; only functional work is shared.
        fusable = [sm for sm in sms if sm.fusion_allowed()]
        if fusable:
            WarpBatcher(fusable).attach()

        return Launch(program, sms, memory, self.fault_hook, session,
                      configs=(cfg, launch, self.dmr))


class Launch:
    """A kernel launch in flight: its SMs, run sequentially, resumably.

    SMs run to completion one after another in ``sm_id`` order, so
    global memory only ever sees one SM at a time.
    :meth:`advance` runs the launch up to a point and :meth:`fork`
    snapshots it there; :meth:`finish` runs whatever is left and merges
    the result.  ``GPU.launch`` is ``start(...).finish()``.
    """

    def __init__(self, program, sms: List[SM], memory: GlobalMemory,
                 fault_hook: Optional[FaultHook],
                 session: Optional[ObsSession], configs: tuple) -> None:
        self.program = program
        self.sms = sms
        self.memory = memory
        #: the hook every SM's executor shares (a fork gets its own copy)
        self.fault_hook = fault_hook
        self.session = session
        #: (GPUConfig, LaunchConfig, DMRConfig): frozen, shared by forks
        self.configs = configs
        self._finished = 0  # sms[:_finished] have run to completion

    def advance(self, sm_id: int, cycle: int) -> None:
        """Complete every SM before *sm_id*, then run *sm_id* until it
        reaches *cycle* (or runs out of work).

        Never moves backwards and never re-runs a finished SM.  The
        paused SM has not flushed its DMR state; only :meth:`finish`
        does that.
        """
        sms = self.sms
        while self._finished < len(sms) and sms[self._finished].sm_id < sm_id:
            sms[self._finished].run()
            self._finished += 1
        if self._finished < len(sms) and sms[self._finished].sm_id == sm_id:
            sms[self._finished].run(until=cycle)

    def fork(self) -> "Launch":
        """An independent copy of this launch, paused where it is.

        A ``copy.deepcopy`` whose memo is seeded with the program-level
        immutables (program, instructions, decoded entries, hazard
        plans, configs) and the warps' memoized lane geometry, so the
        copy shares them instead of cloning.
        """
        memo = {}
        for obj in self._immutables():
            memo[id(obj)] = obj
        return copy.deepcopy(self, memo)

    def _immutables(self) -> List[object]:
        program = self.program
        shared: List[object] = [program, program.instructions]
        shared.extend(program.instructions)
        shared.extend(self.configs)
        # the program memo holds derived artifacts (hazard plans, decode
        # entries, fusion regions), built once and never mutated
        for artifact in program.__dict__.get("_memo", {}).values():
            shared.append(artifact)
            if isinstance(artifact, list):
                shared.extend(artifact)
        for sm in self.sms:
            for warp in sm._resident_warps:
                shared.extend(warp.memo_artifacts())
        return shared

    def finish(self) -> KernelResult:
        """Run every SM to completion and merge the per-SM results."""
        merged = MetricsRegistry()
        per_sm_cycles: List[int] = []
        detections: List = []
        for index, sm in enumerate(self.sms):
            if index >= self._finished:
                sm.run()
            per_sm_cycles.append(sm.cycle)
            merged.merge(sm.stats)
            if sm.dmr is not None:
                detections.extend(sm.dmr.detections)
        self._finished = len(self.sms)
        session = self.session
        return KernelResult(
            program_name=self.program.name,
            cycles=max(per_sm_cycles) if per_sm_cycles else 0,
            per_sm_cycles=per_sm_cycles,
            stats=merged,
            memory=self.memory,
            detections=detections,
            clock_period_ns=self.configs[0].clock_period_ns,
            obs=(session.snapshot().to_payload()
                 if session is not None else None),
        )
