"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry point of each layer of the
``repro`` package (see :data:`SPANS`) with a timing wrapper, records
calls, inclusive time and self time per span name, and puts every
original back on :meth:`Tracer.uninstall`.  Nothing under ``src/`` is
edited: the wrappers are installed by attribute assignment on the
owning classes and on every ``repro.*`` module that bound the function
by name, so ``from x import f`` call sites are traced too.

Worker processes are covered through ``fork`` inheritance: a pool or
fleet worker forked while the tracer is installed runs the wrapped
functions, notices that its pid differs from the installing process,
drops the inherited totals, and rewrites its own totals to
``<spool>/<pid>.json`` each time an outermost span returns.
:meth:`Tracer.collect` folds those files into the parent's totals, so
in-worker time lands in the same layer buckets as in-process time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import pathlib
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (span name, "module:Class" or "module", attribute).  Several entries
#: may share a span name; their calls and times add up.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.launch", "repro.sim.gpu:GPU", "launch"),
    ("sim.schedule", "repro.sim.sm:SM", "run"),
    ("sim.execute", "repro.sim.executor:Executor", "execute"),
    ("sim.fuse", "repro.sim.megakernel:WarpBatcher", "try_fuse"),
    ("core.on_issue", "repro.core.dmr_controller:DMRController", "on_issue"),
    ("core.intra_process", "repro.core.intra_warp:IntraWarpDMR", "process"),
    ("core.reexecute", "repro.sim.executor:Executor", "reexecute_lane"),
    ("core.compare", "repro.core.comparator:ResultComparator", "compare"),
    ("faults.run", "repro.faults.campaign", "run_single_fault"),
    ("faults.key", "repro.faults.campaign", "fault_run_key"),
    ("result_cache.put", "repro.analysis.result_cache:ResultCache",
     "put_payload"),
    ("result_cache.get", "repro.analysis.result_cache:ResultCache",
     "get_payload"),
    ("resilience.map", "repro.resilience.supervisor:Supervisor", "map"),
    # the pool task function: its time inside a worker is busy time
    ("resilience.worker_task", "repro.faults.campaign", "_campaign_worker"),
    ("ipc.payload", "repro.sim.gpu:KernelResult", "to_payload"),
    ("ipc.payload", "repro.sim.gpu:KernelResult", "from_payload"),
    ("ipc.payload", "repro.faults.campaign:FaultRun", "to_payload"),
    ("ipc.payload", "repro.faults.campaign:FaultRun", "from_payload"),
    ("service.store.claim", "repro.service.store:JobStore", "claim_unit"),
    ("service.store.publish", "repro.service.store:JobStore",
     "publish_result"),
    ("service.store.publish", "repro.service.store:JobStore",
     "publish_telemetry"),
    ("service.store.publish", "repro.service.store:JobStore",
     "complete_unit"),
    ("service.store.read", "repro.service.store:JobStore", "list_jobs"),
    ("service.store.read", "repro.service.store:JobStore", "load_job"),
    ("service.store.read", "repro.service.store:JobStore", "unit_result"),
    ("service.store.requeue", "repro.service.store:JobStore",
     "requeue_expired"),
    ("service.jobs.submit", "repro.service.jobs", "submit_campaign_job"),
    ("service.jobs.execute_unit", "repro.service.jobs", "execute_unit"),
    ("service.jobs.merge", "repro.service.jobs", "merge_job"),
    ("service.jobs.merge", "repro.service.store:JobStore", "write_merged"),
    ("service.worker.pass", "repro.service.worker:ServiceWorker",
     "run_once"),
    ("service.codec.encode", "repro.service.codec", "encode_canonical"),
)

#: span carrying ``Workload.prepare`` of every registered workload
PREPARE_SPAN = "workloads.prepare"
#: span carrying ``WorkloadRun.check`` (an instance attribute set by
#: ``prepare``, so it is wrapped on each returned run)
CHECK_SPAN = "workloads.check"

#: ``KernelResult.stats`` counters summed over every traced launch
LAUNCH_COUNTERS = ("thread_instructions", "replayq_enqueues",
                   "replayq_full_stalls", "cycles_dmr_stall")


def _repro_modules():
    return [mod for name, mod in list(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and mod is not None]


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


class Tracer:
    """Span timing over the layers in :data:`SPANS` (see module docs).

    ``spool`` is the directory worker processes write their totals to;
    it must exist before workers are forked.
    """

    def __init__(self, spool: os.PathLike) -> None:
        self.spool = pathlib.Path(spool)
        self.enabled = True
        self._owner = os.getpid()
        self._child = False
        self._patches: List[Tuple[object, str, object]] = []
        #: id(wrapper) -> (wrapper, original) for module-level functions
        self._functions: Dict[int, Tuple[Callable, Callable]] = {}
        self._reset()
        self.worker_pids: List[int] = []

    def _reset(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, int] = {}
        self._stack: List[List] = []  # [name, child seconds]
        self._depth: Dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, name: str) -> None:
        if os.getpid() != self._owner:
            # first traced call in a forked worker: the inherited totals
            # and open spans belong to the parent
            self._owner = os.getpid()
            self._reset()
            self._child = True
        self._stack.append([name, 0.0])
        self._depth[name] = self._depth.get(name, 0) + 1

    def _exit(self, name: str, elapsed: float) -> None:
        _, children = self._stack.pop()
        depth = self._depth[name] - 1
        self._depth[name] = depth
        record = self.spans.setdefault(name, [0, 0.0, 0.0])
        record[0] += 1
        if depth == 0:  # recursion into the same span counts once
            record[1] += elapsed
        record[2] += elapsed - children
        if self._stack:
            self._stack[-1][1] += elapsed
        elif self._child:
            self._spool_write()

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, time.perf_counter() - started)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    @contextlib.contextmanager
    def suspended(self):
        """Run the block untraced (the benchmark's own checks)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- worker spools -------------------------------------------------
    def _spool_write(self) -> None:
        path = self.spool / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"spans": self.spans,
                                   "counters": self.counters}))
        os.replace(tmp, path)

    def collect(self) -> None:
        """Fold worker spool files into these totals."""
        for path in sorted(self.spool.glob("*.json")):
            data = json.loads(path.read_text())
            for name, (calls, incl, self_s) in data["spans"].items():
                record = self.spans.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += incl
                record[2] += self_s
            for name, value in data["counters"].items():
                self.count(name, value)
            self.worker_pids.append(int(path.stem))
            path.unlink()

    # -- installation --------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name: str,
                      on_result=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._patch(cls, attr,
                        classmethod(self.wrap(name, raw.__func__, on_result)))
        else:
            self._patch(cls, attr, self.wrap(name, raw, on_result))

    def _patch_function(self, module, attr: str, name: str,
                        on_result=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_result)
        self._functions[id(traced)] = (traced, original)
        # every repro module that imported the function by name
        for mod in _repro_modules():
            if mod.__dict__.get(attr) is original:
                self._patch(mod, attr, traced)

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = self._result_hooks()
        for name, target, attr in SPANS:
            owner = _resolve(target)
            if isinstance(owner, type):
                self._patch_method(owner, attr, name, hooks.get(name))
            else:
                self._patch_function(owner, attr, name, hooks.get(name))
        from repro.workloads import all_workloads
        prepare_hook = self._wrap_check
        for workload in all_workloads().values():
            for cls in type(workload).__mro__:
                if "prepare" in cls.__dict__:
                    if not any(p[0] is cls and p[1] == "prepare"
                               for p in self._patches):
                        self._patch_method(cls, "prepare", PREPARE_SPAN,
                                           prepare_hook)
                    break
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        # a module first imported while installed bound the wrapper
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                pair = self._functions.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(mod, attr, pair[1])
        self._functions.clear()

    # -- result hooks (counts taken where the work happens) ------------
    def _wrap_check(self, args, run) -> None:
        run.check = self.wrap(CHECK_SPAN, run.check)

    def _result_hooks(self) -> Dict[str, Callable]:
        count = self.count

        def launch(args, result):
            count("sim.cycles", result.cycles)
            for key in LAUNCH_COUNTERS:
                count(key, result.stats.value(key))

        def compare(args, event):
            if event is not None:
                count("core.detections")

        def fault_run(args, run):
            if run.outcome.value == "hung":
                count("faults.hung")

        def cache_put(args, result):
            cache, key = args[0], args[1]
            count("result_cache.bytes_written",
                  os.path.getsize(cache._path(key)))

        def cache_get(args, payload):
            if payload is not None:
                cache, key = args[0], args[1]
                count("result_cache.hits")
                count("result_cache.bytes_read",
                      os.path.getsize(cache._path(key)))

        def claim(args, claimed):
            if claimed is None:
                count("service.store.claim_misses")

        def worker_pass(args, outcome):
            if outcome is None:
                count("service.worker.idle_passes")

        return {
            "sim.launch": launch,
            "core.compare": compare,
            "faults.run": fault_run,
            "result_cache.put": cache_put,
            "result_cache.get": cache_get,
            "service.store.claim": claim,
            "service.worker.pass": worker_pass,
        }

    # -- reporting -----------------------------------------------------
    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def inclusive(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]


def patched_attributes() -> List[str]:
    """Every ``repro`` attribute currently holding a perfbench wrapper,
    as ``module.attr`` or ``module.Class.attr``.

    Empty after :meth:`Tracer.uninstall`; the tests use it to prove
    nothing patched is left behind.
    """
    found = []
    for mod in _repro_modules():
        owners = [(mod.__name__, mod)] + [
            (f"{mod.__name__}.{name}", value)
            for name, value in vars(mod).items() if isinstance(value, type)]
        for prefix, owner in owners:
            for attr, value in list(vars(owner).items()):
                inner = getattr(value, "__func__", value)
                if getattr(inner, "__wrapped_by_perfbench__", False):
                    found.append(f"{prefix}.{attr}")
    return found
