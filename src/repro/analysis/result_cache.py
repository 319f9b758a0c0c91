"""Content-addressed on-disk cache for simulation results.

Every suite run is fully determined by (workload name, GPUConfig,
DMRConfig, scale, seed, check_outputs): the simulator is pure and the
workloads generate inputs from the seed.  The cache therefore keys each
:class:`~repro.sim.gpu.KernelResult` by a SHA-256 over the canonical
fingerprint of that tuple plus a code-version salt, and stores the
result's plain-data payload as a pickle file.  Repeated figure
regenerations, pytest runs and CLI invocations hit the cache instead of
re-simulating.

Invalidation is by construction: any config field change alters the
fingerprint (see :func:`repro.common.config.config_fingerprint`), and
bumping :data:`CACHE_SCHEMA_VERSION` or the package version salts every
key, orphaning stale entries rather than ever serving them.

Integrity (schema 2): every entry is written as a 36-byte header —
magic ``RPC2`` plus the SHA-256 of the pickled payload — followed by
the payload itself, atomically (temp file + ``os.replace``).  A read
whose bytes fail the checksum (truncated write, bit rot, a foreign
file) is *quarantined* — moved into a ``quarantine/`` subdirectory,
counted on the cache object and in the harness metrics registry — and
reported as a miss so the caller transparently recomputes.  Corruption
is therefore detected, bounded, and visible, never silently re-served
or silently discarded.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle
import tempfile
from typing import Dict, Optional, Union

from repro.common.config import DMRConfig, GPUConfig, config_fingerprint
from repro.common.errors import ConfigError
from repro.obs.metrics import NULL_REGISTRY, MetricSnapshot, MetricsRegistry
from repro.resilience.supervisor import Supervisor, declare_harness_metrics
from repro.sim.gpu import KernelResult

#: Bump when the cached payload layout or simulator semantics change in
#: a way not captured by any configuration field.  2 = checksummed
#: entry format (magic + SHA-256 header); 3 = engines reduced to
#: ``scalar``/``vector``, so no key made under a retired engine name
#: aliases a new one.
CACHE_SCHEMA_VERSION = 3

#: Entry-format magic of the checksummed format (schema 2 onwards).
ENTRY_MAGIC = b"RPC2"

#: Header layout: 4-byte magic + 32-byte SHA-256 over the payload bytes.
_HEADER_SIZE = len(ENTRY_MAGIC) + hashlib.sha256().digest_size

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def code_version_salt() -> str:
    """Salt folded into every key so stale code never serves results."""
    from repro import __version__
    return f"repro-{__version__}-schema{CACHE_SCHEMA_VERSION}"


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else ``~/.cache/repro``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg) if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def result_key(name: str, dmr: DMRConfig, config: GPUConfig,
               scale: float, seed: int, check_outputs: bool,
               obs: bool = False, engine: Optional[str] = None) -> str:
    """Stable content address of one simulation.

    Covers *every* run input — the fingerprints expand all config
    fields, and scale/seed/check_outputs ride alongside — so two runs
    share a key iff they are the same simulation.  ``obs`` keys whether
    the run carried a metrics snapshot: an obs-on result embeds the
    snapshot payload, so it must not be served to (or shadowed by) an
    obs-off request.  ``engine`` is the *resolved* execution engine:
    although the engines are bit-identical by contract, a cache hit
    must never mask an engine divergence (the differential suite that
    enforces the contract would otherwise compare one engine's cached
    result against itself), so each engine keeps its own entries.
    """
    material = config_fingerprint({
        "workload": name,
        "dmr": dmr,
        "gpu": config,
        "scale": scale,
        "seed": seed,
        "check_outputs": check_outputs,
        "obs": obs,
        "engine": engine,
        "salt": code_version_salt(),
    })
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


class ResultCache:
    """Persistent plain-data payload store, one pickle file per key.

    The classic use stores :class:`KernelResult` payloads (:meth:`get` /
    :meth:`put`); fault campaigns store per-fault-run payloads through
    the generic :meth:`get_payload` / :meth:`put_payload` layer — both
    kinds share one directory because the SHA-256 keys are already
    domain-salted by their material.

    Reads verify the per-entry checksum: corrupt or truncated files are
    quarantined (moved aside, counted, reported as misses) and writes
    are atomic (temp file + ``os.replace``), so concurrent runners and
    parallel workers can share one directory safely.  ``registry``
    receives the ``cache_corrupt_entries`` / ``cache_quarantined``
    counters; the supervision layer passes its harness registry here so
    ``python -m repro metrics`` surfaces cache integrity events.
    """

    def __init__(self, cache_dir: Optional[os.PathLike] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir \
            else default_cache_dir()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    @classmethod
    def resolve(cls, cache: Union[None, bool, str, os.PathLike,
                                  "ResultCache"],
                registry: Optional[MetricsRegistry] = None
                ) -> Optional["ResultCache"]:
        """The persistent layer a ``cache`` argument names.

        ``None``/``False`` is none (in-memory only), ``True`` the
        default directory, a path that directory, and a ready
        :class:`ResultCache` is taken as is.
        """
        if isinstance(cache, cls):
            return cache
        if cache is True:
            return cls(registry=registry)
        if cache:
            return cls(cache, registry=registry)
        return None

    # ------------------------------------------------------------------
    def _path(self, key: str) -> pathlib.Path:
        return self.cache_dir / f"{key}.pkl"

    @property
    def quarantine_dir(self) -> pathlib.Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.cache_dir / "quarantine"

    def _quarantine(self, path: pathlib.Path) -> None:
        """Move a corrupt entry aside so it can never be re-served.

        Best-effort: a concurrent reader may quarantine the same file
        first, and a read-only cache directory degrades to miss-only
        behavior — either way the caller recomputes.
        """
        self.corrupt += 1
        self.registry.inc("cache_corrupt_entries")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            return
        self.quarantined += 1
        self.registry.inc("cache_quarantined")

    def get_payload(self, key: str) -> Optional[object]:
        """The cached plain-data payload for *key*, or ``None`` on miss.

        A present-but-corrupt entry (bad magic, failed checksum,
        unpicklable bytes) is quarantined and counts as a miss.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.misses += 1
            return None
        digest = raw[len(ENTRY_MAGIC):_HEADER_SIZE]
        blob = raw[_HEADER_SIZE:]
        if (len(raw) < _HEADER_SIZE or raw[:len(ENTRY_MAGIC)] != ENTRY_MAGIC
                or hashlib.sha256(blob).digest() != digest):
            self._quarantine(path)
            self.misses += 1
            return None
        try:
            payload = pickle.loads(blob)
        except (pickle.UnpicklingError, EOFError, KeyError, TypeError,
                AttributeError, ValueError, MemoryError):
            # checksum-valid yet unpicklable means the *writer* stored
            # garbage; quarantine it all the same
            self._quarantine(path)
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def put_payload(self, key: str, payload: object) -> None:
        """Store a plain-data *payload* under *key* atomically.

        The entry only becomes visible via ``os.replace`` once its
        checksummed bytes are fully written, so readers never observe a
        partial entry; an interrupted writer leaves (at worst) a temp
        file that is swept aside, never a truncated entry.
        """
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError) as error:
            raise ConfigError(
                f"result-cache path {self.cache_dir} is not a directory"
            ) from error
        path = self._path(key)
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = ENTRY_MAGIC + hashlib.sha256(blob).digest()
        fd, tmp_name = tempfile.mkstemp(dir=self.cache_dir,
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(blob)
            os.replace(tmp_name, path)
        except (KeyboardInterrupt, SystemExit):
            # interrupts must propagate unswallowed — but still sweep
            # the temp file so an aborted run cannot litter the cache
            self._discard_tmp(tmp_name)
            raise
        except Exception:
            self._discard_tmp(tmp_name)
            raise
        self.stores += 1

    @staticmethod
    def _discard_tmp(tmp_name: str) -> None:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass

    def get(self, key: str) -> Optional[KernelResult]:
        """The cached :class:`KernelResult` for *key*, or ``None``."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        try:
            return KernelResult.from_payload(payload)
        except (KeyError, TypeError, AttributeError, ValueError):
            # a readable pickle that is not a KernelResult payload is a
            # miss, not an error (e.g. a campaign payload under a
            # colliding-by-bug key); re-book the optimistic hit
            self.hits -= 1
            self.misses += 1
            return None

    def put(self, key: str, result: KernelResult) -> None:
        """Store *result* under *key* atomically."""
        self.put_payload(key, result.to_payload())

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        if self.cache_dir.is_dir():
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed

    def __repr__(self) -> str:
        return (f"ResultCache({str(self.cache_dir)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"corrupt={self.corrupt})")


class CachedRunner:
    """Plumbing shared by the suite runner and the campaign engine.

    Both keep every result twice — in memory and, when ``cache`` names
    one (:meth:`ResultCache.resolve`), in the persistent layer — and
    fan their misses out ``jobs`` wide through a supervised pool
    (:mod:`repro.resilience`).  Worker deaths, broken pools and flaky
    exceptions retry with deterministic backoff, and every such event
    lands in the runner's *harness registry* (:meth:`harness_snapshot`).
    A supplied ``supervisor`` wins and its registry becomes the
    harness.  Results are stored as their ``to_payload`` form and
    restored through :attr:`result_type`.
    """

    #: first word of the :meth:`cache_summary` line
    summary_label = "cache"
    #: what the runner caches: a class with ``to_payload``/``from_payload``
    result_type = KernelResult

    def __init__(self, cache, jobs: int,
                 supervisor: Optional[Supervisor] = None) -> None:
        self.jobs = max(1, jobs)
        if supervisor is None:
            supervisor = Supervisor(
                registry=declare_harness_metrics(MetricsRegistry()))
        self.supervisor = supervisor
        self.harness = supervisor.registry
        self.persistent_cache = ResultCache.resolve(cache, self.harness)
        self._memory: Dict[str, object] = {}
        self.simulations = 0  # results actually computed (here or in a pool)

    def _lookup(self, key: str):
        """Memory cache, then persistent cache (promoting on hit)."""
        if key in self._memory:
            return self._memory[key]
        if self.persistent_cache is not None:
            payload = self.persistent_cache.get_payload(key)
            if payload is not None:
                try:
                    result = self.result_type.from_payload(payload)
                except (KeyError, TypeError, AttributeError, ValueError):
                    return None  # foreign/stale payload: treat as miss
                self._memory[key] = result
                return result
        return None

    def _store(self, key: str, result) -> None:
        """Book one freshly computed *result* in both cache layers."""
        self._memory[key] = result
        self.simulations += 1
        if self.persistent_cache is not None:
            self.persistent_cache.put_payload(key, result.to_payload())

    def harness_snapshot(self) -> MetricSnapshot:
        """Supervision counters (retries, timeouts, pool rebuilds,
        cache corruption/quarantines) accumulated by this runner."""
        return MetricSnapshot.from_registry(self.harness)

    def cache_summary(self) -> str:
        """One-line accounting, printed to stderr by the CLI."""
        parts = [f"simulations={self.simulations}",
                 f"memory-entries={len(self._memory)}"]
        if self.persistent_cache is not None:
            pc = self.persistent_cache
            parts.append(f"disk-hits={pc.hits}")
            parts.append(f"disk-stores={pc.stores}")
            if pc.corrupt:
                parts.append(f"corrupt={pc.corrupt}")
                parts.append(f"quarantined={pc.quarantined}")
            parts.append(f"dir={pc.cache_dir}")
        for counter, label in (("resilience_retries", "retries"),
                               ("resilience_timeouts", "timeouts"),
                               ("resilience_pool_rebuilds",
                                "pool-rebuilds")):
            value = self.harness.value(counter)
            if value:
                parts.append(f"{label}={value}")
        return f"{self.summary_label}: " + " ".join(parts)
