"""Content-addressed result cache for :class:`~repro.runtime.spec.RunSpec`.

Payloads (plain JSON-able dicts produced by the executor) are keyed by
the spec's content digest plus a *code-version salt*, so a recalibrated
model never serves stale numbers.  Tiers:

- **in-memory** — always on; this is what deduplicates the repeated
  class-B NAS runs across figure and table drivers in one process;
- **disk** — optional (``disk_dir=`` / ``--cache-dir``), surviving
  across processes and CLI invocations: one JSON file per result under
  ``<dir>/<salt>/<digest[:2]>/<digest>.json`` (2-hex-prefix shards so
  huge sweep caches never degrade into one giant directory scan).

Both tiers also hold *derived entries*: a value computed from one
payload (the profiling tables' per-run summary), keyed by a
:class:`DerivedKey` (see :meth:`repro.runtime.executor.SweepExecutor.derive`).

A payload inside the runtime may hold *packed blocks*: dict values
that stand for a JSON list of rows and decode them on demand
(``len(block)`` rows, ``block.json_rows(start, stop)``,
``block.take_rows()``; the profiling Recorder's call and transfer
streams).  The memory tier keeps them packed, :func:`dump_json`
streams them, and :func:`plain` decodes them where a payload leaves
the runtime (:meth:`ResultCache.lookup`, and
:meth:`SweepExecutor.run <repro.runtime.executor.SweepExecutor.run>`),
unless the caller asks for the blocks of a run it simulates
(``run(..., packed=True)``: ``SweepExecutor.derive`` and ``run_app``).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (IO, Any, Callable, Iterator, List, NamedTuple, Optional,
                    Union)

from repro.core.engine import gc_paused
from repro.runtime.spec import RunSpec, SPEC_SCHEMA_VERSION

__all__ = ["CacheStats", "ResultCache", "DirBackend", "DEFAULT_CACHE_DIR",
           "code_salt", "DerivedKey", "derived_key", "source_fingerprint",
           "dump_json", "plain"]

#: conventional on-disk location (relative to the working directory)
DEFAULT_CACHE_DIR = ".repro_cache"

#: list items per ``json.dumps`` call in :func:`dump_json`: about 80 KB
#: of recorder rows, under glibc's default 128 KiB mmap threshold
JSON_SLICE = 1000

_encode = json.JSONEncoder(separators=(",", ":")).encode


def dump_json(obj: Any, fh: IO[str]) -> None:
    """Write ``obj`` to ``fh`` byte for byte as ``json.dump(obj, fh,
    separators=(",", ":"))`` does, but through the C encoder.

    ``json.dump`` always runs CPython's pure-Python encoder (only the
    one-shot ``json.dumps`` takes the C path), while one ``json.dumps``
    of a whole payload builds a multi-MB string, and freeing that raises
    glibc's mmap threshold and with it peak RSS.  So this walks dicts,
    writes a list longer than :data:`JSON_SLICE` as ``json.dumps`` of
    ``JSON_SLICE``-item slices with their brackets stripped, and encodes
    anything else in one call.  A packed block is written as the list it
    stands for, decoded one slice at a time.
    """
    fh.writelines(_json_pieces(obj))


def _is_packed(obj: Any) -> bool:
    """True for a packed block (see the module docstring)."""
    return hasattr(obj, "json_rows")


def _holds_packed(obj: Any) -> bool:
    """True if a dict holds a packed block at any depth."""
    return isinstance(obj, dict) and any(
        _is_packed(value) or _holds_packed(value) for value in obj.values())


def plain(payload: Any, take: bool = False) -> Any:
    """``payload`` with every packed block decoded to its list of rows.

    Blocks sit only in dict values, so only dicts are searched.  A dict
    that holds none is returned as it is; one that does is copied (down
    to the block), so the packed original is left intact for the
    memory tier.  With ``take`` (the caller holds the only reference to
    ``payload``) each block is emptied instead while its rows are
    built (``block.take_rows()``), so the packed bytes and the rows do
    not peak together.  Decodes with the cyclic collector paused.
    """
    if not isinstance(payload, dict):
        return payload
    out = None
    for key, value in payload.items():
        if _is_packed(value):
            with gc_paused():  # rows are lists of scalars: no cycles
                new = value.take_rows() if take else value.json_rows()
        else:
            new = plain(value, take)
        if new is not value:
            if out is None:
                out = dict(payload)
            out[key] = new
    return payload if out is None else out


def _json_pieces(obj: Any) -> Iterator[str]:
    if isinstance(obj, dict) and obj:
        sep = "{"
        for key, value in obj.items():
            # '{"key":null}' -> '"key":', keys coerced as json coerces them
            yield sep + _encode({key: None})[1:-5]
            yield from _json_pieces(value)
            sep = ","
        yield "}"
    elif isinstance(obj, (list, tuple)) and len(obj) > JSON_SLICE:
        sep = "["
        for i in range(0, len(obj), JSON_SLICE):
            yield sep + _encode(obj[i:i + JSON_SLICE])[1:-1]
            sep = ","
        yield "]"
    elif _is_packed(obj):
        sep = "["
        for i in range(0, len(obj), JSON_SLICE):
            yield sep + _encode(obj.json_rows(i, i + JSON_SLICE))[1:-1]
            sep = ","
        yield "]" if sep == "," else "[]"
    else:
        yield _encode(obj)


def code_salt() -> str:
    """Version salt mixed into every key: digest alone is not enough,
    because a model recalibration changes results without changing specs."""
    from repro import __version__

    return f"repro-{__version__}-s{SPEC_SCHEMA_VERSION}"


@functools.lru_cache(maxsize=None)
def source_fingerprint(module: str) -> str:
    """sha256 over the source of :mod:`repro.profiling` and of ``module``.

    Computed once per process.  It keys derived entries, so editing a
    statistic (or the function deriving it) retires every stored value
    without a salt bump.
    """
    import repro.profiling

    files = sorted(Path(repro.profiling.__file__).parent.glob("*.py"))
    own = getattr(sys.modules.get(module), "__file__", None)
    if own:
        files.append(Path(own))
    h = hashlib.sha256()
    for path in files:
        h.update(path.read_bytes())
    return h.hexdigest()


class DerivedKey(NamedTuple):
    """Cache key of ``fn(payload)`` for one base spec.

    It stands where a :class:`RunSpec` would in :meth:`ResultCache.lookup`
    and :meth:`ResultCache.store`, which only read ``digest``.
    """

    digest: str


def derived_key(spec: RunSpec, fn: Callable) -> DerivedKey:
    """Key of ``fn(payload of spec)``: a sha256 of the base spec's
    digest, ``fn``'s qualified name and :func:`source_fingerprint`."""
    h = hashlib.sha256()
    for part in (spec.digest, f"{fn.__module__}.{fn.__qualname__}",
                 source_fingerprint(fn.__module__)):
        h.update(part.encode())
        h.update(b"\0")
    return DerivedKey(h.hexdigest())


@dataclass
class CacheStats:
    """Hit/miss accounting: ``misses`` == simulations actually executed.

    A derived entry's miss is not counted: the lookup of its base spec
    that follows counts the miss, if there is one.

    Beyond the counters, every :meth:`ResultCache.lookup` records its
    wall-clock latency so the trailer (and the ledger's
    ``sweep_finished`` event) can report p50/p95 lookup cost.
    """

    hits: int = 0
    misses: int = 0
    stores: int = 0
    disk_hits: int = 0
    corrupt: int = 0
    lookup_us: List[float] = field(default_factory=list, repr=False)

    #: bound on retained latency samples (drop-oldest beyond this)
    MAX_SAMPLES = 65536

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def mem_hits(self) -> int:
        """Hits served by the in-memory tier (no disk read)."""
        return self.hits - self.disk_hits

    def record_lookup(self, elapsed_us: float) -> None:
        samples = self.lookup_us
        if len(samples) >= self.MAX_SAMPLES:  # pragma: no cover - bound
            del samples[: self.MAX_SAMPLES // 2]
        samples.append(elapsed_us)

    def percentile_us(self, q: float) -> Optional[float]:
        """q-quantile (0..1) of recorded lookup latencies, in µs."""
        if not self.lookup_us:
            return None
        ordered = sorted(self.lookup_us)
        idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[idx]

    def reset(self) -> None:
        self.hits = self.misses = self.stores = self.disk_hits = 0
        self.corrupt = 0
        self.lookup_us = []

    def as_dict(self) -> dict:
        out = {"hits": self.hits, "misses": self.misses,
               "stores": self.stores, "disk_hits": self.disk_hits,
               "mem_hits": self.mem_hits, "corrupt": self.corrupt}
        p50, p95 = self.percentile_us(0.5), self.percentile_us(0.95)
        if p50 is not None:
            out["lookup_p50_us"] = round(p50, 1)
            out["lookup_p95_us"] = round(p95, 1)
        return out

    def __str__(self) -> str:
        base = (f"{self.hits} hits, {self.misses} misses "
                f"({self.disk_hits} from disk, {self.stores} stored)")
        p50 = self.percentile_us(0.5)
        if p50 is not None:
            base += (f", lookup p50 {p50 / 1000.0:.3f}ms "
                     f"p95 {self.percentile_us(0.95) / 1000.0:.3f}ms")
        if self.corrupt:
            base += f", {self.corrupt} corrupt quarantined"
        return base


class DirBackend:
    """Sharded one-JSON-file-per-result tier (the original disk cache).

    Files live under ``<root>/<salt>/<digest[:2]>/<digest>.json``.
    """

    def __init__(self, root: Union[str, Path], salt: str,
                 stats: Optional[CacheStats] = None) -> None:
        self.root = Path(root)
        self.salt = salt
        self.stats = stats if stats is not None else CacheStats()
        #: ``<root>/<salt>/``: every entry path is this plus two
        #: string parts, so a hit builds no ``Path``
        self._prefix = os.path.join(str(self.root), salt, "")

    # -- layout --------------------------------------------------------
    def path(self, digest: str) -> Path:
        """Sharded location for ``digest``."""
        return Path(self._file(digest))

    def _file(self, digest: str) -> str:
        return f"{self._prefix}{digest[:2]}/{digest}.json"

    # -- payload I/O ---------------------------------------------------
    def get(self, digest: str) -> Optional[dict]:
        """The payload stored under ``digest``, or None.

        One ``open``: no file there (or a directory) is a miss, while a
        file that cannot be read or decoded, or holds no dict, is
        quarantined.  Decodes with the cyclic collector paused (a
        payload is a tree: no cycles to find).
        """
        path = self._file(digest)
        try:
            with gc_paused(), open(path, "rb") as fh:
                payload = json.loads(fh.read().decode())
        except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
            return None
        except (OSError, ValueError):
            if os.path.isdir(path):  # where opening a directory is EACCES
                return None
            payload = None
        if isinstance(payload, dict):
            return payload
        # unparseable (or non-dict) file: quarantine it so the next run
        # re-simulates once instead of re-failing the parse forever; the
        # .corrupt file is kept for forensics
        self._quarantine(path)
        return None

    def has(self, digest: str) -> bool:
        """True if a file is stored under ``digest``."""
        return os.path.isfile(self._file(digest))

    def _quarantine(self, path: str) -> None:
        try:
            os.replace(path, path + ".corrupt")
        except OSError:  # pragma: no cover - e.g. racing reader won
            return
        self.stats.corrupt += 1

    def put(self, digest: str, payload: dict) -> None:
        path = self.path(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # write-then-rename so a concurrent reader never sees a torn file
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                # the C encoder in bounded pieces: json.dump would run the
                # pure-Python encoder, and one json.dumps would build a
                # multi-MB string whose release raises peak RSS
                dump_json(payload, fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def __repr__(self) -> str:  # pragma: no cover
        return f"<DirBackend {self.root}>"


class ResultCache:
    """Digest-keyed payload store: in-memory tier + optional disk tier.

    ``disk_dir`` roots the disk tier (None = memory only); assigning
    ``cache.disk_dir = path`` later (re)builds it at the new root.
    """

    def __init__(self, disk_dir: Optional[Union[str, Path]] = None,
                 salt: Optional[str] = None) -> None:
        self.salt = salt if salt is not None else code_salt()
        self._mem: dict = {}
        #: digests whose memory-tier payload holds packed blocks
        self._packed: set = set()
        self.stats = CacheStats()
        self._backend: Optional[DirBackend] = None
        if disk_dir is not None:
            self.disk_dir = Path(disk_dir)

    @property
    def backend(self) -> Optional[DirBackend]:
        """The disk tier, or None (memory only)."""
        return self._backend

    @property
    def disk_dir(self) -> Optional[Path]:
        return self._backend.root if self._backend is not None else None

    @disk_dir.setter
    def disk_dir(self, value: Optional[Union[str, Path]]) -> None:
        self._backend = (None if value is None else
                         DirBackend(value, self.salt, stats=self.stats))

    # ------------------------------------------------------------------
    def lookup(self, spec: Union[RunSpec, DerivedKey]) -> Optional[dict]:
        """Return the cached payload as plain JSON data (:func:`plain`),
        or None (counting a hit or a miss; a :class:`DerivedKey` counts
        hits only, see :class:`CacheStats`)."""
        t0 = time.perf_counter()
        digest = spec.digest
        payload = self._mem.get(digest)
        if payload is not None:
            if digest in self._packed:
                payload = plain(payload)
            self.stats.hits += 1
            self.stats.record_lookup((time.perf_counter() - t0) * 1e6)
            return payload
        if self._backend is not None:
            payload = self._backend.get(digest)
            if payload is not None:
                self._mem[digest] = payload
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self.stats.record_lookup((time.perf_counter() - t0) * 1e6)
                return payload
        if not isinstance(spec, DerivedKey):
            self.stats.misses += 1
        self.stats.record_lookup((time.perf_counter() - t0) * 1e6)
        return None

    def store(self, spec: Union[RunSpec, DerivedKey], payload: dict) -> None:
        digest = spec.digest
        self._mem[digest] = payload
        if _holds_packed(payload):
            self._packed.add(digest)
        else:
            self._packed.discard(digest)
        self.stats.stores += 1
        if self._backend is not None:
            self._backend.put(digest, payload)

    def release(self, spec: Union[RunSpec, DerivedKey]) -> None:
        """Drop ``spec``'s entry from the memory tier if the disk tier
        holds it, so a later lookup is a disk hit; a memory-only cache
        keeps every entry."""
        backend = self._backend
        if backend is not None and backend.has(spec.digest):
            self._mem.pop(spec.digest, None)
            self._packed.discard(spec.digest)

    # ------------------------------------------------------------------
    def __contains__(self, spec: RunSpec) -> bool:
        return spec.digest in self._mem

    def __len__(self) -> int:
        return len(self._mem)

    def clear(self, stats: bool = True) -> None:
        """Drop in-memory entries (the disk tier is left alone)."""
        self._mem.clear()
        self._packed.clear()
        if stats:
            self.stats.reset()

    def __repr__(self) -> str:  # pragma: no cover
        where = ""
        if self._backend is not None:
            where = f" dir={self.disk_dir}"
        return f"<ResultCache {len(self._mem)} entries{where} [{self.stats}]>"
