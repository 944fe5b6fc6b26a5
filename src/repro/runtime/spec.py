"""Declarative run plans: one frozen :class:`RunSpec` per simulation.

A RunSpec fully describes one deterministic simulation — an application
run (``kind='app'``) or a micro-benchmark sweep (``kind='microbench'``)
— as plain hashable data: network, process layout, bus flavour, MPI
options, message sizes, iteration counts and seed.  Because the
simulator is deterministic, the spec *is* the result's identity: two
equal specs always produce byte-identical payloads, which is what makes
the content-addressed cache (:mod:`repro.runtime.cache`) and the
parallel executor (:mod:`repro.runtime.executor`) sound.

Mappings (``mpi_options``, ``net_overrides``, ``params``) are stored as
sorted ``(key, value)`` tuples so that specs are hashable and the
digest is independent of dict insertion order.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Optional, Sequence, Tuple, Union, cast

from repro.core.netnames import canonical_network

__all__ = ["RunSpec", "SPEC_SCHEMA_VERSION", "freeze_mapping", "thaw_mapping"]

#: bump when the spec fields / payload layout change incompatibly
SPEC_SCHEMA_VERSION = 1

KIND_APP = "app"
KIND_MICROBENCH = "microbench"

Pairs = Tuple[Tuple[str, Any], ...]


#: exact types :func:`_freeze_value` keeps as they are
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _freeze_value(value: Any) -> Any:
    # exact built-in types first: ``isinstance(value, Mapping)`` is an
    # ABC check, far slower than a type lookup
    kind = type(value)
    if kind in _SCALARS:
        return value
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if kind is dict or isinstance(value, Mapping):
        return freeze_mapping(value)
    if isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"RunSpec values must be plain data, got {type(value).__name__}")


def freeze_mapping(mapping: Optional[Union[Mapping, Pairs]]) -> Pairs:
    """Canonicalize a mapping (or pair tuple) to sorted hashable pairs."""
    if not mapping:
        return ()
    # a dict by its exact type first: the ``Mapping`` check is an ABC one
    items = (mapping.items()
             if type(mapping) is dict or isinstance(mapping, Mapping)
             else mapping)
    return tuple(sorted((str(k), _freeze_value(v)) for k, v in items))


def thaw_mapping(pairs: Pairs) -> dict:
    """Inverse of :func:`freeze_mapping` (one level: values stay frozen)."""
    return dict(pairs)


@dataclass(frozen=True)
class RunSpec:
    """A complete, hashable description of one simulation.

    Prefer the :meth:`app` / :meth:`microbench` constructors, which
    normalize mappings and pull ``bus_kind`` out of ``net_overrides``.
    """

    kind: str                           # 'app' | 'microbench'
    target: str                         # app name ('is') or bench name ('latency')
    network: str = "infiniband"
    klass: Optional[str] = None         # problem class for apps ('B', '150', ...)
    nprocs: int = 2
    ppn: int = 1
    mapping: str = "block"
    bus_kind: Optional[str] = None      # host bus override (Figs. 26-28: 'pci')
    mpi_options: Pairs = ()             # forwarded to the MPI device
    net_overrides: Pairs = ()           # fabric parameter overrides (minus bus_kind)
    sizes: Tuple[int, ...] = ()         # message sizes (microbench sweeps)
    iters: Optional[int] = None         # iteration count (microbench)
    seed: int = 0                       # reserved for stochastic workloads
    record: bool = False                # attach a profiling Recorder
    params: Pairs = ()                  # any further driver keyword arguments
    faults: Pairs = ()                  # wire-fault injection (repro.faults)
    topology: Optional[str] = None      # switch topology (None = testbed crossbar)

    def __post_init__(self) -> None:
        if self.kind not in (KIND_APP, KIND_MICROBENCH):
            raise ValueError(f"kind must be 'app' or 'microbench', got {self.kind!r}")
        if self.nprocs < 1 or self.ppn < 1:
            raise ValueError("nprocs and ppn must be >= 1")
        if self.mapping not in ("block", "cyclic"):
            raise ValueError(f"unknown mapping {self.mapping!r} (block|cyclic)")
        # normalize in place so directly-constructed specs digest identically
        object.__setattr__(self, "network", canonical_network(self.network))
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
        if self.topology is not None:
            object.__setattr__(self, "topology", str(self.topology).lower())
        for name in ("mpi_options", "net_overrides", "params", "faults"):
            object.__setattr__(self, name, freeze_mapping(getattr(self, name)))

    # -- constructors ------------------------------------------------------
    @classmethod
    def app(cls, app: str, klass: str, network: str, nprocs: int, ppn: int = 1,
            *, mapping: str = "block", verify: bool = False,
            sample_iters: Optional[int] = None, record: bool = True,
            net_overrides: Optional[Mapping] = None,
            mpi_options: Optional[Mapping] = None,
            faults: Optional[Mapping] = None, seed: int = 0,
            topology: Optional[str] = None) -> "RunSpec":
        """Spec for one application run (mirrors ``run_app``'s signature)."""
        overrides = dict(net_overrides or {})
        bus_kind = overrides.pop("bus_kind", None)
        topology = overrides.pop("topology", topology)
        params = {"verify": bool(verify)}
        if sample_iters is not None:
            params["sample_iters"] = int(sample_iters)
        # __post_init__ freezes the mappings (the casts tell the type
        # checker so)
        return cls(kind=KIND_APP, target=app, klass=str(klass), network=network,
                   nprocs=nprocs, ppn=ppn, mapping=mapping, bus_kind=bus_kind,
                   mpi_options=cast(Pairs, mpi_options),
                   net_overrides=cast(Pairs, overrides),
                   seed=seed, record=record, params=cast(Pairs, params),
                   faults=cast(Pairs, faults), topology=topology)

    @classmethod
    def microbench(cls, bench: str, network: str, *, sizes: Sequence[int] = (),
                   iters: Optional[int] = None, nprocs: int = 2, ppn: int = 1,
                   net_overrides: Optional[Mapping] = None,
                   mpi_options: Optional[Mapping] = None,
                   faults: Optional[Mapping] = None, seed: int = 0,
                   topology: Optional[str] = None,
                   **params: Any) -> "RunSpec":
        """Spec for one ``measure_*`` sweep (bench name from the registry)."""
        overrides = dict(net_overrides or {})
        bus_kind = overrides.pop("bus_kind", None)
        topology = overrides.pop("topology", topology)
        # __post_init__ freezes the mappings and the sizes
        return cls(kind=KIND_MICROBENCH, target=bench, network=network,
                   nprocs=nprocs, ppn=ppn, bus_kind=bus_kind,
                   mpi_options=cast(Pairs, mpi_options),
                   net_overrides=cast(Pairs, overrides),
                   sizes=cast(Tuple[int, ...], sizes), iters=iters, seed=seed,
                   params=cast(Pairs, params), faults=cast(Pairs, faults),
                   topology=topology)

    # -- identity ----------------------------------------------------------
    @property
    def digest(self) -> str:
        """Stable content digest (sha256 hex) — identical across processes."""
        cached = self.__dict__.get("_digest")
        if cached is None:
            state = self.__dict__
            payload = {name: state[name] for name in _FIELD_NAMES}
            payload["schema"] = SPEC_SCHEMA_VERSION
            if not payload["faults"]:
                # fault-free specs digest exactly as they did before
                # the fault field existed: the on-disk cache keys of
                # every existing result stay valid
                del payload["faults"]
            if payload["topology"] is None:
                # same back-compat rule for the topology field: the
                # testbed crossbar digests as before the field existed
                del payload["topology"]
            blob = _digest_json(payload)  # sort_keys: order is moot
            cached = hashlib.sha256(blob.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", cached)
        return cached

    def replace(self, **changes: Any) -> "RunSpec":
        """A copy with fields changed (re-normalized, new digest)."""
        return replace(self, **changes)

    # -- convenience -------------------------------------------------------
    def merged_net_overrides(self) -> Optional[dict]:
        """``net_overrides`` with ``bus_kind``/``topology`` folded back in."""
        overrides = thaw_mapping(self.net_overrides)
        if self.bus_kind is not None:
            overrides["bus_kind"] = self.bus_kind
        if self.topology is not None:
            overrides["topology"] = self.topology
        return overrides or None

    def fault_mapping(self) -> Optional[dict]:
        """``faults`` as a plain dict for MPIWorld, or None when fault-free."""
        return thaw_mapping(self.faults) or None

    def describe(self) -> str:
        """Short human label for logs and progress lines."""
        name = self.target if self.klass is None else f"{self.target}.{self.klass}"
        label = f"{self.kind}:{name}@{self.network} np={self.nprocs}x{self.ppn}"
        if self.topology is not None:
            label += f" topo={self.topology}"
        return label


#: the fields :attr:`RunSpec.digest` covers, in declaration order
_FIELD_NAMES = tuple(f.name for f in fields(RunSpec))

#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"), default=list)``
#: (frozen spec values are trees of tuples: no cycle to check for)
_digest_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                default=list, check_circular=False).encode
