"""The fabric names: canonical names, paper labels and accepted aliases.

This module imports nothing, so the run-plan layer can normalise a
spec's network without loading the hardware and fabric models.
:mod:`repro.networks` re-exports both names.
"""

__all__ = ["NETWORKS", "canonical_network"]

#: Canonical network names (as used throughout benchmarks and figures)
#: mapped to the paper's series labels, in the paper's order.
NETWORKS = {
    "infiniband": "IBA",
    "myrinet": "Myri",
    "quadrics": "QSN",
}

_ALIASES = {
    "iba": "infiniband",
    "ib": "infiniband",
    "infiniband": "infiniband",
    "myri": "myrinet",
    "gm": "myrinet",
    "myrinet": "myrinet",
    "qsn": "quadrics",
    "elan": "quadrics",
    "quadrics": "quadrics",
    # the paper's MPI implementations double as fabric aliases
    "mvapich": "infiniband",
    "mpich-gm": "myrinet",
    "mpich-quadrics": "quadrics",
}


def canonical_network(name: str) -> str:
    """Resolve a network alias to its canonical name."""
    try:
        return _ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown network {name!r}; know {sorted(set(_ALIASES))}") from None
