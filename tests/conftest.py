"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc

import pytest

from repro.core.engine import Simulator
from repro.hardware.cluster import Cluster

NETWORKS = ("infiniband", "myrinet", "quadrics")


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def cluster(sim) -> Cluster:
    return Cluster(sim, nnodes=4)


@pytest.fixture(params=NETWORKS)
def network(request) -> str:
    """Parametrize a test over all three interconnects."""
    return request.param


@pytest.fixture(params=[True, False], ids=["caller_on", "caller_off"])
def caller_gc(request):
    """Set the cyclic collector as the caller has it; restore after."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()
