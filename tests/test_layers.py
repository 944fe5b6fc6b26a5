"""One layer graph: module-level imports follow one declared order.

The simulation stack runs, lowest first, ``core`` < ``hardware`` <
``networks`` < ``mpi`` < {``microbench``, ``apps``, ``analysis``} <
``experiments`` < the CLI (``__main__``); a module may import its own
layer and any lower rank, so the layers that share a rank stay
independent of each other.  Beside the stack sit the services: a
service imports only ``core`` and the services named for it, and a
stack layer may import a service only from the rank given in
``SERVICES``.  Every other edge is allowed by name in ``ALLOWED``, with
its reason, and an allowance nothing uses any more fails the test too.

Imports inside functions are deliberate lazy edges and are not checked;
imports under ``if TYPE_CHECKING:`` never run and are skipped.
"""

from __future__ import annotations

import ast
import os

import repro

SRC = os.path.dirname(os.path.abspath(repro.__file__))

#: the simulation stack: layer -> rank (a layer imports lower ranks)
STACK = {
    "core": 0,
    "hardware": 1,
    "networks": 2,
    "mpi": 3,
    "microbench": 4,
    "apps": 4,
    "analysis": 4,
    "experiments": 5,
    "__main__": 6,
}

#: services beside the stack: layer -> (services it may import, lowest
#: stack rank that may import it)
SERVICES = {
    "obs": ((), STACK["experiments"]),
    "faults": ((), STACK["networks"]),
    "series": (("obs",), STACK["microbench"]),
    "runtime": (("obs",), STACK["experiments"]),
    "profiling": (("obs",), STACK["experiments"]),
}

#: the edges outside the rules above, each with its reason
ALLOWED = {
    ("repro.apps.runner", "repro.runtime.spec"):
        "run_app describes its run as a RunSpec so the run cache serves it",
    ("repro.apps.runner", "repro.profiling.recorder"):
        "an app result carries the Recorder its tables are computed from",
    ("repro.mpi.world", "repro.obs.collector"):
        "a world reports its metrics, wall time and timeline to its spec's "
        "collector",
    ("repro.mpi.world", "repro.profiling.recorder"):
        "a world records every MPI call into its Recorder",
}


def _module_name(path):
    rel = os.path.relpath(path, os.path.dirname(SRC))[:-len(".py")]
    parts = rel.split(os.sep)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_type_checking(node):
    return isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)


def _module_level_imports(tree):
    """Imported ``repro`` modules, outside function and class bodies."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if _is_type_checking(node):
            continue
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "repro":   # from repro import runtime
                yield from (f"repro.{a.name}" for a in node.names)
            else:
                yield node.module
        elif isinstance(node, (ast.If, ast.Try, ast.With)):
            todo.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            todo.extend(node.body)


def _edges():
    for dirpath, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), path)
            src = _module_name(path)
            for dst in _module_level_imports(tree):
                if dst.startswith("repro.") and dst != src:
                    yield src, dst


def _layer(module):
    return module.split(".")[1]


def _fits(src_layer, dst_layer):
    if src_layer == dst_layer or dst_layer == "core":
        return True
    if src_layer in SERVICES:
        return dst_layer in SERVICES[src_layer][0]
    if dst_layer in SERVICES:
        return STACK[src_layer] >= SERVICES[dst_layer][1]
    return STACK[src_layer] > STACK[dst_layer]


def test_every_layer_is_declared():
    layers = {_layer(module) for edge in _edges() for module in edge}
    assert not layers - set(STACK) - set(SERVICES)


def test_imports_follow_the_layer_order():
    bad = sorted((src, dst) for src, dst in set(_edges())
                 if not _fits(_layer(src), _layer(dst)) and (src, dst) not in ALLOWED)
    assert not bad, "imports against the layer order: " + ", ".join(
        f"{src} -> {dst}" for src, dst in bad)


def test_every_allowance_is_still_used():
    edges = set(_edges())
    stale = sorted(edge for edge in ALLOWED if edge not in edges)
    assert not stale, f"allowed edges nothing imports any more: {stale}"
    # and none of them would pass the rules on its own
    assert not [edge for edge in ALLOWED if _fits(*map(_layer, edge))]
