"""The Cycloid kernel's per-batch state is bounded by the walk, not n.

``CycloidKernel._execute`` keeps each row's visited nodes and explored
cycles in wave-major path buffers that start at ``_PATH_WAVES`` waves
and double when a batch walks longer.  These tests pin the two halves
of that contract: the working set of a batch does not grow with the
network, and batches long enough to hit the grow path still agree
bit for bit with the object engine — including on departed networks
whose stale pointers make ``alias`` differ from the identity.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.dht.kernel as kernel_mod
from repro.dht.bulkbuild import build_columns
from repro.dht.kernel import compiler_for, kernel_from_columns
from repro.experiments.registry import build_complete_network
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng

SEED = 42


def _alloc_peak(kernel, sources, keys) -> int:
    """tracemalloc peak above the starting level during one batch."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        kernel.run_linear(sources, keys)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_batch_working_set_does_not_grow_with_n():
    """One 512-row batch allocates about as much at 10^5 nodes as at
    10^4; a ``[batch, n]`` visited bitmap made it grow ~10x."""
    rng = np.random.default_rng(SEED)
    sources = rng.integers(0, 10_000, size=512)
    keys = rng.integers(0, 10_000, size=512)  # below both id spaces
    peaks = []
    for count in (10_000, 100_000):
        kernel = kernel_from_columns(
            build_columns("cycloid", count, seed=SEED, sampler="fast")
        )
        kernel.run_linear(sources, keys)  # warm numpy's caches
        peaks.append(_alloc_peak(kernel, sources, keys))
    assert peaks[1] / peaks[0] < 1.5, peaks


def _departed_and_rejoined():
    """Complete d=8 CCC, half its nodes departed, then as many joins as
    half the departures.  The id space being otherwise full, every
    joiner takes a departed node's id, while stale pointers still
    reach the departed node: ``alias`` is not the identity."""
    network = build_complete_network("cycloid", 8, seed=SEED)
    rng = make_rng(3)
    victims = [n for n in network.live_nodes() if rng.random() < 0.5]
    for node in victims:
        network.leave(node)
    for i in range(len(victims) // 2):
        network.join(f"rejoin-{i}")
    return network


def _sparse_departed():
    """Bulk-built 600 nodes in the d=10 space (sparse, so walks run
    long), then ~20% departed without re-stabilisation."""
    network = build_columns(
        "cycloid", 600, dimension=10, seed=2
    ).to_network()
    rng = make_rng(3)
    for node in [n for n in network.live_nodes() if rng.random() < 0.2]:
        network.leave(node)
    return network


LONG_WALK_CONFIGS = {
    "departed-rejoined": (_departed_and_rejoined, True),
    "sparse-departed": (_sparse_departed, False),
}


@pytest.mark.parametrize("config", sorted(LONG_WALK_CONFIGS))
def test_grow_path_matches_object_engine(config, monkeypatch):
    build, reused_ids = LONG_WALK_CONFIGS[config]
    grows = []
    grow = kernel_mod._grow_waves

    def counting_grow(buffer):
        grows.append(buffer.shape[0])
        return grow(buffer)

    monkeypatch.setattr(kernel_mod, "_grow_waves", counting_grow)

    results = []
    for backend in ("object", "columnar"):
        network = build()
        pairs = list(lookup_workload(network, 400, make_rng(5)))
        records = network.lookup_many(pairs, backend=backend)
        results.append((records, dict(network._query_counts)))
    (obj_records, obj_counts), (col_records, col_counts) = results
    assert obj_records == col_records
    assert obj_counts == col_counts

    # The delivery hop is not a wave, so a walk of more than
    # _PATH_WAVES + 1 hops ran past the initial buffer capacity.
    assert max(r.hops for r in col_records) > kernel_mod._PATH_WAVES + 1
    assert kernel_mod._PATH_WAVES in grows
    assert sum(r.timeouts for r in col_records) > 0
    alias = compiler_for("cycloid")(build()).alias
    identity = np.arange(alias.size)
    assert bool((alias != identity).any()) is reused_ids
