"""Parallel-engine benchmark: serial vs sharded fan-out, bit-checked.

The ``bench`` CLI subcommand times one paper-scale lookup cell per
overlay twice — ``workers=1`` (the serial fallback) and ``workers=N``
(the process pool) — over the *identical* shard plan, then compares the
:meth:`~repro.dht.metrics.LookupStats.digest` of both runs.  A speedup
without a digest match would mean the parallel path changed the
science, so the match is the headline column, the speedup only the
payoff.

Results land in ``BENCH_parallel.json`` so CI can archive them; the
reported ``cpus`` field (`available_workers`) qualifies the speedup —
on a single-CPU box the pool pays fork overhead for no gain, and the
digests still match.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Tuple

from repro.dht.metrics import LookupStats
from repro.experiments.common import run_lookups
from repro.experiments.registry import build_complete_network
from repro.sim.parallel import (
    DEFAULT_SHARD_SIZE,
    available_workers,
    plain_setup,
    run_sharded_lookups,
)
from repro.sim.workload import lookup_workload
from repro.util.rng import make_rng

__all__ = [
    "BenchCell",
    "CloneBenchCell",
    "KernelBenchCell",
    "run_parallel_bench",
    "run_clone_bench",
    "run_kernel_bench",
    "bench_report",
    "compare_to_baseline",
    "DEFAULT_BENCH_PROTOCOLS",
    "KERNEL_BENCH_PROTOCOLS",
]

DEFAULT_BENCH_PROTOCOLS: Tuple[str, ...] = (
    "cycloid",
    "chord",
    "koorde",
    "viceroy",
)

#: Protocols with a fully-columnar compiled kernel (DESIGN §S23) — the
#: only ones where object-vs-columnar timing measures the kernel rather
#: than the fallback.
KERNEL_BENCH_PROTOCOLS: Tuple[str, ...] = ("cycloid", "chord")


@dataclass(frozen=True)
class BenchCell:
    """Serial-vs-parallel timing of one overlay's lookup cell."""

    protocol: str
    serial_seconds: float
    parallel_seconds: float
    digest: str
    digest_match: bool

    @property
    def speedup(self) -> float:
        if self.parallel_seconds == 0:
            return 0.0
        return self.serial_seconds / self.parallel_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "serial_seconds": self.serial_seconds,
            "parallel_seconds": self.parallel_seconds,
            "speedup": self.speedup,
            "digest": self.digest,
            "digest_match": self.digest_match,
        }


def run_parallel_bench(
    protocols: Sequence[str] = DEFAULT_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 2000,
    workers: int = 4,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = 42,
) -> List[BenchCell]:
    """Time ``workers=1`` vs ``workers=N`` on identical shard plans."""
    if workers < 2:
        raise ValueError("bench needs workers >= 2 to compare against serial")
    cells: List[BenchCell] = []
    for protocol in protocols:
        setup = partial(
            plain_setup, build_complete_network, protocol, dimension, seed=seed
        )
        start = time.perf_counter()
        serial = run_sharded_lookups(
            setup, lookups, seed + dimension, workers=1, shard_size=shard_size
        )
        serial_seconds = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_sharded_lookups(
            setup,
            lookups,
            seed + dimension,
            workers=workers,
            shard_size=shard_size,
        )
        parallel_seconds = time.perf_counter() - start
        digest = serial.stats.digest()
        cells.append(
            BenchCell(
                protocol=protocol,
                serial_seconds=serial_seconds,
                parallel_seconds=parallel_seconds,
                digest=digest,
                digest_match=digest == parallel.stats.digest(),
            )
        )
    return cells


@dataclass(frozen=True)
class CloneBenchCell:
    """Build-once vs per-shard-rebuild timing of one overlay (§S21).

    ``build_seconds`` is what every shard used to pay (one full join
    protocol); ``restore_seconds``/``clone_seconds`` are what a shard
    pays now (snapshot restore across the pool, in-process clone on the
    serial path).  ``digest_match`` confirms the cheap path changed
    nothing: the snapshot-sharded digest == the digest of
    :func:`~repro.experiments.common.run_lookups` on a freshly built
    network of the same cell.
    """

    protocol: str
    population: int
    snapshot_bytes: int
    build_seconds: float
    snapshot_seconds: float
    restore_seconds: float
    clone_seconds: float
    digest_match: bool

    @property
    def restore_speedup(self) -> float:
        """How much cheaper a snapshot restore is than a rebuild."""
        if self.restore_seconds == 0:
            return 0.0
        return self.build_seconds / self.restore_seconds

    @property
    def clone_speedup(self) -> float:
        if self.clone_seconds == 0:
            return 0.0
        return self.build_seconds / self.clone_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "population": self.population,
            "snapshot_bytes": self.snapshot_bytes,
            "build_seconds": self.build_seconds,
            "snapshot_seconds": self.snapshot_seconds,
            "restore_seconds": self.restore_seconds,
            "clone_seconds": self.clone_seconds,
            "restore_speedup": self.restore_speedup,
            "clone_speedup": self.clone_speedup,
            "digest_match": self.digest_match,
        }


def run_clone_bench(
    protocols: Sequence[str] = DEFAULT_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 400,
    shard_size: int = DEFAULT_SHARD_SIZE,
    seed: int = 42,
    repeats: int = 5,
) -> List[CloneBenchCell]:
    """Time one full network build against snapshot restore / clone.

    The build is what a per-shard rebuild would pay; the restore/clone
    is what a snapshot-sharded shard pays instead, so
    ``restore_speedup`` is the per-shard saving of DESIGN §S21.  Every
    timing is the best of ``repeats`` runs.  The digest check runs the
    same small cell sharded at ``workers=1`` and through
    :func:`~repro.experiments.common.run_lookups` on a fresh build, and
    compares digests.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cells: List[CloneBenchCell] = []
    for protocol in protocols:
        setup = partial(
            plain_setup, build_complete_network, protocol, dimension, seed=seed
        )
        def best_of(operation):
            # Minimum over ``repeats`` runs: the low-noise estimator for
            # micro-timings (anything above the minimum is interference).
            best = None
            result = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = operation()
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
            return best, result

        build_seconds, (network, _) = best_of(setup)
        snapshot_seconds, snapshot = best_of(network.snapshot)
        restore_seconds, _ = best_of(snapshot.restore)
        clone_seconds, _ = best_of(network.clone)

        via_snapshot = run_sharded_lookups(
            setup,
            lookups,
            seed + dimension,
            workers=1,
            shard_size=shard_size,
        )
        via_build = run_lookups(
            setup()[0], lookups, seed=seed + dimension, shard_size=shard_size
        )
        cells.append(
            CloneBenchCell(
                protocol=protocol,
                population=network.size,
                snapshot_bytes=len(snapshot.payload),
                build_seconds=build_seconds,
                snapshot_seconds=snapshot_seconds,
                restore_seconds=restore_seconds,
                clone_seconds=clone_seconds,
                digest_match=(
                    via_snapshot.stats.digest() == via_build.digest()
                ),
            )
        )
    return cells


@dataclass(frozen=True)
class KernelBenchCell:
    """Object-vs-columnar timing of one overlay's lookup batch (§S23).

    Both backends route the *identical* materialised workload on the
    same network; ``digest_match`` confirms the kernel changed nothing
    before the speedup means anything.  Timings are best-of-``repeats``
    (the low-noise estimator for micro-timings).
    """

    protocol: str
    lookups: int
    object_seconds: float
    columnar_seconds: float
    digest: str
    digest_match: bool

    @property
    def object_lookups_per_s(self) -> float:
        if self.object_seconds == 0:
            return 0.0
        return self.lookups / self.object_seconds

    @property
    def columnar_lookups_per_s(self) -> float:
        if self.columnar_seconds == 0:
            return 0.0
        return self.lookups / self.columnar_seconds

    @property
    def speedup(self) -> float:
        if self.columnar_seconds == 0:
            return 0.0
        return self.object_seconds / self.columnar_seconds

    def as_dict(self) -> Dict[str, object]:
        return {
            "protocol": self.protocol,
            "lookups": self.lookups,
            "object_seconds": self.object_seconds,
            "columnar_seconds": self.columnar_seconds,
            "object_lookups_per_s": self.object_lookups_per_s,
            "columnar_lookups_per_s": self.columnar_lookups_per_s,
            "speedup": self.speedup,
            "digest": self.digest,
            "digest_match": self.digest_match,
        }


def run_kernel_bench(
    protocols: Sequence[str] = KERNEL_BENCH_PROTOCOLS,
    dimension: int = 8,
    lookups: int = 2000,
    seed: int = 42,
    repeats: int = 5,
) -> List[KernelBenchCell]:
    """Time the object engine against the columnar kernel, digest-checked.

    One complete network per protocol, one materialised ``(source,
    key)`` workload, ``repeats`` timed runs per backend (best kept).
    The digests of the two record streams must match bit for bit — a
    fast kernel that drifts is a bug, not a speedup.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cells: List[KernelBenchCell] = []
    for protocol in protocols:
        network = build_complete_network(protocol, dimension, seed=seed)
        pairs = list(
            lookup_workload(network, lookups, make_rng(seed + dimension))
        )

        def best_of(backend: str):
            best = None
            records = None
            for _ in range(repeats):
                start = time.perf_counter()
                result = network.lookup_many(pairs, backend=backend)
                elapsed = time.perf_counter() - start
                if best is None or elapsed < best:
                    best = elapsed
                    records = result
            return best, records

        object_seconds, object_records = best_of("object")
        columnar_seconds, columnar_records = best_of("columnar")

        def digest_of(records) -> str:
            stats = LookupStats()
            stats.extend(records)
            return stats.digest()

        object_digest = digest_of(object_records)
        cells.append(
            KernelBenchCell(
                protocol=protocol,
                lookups=lookups,
                object_seconds=object_seconds,
                columnar_seconds=columnar_seconds,
                digest=object_digest,
                digest_match=object_digest == digest_of(columnar_records),
            )
        )
    return cells


def bench_report(
    cells: Sequence[BenchCell],
    dimension: int,
    lookups: int,
    workers: int,
    shard_size: int,
    seed: int,
    clone_cells: Sequence[CloneBenchCell] = (),
    kernel_cells: Sequence[KernelBenchCell] = (),
) -> Dict[str, object]:
    """The JSON document ``bench`` writes to ``BENCH_parallel.json``.

    ``all_match`` covers every digest comparison in the report: the
    serial-vs-parallel cells, the snapshot-vs-fresh-build clone cells *and*
    the object-vs-columnar kernel cells.
    """
    return {
        "config": {
            "dimension": dimension,
            "lookups": lookups,
            "workers": workers,
            "shard_size": shard_size,
            "seed": seed,
            "cpus": available_workers(),
        },
        "cells": [cell.as_dict() for cell in cells],
        "build_vs_clone": [cell.as_dict() for cell in clone_cells],
        "kernel": [cell.as_dict() for cell in kernel_cells],
        "all_match": all(cell.digest_match for cell in cells)
        and all(cell.digest_match for cell in clone_cells)
        and all(cell.digest_match for cell in kernel_cells),
    }


def compare_to_baseline(
    report: Dict[str, object],
    baseline: object,
    threshold: float = 0.2,
) -> List[str]:
    """Describe this report's kernel throughput against a committed one.

    Returns one line per kernel cell that also exists in ``baseline``
    (the previously committed ``BENCH_parallel.json``), so the bench
    surfaces drift instead of silently overwriting the file.  A cell
    whose columnar lookups/sec fell more than ``threshold`` below the
    baseline gets a ``warning:`` prefix.
    """
    lines: List[str] = []
    if not isinstance(baseline, dict):
        return lines
    committed = {
        cell.get("protocol"): cell
        for cell in baseline.get("kernel", ())
        if isinstance(cell, dict)
    }
    for cell in report.get("kernel", ()):
        base = committed.get(cell["protocol"])
        if base is None:
            continue
        new_rate = float(cell.get("columnar_lookups_per_s") or 0.0)
        old_rate = float(base.get("columnar_lookups_per_s") or 0.0)
        if old_rate <= 0.0:
            continue
        ratio = new_rate / old_rate
        line = (
            f"kernel {cell['protocol']}: columnar {new_rate:,.0f} "
            f"lookups/s vs committed {old_rate:,.0f} ({ratio:.2f}x)"
        )
        if ratio < 1.0 - threshold:
            line = (
                f"warning: {line} — regression exceeds "
                f"{threshold:.0%} of the committed baseline"
            )
        lines.append(line)
    return lines

