"""The benchmark's workloads, each a function of (seed, seconds, tracer).

``BENCHMARK.json`` gates three of them; ``paper-d8-object`` and
``live-open`` run the same way but are not gated.  Every workload sets
up several times (``setup_s`` is their median), warms its path once,
then measures for ``seconds`` of wall time.  Every timed block runs
between two reference loops (:class:`HostClock`) and is reported scaled
to a host of fixed speed, so that the shared host's drift cancels out
of the end-to-end metrics.  A traced run measures the first half untraced and the second half with the layer
functions wrapped (:mod:`tracing`), so the per-layer numbers and the
tracing overhead come from one process.  Correctness oracles and
digests run outside every timed region; each failed check counts
against ``failed``.  :func:`end_to_end` and :func:`per_layer` turn an
:class:`Outcome` into the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import asyncio
import bisect
import collections
import contextlib
import resource
import time
import tracemalloc
from dataclasses import dataclass, field
from functools import partial
from statistics import fmean, median
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dht import kernel as kernel_mod
from repro.dht.bulkbuild import build_columns
from repro.dht.routing import LookupEngine
from repro.experiments.registry import build_complete_network
from repro.net import codec, server
from repro.net.client import ClusterClient, ClusterError
from repro.net.cluster import LocalCluster
from repro.net.loadgen import (
    expected_results,
    make_open_operations,
    make_operations,
    results_digest,
)
from repro.sim import parallel
from repro.sim.workload import lookup_workload
from repro.util.rng import shard_rng
from repro.util.stats import percentile

from oracle import brute_force_owners
from tracing import TAG, Tracer

KERNEL_NODES = 10**6
#: rows per kernel call; today's fig-scale batch
KERNEL_BATCH = 512
KERNEL_SETUPS = 5
ORACLE_SAMPLE = 64

PAPER_DIMENSION = 8
#: lookups per Fig. 5 cell
PAPER_LOOKUPS = 5000

LIVE_DIMENSION = 6
LIVE_SERVERS = 2
#: set-ups before the run; live-closed adds one after every round so
#: that ``setup_s`` samples the host over the whole run
LIVE_SETUPS = 10
#: closed-loop callers sharing one client: one connection per server
CALLERS = 2
#: ops per timed block (~0.2 s); both callers drain between blocks
CHUNK_OPS = 100
#: one closed-loop round: lookups, then PUTs, then a GET per PUT
ROUND_LOOKUPS = 400
ROUND_PUTS = 200
#: offered open-loop rate: ~20% of live-closed capacity on a 2-CPU host
OPEN_RATE = 100.0
OPEN_KEYS = 64
#: event-loop lag probe period
PROBE_S = 0.005
#: iterations of the host-speed reference loop (4-8 ms on a 2-CPU Xeon VM)
REF_LOOPS = 50_000
#: the reference loop's time on the host every timed value is scaled to
REF_NOMINAL_S = 0.005
#: reference loops this close (s) to a block's midpoint set its scale
REF_WINDOW_S = 1.0


def reference(loops: Optional[int] = None) -> float:
    """Wall time of a fixed pure-Python loop (``REF_LOOPS`` iterations
    by default): the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS if loops is None else loops):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


@dataclass
class Timing:
    """One timed block: its start and raw wall time, the index of the
    reference loop run just before it, and its scale, set by
    :meth:`HostClock.settle`."""

    start: float = 0.0
    raw: float = 0.0
    ref: int = 0
    scale: float = 1.0

    @property
    def scaled(self) -> float:
        return self.raw * self.scale


class HostClock:
    """Times work in units of a host of fixed speed.

    A shared host's speed drifts by up to 2x over tens of seconds, and
    the drift slows every instruction alike (process CPU time drifts
    with wall time).  So every timed block runs between two
    :func:`reference` loops, and :meth:`settle` multiplies its wall time
    by ``REF_NOMINAL_S`` over the mean reference loop near it: the time
    the block would take on a host where the loop takes
    ``REF_NOMINAL_S``.  A change to the program moves the block but not
    the loop, so it moves the scaled time in full.
    """

    def __init__(self) -> None:
        #: (midpoint, seconds) of every reference loop, in time order
        self.refs: List[Tuple[float, float]] = []
        self.timings: List[Timing] = []

    def _reference(self) -> None:
        start = time.perf_counter()
        took = reference()
        self.refs.append((start + took / 2, took))

    @contextlib.contextmanager
    def timed(self):
        """Yields a :class:`Timing` whose ``raw`` is set when the block
        ends."""
        timing = Timing(ref=len(self.refs))
        self._reference()
        timing.start = time.perf_counter()
        yield timing
        timing.raw = time.perf_counter() - timing.start
        self._reference()
        self.timings.append(timing)

    def settle(self) -> None:
        """Scale every block by the mean of the reference loops within
        ``REF_WINDOW_S`` of its midpoint, its own two always included.
        One 5-ms loop catches the host in one of its states; the mean
        over a window matches what a longer block averages over."""
        midpoints = [mid for mid, _ in self.refs]
        for timing in self.timings:
            mid = timing.start + timing.raw / 2
            lo = min(timing.ref, bisect.bisect_left(midpoints, mid - REF_WINDOW_S))
            hi = max(timing.ref + 2,
                     bisect.bisect_right(midpoints, mid + REF_WINDOW_S))
            timing.scale = REF_NOMINAL_S / fmean(
                took for _, took in self.refs[lo:hi])


@dataclass
class Phase:
    """One timed phase: its timed blocks, each with its operation count
    and raw per-op latencies, and the wall and CPU time it took."""

    blocks: List[tuple] = field(default_factory=list)
    cpu_s: float = 0.0
    wall_s: float = 0.0

    def add(self, timing: Timing, ops: int,
            latencies_ms: Optional[List[float]] = None) -> None:
        """One timed block of ``ops`` operations.  ``latencies_ms`` are
        the raw per-op latencies; by default, one op-sized call whose
        latency is the block's."""
        self.blocks.append((timing, ops, latencies_ms))

    @property
    def ops(self) -> int:
        return sum(ops for _, ops, _ in self.blocks)

    @property
    def raw_elapsed(self) -> float:
        return sum(timing.raw for timing, _, _ in self.blocks)

    @property
    def ops_per_s(self) -> float:
        """Median scaled throughput over the timed blocks."""
        return median(ops / timing.scaled for timing, ops, _ in self.blocks)

    @property
    def latencies_ms(self) -> List[float]:
        return [ms * timing.scale for timing, _, raw in self.blocks
                for ms in ([timing.raw * 1e3] if raw is None else raw)]

    def latency(self, q: float) -> float:
        return percentile(self.latencies_ms, q)


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    setup_s: List[Timing] = field(default_factory=list)
    phases: List[Phase] = field(default_factory=list)
    clock: HostClock = field(default_factory=HostClock)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: per-layer values the workload measured itself (traced runs)
    layers: Dict[str, float] = field(default_factory=dict)

    def fail(self, count: int, message: str) -> None:
        if count:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(message)


def end_to_end(outcome: Outcome) -> Dict[str, float]:
    phase = outcome.phases[0]
    return {
        "setup_s": median(timing.scaled for timing in outcome.setup_s),
        "ops_per_s": phase.ops_per_s,
        "latency_p50_ms": phase.latency(50.0),
        "latency_p99_ms": phase.latency(99.0),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(outcome: Outcome, tracer: Tracer) -> Dict[str, float]:
    """Span-derived layer metrics, then the workload's own, then 0 for
    every layer the workload does not exercise."""
    ms = lambda name: [1e3 * d for d in tracer.durations(name)]  # noqa: E731
    us = lambda name: [1e6 * d for d in tracer.durations(name)]  # noqa: E731
    batch, rtt = ms("kernel.batch"), ms("client.rpc")
    untraced, traced = outcome.phases
    values = {
        "kernel.compiles": len(tracer.durations("kernel.compile_objects")),
        "kernel.compile_ms": _mean(ms("kernel.compile_objects")),
        "kernel.batch_ms.p50": percentile(batch, 50.0),
        "kernel.batch_ms.max": max(batch, default=0.0),
        "kernel.batch_ms.n": len(batch),
        "engine.lookup_us": _mean(us("engine.lookup")),
        "engine.lookup_us.n": len(tracer.durations("engine.lookup")),
        "snapshot.pack_ms": _mean(ms("snapshot.pack")),
        "snapshot.unpack_ms": _mean(ms("snapshot.unpack")),
        "parallel.merge_ms": _mean(ms("parallel.merge")),
        "codec.encode_us": _mean(us("codec.encode")),
        "codec.decode_us": _mean(us("codec.decode")),
        "codec.frames": len(tracer.durations("codec.encode")),
        "server.route_us": _mean(us("server.route")),
        "server.route_us.n": len(tracer.durations("server.route")),
        "server.state_us": _mean(us("server.state")),
        "server.state_us.n": len(tracer.durations("server.state")),
        "client.rtt_ms.p50": percentile(rtt, 50.0),
        "client.rtt_ms.p99": percentile(rtt, 99.0),
        "client.rtt_ms.n": len(rtt),
        "loop.busy_frac": traced.cpu_s / traced.wall_s,
        "trace.overhead.ops_per_s":
            1.0 - traced.ops_per_s / untraced.ops_per_s,
        "trace.overhead.latency_p50_ms":
            traced.latency(50.0) / untraced.latency(50.0) - 1.0,
    }
    values.update(outcome.layers)
    return values


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def phase_plan(seconds: float, tracer: Optional[Tracer]):
    """(seconds, traced) per phase: one untraced phase, or an untraced
    and a traced half."""
    if tracer is None:
        return [(seconds, False)]
    return [(seconds / 2, False), (seconds / 2, True)]


class _Meter:
    """Wall and process-CPU time of one phase."""

    def __enter__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()
        return self

    def running(self) -> float:
        """Wall seconds since the phase began."""
        return time.perf_counter() - self.wall

    def __exit__(self, *exc_info):
        self.wall = time.perf_counter() - self.wall
        self.cpu = time.process_time() - self.cpu

    def fill(self, phase: Phase) -> Phase:
        phase.wall_s, phase.cpu_s = self.wall, self.cpu
        return phase


# ----------------------------------------------------------------------
# kernel-1m
# ----------------------------------------------------------------------


def kernel_1m(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    out = Outcome()
    build_s, compile_s = [], []
    for _ in range(KERNEL_SETUPS):
        columns = kernel = None  # one overlay resident at a time
        with out.clock.timed() as setup:
            t0 = time.perf_counter()
            columns = build_columns("cycloid", KERNEL_NODES, seed=seed, sampler="fast")
            t1 = time.perf_counter()
            kernel = kernel_mod.kernel_from_columns(columns)
            t2 = time.perf_counter()
        build_s.append(t1 - t0)
        compile_s.append(t2 - t1)
        out.setup_s.append(setup)

    rng = np.random.default_rng([seed, 1])
    keys, finals = [], []

    def batch():
        sources = rng.integers(0, KERNEL_NODES, size=KERNEL_BATCH)
        key_lin = rng.integers(0, columns.space, size=KERNEL_BATCH)
        return sources, key_lin

    def check(key_lin, result) -> None:
        out.attempted += KERNEL_BATCH
        out.fail(int((~result["success"]).sum()), "kernel lookups unsuccessful")
        keys.append(key_lin)
        finals.append(result["final"])

    warm = batch()
    check(warm[1], kernel.run_linear(*warm))
    hops_sum = rows = rows_waves = 0
    for seconds_, traced in phase_plan(seconds, tracer):
        phase = Phase()
        with _Meter() as meter:
            while meter.running() < seconds_:
                sources, key_lin = batch()
                with out.clock.timed() as call, \
                        _span(tracer if traced else None, "kernel.batch"):
                    result = kernel.run_linear(sources, key_lin)
                phase.add(call, KERNEL_BATCH)
                if traced:
                    hops = result["hops"]
                    hops_sum += int(hops.sum())
                    rows += KERNEL_BATCH
                    rows_waves += KERNEL_BATCH * int(hops.max())
                check(key_lin, result)
        out.phases.append(meter.fill(phase))
    out.peak_rss_mb = peak_rss_mb()

    if tracer is not None:
        sources, key_lin = batch()
        out.layers.update({
            "bulkbuild.build_s": median(build_s),
            "bulkbuild.column_mb": columns.column_bytes() / 2**20,
            "kernel.compile_s": median(compile_s),
            "kernel.batch_alloc_mb": _alloc_peak_mb(
                lambda: kernel.run_linear(sources, key_lin)),
            "kernel.row_util": hops_sum / rows_waves,
            "kernel.hops_mean": hops_sum / rows,
        })

    # The oracle: a seeded sample of every lookup made, owner by brute force.
    key_all = np.concatenate(keys)
    final_all = np.concatenate(finals)
    pick = np.random.default_rng([seed, 2]).choice(
        key_all.size, size=ORACLE_SAMPLE, replace=False)
    owners = brute_force_owners(columns.lin, columns.dimension, key_all[pick])
    out.fail(int((owners != final_all[pick]).sum()),
             "kernel final differs from the brute-force owner")
    return out


def _span(tracer: Optional[Tracer], name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _alloc_peak_mb(call: Callable[[], object]) -> float:
    """tracemalloc peak above the starting level during ``call``."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / 2**20


# ----------------------------------------------------------------------
# paper-d8 (columnar backend) and paper-d8-object (object backend)
# ----------------------------------------------------------------------


def _prebuilt(network):
    return network, None


def _patch_paper(tracer: Tracer) -> None:
    counts = tracer.counts

    def kernel_hops(records, _args):
        counts["kernel.rows"] += len(records)
        hops = [record.hops for record in records]
        counts["kernel.hops"] += sum(hops)
        counts["kernel.rows_waves"] += len(hops) * max(hops)

    def engine_hops(record, _args):
        counts["engine.hops"] += record.hops

    tracer.patch(parallel, "execute_shard", "parallel.shard")
    tracer.patch(parallel, "merge_shards", "parallel.merge")
    tracer.patch(parallel, "pack_network", "snapshot.pack")
    tracer.patch(parallel, "unpack_network", "snapshot.unpack")
    tracer.patch(kernel_mod.CycloidKernel, "__init__", "kernel.compile_objects")
    tracer.patch(kernel_mod.CycloidKernel, "run", "kernel.batch", kernel_hops)
    tracer.patch(LookupEngine, "run", "engine.lookup", engine_hops)


def paper_d8(seed: int, seconds: float, tracer: Optional[Tracer],
             backend: str = "columnar") -> Outcome:
    out = Outcome()

    def cell(which: str, traced: bool = False):
        """One Fig. 5 cell on a freshly built overlay; the build is
        set-up, only the sharded run is timed."""
        with out.clock.timed() as build:
            setup = partial(_prebuilt,
                            build_complete_network("cycloid", PAPER_DIMENSION))
        out.setup_s.append(build)
        with out.clock.timed() as call, \
                _span(tracer if traced else None, "parallel.run"):
            merged = parallel.run_sharded_lookups(
                setup, PAPER_LOOKUPS, seed, workers=1, backend=which)
        return merged, call

    other = "object" if backend == "columnar" else "columnar"
    reference = cell(other)[0].stats.digest()

    def check(merged) -> None:
        out.attempted += PAPER_LOOKUPS
        out.fail(merged.stats.failures, f"{backend} lookups unsuccessful")
        if merged.stats.digest() != reference:
            out.fail(PAPER_LOOKUPS, f"{backend} digest differs from {other}")

    check(cell(backend)[0])  # warm-up
    for seconds_, traced in phase_plan(seconds, tracer):
        phase = Phase()
        if traced:
            _patch_paper(tracer)
        try:
            with _Meter() as meter:
                while meter.running() < seconds_:
                    merged, call = cell(backend, traced)
                    phase.add(call, PAPER_LOOKUPS)
                    check(merged)
        finally:
            if traced:
                tracer.restore()
        out.phases.append(meter.fill(phase))
    out.peak_rss_mb = peak_rss_mb()

    if tracer is not None:
        counts = tracer.counts
        runs = len(tracer.durations("parallel.run"))
        out.layers.update({
            "snapshot.unpacks": len(tracer.durations("snapshot.unpack")) / runs,
            "parallel.shards": len(tracer.durations("parallel.shard")) / runs,
            "parallel.overhead_ms": 1e3 * fmean(
                tracer.self_times("parallel.run", "parallel.shard")),
        })
        if backend == "object":
            lookups = len(tracer.durations("engine.lookup"))
            out.layers.update({
                "engine.hops_per_s": counts["engine.hops"] / tracer.busy("engine.lookup"),
                "engine.hops_mean": counts["engine.hops"] / lookups,
            })
        else:
            network = build_complete_network("cycloid", PAPER_DIMENSION)
            pairs = list(lookup_workload(network, parallel.DEFAULT_SHARD_SIZE,
                                         shard_rng(seed, 0)))
            sources = [source for source, _ in pairs]
            key_ids = [network.key_id(key) for _, key in pairs]
            compiled = kernel_mod.CycloidKernel(network)
            out.layers.update({
                "kernel.batch_alloc_mb": _alloc_peak_mb(
                    lambda: compiled.run(sources, key_ids)),
                "kernel.row_util": counts["kernel.hops"] / counts["kernel.rows_waves"],
                "kernel.hops_mean": counts["kernel.hops"] / counts["kernel.rows"],
            })
    return out


def paper_d8_object(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    return paper_d8(seed, seconds, tracer, backend="object")


# ----------------------------------------------------------------------
# live-closed and live-open
# ----------------------------------------------------------------------


async def _send(client: ClusterClient, op: Dict[str, object], source: str):
    if op["op"] == "lookup":
        return await client.lookup(op["key"], source, lookup_id=op["index"])
    if op["op"] == "put":
        return await client.put(op["key"], op["value"], source)
    return await client.get(op["key"], source)


def _patch_live(tracer: Tracer, network) -> None:
    counts = tracer.counts

    def decided(result, _args):
        if result[0].node is not None:
            counts["route.hops"] += 1

    def encoded(frame: bytes, args):
        counts["codec.bytes"] += len(frame)
        counts["frames." + codec.MessageType(args[0]).name] += 1

    tracer.patch(server, "step_route", "server.route", decided)
    tracer.patch(codec, "encode_frame", "codec.encode", encoded)
    tracer.patch(codec, "_decode_payload", "codec.decode")
    tracer.patch(network, "pack_route_state", "server.state")
    tracer.patch(network, "unpack_route_state", "server.state")
    tracer.patch(server.NodeService, "_handle_frame", "server.frame",
                 is_async=True, gauge="server.inflight")
    tracer.patch(server.NodeService, "_store_at", "server.replica_push",
                 is_async=True)
    tracer.patch(ClusterClient, "_request", "client.rpc", is_async=True)


async def _probe_lag(lags: List[float]) -> None:
    while True:
        t0 = time.perf_counter()
        await asyncio.sleep(PROBE_S)
        lags.append((time.perf_counter() - t0 - PROBE_S) * 1e3)


async def _boot(ctx):
    """Build and start one cluster; its build + boot time is a set-up
    sample."""
    out: Outcome = ctx["out"]
    with out.clock.timed() as setup:
        network = build_complete_network("cycloid", LIVE_DIMENSION)
        t1 = time.perf_counter()
        cluster = LocalCluster(network, servers=LIVE_SERVERS,
                               replicas=ctx["replicas"])
        await cluster.start()
        t2 = time.perf_counter()
    ctx["boots"].append(t2 - t1)
    out.setup_s.append(setup)
    return network, cluster


async def _setup_sample(ctx) -> None:
    network, cluster = await _boot(ctx)
    await cluster.stop()


async def _live(seed: int, seconds: float, tracer: Optional[Tracer],
                replicas: int, prepare, measure, verify) -> Outcome:
    """Boot ``LIVE_SETUPS`` clusters and serve from the last one.
    Per phase, ``prepare(ctx, seconds)`` runs untraced and untimed, then
    ``measure(ctx, prepared) -> (Phase, completed ops by kind)``;
    ``verify(ctx)`` checks every phase's results at the end."""
    out = Outcome()
    ctx = {"seed": seed, "out": out, "replicas": replicas, "boots": [],
           "late_ms": []}
    cluster: Optional[LocalCluster] = None
    try:
        for _ in range(LIVE_SETUPS - 1):
            await _setup_sample(ctx)
        network, cluster = await _boot(ctx)
        client = ClusterClient(cluster.directory)
        ctx.update(client=client, network=network)
        try:
            for seconds_, traced in phase_plan(seconds, tracer):
                prepared = await prepare(ctx, seconds_)
                ctx["counts"] = tracer.counts if traced else None
                if not traced:
                    phase, _ = await measure(ctx, prepared)
                    out.phases.append(phase)
                    continue
                services = cluster.services
                before = (client.retries, sum(s.read_repairs for s in services))
                lags: List[float] = []
                _patch_live(tracer, network)
                probe = asyncio.create_task(_probe_lag(lags))
                try:
                    phase, kinds = await measure(ctx, prepared)
                finally:
                    probe.cancel()
                    try:
                        await probe
                    except asyncio.CancelledError:
                        pass
                    tracer.restore()
                out.phases.append(phase)
                after = (client.retries, sum(s.read_repairs for s in services))
                retries, repairs = (b - a for a, b in zip(before, after))
                out.layers.update(_live_layers(
                    tracer, phase, kinds, lags, retries, repairs))
                out.layers["cluster.boot_s"] = median(ctx["boots"])
                out.layers["driver.late_ms.p99"] = percentile(ctx["late_ms"], 99.0)
                out.layers["driver.late_ms.n"] = len(ctx["late_ms"])
            out.peak_rss_mb = peak_rss_mb()
            await verify(ctx)
        finally:
            await client.close()
    finally:
        if cluster is not None:
            await cluster.stop()
    return out


def _live_layers(tracer: Tracer, phase: Phase, kinds: Dict[str, int],
                 lags: List[float], retries: int,
                 repairs: int) -> Dict[str, float]:
    """Live per-layer metrics.  Busy time is summed over synchronous
    calls only; the rest of the process CPU is ``unattributed``."""
    counts = tracer.counts
    ops = phase.ops
    route = tracer.busy("server.route")
    codec_busy = tracer.busy("codec.encode", "codec.decode")
    state = tracer.busy("server.state")
    cpu = phase.cpu_s
    return {
        "engine.lookup_us": 1e6 * route / ops,
        "engine.lookup_us.n": ops,
        "engine.hops_per_s": counts["route.hops"] / route,
        "engine.hops_mean": counts["op.hops"] / ops,
        "codec.frames_per_op": len(tracer.durations("codec.encode")) / ops,
        "codec.bytes_per_op": counts["codec.bytes"] / ops,
        "server.frames_per_op.step": counts["frames.STEP"] / ops,
        "server.frames_per_op.replicate": counts["frames.REPLICATE"] / ops,
        "server.frames_per_op.fetch": counts["frames.FETCH"] / ops,
        "server.inflight_max": counts["server.inflight.max"],
        "server.replica_pushes_per_put":
            len(tracer.durations("server.replica_push")) / max(1, kinds["put"]),
        "server.read_repairs": repairs,
        "client.attempts_per_op":
            (len(tracer.durations("client.rpc")) + retries) / ops,
        "client.retries": retries,
        "loop.unattributed_share": 1.0 - (route + codec_busy + state) / cpu,
        "loop.lag_ms.p99": percentile(lags, 99.0),
        "loop.lag_ms.n": len(lags),
        "cpu_share.route": route / cpu,
        "cpu_share.codec": codec_busy / cpu,
        "cpu_share.state": state / cpu,
    }


def _canonical(result: Dict[str, object]) -> tuple:
    return (result["index"], result["op"], result["key"], result["source"],
            tuple(result["path"]), result["hops"], result["timeouts"],
            bool(result["success"]))


async def _closed_prepare(ctx, seconds: float) -> float:
    return seconds


async def _closed_measure(ctx, seconds: float):
    """Closed-loop rounds until ``seconds`` of round time have passed.
    A round is one ``make_operations`` list: lookups and PUTs, then a
    GET per PUT, so every GET observes its PUT.  Untraced, each round is
    verified and followed by a set-up sample right away."""
    out: Outcome = ctx["out"]
    client: ClusterClient = ctx["client"]
    counts = ctx["counts"]
    kinds: Dict[str, int] = collections.Counter()
    phase = Phase()
    pending: List[tuple] = []

    async def caller(queue, results, latencies) -> None:
        while queue:
            op = queue.popleft()
            TAG.set(op["index"])
            out.attempted += 1
            started = time.perf_counter()
            try:
                reply = await _send(client, op, op["source"])
            except ClusterError as exc:
                out.fail(1, f"op {op['index']} ({op['op']}): {exc}")
                continue
            latencies.append((time.perf_counter() - started) * 1e3)
            kinds[op["op"]] += 1
            ok = bool(reply.get("success"))
            if op["op"] == "get":
                ok = ok and reply.get("found") and reply.get("value") == op["expect"]
            if not ok:
                out.fail(1, f"op {op['index']} ({op['op']}) unsuccessful")
            results.append({
                "index": op["index"], "op": op["op"], "key": op["key"],
                "source": op["source"], "path": list(reply.get("path", [])),
                "hops": int(reply.get("hops", -1)),
                "timeouts": int(reply.get("timeouts", -1)),
                "success": bool(reply.get("success")),
            })
            if counts is not None:
                counts["op.hops"] += int(reply.get("hops", 0))

    with _Meter() as meter:
        while meter.running() < seconds:
            ctx["rounds"] = ctx.get("rounds", 0) + 1
            ops = make_operations(ctx["network"], ROUND_LOOKUPS, ROUND_PUTS,
                                  seed=ctx["seed"] * 7919 + ctx["rounds"])
            results: List[Dict[str, object]] = []
            # GETs only after every PUT; a chunk at a time, so that the
            # reference loops beside each chunk follow the host closely.
            ordered = ([op for op in ops if op["op"] != "get"]
                       + [op for op in ops if op["op"] == "get"])
            for first in range(0, len(ordered), CHUNK_OPS):
                queue = collections.deque(ordered[first:first + CHUNK_OPS])
                latencies: List[float] = []
                with out.clock.timed() as chunk:
                    await asyncio.gather(*(caller(queue, results, latencies)
                                           for _ in range(CALLERS)))
                phase.add(chunk, len(latencies), latencies)
            if counts is None:
                _closed_verify_round(ctx, ops, results)
                await _setup_sample(ctx)
            else:  # keep the traced phase's CPU and loop lag to the rounds
                pending.append((ops, results))
    for ops, results in pending:
        _closed_verify_round(ctx, ops, results)
    return meter.fill(phase), kinds


def _closed_verify_round(ctx, ops, results) -> None:
    """One round's live routes against the in-memory engine's."""
    reference = ctx.setdefault(
        "reference", build_complete_network("cycloid", LIVE_DIMENSION))
    expected = expected_results(reference, ops)
    if results_digest(results) == results_digest(expected):
        return
    live = {r["index"]: _canonical(r) for r in results}
    wrong = sum(live.get(e["index"]) != _canonical(e) for e in expected)
    ctx["out"].fail(wrong, f"{wrong} live routes differ from the engine's")


async def _no_verify(ctx) -> None:
    return None


def live_closed(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_live(seed, seconds, tracer, 1, _closed_prepare,
                             _closed_measure, _no_verify))


async def drive_open(operations, send):
    """Fire each operation at its scheduled time, whatever earlier ones
    are doing, and time it from that due time (no coordinated omission).

    ``send(op)`` is awaited in its own task.  Returns, per operation,
    ``(op, reply or exception, latency_ms, completed_at)`` in completion
    order, and how late (ms) the driver fired each one.
    """
    start = time.perf_counter()
    done: List[tuple] = []
    late_ms: List[float] = []

    async def fire(op, due) -> None:
        TAG.set(op["index"])
        try:
            reply = await send(op)
        except ClusterError as exc:
            reply = exc
        now = time.perf_counter()
        done.append((op, reply, (now - due) * 1e3, now))

    tasks = []
    for op in operations:
        due = start + op["scheduled"]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        late_ms.append((time.perf_counter() - due) * 1e3)
        tasks.append(asyncio.create_task(fire(op, due)))
    await asyncio.gather(*tasks)
    return done, late_ms


async def _open_prepare(ctx, seconds: float):
    """This phase's schedule, its keys written once beforehand so that
    every GET has a value to find."""
    index = ctx["open_phases"] = ctx.get("open_phases", 0) + 1
    count = max(1, round(OPEN_RATE * seconds))
    ops = make_open_operations(count, ctx["seed"] * 7919 + index, OPEN_RATE,
                               key_universe=OPEN_KEYS)
    tag = f"p{index}-"
    for op in ops:  # keys and values distinct per phase
        op["key"] = tag + op["key"]
        if op["op"] == "put":
            op["value"] = tag + op["value"]
    written = ctx.setdefault("written", collections.defaultdict(set))
    names = ctx.setdefault(
        "names", sorted(str(node.name) for node in ctx["network"].live_nodes()))
    # Written at the offered rate, so the open-loop path is warm too.
    keys = sorted({op["key"] for op in ops})
    initial = [{"index": -1 - i, "op": "put", "key": key, "value": "initial",
                "scheduled": i / OPEN_RATE, "source_pick": 0.0}
               for i, key in enumerate(keys)]
    done, _ = await drive_open(
        initial, lambda op: _send(ctx["client"], op, names[0]))
    for op, reply, _, _ in done:
        if isinstance(reply, Exception) or not reply.get("stored"):
            raise RuntimeError(f"writing the initial value of {op['key']} failed")
        written[op["key"]].add("initial")
    return ops


async def _open_measure(ctx, ops):
    out: Outcome = ctx["out"]
    client: ClusterClient = ctx["client"]
    counts = ctx["counts"]
    names = ctx["names"]
    written = ctx["written"]
    acked = ctx.setdefault("acked", set())
    put_fired: Dict[str, float] = {}

    async def send(op):
        if op["op"] == "put":
            put_fired[op["value"]] = time.perf_counter()
            written[op["key"]].add(op["value"])
        return await _send(client, op, names[int(op["source_pick"] * len(names))])

    kinds: Dict[str, int] = collections.Counter()
    phase = Phase()
    latencies: List[float] = []
    with _Meter() as meter:
        t0 = time.perf_counter()
        done, late_ms = await drive_open(ops, send)
        # Unscaled: at a fixed offered rate, latency is mostly waiting.
        run = Timing(raw=time.perf_counter() - t0)
    for op, reply, latency_ms, finished in done:
        out.attempted += 1
        if isinstance(reply, Exception):
            out.fail(1, f"op {op['index']} ({op['op']}): {reply}")
            continue
        kinds[op["op"]] += 1
        latencies.append(latency_ms)
        if counts is not None:
            counts["op.hops"] += int(reply.get("hops", 0))
        ok = bool(reply.get("success"))
        if op["op"] == "put":
            ok = ok and bool(reply.get("stored"))
            if ok:
                acked.add(op["key"])
        else:
            # A GET may see the initial value or any PUT fired before it
            # completed; values are unique per PUT.
            value = reply.get("value")
            ok = ok and bool(reply.get("found")) and (
                value == "initial"
                or put_fired.get(value, finished + 1.0) <= finished)
        if not ok:
            out.fail(1, f"op {op['index']} ({op['op']}) unsuccessful or stale")
    phase.add(run, len(latencies), latencies)
    ctx["late_ms"] = late_ms
    return meter.fill(phase), kinds


async def _open_verify(ctx) -> None:
    """Read back every acknowledged key once the run is over."""
    out: Outcome = ctx["out"]
    client: ClusterClient = ctx["client"]
    for key in sorted(ctx.get("acked", ())):
        try:
            reply = await client.get(key, ctx["names"][0])
        except ClusterError as exc:
            out.fail(1, f"read-back of {key}: {exc}")
            continue
        if not (reply.get("found") and reply.get("value") in ctx["written"][key]):
            out.fail(1, f"read-back lost acknowledged key {key}")


def live_open(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_live(seed, seconds, tracer, 2, _open_prepare,
                             _open_measure, _open_verify))


WORKLOADS = {
    "kernel-1m": kernel_1m,
    "paper-d8": paper_d8,
    "paper-d8-object": paper_d8_object,
    "live-closed": live_closed,
    "live-open": live_open,
}
