"""Command-line interface: regenerate any of the paper's experiments.

Usage::

    python -m repro.cli fig5  [--lookups N] [--dimensions 3 4 5]
    python -m repro.cli fig7
    python -m repro.cli fig8  [--nodes 2000] [--keys 10000 ...]
    python -m repro.cli fig10
    python -m repro.cli fig11 [--lookups N]
    python -m repro.cli fig12 [--rates 0.05 0.4] [--duration SECONDS]
    python -m repro.cli fig13
    python -m repro.cli fig14
    python -m repro.cli fig-crash [--crash-prob 0.1 0.3] [--msg-loss P]
    python -m repro.cli fig-latency [--dimension D] [--latency-seed S]
    python -m repro.cli fig-adversary [--population N] [--fractions F ...]
    python -m repro.cli fig-scale [--counts N ...] [--lookups N]
    python -m repro.cli maint [--lookups N]
    python -m repro.cli table1
    python -m repro.cli bench [--workers N] [--output BENCH_parallel.json]
    python -m repro.cli serve [--protocol P] [--dimension D] [--servers N]
    python -m repro.cli loadgen [--clients N] [--lookups N] [--puts N]
    python -m repro.cli churnstorm [--replicas R] [--kills N] [--rate R]

Each command prints the reproduced table; the heavier sweeps accept
size knobs so a laptop run can be scaled down.  Every command is one
entry of :data:`COMMANDS`: its arguments, the experiment function it
runs, and either the table it prints or its own run function.

``--seed`` may be given before or after the command; ``fig-scale``
(11) and ``fig-adversary`` (23) default to their own seed, every other
command to 42.

Every figure command accepts ``--workers N`` to fan its experiment out
over N processes through :mod:`repro.sim.parallel`; the output is
bit-identical at any worker count (``bench`` measures and checks
exactly that).  The shard-driven commands build each cell's network
once and hand every shard a restored copy (DESIGN §S21).

The pure-lookup commands (fig5/6/7, fig14, fig-crash, fig-latency,
fig-adversary) also accept ``--backend {object,columnar}``: ``object``
(default) routes each lookup hop-at-a-time over the node graph,
``columnar`` executes the whole batch as vectorized numpy sweeps
(DESIGN §S23) — the records are bit-identical, the kernel is just
faster (``bench``'s ``kernel`` section measures by how much).

``--trace PATH`` (on the lookup-driven commands: fig5/6/7, fig10,
fig11, fig12, fig13, fig14, fig-crash, fig-latency, fig-adversary,
maint) streams every routing hop as one JSON line to ``PATH`` — see
:class:`repro.dht.routing.JsonlTraceSink`.  Tracing forces in-process
execution (the sink holds a file handle), overriding ``--workers``.
Which commands take ``--workers``, ``--backend`` and ``--trace`` follows
from whether their experiment function takes ``workers``, ``backend``
and ``observer``.

``serve`` boots a built overlay as a cluster of asyncio node servers
on loopback (DESIGN S22) and writes an attachable spec file;
``loadgen`` drives such a cluster (its own, or one attached via
``--cluster-file``) with concurrent closed-loop clients and writes a
digest-checked ``BENCH_net.json``.  On ``loadgen``, ``--trace``
captures the *live* per-RPC hop stream (the engine's JSONL hop schema
plus ``rpc`` and ``latency_ms`` fields).

``churnstorm`` (DESIGN S24) boots a replicated cluster and batters it:
an open-loop Poisson/Zipf workload fired at scheduled times
(coordinated-omission-free latency) while a seeded churn plan crashes
and rejoins virtual nodes mid-run; afterwards every acknowledged PUT is
read back and the command exits non-zero if any acknowledged key was
lost.  With ``--replicas >= 2`` the acceptance bar is a survival rate
of exactly 1.0.

Every JSON report is written through
:func:`repro.experiments.reports.write_report`, which schema-checks it
first.
"""

from __future__ import annotations

import argparse
import inspect
import sys
from argparse import Namespace
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.analysis import (
    format_bench_table,
    format_clone_bench_table,
    format_kernel_bench_table,
    format_table,
)
from repro.dht.routing import JsonlTraceSink
from repro.experiments import (
    architecture_table,
    bench_report,
    compare_to_baseline,
    run_churn_experiment,
    run_crash_experiment,
    run_key_distribution_experiment,
    run_koorde_sparsity_breakdown,
    run_maintenance_experiment,
    run_mass_departure_experiment,
    run_clone_bench,
    run_kernel_bench,
    run_parallel_bench,
    run_path_length_experiment,
    run_phase_breakdown_experiment,
    run_query_load_experiment,
    run_sparsity_experiment,
)
from repro.experiments.adversary import (
    ADVERSARY_PROTOCOLS,
    DEFAULT_FRACTIONS,
    adversary_report,
    run_adversary_experiment,
)
from repro.experiments.bench import (
    DEFAULT_BENCH_PROTOCOLS,
    KERNEL_BENCH_PROTOCOLS,
)
from repro.experiments.fig_latency import (
    latency_report,
    run_latency_experiment,
)
from repro.experiments.registry import ALL_PROTOCOLS
from repro.experiments.reports import write_report
from repro.experiments.scale import (
    SCALE_COUNTS,
    SCALE_PROTOCOLS,
    run_scale_experiment,
    scale_parity,
    scale_report,
)
from repro.dht.bulkbuild import SAMPLERS
from repro.dht.identifiers import cycloid_space_size
from repro.dht.kernel import BACKENDS
from repro.sim.parallel import DEFAULT_SHARD_SIZE

__all__ = ["main", "build_parser"]

#: ``--seed`` of every command without a default of its own.
DEFAULT_SEED = 42

Sink = Optional[JsonlTraceSink]


class Arg(NamedTuple):
    """One ``add_argument`` call, plus the experiment parameter it feeds."""

    flag: str
    kwargs: Dict[str, object]
    dest: str
    param: str


def _arg(flag: str, to: Optional[str] = None, **kwargs) -> Arg:
    """An argument whose value becomes the runner's ``to`` parameter
    (default: the argument's own dest)."""
    dest = flag.lstrip("-").replace("-", "_")
    return Arg(flag, kwargs, dest, to or dest)


_WORKERS = _arg(
    "--workers",
    type=int,
    default=1,
    metavar="N",
    help="fan the experiment out over N processes; the output is "
    "bit-identical at any worker count (default: 1)",
)

# argparse's choices= produces the same actionable error shape as
# run_sharded_lookups: name the bad value, list the valid choices.
_BACKEND = _arg(
    "--backend",
    choices=BACKENDS,
    default="object",
    help="lookup execution backend: 'object' walks the node graph "
    "hop-at-a-time (default), 'columnar' runs the vectorized numpy "
    "kernel (DESIGN S23); both produce bit-identical records",
)


def _latency_args(default_seed: Optional[int]) -> Tuple[Arg, ...]:
    """The §S25 link-model knobs.

    With ``default_seed=None`` the model is opt-in (``serve`` /
    ``loadgen`` run without one unless ``--latency-seed`` is given);
    ``fig-latency`` defaults it on.
    """
    return (
        _arg(
            "--latency-seed",
            type=int,
            default=default_seed,
            metavar="SEED",
            help="seed of the link delay model"
            + (
                " (default: off — hops take no modeled time)"
                if default_seed is None
                else f" (default: {default_seed})"
            ),
        ),
        _arg("--regions", type=int, default=4, metavar="N"),
        _arg("--intra-ms", type=float, default=5.0, metavar="MS"),
        _arg("--inter-min-ms", type=float, default=40.0, metavar="MS"),
        _arg("--inter-max-ms", type=float, default=160.0, metavar="MS"),
        _arg("--jitter-ms", type=float, default=10.0, metavar="MS"),
    )


def _latency_model(args: Namespace):
    """The LatencyModel the args describe, or None when opted out."""
    if args.latency_seed is None:
        return None
    from repro.sim.latency import LatencyModel

    return LatencyModel(
        seed=args.latency_seed,
        regions=args.regions,
        intra_ms=args.intra_ms,
        inter_min_ms=args.inter_min_ms,
        inter_max_ms=args.inter_max_ms,
        jitter_ms=args.jitter_ms,
    )


def _output(default: str, what: str) -> Arg:
    return _arg(
        "--output",
        metavar="PATH",
        default=default,
        help=f"where to write the {what} (default: {default})",
    )


def _own_seed(default: int) -> Arg:
    # SUPPRESS: when left out, the subcommand must not overwrite a
    # global --seed; _Parser applies ``default`` when neither is given.
    return _arg(
        "--seed",
        type=int,
        default=argparse.SUPPRESS,
        help=f"workload seed; same as the global --seed (default: {default})",
    )


_BUILD_ARGS = (
    _arg("--protocol", choices=ALL_PROTOCOLS, default="cycloid"),
    _arg(
        "--dimension",
        type=int,
        default=4,
        help="Cycloid dimension of the overlay (complete build "
        "unless --nodes is given)",
    ),
    _arg(
        "--nodes",
        type=int,
        default=None,
        metavar="N",
        help="build N randomly-placed nodes instead of a complete overlay",
    ),
    _arg(
        "--servers",
        type=int,
        default=4,
        metavar="N",
        help="how many asyncio node servers share the overlay (default: 4)",
    ),
)


_RETRY_BUDGET = _arg(
    "--retry-budget",
    type=int,
    default=8,
    metavar="N",
    help="attempts after the first, per operation — the engine's "
    "retry_budget semantics (default: 8)",
)

_TIMEOUT = _arg(
    "--timeout",
    type=float,
    default=5.0,
    metavar="SECONDS",
    help="per-RPC reply timeout (default: 5.0)",
)


def _print(text: str) -> None:
    print(text)
    print()


def _takes(runner: Optional[Callable], param: str) -> bool:
    return runner is not None and param in inspect.signature(runner).parameters


def _runner_kwargs(
    command: Command, args: Namespace, sink: Sink
) -> Dict[str, object]:
    """Every runner parameter a parsed option (under its ``to`` name) or
    the trace sink (``observer``) supplies; lists become tuples."""
    values = {**vars(args), "observer": sink}
    for arg in command.arguments:
        values[arg.param] = getattr(args, arg.dest)
    return {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in values.items()
        if _takes(command.runner, name)
    }


def _print_table(command: Command, args: Namespace, points) -> None:
    rows = [command.row(item) for item in command.items(points)]
    title = command.title(args) if callable(command.title) else command.title
    _print(format_table(list(command.headers), rows, title))


def _run_table(command: Command, args: Namespace, sink: Sink) -> int:
    _print_table(
        command, args, command.runner(**_runner_kwargs(command, args, sink))
    )
    return 0


@dataclass(frozen=True)
class Command:
    """One subcommand: its arguments and what it runs.

    ``headers``, ``row`` and ``title`` describe the printed table;
    ``items`` turns the runner's points into one item per row.
    Commands whose shape differs give their own ``run``.  ``--workers``,
    ``--backend`` and ``--trace`` support follow from the ``runner``'s
    signature.
    """

    help: str
    arguments: Tuple[Arg, ...] = ()
    runner: Optional[Callable] = None
    headers: Tuple[str, ...] = ()
    row: Optional[Callable] = None
    title: Union[str, Callable[[Namespace], str]] = ""
    items: Callable = list
    run: Callable[["Command", Namespace, Sink], int] = _run_table
    #: ``--seed`` default when neither position gives one.
    seed: int = DEFAULT_SEED


# ----------------------------------------------------------------------
# commands with their own run function
# ----------------------------------------------------------------------


def _run_latency(command: Command, args: Namespace, sink: Sink) -> int:
    model = _latency_model(args)
    points = command.runner(model=model, **_runner_kwargs(command, args, sink))
    report = latency_report(
        points,
        dimension=args.dimension,
        lookups=args.lookups,
        seed=args.seed,
        model=model,
        workers=args.workers,
    )
    write_report(args.output, report)
    _print_table(command, args, points)
    proximity = report.get("proximity")
    if proximity is not None:
        verdict = "wins" if proximity["proximity_wins"] else "DOES NOT WIN"
        print(
            f"proximity selection {verdict}: "
            f"{proximity['proximity_mean_ms']:.2f} ms vs "
            f"{proximity['random_mean_ms']:.2f} ms random "
            f"({proximity['improvement_ms']:+.2f} ms)"
        )
        print()
    print(f"latency report -> {args.output}", file=sys.stderr)
    return 0


def _run_adversary(command: Command, args: Namespace, sink: Sink) -> int:
    results = command.runner(**_runner_kwargs(command, args, sink))
    report = adversary_report(
        results,
        population=args.population,
        lookups=args.lookups,
        seed=args.seed,
        target_key=args.target_key,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
    )
    write_report(args.output, report)
    _print_table(command, args, results["attacks"])
    hotspot_rows = [
        [
            h.label,
            f"{h.mean_hops:.2f}",
            f"{h.hit_rate:.3f}",
            f"{h.success_rate:.3f}",
            h.digest[:12],
        ]
        for h in results["hotspots"]
    ]
    _print(
        format_table(
            ["overlay/cache", "mean hops", "hit rate", "success", "digest"],
            hotspot_rows,
            f"fig-adversary — Zipf hotspot, s = {report['hotspot']['zipf_s']}",
        )
    )
    print(f"adversary report -> {args.output}", file=sys.stderr)
    return 0


def _run_scale(command: Command, args: Namespace, sink: Sink) -> int:
    points = command.runner(**_runner_kwargs(command, args, sink))
    parity = scale_parity(
        points,
        parity_count=args.parity_count,
        seed=args.seed,
        ladder_counts=tuple(args.ladder),
    )
    report = scale_report(
        points,
        parity,
        lookups=args.lookups,
        seed=args.seed,
        sampler=args.sampler,
    )
    write_report(args.output, report)
    _print_table(command, args, points)
    parity_verdict = "match" if parity["digest_match"] else "MISMATCH"
    speedup_verdict = "ok" if parity["speedup_ok"] else "BELOW BAR"
    print(
        f"parity digest at n={parity['parity_count']}: {parity_verdict}; "
        f"bulk {parity['bulk_build_seconds']:.3f}s vs extrapolated "
        f"object {parity['extrapolated_object_seconds']:.1f}s "
        f"(fit n^{parity['fit_exponent']:.2f}) = "
        f"{parity['speedup']:.0f}x ({speedup_verdict})"
    )
    print()
    print(f"scale report -> {args.output}", file=sys.stderr)
    return 0


def _run_bench(command: Command, args: Namespace, sink: Sink) -> int:
    import json

    cells = run_parallel_bench(
        protocols=tuple(args.protocols),
        dimension=args.dimension,
        lookups=args.lookups,
        workers=args.workers,
        shard_size=args.shard_size,
        seed=args.seed,
    )
    clone_cells = run_clone_bench(
        protocols=tuple(args.protocols),
        dimension=args.dimension,
        shard_size=args.shard_size,
        seed=args.seed,
    )
    kernel_protocols = tuple(
        p for p in args.protocols if p in KERNEL_BENCH_PROTOCOLS
    ) or KERNEL_BENCH_PROTOCOLS
    kernel_cells = run_kernel_bench(
        protocols=kernel_protocols,
        dimension=args.dimension,
        lookups=args.lookups,
        seed=args.seed,
    )
    report = bench_report(
        cells,
        dimension=args.dimension,
        lookups=args.lookups,
        workers=args.workers,
        shard_size=args.shard_size,
        seed=args.seed,
        clone_cells=clone_cells,
        kernel_cells=kernel_cells,
    )
    # Compare against the committed baseline before overwriting it,
    # so throughput drift is surfaced rather than silently replaced.
    try:
        with open(args.output, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
    except (OSError, ValueError):
        baseline = None
    for line in compare_to_baseline(report, baseline):
        print(line, file=sys.stderr)
    write_report(args.output, report)
    _print(format_bench_table(report["cells"], args.workers))
    _print(format_clone_bench_table(report["build_vs_clone"]))
    _print(format_kernel_bench_table(report["kernel"]))
    print(f"bench report -> {args.output}", file=sys.stderr)
    if not report["all_match"]:
        print(
            "error: parallel digest mismatch — serial and parallel "
            "runs disagree",
            file=sys.stderr,
        )
        return 1
    return 0


def _note_partial(report: dict) -> None:
    if not report.get("complete", True):
        print(
            "note: run was interrupted — the report is partial "
            '("complete": false)',
            file=sys.stderr,
        )


def _build_recipe(args: Namespace) -> dict:
    """The deterministic overlay recipe the serve/loadgen args name."""
    recipe: dict = {"protocol": args.protocol, "seed": args.seed}
    if args.nodes is not None:
        recipe["nodes"] = args.nodes
    recipe["dimension"] = args.dimension
    return recipe


def _run_serve(command: Command, args: Namespace, sink: Sink) -> int:
    import asyncio

    from repro.net.cluster import LocalCluster, serve_forever
    from repro.net.loadgen import build_from_recipe

    build = _build_recipe(args)

    latency = _latency_model(args)

    async def _serve() -> None:
        network = build_from_recipe(build)
        cluster = LocalCluster(
            network, servers=args.servers, build=build, latency=latency
        )
        await cluster.start()
        try:
            if args.cluster_file is not None:
                cluster.write_spec(args.cluster_file)
                print(
                    f"cluster spec -> {args.cluster_file}", file=sys.stderr
                )
            print(
                f"serving {len(cluster.directory)} {build['protocol']} "
                f"nodes on {len(cluster.services)} servers:"
            )
            for service in cluster.services:
                host, port = service.address
                print(f"  {host}:{port}  ({len(service.hosted)} nodes)")
            await serve_forever(cluster, args.lifetime)
        finally:
            await cluster.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadgen(command: Command, args: Namespace, sink: Sink) -> int:
    from repro.net.cluster import load_spec
    from repro.net.loadgen import run_loadgen
    from repro.sim.faults import RetryPolicy

    spec = None
    if args.cluster_file is not None:
        try:
            spec = load_spec(args.cluster_file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load cluster spec: {exc}", file=sys.stderr)
            return 2
        build = dict(spec["build"])
    else:
        build = _build_recipe(args)

    report = run_loadgen(
        build,
        servers=args.servers,
        clients=args.clients,
        lookups=args.lookups,
        puts=args.puts,
        seed=args.seed,
        retry=RetryPolicy(budget=args.retry_budget),
        timeout=args.timeout,
        spec=spec,
        trace_path=args.trace,
        latency=_latency_model(args),
    )
    write_report(args.output, report)

    ops = report["ops"]
    latency = report["latency_ms"]
    digest = report["digest"]
    rows = [
        ["ops", ops["total"]],
        ["failures", ops["failures"]],
        ["client retries", ops["retries"]],
        ["throughput (ops/s)", f"{report['throughput_ops_per_s']:.0f}"],
        ["p50 latency (ms)", f"{latency['p50']:.2f}"],
        ["p95 latency (ms)", f"{latency['p95']:.2f}"],
        ["p99 latency (ms)", f"{latency['p99']:.2f}"],
        ["engine parity", "match" if digest["match"] else "MISMATCH"],
    ]
    if "model_ms" in report:
        model = report["model_ms"]
        rows.append(["modeled p50 (ms)", f"{model['p50']:.2f}"])
        rows.append(
            ["model parity (max |diff| ms)", f"{model['max_abs_diff_ms']:.6f}"]
        )
    _print(
        format_table(
            ["metric", "value"],
            rows,
            f"loadgen — {build['protocol']}, {args.clients} clients",
        )
    )
    print(f"net bench report -> {args.output}", file=sys.stderr)
    _note_partial(report)
    if args.trace is not None:
        print(
            f"trace: {report['trace']['lines']} hop events -> {args.trace}",
            file=sys.stderr,
        )
    if ops["failures"] or not digest["match"]:
        print(
            "error: live run had failures or diverged from the "
            "in-memory engine",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_churnstorm(command: Command, args: Namespace, sink: Sink) -> int:
    from repro.net.loadgen import run_churnstorm
    from repro.sim.faults import ChurnPlan, RetryPolicy

    build = _build_recipe(args)
    report = run_churnstorm(
        build,
        servers=args.servers,
        replicas=args.replicas,
        rate=args.rate,
        operations=args.ops,
        churn=ChurnPlan(
            seed=args.seed, kills=args.kills, rejoin=not args.no_rejoin
        ),
        seed=args.seed,
        retry=RetryPolicy(budget=args.retry_budget),
        timeout=args.timeout,
        clients=args.clients,
    )
    write_report(args.output, report)

    ops = report["ops"]
    churn = report["churn"]
    open_loop = report["open_loop"]["latency_ms"]["all"]
    rows = [
        ["ops", ops["total"]],
        ["failures", ops["failures"]],
        ["client retries", ops["retries"]],
        ["crashes / joins", f"{churn['crashes']} / {churn['joins']}"],
        ["acked writes", churn["acked_writes"]],
        ["lost acked keys", churn["lost_acked_keys"]],
        ["survival rate", f"{churn['survival_rate']:.4f}"],
        [
            "under-replication (ms, max)",
            f"{churn['under_replication_ms']['max']:.1f}",
        ],
        ["open-loop p50 (ms)", f"{open_loop['p50']:.2f}"],
        ["open-loop p95 (ms)", f"{open_loop['p95']:.2f}"],
        ["open-loop p99 (ms)", f"{open_loop['p99']:.2f}"],
    ]
    _print(
        format_table(
            ["metric", "value"],
            rows,
            f"churnstorm — {build['protocol']}, replicas={args.replicas}, "
            f"{args.kills} kills",
        )
    )
    print(f"churn bench report -> {args.output}", file=sys.stderr)
    _note_partial(report)
    if churn["lost_acked_keys"]:
        print(
            f"error: {churn['lost_acked_keys']} acknowledged key(s) were "
            "lost to churn — the zero-loss bar failed",
            file=sys.stderr,
        )
        return 1
    return 0


# ----------------------------------------------------------------------
# the command table
# ----------------------------------------------------------------------


def _path_length(figure: int, by_dimension: bool) -> Command:
    versus = "dimension" if by_dimension else "network size"
    return Command(
        help=f"path length vs {versus}",
        arguments=(
            _arg("--lookups", type=int, default=3000),
            _arg(
                "--dimensions", type=int, nargs="+", default=[3, 4, 5, 6, 7, 8]
            ),
        ),
        runner=run_path_length_experiment,
        headers=("d" if by_dimension else "n", "protocol", "mean path"),
        items=lambda points: sorted(
            points, key=lambda p: (p.size, p.protocol)
        ),
        row=lambda p: [
            p.dimension if by_dimension else p.size,
            p.protocol,
            f"{p.mean_path_length:.2f}",
        ],
        title=f"Fig. {figure} — path length vs {versus}",
    )


def _key_distribution(nodes: int) -> Command:
    return Command(
        help=f"key distribution, {nodes} nodes",
        arguments=(
            _arg("--nodes", to="node_count", type=int, default=nodes),
            _arg(
                "--keys",
                to="key_counts",
                type=int,
                nargs="+",
                default=[10_000, 50_000, 100_000],
            ),
        ),
        runner=run_key_distribution_experiment,
        headers=("protocol", "keys", "mean/node", "p1", "p99"),
        row=lambda p: [
            p.protocol,
            p.keys,
            f"{p.summary.mean:.1f}",
            f"{p.summary.p1:.0f}",
            f"{p.summary.p99:.0f}",
        ],
        title=lambda args: (
            f"{args.command} — key distribution ({args.nodes} nodes)"
        ),
    )


COMMANDS: Dict[str, Command] = {
    "fig5": _path_length(5, by_dimension=False),
    "fig6": _path_length(6, by_dimension=True),
    "fig7": Command(
        help="phase breakdown",
        arguments=(
            _arg("--lookups", type=int, default=3000),
            _arg("--dimensions", type=int, nargs="+", default=[4, 6, 8]),
        ),
        runner=run_phase_breakdown_experiment,
        headers=("protocol", "n", "phase", "mean hops", "share"),
        items=lambda points: [
            (p, phase) for p in points for phase in sorted(p.fraction_by_phase)
        ],
        row=lambda item: [
            item[0].protocol,
            item[0].size,
            item[1],
            f"{item[0].mean_hops_by_phase[item[1]]:.2f}",
            f"{item[0].fraction_by_phase[item[1]] * 100:.0f}%",
        ],
        title="Fig. 7 — phase breakdown",
    ),
    "fig8": _key_distribution(2000),
    "fig9": _key_distribution(1000),
    "fig10": Command(
        help="query load balance",
        arguments=(_arg("--lookups-per-node", type=int, default=8),),
        runner=run_query_load_experiment,
        headers=("protocol", "n", "mean load", "p1", "p99"),
        row=lambda p: [
            p.protocol,
            p.size,
            f"{p.summary.mean:.1f}",
            f"{p.summary.p1:.0f}",
            f"{p.summary.p99:.0f}",
        ],
        title="Fig. 10 — query load",
    ),
    "fig11": Command(
        help="massive departures + Table 4",
        arguments=(
            _arg("--lookups", type=int, default=10_000),
            _arg(
                "--probabilities",
                type=float,
                nargs="+",
                default=[0.1, 0.2, 0.3, 0.4, 0.5],
            ),
        ),
        runner=run_mass_departure_experiment,
        headers=("protocol", "p", "mean path", "timeouts", "failures"),
        row=lambda p: [
            p.protocol,
            f"{p.probability:.1f}",
            f"{p.mean_path_length:.2f}",
            p.timeout_row(),
            p.lookup_failures,
        ],
        title="Fig. 11 + Table 4 — massive departures",
    ),
    "fig12": Command(
        help="churn + Table 5",
        arguments=(
            _arg("--rates", type=float, nargs="+", default=[0.05, 0.2, 0.4]),
            _arg("--duration", type=float, default=1000.0),
            _arg("--population", type=int, default=2048),
        ),
        runner=run_churn_experiment,
        headers=("protocol", "R", "mean path", "timeouts", "failures"),
        row=lambda p: [
            p.protocol,
            f"{p.rate:.2f}",
            f"{p.mean_path_length:.2f}",
            p.timeout_row(),
            p.lookup_failures,
        ],
        title="Fig. 12 + Table 5 — churn",
    ),
    "fig13": Command(
        help="sparsity sweep",
        arguments=(_arg("--lookups", type=int, default=5000),),
        runner=run_sparsity_experiment,
        headers=("protocol", "sparsity", "nodes", "mean path"),
        row=lambda p: [
            p.protocol,
            f"{p.sparsity:.1f}",
            p.population,
            f"{p.mean_path_length:.2f}",
        ],
        title="Fig. 13 — sparsity",
    ),
    "fig14": Command(
        help="Koorde sparsity breakdown",
        arguments=(_arg("--lookups", type=int, default=5000),),
        runner=run_koorde_sparsity_breakdown,
        headers=("sparsity", "nodes", "successor share"),
        row=lambda p: [
            f"{1 - p.size / 2048:.1f}",
            p.size,
            f"{p.fraction_by_phase['successor'] * 100:.0f}%",
        ],
        title="Fig. 14 — Koorde breakdown vs sparsity",
    ),
    "fig-crash": Command(
        help="graceful departures vs ungraceful crashes, with retries",
        arguments=(
            _arg("--lookups", type=int, default=2000),
            _arg(
                "--crash-prob",
                to="probabilities",
                type=float,
                nargs="+",
                default=[0.1, 0.3, 0.5],
            ),
            _arg("--msg-loss", to="message_loss", type=float, default=0.05),
            _arg("--retry-budget", type=int, default=8),
            _arg("--dimension", type=int, default=8),
        ),
        runner=run_crash_experiment,
        headers=(
            "protocol",
            "p",
            "mode",
            "success",
            "mean path",
            "timeouts",
            "retries",
            "repairs",
        ),
        row=lambda p: [
            p.protocol,
            f"{p.probability:.1f}",
            p.mode,
            f"{p.success_rate * 100:.1f}%",
            f"{p.mean_path_length:.2f}",
            p.timeout_row(),
            f"{p.mean_retries:.2f}",
            p.route_repairs,
        ],
        title="Crash resilience — graceful vs ungraceful failures",
    ),
    "fig-latency": Command(
        help="end-to-end lookup milliseconds under a seeded link model, "
        "with Cycloid proximity-vs-random leaf selection (DESIGN S25)",
        arguments=(
            _arg("--lookups", type=int, default=2000),
            _arg(
                "--dimension",
                type=int,
                default=8,
                help="Cycloid dimension of the complete overlays (default: "
                "8, i.e. n = 2048)",
            ),
        )
        + _latency_args(default_seed=7)
        + (_output("BENCH_latency.json", "JSON latency report"),),
        runner=run_latency_experiment,
        headers=(
            "overlay", "mean ms", "p50", "p95", "p99", "mean hops", "digest"
        ),
        row=lambda p: [
            p.label,
            f"{p.mean_ms:.2f}",
            f"{p.p50_ms:.2f}",
            f"{p.p95_ms:.2f}",
            f"{p.p99_ms:.2f}",
            f"{p.mean_path_length:.2f}",
            p.digest[:12],
        ],
        title=lambda args: "fig-latency — modeled milliseconds, "
        f"n = {cycloid_space_size(args.dimension)}",
        run=_run_latency,
    ),
    "fig-adversary": Command(
        help="seeded sybil/eclipse attacks: keyspace capture, lookup "
        "interception and degradation vs attacker fraction, plus Zipf "
        "hotspot caching (DESIGN S27)",
        arguments=(
            _arg(
                "--population",
                type=int,
                default=2048,
                help="honest node count per overlay; the id space holds "
                "about twice as many so crafted attacker ids have free "
                "slots (default: 2048)",
            ),
            _arg("--lookups", type=int, default=1000),
            _arg(
                "--fractions",
                type=float,
                nargs="+",
                default=list(DEFAULT_FRACTIONS),
                help="attacker fractions to sweep; 0.0 is the honest "
                "baseline (default: 0.0 0.02 0.05 0.1)",
            ),
            _arg(
                "--protocols",
                nargs="+",
                default=list(ADVERSARY_PROTOCOLS),
                choices=list(ADVERSARY_PROTOCOLS),
            ),
            _own_seed(23),
            _arg(
                "--target-key",
                default="adversary-target",
                help="application key the sybil cluster surrounds",
            ),
            _arg(
                "--cache-capacity",
                type=int,
                default=32,
                help="per-node path-cache bound of the cached hotspot "
                "cells (default: 32)",
            ),
            _output("BENCH_adversary.json", "JSON adversary report"),
        ),
        runner=run_adversary_experiment,
        headers=(
            "overlay/fraction",
            "sybils",
            "capture",
            "target",
            "intercept",
            "success",
            "mean hops",
            "digest",
        ),
        row=lambda p: [
            p.label,
            str(p.sybils),
            f"{p.capture_fraction:.4f}",
            "yes" if p.target_captured else "no",
            f"{p.interception_rate:.3f}",
            f"{p.success_rate:.3f}",
            f"{p.mean_hops:.2f}",
            p.digest[:12],
        ],
        title=lambda args: (
            f"fig-adversary — sybil+eclipse, n = {args.population}"
        ),
        run=_run_adversary,
        seed=23,
    ),
    "fig-scale": Command(
        help="bulk-build 10^4..10^6-node overlays direct-to-columns, "
        "run kernel lookup batches, pin object-build parity (DESIGN S26)",
        arguments=(
            _arg(
                "--counts",
                type=int,
                nargs="+",
                default=list(SCALE_COUNTS),
                help="populations to build (default: 10000 100000 1000000)",
            ),
            _arg(
                "--protocols",
                nargs="+",
                default=list(SCALE_PROTOCOLS),
                choices=list(SCALE_PROTOCOLS),
            ),
            _arg("--lookups", type=int, default=2048),
            _own_seed(11),
            _arg(
                "--sampler",
                choices=list(SAMPLERS),
                default="fast",
                help="id sampler for the sweep cells; parity always "
                "replays the object builder's 'exact' stream "
                "(default: fast)",
            ),
            _arg(
                "--parity-count",
                type=int,
                default=4096,
                help="population of the bulk-vs-object digest pin "
                "(default: 4096)",
            ),
            _arg(
                "--ladder",
                type=int,
                nargs="+",
                default=[4096, 16384, 65536],
                help="object-build timing ladder the speedup extrapolates "
                "from",
            ),
            _output("BENCH_scale.json", "JSON scale report"),
        ),
        runner=run_scale_experiment,
        headers=(
            "protocol",
            "n",
            "d/bits",
            "build s",
            "nodes/s",
            "col MB",
            "lookups/s",
            "mean hops",
            "success",
            "digest",
        ),
        row=lambda p: [
            p.protocol,
            f"{p.count:,}",
            p.sizing,
            f"{p.build_seconds:.3f}",
            f"{p.build_nodes_per_sec:,.0f}",
            f"{p.column_bytes / 1e6:.0f}",
            f"{p.lookups_per_sec:,.0f}",
            f"{p.mean_hops:.2f}",
            f"{p.success_rate:.3f}",
            p.digest[:12],
        ],
        title="fig-scale — bulk-built overlays under the columnar kernel",
        run=_run_scale,
        seed=11,
    ),
    "maint": Command(
        help="maintenance fan-out + post-departure lookup probe",
        arguments=(
            _arg("--population", type=int, default=1024),
            _arg("--events", type=int, default=200),
            _arg("--lookups", type=int, default=1000),
        ),
        runner=run_maintenance_experiment,
        headers=(
            "protocol",
            "per join",
            "per leave",
            "per departure",
            "probe path",
            "probe failures",
        ),
        row=lambda p: [
            p.protocol,
            f"{p.updates_per_join:.1f}",
            f"{p.updates_per_leave:.1f}",
            f"{p.updates_per_departure:.1f}",
            f"{p.probe_mean_path:.2f}",
            p.probe_failures,
        ],
        title="Maintenance fan-out + post-departure probe",
    ),
    "bench": Command(
        help="time serial vs parallel execution and verify bit-exactness",
        arguments=(
            _arg("--dimension", type=int, default=8),
            _arg("--lookups", type=int, default=2000),
            _arg("--workers", type=int, default=4, metavar="N"),
            _arg("--shard-size", type=int, default=DEFAULT_SHARD_SIZE),
            _arg(
                "--protocols",
                nargs="+",
                default=list(DEFAULT_BENCH_PROTOCOLS),
                choices=ALL_PROTOCOLS,
            ),
            _output("BENCH_parallel.json", "JSON bench report"),
        ),
        run=_run_bench,
    ),
    "serve": Command(
        help="run a built overlay as a live cluster of node servers",
        arguments=_BUILD_ARGS
        + _latency_args(default_seed=None)
        + (
            _arg(
                "--cluster-file",
                metavar="PATH",
                default=None,
                help="write the attachable cluster spec (directory + "
                "build recipe) to PATH",
            ),
            _arg(
                "--lifetime",
                type=float,
                default=None,
                metavar="SECONDS",
                help="shut down after SECONDS (default: serve until "
                "interrupted)",
            ),
        ),
        run=_run_serve,
    ),
    "loadgen": Command(
        help="drive a live cluster closed-loop and write BENCH_net.json",
        arguments=_BUILD_ARGS
        + _latency_args(default_seed=None)
        + (
            _arg(
                "--cluster-file",
                metavar="PATH",
                default=None,
                help="attach to the running cluster this spec describes "
                "instead of booting a private one",
            ),
            _arg("--clients", type=int, default=64, metavar="N"),
            _arg("--lookups", type=int, default=256, metavar="N"),
            _arg(
                "--puts",
                type=int,
                default=32,
                metavar="N",
                help="PUT/GET pairs to run after the lookups (default: 32)",
            ),
            _TIMEOUT,
            _RETRY_BUDGET,
            _output("BENCH_net.json", "net bench report"),
        ),
        run=_run_loadgen,
    ),
    "churnstorm": Command(
        help="open-loop churn harness: kill/rejoin nodes mid-load and "
        "verify zero acknowledged-write loss",
        arguments=_BUILD_ARGS
        + (
            _arg(
                "--replicas",
                type=int,
                default=2,
                metavar="R",
                help="leaf-set replication factor of the data plane "
                "(default: 2; zero-loss bar needs >= 2)",
            ),
            _arg(
                "--rate",
                type=float,
                default=200.0,
                metavar="OPS_PER_S",
                help="open-loop Poisson arrival rate (default: 200)",
            ),
            _arg(
                "--ops",
                type=int,
                default=400,
                metavar="N",
                help="operations in the open-loop storm (default: 400)",
            ),
            _arg(
                "--clients",
                type=int,
                default=8,
                metavar="N",
                help="client connections the dispatcher round-robins over "
                "(default: 8)",
            ),
            _arg(
                "--kills",
                type=int,
                default=3,
                metavar="N",
                help="virtual nodes to crash mid-run (default: 3)",
            ),
            _arg(
                "--no-rejoin",
                action="store_true",
                help="crash only — do not rejoin the victims afterwards",
            ),
            _TIMEOUT,
            _RETRY_BUDGET,
            _output("BENCH_net.json", "churn bench report"),
        ),
        run=_run_churnstorm,
    ),
    "table1": Command(
        help="architecture comparison",
        runner=architecture_table,
        headers=("system", "base", "lookup", "state", "measured max"),
        row=lambda r: [
            r.label,
            r.base_network,
            r.lookup_complexity,
            r.routing_state,
            r.max_observed_state,
        ],
        title="Table 1 — architecture",
    ),
}

#: Commands whose lookups can stream to ``--trace``: those whose
#: runner takes an ``observer`` (fig8/9 and table1 issue no lookups).
TRACEABLE_COMMANDS = tuple(
    name for name, command in COMMANDS.items()
    if _takes(command.runner, "observer")
)


class _Parser(argparse.ArgumentParser):
    """Top-level parser: ``--seed`` before or after the command wins,
    else the command's own default applies."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if getattr(namespace, "seed", None) is None:
            namespace.seed = COMMANDS[namespace.command].seed
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="Reproduce the Cycloid paper's tables and figures.",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help=f"workload seed (default: {DEFAULT_SEED}; "
        + ", ".join(
            f"{name} {command.seed}"
            for name, command in COMMANDS.items()
            if command.seed != DEFAULT_SEED
        )
        + ")",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL per-hop trace of every lookup to PATH "
        "(lookup-driven commands only; forces in-process execution)",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )
    for name, command in COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        derived = tuple(
            arg for arg in (_WORKERS, _BACKEND)
            if _takes(command.runner, arg.param)
        )
        for arg in command.arguments + derived:
            subparser.add_argument(arg.flag, **arg.kwargs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    sink: Sink = None
    trace_file = None
    # loadgen traces the *live* hop stream itself — the path is passed
    # through instead of opening an engine trace sink here.
    if args.trace is not None and args.command != "loadgen":
        if args.command not in TRACEABLE_COMMANDS:
            print(
                f"error: --trace is not supported for {args.command} "
                f"(traceable: {', '.join(TRACEABLE_COMMANDS)})",
                file=sys.stderr,
            )
            return 2
        try:
            trace_file = open(args.trace, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 2
        sink = JsonlTraceSink(trace_file)

    command = COMMANDS[args.command]
    try:
        return command.run(command, args, sink)
    finally:
        if trace_file is not None:
            trace_file.close()
            print(
                f"trace: {sink.events_written} hop events -> {args.trace}",
                file=sys.stderr,
            )


if __name__ == "__main__":
    sys.exit(main())
