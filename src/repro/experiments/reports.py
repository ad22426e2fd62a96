"""One schema guard and one writer for every JSON report the CLI writes.

Each report kind is a declarative :class:`Shape`, looked up by the
report's ``"schema"`` tag (and, for ``BENCH_net.json``, its ``"mode"``)
in :data:`REPORT_SHAPES`.  :func:`validate_report` walks the shape and
raises ``ValueError`` naming the first violation; :func:`write_report`
validates, then writes ``indent=2`` JSON plus a trailing newline — the
format of every committed ``BENCH_*.json``.

Where a cell is exactly a result dataclass, its keys are the
dataclass's fields, so the report builder (``dataclasses.asdict``) and
this guard cannot drift apart.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Optional, Tuple

from repro.experiments.adversary import ADVERSARY_BENCH_SCHEMA, HotspotPoint
from repro.experiments.fig_latency import LATENCY_BENCH_SCHEMA, LatencyPoint
from repro.experiments.scale import SCALE_BENCH_SCHEMA, ScalePoint
from repro.net.loadgen import NET_BENCH_SCHEMA
from repro.sim.adversary import AdversaryPlan
from repro.sim.latency import LatencyModel

__all__ = ["Shape", "REPORT_SHAPES", "validate_report", "write_report"]

Report = Dict[str, object]
#: A cross-field invariant and the message to raise when it fails.
Check = Tuple[Callable[[Report], bool], str]


@dataclass(frozen=True)
class Shape:
    """The required shape of one JSON object inside a report."""

    keys: Tuple[str, ...]
    #: Keys holding sha256 hex digests.
    digests: Tuple[str, ...] = ()
    #: Keys holding numbers in ``[0, 1]``.
    rates: Tuple[str, ...] = ()
    #: Keys holding config blocks, with the ``from_config`` they must
    #: round-trip through.
    configs: Tuple[Tuple[str, Callable[[object], object]], ...] = ()
    #: Nested objects, checked when present (required iff in ``keys``).
    sections: Dict[str, "Shape"] = field(default_factory=dict)
    #: Non-empty lists of objects, checked when present.
    cells: Dict[str, "Shape"] = field(default_factory=dict)
    checks: Tuple[Check, ...] = ()


def _field_names(cls, exclude: Tuple[str, ...] = ()) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.name not in exclude)


def _speedup(report: Report) -> float:
    parity = report["parity"]
    return float(parity["extrapolated_object_seconds"]) / float(
        parity["bulk_build_seconds"]
    )


_NET_OPS = Shape(
    keys=("total", "completed", "lookups", "puts", "gets", "failures")
)
_NET_LATENCY = Shape(keys=("mean", "p50", "p95", "p99", "max"))
_NET_COMMON = (
    "schema",
    "mode",
    "build",
    "clients",
    "seed",
    "ops",
    "latency_ms",
    "throughput_ops_per_s",
)

#: Report shapes by ``("schema", "mode")`` — mode ``None`` for the kinds
#: without one.  ``BENCH_parallel.json`` predates schema tags: its shape
#: is the one for an absent tag.
REPORT_SHAPES: Dict[Tuple[Optional[str], Optional[str]], Shape] = {
    (LATENCY_BENCH_SCHEMA, None): Shape(
        keys=(
            "schema",
            "model",
            "dimension",
            "size",
            "lookups",
            "seed",
            "cells",
        ),
        configs=(("model", LatencyModel.from_config),),
        cells={
            "cells": Shape(
                keys=_field_names(LatencyPoint, exclude=("dimension",)),
                digests=("digest",),
            )
        },
        sections={
            "proximity": Shape(
                keys=(
                    "random_mean_ms",
                    "proximity_mean_ms",
                    "improvement_ms",
                    "proximity_wins",
                ),
                checks=(
                    (
                        lambda p: bool(p["proximity_wins"])
                        == (p["proximity_mean_ms"] < p["random_mean_ms"]),
                        "proximity_wins is inconsistent with the means",
                    ),
                ),
            )
        },
    ),
    (ADVERSARY_BENCH_SCHEMA, None): Shape(
        keys=(
            "schema",
            "population",
            "lookups",
            "seed",
            "target_key",
            "capture_probes",
            "cells",
            "degradation",
            "hotspot",
        ),
        cells={
            "cells": Shape(
                keys=(
                    "label",
                    "protocol",
                    "attacker_fraction",
                    "plan",
                    "population",
                    "space",
                    "sybils",
                    "victims",
                    "poisoned_entries",
                    "capture_fraction",
                    "target_captured",
                    "interception_rate",
                    "success_rate",
                    "mean_hops",
                    "failures",
                    "digest",
                ),
                configs=(("plan", AdversaryPlan.from_config),),
                rates=(
                    "capture_fraction",
                    "interception_rate",
                    "success_rate",
                ),
                digests=("digest",),
            )
        },
        sections={
            "hotspot": Shape(
                keys=("zipf_s", "key_universe", "cache_capacity", "cells"),
                cells={
                    "cells": Shape(
                        keys=_field_names(HotspotPoint),
                        digests=("digest",),
                    )
                },
            )
        },
        checks=(
            (
                lambda r: len({c["protocol"] for c in r["cells"]}) >= 3,
                "covers fewer than 3 overlays",
            ),
            (
                lambda r: isinstance(r["degradation"], dict)
                and bool(r["degradation"]),
                "degradation section is empty",
            ),
        ),
    ),
    (SCALE_BENCH_SCHEMA, None): Shape(
        keys=(
            "schema",
            "lookups",
            "seed",
            "sampler",
            "speedup_bar",
            "cells",
            "parity",
        ),
        cells={
            "cells": Shape(
                keys=_field_names(ScalePoint),
                digests=("digest",),
                rates=("success_rate",),
                checks=(
                    (
                        lambda c: math.isclose(
                            float(c["log2_count"]),
                            math.log2(int(c["count"])),
                        ),
                        "log2_count is inconsistent with count",
                    ),
                ),
            )
        },
        sections={
            "parity": Shape(
                keys=(
                    "parity_count",
                    "dimension",
                    "seed",
                    "object_digest",
                    "bulk_digest",
                    "digest_match",
                    "ladder",
                    "fit_exponent",
                    "target_protocol",
                    "target_count",
                    "bulk_build_seconds",
                    "extrapolated_object_seconds",
                    "speedup",
                    "speedup_ok",
                ),
                digests=("object_digest", "bulk_digest"),
                cells={
                    "ladder": Shape(
                        keys=("count", "dimension", "seconds", "nodes_per_sec")
                    )
                },
                checks=(
                    (
                        lambda p: bool(p["digest_match"])
                        == (p["object_digest"] == p["bulk_digest"]),
                        "digest_match is inconsistent with the digests",
                    ),
                    (
                        lambda p: len(p["ladder"]) >= 2,
                        "ladder needs at least two rungs",
                    ),
                ),
            )
        },
        checks=(
            (
                lambda r: math.isclose(
                    float(r["parity"]["speedup"]), _speedup(r), rel_tol=1e-9
                ),
                "parity speedup is inconsistent with its terms",
            ),
            (
                lambda r: bool(r["parity"]["speedup_ok"])
                == (_speedup(r) >= float(r["speedup_bar"])),
                "parity speedup_ok is inconsistent with the speedup",
            ),
        ),
    ),
    # ``repro loadgen``: closed-loop clients plus engine parity.
    (NET_BENCH_SCHEMA, "closed-loop"): Shape(
        keys=_NET_COMMON + ("digest",),
        sections={
            "ops": _NET_OPS,
            "latency_ms": _NET_LATENCY,
            "digest": Shape(
                keys=("live", "expected", "match"),
                digests=("live", "expected"),
            ),
        },
        checks=(
            (
                lambda r: bool(r["digest"]["match"])
                == (
                    r["ops"]["completed"] == r["ops"]["total"]
                    and r["digest"]["live"] == r["digest"]["expected"]
                ),
                "digest.match is inconsistent with the digests",
            ),
        ),
    ),
    # ``repro churnstorm``: the open/closed loop split and the churn
    # ledger with its survival verdict replace the digest section.
    (NET_BENCH_SCHEMA, "open-churn"): Shape(
        keys=_NET_COMMON + ("open_loop", "closed_loop", "churn"),
        sections={
            "ops": _NET_OPS,
            "latency_ms": _NET_LATENCY,
            "churn": Shape(
                keys=(
                    "plan",
                    "events",
                    "crashes",
                    "joins",
                    "acked_writes",
                    "acked_keys",
                    "lost_acked_keys",
                    "survival_rate",
                    "under_replication_ms",
                ),
                rates=("survival_rate",),
                sections={
                    "under_replication_ms": Shape(keys=("mean", "max"))
                },
                checks=(
                    (
                        lambda c: (c["survival_rate"] == 1.0)
                        == (c["lost_acked_keys"] == 0),
                        "survival_rate is inconsistent with "
                        "lost_acked_keys",
                    ),
                ),
            ),
        },
    ),
    (None, None): Shape(
        keys=("config", "cells", "build_vs_clone", "kernel", "all_match")
    ),
}


def _check(shape: Shape, value: object, where: str) -> None:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in shape.keys:
        if key not in value:
            raise ValueError(f"{where} is missing {key!r}")
    for key, from_config in shape.configs:
        from_config(value[key])  # raises unless the block is well-formed
    for key in shape.rates:
        rate = value[key]
        if not (
            isinstance(rate, (int, float))
            and not isinstance(rate, bool)
            and 0.0 <= rate <= 1.0
        ):
            raise ValueError(f"{where} {key} {rate!r} is not a rate in [0, 1]")
    for key in shape.digests:
        digest = value[key]
        if not (isinstance(digest, str) and len(digest) == 64):
            raise ValueError(f"{where} {key} is not a sha256 hex digest")
    for key, section in shape.sections.items():
        if key in value:
            _check(section, value[key], f"{where} {key}")
    for key, cell_shape in shape.cells.items():
        if key in value:
            cells = value[key]
            if not isinstance(cells, list) or not cells:
                raise ValueError(f"{where} has no {key}")
            for index, cell in enumerate(cells):
                _check(cell_shape, cell, f"{where} {key}[{index}]")
    for holds, message in shape.checks:
        if not holds(value):
            raise ValueError(f"{where} {message}")


def validate_report(report: object) -> None:
    """Schema-guard one report against its :data:`REPORT_SHAPES` entry.

    Raises ``ValueError`` naming the first violation: an unknown schema
    tag or mode, a missing key, a malformed section or cell, a digest
    that is not a sha256 hex string, a rate outside ``[0, 1]``, a config
    block that does not round-trip, or a verdict that disagrees with
    the numbers it summarises.
    """
    if not isinstance(report, dict):
        raise ValueError("report must be a JSON object")
    schema = report.get("schema")
    modes = [mode for tag, mode in REPORT_SHAPES if tag == schema]
    if not modes:
        raise ValueError(f"report schema {schema!r} is unknown")
    where = f"{schema} report" if schema else "report"
    mode = None
    if modes != [None]:
        # ``mode`` is required: a very-early SIGINT once produced a
        # partial net report without it, which the guard silently took
        # for a closed-loop run — never default a discriminator.
        if "mode" not in report:
            raise ValueError(f"{where} is missing 'mode'")
        mode = report["mode"]
        if mode not in modes:
            raise ValueError(f"{where} mode {mode!r} is unknown")
    _check(REPORT_SHAPES[schema, mode], report, where)


def write_report(path: str, report: Report) -> None:
    """Validate ``report``, then write it to ``path`` as indented JSON."""
    validate_report(report)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
