"""Which program attributes are layer boundaries, and the per-layer metrics.

Every wrapped name is looked up by the program at call time (a module
global, a class attribute reached through ``self``, or a registry entry),
so replacing it from here times every call without editing the program.
"""
from __future__ import annotations

import statistics

from spans import Span, Tracer

#: Spans that only enclose layer spans; their self time is not a layer.
FIT_SPANS = ("tdh_local.fit", "tdh_spark.fit")


def instrument_local(tr: Tracer) -> None:
    """``core.tdh_local`` and ``core.candidates`` as the local engine calls them."""
    from repro.core import tdh_local

    def prepared(span: Span, args, p) -> None:
        wrk = p["wrk"]
        span.attrs["rows"] = len(p["src"].row) + (len(wrk.row) if wrk is not None else 0)

    def em_done(span: Span, args, out) -> None:
        span.attrs["n_iter"] = int(out[3])
        span.attrs["max_iter"] = args[0].max_iter

    tr.wrap(tdh_local.TDH, "fit", "tdh_local.fit")
    tr.wrap(tdh_local, "_prepare", "tdh_local.prepare", prepared)
    tr.wrap(tdh_local.TDH, "_em", "tdh_local.em", em_done)
    tr.wrap(tdh_local, "_package", "tdh_local.package")
    tr.wrap(tdh_local, "object_info", "candidates.object_info")


def instrument_crowd(tr: Tracer) -> None:
    """The round loop's assigner, assignment context and quality logging."""
    from repro.assign import eai
    from repro.eval import simulate

    instrument_local(tr)
    tr.wrap(simulate, "AssignContext", "assign.context")
    tr.wrap(simulate.ASSIGNERS, "EAI", "eai.assign")
    tr.count(eai, "eai_quality", "eai.quality")
    for name in ("map_gold_to_candidates", "accuracy", "gen_accuracy", "avg_distance"):
        tr.wrap(simulate.M, name, "metrics")


def instrument_spark(tr: Tracer) -> None:
    """``core.tdh_spark``: static build, each E-step job and packaging."""
    from repro.core import tdh_spark

    def collected(span: Span, args, out) -> None:
        span.attrs["driver_rows"] = sum(len(df) for df in out)

    tr.wrap(tdh_spark.TDHSpark, "fit", "tdh_spark.fit")
    tr.wrap(tdh_spark.TDHSpark, "_build_base", "tdh_spark.build")
    tr.wrap(tdh_spark.TDHSpark, "_estep_job", "tdh_spark.estep", collected)
    tr.wrap(tdh_spark.TDHSpark, "_package", "tdh_spark.package")
    tr.wrap(tdh_spark, "object_info", "candidates.object_info")


def _med(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _inside(spans: list[Span], w0: float, w1: float) -> list[Span]:
    return [s for s in spans if s.start >= w0 and s.end <= w1]


def per_layer(tr: Tracer, wl, measured_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer the workload never calls reads 0.

    ``.s`` metrics are the median self time per call, except ``*.fit.s``
    (whole fit), ``eai.assign.s`` (whole Algorithm 1, ``eai_quality``
    included) and the per-round sums ``eai.quality.s`` and ``metrics.s``.
    """
    named = tr.named

    def self_med(name):
        return _med([s.self_s for s in named(name)])

    ems = named("tdh_local.em")
    assigns = named("eai.assign")
    q_calls, q_s = tr.counters.get("eai.quality", [0, 0.0])
    sfits = named("tdh_spark.fit")

    def per_fit(name, value):
        return _med([sum(value(s) for s in named(name) if s.parent == f.id) for f in sfits])

    windows = wl.steps
    covered = 0.0
    metric_sums = []
    for w0, w1 in windows:
        inside = _inside(tr.spans, w0, w1)
        covered += sum(s.self_s for s in inside if s.name not in FIT_SPANS)
        metric_sums.append(sum(s.dur for s in inside if s.name == "metrics"))
    window_s = sum(w1 - w0 for w0, w1 in windows)
    return {
        "tdh_local.fit.s": _med([s.dur for s in named("tdh_local.fit")]),
        "tdh_local.fit.calls": len(named("tdh_local.fit")),
        "tdh_local.prepare.s": self_med("tdh_local.prepare"),
        "tdh_local.em.s": self_med("tdh_local.em"),
        "tdh_local.em.iters": _med([s.attrs["n_iter"] for s in ems]),
        "tdh_local.em.iter_s": _med([s.self_s / max(s.attrs["n_iter"], 1) for s in ems]),
        "tdh_local.em.capped": (
            sum(s.attrs["n_iter"] == s.attrs["max_iter"] for s in ems) / len(ems) if ems else 0.0
        ),
        "tdh_local.package.s": self_med("tdh_local.package"),
        "tdh_local.expanded_rows": _med([s.attrs["rows"] for s in named("tdh_local.prepare")]),
        "candidates.object_info.s": self_med("candidates.object_info"),
        "candidates.object_info.calls": len(named("candidates.object_info")),
        "assign.context.s": self_med("assign.context"),
        "eai.assign.s": _med([s.dur for s in assigns]),
        "eai.quality.calls": q_calls / len(assigns) if assigns else 0.0,
        "eai.quality.s": q_s / len(assigns) if assigns else 0.0,
        "eai.useful_ratio": sum(wl.answers_per_round) / q_calls if q_calls else 0.0,
        "metrics.s": _med(metric_sums),
        "simulate.answers": _med(wl.answers_per_round),
        "tdh_spark.build.s": self_med("tdh_spark.build"),
        "tdh_spark.estep.s": _med([s.dur for s in named("tdh_spark.estep")]),
        "tdh_spark.estep.calls": per_fit("tdh_spark.estep", lambda s: 1),
        "tdh_spark.package.s": self_med("tdh_spark.package"),
        "tdh_spark.mstep.s": _med([s.self_s for s in sfits]),
        "tdh_spark.jobs": _med([s.attrs["jobs"] for s in sfits]),
        "tdh_spark.stages": _med([s.attrs["stages"] for s in sfits]),
        "tdh_spark.tasks": _med([s.attrs["tasks"] for s in sfits]),
        "tdh_spark.driver_rows": per_fit("tdh_spark.estep", lambda s: s.attrs["driver_rows"]),
        "datagen.s": wl.datagen_s,
        "spark.session_s": wl.session_s,
        "step.unaccounted_frac": (window_s - covered) / window_s if window_s else 0.0,
        "trace.overhead_frac": tr.overhead_s() / measured_s,
    }
