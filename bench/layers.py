"""Per-layer metrics from the spans and counts of a traced run.

Each metric reads the spans of one or more names (a name also covers its
dotted sub-names, so ``search.find`` covers ``search.find.hit``).  A layer
the workload never calls has no spans; its metrics then come from a probe:
one small round of the workload that does reach it, traced separately, so
that every workload reports every per-layer metric as a measured value.
"""

from __future__ import annotations

from harness import Ops, median

TRANSFORMS = ("bullet", "circle", "coh", "unravel", "hat", "fullify", "star")
CLI_COMMANDS = ("parse", "eval", "eval_trace", "check_model", "translate",
                "transform", "search", "proof", "reproduce")
EVALS = ("models.eval_inm", "models.eval_cnm", "models.eval_ik2")


def _covers(span_name: str, name: str) -> bool:
    return span_name == name or span_name.startswith(name + ".")


class _View:
    """Self times and counts of one tracer, by span name."""

    def __init__(self, tracer):
        self.self_times = tracer.self_times()
        self.durations = {}
        for name, start, end, _ in tracer.spans:
            self.durations.setdefault(name, []).append(end - start)
        self.counts = tracer.counts

    def has(self, *names) -> bool:
        return any(_covers(s, n) for s in self.self_times for n in names) \
            or any(n in self.counts for n in names)

    def times(self, *names) -> list:
        return [t for s, ts in self.self_times.items()
                if any(_covers(s, n) for n in names) for t in ts]

    def total(self, *names) -> float:
        return sum(self.times(*names))


def fill_probe(workload, probe, seed, modules) -> list:
    """Run, under the ``probe`` tracer, one small round of every other
    workload (each workload misses layers that every other one reaches);
    returns the problems the probes' own checks find."""
    problems = []
    for other, wl in modules.items():
        if other == workload:
            continue
        st = wl.setup(seed, probe, probe=True)
        ops = Ops(probe)
        wl.run_round(st, ops, probe)
        if hasattr(wl, "extra_probe"):
            wl.extra_probe(st, probe)
        problems += ops.problems + [f"{other} probe: {p}" for p in wl.verify(st)]
        if hasattr(wl, "close"):
            wl.close(st)
    return problems


def per_layer(tracer, probe, run_s) -> dict:
    main, side = _View(tracer), _View(probe)

    def src(*names) -> _View:
        return main if main.has(*names) else side

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for layer, name in (("syntax", "parse"), ("syntax", "show"), ("syntax", "substitute")):
        v = src(f"{layer}.{name}")
        out[f"{layer}.{name}_s"] = (v.total(f"{layer}.{name}"), "s")
    out["syntax.parse_calls"] = (len(src("syntax.parse").times("syntax.parse")), "count")

    for name in EVALS:
        out[name + "_s"] = (src(name).total(name), "s")
    v = src(*EVALS)
    out["models.eval_calls"] = (len(v.times(*EVALS)), "count")
    out["models.eval_nodes_per_s"] = (rate(v.counts["models.eval_nodes"], v.total(*EVALS)), "1/s")
    for name in ("check", "iso"):
        v = src(f"models.{name}")
        out[f"models.{name}_s"] = (v.total(f"models.{name}"), "s")
        out[f"models.{name}_calls"] = (len(v.times(f"models.{name}")), "count")

    v = src("search.sweep")
    sweeps = v.times("search.sweep")
    out["search.sweep_s"] = (sum(sweeps), "s")
    out["search.sweep_models"] = (v.counts["search.sweep_models"] / max(1, len(sweeps)), "count")
    out["search.sweep_models_per_s"] = (rate(v.counts["search.sweep_models"], sum(sweeps)), "1/s")

    v = src("search.find")
    out["search.find_s"] = (v.total("search.find"), "s")
    out["search.find_calls"] = (len(v.times("search.find")), "count")
    out["search.find_examined"] = (v.counts["search.find_examined"], "count")
    out["search.find_models_per_s"] = (
        rate(v.counts["search.find_examined"], v.total("search.find.exhaust")), "1/s")
    out["search.find_hit_p50_ms"] = (median(v.times("search.find.hit")) * 1000.0, "ms")
    out["search.find_exhaust_p50_ms"] = (median(v.times("search.find.exhaust")) * 1000.0, "ms")
    v = src("search.enum")
    out["search.enum_models_per_s"] = (
        rate(v.counts["search.enum_models"], v.total("search.enum")), "1/s")

    for name in TRANSFORMS:
        out[f"transforms.{name}_s"] = (src(f"transforms.{name}").total(f"transforms.{name}"), "s")
    out["transforms.out_worlds"] = (src("transforms").counts["transforms.out_worlds"], "count")

    v = src("folm.eval")
    out["folm.eval_s"] = (v.total("folm.eval"), "s")
    out["folm.eval_calls"] = (len(v.times("folm.eval")), "count")

    v = src("calculi.check")
    out["calculi.check_s"] = (v.total("calculi.check"), "s")
    out["calculi.check_nodes_per_s"] = (
        rate(v.counts["calculi.check_nodes"], v.total("calculi.check")), "1/s")
    for name in ("compile", "deduce"):
        out[f"calculi.{name}_s"] = (src(f"calculi.{name}").total(f"calculi.{name}"), "s")

    for name in ("read", "to_doc"):
        out[f"docio.{name}_s"] = (src(f"docio.{name}").total(f"docio.{name}"), "s")

    out["cli.import_s"] = (src("cli.import_s").counts["cli.import_s"], "s")
    for name in CLI_COMMANDS:
        v = src(f"op.cli.{name}")
        out[f"cli.{name}_ms"] = (median(v.durations.get(f"op.cli.{name}", [])) * 1000.0, "ms")

    out["trace.run_s"] = (run_s, "s")
    out["trace.spans"] = (len(tracer.spans), "count")
    return out
