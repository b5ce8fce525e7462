"""Layer-attributed host-time tracing of one live simulation.

The tracer wraps bound methods on the *instances* a simulation built —
never the classes, and never through ``StageObserver`` — so tracing
changes neither what the simulator computes nor which code path it takes
(the columnar fast path only disarms for observers, which this never
attaches).  Each wrapped call records a span (name, start, end, parent
span, replica index); spans stay in memory until the run is over.

Layers and the objects whose public methods make them up:

========== =============================================================
arrivals   the request source (``serving/generator``, ``serving/scenarios``)
fleet      ``ClusterSimulator.run`` and the router (``serving/cluster``)
engine     the engine driver loops: ``ServingSimulator.run`` /
           ``ServingEngine.run`` and each replica's ``advance_to``,
           ``drain`` and ``drain_until`` (``serving/engine``)
scheduler  ``ContinuousBatchingScheduler`` and its policy
           (``serving/scheduler``, ``serving/policy``)
paging     ``KvPagingCoordinator`` and ``PagedKvManager``
prefix     ``PrefixIndex``
pricing    ``StageExecutor`` (``core/executor`` and everything below it)
metrics    ``MetricsCollector`` (``serving/metrics``)
========== =============================================================

A layer's time is its spans' self time: each span's duration minus the
part its child spans cover.  A named figure such as ``scheduler.build_s``
also keeps the time of same-layer calls nested inside it (``admit`` runs
inside ``build_stage``) but never that of other layers.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path

LAYERS = ("arrivals", "fleet", "engine", "scheduler", "paging", "prefix", "pricing", "metrics")


def _public_methods(obj) -> list[str]:
    """Names of the plain public methods ``obj``'s class defines (no
    properties, class- or static methods, or dunders)."""
    names: list[str] = []
    for klass in type(obj).__mro__[:-1]:
        for name, value in vars(klass).items():
            if not name.startswith("_") and inspect.isfunction(value) and name not in names:
                names.append(name)
    return names


class Tracer:
    """Spans and boundary counts of one traced simulation."""

    def __init__(self) -> None:
        #: One entry per call: (name, start, end, parent index, replica).
        self.spans: list = []
        self.layer_of: dict[str, str] = {}
        #: Counts taken at the wrapped boundaries beyond plain call counts.
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._wrapped: set[int] = set()

    # ------------------------------------------------------------------
    # instrumentation
    # ------------------------------------------------------------------
    def wrap(self, obj, attr: str, name: str, layer: str, replica: int, after=None) -> None:
        """Replace ``obj.attr`` by a span-recording wrapper of the bound method.

        ``after(args, result)`` runs once the call returned, to take a
        count at this boundary.
        """
        original = getattr(obj, attr)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        self.layer_of[name] = layer

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, replica)
            if after is not None:
                after(args, result)
            return result

        setattr(obj, attr, traced)

    def wrap_public(self, obj, prefix: str, layer: str, replica: int, hooks=None) -> None:
        """Wrap every public method of ``obj`` (each object at most once)."""
        if obj is None or id(obj) in self._wrapped:
            return
        self._wrapped.add(id(obj))
        hooks = hooks or {}
        for attr in _public_methods(obj):
            self.wrap(obj, attr, f"{prefix}.{attr}", layer, replica, hooks.get(attr))

    def _wrap_engine_parts(self, scheduler, executor, metrics, replica: int) -> None:
        counts = self.counts

        def committed(args, _result) -> None:
            counts["steady_stages"] += args[0]

        def priced(_args, result) -> None:
            if result is not None:
                counts["priced_run_stages"] += result.n_stages

        def pool_evicted(_args, freed) -> None:
            if freed > 0:
                counts["pool_evictions"] += 1

        self.wrap_public(
            scheduler, "scheduler", "scheduler", replica, {"commit_steady_run": committed}
        )
        self.wrap_public(scheduler.policy, "policy", "scheduler", replica)
        self.wrap_public(executor, "executor", "pricing", replica, {"price_decode_run": priced})
        self.wrap_public(metrics, "metrics", "metrics", replica)
        if scheduler.paging is not None:
            self.wrap_public(scheduler.paging, "paging", "paging", replica)
            self.wrap_public(scheduler.paging.manager, "kv_manager", "paging", replica)
            # The coordinator prices RECOMPUTE replays on the engine's executor.
            self.wrap_public(scheduler.paging.executor, "executor", "pricing", replica)
        self.wrap_public(
            scheduler.prefix, "prefix", "prefix", replica, {"evict_cached": pool_evicted}
        )

    def attach(self, sim, is_cluster: bool) -> None:
        """Instrument every layer of a freshly built, not yet run simulator."""
        if is_cluster:
            self.wrap(sim, "run", "cluster.run", "fleet", -1)
            self.wrap_public(sim.source, "source", "arrivals", -1)
            self.wrap_public(sim.router, "router", "fleet", -1)
            for handle in sim.handles:
                replica, index = handle.replica, handle.index
                engine = replica.engine
                counts = self.counts

                def advance_to(*args, _engine=engine, _original=replica.advance_to, **kwargs):
                    before = _engine.stages
                    _original(*args, **kwargs)
                    if _engine.stages != before:
                        counts["useful_advances"] += 1

                replica.advance_to = advance_to
                self.wrap(replica, "advance_to", "replica.advance_to", "engine", index)
                self.wrap(replica, "drain", "replica.drain", "engine", index)
                self.wrap(replica, "drain_until", "replica.drain_until", "engine", index)
                self._wrap_engine_parts(replica.scheduler, replica.executor, engine.metrics, index)
        else:
            self.wrap(sim, "run", "simulator.run", "engine", 0)
            self.wrap(sim.engine, "run", "engine.run", "engine", 0)
            self.wrap_public(sim.source, "source", "arrivals", 0)
            self._wrap_engine_parts(sim.scheduler, sim.executor, sim.engine.metrics, 0)

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------
    def totals(self, stages: int, report_prefix: dict) -> Counter:
        """Additive totals of this simulation's spans and boundary counts.

        Keys: ``calls:<span>``, ``name_s:<span>`` (in-layer time),
        ``layer_s:<layer>`` (self time), ``total_s`` (root spans), the
        boundary counts, ``stages`` and the prefix hit/miss tokens.
        Totals of several simulations add with ``+``.
        """
        spans = self.spans
        layer_of = self.layer_of
        n = len(spans)
        child_total = [0.0] * n
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_total[parent] += end - start
        self_time = [span[2] - span[1] - child_total[i] for i, span in enumerate(spans)]
        # Children are appended after their parent, so a reverse sweep
        # folds every same-layer subtree into its outermost span.
        in_layer = list(self_time)
        for i in range(n - 1, -1, -1):
            parent = spans[i][3]
            if parent >= 0 and layer_of[spans[parent][0]] == layer_of[spans[i][0]]:
                in_layer[parent] += in_layer[i]
        out: Counter = Counter(self.counts)
        for i, (name, start, end, parent, _) in enumerate(spans):
            out[f"calls:{name}"] += 1
            out[f"layer_s:{layer_of[name]}"] += self_time[i]
            if parent < 0:
                out["total_s"] += end - start
            if parent < 0 or spans[parent][0] != name:
                out[f"name_s:{name}"] += in_layer[i]
        out["stages"] += stages
        out["prefix_hit_tokens"] += report_prefix.get("hit_tokens", 0)
        out["prefix_miss_tokens"] += report_prefix.get("miss_tokens", 0)
        return out

    def write(self, path: Path) -> None:
        """Write the spans out (times in microseconds from the first span)."""
        names = sorted(self.layer_of)
        code = {name: i for i, name in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            [code[name], round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3), parent, rep]
            for name, start, end, parent, rep in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "columns": ["name", "start_us", "end_us", "parent", "replica"],
                    "names": names,
                    "layers": [self.layer_of[name] for name in names],
                    "spans": rows,
                },
                separators=(",", ":"),
            )
        )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: Counter) -> dict:
    """The per-layer metrics of one or more traced simulations' totals.

    Returns ``{"counts": {...}, "times": {...}}``: counts repeat exactly
    for a seed; times are host seconds.  Ratios with an empty base (a
    layer that did no work) read 0.
    """
    calls = {key[6:]: value for key, value in totals.items() if key.startswith("calls:")}
    name_s = {key[7:]: value for key, value in totals.items() if key.startswith("name_s:")}

    def layer_s(layer: str) -> float:
        return totals[f"layer_s:{layer}"]

    def span_calls(name: str) -> int:
        return calls.get(name, 0)

    def span_s(name: str) -> float:
        return name_s.get(name, 0.0)

    record_names = [name for name in calls if name.startswith("metrics.record_")]
    advance_calls = span_calls("replica.advance_to")
    route_calls = span_calls("router.choose")
    stage_calls = span_calls("executor.run_stage")
    run_calls = span_calls("executor.price_decode_run")
    priced = totals["priced_run_stages"]
    committed = totals["steady_stages"]
    stage_s = span_s("executor.run_stage")
    run_s = span_s("executor.price_decode_run") + span_s("executor.rewind_decode_run")
    hits, misses = totals["prefix_hit_tokens"], totals["prefix_miss_tokens"]
    counts = {
        "arrivals.take_calls": span_calls("source.take"),
        "fleet.advance_calls": advance_calls,
        "fleet.advance_per_arrival": _ratio(advance_calls, route_calls),
        "fleet.useful_advance_ratio": _ratio(totals["useful_advances"], advance_calls),
        "fleet.route_calls": route_calls,
        "engine.steady_share": _ratio(committed, totals["stages"]),
        "scheduler.build_calls": span_calls("scheduler.build_stage"),
        "scheduler.threshold_calls": span_calls("scheduler.steady_run_threshold"),
        "paging.evictions": span_calls("paging.evict"),
        "paging.resumes": span_calls("paging.resume_next"),
        "prefix.acquire_calls": span_calls("prefix.acquire"),
        "prefix.pool_evict_calls": totals["pool_evictions"],
        "prefix.hit_ratio": _ratio(hits, hits + misses),
        "pricing.stage_calls": stage_calls,
        "pricing.run_calls": run_calls,
        "pricing.run_priced_stages": priced,
        "pricing.run_useful_ratio": _ratio(committed, priced),
        "pricing.stages_per_run": _ratio(priced, run_calls),
        "metrics.record_calls": sum(calls[name] for name in record_names),
    }
    times = {
        "arrivals.take_s": span_s("source.take"),
        "fleet.route_s": span_s("router.choose"),
        "fleet.self_s": layer_s("fleet"),
        "engine.self_s": layer_s("engine"),
        "scheduler.build_s": span_s("scheduler.build_stage"),
        "scheduler.complete_s": span_s("scheduler.complete_stage"),
        "scheduler.threshold_s": span_s("scheduler.steady_run_threshold"),
        "scheduler.commit_run_s": span_s("scheduler.commit_steady_run"),
        "paging.s": layer_s("paging"),
        "prefix.s": layer_s("prefix"),
        "pricing.stage_s": stage_s,
        "pricing.us_per_stage": _ratio(stage_s, stage_calls) * 1e6,
        "pricing.run_s": run_s,
        "pricing.us_per_run_stage": _ratio(run_s, priced) * 1e6,
        "metrics.record_s": sum(name_s.get(name, 0.0) for name in record_names),
        "metrics.report_s": span_s("metrics.report"),
        **{f"{layer}.share": _ratio(layer_s(layer), totals["total_s"]) for layer in LAYERS},
        "trace.total_s": totals["total_s"],
    }
    return {"counts": counts, "times": times}
