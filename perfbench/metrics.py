"""Turns the driver's raw measurements into the benchmark's metrics.

End-to-end metrics come only from untraced passes (--trace 0); per-layer
metrics come from a --trace 1 run: time splits from its traced passes,
exact counts from its first pass, and obs.trace_overhead from comparing
its traced and untraced passes. Counts are per pass (one replay of the
stream); times are per query unless the name says otherwise.
"""

import math
import statistics

TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

# Top-level trace scopes of the mpc primitives (mpc/exchange.h,
# mpc/primitives.h). Rounds charged outside them land in "other".
MPC_SCOPES = ("exchange", "exchange_multi", "gather", "broadcast",
              "rebalance", "sort", "sort_grouped", "reduce_by_key",
              "packing", "multi_search")
RECOVERY_SCOPES = ("checkpoint", "restore")

ALGORITHMS = ("single_relation", "yannakakis", "hypercube",
              "matmul_worst_case", "matmul_output_sensitive",
              "line_theorem4", "star_theorem5", "starlike_lemma7",
              "tree_theorem6")


def nearest_rank(values, pct):
    """The smallest sample with at least pct% of the samples at or below
    it (nearest-rank percentile); returns (value, samples beyond it)."""
    ordered = sorted(values)
    # round() keeps float noise (99.9 / 100 * 20000 = 19980.000000000004)
    # from bumping the rank.
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1], len(ordered) - rank


def tail(values):
    """The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it: returns (percentile, value, samples beyond). Applied to one
    pass of a stream, it fixes the workload's tail_percentile."""
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(values, pct)
        if beyond >= TAIL_MIN_BEYOND:
            best = (pct, value, beyond)
    if best is None:
        raise ValueError(f"{len(values)} samples: too few for any tail "
                         f"percentile with {TAIL_MIN_BEYOND} beyond it")
    return best


def _passes(raw, traced):
    return [p for p in raw["passes"] if p["traced"] == traced]


def _sum(queries, section, field):
    return sum(q[section][field] for q in queries)


def ledger_metrics(queries):
    """The four exact simulated-cost metrics of one pass."""
    return {
        "max_load": max(q["execution"]["max_load"] for q in queries),
        "rounds_total": _sum(queries, "planning", "rounds") +
                        _sum(queries, "execution", "rounds"),
        "comm_total": _sum(queries, "planning", "comm") +
                      _sum(queries, "execution", "comm"),
        "critical_path_total": _sum(queries, "planning", "critical_path") +
                               _sum(queries, "execution", "critical_path"),
    }


def end_to_end(raw, tail_pct):
    """Host-time metrics are taken per pass and reported as the median over
    the run's untraced passes, so a transient slowdown of the host that hits
    a minority of passes does not move them. `tail_pct` is the workload's
    fixed tail percentile (manifest.json): the highest one with
    TAIL_MIN_BEYOND samples beyond it in one pass of the stream."""
    passes = _passes(raw, traced=False)
    qps, p50, tail_ms = [], [], []
    for p in passes:
        latencies = [q["latency_ms"] for q in p["queries"]]
        value, beyond = nearest_rank(latencies, tail_pct)
        if beyond < TAIL_MIN_BEYOND:
            raise ValueError(f"p{tail_pct:g} of {len(latencies)} samples "
                             f"has only {beyond} beyond it")
        qps.append(1000.0 * len(latencies) / sum(latencies))
        p50.append(nearest_rank(latencies, 50)[0])
        tail_ms.append(value)
    metrics = {
        "qps": statistics.median(qps),
        "latency_p50_ms": statistics.median(p50),
        "latency_tail_ms": statistics.median(tail_ms),
        "setup_s": statistics.median(s for p in passes for s in p["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    metrics.update(ledger_metrics(passes[0]["queries"]))
    notes = {"tail_percentile": tail_pct, "pass_samples": len(latencies),
             "passes": len(passes)}
    return metrics, notes


def _mean(values, default=0.0):
    values = list(values)
    return sum(values) / len(values) if values else default


def _span_ms(spans, name, pass_ids):
    """Median over traced passes of the summed duration of `name` spans."""
    per_pass = {}
    for s in spans:
        if s["name"] == name:
            key = s["parent"].rsplit(".", 1)[-1]
            if key in pass_ids:
                per_pass[key] = per_pass.get(key, 0.0) + s["end_ms"] - s["start_ms"]
    return statistics.median(per_pass.values())


def per_layer(raw, spans, catalog_tuples, templates):
    first = raw["passes"][0]
    counted = first["queries"]
    traced_passes = _passes(raw, traced=True)
    traced = [q for p in traced_passes for q in p["queries"]]
    n_traced = len(traced_passes)
    m = {}

    # serve: the Server's own work around planning and execution.
    lookups = first["cache_hits"] + first["cache_misses"]
    m["serve.cache_hit_rate"] = first["cache_hits"] / lookups
    m["serve.cache_evictions"] = first["cache_evictions"]
    m["serve.self_ms"] = _mean(q["latency_ms"] - q["plan_ms"] - q["exec_ms"]
                               for q in traced)
    m["serve.out_tuples"] = sum(q["out_tuples"] for q in counted)
    by_tpl = {}
    for s in spans:
        if s["name"] == "serve.query":
            by_tpl.setdefault(s["id"].rsplit("-", 1)[0], []).append(
                s["end_ms"] - s["start_ms"])
    for t in templates:
        m[f"serve.tpl.{t}.p50_ms"] = (
            nearest_rank(by_tpl[t], 50)[0] if t in by_tpl else 0.0)

    # plan: the planner's estimation pass and its predictions.
    m["plan.cold_ms"] = _mean(q["plan_ms"] for q in traced if not q["hit"])
    m["plan.warm_ms"] = _mean(q["plan_ms"] for q in traced if q["hit"])
    m["plan.share"] = (sum(q["plan_ms"] for q in traced) /
                       sum(q["latency_ms"] for q in traced))
    m["plan.rounds"] = _sum(counted, "planning", "rounds")
    m["plan.comm"] = _sum(counted, "planning", "comm")
    ratios = [q["measured_load"] / q["predicted_load"] for q in traced
              if q["predicted_load"] > 0]
    m["plan.load_ratio_p50"] = statistics.median(ratios)

    # relation / mpc / sketch at registration, called directly.
    pass_ids = {f"pass{i}" for i, p in enumerate(raw["passes"]) if p["traced"]}
    m["relation.csv_load_ms"] = _span_ms(spans, "relation.load_csv", pass_ids)
    m["mpc.scatter_ms"] = _span_ms(spans, "mpc.scatter", pass_ids)
    m["sketch.sketch_ms"] = _span_ms(spans, "sketch.sketch", pass_ids)
    m["setup.tuples"] = catalog_tuples

    # execution: the executor as a whole, then by algorithm.
    m["exec.ms"] = _mean(q["exec_ms"] for q in traced)
    m["exec.ns_per_tuple"] = (sum(q["exec_ms"] for q in traced) * 1e6 /
                              max(1, _sum(traced, "execution", "comm")))
    m["exec.rounds"] = _sum(counted, "execution", "rounds")
    m["exec.comm"] = _sum(counted, "execution", "comm")
    m["exec.max_load"] = max(q["execution"]["max_load"] for q in counted)
    for algo in ALGORITHMS:
        mine = [q for q in traced if q["algo"] == algo]
        m[f"algorithms.{algo}.queries"] = len(mine) / n_traced
        m[f"algorithms.{algo}.ms"] = _mean(q["exec_ms"] for q in mine)

    # mpc: charged round records by top-level scope.
    scope = {}
    for q in traced:
        for name, c in q["scopes"].items():
            key = name if name in MPC_SCOPES + RECOVERY_SCOPES else "other"
            acc = scope.setdefault(key, [0, 0, 0.0])
            acc[0] += c["rounds"]
            acc[1] += c["tuples"]
            acc[2] += c["ms"]
    for name in MPC_SCOPES + ("other",):
        rounds, tuples, ms = scope.get(name, (0, 0, 0.0))
        m[f"mpc.{name}.rounds"] = rounds / n_traced
        m[f"mpc.{name}.tuples"] = tuples / n_traced
        m[f"mpc.{name}.ms"] = ms / len(traced)

    # recovery: what the fault machinery did and what it cost.
    m["recovery.replays"] = sum(q["attempts"] - 1 for q in counted)
    for field in ("crashes", "resumed_rounds", "rebalances", "retransmits"):
        m[f"recovery.{field}"] = _sum(counted, "execution", field)
    m["recovery.replans"] = sum(q["replans"] for q in counted)
    m["recovery.comm"] = _sum(counted, "execution", "recovery_comm")
    for name in RECOVERY_SCOPES:
        m[f"recovery.{name}_ms"] = scope.get(name, (0, 0, 0.0))[2] / len(traced)
    m["recovery.share"] = (m["recovery.comm"] /
                           ledger_metrics(counted)["comm_total"])

    # obs: what tracing costs, serving time traced over untraced.
    def serving_ms(passes):
        return statistics.median(sum(q["latency_ms"] for q in p["queries"])
                                 for p in passes)
    m["obs.trace_overhead"] = (serving_ms(traced_passes) /
                               serving_ms(_passes(raw, traced=False)))
    return m
