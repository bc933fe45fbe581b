//! Per-layer metrics of a traced run, computed from its spans.
//!
//! Every metric is printed on every workload; a layer a workload does not
//! reach reads 0. Times are medians per call; solver work counters are
//! means per evaluated query; `cache.*` and `engine.*_runs` are totals over
//! the measured phase.

use crate::common::{mean, median, Outcome};
use crate::trace::{self_times_ns, Span};

/// Every per-layer metric with its unit, in output order.
pub const METRICS: &[(&str, &str)] = &[
    ("serve.wait_ms", "ms"),
    ("serve.server_ms", "ms"),
    ("cache.lookups", "count"),
    ("cache.answer_hits", "count"),
    ("cache.plan_hits", "count"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("cache.answer_hit_ratio", "ratio"),
    ("cache.hit_us", "us"),
    ("cache.survived_appends", "count"),
    ("cache.invalidated", "count"),
    ("query_text.parse_ms", "ms"),
    ("engine.plan_ms", "ms"),
    ("engine.simple_runs", "count"),
    ("engine.vsf_runs", "count"),
    ("engine.bounded_runs", "count"),
    ("analyze.atoms_dropped", "count"),
    ("analyze.vars_merged", "count"),
    ("simple.eval_ms", "ms"),
    ("simple.group_query_ms", "ms"),
    ("solve.backtrack_steps", "count"),
    ("solve.eliminated_vars", "count"),
    ("solve.leapfrog_components", "count"),
    ("solve.intersection_seeks", "count"),
    ("solve.domain_kept_ratio", "ratio"),
    ("solve.answers", "count"),
    ("vsf.eval_ms", "ms"),
    ("bounded.eval_ms", "ms"),
    ("governor.checkpoints", "count"),
    ("graph.load_ms", "ms"),
    ("graph.append_ms", "ms"),
    ("graph.compact_ms", "ms"),
    ("graph.delta_edges", "count"),
    ("self.bench_pct", "%"),
    ("self.serve_pct", "%"),
    ("self.cache_pct", "%"),
    ("self.query_text_pct", "%"),
    ("self.engine_pct", "%"),
    ("self.graph_pct", "%"),
    ("trace.coverage_pct", "%"),
    ("trace.throughput_qps", "1/s"),
    ("trace.spans", "count"),
];

/// Engine codes carried by `engine.answers` and `cache.answers` spans.
pub const ENGINE_SIMPLE: f64 = 0.0;
pub const ENGINE_VSF: f64 = 1.0;
pub const ENGINE_BOUNDED: f64 = 2.0;
/// Cache outcome codes carried by `cache.answers` spans.
pub const OUTCOME_ANSWER_HIT: f64 = 0.0;

pub fn engine_code(kind: cxrpq_core::EngineKind) -> f64 {
    match kind {
        cxrpq_core::EngineKind::Simple => ENGINE_SIMPLE,
        cxrpq_core::EngineKind::Vsf => ENGINE_VSF,
        cxrpq_core::EngineKind::Bounded => ENGINE_BOUNDED,
    }
}

pub fn per_layer(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let spans = &o.tracer.spans;
    let med = |name: &str| {
        median(
            &spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::ms)
                .collect::<Vec<_>>(),
        )
    };
    // Spans that ran an engine: library evaluations, and cache lookups that
    // were not answer hits.
    let evals: Vec<&Span> = spans
        .iter()
        .filter(|s| {
            s.name == "engine.answers"
                || (s.name == "cache.answers"
                    && s.counter("engine").is_some()
                    && s.counter("outcome") != Some(OUTCOME_ANSWER_HIT))
        })
        .collect();
    let by_engine = |code: f64| {
        evals
            .iter()
            .filter(move |s| s.counter("engine") == Some(code))
    };
    let eval_ms = |code: f64| median(&by_engine(code).map(|s| s.ms()).collect::<Vec<_>>());
    let mean_counter = |key: &str| {
        mean(
            &evals
                .iter()
                .filter_map(|s| s.counter(key))
                .collect::<Vec<_>>(),
        )
    };
    let sum_counter = |key: &str| evals.iter().filter_map(|s| s.counter(key)).sum::<f64>();
    let kept = {
        let before = sum_counter("domain_before");
        if before > 0.0 {
            sum_counter("domain_after") / before
        } else {
            0.0
        }
    };

    // Serving: the client's round trip minus the server's own elapsed time.
    let mut wait = Vec::new();
    let mut server = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "serve.request" {
            if let Some(c) = spans
                .iter()
                .skip(i + 1)
                .find(|c| c.parent == Some(i) && c.name == "cache.answers")
            {
                wait.push(s.ms() - c.ms());
                server.push(c.ms());
            }
        }
    }
    let hit_us = median(
        &spans
            .iter()
            .filter(|s| {
                s.name == "cache.answers" && s.counter("outcome") == Some(OUTCOME_ANSWER_HIT)
            })
            .map(|s| s.ms() * 1e3)
            .collect::<Vec<_>>(),
    );

    // Self time per layer, as a share of the measured phase's root spans
    // (`bench.*`; set-up spans are left out). Parents precede children.
    let mut root = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        root[i] = s.parent.map_or(i, |p| root[p]);
    }
    let measured = |i: usize| spans[root[i]].layer() == "bench";
    let selfs = self_times_ns(spans);
    let root_ns: u64 = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none() && measured(i))
        .map(|i| spans[i].end_ns - spans[i].start_ns)
        .sum();
    let share = |layer: &str| {
        let ns: u64 = (0..spans.len())
            .filter(|&i| measured(i) && spans[i].layer() == layer)
            .map(|i| selfs[i])
            .sum();
        if root_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / root_ns as f64
        }
    };
    let layer_value = |key: &str| {
        o.layer
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |&(_, v)| v)
    };

    METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = match name {
                "serve.wait_ms" => median(&wait),
                "serve.server_ms" => median(&server),
                "cache.hit_us" => hit_us,
                "query_text.parse_ms" => med("query_text.parse"),
                "engine.plan_ms" => med("engine.plan"),
                "engine.simple_runs" => by_engine(ENGINE_SIMPLE).count() as f64,
                "engine.vsf_runs" => by_engine(ENGINE_VSF).count() as f64,
                "engine.bounded_runs" => by_engine(ENGINE_BOUNDED).count() as f64,
                "analyze.atoms_dropped" => mean_counter("atoms_dropped"),
                "analyze.vars_merged" => mean_counter("vars_merged"),
                "simple.eval_ms" => eval_ms(ENGINE_SIMPLE),
                "simple.group_query_ms" => median(
                    &evals
                        .iter()
                        .filter(|s| s.counter("group_query") == Some(1.0))
                        .map(|s| s.ms())
                        .collect::<Vec<_>>(),
                ),
                "solve.backtrack_steps" => mean_counter("backtrack_steps"),
                "solve.eliminated_vars" => mean_counter("eliminated_vars"),
                "solve.leapfrog_components" => mean_counter("leapfrog_components"),
                "solve.intersection_seeks" => mean_counter("intersection_seeks"),
                "solve.domain_kept_ratio" => kept,
                "solve.answers" => mean_counter("answers"),
                "vsf.eval_ms" => eval_ms(ENGINE_VSF),
                "bounded.eval_ms" => eval_ms(ENGINE_BOUNDED),
                "governor.checkpoints" => mean_counter("checkpoints"),
                "graph.load_ms" => med("graph.load"),
                "graph.append_ms" => med("graph.append_batch"),
                "graph.compact_ms" => med("graph.compact"),
                "graph.delta_edges" => mean(
                    &spans
                        .iter()
                        .filter_map(|s| s.counter("delta_edges"))
                        .collect::<Vec<_>>(),
                ),
                "self.bench_pct" => share("bench"),
                "self.serve_pct" => share("serve"),
                "self.cache_pct" => share("cache"),
                "self.query_text_pct" => share("query_text"),
                "self.engine_pct" => share("engine"),
                "self.graph_pct" => share("graph"),
                "trace.coverage_pct" => {
                    100.0 * root_ns as f64 / 1e9 / (o.wall_s * o.clients as f64)
                }
                "trace.throughput_qps" => o.latencies_ms.len() as f64 / o.busy_s,
                "trace.spans" => spans.len() as f64,
                other => layer_value(other),
            };
            (name, v, unit)
        })
        .collect()
}
