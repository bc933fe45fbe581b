//! The cold-evaluation loop shared by `crpq-cold` and `xregex-cold`: every
//! query is parsed, planned and evaluated from scratch, with no cache, the
//! way a one-shot caller (the CLI's `eval`) runs it.

use crate::common::{median, peak_rss_mb, setup_again, Digest, Expect, Opts, Outcome, Rng};
use crate::layers::engine_code;
use crate::reference::EdgeList;
use crate::trace::Tracer;
use cxrpq_core::{parse_query, AutoEvaluator, EvalOptions, Governor};
use cxrpq_graph::{read_graph, GraphDb};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

type Answers = BTreeSet<Vec<u32>>;

/// One query of a cold suite.
pub struct ColdQuery {
    pub name: &'static str,
    pub text: String,
    /// Marks the backreference query whose time the README quotes.
    pub group: bool,
    /// Checked between bounds, so its answers are kept, not just digested.
    pub between: bool,
}

/// Loads every graph from its text (parse, build, freeze), as many times
/// as set-up is repeated. Returns the last load and each round's time in
/// seconds.
pub fn load_graphs(texts: &[String], tracer: &mut Tracer) -> (Vec<GraphDb>, Vec<f64>) {
    let mut times = Vec::new();
    let mut dbs = Vec::new();
    let start = Instant::now();
    while setup_again(times.len(), start) {
        dbs.clear();
        let t0 = Instant::now();
        for text in texts {
            let sp = tracer.begin("graph.load", 0);
            let (db, _) = read_graph(text).expect("generated graph text loads");
            tracer.end(sp);
            dbs.push(db);
        }
        times.push(t0.elapsed().as_secs_f64());
    }
    (dbs, times)
}

/// Checks that node `n<i>` of every generated graph got id `i`.
pub fn check_ids(g: &EdgeList, db: &GraphDb) -> bool {
    db.node_count() == g.nodes
        && (0..g.nodes).all(|i| db.node_name(cxrpq_graph::NodeId(i as u32)) == format!("n{i}"))
}

/// Runs rounds until `opts.seconds` of evaluation time have passed. A round
/// evaluates every query once on every graph, in a seeded order, so every
/// run weighs the graphs and queries alike. Answers are digested as they
/// come and checked against `expect(graph, query)` after the measured phase.
pub fn run(
    opts: Opts,
    dbs: &[GraphDb],
    suite: &[ColdQuery],
    bounded_k: usize,
    setup_s: Vec<f64>,
    mut tracer: Tracer,
    expect: impl Fn(usize, usize) -> Expect,
) -> Outcome {
    let mut correct = true;
    let mut seen: BTreeMap<(usize, usize), (Digest, Option<Answers>)> = BTreeMap::new();
    let mut rng = Rng::new(opts.seed, 0x0c01d);
    let mut latencies = Vec::new();
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); suite.len()];
    let mut engines = vec![String::new(); suite.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut busy = 0.0;
    let mut req = 0u64;
    let wall0 = Instant::now();
    while busy < opts.seconds {
        for (gi, db) in dbs.iter().enumerate() {
            let mut order: Vec<usize> = (0..suite.len()).collect();
            rng.shuffle(&mut order);
            for qi in order {
                req += 1;
                attempted += 1;
                let q = &suite[qi];
                let root = tracer.begin("bench.op", req);
                let gov = opts.trace.then(|| Arc::new(Governor::unlimited()));
                let t0 = Instant::now();
                let mut alphabet = db.alphabet().clone();
                let sp = tracer.begin("query_text.parse", req);
                let parsed = parse_query(&q.text, &mut alphabet);
                tracer.end(sp);
                let Ok(parsed) = parsed else {
                    tracer.end(root);
                    failed += 1;
                    continue;
                };
                let sp = tracer.begin("engine.plan", req);
                let planned = AutoEvaluator::with_options(
                    &parsed,
                    EvalOptions {
                        bounded_k,
                        governor: gov.clone(),
                        ..EvalOptions::default()
                    },
                );
                tracer.end(sp);
                let Ok(auto) = planned else {
                    tracer.end(root);
                    failed += 1;
                    continue;
                };
                let sp = tracer.begin("engine.answers", req);
                let r = auto.answers(db);
                tracer.end(sp);
                let dt = t0.elapsed().as_secs_f64();
                tracer.end(root);
                busy += dt;
                latencies.push(dt * 1e3);
                per_query[qi].push(dt * 1e3);
                engines[qi] = format!("{:?}", r.engine);

                tracer.tag(sp, || format!("{}@{gi}", q.name));
                tracer.count(sp, "engine", engine_code(r.engine));
                tracer.count(sp, "answers", r.value.len() as f64);
                if q.group {
                    tracer.count(sp, "group_query", 1.0);
                }
                if let Some(g) = &gov {
                    tracer.count(sp, "checkpoints", g.checkpoints_seen() as f64);
                }
                if let Some(p) = &r.pipeline {
                    tracer.count(sp, "backtrack_steps", p.backtrack_steps as f64);
                    tracer.count(sp, "eliminated_vars", p.eliminated_vars as f64);
                    tracer.count(sp, "leapfrog_components", p.leapfrog_components as f64);
                    tracer.count(sp, "intersection_seeks", p.intersection_seeks as f64);
                    tracer.count(sp, "domain_before", p.total_before() as f64);
                    tracer.count(sp, "domain_after", p.total_after() as f64);
                    if let Some(a) = &p.analysis {
                        tracer.count(sp, "atoms_dropped", a.stats.atoms_dropped as f64);
                        tracer.count(sp, "vars_merged", a.stats.vars_merged as f64);
                    }
                }

                let check = tracer.begin("bench.check", req);
                let tuples = || r.value.iter().map(|t| t.iter().map(|n| n.0));
                let digest = Digest::of(tuples());
                match seen.get(&(gi, qi)) {
                    Some((first, _)) => {
                        if *first != digest {
                            eprintln!(
                                "answers of {} on graph {gi} differ between evaluations",
                                q.name
                            );
                            correct = false;
                        }
                    }
                    None => {
                        let set = q.between.then(|| tuples().map(Iterator::collect).collect());
                        seen.insert((gi, qi), (digest, set));
                    }
                }
                if !r.verdict.is_complete() {
                    eprintln!("{} on graph {gi} did not complete", q.name);
                    correct = false;
                }
                tracer.end(check);
            }
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    for (&(gi, qi), (digest, set)) in &seen {
        if !expect(gi, qi).admits(*digest, set.as_ref()) {
            eprintln!(
                "wrong answers: {} on graph {gi} ({} tuples)",
                suite[qi].name, digest.count
            );
            correct = false;
        }
    }
    // Which query the median and the tail fall on.
    for ((q, lat), engine) in suite.iter().zip(&per_query).zip(&engines) {
        eprintln!(
            "  {:<18} {:<8} median {:>9.3} ms over {} runs",
            q.name,
            engine,
            median(lat),
            lat.len()
        );
    }
    // Edges loaded per second of set-up: the workload does not append.
    let edges: usize = dbs.iter().map(GraphDb::edge_count).sum();
    let ingest_eps = edges as f64 / median(&setup_s);
    Outcome {
        correct,
        attempted,
        failed,
        setup_s,
        latencies_ms: latencies,
        round_ops: suite.len() * dbs.len(),
        busy_s: busy,
        wall_s: wall,
        clients: 1,
        ingest_eps,
        peak_rss_mb,
        tracer,
        layer: Vec::new(),
    }
}
