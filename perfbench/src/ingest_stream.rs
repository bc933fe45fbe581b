//! `ingest-stream`: `GraphDb::append_batch` batches with periodic
//! `compact()`, interleaved with `QueryCache::answers` lookups.
//!
//! A round (an epoch) starts from the loaded base graph and a fresh cache:
//! every query is looked up once (misses), then each of the epoch's
//! batches is appended, followed by a compaction every fourth batch and a
//! lookup of every query but the report, which is looked up only after a
//! compaction. Batches only carry labels `a`, `b`, `c`, so the queries that
//! read them are re-evaluated after every batch, while the one query over
//! `d` keeps its cached answers (footprint-disjoint). Every epoch repeats
//! the same operations, so runs differ only in how many epochs fit.
//!
//! The report is several times slower than any other lookup and 6% of
//! them, so the 99th percentile falls inside its evaluations rather than
//! on the few slowest of a frequent query, where outside load sets it.

use crate::cold;
use crate::common::{
    add_random_edges, add_regular_edges, median, peak_rss_mb, Digest, Opts, Outcome, Rng,
};
use crate::expr::Query;
use crate::layers::{engine_code, OUTCOME_ANSWER_HIT};
use crate::reference::{self, EdgeList, Images, RefGraph};
use crate::trace::Tracer;
use cxrpq_core::{CacheOutcome, EvalOptions, QueryCache};
use cxrpq_graph::{NodeId, Symbol};
use std::collections::BTreeSet;
use std::time::Instant;

const ALPHABET: &str = "abcd";
const NODES: usize = 2500;
const RARE_EDGES: usize = NODES / 2;
const BATCHES: usize = 12;
const BATCH_EDGES: usize = 60;
const COMPACT_EVERY: usize = 4;

/// Four queries over the appended labels, one over `d` alone, and last the
/// report over the appended labels.
const QUERIES: [&str; 6] = [
    "ans(x, y) <- (x) -[ ab ]-> (y), (y) -[ c ]-> (x)",
    "ans(x) <- (x) -[ abc ]-> (y)",
    "ans(x, y) <- (x) -[ (a|b)c ]-> (y), (y) -[ ba ]-> (z)",
    "ans(x, w) <- (x) -[ a ]-> (y), (y) -[ b ]-> (z), (z) -[ c ]-> (w), (w) -[ a ]-> (x)",
    "ans(x, y) <- (x) -[ dd ]-> (y)",
    "ans(x, y) <- (x) -[ (a|b)(a|c)(b|c)(a|b) ]-> (y)",
];

/// Whether query `qi` is looked up on batch state `s` (after `s` batches):
/// the report only on the base graph and after a compaction.
fn looked_up(s: usize, qi: usize) -> bool {
    qi + 1 < QUERIES.len() || s % COMPACT_EVERY == 0
}

struct Inputs {
    base: EdgeList,
    batches: Vec<Vec<(u32, u8, u32)>>,
}

fn inputs(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed, 0x1e57);
    let mut base = EdgeList {
        nodes: NODES,
        edges: Vec::new(),
    };
    let mut seen = BTreeSet::new();
    for &a in b"abc" {
        add_regular_edges(&mut base, &mut seen, &mut rng, (0, NODES), a, 1);
    }
    add_random_edges(&mut base, &mut seen, &mut rng, (0, NODES), b"d", RARE_EDGES);
    let mut grown = base.clone();
    let batches = (0..BATCHES)
        .map(|_| {
            let from = grown.edges.len();
            add_random_edges(
                &mut grown,
                &mut seen,
                &mut rng,
                (0, NODES),
                b"abc",
                BATCH_EDGES,
            );
            grown.edges[from..].to_vec()
        })
        .collect();
    Inputs { base, batches }
}

pub fn run(opts: Opts) -> Outcome {
    let inp = inputs(opts.seed);
    let text = inp.base.to_text(ALPHABET);
    let mut tracer = Tracer::new(opts.trace, Instant::now());

    let (mut dbs, setup) = cold::load_graphs(std::slice::from_ref(&text), &mut tracer);
    let base = dbs.pop().expect("a graph was loaded");
    let mut correct = cold::check_ids(&inp.base, &base);
    let sym = |a: u8| {
        base.alphabet()
            .symbol(&(a as char).to_string())
            .expect("label in alphabet")
    };
    let batches: Vec<Vec<(NodeId, Symbol, NodeId)>> = inp
        .batches
        .iter()
        .map(|b| {
            b.iter()
                .map(|&(u, a, v)| (NodeId(u), sym(a), NodeId(v)))
                .collect()
        })
        .collect();

    let opts_eval = EvalOptions::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut latencies = Vec::new();
    let mut per_query: Vec<Vec<f64>> = vec![Vec::new(); QUERIES.len()];
    let (mut busy, mut ingest_s, mut ingested) = (0.0, 0.0, 0usize);
    let mut totals = [0u64; 6];
    let mut req = 0u64;
    // The digest of each query's answers after each batch prefix.
    let mut seen: Vec<Vec<Option<Digest>>> = vec![vec![None; QUERIES.len()]; BATCHES + 1];
    let wall0 = Instant::now();
    while busy < opts.seconds {
        let mut db = base.clone();
        let cache = QueryCache::new(cxrpq_core::CacheConfig::default());
        for s in 0..=BATCHES {
            if s > 0 {
                req += 1;
                attempted += 1;
                let root = tracer.begin("bench.op", req);
                let t0 = Instant::now();
                let sp = tracer.begin("graph.append_batch", req);
                let added = db.append_batch(&batches[s - 1]);
                tracer.end(sp);
                if s % COMPACT_EVERY == 0 {
                    let sp = tracer.begin("graph.compact", req);
                    db.compact();
                    tracer.end(sp);
                }
                let dt = t0.elapsed().as_secs_f64();
                tracer.end(root);
                busy += dt;
                ingest_s += dt;
                ingested += added;
                if added != BATCH_EDGES {
                    eprintln!("batch {s} added {added} of {BATCH_EDGES} edges");
                    correct = false;
                }
            }
            for (qi, q) in QUERIES.iter().enumerate() {
                if !looked_up(s, qi) {
                    continue;
                }
                req += 1;
                attempted += 1;
                let root = tracer.begin("bench.op", req);
                let sp = tracer.begin("cache.answers", req);
                let t0 = Instant::now();
                let r = cache.answers(&db, q, &opts_eval);
                let dt = t0.elapsed().as_secs_f64();
                tracer.end(sp);
                tracer.end(root);
                busy += dt;
                let Ok(r) = r else {
                    failed += 1;
                    continue;
                };
                latencies.push(dt * 1e3);
                per_query[qi].push(dt * 1e3);
                let outcome = match r.outcome {
                    CacheOutcome::AnswerHit => OUTCOME_ANSWER_HIT,
                    CacheOutcome::PlanHit => 1.0,
                    CacheOutcome::Miss => 2.0,
                };
                tracer.count(sp, "outcome", outcome);
                tracer.count(sp, "engine", engine_code(r.engine));
                tracer.count(sp, "answers", r.answers.len() as f64);
                tracer.count(sp, "delta_edges", db.delta_edge_count() as f64);
                let check = tracer.begin("bench.check", req);
                let digest = Digest::of(r.answers.iter().map(|t| t.iter().map(|n| n.0)));
                if !r.verdict.is_complete() || *seen[s][qi].get_or_insert(digest) != digest {
                    eprintln!("answers after batch {s} differ between epochs: {q}");
                    correct = false;
                }
                tracer.end(check);
            }
        }
        let st = cache.stats();
        for (t, v) in totals.iter_mut().zip([
            st.lookups,
            st.answer_hits,
            st.plan_hits,
            st.misses,
            st.survived_appends,
            st.invalidated,
        ]) {
            *t += v;
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    // Check the answers after every batch against the reference on that
    // batch's graph.
    let mut state = inp.base.clone();
    for (s, digests) in seen.iter().enumerate() {
        if s > 0 {
            state.edges.extend(&inp.batches[s - 1]);
        }
        let rg = RefGraph::new(&state);
        for (qi, (q, got)) in QUERIES.iter().zip(digests).enumerate() {
            if !looked_up(s, qi) {
                continue;
            }
            let want = Digest::of_set(&reference::answers(&Query::parse(q), &rg, Images::All));
            if *got != Some(want) {
                eprintln!("wrong answers after batch {s}: {q}");
                correct = false;
            }
        }
    }
    for (q, lat) in QUERIES.iter().zip(&per_query) {
        eprintln!(
            "  median {:>8.3} ms over {:>5} lookups: {q}",
            median(lat),
            lat.len()
        );
    }
    let [lookups, hits, plan_hits, misses, survived, invalidated] = totals.map(|v| v as f64);
    Outcome {
        correct,
        attempted,
        failed,
        setup_s: setup,
        latencies_ms: latencies,
        round_ops: (0..=BATCHES)
            .map(|s| (0..QUERIES.len()).filter(|&qi| looked_up(s, qi)).count())
            .sum(),
        busy_s: busy,
        wall_s: wall,
        clients: 1,
        ingest_eps: ingested as f64 / ingest_s,
        peak_rss_mb,
        tracer,
        layer: vec![
            ("cache.lookups", lookups),
            ("cache.answer_hits", hits),
            ("cache.plan_hits", plan_hits),
            ("cache.misses", misses),
            (
                "cache.answer_hit_ratio",
                if lookups > 0.0 { hits / lookups } else { 0.0 },
            ),
            ("cache.survived_appends", survived),
            ("cache.invalidated", invalidated),
        ],
    }
}
