//! `xregex-cold`: string-variable queries from every fragment, evaluated
//! cold on a family of small seeded graphs.
//!
//! The graphs are small because the synchronized group search binds the
//! middle of `z{ab}z` from its whole domain, which grows fast with the
//! node count; a family of them gives the set-up real size and averages
//! the per-graph variation of every query's cost.

use crate::cold::{self, ColdQuery};
use crate::common::{add_regular_edges, Digest, Expect, Opts, Outcome, Rng};
use crate::expr::Query;
use crate::reference::{self, EdgeList, Images, RefGraph};
use crate::trace::Tracer;
use std::collections::BTreeSet;
use std::time::Instant;

const ALPHABET: &str = "abc";
const GRAPHS: usize = 128;
const NODES: usize = 24;
/// The image bound `k` of the `⊨≤k` reading used for General queries.
const BOUNDED_K: usize = 3;
/// Image length of the lower bound for definitions with infinite languages.
const LOWER_IMAGES: usize = 5;

pub fn graphs(seed: u64) -> Vec<EdgeList> {
    let mut rng = Rng::new(seed, 0x7e6e);
    (0..GRAPHS)
        .map(|_| {
            let mut g = EdgeList {
                nodes: NODES,
                edges: Vec::new(),
            };
            let mut seen = BTreeSet::new();
            for &a in b"abc" {
                add_regular_edges(&mut g, &mut seen, &mut rng, (0, NODES), a, 1);
            }
            g
        })
        .collect()
}

/// One query per fragment case, nine in all (an odd count, so the median
/// falls inside one query's latencies).
pub fn suite() -> Vec<ColdQuery> {
    let q = |name, text: &str| ColdQuery {
        name,
        text: text.to_string(),
        group: name == "simple_zabz",
        between: name == "simple_aplus",
    };
    vec![
        // Simple (Lemma 3), two endpoints: the group-binding case.
        q("simple_zabz", "ans(x, y) <- (x) -[ z{ab} z ]-> (y)"),
        // Simple with an infinite definition: checked between bounds.
        q("simple_aplus", "ans(x, y) <- (x) -[ z{a+} c z ]-> (y)"),
        // Simple, projected output.
        q("simple_proj", "ans(x) <- (x) -[ z{a|b} c z ]-> (y)"),
        // A variable shared across atoms.
        q(
            "shared",
            "ans(x, w) <- (x) -[ z{a|c} ]-> (y), (y) -[ b z ]-> (w)",
        ),
        // Vstar-free (Lemma 7): a reference under alternation.
        q("vsf_ref_alt", "ans(x, y) <- (x) -[ z{a|b} c (z|cc) ]-> (y)"),
        // Vstar-free: alternative definitions of one variable.
        q("vsf_def_alt", "ans(x, y) <- (x) -[ (z{a}|z{b}) c z ]-> (y)"),
        // General (Theorem 6) under ⊨≤k: references under `+`.
        q(
            "general_ref_plus",
            "ans(x, y) <- (x) -[ z{a|b} (z|c)+ ]-> (y)",
        ),
        q(
            "general_def_plus",
            "ans(x, y) <- (x) -[ z{(a|b)+} (z c)+ ]-> (y)",
        ),
        // The classical CRPQ that `simple_zabz` equals.
        q("crpq_abab", "ans(x, y) <- (x) -[ abab ]-> (y)"),
    ]
}

/// What each query's answers are checked against on one graph.
fn expect(q: &ColdQuery, rg: &RefGraph) -> Expect {
    let parsed = Query::parse(&q.text);
    let exact = |images| Expect::Exact(Digest::of_set(&reference::answers(&parsed, rg, images)));
    if q.name.starts_with("general") {
        // The bounded engine decides ⊨≤k exactly.
        return exact(Images::UpTo(BOUNDED_K));
    }
    if !q.between {
        return exact(Images::All);
    }
    Expect::Between(
        reference::answers(&parsed, rg, Images::UpTo(LOWER_IMAGES)),
        reference::upper(&parsed, rg),
    )
}

pub fn run(opts: Opts) -> Outcome {
    let gs = graphs(opts.seed);
    let texts: Vec<String> = gs.iter().map(|g| g.to_text(ALPHABET)).collect();
    let suite = suite();
    let mut tracer = Tracer::new(opts.trace, Instant::now());
    let (dbs, setup) = cold::load_graphs(&texts, &mut tracer);
    if !gs.iter().zip(&dbs).all(|(g, db)| cold::check_ids(g, db)) {
        eprintln!("node ids of the loaded graphs do not follow the text");
        std::process::exit(1);
    }
    cold::run(opts, &dbs, &suite, BOUNDED_K, setup, tracer, |gi, qi| {
        expect(&suite[qi], &RefGraph::new(&gs[gi]))
    })
}
