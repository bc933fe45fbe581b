//! `crpq-cold`: classical CRPQ shapes evaluated cold on one graph large
//! enough that batched reach frontiers cross the serial threshold
//! (`FrontierConfig::REACH_SERIAL_THRESHOLD` = 4096 cells), so the worker
//! pool shards them.
//!
//! The graph has four blocks on disjoint node ranges and labels:
//! - a random block with two `a` and one `b` out-edge per node and a rare
//!   `c` (star, chain);
//! - the AGM worst-case "spoke" triangle over `d`/`e`;
//! - a dense block of fixed shape, eight `f` and eight `g` out-edges per
//!   node, its nodes numbered by the seed (cyclic cores);
//! - a long alternating `h`/`i` path (the projected line).

use crate::cold::{self, ColdQuery};
use crate::common::{add_random_edges, add_regular_edges, Digest, Expect, Opts, Outcome, Rng};
use crate::expr::Query;
use crate::reference::{self, EdgeList, Images, RefGraph};
use crate::trace::Tracer;
use std::collections::BTreeSet;
use std::time::Instant;

const ALPHABET: &str = "abcdefghi";
const RANDOM_NODES: usize = 4800;
const SPOKES: usize = 300;
const DENSE_NODES: usize = 240;
const LINE_NODES: usize = 240;

/// The seeded graph.
pub fn graph(seed: u64) -> EdgeList {
    let mut rng = Rng::new(seed, 0xc4b0);
    let n = RANDOM_NODES + 3 * SPOKES + DENSE_NODES + LINE_NODES;
    let mut g = EdgeList {
        nodes: n,
        edges: Vec::new(),
    };
    let mut seen = BTreeSet::new();
    let random = (0, RANDOM_NODES);
    add_regular_edges(&mut g, &mut seen, &mut rng, random, b'a', 2);
    add_regular_edges(&mut g, &mut seen, &mut rng, random, b'b', 1);
    add_random_edges(&mut g, &mut seen, &mut rng, random, b"c", RANDOM_NODES / 40);

    // Spoke triangle: x₀ reaches every y and every x reaches y₀ (likewise
    // y→z by `e`, z→x by `d`): every pairwise join is quadratic, the
    // triangle output linear.
    let base = RANDOM_NODES as u32;
    let m = SPOKES as u32;
    let (x, y, z) = (
        |i: u32| base + i,
        |i: u32| base + m + i,
        |i: u32| base + 2 * m + i,
    );
    for i in 0..m {
        for e in [
            (x(0), b'd', y(i)),
            (x(i), b'd', y(0)),
            (y(0), b'e', z(i)),
            (y(i), b'e', z(0)),
            (z(0), b'd', x(i)),
            (z(i), b'd', x(0)),
        ] {
            if seen.insert(e) {
                g.edges.push(e);
            }
        }
    }

    // The dense block's shape is drawn once, from a fixed stream, and the
    // seed only renumbers its nodes: what the cyclic cores cost depends on
    // how many short cycles the block holds, which a fresh draw per seed
    // moves by a fifth.
    let dense_lo = RANDOM_NODES + 3 * SPOKES;
    let mut shape = EdgeList {
        nodes: DENSE_NODES,
        edges: Vec::new(),
    };
    let mut shape_rng = Rng::new(0, 0xde45e);
    for &a in b"fg" {
        add_regular_edges(
            &mut shape,
            &mut BTreeSet::new(),
            &mut shape_rng,
            (0, DENSE_NODES),
            a,
            8,
        );
    }
    let mut renumber: Vec<u32> = (dense_lo as u32..(dense_lo + DENSE_NODES) as u32).collect();
    rng.shuffle(&mut renumber);
    g.edges.extend(
        shape
            .edges
            .iter()
            .map(|&(u, a, v)| (renumber[u as usize], a, renumber[v as usize])),
    );

    let line_lo = (dense_lo + DENSE_NODES) as u32;
    for i in 0..LINE_NODES as u32 - 1 {
        let label = if i % 2 == 0 { b'h' } else { b'i' };
        g.edges.push((line_lo + i, label, line_lo + i + 1));
    }
    g
}

/// The query shapes, one of each per round (an odd count, so the median
/// falls inside one shape's latencies rather than between two).
pub fn suite() -> Vec<ColdQuery> {
    let q = |name, text: &str| ColdQuery {
        name,
        text: text.to_string(),
        group: false,
        between: false,
    };
    vec![
        q(
            "star",
            "ans(x, y3) <- (x) -[ ab ]-> (y1), (x) -[ ba ]-> (y2), (x) -[ c ]-> (y3)",
        ),
        q(
            "star_proj",
            "ans(x) <- (x) -[ ab ]-> (y1), (x) -[ ba ]-> (y2), (x) -[ ab|ba ]-> (y3), (x) -[ c ]-> (y4)",
        ),
        q(
            "chain",
            "ans(x1, x4) <- (x1) -[ ab ]-> (x2), (x2) -[ ba ]-> (x3), (x3) -[ c ]-> (x4)",
        ),
        q(
            "line_proj",
            "ans(x) <- (x) -[ (hi)+ ]-> (y), (y) -[ (hi)+ ]-> (z)",
        ),
        q(
            "triangle",
            "ans(x, y, z) <- (x) -[ d ]-> (y), (y) -[ e ]-> (z), (z) -[ d ]-> (x)",
        ),
        q(
            "diamond_dense",
            "ans(x, w) <- (x) -[ f ]-> (y), (y) -[ g ]-> (w), (x) -[ g ]-> (z), (z) -[ f ]-> (w)",
        ),
        q(
            "clique4",
            "ans(x, w) <- (x) -[ f ]-> (y), (x) -[ g ]-> (z), (x) -[ f ]-> (w), (y) -[ g ]-> (z), (y) -[ f ]-> (w), (z) -[ g ]-> (w)",
        ),
    ]
}

pub fn run(opts: Opts) -> Outcome {
    let g = graph(opts.seed);
    let text = g.to_text(ALPHABET);
    let suite = suite();
    let mut tracer = Tracer::new(opts.trace, Instant::now());
    let (dbs, setup) = cold::load_graphs(std::slice::from_ref(&text), &mut tracer);
    if !cold::check_ids(&g, &dbs[0]) {
        eprintln!("node ids of the loaded graph do not follow the text");
        std::process::exit(1);
    }
    let rg = std::cell::OnceCell::new();
    cold::run(opts, &dbs, &suite, 3, setup, tracer, |_, qi| {
        let rg = rg.get_or_init(|| RefGraph::new(&g));
        let want = reference::answers(&Query::parse(&suite[qi].text), rg, Images::All);
        Expect::Exact(Digest::of_set(&want))
    })
}
