//! `serve-mixed`: `cxrpq_cli::run_serve` on a loopback port, driven by two
//! closed-loop connections over a seeded request schedule.
//!
//! A round of one connection is ten requests in a seeded order:
//! - three repeated small-answer queries (answer hits once warm);
//! - three repeated queries whose answers exceed the cache's answer budget
//!   (plan hits: the parse and plan are reused, the answers recomputed);
//! - four never-repeating fresh queries (misses).
//!
//! Answer hits are 30% of requests, so the median falls inside the
//! evaluated requests and never on the boundary between the two modes.

use crate::common::{add_regular_edges, median, peak_rss_mb, setup_again, Opts, Outcome, Rng};
use crate::expr::Query;
use crate::layers::OUTCOME_ANSWER_HIT;
use crate::reference::{self, EdgeList, Images, RefGraph};
use crate::trace::Tracer;
use cxrpq_cli::{run_serve, ServeConfig};
use cxrpq_core::CacheConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::Instant;

const ALPHABET: &str = "abc";
const NODES: usize = 1000;
const CLIENTS: usize = 2;
/// Answer tuples a reply shows; the rest are counted, not sent.
const SHOWN: usize = 16;
/// Arity-2 answer sets above 512 tuples exceed this budget.
const ANSWER_BUDGET: usize = 16 * 1024;

/// Repeated queries with small answer sets: answer hits once warm.
const HOT: [&str; 6] = [
    "ans(x) <- (x) -[ abc ]-> (y), (y) -[ cba ]-> (x)",
    "ans(x, y) <- (x) -[ aa ]-> (y), (y) -[ bb ]-> (x)",
    "ans(x) <- (x) -[ abab ]-> (y), (y) -[ c ]-> (x)",
    "ans(x, y) <- (x) -[ (a|b)c ]-> (y), (y) -[ ca ]-> (x)",
    "ans(y) <- (x) -[ cc ]-> (y), (y) -[ aab ]-> (x)",
    "ans(x) <- (x) -[ a ]-> (y), (y) -[ b ]-> (z), (z) -[ c ]-> (x)",
];

/// Repeated queries whose answers exceed the budget: plan hits.
const PLANNED: [&str; 6] = [
    "ans(x, y) <- (x) -[ ab ]-> (y)",
    "ans(x, y) <- (x) -[ (a|b)c ]-> (y)",
    "ans(x, y) <- (x) -[ c(a|c) ]-> (y)",
    "ans(x, y) <- (x) -[ ab ]-> (y), (y) -[ c ]-> (w)",
    "ans(x, w) <- (x) -[ ba ]-> (y), (y) -[ a ]-> (w)",
    "ans(x, y) <- (x) -[ bca ]-> (y)",
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Hot,
    Planned,
    Fresh,
}

const ROUND: [Class; 10] = [
    Class::Hot,
    Class::Hot,
    Class::Hot,
    Class::Planned,
    Class::Planned,
    Class::Planned,
    Class::Fresh,
    Class::Fresh,
    Class::Fresh,
    Class::Fresh,
];

pub fn graph(seed: u64) -> EdgeList {
    let mut rng = Rng::new(seed, 0x5e7e);
    let mut g = EdgeList {
        nodes: NODES,
        edges: Vec::new(),
    };
    let mut seen = BTreeSet::new();
    for &a in b"abc" {
        add_regular_edges(&mut g, &mut seen, &mut rng, (0, NODES), a, 1);
    }
    g
}

/// The `i`-th fresh query: a distinct pair of five-letter words, in an
/// order permuted by the seed, so no text repeats within a run.
fn fresh_query(seed: u64, i: usize) -> String {
    const WORDS: usize = 243; // 3^5
    const PAIRS: usize = WORDS * (WORDS - 1) / 2;
    // A multiplier coprime to PAIRS = 3^5 · 11^2 permutes the pair indices.
    let mut mult = (seed as usize % 1000) * 2 + 1;
    while mult.is_multiple_of(3) || mult.is_multiple_of(11) {
        mult += 2;
    }
    let p = (i % PAIRS * mult + seed as usize) % PAIRS;
    // Unrank p into (w1 < w2).
    let (mut w1, mut rest) = (0, p);
    while rest >= WORDS - 1 - w1 {
        rest -= WORDS - 1 - w1;
        w1 += 1;
    }
    let w2 = w1 + 1 + rest;
    let word = |mut v: usize| {
        let mut s = String::new();
        for _ in 0..5 {
            s.push(['a', 'b', 'c'][v % 3]);
            v /= 3;
        }
        s
    };
    format!("ans(x, y) <- (x) -[ {}|{} ]-> (y)", word(w1), word(w2))
}

/// One reply as the client saw it.
struct Reply {
    query: String,
    class: Class,
    ok: bool,
    count: usize,
    sample: Vec<Vec<u32>>,
    outcome: String,
}

fn config() -> ServeConfig {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    cfg.cache = CacheConfig {
        shards: 8,
        capacity_per_shard: 32,
        answer_budget_bytes: ANSWER_BUDGET,
    };
    cfg
}

/// Starts the server on its own thread; returns the join handle, the bound
/// address and the time from the call to `on_ready`.
fn start(text: &str) -> (std::thread::JoinHandle<String>, SocketAddr, f64) {
    let (tx, rx) = mpsc::channel();
    let text = text.to_string();
    let handle = std::thread::spawn(move || {
        let t0 = Instant::now();
        run_serve(&text, config(), |addr| {
            tx.send((addr, t0.elapsed().as_secs_f64()))
                .expect("benchmark waits for on_ready");
        })
        .expect("server runs")
    });
    let (addr, ready) = rx.recv().expect("server became ready");
    (handle, addr, ready)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to server");
        writer.set_nodelay(true).expect("set TCP_NODELAY");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        Conn { reader, writer }
    }

    /// Sends one line and reads the framed reply (header, tuples, `.`).
    fn request(&mut self, line: &str) -> Vec<String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut lines = Vec::new();
        loop {
            let mut l = String::new();
            let n = self.reader.read_line(&mut l).expect("read reply");
            assert!(n > 0, "server closed the connection");
            let l = l.trim_end().to_string();
            if l == "." {
                break;
            }
            lines.push(l);
        }
        lines
    }
}

fn header_field<'a>(header: &'a str, key: &str) -> Option<&'a str> {
    header
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

/// Parses `(n1, n2)` into node ids.
fn tuple(line: &str) -> Option<Vec<u32>> {
    line.strip_prefix('(')?
        .strip_suffix(')')?
        .split(',')
        .map(|t| t.trim().strip_prefix('n')?.parse().ok())
        .collect()
}

fn stats(conn: &mut Conn) -> BTreeMap<String, f64> {
    conn.request("STATS")
        .iter()
        .filter_map(|l| l.split_once('='))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

/// One connection's closed loop: whole rounds until `seconds` have passed
/// since `start`.
fn client(
    addr: SocketAddr,
    opts: Opts,
    c: usize,
    start: Instant,
    origin: Instant,
) -> (Vec<Reply>, Vec<f64>, Tracer, f64) {
    let mut conn = Conn::open(addr);
    let mut rng = Rng::new(opts.seed, 0xc11e + c as u64);
    let mut tracer = Tracer::new(opts.trace, origin);
    let (mut replies, mut latencies) = (Vec::new(), Vec::new());
    let (mut hot, mut planned, mut fresh) = (c, c, c);
    let mut req = (c as u64) << 48;
    while start.elapsed().as_secs_f64() < opts.seconds {
        let mut round = ROUND;
        rng.shuffle(&mut round);
        for class in round {
            let query = match class {
                Class::Hot => {
                    hot += 1;
                    HOT[hot % HOT.len()].to_string()
                }
                Class::Planned => {
                    planned += 1;
                    PLANNED[planned % PLANNED.len()].to_string()
                }
                Class::Fresh => {
                    fresh += CLIENTS;
                    fresh_query(opts.seed, fresh)
                }
            };
            req += 1;
            let line = format!("--limit {SHOWN} {query}");
            let root = tracer.begin("bench.op", req);
            let sp = tracer.begin("serve.request", req);
            let t0 = Instant::now();
            let lines = conn.request(&line);
            let dt = t0.elapsed().as_secs_f64();
            tracer.end(sp);
            tracer.end(root);
            latencies.push(dt * 1e3);
            let header = lines.first().cloned().unwrap_or_default();
            let ok = header.starts_with("ok ");
            let outcome = header_field(&header, "cached").unwrap_or("").to_string();
            if let Some(us) =
                header_field(&header, "elapsed-us").and_then(|v| v.parse::<u64>().ok())
            {
                let child = tracer.child_of(sp, "cache.answers", us * 1000);
                let code = if outcome == "answer-hit" {
                    OUTCOME_ANSWER_HIT
                } else {
                    1.0
                };
                tracer.count(child, "outcome", code);
            }
            replies.push(Reply {
                query,
                class,
                ok,
                count: header_field(&header, "answers")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(usize::MAX),
                sample: lines.iter().skip(1).filter_map(|l| tuple(l)).collect(),
                outcome,
            });
        }
    }
    let _ = conn.request("QUIT");
    (replies, latencies, tracer, start.elapsed().as_secs_f64())
}

pub fn run(opts: Opts) -> Outcome {
    let g = graph(opts.seed);
    let text = g.to_text(ALPHABET);
    let origin = Instant::now();
    let mut tracer = Tracer::new(opts.trace, origin);

    // Set-up: server start (graph parse, build, freeze, bind) up to
    // `on_ready`, repeated; the last server stays up.
    let mut setup = Vec::new();
    let set_up = Instant::now();
    let (handle, addr) = loop {
        let (handle, addr, ready) = start(&text);
        setup.push(ready);
        if !setup_again(setup.len(), set_up) {
            break (handle, addr);
        }
        Conn::open(addr).request("SHUTDOWN");
        handle.join().expect("server thread");
    };

    // Warm the repeated queries once, outside the measured phase.
    let mut admin = Conn::open(addr);
    let mut warm_ok = true;
    for q in HOT.iter().chain(&PLANNED) {
        let lines = admin.request(&format!("--limit {SHOWN} {q}"));
        warm_ok &= lines.first().is_some_and(|h| h.starts_with("ok "));
    }
    let before = stats(&mut admin);

    let start_t = Instant::now();
    let results: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(addr, opts, c, start_t, origin)))
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let peak_rss_mb = peak_rss_mb();
    let after = stats(&mut admin);
    admin.request("SHUTDOWN");
    let report = handle.join().expect("server thread");
    eprintln!("{}", report.trim_end());

    let mut replies = Vec::new();
    let mut latencies = Vec::new();
    let mut wall: f64 = 0.0;
    for (r, l, t, w) in results {
        replies.extend(r);
        latencies.extend(l);
        tracer.absorb(t);
        wall = wall.max(w);
    }

    // Check every reply's count and shown tuples against the reference.
    let rg = RefGraph::new(&g);
    let mut expect: BTreeMap<String, BTreeSet<Vec<u32>>> = BTreeMap::new();
    let mut correct = warm_ok;
    let mut failed = 0;
    for r in &replies {
        if !r.ok {
            failed += 1;
            continue;
        }
        let compute = || reference::answers(&Query::parse(&r.query), &rg, Images::All);
        // Fresh queries occur once: their answers are not kept.
        let fresh;
        let want = if r.class == Class::Fresh {
            fresh = compute();
            &fresh
        } else {
            expect.entry(r.query.clone()).or_insert_with(compute)
        };
        if r.count != want.len() || !r.sample.iter().all(|t| want.contains(t)) {
            eprintln!("wrong reply to {} ({} answers)", r.query, r.count);
            correct = false;
        }
    }
    for class in [Class::Hot, Class::Planned, Class::Fresh] {
        let lat: Vec<f64> = replies
            .iter()
            .zip(&latencies)
            .filter(|(r, _)| r.class == class)
            .map(|(_, &l)| l)
            .collect();
        let outcomes: BTreeSet<&str> = replies
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.outcome.as_str())
            .collect();
        eprintln!(
            "  {class:?}: {} requests, median {:.3} ms, served as {outcomes:?}",
            lat.len(),
            median(&lat)
        );
    }

    let delta = |k: &str| after.get(k).unwrap_or(&0.0) - before.get(k).unwrap_or(&0.0);
    let lookups = delta("lookups");
    let hits = delta("answer-hits");
    let layer = vec![
        ("cache.lookups", lookups),
        ("cache.answer_hits", hits),
        ("cache.plan_hits", delta("plan-hits")),
        ("cache.misses", delta("misses")),
        ("cache.evictions", delta("evictions")),
        (
            "cache.answer_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        ),
        ("cache.survived_appends", delta("survived-appends")),
        ("cache.invalidated", delta("invalidated")),
    ];
    let n = latencies.len() as u64;
    // Edges loaded per second of server start: the workload does not append.
    let ingest_eps = g.edges.len() as f64 / median(&setup);
    Outcome {
        correct,
        attempted: n,
        failed,
        setup_s: setup,
        latencies_ms: latencies,
        round_ops: ROUND.len(),
        busy_s: wall,
        wall_s: wall,
        clients: CLIENTS,
        ingest_eps,
        peak_rss_mb,
        tracer,
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_queries_do_not_repeat() {
        let texts: BTreeSet<String> = (0..5000).map(|i| fresh_query(7, i)).collect();
        assert_eq!(texts.len(), 5000);
    }
}
