//! Seeded generation, statistics and the shape of a workload's result.

use crate::reference::EdgeList;
use crate::trace::Tracer;
use std::collections::BTreeSet;

/// SplitMix64: small, seedable, the same on every platform.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Adds `count` distinct random edges on nodes `lo..hi` with labels drawn
/// from `labels`, skipping edges already in `seen`.
pub fn add_random_edges(
    g: &mut EdgeList,
    seen: &mut BTreeSet<(u32, u8, u32)>,
    rng: &mut Rng,
    (lo, hi): (usize, usize),
    labels: &[u8],
    count: usize,
) {
    let mut added = 0;
    while added < count {
        let u = (lo + rng.below(hi - lo)) as u32;
        let v = (lo + rng.below(hi - lo)) as u32;
        let a = labels[rng.below(labels.len())];
        if seen.insert((u, a, v)) {
            g.edges.push((u, a, v));
            added += 1;
        }
    }
}

/// Gives every node of `lo..hi` exactly `per_node` out-edges labelled
/// `label`, to distinct random targets. Fixed out-degrees keep the number
/// of paths per word, and so the cost of a query, close across seeds.
pub fn add_regular_edges(
    g: &mut EdgeList,
    seen: &mut BTreeSet<(u32, u8, u32)>,
    rng: &mut Rng,
    (lo, hi): (usize, usize),
    label: u8,
    per_node: usize,
) {
    for u in lo..hi {
        let mut added = 0;
        while added < per_node {
            let e = (u as u32, label, (lo + rng.below(hi - lo)) as u32);
            if seen.insert(e) {
                g.edges.push(e);
                added += 1;
            }
        }
    }
}

/// The `q`-quantile of `v` (linear interpolation), `0.0` when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A run sets up at least this many times and for at least
/// [`SETUP_SECONDS`]; `setup_s` is the median of the repetitions.
pub const SETUP_REPS: usize = 15;
pub const SETUP_SECONDS: f64 = 3.0;

/// Whether a set-up loop that has made `reps` repetitions since `start`
/// should make another.
pub fn setup_again(reps: usize, start: std::time::Instant) -> bool {
    reps < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_SECONDS
}

/// Operations a window of [`windowed_p99`] holds at least.
pub const WINDOW_OPS: usize = 500;

/// The run's tail latency. The latencies, in the order measured, are cut
/// into windows of whole rounds (`round_ops` operations each) holding at
/// least [`WINDOW_OPS`] operations, the remainder joining the last window;
/// the result is the median of the windows' 99th percentiles, so a burst
/// of outside load over less than half the run does not set it.
pub fn windowed_p99(lat: &[f64], round_ops: usize) -> f64 {
    let w = WINDOW_OPS.div_ceil(round_ops.max(1)) * round_ops.max(1);
    let n = (lat.len() / w).max(1);
    let p99s: Vec<f64> = (0..n)
        .map(|i| {
            let end = if i + 1 == n { lat.len() } else { (i + 1) * w };
            quantile(&lat[i * w..end], 0.99)
        })
        .collect();
    median(&p99s)
}

/// Run options shared by every workload.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Latency of every completed query, in milliseconds, in the order
    /// measured (one client's after the other's).
    pub latencies_ms: Vec<f64>,
    /// Queries per round of one client: windows of `latency_p99_ms` hold
    /// whole rounds.
    pub round_ops: usize,
    /// Time the measured phase spent in the program, in seconds.
    pub busy_s: f64,
    /// Wall-clock length of the measured phase, checks included, in seconds.
    pub wall_s: f64,
    /// Client threads that shared the measured phase.
    pub clients: usize,
    /// Edges taken into the graph per second: appended edges (compaction
    /// included) on `ingest-stream`; on the workloads that do not append,
    /// the edges of their set-up over its median time.
    pub ingest_eps: f64,
    /// Peak resident set size at the end of the measured phase, in MiB.
    pub peak_rss_mb: f64,
    pub tracer: Tracer,
    /// Per-layer values the workload read from the program directly.
    pub layer: Vec<(&'static str, f64)>,
}

/// A digest of an answer relation in sorted order: its size and an FNV-1a
/// hash of its tuples. Answers are digested during the measured phase and
/// compared with the reference afterwards, so neither the reference's
/// memory nor its time lands in the measured process's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    pub count: usize,
    hash: u64,
}

impl Digest {
    pub fn of<T, I>(tuples: I) -> Digest
    where
        I: IntoIterator<Item = T>,
        T: IntoIterator<Item = u32>,
    {
        let mut count = 0;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for t in tuples {
            count += 1;
            for x in t {
                for b in x.to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            hash = (hash ^ 0xff).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Digest { count, hash }
    }

    pub fn of_set(set: &BTreeSet<Vec<u32>>) -> Digest {
        Digest::of(set.iter().map(|t| t.iter().copied()))
    }
}

/// What an answer relation is checked against.
pub enum Expect {
    /// The reference's answers exactly.
    Exact(Digest),
    /// Between the reference up to an image length and its relaxation.
    Between(BTreeSet<Vec<u32>>, BTreeSet<Vec<u32>>),
}

impl Expect {
    /// Whether an answer relation with digest `got` (and, for bounds, the
    /// relation itself) satisfies the expectation.
    pub fn admits(&self, got: Digest, set: Option<&BTreeSet<Vec<u32>>>) -> bool {
        match self {
            Expect::Exact(want) => got == *want,
            Expect::Between(lo, hi) => {
                set.is_some_and(|s| Digest::of_set(s) == got && lo.is_subset(s) && s.is_subset(hi))
            }
        }
    }
}
