//! The independent reference evaluator every answer is checked against.
//!
//! It shares no code with the program. It works on the benchmark's own
//! edge list with relational algebra over dense bit-matrix relations: a
//! label is its edge relation, concatenation is composition, alternation is
//! union and `+`/`*` is the transitive (reflexive) closure. String
//! variables are expanded one image at a time: under a mapping `σ` a
//! reference reads the word `σ(z)`, a definition `z{β}` reads `σ(z)` if
//! `σ(z) ∈ L(β)` and nothing otherwise, and the atoms' relations are joined
//! on their node variables. Every query the workloads use defines each of
//! its variables on every path through its atoms, so this expansion is
//! exact whenever the images considered are all the images there are.
//!
//! For definitions with infinitely many images the expansion up to a
//! length gives a lower bound; [`upper`] gives an upper bound by reading
//! each reference as its definition's body, which forgets the equality.

use crate::expr::{Query, Re};
use std::collections::{BTreeMap, BTreeSet};

/// An edge-labelled graph as the benchmark generated it.
#[derive(Clone, Debug)]
pub struct EdgeList {
    pub nodes: usize,
    /// `(source, label, target)`, labels as lowercase letters, no duplicates.
    pub edges: Vec<(u32, u8, u32)>,
}

impl EdgeList {
    /// The text format the program loads (`alphabet`, `node`, `edge` lines).
    /// Nodes are named `n<i>` and listed in order, so node `i` gets id `i`.
    pub fn to_text(&self, alphabet: &str) -> String {
        let mut s = String::with_capacity(16 * (self.nodes + self.edges.len()));
        s.push_str("alphabet");
        for c in alphabet.chars() {
            s.push(' ');
            s.push(c);
        }
        s.push('\n');
        for i in 0..self.nodes {
            s.push_str(&format!("node n{i}\n"));
        }
        for &(u, a, v) in &self.edges {
            s.push_str(&format!("edge n{u} {} n{v}\n", a as char));
        }
        s
    }
}

/// A binary relation over `n` nodes as an `n × n` bit matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rel {
    n: usize,
    w: usize,
    bits: Vec<u64>,
}

impl Rel {
    pub fn empty(n: usize) -> Rel {
        let w = n.div_ceil(64).max(1);
        Rel {
            n,
            w,
            bits: vec![0; n * w],
        }
    }

    pub fn identity(n: usize) -> Rel {
        let mut r = Rel::empty(n);
        for i in 0..n {
            r.set(i, i);
        }
        r
    }

    fn set(&mut self, u: usize, v: usize) {
        self.bits[u * self.w + v / 64] |= 1 << (v % 64);
    }

    pub fn get(&self, u: usize, v: usize) -> bool {
        self.bits[u * self.w + v / 64] >> (v % 64) & 1 == 1
    }

    fn row(&self, u: usize) -> &[u64] {
        &self.bits[u * self.w..(u + 1) * self.w]
    }

    fn row_mut(&mut self, u: usize) -> &mut [u64] {
        &mut self.bits[u * self.w..(u + 1) * self.w]
    }

    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&x| x == 0)
    }

    fn union_with(&mut self, o: &Rel) {
        for (a, b) in self.bits.iter_mut().zip(&o.bits) {
            *a |= b;
        }
    }

    fn intersect_with(&mut self, o: &Rel) {
        for (a, b) in self.bits.iter_mut().zip(&o.bits) {
            *a &= b;
        }
    }

    /// `{(u, w) | ∃v. (u, v) ∈ self ∧ (v, w) ∈ o}`.
    fn compose(&self, o: &Rel) -> Rel {
        let mut out = Rel::empty(self.n);
        for u in 0..self.n {
            let mut acc = vec![0u64; self.w];
            for v in ones(self.row(u)) {
                for (a, b) in acc.iter_mut().zip(o.row(v)) {
                    *a |= b;
                }
            }
            out.row_mut(u).copy_from_slice(&acc);
        }
        out
    }

    fn transpose(&self) -> Rel {
        let mut t = Rel::empty(self.n);
        for u in 0..self.n {
            for v in ones(self.row(u)) {
                t.set(v, u);
            }
        }
        t
    }

    /// Transitive closure, one breadth-first search per source.
    fn plus(&self) -> Rel {
        let adj: Vec<Vec<usize>> = (0..self.n).map(|u| ones(self.row(u)).collect()).collect();
        let mut out = Rel::empty(self.n);
        let mut stack = Vec::new();
        for s in 0..self.n {
            stack.clear();
            stack.extend(adj[s].iter().copied());
            while let Some(v) = stack.pop() {
                if out.get(s, v) {
                    continue;
                }
                out.set(s, v);
                stack.extend(adj[v].iter().copied().filter(|&w| !out.get(s, w)));
            }
        }
        out
    }

    fn mask_columns(&mut self, mask: &[u64]) {
        for u in 0..self.n {
            for (a, m) in self.row_mut(u).iter_mut().zip(mask) {
                *a &= m;
            }
        }
    }

    fn nonempty_rows(&self) -> Vec<u64> {
        let mut m = vec![0u64; self.w];
        for u in 0..self.n {
            if self.row(u).iter().any(|&x| x != 0) {
                m[u / 64] |= 1 << (u % 64);
            }
        }
        m
    }

    fn diagonal(&self) -> Vec<u64> {
        let mut m = vec![0u64; self.w];
        for u in 0..self.n {
            if self.get(u, u) {
                m[u / 64] |= 1 << (u % 64);
            }
        }
        m
    }
}

/// Indices of the set bits of a bit row.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(i, &word)| {
        let mut w = word;
        std::iter::from_fn(move || {
            if w == 0 {
                return None;
            }
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(i * 64 + b)
        })
    })
}

/// The graph's label relations, built once per graph.
pub struct RefGraph {
    n: usize,
    labels: BTreeMap<u8, Rel>,
}

impl RefGraph {
    pub fn new(g: &EdgeList) -> RefGraph {
        let mut labels: BTreeMap<u8, Rel> = BTreeMap::new();
        for &(u, a, v) in &g.edges {
            labels
                .entry(a)
                .or_insert_with(|| Rel::empty(g.nodes))
                .set(u as usize, v as usize);
        }
        RefGraph { n: g.nodes, labels }
    }

    fn label(&self, a: u8) -> Rel {
        self.labels
            .get(&a)
            .cloned()
            .unwrap_or_else(|| Rel::empty(self.n))
    }

    fn word(&self, w: &[u8]) -> Rel {
        w.iter()
            .fold(Rel::identity(self.n), |acc, &a| acc.compose(&self.label(a)))
    }

    /// The relation of `re` under the variable images `sigma`.
    fn eval(&self, re: &Re, sigma: &BTreeMap<u8, Vec<u8>>) -> Rel {
        match re {
            Re::Sym(a) => self.label(*a),
            Re::Cat(items) => items.iter().fold(Rel::identity(self.n), |acc, r| {
                acc.compose(&self.eval(r, sigma))
            }),
            Re::Alt(items) => {
                let mut out = Rel::empty(self.n);
                for r in items {
                    out.union_with(&self.eval(r, sigma));
                }
                out
            }
            Re::Plus(r) => self.eval(r, sigma).plus(),
            Re::Star(r) => {
                let mut out = self.eval(r, sigma).plus();
                out.union_with(&Rel::identity(self.n));
                out
            }
            Re::Ref(z) => self.word(image(sigma, *z)),
            Re::Def(z, body) => {
                let w = image(sigma, *z);
                if matches_word(body, w, sigma) {
                    self.word(w)
                } else {
                    Rel::empty(self.n)
                }
            }
        }
    }
}

fn image(sigma: &BTreeMap<u8, Vec<u8>>, z: u8) -> &[u8] {
    sigma
        .get(&z)
        .unwrap_or_else(|| panic!("no image for variable {}", z as char))
}

/// Whether `w ∈ L(re)` under `sigma`.
fn matches_word(re: &Re, w: &[u8], sigma: &BTreeMap<u8, Vec<u8>>) -> bool {
    ends(re, w, 0, sigma).contains(&w.len())
}

/// Positions in `w` where a match of `re` starting at `from` can end.
fn ends(re: &Re, w: &[u8], from: usize, sigma: &BTreeMap<u8, Vec<u8>>) -> BTreeSet<usize> {
    match re {
        Re::Sym(a) => (w.get(from) == Some(a))
            .then_some(from + 1)
            .into_iter()
            .collect(),
        Re::Cat(items) => items.iter().fold(BTreeSet::from([from]), |starts, r| {
            starts.iter().flat_map(|&s| ends(r, w, s, sigma)).collect()
        }),
        Re::Alt(items) => items.iter().flat_map(|r| ends(r, w, from, sigma)).collect(),
        Re::Plus(r) | Re::Star(r) => {
            let mut out: BTreeSet<usize> = BTreeSet::new();
            if matches!(re, Re::Star(_)) {
                out.insert(from);
            }
            let mut todo = vec![from];
            let mut seen = BTreeSet::from([from]);
            while let Some(s) = todo.pop() {
                for e in ends(r, w, s, sigma) {
                    out.insert(e);
                    if seen.insert(e) {
                        todo.push(e);
                    }
                }
            }
            out
        }
        Re::Ref(z) => {
            let img = image(sigma, *z);
            w[from..]
                .starts_with(img)
                .then_some(from + img.len())
                .into_iter()
                .collect()
        }
        Re::Def(z, body) => {
            let img = image(sigma, *z);
            if w[from..].starts_with(img) && matches_word(body, img, sigma) {
                BTreeSet::from([from + img.len()])
            } else {
                BTreeSet::new()
            }
        }
    }
}

/// The words of a variable-free expression up to length `max`.
fn words_upto(re: &Re, max: usize) -> BTreeSet<Vec<u8>> {
    match re {
        Re::Sym(a) if max >= 1 => BTreeSet::from([vec![*a]]),
        Re::Sym(_) => BTreeSet::new(),
        Re::Cat(items) => items.iter().fold(BTreeSet::from([vec![]]), |acc, r| {
            let next = words_upto(r, max);
            let mut out = BTreeSet::new();
            for p in &acc {
                for s in &next {
                    if p.len() + s.len() <= max {
                        out.insert([p.as_slice(), s.as_slice()].concat());
                    }
                }
            }
            out
        }),
        Re::Alt(items) => items.iter().flat_map(|r| words_upto(r, max)).collect(),
        Re::Plus(r) | Re::Star(r) => {
            let base = words_upto(r, max);
            let mut out: BTreeSet<Vec<u8>> = base.clone();
            let mut frontier = base.clone();
            while !frontier.is_empty() {
                let mut next = BTreeSet::new();
                for p in &frontier {
                    for s in &base {
                        if !s.is_empty() && p.len() + s.len() <= max {
                            let w = [p.as_slice(), s.as_slice()].concat();
                            if out.insert(w.clone()) {
                                next.insert(w);
                            }
                        }
                    }
                }
                frontier = next;
            }
            if matches!(re, Re::Star(_)) {
                out.insert(vec![]);
            }
            out
        }
        Re::Def(..) | Re::Ref(_) => panic!("definition bodies must be variable-free"),
    }
}

/// How many images per string variable the expansion considers.
#[derive(Clone, Copy, Debug)]
pub enum Images {
    /// Every image: each definition body must have a finite language.
    All,
    /// Images of length at most this (the `⊨≤k` reading, or a lower bound).
    UpTo(usize),
}

/// The query's answers: exact under [`Images::All`] and under the bounded
/// reading; a lower bound for infinite bodies under [`Images::UpTo`].
pub fn answers(q: &Query, g: &RefGraph, images: Images) -> BTreeSet<Vec<u32>> {
    let mut defs = Vec::new();
    for a in &q.atoms {
        a.re.defs(&mut defs);
    }
    // Images per variable: the union of its definitions' languages.
    let mut per_var: BTreeMap<u8, BTreeSet<Vec<u8>>> = BTreeMap::new();
    for (z, body) in defs {
        let max = match images {
            Images::All => {
                assert!(
                    body.is_finite(),
                    "Images::All needs finite definition bodies"
                );
                usize::MAX
            }
            Images::UpTo(k) => k,
        };
        per_var.entry(z).or_default().extend(words_upto(body, max));
    }
    let vars: Vec<(u8, Vec<Vec<u8>>)> = per_var
        .into_iter()
        .map(|(z, ws)| (z, ws.into_iter().collect()))
        .collect();

    let mut out = BTreeSet::new();
    let mut idx = vec![0usize; vars.len()];
    if vars.iter().any(|(_, ws)| ws.is_empty()) {
        return out;
    }
    loop {
        let sigma: BTreeMap<u8, Vec<u8>> = vars
            .iter()
            .zip(&idx)
            .map(|((z, ws), &i)| (*z, ws[i].clone()))
            .collect();
        let rels: Vec<(usize, usize, Rel)> = q
            .atoms
            .iter()
            .map(|a| (a.src, a.dst, g.eval(&a.re, &sigma)))
            .collect();
        if rels.iter().all(|(_, _, r)| !r.is_empty()) {
            out.extend(join(g.n, q.node_vars.len(), rels, &q.output));
        }
        // Next mapping (odometer).
        let mut k = 0;
        loop {
            if k == vars.len() {
                return out;
            }
            idx[k] += 1;
            if idx[k] < vars[k].1.len() {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

/// An upper bound on the query's answers: every reference is read as its
/// definition's body and every definition as its body, so the atoms become
/// classical and the equalities between them are dropped.
pub fn upper(q: &Query, g: &RefGraph) -> BTreeSet<Vec<u32>> {
    let mut defs = Vec::new();
    for a in &q.atoms {
        a.re.defs(&mut defs);
    }
    let mut bodies: BTreeMap<u8, Re> = BTreeMap::new();
    for (z, body) in defs {
        let merged = match bodies.remove(&z) {
            None => body.clone(),
            Some(Re::Alt(mut v)) => {
                v.push(body.clone());
                Re::Alt(v)
            }
            Some(prev) => Re::Alt(vec![prev, body.clone()]),
        };
        bodies.insert(z, merged);
    }
    fn relax(re: &Re, bodies: &BTreeMap<u8, Re>) -> Re {
        match re {
            Re::Sym(_) => re.clone(),
            Re::Cat(v) => Re::Cat(v.iter().map(|r| relax(r, bodies)).collect()),
            Re::Alt(v) => Re::Alt(v.iter().map(|r| relax(r, bodies)).collect()),
            Re::Plus(r) => Re::Plus(Box::new(relax(r, bodies))),
            Re::Star(r) => Re::Star(Box::new(relax(r, bodies))),
            Re::Def(_, body) => relax(body, bodies),
            Re::Ref(z) => relax(&bodies[z], bodies),
        }
    }
    let none = BTreeMap::new();
    let rels = q
        .atoms
        .iter()
        .map(|a| (a.src, a.dst, g.eval(&relax(&a.re, &bodies), &none)))
        .collect();
    join(g.n, q.node_vars.len(), rels, &q.output)
}

/// Joins binary relations on node variables and projects onto `output`.
///
/// Existential variables met by at most two relations are eliminated first
/// (composition, or a domain restriction); the remaining variables are
/// enumerated with bit-row intersections, output variables first, and the
/// remaining existential ones only checked for one extension.
fn join(
    n: usize,
    nvars: usize,
    atoms: Vec<(usize, usize, Rel)>,
    output: &[usize],
) -> BTreeSet<Vec<u32>> {
    let w = n.div_ceil(64).max(1);
    let full: Vec<u64> = {
        let mut m = vec![u64::MAX; w];
        if !n.is_multiple_of(64) {
            m[w - 1] = (1u64 << (n % 64)) - 1;
        }
        m
    };
    let mut unary: Vec<Vec<u64>> = vec![full.clone(); nvars];
    let mut cons: Vec<(usize, usize, Rel)> = Vec::new();
    for (s, d, r) in atoms {
        if s == d {
            and(&mut unary[s], &r.diagonal());
        } else {
            cons.push((s, d, r));
        }
    }
    let mut alive: Vec<bool> = vec![true; nvars];
    let is_out = |v: usize| output.contains(&v);

    // Variable elimination of low-degree existential variables.
    loop {
        let pick = (0..nvars).find(|&v| {
            alive[v] && !is_out(v) && cons.iter().filter(|c| c.0 == v || c.1 == v).count() <= 2
        });
        let Some(v) = pick else { break };
        alive[v] = false;
        let (touch, keep): (Vec<_>, Vec<_>) = cons.into_iter().partition(|c| c.0 == v || c.1 == v);
        cons = keep;
        if unary[v].iter().all(|&x| x == 0) {
            return BTreeSet::new();
        }
        // Orient every touching relation as (other, v).
        let mut toward: Vec<(usize, Rel)> = touch
            .into_iter()
            .map(|(s, d, r)| if d == v { (s, r) } else { (d, r.transpose()) })
            .collect();
        match toward.len() {
            0 => {}
            1 => {
                let (u, mut r) = toward.pop().expect("one relation");
                r.mask_columns(&unary[v]);
                let dom = r.nonempty_rows();
                and(&mut unary[u], &dom);
            }
            _ => {
                let (w_var, r2) = toward.pop().expect("two relations");
                let (u, mut r1) = toward.pop().expect("two relations");
                r1.mask_columns(&unary[v]);
                let via = r1.compose(&r2.transpose());
                if u == w_var {
                    and(&mut unary[u], &via.diagonal());
                } else {
                    cons.push((u, w_var, via));
                }
            }
        }
    }

    // Merge parallel relations on the same variable pair.
    let mut merged: Vec<(usize, usize, Rel)> = Vec::new();
    for (s, d, r) in cons {
        if let Some(m) = merged.iter_mut().find(|m| m.0 == s && m.1 == d) {
            m.2.intersect_with(&r);
        } else if let Some(m) = merged.iter_mut().find(|m| m.0 == d && m.1 == s) {
            m.2.intersect_with(&r.transpose());
        } else {
            merged.push((s, d, r));
        }
    }
    let transposed: Vec<Rel> = merged.iter().map(|c| c.2.transpose()).collect();

    // Order: output variables (connected ones first), then existential ones.
    let mut order: Vec<usize> = Vec::new();
    let remaining: Vec<usize> = (0..nvars).filter(|&v| alive[v]).collect();
    for group in [
        remaining
            .iter()
            .copied()
            .filter(|&v| is_out(v))
            .collect::<Vec<_>>(),
        remaining.iter().copied().filter(|&v| !is_out(v)).collect(),
    ] {
        let mut left = group;
        while !left.is_empty() {
            let pos = left
                .iter()
                .position(|&v| {
                    merged.iter().any(|c| {
                        (c.0 == v && order.contains(&c.1)) || (c.1 == v && order.contains(&c.0))
                    })
                })
                .unwrap_or(0);
            order.push(left.remove(pos));
        }
    }
    let n_out_bound = order.iter().filter(|&&v| is_out(v)).count();

    let mut out = BTreeSet::new();
    let mut binding = vec![usize::MAX; nvars];
    let ctx = Search {
        order: &order,
        unary: &unary,
        cons: &merged,
        transposed: &transposed,
        n_out_bound,
    };
    ctx.enumerate(0, &mut binding, &mut |b| {
        out.insert(output.iter().map(|&v| b[v] as u32).collect());
    });
    out
}

fn and(a: &mut [u64], b: &[u64]) {
    for (x, y) in a.iter_mut().zip(b) {
        *x &= y;
    }
}

struct Search<'a> {
    order: &'a [usize],
    unary: &'a [Vec<u64>],
    cons: &'a [(usize, usize, Rel)],
    transposed: &'a [Rel],
    n_out_bound: usize,
}

impl Search<'_> {
    fn candidates(&self, v: usize, binding: &[usize]) -> Vec<u64> {
        let mut c = self.unary[v].clone();
        for (i, (s, d, r)) in self.cons.iter().enumerate() {
            if *d == v && binding[*s] != usize::MAX {
                and(&mut c, r.row(binding[*s]));
            } else if *s == v && binding[*d] != usize::MAX {
                and(&mut c, self.transposed[i].row(binding[*d]));
            }
        }
        c
    }

    fn enumerate(&self, level: usize, binding: &mut Vec<usize>, emit: &mut impl FnMut(&[usize])) {
        if level == self.n_out_bound {
            if self.exists(level, binding) {
                emit(binding);
            }
            return;
        }
        let v = self.order[level];
        for x in ones(&self.candidates(v, binding)) {
            binding[v] = x;
            self.enumerate(level + 1, binding, emit);
        }
        binding[v] = usize::MAX;
    }

    fn exists(&self, level: usize, binding: &mut Vec<usize>) -> bool {
        if level == self.order.len() {
            return true;
        }
        let v = self.order[level];
        let mut found = false;
        for x in ones(&self.candidates(v, binding)) {
            binding[v] = x;
            if self.exists(level + 1, binding) {
                found = true;
                break;
            }
        }
        binding[v] = usize::MAX;
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(nodes: usize, edges: &[(u32, char, u32)]) -> RefGraph {
        RefGraph::new(&EdgeList {
            nodes,
            edges: edges.iter().map(|&(u, a, v)| (u, a as u8, v)).collect(),
        })
    }

    #[test]
    fn string_variable_equality_is_enforced() {
        // 0 -a-> 1 -b-> 2 -a-> 3 -b-> 4 and a detour 2 -b-> 5 -a-> 6.
        let g = graph(
            7,
            &[
                (0, 'a', 1),
                (1, 'b', 2),
                (2, 'a', 3),
                (3, 'b', 4),
                (2, 'b', 5),
                (5, 'a', 6),
            ],
        );
        let q = Query::parse("ans(x, y) <- (x) -[ z{ab|ba} z ]-> (y)");
        let got = answers(&q, &g, Images::All);
        assert_eq!(got, BTreeSet::from([vec![0, 4]]));
        // Forgetting the equality also admits `abba`.
        let up = upper(&q, &g);
        assert!(up.contains(&vec![0, 4]) && up.contains(&vec![0, 6]));
    }

    #[test]
    fn joins_project_and_close() {
        let g = graph(4, &[(0, 'a', 1), (1, 'a', 2), (2, 'b', 3), (1, 'b', 3)]);
        let q = Query::parse("ans(x) <- (x) -[ a+ ]-> (y), (y) -[ b ]-> (w)");
        assert_eq!(
            answers(&q, &g, Images::All),
            BTreeSet::from([vec![0], vec![1]])
        );
        let q2 = Query::parse("ans(x, w) <- (x) -[ a* ]-> (y), (y) -[ b ]-> (w)");
        assert_eq!(
            answers(&q2, &g, Images::All),
            BTreeSet::from([vec![0, 3], vec![1, 3], vec![2, 3]])
        );
    }

    #[test]
    fn bounded_images_grow_monotonically() {
        let g = graph(5, &[(0, 'a', 1), (1, 'a', 2), (2, 'c', 3), (3, 'a', 4)]);
        let q = Query::parse("ans(x, y) <- (x) -[ z{a+} c z ]-> (y)");
        assert!(answers(&q, &g, Images::UpTo(0)).is_empty());
        // z = a: 1 -a-> 2 -c-> 3 -a-> 4.
        assert_eq!(
            answers(&q, &g, Images::UpTo(1)),
            BTreeSet::from([vec![1, 4]])
        );
        assert_eq!(upper(&q, &g), BTreeSet::from([vec![0, 4], vec![1, 4]]));
    }
}
