//! The benchmark's own reading of the query text it sends to the program.
//!
//! Queries are written once, as text; the program receives that text and
//! the reference evaluator receives this module's parse of it. The parser
//! is written apart from the program's and accepts only the subset the
//! workloads use: one-letter labels, one-letter string variables (a letter
//! directly followed by `{` anywhere in the query), `|`, `+`, `*`,
//! parentheses and whitespace.

use std::collections::BTreeSet;

/// An edge-label expression with string variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Re {
    Sym(u8),
    Cat(Vec<Re>),
    Alt(Vec<Re>),
    Plus(Box<Re>),
    Star(Box<Re>),
    /// `z{body}`: binds string variable `z` to the word read by `body`.
    Def(u8, Box<Re>),
    /// A later occurrence of a string variable: reads its image again.
    Ref(u8),
}

impl Re {
    /// Every definition `(var, body)` in the expression.
    pub fn defs<'a>(&'a self, out: &mut Vec<(u8, &'a Re)>) {
        match self {
            Re::Sym(_) | Re::Ref(_) => {}
            Re::Def(z, body) => {
                out.push((*z, body));
                body.defs(out);
            }
            Re::Cat(v) | Re::Alt(v) => v.iter().for_each(|r| r.defs(out)),
            Re::Plus(r) | Re::Star(r) => r.defs(out),
        }
    }

    /// Whether the language of a variable-free expression is finite.
    pub fn is_finite(&self) -> bool {
        match self {
            Re::Sym(_) => true,
            Re::Cat(v) | Re::Alt(v) => v.iter().all(Re::is_finite),
            Re::Plus(_) | Re::Star(_) => false,
            Re::Def(_, b) => b.is_finite(),
            Re::Ref(_) => true,
        }
    }
}

/// One atom `(src) -[ re ]-> (dst)`, node variables as indices.
#[derive(Clone, Debug)]
pub struct Atom {
    pub src: usize,
    pub re: Re,
    pub dst: usize,
}

/// A parsed query: `ans(out…) <- atom, …`.
#[derive(Clone, Debug)]
pub struct Query {
    pub node_vars: Vec<String>,
    pub atoms: Vec<Atom>,
    pub output: Vec<usize>,
}

impl Query {
    pub fn parse(text: &str) -> Query {
        let (head, body) = text
            .split_once("<-")
            .unwrap_or_else(|| panic!("query without `<-`: {text}"));
        let head = head.trim();
        let inner = head
            .strip_prefix("ans(")
            .and_then(|h| h.strip_suffix(')'))
            .unwrap_or_else(|| panic!("bad head: {head}"));
        let mut node_vars: Vec<String> = Vec::new();
        let var_index = |name: &str, vars: &mut Vec<String>| -> usize {
            let name = name.trim();
            match vars.iter().position(|v| v == name) {
                Some(i) => i,
                None => {
                    vars.push(name.to_string());
                    vars.len() - 1
                }
            }
        };
        let output_names: Vec<&str> = inner
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect();

        // Atoms: `(src) -[ re ]-> (dst)` separated by commas outside brackets.
        let mut raw_atoms = Vec::new();
        let mut rest = body.trim();
        while !rest.is_empty() {
            let open = rest.find('(').expect("atom source");
            let close = rest.find(')').expect("atom source end");
            let src = &rest[open + 1..close];
            let after = &rest[close + 1..];
            let lb = after.find("-[").expect("atom label start");
            let rb = after.find("]->").expect("atom label end");
            let label = &after[lb + 2..rb];
            let after = &after[rb + 3..];
            let o2 = after.find('(').expect("atom target");
            let c2 = after.find(')').expect("atom target end");
            let dst = &after[o2 + 1..c2];
            raw_atoms.push((
                src.trim().to_string(),
                label.to_string(),
                dst.trim().to_string(),
            ));
            rest = after[c2 + 1..].trim_start();
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }

        // String variables: letters directly followed by `{` anywhere.
        let mut string_vars = BTreeSet::new();
        for (_, label, _) in &raw_atoms {
            let b = label.as_bytes();
            for i in 0..b.len() {
                if b[i].is_ascii_alphabetic() && b.get(i + 1) == Some(&b'{') {
                    string_vars.insert(b[i]);
                }
            }
        }
        let atoms = raw_atoms
            .iter()
            .map(|(s, label, d)| {
                let src = var_index(s, &mut node_vars);
                let dst = var_index(d, &mut node_vars);
                let mut p = ReParser {
                    b: label.as_bytes(),
                    i: 0,
                    vars: &string_vars,
                };
                let re = p.alt();
                p.skip_ws();
                assert!(p.i == p.b.len(), "trailing input in label {label:?}");
                Atom { src, re, dst }
            })
            .collect();
        let output = output_names
            .iter()
            .map(|n| {
                node_vars
                    .iter()
                    .position(|v| v == n)
                    .unwrap_or_else(|| panic!("output variable {n} not in body"))
            })
            .collect();
        Query {
            node_vars,
            atoms,
            output,
        }
    }
}

struct ReParser<'a> {
    b: &'a [u8],
    i: usize,
    vars: &'a BTreeSet<u8>,
}

impl ReParser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn alt(&mut self) -> Re {
        let mut branches = vec![self.cat()];
        while self.peek() == Some(b'|') {
            self.i += 1;
            branches.push(self.cat());
        }
        if branches.len() == 1 {
            branches.pop().expect("one branch")
        } else {
            Re::Alt(branches)
        }
    }

    fn cat(&mut self) -> Re {
        let mut items = Vec::new();
        while let Some(c) = self.peek() {
            if c == b'|' || c == b')' || c == b'}' {
                break;
            }
            items.push(self.post());
        }
        assert!(!items.is_empty(), "empty concatenation");
        if items.len() == 1 {
            items.pop().expect("one item")
        } else {
            Re::Cat(items)
        }
    }

    fn post(&mut self) -> Re {
        let mut r = self.atom();
        loop {
            match self.b.get(self.i) {
                Some(b'+') => r = Re::Plus(Box::new(r)),
                Some(b'*') => r = Re::Star(Box::new(r)),
                _ => return r,
            }
            self.i += 1;
        }
    }

    fn atom(&mut self) -> Re {
        let c = self.peek().expect("unexpected end of label");
        self.i += 1;
        match c {
            b'(' => {
                let r = self.alt();
                assert_eq!(self.peek(), Some(b')'), "missing `)`");
                self.i += 1;
                r
            }
            c if c.is_ascii_lowercase() && self.vars.contains(&c) => {
                if self.b.get(self.i) == Some(&b'{') {
                    self.i += 1;
                    let body = self.alt();
                    assert_eq!(self.peek(), Some(b'}'), "missing `}}`");
                    self.i += 1;
                    Re::Def(c, Box::new(body))
                } else {
                    Re::Ref(c)
                }
            }
            c if c.is_ascii_lowercase() => Re::Sym(c),
            other => panic!("unsupported label character {:?}", other as char),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_definitions_references_and_outputs() {
        let q = Query::parse("ans(x) <- (x) -[ z{a|b} c z ]-> (y), (y) -[ (ab)+ ]-> (x)");
        assert_eq!(q.node_vars, vec!["x", "y"]);
        assert_eq!(q.output, vec![0]);
        assert_eq!(q.atoms.len(), 2);
        let Re::Cat(items) = &q.atoms[0].re else {
            panic!("expected concatenation")
        };
        assert!(matches!(items[0], Re::Def(b'z', _)));
        assert_eq!(items[2], Re::Ref(b'z'));
        assert!(!q.atoms[1].re.is_finite());
    }
}
