//! Backtracking matcher with capture extraction and a step budget.
//!
//! The AST is flattened once, when its [`crate::Regex`] is built, into a
//! linear `Program` of `Op`s; matching is a depth-first search over
//! that program. Possessive quantifiers are honoured: once a
//! `++`-quantified class consumes characters, the matcher never re-enters
//! it to give characters back.

use crate::ast::{Ast, Quant};
use crate::class::CharClass;
use std::fmt;
use std::ops::{Deref, DerefMut};

/// Default number of matcher steps allowed per attempt. Hostnames are at
/// most 253 bytes, and learned patterns contain at most one `.+`, so real
/// workloads use a few thousand steps; the budget only exists to bound
/// adversarial patterns.
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Matching failed structurally (not "no match": an execution error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatchError {
    /// The step budget was exhausted; the pattern is pathological for this
    /// input.
    BudgetExhausted,
}

impl fmt::Display for MatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchError::BudgetExhausted => write!(f, "regex step budget exhausted"),
        }
    }
}

impl std::error::Error for MatchError {}

/// Capture slots for group 0 plus the ≤ 4 groups learned regexes use
/// live inline; a pattern with more groups spills to the heap.
const INLINE_SLOTS: usize = 5;

/// One slot per capture group, inline up to [`INLINE_SLOTS`].
#[derive(Debug, Clone, PartialEq, Eq)]
enum Slots<T> {
    Inline(usize, [T; INLINE_SLOTS]),
    Heap(Vec<T>),
}

impl<T: Copy> Slots<T> {
    fn new(len: usize, fill: T) -> Slots<T> {
        if len <= INLINE_SLOTS {
            Slots::Inline(len, [fill; INLINE_SLOTS])
        } else {
            Slots::Heap(vec![fill; len])
        }
    }
}

impl<T> Deref for Slots<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Slots::Inline(len, a) => &a[..*len],
            Slots::Heap(v) => v,
        }
    }
}

impl<T> DerefMut for Slots<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Slots::Inline(len, a) => &mut a[..*len],
            Slots::Heap(v) => v,
        }
    }
}

/// Capture spans for a successful match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captures<'t> {
    text: &'t str,
    /// `spans[0]` is the whole match; group *i* is `spans[i]`.
    spans: Slots<Option<(usize, usize)>>,
}

impl<'t> Captures<'t> {
    /// Text of group `i` (0 = whole match), or `None` if it did not
    /// participate.
    pub fn get(&self, i: usize) -> Option<&'t str> {
        let (s, e) = self.span(i)?;
        Some(&self.text[s..e])
    }

    /// Byte span of group `i`.
    pub fn span(&self, i: usize) -> Option<(usize, usize)> {
        *self.spans.get(i)?
    }

    /// Number of groups, including group 0.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if there are no explicit capture groups.
    pub fn is_empty(&self) -> bool {
        self.spans.len() <= 1
    }

    /// All explicit group texts in order (group 1..n); unmatched groups are
    /// skipped.
    pub fn groups(&self) -> Vec<&'t str> {
        (1..self.spans.len()).filter_map(|i| self.get(i)).collect()
    }
}

/// One instruction of the flattened program.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    /// Match this literal byte string.
    Lit(Vec<u8>),
    /// Match `min..=max` repetitions of the class (greedy; possessive if
    /// flagged).
    Rep { class: CharClass, q: Quant },
    /// Record the start of capture group `idx`.
    Open(usize),
    /// Record the end of capture group `idx`.
    Close(usize),
}

fn flatten(ast: &Ast, out: &mut Vec<Op>, next_group: &mut usize) {
    match ast {
        Ast::Seq(items) => {
            for it in items {
                flatten(it, out, next_group);
            }
        }
        Ast::Literal(s) => out.push(Op::Lit(s.as_bytes().to_vec())),
        Ast::Class(c, q) => out.push(Op::Rep {
            class: c.clone(),
            q: *q,
        }),
        Ast::Capture(inner) => {
            *next_group += 1;
            let idx = *next_group;
            out.push(Op::Open(idx));
            flatten(inner, out, next_group);
            out.push(Op::Close(idx));
        }
    }
}

/// The flattened form of an [`Ast`], built once per [`crate::Regex`] and
/// run by every match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Program {
    ops: Vec<Op>,
    /// Capture groups, excluding group 0.
    groups: usize,
}

impl Program {
    /// Flatten `ast` into a linear program.
    pub(crate) fn compile(ast: &Ast) -> Program {
        let (mut ops, mut groups) = (Vec::new(), 0);
        flatten(ast, &mut ops, &mut groups);
        Program { ops, groups }
    }
}

struct Machine<'p, 't> {
    prog: &'p [Op],
    text: &'t [u8],
    anchored_end: bool,
    budget: u64,
    caps: Slots<Option<(usize, usize)>>,
    /// Scratch open positions per group.
    open_at: Slots<usize>,
}

impl<'p, 't> Machine<'p, 't> {
    /// Try to match `prog[pc..]` starting at `pos`; returns end position of
    /// the whole match on success.
    fn run(&mut self, pc: usize, pos: usize) -> Result<Option<usize>, MatchError> {
        if self.budget == 0 {
            return Err(MatchError::BudgetExhausted);
        }
        self.budget -= 1;

        let Some(op) = self.prog.get(pc) else {
            // End of program: succeed if we don't require end anchoring or
            // we've consumed everything.
            return Ok(if !self.anchored_end || pos == self.text.len() {
                Some(pos)
            } else {
                None
            });
        };

        match op {
            Op::Lit(bytes) => {
                if self.text[pos..].starts_with(bytes) {
                    self.run(pc + 1, pos + bytes.len())
                } else {
                    Ok(None)
                }
            }
            Op::Open(idx) => {
                let prev = self.open_at[*idx];
                self.open_at[*idx] = pos;
                let r = self.run(pc + 1, pos)?;
                if r.is_none() {
                    self.open_at[*idx] = prev;
                }
                Ok(r)
            }
            Op::Close(idx) => {
                let prev = self.caps[*idx];
                self.caps[*idx] = Some((self.open_at[*idx], pos));
                let r = self.run(pc + 1, pos)?;
                if r.is_none() {
                    self.caps[*idx] = prev;
                }
                Ok(r)
            }
            Op::Rep { class, q } => {
                // Count the maximum greedy extent.
                let mut n = 0usize;
                let limit = q.max.map(|m| m as usize).unwrap_or(usize::MAX);
                while n < limit && pos + n < self.text.len() && class.matches(self.text[pos + n]) {
                    n += 1;
                }
                if n < q.min as usize {
                    return Ok(None);
                }
                if q.possessive {
                    // Possessive: commit to the greedy extent.
                    return self.run(pc + 1, pos + n);
                }
                // Greedy with backtracking: longest first.
                let mut take = n;
                loop {
                    if let Some(end) = self.run(pc + 1, pos + take)? {
                        return Ok(Some(end));
                    }
                    if take == q.min as usize {
                        return Ok(None);
                    }
                    take -= 1;
                }
            }
        }
    }
}

/// Run `prog` against `text`, honouring the anchor flags, and return the
/// captures of the leftmost match. Nothing is allocated unless the
/// pattern has more capture groups than fit inline.
pub(crate) fn find<'t>(
    prog: &Program,
    text: &'t str,
    anchored_start: bool,
    anchored_end: bool,
    budget: u64,
) -> Result<Option<Captures<'t>>, MatchError> {
    let bytes = text.as_bytes();
    let slots = prog.groups + 1;
    let last_start = if anchored_start { 0 } else { bytes.len() };
    for start in 0..=last_start {
        let mut m = Machine {
            prog: &prog.ops,
            text: bytes,
            anchored_end,
            budget,
            caps: Slots::new(slots, None),
            open_at: Slots::new(slots, 0),
        };
        if let Some(end) = m.run(0, start)? {
            let mut spans = m.caps;
            spans[0] = Some((start, end));
            return Ok(Some(Captures { text, spans }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Regex;

    fn caps(pat: &str, text: &str) -> Option<Vec<String>> {
        let re = Regex::parse(pat).unwrap();
        re.captures(text)
            .unwrap()
            .map(|c| c.groups().iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn simple_literal() {
        assert!(Regex::parse("^abc$").unwrap().is_match("abc"));
        assert!(!Regex::parse("^abc$").unwrap().is_match("abcd"));
        assert!(!Regex::parse("^abc$").unwrap().is_match("xabc"));
    }

    #[test]
    fn greedy_backtracks() {
        // .+ must give back characters so the literal can match.
        let got = caps(r"^.+\.([a-z]{3})\d+\.x$", "a.b.sfo16.x").unwrap();
        assert_eq!(got, vec!["sfo"]);
    }

    #[test]
    fn possessive_does_not_backtrack() {
        // [a-z]++ swallows all letters and never gives any back, so a
        // following letter literal cannot match.
        let re = Regex::parse(r"^[a-z]++z$").unwrap();
        assert!(!re.is_match("aaaz"));
        // ...but a following digit is fine.
        let re = Regex::parse(r"^[a-z]++\d$").unwrap();
        assert!(re.is_match("abc7"));
    }

    #[test]
    fn bounded_repetition() {
        let re = Regex::parse(r"^[a-z]{3}$").unwrap();
        assert!(re.is_match("abc"));
        assert!(!re.is_match("ab"));
        assert!(!re.is_match("abcd"));
        let re = Regex::parse(r"^[a-z]{2,4}$").unwrap();
        assert!(!re.is_match("a"));
        assert!(re.is_match("ab"));
        assert!(re.is_match("abcd"));
        assert!(!re.is_match("abcde"));
    }

    #[test]
    fn star_and_opt() {
        let re = Regex::parse(r"^a\d*b$").unwrap();
        assert!(re.is_match("ab"));
        assert!(re.is_match("a123b"));
        let re = Regex::parse(r"^a\d?b$").unwrap();
        assert!(re.is_match("ab"));
        assert!(re.is_match("a1b"));
        assert!(!re.is_match("a12b"));
    }

    #[test]
    fn capture_spans() {
        let re = Regex::parse(r"^([a-z]+)-(\d+)$").unwrap();
        let c = re.captures("core-42").unwrap().unwrap();
        assert_eq!(c.get(0), Some("core-42"));
        assert_eq!(c.get(1), Some("core"));
        assert_eq!(c.get(2), Some("42"));
        assert_eq!(c.span(1), Some((0, 4)));
        assert_eq!(c.span(2), Some((5, 7)));
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn unanchored_search_finds_leftmost() {
        let re = Regex::parse(r"([a-z]{3})\d").unwrap();
        let c = re.captures("x9.abc1.def2").unwrap().unwrap();
        assert_eq!(c.get(1), Some("abc"));
    }

    #[test]
    fn backtracking_across_multiple_variable_components() {
        let got = caps(
            r"^[^\.]+\.([a-z]+)\d*\.([a-z]{2})\.alter\.net$",
            "a.frankfurt.de.alter.net",
        )
        .unwrap();
        assert_eq!(got, vec!["frankfurt", "de"]);
    }

    #[test]
    fn budget_error_on_pathological_pattern() {
        // Massive nested ambiguity via many unbounded overlapping classes.
        let pat = format!("^{}z$", "[^-]+".repeat(24));
        let re = Regex::parse(&pat).unwrap();
        let long = "a".repeat(200);
        match re.captures(&long) {
            Err(MatchError::BudgetExhausted) => {}
            Ok(None) => {} // acceptable: finished within budget, no match
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_pattern_matches_empty() {
        let re = Regex::parse("^$").unwrap();
        assert!(re.is_match(""));
        assert!(!re.is_match("a"));
    }

    #[test]
    fn group_not_set_on_failed_branch() {
        // Group participates only if the overall match succeeds through it.
        let re = Regex::parse(r"^([a-z]+)\d$").unwrap();
        assert!(re.captures("abc").unwrap().is_none());
    }
}
