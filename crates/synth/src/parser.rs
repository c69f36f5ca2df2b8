//! A tiny expression language for stating datapaths as strings.
//!
//! ```text
//! acc = a*0.25 + b*0.5;
//! y   = acc + c*0.25
//! ```
//!
//! * Statements are `name = expr`, separated by newlines or `;`.
//! * `expr` supports `+ − * ( )` and unary minus with the usual
//!   precedence; `*` binds tighter than `+`/`−`.
//! * Free identifiers become primary inputs (in first-appearance order)
//!   with the caller's default [`InputFmt`].
//! * Bound names that no later statement reads become the graph outputs,
//!   in binding order.
//! * Numeric literals must be exact dyadic rationals (`0.25`, `2`,
//!   `1.5`); `0.1` is rejected rather than silently rounded. Every
//!   constant subexpression (`2 * 0.25`, `-(1 + 1)`) must have a numerator
//!   that fits an `i64` and at most 64 fractional bits.
//! * `#` starts a comment running to end of line.

use crate::ir::{Dfg, InputFmt, NodeId};
use ola_redundant::Q;
use std::collections::HashMap;
use std::fmt;

/// A parse failure: message plus byte offset into the source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub msg: String,
    /// Byte offset of the offending token.
    pub pos: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for ParseError {}

#[derive(Clone, Debug, PartialEq)]
enum Tok {
    Ident(String),
    Num(Q),
    Plus,
    Minus,
    Star,
    LParen,
    RParen,
    Eq,
    Sep,
}

/// Deepest accepted nesting of parentheses and unary minus: the parser
/// recurses once per level, so this bounds its stack use.
const MAX_NESTING: usize = 256;

fn err<T>(msg: impl Into<String>, pos: usize) -> Result<T, ParseError> {
    Err(ParseError { msg: msg.into(), pos })
}

fn tokenize(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '\n' | ';' => {
                toks.push((Tok::Sep, i));
                i += 1;
            }
            '+' => {
                toks.push((Tok::Plus, i));
                i += 1;
            }
            '-' => {
                toks.push((Tok::Minus, i));
                i += 1;
            }
            '*' => {
                toks.push((Tok::Star, i));
                i += 1;
            }
            '(' => {
                toks.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                toks.push((Tok::RParen, i));
                i += 1;
            }
            '=' => {
                toks.push((Tok::Eq, i));
                i += 1;
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push((Tok::Ident(src[start..i].to_owned()), start));
            }
            '0'..='9' => {
                let start = i;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let mut frac_digits = 0u32;
                if i < bytes.len() && bytes[i] == b'.' {
                    i += 1;
                    let fs = i;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    frac_digits = (i - fs) as u32;
                    if frac_digits == 0 {
                        return err("expected digits after decimal point", start);
                    }
                }
                toks.push((Tok::Num(parse_number(&src[start..i], frac_digits, start)?), start));
            }
            _ => return err(format!("unexpected character {c:?}"), i),
        }
    }
    Ok(toks)
}

/// Parses a decimal literal into an exact dyadic `Q`, rejecting values
/// (like `0.1`) that are not representable.
fn parse_number(text: &str, frac_digits: u32, pos: usize) -> Result<Q, ParseError> {
    let digits: String = text.chars().filter(char::is_ascii_digit).collect();
    let Ok(num) = digits.parse::<i128>() else {
        return err(format!("literal {text} out of range"), pos);
    };
    // value = num / 10^k = (num / 5^k) / 2^k: dyadic iff 5^k divides num.
    let mut five = 1i128;
    for _ in 0..frac_digits {
        five = five.checked_mul(5).ok_or(ParseError {
            msg: format!("literal {text} has too many fractional digits"),
            pos,
        })?;
    }
    if num % five != 0 {
        return err(
            format!("literal {text} is not an exact dyadic rational (try a power-of-two fraction)"),
            pos,
        );
    }
    if frac_digits > 120 {
        return err(format!("literal {text} has too many fractional digits"), pos);
    }
    Ok(Q::new(num / five, frac_digits))
}

/// The largest constant a datapath may carry: numerators must fit an
/// `i64` and scales stay within 64 fractional bits, so the exact products
/// `constant_fold` computes always fit [`Q`]'s `i128` numerator.
fn in_constant_range(q: Q) -> bool {
    i64::try_from(q.numerator()).is_ok() && q.scale() <= 64
}

/// The exact value of a constant subexpression: `None` for a node that is
/// not constant, `Some(None)` for one whose value overflows.
type ConstValue = Option<Option<Q>>;

struct Parser<'a> {
    toks: &'a [(Tok, usize)],
    i: usize,
    dfg: Dfg,
    default_fmt: InputFmt,
    bound: HashMap<String, NodeId>,
    bound_order: Vec<String>,
    inputs: HashMap<String, NodeId>,
    used: HashMap<String, bool>,
    /// Exact value of every constant subexpression — the nodes
    /// `constant_fold` collapses — so none can overflow there.
    consts: HashMap<NodeId, Q>,
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn pos(&self) -> usize {
        match self.toks.get(self.i) {
            Some(&(_, p)) => p,
            // Past the end: point just after the last token.
            None => self.toks.last().map_or(0, |&(_, p)| p + 1),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.i).map(|(t, _)| t.clone());
        self.i += 1;
        t
    }

    /// Both operands' constant values combined by `op`, when both are
    /// constant.
    fn fold2(&self, a: NodeId, b: NodeId, op: fn(Q, Q) -> Option<Q>) -> ConstValue {
        Some(op(*self.consts.get(&a)?, *self.consts.get(&b)?))
    }

    /// Records `id`'s constant value, rejecting one outside the constant
    /// range (`pos` is the offending token).
    fn record(&mut self, id: NodeId, value: ConstValue, pos: usize) -> Result<NodeId, ParseError> {
        match value {
            None => {}
            Some(Some(q)) if in_constant_range(q) => {
                self.consts.insert(id, q);
            }
            Some(_) => {
                return err(
                    "constant out of range (numerator must fit an i64, at most 64 fractional bits)",
                    pos,
                )
            }
        }
        Ok(id)
    }

    fn expr(&mut self, depth: usize) -> Result<NodeId, ParseError> {
        let mut lhs = self.term(depth)?;
        loop {
            let pos = self.pos();
            let (node, value) = match self.peek() {
                Some(Tok::Plus) => {
                    self.i += 1;
                    let rhs = self.term(depth)?;
                    (self.dfg.add(lhs, rhs), self.fold2(lhs, rhs, Q::checked_add))
                }
                Some(Tok::Minus) => {
                    self.i += 1;
                    let rhs = self.term(depth)?;
                    (self.dfg.sub(lhs, rhs), self.fold2(lhs, rhs, Q::checked_sub))
                }
                _ => return Ok(lhs),
            };
            lhs = self.record(node, value, pos)?;
        }
    }

    fn term(&mut self, depth: usize) -> Result<NodeId, ParseError> {
        let mut lhs = self.factor(depth)?;
        while matches!(self.peek(), Some(Tok::Star)) {
            let pos = self.pos();
            self.i += 1;
            let rhs = self.factor(depth)?;
            let is_zero = |n: NodeId| self.consts.get(&n).is_some_and(|q| q.is_zero());
            // `0 · x` folds to zero whether or not `x` is constant.
            let value = if is_zero(lhs) || is_zero(rhs) {
                Some(Some(Q::ZERO))
            } else {
                self.fold2(lhs, rhs, Q::checked_mul)
            };
            let node = self.dfg.mul(lhs, rhs);
            lhs = self.record(node, value, pos)?;
        }
        Ok(lhs)
    }

    fn factor(&mut self, depth: usize) -> Result<NodeId, ParseError> {
        let pos = self.pos();
        if depth == MAX_NESTING {
            return err(format!("expression nested deeper than {MAX_NESTING} levels"), pos);
        }
        match self.bump() {
            Some(Tok::Minus) => {
                let inner = self.factor(depth + 1)?;
                let value = self.consts.get(&inner).map(|q| q.checked_neg());
                let node = self.dfg.neg(inner);
                self.record(node, value, pos)
            }
            Some(Tok::LParen) => {
                let inner = self.expr(depth + 1)?;
                match self.bump() {
                    Some(Tok::RParen) => Ok(inner),
                    _ => err("expected ')'", pos),
                }
            }
            Some(Tok::Num(q)) => {
                let node = self.dfg.constant(q);
                self.record(node, Some(Some(q)), pos)
            }
            Some(Tok::Ident(name)) => Ok(self.resolve(&name)),
            _ => err("expected an operand", pos),
        }
    }

    fn resolve(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.bound.get(name) {
            self.used.insert(name.to_owned(), true);
            return id;
        }
        if let Some(&id) = self.inputs.get(name) {
            return id;
        }
        let id = self.dfg.input(name, self.default_fmt);
        self.inputs.insert(name.to_owned(), id);
        id
    }
}

/// Parses a datapath description into a [`Dfg`]. Free identifiers become
/// inputs with `default_fmt`; bound names never read by a later statement
/// become the outputs.
///
/// # Errors
///
/// Returns a [`ParseError`] on syntax errors, non-dyadic literals, a
/// constant subexpression out of the constant range, nesting
/// deeper than 256 levels, rebinding a name, shadowing an input, or a
/// program with no statements.
pub fn parse_dfg(src: &str, default_fmt: InputFmt) -> Result<Dfg, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks: &toks,
        i: 0,
        dfg: Dfg::new(),
        default_fmt,
        bound: HashMap::new(),
        bound_order: Vec::new(),
        inputs: HashMap::new(),
        used: HashMap::new(),
        consts: HashMap::new(),
    };
    loop {
        while matches!(p.peek(), Some(Tok::Sep)) {
            p.i += 1;
        }
        if p.peek().is_none() {
            break;
        }
        let pos = p.pos();
        let Some(Tok::Ident(name)) = p.bump() else {
            return err("expected `name = expr`", pos);
        };
        if p.bound.contains_key(&name) {
            return err(format!("{name:?} is bound twice"), pos);
        }
        if p.inputs.contains_key(&name) {
            return err(format!("{name:?} is already an input and cannot be rebound"), pos);
        }
        let eq_pos = p.pos();
        if !matches!(p.bump(), Some(Tok::Eq)) {
            return err("expected '='", eq_pos);
        }
        let node = p.expr(0)?;
        match p.peek() {
            None | Some(Tok::Sep) => {}
            _ => return err("expected end of statement", p.pos()),
        }
        p.bound.insert(name.clone(), node);
        p.bound_order.push(name);
    }
    if p.bound_order.is_empty() {
        return err("program has no statements", 0);
    }
    let mut dfg = p.dfg;
    for name in &p.bound_order {
        if !p.used.get(name).copied().unwrap_or(false) {
            dfg.mark_output(name, p.bound[name]);
        }
    }
    Ok(dfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Op;
    use ola_redundant::{BsVector, SdNumber};

    fn fmt4() -> InputFmt {
        InputFmt { msd_pos: 1, digits: 4 }
    }

    #[test]
    fn convolution_parses_to_expected_structure() {
        let d = parse_dfg("y = (a*g0 + b*g1 + c*g2)", fmt4()).unwrap();
        let names: Vec<&str> = d.inputs().iter().map(|&(_, n, _)| n).collect();
        assert_eq!(names, ["a", "g0", "b", "g1", "c", "g2"], "first-appearance order");
        assert_eq!(d.outputs().len(), 1);
        assert_eq!(d.outputs()[0].0, "y");
        let muls = d.nodes().filter(|(_, op)| matches!(op, Op::Mul(..))).count();
        let adds = d.nodes().filter(|(_, op)| matches!(op, Op::Add(..))).count();
        assert_eq!((muls, adds), (3, 2));
    }

    #[test]
    fn intermediate_bindings_are_not_outputs() {
        let d = parse_dfg("t = a + b; u = t + c; y = u + d", fmt4()).unwrap();
        assert_eq!(d.outputs().len(), 1);
        assert_eq!(d.outputs()[0].0, "y");
    }

    #[test]
    fn multiple_outputs_in_binding_order() {
        let d = parse_dfg("s = a + b\nd = a - b", fmt4()).unwrap();
        let names: Vec<&str> = d.outputs().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["s", "d"]);
    }

    #[test]
    fn literals_and_precedence() {
        // 0.5 + a·(−0.25) — '*' binds tighter, unary minus works.
        let d = parse_dfg("y = 0.5 + a * -0.25", fmt4()).unwrap();
        let q = Q::new(3, 2); // a = 3/4
        let sd = SdNumber::from_value(q, 4).unwrap();
        let _ = BsVector::from_sd(&sd);
        let got = d.eval_exact(&[q]);
        assert_eq!(got, vec![Q::new(1, 1) - q * Q::new(1, 2)]);
    }

    #[test]
    fn non_dyadic_literal_is_rejected() {
        let e = parse_dfg("y = 0.1 * a", fmt4()).unwrap_err();
        assert!(e.msg.contains("dyadic"), "{e}");
    }

    #[test]
    fn constants_out_of_the_i64_range_are_rejected() {
        let big = "99999999999999999999999999999999999999"; // fits i128, not i64
        let e = parse_dfg(&format!("y = a + {big}"), fmt4()).unwrap_err();
        assert!(e.msg.contains("out of range") && e.pos == 8, "{e}");
        // Each factor is in range; the product `constant_fold` would
        // compute is not.
        let e = parse_dfg("y = a + 4294967296 * 4294967296", fmt4()).unwrap_err();
        assert_eq!(e.pos, 19, "{e}");
        // `0 · a` folds to zero, so `(0·a + 2^32) · 2^32` folds to 2^64.
        assert!(parse_dfg("y = (0*a + 4294967296) * 4294967296", fmt4()).is_err());
        assert!(parse_dfg("y = (1*a + 4294967296) * 4294967296", fmt4()).is_ok());
        assert!(parse_dfg("y = a + (9223372036854775807 - -1)", fmt4()).is_err());
        assert!(parse_dfg("y = a + 9223372036854775807 * 1", fmt4()).is_ok());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("y = {}a{}", "-(".repeat(n), ")".repeat(n));
        assert!(parse_dfg(&deep(MAX_NESTING / 2 - 1), fmt4()).is_ok());
        let e = parse_dfg(&deep(MAX_NESTING), fmt4()).unwrap_err();
        assert!(e.msg.contains("nested"), "{e}");
    }

    #[test]
    fn rebinding_is_rejected() {
        assert!(parse_dfg("y = a; y = b", fmt4()).is_err());
        assert!(parse_dfg("y = a + b; a = c", fmt4()).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let d = parse_dfg("# gaussian\n\ny = a + b # tail\n", fmt4()).unwrap();
        assert_eq!(d.outputs().len(), 1);
    }

    #[test]
    fn syntax_errors_carry_positions() {
        let e = parse_dfg("y = a +", fmt4()).unwrap_err();
        assert!(e.pos <= 7);
        assert!(parse_dfg("= a", fmt4()).is_err());
        assert!(parse_dfg("y = (a", fmt4()).is_err());
        assert!(parse_dfg("", fmt4()).is_err());
    }
}
