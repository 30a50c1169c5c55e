//! Text syntax for MSO formulas.
//!
//! Grammar (precedence low → high): `<->`, `->`, `|`, `&`, `!`, atoms.
//!
//! ```text
//! phi := 'ex' v '.' phi | 'all' v '.' phi
//!      | 'ex2' V '.' phi | 'all2' V '.' phi
//!      | phi '<->' phi | phi '->' phi | phi '|' phi | phi '&' phi
//!      | '!' phi | '(' phi ')'
//!      | 'label(' v ',' name ')' | 'edge(' v ',' v ')'
//!      | v '<' v | v '=' v | v 'in' V
//!      | 'root(' v ')' | 'leaf(' v ')' | 'true' | 'false'
//! ```
//!
//! Label names are resolved against (and interned into) the given alphabet.
//! Nesting — parentheses, `!`, quantifier bodies and `->` chains — is bounded
//! by [`MAX_DEPTH`], so a hostile formula is a parse error rather than a
//! stack overflow.

use qa_base::{Alphabet, Error, Result};

use crate::ast::Formula;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LParen,
    RParen,
    Comma,
    Dot,
    Less,
    Eq,
    Not,
    And,
    Or,
    Implies,
    Iff,
}

fn lex(input: &str) -> Result<Vec<Tok>> {
    let mut toks = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '(' => {
                chars.next();
                toks.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                toks.push(Tok::RParen);
            }
            ',' => {
                chars.next();
                toks.push(Tok::Comma);
            }
            '.' => {
                chars.next();
                toks.push(Tok::Dot);
            }
            '!' => {
                chars.next();
                toks.push(Tok::Not);
            }
            '&' => {
                chars.next();
                toks.push(Tok::And);
            }
            '|' => {
                chars.next();
                toks.push(Tok::Or);
            }
            '=' => {
                chars.next();
                toks.push(Tok::Eq);
            }
            '<' => {
                chars.next();
                if chars.peek() == Some(&'-') {
                    chars.next();
                    if chars.next() != Some('>') {
                        return Err(Error::parse("mso", "expected `>` after `<-`"));
                    }
                    toks.push(Tok::Iff);
                } else {
                    toks.push(Tok::Less);
                }
            }
            '-' => {
                chars.next();
                if chars.next() != Some('>') {
                    return Err(Error::parse("mso", "expected `>` after `-`"));
                }
                toks.push(Tok::Implies);
            }
            c if c.is_alphanumeric() || c == '_' || c == '#' => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' || c == '#' {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                toks.push(Tok::Ident(name));
            }
            other => {
                return Err(Error::parse(
                    "mso",
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    Ok(toks)
}

/// Deepest nesting [`parse`] accepts: each `(`, `!`, quantifier and `->`
/// opens one level of the recursive descent. A level costs about 7 KiB of
/// stack in a debug build (under 2 KiB optimized), so the bound keeps a
/// parse well inside a default 2 MiB thread stack.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    toks: Vec<Tok>,
    pos: usize,
    alphabet: &'a mut Alphabet,
    /// Nesting levels currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        if self.peek() == Some(&t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::parse(
                "mso",
                format!(
                    "expected {t:?}, found {:?} at token {}",
                    self.peek(),
                    self.pos
                ),
            ))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(Error::parse(
                "mso",
                format!("expected identifier, found {other:?}"),
            )),
        }
    }

    /// Run `inner` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Formula>) -> Result<Formula> {
        if self.depth == MAX_DEPTH {
            return Err(Error::parse(
                "mso",
                format!(
                    "formula nests deeper than {MAX_DEPTH} at token {}",
                    self.pos
                ),
            ));
        }
        self.depth += 1;
        let f = inner(self);
        self.depth -= 1;
        f
    }

    // iff := imp ('<->' imp)*
    fn iff(&mut self) -> Result<Formula> {
        let mut f = self.imp()?;
        while self.peek() == Some(&Tok::Iff) {
            self.pos += 1;
            f = f.iff(self.imp()?);
        }
        Ok(f)
    }

    // imp := or ('->' imp)?   (right associative)
    fn imp(&mut self) -> Result<Formula> {
        let f = self.or()?;
        if self.peek() == Some(&Tok::Implies) {
            self.pos += 1;
            return Ok(f.implies(self.nested(Self::imp)?));
        }
        Ok(f)
    }

    fn or(&mut self) -> Result<Formula> {
        let mut f = self.and()?;
        while self.peek() == Some(&Tok::Or) {
            self.pos += 1;
            f = f.or(self.and()?);
        }
        Ok(f)
    }

    fn and(&mut self) -> Result<Formula> {
        let mut f = self.unary()?;
        while self.peek() == Some(&Tok::And) {
            self.pos += 1;
            f = f.and(self.unary()?);
        }
        Ok(f)
    }

    fn unary(&mut self) -> Result<Formula> {
        match self.peek() {
            Some(Tok::Not) => {
                self.pos += 1;
                Ok(self.nested(Self::unary)?.not())
            }
            Some(Tok::Ident(kw)) if matches!(kw.as_str(), "ex" | "all" | "ex2" | "all2") => {
                let kw = kw.clone();
                self.pos += 1;
                let var = self.ident()?;
                self.expect(Tok::Dot)?;
                let body = self.nested(Self::unary)?;
                Ok(match kw.as_str() {
                    "ex" => Formula::exists(var, body),
                    "all" => Formula::forall(var, body),
                    "ex2" => Formula::exists_set(var, body),
                    _ => Formula::forall_set(var, body),
                })
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> Result<Formula> {
        match self.bump() {
            Some(Tok::LParen) => {
                let f = self.nested(Self::iff)?;
                self.expect(Tok::RParen)?;
                Ok(f)
            }
            Some(Tok::Ident(name)) => self.predicate(name),
            other => Err(Error::parse("mso", format!("unexpected token {other:?}"))),
        }
    }

    /// The atom named `name` (already consumed). Kept out of `atom`
    /// so the recursive path through parentheses keeps small frames.
    #[inline(never)]
    fn predicate(&mut self, name: String) -> Result<Formula> {
        match name.as_str() {
            "true" => Ok(Formula::True),
            "false" => Ok(Formula::False),
            "label" => {
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::Comma)?;
                let l = self.ident()?;
                self.expect(Tok::RParen)?;
                let sym = self.alphabet.intern(&l);
                Ok(Formula::Label(x, sym))
            }
            "edge" | "first_child" | "second_child" | "chain2" => {
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::Comma)?;
                let y = self.ident()?;
                self.expect(Tok::RParen)?;
                Ok(match name.as_str() {
                    "edge" => Formula::Edge(x, y),
                    "first_child" => Formula::FirstChild(x, y),
                    "second_child" => Formula::SecondChild(x, y),
                    _ => Formula::Chain2(x, y),
                })
            }
            "root" => {
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::RParen)?;
                Ok(Formula::is_root(x))
            }
            "leaf" => {
                self.expect(Tok::LParen)?;
                let x = self.ident()?;
                self.expect(Tok::RParen)?;
                Ok(Formula::is_leaf(x))
            }
            _ => {
                // variable atom: v < w | v = w | v in X
                match self.bump() {
                    Some(Tok::Less) => Ok(Formula::Less(name, self.ident()?)),
                    Some(Tok::Eq) => Ok(Formula::Eq(name, self.ident()?)),
                    Some(Tok::Ident(kw)) if kw == "in" => Ok(Formula::In(name, self.ident()?)),
                    other => Err(Error::parse(
                        "mso",
                        format!("expected `<`, `=` or `in` after `{name}`, found {other:?}"),
                    )),
                }
            }
        }
    }
}

/// Parse an MSO formula, interning label names into `alphabet`.
///
/// ```
/// use qa_base::Alphabet;
/// let mut sigma = Alphabet::new();
/// let f = qa_mso::parse("ex x. (label(x, a) & leaf(x))", &mut sigma).unwrap();
/// assert_eq!(f.free_vars().len(), 0);
/// ```
pub fn parse(input: &str, alphabet: &mut Alphabet) -> Result<Formula> {
    let toks = lex(input)?;
    let mut p = Parser {
        toks,
        pos: 0,
        alphabet,
        depth: 0,
    };
    let f = p.iff()?;
    if p.pos != p.toks.len() {
        return Err(Error::parse(
            "mso",
            format!("trailing tokens at {} in `{input}`", p.pos),
        ));
    }
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Formula;

    #[test]
    fn nesting_is_bounded() {
        let mut a = Alphabet::new();
        let parens = |n: usize| format!("{}leaf(x){}", "(".repeat(n), ")".repeat(n));
        assert!(parse(&parens(MAX_DEPTH), &mut a).is_ok());
        let err = parse(&parens(MAX_DEPTH + 1), &mut a).unwrap_err();
        assert!(err.to_string().contains("deeper than"), "{err}");
        // Far past the bound, through every recursive form: an error, not
        // a stack overflow.
        for deep in [
            parens(5_000),
            format!("{}leaf(x)", "!".repeat(5_000)),
            format!("{}leaf(x)", "ex y. ".repeat(5_000)),
            format!("{}leaf(x)", "leaf(x) -> ".repeat(5_000)),
        ] {
            assert!(parse(&deep, &mut a).is_err());
        }
    }

    #[test]
    fn parses_quantifiers_and_connectives() {
        let mut a = Alphabet::new();
        let f = parse("ex x. all y. (edge(x, y) -> !label(y, b))", &mut a).unwrap();
        assert!(matches!(f, Formula::Exists(_, _)));
        assert!(a.get("b").is_some());
    }

    #[test]
    fn parses_even_length_example_2_2() {
        // the paper's Example 2.2, adapted to min/max-free form
        let mut a = Alphabet::new();
        let f = parse(
            "ex2 X. ( (all x. (root(x) -> x in X)) \
             & (all x. all y. ((x in X & edge(x, y)) -> !(y in X))) \
             & (all x. all y. ((!(x in X) & edge(x, y)) -> y in X)) \
             & (all x. (leaf(x) -> !(x in X))) )",
            &mut a,
        )
        .unwrap();
        assert!(f.free_vars().is_empty());
    }

    #[test]
    fn operator_precedence() {
        let mut a = Alphabet::new();
        // `p & q | r` = `(p & q) | r`
        let f = parse("x = x & y = y | x < y", &mut a).unwrap();
        assert!(matches!(f, Formula::Or(_, _)));
        // `p -> q -> r` right-assoc
        let f = parse("x = x -> y = y -> x < y", &mut a).unwrap();
        if let Formula::Or(_, rhs) = f {
            assert!(matches!(*rhs, Formula::Or(_, _)));
        } else {
            panic!("implies desugars to or");
        }
    }

    #[test]
    fn membership_and_order_atoms() {
        let mut a = Alphabet::new();
        assert_eq!(
            parse("x in X", &mut a).unwrap(),
            Formula::In("x".into(), "X".into())
        );
        assert_eq!(
            parse("x < y", &mut a).unwrap(),
            Formula::Less("x".into(), "y".into())
        );
        assert_eq!(
            parse("x = y", &mut a).unwrap(),
            Formula::Eq("x".into(), "y".into())
        );
    }

    #[test]
    fn errors() {
        let mut a = Alphabet::new();
        assert!(parse("", &mut a).is_err());
        assert!(parse("ex x", &mut a).is_err());
        assert!(parse("label(x)", &mut a).is_err());
        assert!(parse("x <", &mut a).is_err());
        assert!(parse("(x = y", &mut a).is_err());
        assert!(parse("x = y)", &mut a).is_err());
        assert!(parse("x ~ y", &mut a).is_err());
    }
}
