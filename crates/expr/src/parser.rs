//! Pratt parser for the expression language.

use crate::ast::{Expr, Op};
use crate::error::{ExprError, Result};
use crate::token::{tokenize, Tok};

/// How deeply expressions may nest: each parenthesis, prefix `-` / `!`,
/// call argument, ternary branch and right-hand operand opens a level. The
/// parser recurses once per level, so a deeper expression is refused
/// instead of overflowing the stack.
const MAX_EXPR_DEPTH: usize = 256;

/// Parse an expression string into an AST. Expressions nested more than
/// 256 deep are an error.
pub fn parse(src: &str) -> Result<Expr> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let e = p.expr(0, 0)?;
    if *p.peek() != Tok::Eof {
        return Err(ExprError::parse(format!(
            "trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(e)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Tok {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        let got = self.next();
        if got == t {
            Ok(())
        } else {
            Err(ExprError::parse(format!("expected {t:?}, found {got:?}")))
        }
    }

    /// One expression inside `depth` enclosing levels. This function,
    /// [`Parser::prefix`] and [`Parser::ternary`] are the only ones that
    /// recurse; everything else they need lives in helpers that return
    /// before the recursion, which keeps each level's stack small.
    fn expr(&mut self, min_bp: u8, depth: usize) -> Result<Expr> {
        if depth > MAX_EXPR_DEPTH {
            return Err(too_deep());
        }
        let mut lhs = self.prefix(depth)?;
        while let Some(infix) = self.infix(min_bp) {
            lhs = match infix {
                Infix::Binary(op, rbp) => {
                    let rhs = self.expr(rbp, depth + 1)?;
                    Expr::Binary {
                        op,
                        left: Box::new(lhs),
                        right: Box::new(rhs),
                    }
                }
                Infix::Ternary => self.ternary(lhs, depth)?,
            };
        }
        Ok(lhs)
    }

    /// Consume the infix operator at the cursor if it binds at `min_bp` or
    /// tighter.
    fn infix(&mut self, min_bp: u8) -> Option<Infix> {
        let op = match self.peek() {
            Tok::OrOr => Op::Or,
            Tok::AndAnd => Op::And,
            Tok::Eq => Op::Eq,
            Tok::NotEq => Op::NotEq,
            Tok::Lt => Op::Lt,
            Tok::LtEq => Op::LtEq,
            Tok::Gt => Op::Gt,
            Tok::GtEq => Op::GtEq,
            Tok::Plus => Op::Add,
            Tok::Minus => Op::Sub,
            Tok::Star => Op::Mul,
            Tok::Slash => Op::Div,
            Tok::Percent => Op::Mod,
            Tok::Caret => Op::Pow,
            // ternary binds loosest of all
            Tok::Question if min_bp == 0 => {
                self.next();
                return Some(Infix::Ternary);
            }
            _ => return None,
        };
        let (lbp, rbp) = op.binding_power();
        if lbp < min_bp {
            return None;
        }
        self.next();
        Some(Infix::Binary(op, rbp))
    }

    /// The branches of a ternary whose `?` was just consumed.
    fn ternary(&mut self, cond: Expr, depth: usize) -> Result<Expr> {
        let then = self.expr(0, depth + 1)?;
        self.expect(Tok::Colon)?;
        let otherwise = self.expr(0, depth + 1)?;
        Ok(Expr::Ternary {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        })
    }

    fn prefix(&mut self, depth: usize) -> Result<Expr> {
        let neg = match self.next() {
            Tok::Minus => true,
            Tok::Bang => false,
            Tok::LParen => {
                let e = self.expr(0, depth + 1)?;
                self.expect(Tok::RParen)?;
                return Ok(e);
            }
            Tok::Ident(name) if *self.peek() == Tok::LParen => {
                self.next();
                let mut args = Vec::new();
                if *self.peek() != Tok::RParen {
                    loop {
                        args.push(self.expr(0, depth + 1)?);
                        if *self.peek() != Tok::Comma {
                            break;
                        }
                        self.next();
                    }
                }
                self.expect(Tok::RParen)?;
                return Ok(Expr::Call { name, args });
            }
            t => return leaf(t),
        };
        let expr = Box::new(self.expr(11, depth + 1)?);
        Ok(Expr::Unary { neg, expr })
    }
}

/// An infix operator [`Parser::infix`] consumed.
enum Infix {
    /// A binary operator and the binding power of its right operand.
    Binary(Op, u8),
    /// The `?` of a ternary.
    Ternary,
}

/// The expression a token stands for on its own.
fn leaf(t: Tok) -> Result<Expr> {
    match t {
        Tok::Num(n) => Ok(Expr::Num(n)),
        Tok::Str(s) => Ok(Expr::Str(s)),
        Tok::True => Ok(Expr::Bool(true)),
        Tok::False => Ok(Expr::Bool(false)),
        Tok::Null => Ok(Expr::Null),
        Tok::Ident(name) => Ok(Expr::Var(name)),
        t => Err(ExprError::parse(format!("unexpected token {t:?}"))),
    }
}

fn too_deep() -> ExprError {
    ExprError::parse(format!("expression nesting deeper than {MAX_EXPR_DEPTH}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence() {
        // x + 2 * 3 == x + 6
        let e = parse("x + 2 * 3").unwrap();
        assert_eq!(e.to_string(), "(x + (2 * 3))");
        let e = parse("(x + 2) * 3").unwrap();
        assert_eq!(e.to_string(), "((x + 2) * 3)");
    }

    #[test]
    fn pow_right_assoc() {
        let e = parse("2 ^ 3 ^ 2").unwrap();
        assert_eq!(e.to_string(), "(2 ^ (3 ^ 2))");
    }

    #[test]
    fn figure3_new_viewport_exprs() {
        // the paper's newViewport: row[1] * 5 - 1000 (Figure 3, line 31)
        let e = parse("cx * 5 - 1000").unwrap();
        assert_eq!(e.to_string(), "((cx * 5) - 1000)");
        assert_eq!(
            e.variables().into_iter().collect::<Vec<_>>(),
            vec!["cx".to_string()]
        );
    }

    #[test]
    fn figure3_selector_expr() {
        // the paper's selector: layerId == 1 (Figure 3, line 28)
        let e = parse("layer_id == 1").unwrap();
        assert!(matches!(e, Expr::Binary { op: Op::Eq, .. }));
    }

    #[test]
    fn ternary_nested() {
        let e = parse("a > 1 ? 'hi' : b ? 1 : 2").unwrap();
        assert_eq!(e.to_string(), "((a > 1) ? 'hi' : (b ? 1 : 2))");
    }

    #[test]
    fn calls_with_args() {
        let e = parse("clamp(x * 2, 0, width() - 1)").unwrap();
        match e {
            Expr::Call { name, args } => {
                assert_eq!(name, "clamp");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logic_chain() {
        let e = parse("a && b || !c").unwrap();
        assert_eq!(e.to_string(), "((a && b) || !(c))");
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("1 +").is_err());
        assert!(parse("f(1,").is_err());
        assert!(parse("(1").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("a ? b").is_err());
    }
}
