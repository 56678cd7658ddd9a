//! Recursive-descent SQL parser; expressions climb precedence on a stack
//! of their own (`Parser::expr_bp`).

use super::ast::*;
use super::lexer::{lex, Token};
use crate::error::{Result, StorageError};
use crate::value::Value;

/// Parse a single SELECT statement. Errors on DML/EXPLAIN; use
/// [`parse_statement`] for the full statement surface.
pub fn parse(sql: &str) -> Result<Select> {
    match parse_statement(sql)? {
        Statement::Select(s) => Ok(s),
        other => Err(StorageError::ParseError(format!(
            "expected a SELECT statement, found {}",
            statement_kind(&other)
        ))),
    }
}

fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select(_) => "SELECT",
        Statement::Insert(_) => "INSERT",
        Statement::Delete(_) => "DELETE",
        Statement::Update(_) => "UPDATE",
        Statement::Explain(_) => "EXPLAIN",
        Statement::CreateTable(_) => "CREATE TABLE",
        Statement::CreateIndex(_) => "CREATE INDEX",
        Statement::DropTable(_) => "DROP TABLE",
    }
}

/// How deeply expressions may nest: each parenthesis, `NOT` and unary `-`
/// opens a level. The parser itself keeps no stack frame per level, but
/// what walks the parsed tree (binding, evaluation, drop) recurses, so a
/// deeper expression is refused.
const MAX_EXPR_DEPTH: usize = 256;

/// Parse any supported statement: SELECT, INSERT, DELETE, UPDATE, EXPLAIN.
/// Expressions nested more than 256 deep are an error.
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.expect(Token::Eof)?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn next(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Token) -> bool {
        if *self.peek() == t {
            self.next();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Token) -> Result<()> {
        if self.eat(t.clone()) {
            Ok(())
        } else {
            Err(StorageError::ParseError(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Token::Ident(s) => Ok(s),
            t => Err(StorageError::ParseError(format!(
                "expected identifier, found {t:?}"
            ))),
        }
    }

    // ------------------------------------------------------------ clauses

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Token::Select => Ok(Statement::Select(self.select()?)),
            Token::Explain => {
                self.next();
                Ok(Statement::Explain(self.select()?))
            }
            Token::Insert => self.insert(),
            Token::Delete => self.delete(),
            Token::Update => self.update(),
            Token::Create => self.create(),
            Token::Drop => {
                self.next();
                self.expect(Token::Table)?;
                Ok(Statement::DropTable(self.ident()?))
            }
            t => Err(StorageError::ParseError(format!(
                "expected a statement keyword, found {t:?}"
            ))),
        }
    }

    fn create(&mut self) -> Result<Statement> {
        self.expect(Token::Create)?;
        if self.eat(Token::Table) {
            let table = self.ident()?;
            self.expect(Token::LParen)?;
            let mut columns = Vec::new();
            loop {
                let name = self.ident()?;
                let ty = self.ident()?;
                let dtype = match ty.to_ascii_uppercase().as_str() {
                    "INT" | "INTEGER" | "BIGINT" => crate::value::DataType::Int,
                    "FLOAT" | "DOUBLE" | "REAL" => crate::value::DataType::Float,
                    "TEXT" | "VARCHAR" | "STRING" => crate::value::DataType::Text,
                    "BOOL" | "BOOLEAN" => crate::value::DataType::Bool,
                    other => {
                        return Err(StorageError::ParseError(format!(
                            "unknown column type `{other}` (INT, FLOAT, TEXT, BOOL)"
                        )))
                    }
                };
                columns.push((name, dtype));
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            return Ok(Statement::CreateTable(CreateTable { table, columns }));
        }
        self.expect(Token::Index)?;
        let name = self.ident()?;
        self.expect(Token::On)?;
        let table = self.ident()?;
        let using = if self.eat(Token::Using) {
            Some(self.ident()?.to_ascii_uppercase())
        } else {
            None
        };
        self.expect(Token::LParen)?;
        let mut cols = Vec::new();
        loop {
            cols.push(self.ident()?);
            if !self.eat(Token::Comma) {
                break;
            }
        }
        self.expect(Token::RParen)?;
        let kind = match (using.as_deref(), cols.len()) {
            (None, 1) | (Some("BTREE"), 1) => IndexSpec::BTree {
                column: cols.remove(0),
            },
            (Some("SPATIAL"), 2) => {
                let y = cols.pop().expect("two columns");
                let x = cols.pop().expect("two columns");
                IndexSpec::SpatialPoint { x, y }
            }
            (method, n) => {
                return Err(StorageError::ParseError(format!(
                    "unsupported index: USING {} with {n} column(s); expected \
                     BTREE (1 column) or SPATIAL (2 columns)",
                    method.unwrap_or("BTREE")
                )))
            }
        };
        Ok(Statement::CreateIndex(CreateIndex { name, table, kind }))
    }

    fn count_token(&mut self, clause: &str) -> Result<u64> {
        match self.next() {
            Token::Int(n) if n >= 0 => Ok(n as u64),
            t => Err(StorageError::ParseError(format!(
                "expected non-negative {clause} count, found {t:?}"
            ))),
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect(Token::Select)?;
        let items = self.select_items()?;
        self.expect(Token::From)?;
        let from = self.table_ref()?;
        let join = if self.eat(Token::Join) {
            let table = self.table_ref()?;
            self.expect(Token::On)?;
            let left = self.column_ref()?;
            self.expect(Token::Eq)?;
            let right = self.column_ref()?;
            Some(JoinClause { table, left, right })
        } else {
            None
        };
        let where_clause = if self.eat(Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat(Token::Group) {
            self.expect(Token::By)?;
            loop {
                group_by.push(self.column_ref()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat(Token::Having) {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat(Token::Order) {
            self.expect(Token::By)?;
            loop {
                let column = self.column_ref()?;
                let desc = if self.eat(Token::Desc) {
                    true
                } else {
                    self.eat(Token::Asc);
                    false
                };
                order_by.push(OrderBy { column, desc });
                if !self.eat(Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat(Token::Limit) {
            Some(self.count_token("LIMIT")?)
        } else {
            None
        };
        let offset = if self.eat(Token::Offset) {
            Some(self.count_token("OFFSET")?)
        } else {
            None
        };
        Ok(Select {
            items,
            from,
            join,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect(Token::Insert)?;
        self.expect(Token::Into)?;
        let table = self.ident()?;
        let columns = if self.eat(Token::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect(Token::Values)?;
        let mut rows = Vec::new();
        loop {
            self.expect(Token::LParen)?;
            let mut values = Vec::new();
            loop {
                values.push(self.expr()?);
                if !self.eat(Token::Comma) {
                    break;
                }
            }
            self.expect(Token::RParen)?;
            rows.push(values);
            if !self.eat(Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert(Insert {
            table,
            columns,
            rows,
        }))
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect(Token::Delete)?;
        self.expect(Token::From)?;
        let table = self.table_ref()?;
        let where_clause = if self.eat(Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete(Delete {
            table,
            where_clause,
        }))
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect(Token::Update)?;
        let table = self.table_ref()?;
        self.expect(Token::Set)?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(Token::Eq)?;
            let value = self.expr()?;
            sets.push((col, value));
            if !self.eat(Token::Comma) {
                break;
            }
        }
        let where_clause = if self.eat(Token::Where) {
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update(Update {
            table,
            sets,
            where_clause,
        }))
    }

    fn select_items(&mut self) -> Result<Vec<SelectItem>> {
        let mut items = Vec::new();
        loop {
            items.push(self.select_item()?);
            if !self.eat(Token::Comma) {
                break;
            }
        }
        Ok(items)
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat(Token::Star) {
            return Ok(SelectItem::Star);
        }
        // aggregate call: COUNT/SUM/AVG/MIN/MAX followed by `(`
        if let (Token::Ident(name), Token::LParen) = (
            self.tokens[self.pos].clone(),
            self.tokens.get(self.pos + 1).cloned().unwrap_or(Token::Eof),
        ) {
            if let Some(func) = AggFunc::from_name(&name) {
                self.pos += 2; // consume name and `(`
                let arg = if self.eat(Token::Star) {
                    if func != AggFunc::Count {
                        return Err(StorageError::ParseError(format!(
                            "{}(*) is not valid; only COUNT(*) takes `*`",
                            func.name().to_ascii_uppercase()
                        )));
                    }
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Token::RParen)?;
                let alias = if self.eat(Token::As) {
                    Some(self.ident()?)
                } else {
                    None
                };
                return Ok(SelectItem::Aggregate { func, arg, alias });
            }
        }
        // `alias.*` needs lookahead before falling back to an expression
        if let (Token::Ident(alias), Token::Dot, Token::Star) = (
            self.tokens[self.pos].clone(),
            self.tokens.get(self.pos + 1).cloned().unwrap_or(Token::Eof),
            self.tokens.get(self.pos + 2).cloned().unwrap_or(Token::Eof),
        ) {
            self.pos += 3;
            return Ok(SelectItem::QualifiedStar(alias));
        }
        let expr = self.expr()?;
        let alias = if self.eat(Token::As) {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef> {
        let table = self.ident()?;
        let alias = if self.eat(Token::As) {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn column_ref(&mut self) -> Result<ColumnRef> {
        let first = self.ident()?;
        if self.eat(Token::Dot) {
            let col = self.ident()?;
            Ok(ColumnRef::qualified(first, col))
        } else {
            Ok(ColumnRef::unqualified(first))
        }
    }

    // -------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<SqlExpr> {
        self.expr_bp(0)
    }

    /// Precedence climbing: one expression whose infix operators bind at
    /// `min_bp` or tighter (loosest first: `OR`, `AND`, prefix `NOT`, the
    /// comparisons, `+ -`, `* /`, prefix `-`). A comparison takes no
    /// comparison as its left operand (`a = b = c` is an error), and
    /// nothing tighter follows `BETWEEN … AND …` or `&& rect(…)`.
    ///
    /// The climb keeps its own stack instead of recursing: each operand it
    /// starts pushes what the operand will become part of ([`Pending`])
    /// with the binding power to resume at, so no input can exhaust the
    /// thread's stack, whatever the profile. A parenthesis, `NOT` or unary
    /// `-` opens a nesting level, and more than [`MAX_EXPR_DEPTH`] open
    /// levels are refused.
    fn expr_bp(&mut self, min_bp: u8) -> Result<SqlExpr> {
        let mut stack: Vec<(u8, Pending)> = Vec::new();
        let mut depth = 0;
        let mut min_bp = min_bp;
        'operand: loop {
            // open every level in front of the operand
            loop {
                let (pending, bp) = match self.peek() {
                    Token::Not if min_bp <= NOT_BP => (Pending::Not, NOT_BP),
                    Token::Minus => (Pending::Neg, NEG_BP),
                    Token::LParen => (Pending::Paren, 0),
                    _ => break,
                };
                if depth == MAX_EXPR_DEPTH {
                    return Err(StorageError::ParseError(format!(
                        "expression nesting deeper than {MAX_EXPR_DEPTH}"
                    )));
                }
                self.next();
                depth += 1;
                stack.push((min_bp, pending));
                min_bp = bp;
            }
            let (mut lhs, mut lhs_bp) = (self.primary()?, u8::MAX);
            loop {
                // an operator tighter than the one just applied was refused
                // by its right operand, and comparisons do not chain
                let applies = |&(_, bp): &(Infix, u8)| {
                    bp >= min_bp && bp <= lhs_bp && !(bp == CMP_BP && lhs_bp == CMP_BP)
                };
                if let Some((infix, bp)) = self.infix().filter(applies) {
                    self.next();
                    let (pending, operand_bp) = match infix {
                        Infix::Binary(op) => (Pending::Binary(op, lhs, bp), bp + 1),
                        Infix::Between => (Pending::BetweenLo(lhs), ADD_BP),
                        Infix::Spatial => {
                            let fname = self.ident()?;
                            if !fname.eq_ignore_ascii_case("rect") {
                                return Err(StorageError::ParseError(format!(
                                    "expected rect(...) after &&, found `{fname}`"
                                )));
                            }
                            self.expect(Token::LParen)?;
                            (Pending::Rect(lhs, Vec::with_capacity(4)), ADD_BP)
                        }
                    };
                    stack.push((min_bp, pending));
                    min_bp = operand_bp;
                    continue 'operand;
                }
                // `lhs` is complete: hand it to what it is an operand of
                let Some((outer_bp, pending)) = stack.pop() else {
                    return Ok(lhs);
                };
                min_bp = outer_bp;
                depth -= usize::from(matches!(
                    pending,
                    Pending::Not | Pending::Neg | Pending::Paren
                ));
                (lhs, lhs_bp) = match pending {
                    Pending::Not => (SqlExpr::Not(Box::new(lhs)), NOT_BP),
                    Pending::Neg => (SqlExpr::Neg(Box::new(lhs)), u8::MAX),
                    Pending::Paren => {
                        self.expect(Token::RParen)?;
                        (lhs, u8::MAX)
                    }
                    Pending::Binary(op, left, bp) => {
                        let (left, right) = (Box::new(left), Box::new(lhs));
                        (SqlExpr::Binary { op, left, right }, bp)
                    }
                    Pending::BetweenLo(expr) => {
                        self.expect(Token::And)?;
                        stack.push((min_bp, Pending::BetweenHi(expr, lhs)));
                        min_bp = ADD_BP;
                        continue 'operand;
                    }
                    Pending::BetweenHi(expr, lo) => {
                        let (expr, lo, hi) = (Box::new(expr), Box::new(lo), Box::new(lhs));
                        (SqlExpr::Between { expr, lo, hi }, CMP_BP)
                    }
                    Pending::Rect(left, mut corners) => {
                        corners.push(lhs);
                        match <[SqlExpr; 4]>::try_from(corners) {
                            Ok(rect) => {
                                self.expect(Token::RParen)?;
                                (spatial(left, rect.map(Box::new))?, CMP_BP)
                            }
                            Err(corners) => {
                                self.expect(Token::Comma)?;
                                stack.push((min_bp, Pending::Rect(left, corners)));
                                min_bp = ADD_BP;
                                continue 'operand;
                            }
                        }
                    }
                };
            }
        }
    }

    /// The infix operator at the cursor with its binding power, not
    /// consumed.
    fn infix(&self) -> Option<(Infix, u8)> {
        let binary = |op, bp| Some((Infix::Binary(op), bp));
        match self.peek() {
            Token::Or => binary(BinOp::Or, OR_BP),
            Token::And => binary(BinOp::And, AND_BP),
            Token::Eq => binary(BinOp::Eq, CMP_BP),
            Token::NotEq => binary(BinOp::NotEq, CMP_BP),
            Token::Lt => binary(BinOp::Lt, CMP_BP),
            Token::LtEq => binary(BinOp::LtEq, CMP_BP),
            Token::Gt => binary(BinOp::Gt, CMP_BP),
            Token::GtEq => binary(BinOp::GtEq, CMP_BP),
            Token::Between => Some((Infix::Between, CMP_BP)),
            Token::AmpAmp => Some((Infix::Spatial, CMP_BP)),
            Token::Plus => binary(BinOp::Add, ADD_BP),
            Token::Minus => binary(BinOp::Sub, ADD_BP),
            Token::Star => binary(BinOp::Mul, MUL_BP),
            Token::Slash => binary(BinOp::Div, MUL_BP),
            _ => None,
        }
    }

    /// A literal, parameter or column reference.
    fn primary(&mut self) -> Result<SqlExpr> {
        match self.next() {
            Token::Int(n) => Ok(SqlExpr::Literal(Value::Int(n))),
            Token::Float(x) => Ok(SqlExpr::Literal(Value::Float(x))),
            Token::Str(s) => Ok(SqlExpr::Literal(Value::Text(s))),
            Token::True => Ok(SqlExpr::Literal(Value::Bool(true))),
            Token::False => Ok(SqlExpr::Literal(Value::Bool(false))),
            Token::Null => Ok(SqlExpr::Literal(Value::Null)),
            Token::Param(n) => Ok(SqlExpr::Param(n)),
            Token::Ident(first) => {
                if self.eat(Token::Dot) {
                    let col = self.ident()?;
                    Ok(SqlExpr::Column(ColumnRef::qualified(first, col)))
                } else {
                    Ok(SqlExpr::Column(ColumnRef::unqualified(first)))
                }
            }
            t => Err(StorageError::ParseError(format!(
                "unexpected token {t:?} in expression"
            ))),
        }
    }
}

/// Binding powers of [`Parser::expr_bp`], loosest first.
const OR_BP: u8 = 1;
const AND_BP: u8 = 2;
const NOT_BP: u8 = 3;
const CMP_BP: u8 = 4;
const ADD_BP: u8 = 5;
const MUL_BP: u8 = 6;
const NEG_BP: u8 = 7;

/// An infix operator of [`Parser::infix`].
enum Infix {
    Binary(BinOp),
    Between,
    Spatial,
}

/// What the operand [`Parser::expr_bp`] is parsing will become part of:
/// `NOT _`, `- _`, `( _ )`, `left op _` (binding at the power given),
/// `expr BETWEEN _ AND …`, `expr BETWEEN lo AND _`, or the next corner of
/// `left && rect(…)`.
enum Pending {
    Not,
    Neg,
    Paren,
    Binary(BinOp, SqlExpr, u8),
    BetweenLo(SqlExpr),
    BetweenHi(SqlExpr, SqlExpr),
    Rect(SqlExpr, Vec<SqlExpr>),
}

/// `left && rect(x0, y0, x1, y1)`; the left side must be the `bbox`
/// pseudo-column.
fn spatial(left: SqlExpr, rect: [Box<SqlExpr>; 4]) -> Result<SqlExpr> {
    match left {
        SqlExpr::Column(c) if c.column.eq_ignore_ascii_case("bbox") => {
            Ok(SqlExpr::SpatialIntersect { rect })
        }
        other => Err(StorageError::ParseError(format!(
            "left side of && must be the bbox pseudo-column, found {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let s = parse("SELECT * FROM dots").unwrap();
        assert_eq!(s.items, vec![SelectItem::Star]);
        assert_eq!(s.from.table, "dots");
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn parses_mapping_join() {
        let s = parse(
            "SELECT r.* FROM mapping m JOIN record r ON m.tuple_id = r.tuple_id WHERE m.tile_id = $1",
        )
        .unwrap();
        assert_eq!(s.items, vec![SelectItem::QualifiedStar("r".into())]);
        assert_eq!(s.from.binding(), "m");
        let j = s.join.unwrap();
        assert_eq!(j.table.binding(), "r");
        assert_eq!(j.left, ColumnRef::qualified("m", "tuple_id"));
        assert_eq!(j.right, ColumnRef::qualified("r", "tuple_id"));
        assert!(matches!(
            s.where_clause.unwrap(),
            SqlExpr::Binary { op: BinOp::Eq, .. }
        ));
    }

    #[test]
    fn parses_spatial_predicate() {
        let s = parse("SELECT * FROM dots WHERE bbox && rect($1, $2, $3, $4)").unwrap();
        match s.where_clause.unwrap() {
            SqlExpr::SpatialIntersect { rect } => {
                assert_eq!(*rect[0], SqlExpr::Param(1));
                assert_eq!(*rect[3], SqlExpr::Param(4));
            }
            other => panic!("expected spatial predicate, got {other:?}"),
        }
    }

    #[test]
    fn spatial_lhs_must_be_bbox() {
        assert!(parse("SELECT * FROM t WHERE x && rect(1,2,3,4)").is_err());
    }

    #[test]
    fn parses_between_and_logic() {
        let s = parse("SELECT * FROM t WHERE x BETWEEN 1 AND 10 AND NOT y = 3 OR z < 5").unwrap();
        let w = s.where_clause.unwrap();
        // top level is OR
        assert!(matches!(w, SqlExpr::Binary { op: BinOp::Or, .. }));
    }

    #[test]
    fn parses_order_and_limit() {
        let s = parse("SELECT a, b AS bee FROM t ORDER BY a DESC LIMIT 10").unwrap();
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.order_by.len(), 1);
        assert!(s.order_by[0].desc);
        assert_eq!(s.order_by[0].column, ColumnRef::unqualified("a"));
        assert_eq!(s.items.len(), 2);
    }

    #[test]
    fn parses_multi_key_order_and_offset() {
        let s = parse("SELECT * FROM t ORDER BY a DESC, b, c ASC LIMIT 10 OFFSET 20").unwrap();
        assert_eq!(s.order_by.len(), 3);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert!(!s.order_by[2].desc);
        assert_eq!(s.limit, Some(10));
        assert_eq!(s.offset, Some(20));
    }

    #[test]
    fn parses_count_star() {
        let s = parse("SELECT COUNT(*) FROM t WHERE x = 1").unwrap();
        assert_eq!(s.items, vec![SelectItem::count_star()]);
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let s = parse(
            "SELECT state, COUNT(*) AS n, AVG(rate), MAX(pop) FROM crimes \
             GROUP BY state HAVING n > 2 ORDER BY n DESC",
        )
        .unwrap();
        assert!(s.is_aggregate());
        assert_eq!(s.group_by, vec![ColumnRef::unqualified("state")]);
        assert!(s.having.is_some());
        assert_eq!(s.items.len(), 4);
        assert!(matches!(
            &s.items[1],
            SelectItem::Aggregate { func: AggFunc::Count, arg: None, alias: Some(a) } if a == "n"
        ));
        assert!(matches!(
            &s.items[2],
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                arg: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn count_is_not_reserved() {
        // a column named `count` still parses as a plain column reference
        let s = parse("SELECT count FROM t WHERE count > 3").unwrap();
        assert!(matches!(
            &s.items[0],
            SelectItem::Expr { expr: SqlExpr::Column(c), .. } if c.column == "count"
        ));
        assert!(!s.is_aggregate());
    }

    #[test]
    fn star_only_valid_for_count() {
        assert!(parse("SELECT SUM(*) FROM t").is_err());
        assert!(parse("SELECT COUNT(x) FROM t").is_ok());
    }

    #[test]
    fn parses_insert() {
        let s = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), ($1, 'y')").unwrap();
        let Statement::Insert(ins) = s else {
            panic!("expected insert")
        };
        assert_eq!(ins.table, "t");
        assert_eq!(ins.columns, Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(ins.rows.len(), 2);
        assert_eq!(ins.rows[1][0], SqlExpr::Param(1));
        // without column list
        let s = parse_statement("INSERT INTO t VALUES (1, 2.5)").unwrap();
        let Statement::Insert(ins) = s else { panic!() };
        assert!(ins.columns.is_none());
    }

    #[test]
    fn parses_delete_and_update() {
        let s = parse_statement("DELETE FROM t WHERE x > 3").unwrap();
        let Statement::Delete(d) = s else { panic!() };
        assert_eq!(d.table.table, "t");
        assert!(d.where_clause.is_some());

        let s = parse_statement("UPDATE t SET x = x + 1, tag = 'seen' WHERE id = $1").unwrap();
        let Statement::Update(u) = s else { panic!() };
        assert_eq!(u.sets.len(), 2);
        assert_eq!(u.sets[0].0, "x");
        assert_eq!(u.sets[1].1, SqlExpr::Literal(Value::Text("seen".into())));
    }

    #[test]
    fn parses_explain() {
        let s = parse_statement("EXPLAIN SELECT * FROM t WHERE x = 1").unwrap();
        assert!(matches!(s, Statement::Explain(_)));
        // plain parse() rejects non-SELECT statements
        assert!(parse("DELETE FROM t").is_err());
        assert!(parse("EXPLAIN SELECT * FROM t").is_err());
    }

    #[test]
    fn parses_arith_precedence() {
        let s = parse("SELECT * FROM t WHERE x + 2 * 3 = 7").unwrap();
        // (x + (2*3)) = 7
        if let Some(SqlExpr::Binary {
            op: BinOp::Eq,
            left,
            ..
        }) = s.where_clause
        {
            assert!(matches!(*left, SqlExpr::Binary { op: BinOp::Add, .. }));
        } else {
            panic!();
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("SELECT * FROM t extra garbage here").is_err());
    }

    #[test]
    fn table_alias_with_and_without_as() {
        let s1 = parse("SELECT * FROM dots AS d").unwrap();
        assert_eq!(s1.from.binding(), "d");
        let s2 = parse("SELECT * FROM dots d").unwrap();
        assert_eq!(s2.from.binding(), "d");
    }
}
