//! SQL abstract syntax tree.

use crate::value::Value;

/// A column reference, optionally qualified with a table alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn unqualified(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

/// A scalar SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    Literal(Value),
    Param(usize),
    Column(ColumnRef),
    Binary {
        op: BinOp,
        left: Box<SqlExpr>,
        right: Box<SqlExpr>,
    },
    Not(Box<SqlExpr>),
    Neg(Box<SqlExpr>),
    Between {
        expr: Box<SqlExpr>,
        lo: Box<SqlExpr>,
        hi: Box<SqlExpr>,
    },
    /// `bbox && rect(x0, y0, x1, y1)` — true when the tuple's bounding box
    /// (defined by the table's spatial index) intersects the rectangle.
    SpatialIntersect {
        rect: [Box<SqlExpr>; 4],
    },
}

impl SqlExpr {
    /// Split a conjunction into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<SqlExpr> {
        match self {
            SqlExpr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut v = left.conjuncts();
                v.extend(right.conjuncts());
                v
            }
            e => vec![e],
        }
    }

    /// Rebuild a conjunction from conjuncts. Empty input → None.
    pub fn conjoin(mut exprs: Vec<SqlExpr>) -> Option<SqlExpr> {
        let first = if exprs.is_empty() {
            return None;
        } else {
            exprs.remove(0)
        };
        Some(exprs.into_iter().fold(first, |acc, e| SqlExpr::Binary {
            op: BinOp::And,
            left: Box::new(acc),
            right: Box::new(e),
        }))
    }

    /// Whether this expression references no columns (params are fine).
    pub fn is_const(&self) -> bool {
        match self {
            SqlExpr::Literal(_) | SqlExpr::Param(_) => true,
            SqlExpr::Column(_) => false,
            SqlExpr::Binary { left, right, .. } => left.is_const() && right.is_const(),
            SqlExpr::Not(e) | SqlExpr::Neg(e) => e.is_const(),
            SqlExpr::Between { expr, lo, hi } => expr.is_const() && lo.is_const() && hi.is_const(),
            SqlExpr::SpatialIntersect { rect } => rect.iter().all(|e| e.is_const()),
        }
    }

    /// Collect all column references.
    pub fn columns(&self, out: &mut Vec<ColumnRef>) {
        match self {
            SqlExpr::Literal(_) | SqlExpr::Param(_) => {}
            SqlExpr::Column(c) => out.push(c.clone()),
            SqlExpr::Binary { left, right, .. } => {
                left.columns(out);
                right.columns(out);
            }
            SqlExpr::Not(e) | SqlExpr::Neg(e) => e.columns(out),
            SqlExpr::Between { expr, lo, hi } => {
                expr.columns(out);
                lo.columns(out);
                hi.columns(out);
            }
            SqlExpr::SpatialIntersect { rect } => {
                for e in rect {
                    e.columns(out);
                }
            }
        }
    }
}

/// Aggregate functions usable as top-level SELECT items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    /// Lowercase SQL name, also used as the default output column name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }

    /// Parse a (case-insensitive) aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_uppercase().as_str() {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "AVG" => AggFunc::Avg,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            _ => return None,
        })
    }
}

/// A projection item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// `alias.*`
    QualifiedStar(String),
    /// An expression with an optional output alias.
    Expr {
        expr: SqlExpr,
        alias: Option<String>,
    },
    /// `COUNT(*)`, `COUNT(expr)`, `SUM(expr)`, `AVG(expr)`, `MIN(expr)`,
    /// `MAX(expr)`. `arg` is `None` only for `COUNT(*)`.
    Aggregate {
        func: AggFunc,
        arg: Option<SqlExpr>,
        alias: Option<String>,
    },
}

impl SelectItem {
    /// `COUNT(*)` — kept as a constructor because it is by far the most
    /// common aggregate in Kyrix's own workload (density checks).
    pub fn count_star() -> SelectItem {
        SelectItem::Aggregate {
            func: AggFunc::Count,
            arg: None,
            alias: None,
        }
    }

    /// Output column name this item produces (aggregates only; plain
    /// expressions are named by the executor).
    pub fn aggregate_output_name(&self) -> Option<String> {
        match self {
            SelectItem::Aggregate { func, arg, alias } => Some(match alias {
                Some(a) => a.clone(),
                None => match arg {
                    Some(SqlExpr::Column(c)) => format!("{}_{}", func.name(), c.column),
                    _ => func.name().to_string(),
                },
            }),
            _ => None,
        }
    }
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in the query.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// `JOIN <table> ON <left col> = <right col>`.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub table: TableRef,
    pub left: ColumnRef,
    pub right: ColumnRef,
}

/// ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderBy {
    pub column: ColumnRef,
    pub desc: bool,
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Select {
    pub items: Vec<SelectItem>,
    pub from: TableRef,
    pub join: Option<JoinClause>,
    pub where_clause: Option<SqlExpr>,
    pub group_by: Vec<ColumnRef>,
    /// HAVING predicate; resolved against the aggregate *output* columns
    /// (group-by columns and aggregate names/aliases).
    pub having: Option<SqlExpr>,
    pub order_by: Vec<OrderBy>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

impl Select {
    /// Whether this SELECT aggregates (has GROUP BY or an aggregate item).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }
}

/// `INSERT INTO t [(c1, c2, ...)] VALUES (...), (...)`.
/// Value expressions must be constant (literals, params, arithmetic).
#[derive(Debug, Clone, PartialEq)]
pub struct Insert {
    pub table: String,
    /// Explicit column list; `None` means full-schema order.
    pub columns: Option<Vec<String>>,
    pub rows: Vec<Vec<SqlExpr>>,
}

/// `DELETE FROM t [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Delete {
    pub table: TableRef,
    pub where_clause: Option<SqlExpr>,
}

/// `UPDATE t SET c = expr [, ...] [WHERE pred]`. Assignment right-hand
/// sides may reference the row's own columns (`SET x = x + 1`).
#[derive(Debug, Clone, PartialEq)]
pub struct Update {
    pub table: TableRef,
    pub sets: Vec<(String, SqlExpr)>,
    pub where_clause: Option<SqlExpr>,
}

/// `CREATE TABLE t (col TYPE, ...)`. Types: INT, FLOAT, TEXT, BOOL.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTable {
    pub table: String,
    pub columns: Vec<(String, crate::value::DataType)>,
}

/// `CREATE INDEX name ON t (col)` (B-tree, also `USING BTREE`) or
/// `... USING SPATIAL (x, y)` (point R-tree).
#[derive(Debug, Clone, PartialEq)]
pub struct CreateIndex {
    pub name: String,
    pub table: String,
    pub kind: IndexSpec,
}

/// The index flavor named in `CREATE INDEX`.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexSpec {
    BTree { column: String },
    SpatialPoint { x: String, y: String },
}

/// Any parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Select),
    Insert(Insert),
    Delete(Delete),
    Update(Update),
    /// `EXPLAIN SELECT ...` — returns the chosen plan as text rows.
    Explain(Select),
    CreateTable(CreateTable),
    CreateIndex(CreateIndex),
    /// `DROP TABLE t`.
    DropTable(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_roundtrip() {
        let a = SqlExpr::Column(ColumnRef::unqualified("a"));
        let b = SqlExpr::Column(ColumnRef::unqualified("b"));
        let c = SqlExpr::Column(ColumnRef::unqualified("c"));
        let conj = SqlExpr::conjoin(vec![a.clone(), b.clone(), c.clone()]).unwrap();
        assert_eq!(conj.conjuncts(), vec![a, b, c]);
        assert!(SqlExpr::conjoin(vec![]).is_none());
    }

    #[test]
    fn is_const_detects_columns() {
        let c = SqlExpr::Binary {
            op: BinOp::Add,
            left: Box::new(SqlExpr::Literal(Value::Int(1))),
            right: Box::new(SqlExpr::Param(1)),
        };
        assert!(c.is_const());
        let nc = SqlExpr::Binary {
            op: BinOp::Add,
            left: Box::new(c),
            right: Box::new(SqlExpr::Column(ColumnRef::unqualified("x"))),
        };
        assert!(!nc.is_const());
    }
}
