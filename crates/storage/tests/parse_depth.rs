//! The SQL parser refuses deep nesting with a parse error instead of
//! overflowing the stack: every input runs on a thread with a 1 MiB stack,
//! where a million nested levels would abort the process if the parser
//! recursed once per level without a limit. Parentheses that open operands
//! of `*`, `BETWEEN` and `&& rect(…)` cost a parser that recurses more
//! than one frame a level; 256 of them parse on that stack in the dev
//! profile too.

use kyrix_storage::sql::parse;
use kyrix_storage::StorageError;

const HUGE: usize = 1_000_000;

/// Parse `sql` on a thread with a 1 MiB stack.
fn parse_on_small_stack(sql: String) -> Result<(), StorageError> {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || parse(&sql).map(drop))
        .expect("spawn the parser thread")
        .join()
        .expect("the parser thread returned")
}

fn parens(depth: usize) -> String {
    format!(
        "SELECT * FROM t WHERE {}1{} = 1",
        "(".repeat(depth),
        ")".repeat(depth)
    )
}

fn nots(depth: usize) -> String {
    format!("SELECT * FROM t WHERE {}x = 1", "NOT ".repeat(depth))
}

fn negations(depth: usize) -> String {
    format!("SELECT * FROM t WHERE x = {}1", "- ".repeat(depth))
}

fn products(depth: usize) -> String {
    format!(
        "SELECT * FROM t WHERE x = {}1{}",
        "1 * (".repeat(depth),
        ")".repeat(depth)
    )
}

fn betweens(depth: usize) -> String {
    format!(
        "SELECT * FROM t WHERE {}x{}",
        "x BETWEEN (".repeat(depth),
        ") AND 1".repeat(depth)
    )
}

fn rects(depth: usize) -> String {
    format!(
        "SELECT * FROM t WHERE {}1{}",
        "bbox && rect((".repeat(depth),
        "), 0, 1, 1)".repeat(depth)
    )
}

fn assert_refused(sql: String) {
    match parse_on_small_stack(sql) {
        Err(StorageError::ParseError(m)) => assert!(m.contains("256"), "{m}"),
        other => panic!("expected a parse error naming the limit, got {other:?}"),
    }
}

#[test]
fn a_million_nested_parentheses_is_a_parse_error() {
    assert_refused(parens(HUGE));
}

#[test]
fn a_million_nots_is_a_parse_error() {
    assert_refused(nots(HUGE));
}

#[test]
fn a_million_unary_minuses_is_a_parse_error() {
    assert_refused(negations(HUGE));
}

#[test]
fn a_million_nested_products_is_a_parse_error() {
    assert_refused(products(HUGE));
}

#[test]
fn nesting_256_deep_still_parses_and_257_does_not() {
    for build in [parens, nots, negations, products, betweens, rects] {
        parse_on_small_stack(build(256)).expect("256 levels parse");
        assert_refused(build(257));
    }
}
