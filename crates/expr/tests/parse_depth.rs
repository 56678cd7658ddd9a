//! The expression parser refuses deep nesting with a parse error instead
//! of overflowing the stack: every input runs on a thread with a 1 MiB
//! stack, where a million nested levels would abort the process if the
//! parser recursed once per level without a limit.

use kyrix_expr::{parse, ExprError};

const HUGE: usize = 1_000_000;

/// Parse `src` on a thread with a 1 MiB stack.
fn parse_on_small_stack(src: String) -> Result<(), ExprError> {
    std::thread::Builder::new()
        .stack_size(1 << 20)
        .spawn(move || parse(&src).map(drop))
        .expect("spawn the parser thread")
        .join()
        .expect("the parser thread returned")
}

fn parens(depth: usize) -> String {
    format!("{}1{}", "(".repeat(depth), ")".repeat(depth))
}

fn bangs(depth: usize) -> String {
    format!("{}x", "!".repeat(depth))
}

fn negations(depth: usize) -> String {
    format!("{}1", "- ".repeat(depth))
}

fn calls(depth: usize) -> String {
    format!("{}1{}", "f(".repeat(depth), ")".repeat(depth))
}

/// `^` is right-associative: each right operand opens a level.
fn powers(depth: usize) -> String {
    format!("1{}", " ^ 1".repeat(depth))
}

fn assert_refused(src: String) {
    match parse_on_small_stack(src) {
        Err(ExprError::Parse(m)) => assert!(m.contains("256"), "{m}"),
        other => panic!("expected a parse error naming the limit, got {other:?}"),
    }
}

#[test]
fn a_million_nested_parentheses_is_a_parse_error() {
    assert_refused(parens(HUGE));
}

#[test]
fn a_million_bangs_is_a_parse_error() {
    assert_refused(bangs(HUGE));
}

#[test]
fn a_million_unary_minuses_is_a_parse_error() {
    assert_refused(negations(HUGE));
}

#[test]
fn nesting_256_deep_still_parses_and_257_does_not() {
    for build in [parens, bangs, negations, calls, powers] {
        parse_on_small_stack(build(256)).expect("256 levels parse");
        assert_refused(build(257));
    }
}
