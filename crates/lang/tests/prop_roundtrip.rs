//! Property tests: `parse(expr.to_string())` reproduces the tree, for
//! arbitrary generated expressions (exercises precedence, parentheses,
//! string escaping, keyword case handling).

use tman_check::prelude::*;
use tman_check::string::chars;
use tman_lang::parse_expression;
use tman_lang::{BinaryOp, Expr, Literal, UnaryOp};

fn ident() -> impl Strategy<Value = String> {
    // Avoid keywords (and/or/not/null/like/between/is) via a prefix.
    (
        chars(&['a'..='z'], 1),
        chars(&['a'..='z', '0'..='9', '_'..='_'], 0..=6),
    )
        .prop_map(|(a, b)| format!("c_{a}{b}"))
}

fn literal() -> impl Strategy<Value = Literal> {
    prop_oneof![
        // Non-negative: the parser produces negative values as
        // `Neg(Literal)`, never as negative literals.
        (0..i64::MAX).prop_map(Literal::Int),
        (0..i32::MAX).prop_map(|i| Literal::Float(i as f64 / 128.0)),
        chars(
            &['a'..='z', 'A'..='Z', '0'..='9', ' '..=' ', '\''..='\''],
            0..=12
        )
        .prop_map(Literal::Str),
        Just(Literal::Null),
    ]
}

fn leaf() -> impl Strategy<Value = Expr> {
    prop_oneof![
        literal().prop_map(Expr::Literal),
        ident().prop_map(|column| Expr::Column {
            qualifier: None,
            column
        }),
        (ident(), ident()).prop_map(|(q, column)| Expr::Column {
            qualifier: Some(q),
            column
        }),
        (any::<bool>(), ident(), ident()).prop_map(|(new, source, column)| {
            Expr::Transition {
                new,
                source,
                column,
            }
        }),
    ]
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    leaf().prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), arb_binop())
                .prop_map(|(l, r, op)| { Expr::bin(op, l, r) }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Not,
                expr: Box::new(e)
            }),
            inner.clone().prop_map(|e| Expr::Unary {
                op: UnaryOp::Neg,
                expr: Box::new(e)
            }),
            (
                prop_oneof![Just("abs"), Just("length"), Just("lower")],
                inner.clone()
            )
                .prop_map(|(name, a)| Expr::Call {
                    name: name.into(),
                    args: vec![a]
                }),
        ]
    })
}

fn arb_binop() -> impl Strategy<Value = BinaryOp> {
    prop_oneof![
        Just(BinaryOp::And),
        Just(BinaryOp::Or),
        Just(BinaryOp::Eq),
        Just(BinaryOp::Ne),
        Just(BinaryOp::Lt),
        Just(BinaryOp::Le),
        Just(BinaryOp::Gt),
        Just(BinaryOp::Ge),
        Just(BinaryOp::Like),
        Just(BinaryOp::Add),
        Just(BinaryOp::Sub),
        Just(BinaryOp::Mul),
        Just(BinaryOp::Div),
    ]
}

/// `null` renders lowercase but parses back to `Literal::Null`; keyword
/// case doesn't matter — normalize nothing, compare trees directly.
fn normalize(e: &Expr) -> Expr {
    e.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn display_parse_roundtrip(e in arb_expr()) {
        let text = e.to_string();
        let parsed = parse_expression(&text)
            .unwrap_or_else(|err| panic!("failed to reparse `{text}`: {err}"));
        prop_assert_eq!(normalize(&parsed), normalize(&e), "text: {}", text);
    }

    #[test]
    fn parse_never_panics_on_random_input(s in chars(&[' '..='~'], 0..=64)) {
        let _ = parse_expression(&s);
        let _ = tman_lang::parse_command(&s);
        let _ = tman_lang::parse_sql(&s);
    }
}
