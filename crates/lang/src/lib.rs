//! `tman-lang` — the TriggerMan command language and SQL subset.
//!
//! §2 of the paper: "Commands in TriggerMan have a keyword-delimited,
//! SQL-like syntax." This crate provides:
//!
//! * a shared tokenizer, private to the crate (case-insensitive keywords,
//!   `'...'` string literals with `''` escapes, `:NEW` / `:OLD` transition
//!   refs), whose tokens borrow from the command text,
//! * the syntax tree, re-exported here: commands ([`Command`]: `create
//!   trigger`, `drop trigger`, `define data source`, ...), scalar/boolean
//!   expressions ([`Expr`]), and the SQL-subset statements ([`SqlStmt`])
//!   used by `execSQL` rule actions,
//! * recursive-descent parsers for both languages ([`parse_command`],
//!   [`parse_expression`], [`parse_sql`]).
//!
//! The paper's running examples parse verbatim, e.g.:
//!
//! ```
//! use tman_lang::parse_command;
//! let cmd = parse_command(
//!     "create trigger IrisHouseAlert on insert to house \
//!      from salesperson s, house h, represents r \
//!      when s.name = 'Iris' and s.spno=r.spno and r.nno=h.nno \
//!      do raise event NewHouseInIrisNeighborhood(h.hno, h.address)",
//! ).unwrap();
//! assert!(matches!(cmd, tman_lang::Command::CreateTrigger(_)));
//! ```

mod ast;
mod lexer;
mod parser;

pub use ast::{
    Action, BinaryOp, ColumnDef, Command, ConnectionDef, CreateTrigger, EventSpec, EventSpecKind,
    Expr, FromItem, Literal, SelectCols, SqlStmt, UnaryOp, WindowSpec,
};
pub use parser::{parse_command, parse_expression, parse_sql};
