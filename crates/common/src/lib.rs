//! Shared foundation types for the TriggerMan reproduction.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Value`] / [`DataType`] — the object-relational scalar model the paper
//!   supports (char, varchar, integer, float).
//! * [`Schema`] / [`Tuple`] — row shape and row data, with a compact binary
//!   encoding used by the storage engine.
//! * [`UpdateDescriptor`] — the paper's *token*: `(data source id, operation
//!   code, old/new tuple)`.
//! * Strongly-typed identifiers ([`ids`]).
//! * [`fxhash`] — a fast, deterministic hasher for the hot predicate-index
//!   paths (vendored so the workspace has no hashing dependency).
//! * [`stats`] — per-subsystem operation-counter groups (the counter type
//!   itself lives in `tman-telemetry` and is re-exported here).

pub mod error;
pub mod fxhash;
pub mod ids;
pub mod schema;
pub mod stats;
pub mod token;
pub mod tuple;
pub mod value;

pub use error::{Result, TmanError};
pub use ids::{DataSourceId, ExprId, NodeId, SignatureId, TriggerId, TriggerSetId};
pub use schema::{Column, Schema};
pub use token::{EventKind, TagClaims, TokenOp, UpdateDescriptor};
pub use tuple::Tuple;
pub use value::{DataType, Value};
