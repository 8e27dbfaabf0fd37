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
//! * Strongly-typed identifiers ([`TriggerId`], [`ExprId`], ...).
//! * [`fxhash`] — a fast, deterministic hasher for the hot predicate-index
//!   paths (vendored so the workspace has no hashing dependency).
//! * [`rng`] — the one seeded generator (SplitMix64) every schedule,
//!   workload and property test draws from.

mod error;
pub mod fxhash;
mod ids;
pub mod rng;
mod schema;
mod token;
mod tuple;
mod value;

pub use error::{Result, TmanError};
pub use ids::{DataSourceId, ExprId, NodeId, SignatureId, TriggerId, TriggerSetId};
pub use schema::{Column, Schema};
pub use token::{EventKind, TokenOp, UpdateDescriptor};
pub use tuple::Tuple;
pub use value::{DataType, Value};
