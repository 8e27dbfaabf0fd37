//! The workspace's synchronisation primitives, over `std::sync`.
//!
//! * [`Mutex`] / [`RwLock`] — std locks whose poisoning is handled here,
//!   once: a lock a panicking thread held is still handed out, so call
//!   sites write `.lock()` / `.read()` / `.write()` with no `unwrap`.
//! * [`SegQueue`] — an unbounded MPMC FIFO (the drivers' task queue).
//! * [`channel`] — an unbounded MPMC channel with disconnect semantics,
//!   whose batch send pushes a run of items under one lock and stops at a
//!   backlog cap checked under that lock (the event bus's per-subscriber
//!   cap).
//!
//! Every benchmark number this workspace has recorded ran on this code.

pub mod channel;
mod lock;
mod queue;

pub use lock::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
pub use queue::SegQueue;
