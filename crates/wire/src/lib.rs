//! `tman-wire` — the TCP tier in front of a TriggerMan engine (§3's
//! "data source programs" and "client applications", made remote).
//!
//! The paper's architecture captures updates from data sources into a
//! queue and pushes trigger firings to interested clients. Inside one
//! process that is [`TriggerMan::push_tokens`](triggerman::TriggerMan::push_tokens)
//! and the [`EventBus`](triggerman::EventBus); this crate extends both
//! ends over TCP — it *is* §3's client and data-source libraries — without
//! giving up the scalability story or the crash-safety story:
//!
//! * [`frame`] — a length-framed binary protocol (magic, version, type,
//!   CRC-32 trailer) with a zero-copy incremental decoder. Malformed input
//!   of any kind fails the connection cleanly, never the server.
//! * [`server`] — [`WireServer`]: one poll-based I/O thread multiplexing
//!   thousands of non-blocking connections; decoded descriptors from all
//!   source connections are **group-committed** into the update queue (one
//!   durability barrier per batch) and flow control is credit-based
//!   against queue depth — backpressure, not drops.
//! * [`delivery`] — [`DeliveryHub`]: one durable delivery log and one ack
//!   watermark per subscriber, extending the update queue's watermark
//!   protocol end-to-end: a subscriber that reconnects after a crash (its
//!   own or the server's) resumes from its durable ack watermark and
//!   receives every fire above it exactly once.
//! * [`client`] — [`RemoteClient`] / [`RemoteDataSource`] /
//!   [`RemoteSubscriber`]: blocking client wrappers for feeders and
//!   dashboards.
//! * [`crc`] — the CRC-32 kernel the framing uses.

pub mod client;
pub mod crc;
pub mod delivery;
pub mod frame;
pub mod server;

pub use client::{ReceivedNotification, RemoteClient, RemoteDataSource, RemoteSubscriber};
pub use delivery::{Delivery, DeliveryHub, Registration};
pub use frame::{
    decode_frame, decode_notification_body, encode_frame, encode_notification_body, Frame, VERSION,
};
pub use server::WireServer;
