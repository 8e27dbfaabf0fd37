//! Allocations of a notification body's encoding: what the delivery log
//! pays per append. Its own test binary so that the counting
//! `#[global_allocator]` touches nothing else; counts are taken on the
//! test thread only, so they repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tman_common::Value;
use tman_wire::{decode_notification_body, encode_notification_body};
use triggerman::EventNotification;

struct Counting;

thread_local! {
    /// (counting?, allocations counted)
    static COUNT: Cell<(bool, u64)> = const { Cell::new((false, 0)) };
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals are
        // torn down.
        let _ = COUNT.try_with(|c| {
            let (on, n) = c.get();
            c.set((on, n + u64::from(on)));
        });
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Encoding a one-value notification's body allocates one block, its
/// output buffer: the values are encoded from the notification's slice,
/// not from a tuple built for the purpose (which cost two more).
#[test]
fn a_one_value_body_is_one_block() {
    let note = EventNotification {
        event: "Matched".into(),
        trigger: "t1".into(),
        values: [Value::Int(42)].into_iter().collect(),
        message: None,
        token_seq: Some(7),
        trace: Default::default(),
        ingest_unix_ns: 0,
    };
    COUNT.with(|c| c.set((true, 0)));
    let body = encode_notification_body(&note);
    let (_, allocations) = COUNT.with(|c| c.replace((false, 0)));
    let body = body.unwrap();
    assert_eq!(allocations, 1, "allocations encoding a one-value body");
    assert_eq!(decode_notification_body(&body).unwrap(), note);
}
