//! A volatile store ([`Storage::open_memory`]) holds each page's bytes once:
//! in its pool frame while it has one, else on the volatile disk.
//!
//! Its own test binary so that the counting `#[global_allocator]` touches
//! nothing else. Live bytes are counted on the test thread only (a
//! thread-local switch), and a store allocates its pages on the thread that
//! writes them, so the figures repeat exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tman_storage::{Storage, PAGE_SIZE};

struct Counting;

thread_local! {
    /// (counting?, live bytes) allocated by this thread.
    static LIVE: Cell<(bool, i64)> = const { Cell::new((false, 0)) };
}

fn note(bytes: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = LIVE.try_with(|c| {
        let (on, b) = c.get();
        if on {
            c.set((on, b + bytes));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local tally that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Fill a fresh volatile store with a heap of about `pages` pages under a
/// pool of `pool_pages`, sync it, and read every record back: the store's
/// live bytes per page, counting everything the store allocated.
fn bytes_per_page(pool_pages: usize, pages: u32) -> f64 {
    LIVE.with(|c| c.set((true, 0)));
    let store = Storage::open_memory(pool_pages);
    let heap = store.create_heap("h").unwrap();
    let record = [7u8; 200];
    let mut rids = Vec::new();
    while store.pool().disk().num_pages() < pages {
        rids.push(heap.insert(&record).unwrap());
    }
    store.checkpoint().unwrap();
    store.pool().sync().unwrap();
    for rid in &rids {
        assert_eq!(heap.get(*rid).unwrap(), record);
    }
    // The store's live bytes, less the test's own record ids.
    let rid_bytes = (rids.capacity() * std::mem::size_of_val(&rids[0])) as i64;
    let (_, live) = LIVE.with(|c| c.replace((false, 0)));
    let n = store.pool().disk().num_pages();
    let per_page = (live - rid_bytes) as f64 / f64::from(n);
    println!(
        "pool {pool_pages}, {n} pages: {per_page:.0} B a page ({:.2} page buffers)",
        per_page / PAGE_SIZE as f64
    );
    per_page
}

/// Every page in the pool, as every catalog page of an engine below some
/// 100 k triggers is: one buffer a page, not a frame's copy beside the
/// disk's.
#[test]
fn a_synced_volatile_store_holds_one_buffer_a_page() {
    let per_page = bytes_per_page(256, 200);
    assert!(
        per_page < 1.25 * PAGE_SIZE as f64,
        "{per_page:.0} B a page: more than one buffer"
    );
}

/// More pages than frames: the evicted pages' buffers move back to the
/// disk, and still no page is held twice.
#[test]
fn an_evicting_volatile_store_holds_one_buffer_a_page() {
    let per_page = bytes_per_page(16, 200);
    assert!(
        per_page < 1.25 * PAGE_SIZE as f64,
        "{per_page:.0} B a page: more than one buffer"
    );
}
