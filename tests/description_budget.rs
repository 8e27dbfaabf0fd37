//! Memory budget of a resident trigger description (§5.1's trigger cache).
//!
//! Its own test binary so that the counting `#[global_allocator]` touches
//! nothing else. Live bytes and live blocks are counted on the test thread
//! only (a thread-local switch): creating a trigger allocates, and frees
//! what it evicts, on the thread that runs the command, so the numbers
//! repeat exactly from run to run.
//!
//! The measurement: the same `select_hot`-shaped population (20 000
//! one-variable triggers: `sym =`, `sym = and price >`, `vol =`, price
//! bands, one tenth two-arm `or`, each raising `Matched(q.seq)`) is created
//! twice, once under a trigger cache that holds them all and once under a
//! cache of one. Everything else the creates leave behind — catalog rows,
//! predicate-index entries, signatures — is the same in both, so the
//! difference is what the cache holds: each resident description, its
//! share of the cache's table pages and ring, and nothing else.
//!
//! The run under a cache of one is a budget of its own: what a trigger
//! costs while its description is not resident — its index entry, its
//! directory record, its DDL name, its catalog row and that row's share of
//! the catalog's pages.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use tman_common::rng::SplitMix64;
use triggerman::{CompiledTrigger, Config, TriggerMan};

struct Counting;

thread_local! {
    /// (counting?, live bytes, live blocks) allocated by this thread.
    static LIVE: Cell<(bool, i64, i64)> = const { Cell::new((false, 0, 0)) };
}

fn note(bytes: i64, blocks: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = LIVE.try_with(|c| {
        let (on, b, n) = c.get();
        if on {
            c.set((on, b + bytes, n + blocks));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local tally that itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64, 1);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64, 0);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Bytes and blocks this thread allocated and did not free while `f` ran.
fn retained_by<R>(f: impl FnOnce() -> R) -> (R, i64, i64) {
    LIVE.with(|c| c.set((true, 0, 0)));
    let r = f();
    let (_, bytes, blocks) = LIVE.with(|c| c.replace((false, 0, 0)));
    (r, bytes, blocks)
}

/// Bytes a resident description may cost, its share of the cache's table
/// and ring included (350.1 when it was seven blocks, 254.1 when it was
/// three; 197.1 since).
const BYTES: f64 = 210.0;
/// Heap blocks a resident description may hold: its own, and a share of
/// the cache table's pages (1.004 measured).
const BLOCKS: f64 = 1.02;
/// `size_of::<CompiledTrigger>()` may be at most this (152 measured: two
/// 24-byte inline names where two 16-byte `Arc<str>`s made it 136).
const SIZE: usize = 152;

/// Bytes a trigger whose description is not resident may cost (336.5
/// measured).
const TRIGGER_BYTES: f64 = 350.0;
/// Heap blocks such a trigger may hold: shares of pages, none its own
/// (1.08 while its DDL name was a block of its own; 0.084 since).
const TRIGGER_BLOCKS: f64 = 0.1;

const TRIGGERS: u32 = 20_000;
const SEED: u64 = 21;
const PRICES: u32 = 100_000;

/// A value in `[0, n)` from the top 32 bits of a draw, by multiply-high:
/// the mapping the budgets' populations were measured with.
fn below(rng: &mut SplitMix64, n: u32) -> u32 {
    (((rng.next_u64() >> 32) * n as u64) >> 32) as u32
}

/// The `select_hot` mix: nine tenths split over `sym =`, `sym = and
/// price >`, `vol =` and price bands, one tenth two-arm `or`, constants
/// uniform over `TRIGGERS / 4` symbols and volumes.
fn population() -> Vec<String> {
    let mut rng = SplitMix64::new(SEED);
    let domain = TRIGGERS / 4;
    let width = PRICES / ((TRIGGERS - TRIGGERS / 10) / 4);
    (0..TRIGGERS)
        .map(|i| {
            let (sym, vol) = (below(&mut rng, domain), below(&mut rng, domain));
            let price = below(&mut rng, PRICES - width);
            let cond = if i % 10 == 9 {
                format!("q.sym = 'S{sym}' or q.vol = {vol}")
            } else {
                match i % 4 {
                    0 => format!("q.sym = 'S{sym}'"),
                    1 => format!("q.sym = 'S{sym}' and q.price > {price}"),
                    2 => format!("q.vol = {vol}"),
                    _ => format!("q.price > {price} and q.price <= {}", price + width),
                }
            };
            format!("create trigger t{i} from q when {cond} do raise event Matched(q.seq)")
        })
        .collect()
}

/// Create the population under a cache of `capacity`: (bytes, blocks) the
/// creates left behind on this thread.
fn create_all(capacity: usize, commands: &[String]) -> (i64, i64) {
    let tman = TriggerMan::open_memory(Config {
        trigger_cache_capacity: capacity,
        ..Config::default()
    })
    .unwrap();
    tman.execute_command("define data source q (sym varchar(12), price float, vol int, seq int)")
        .unwrap();
    let ((), bytes, blocks) = retained_by(|| {
        for c in commands {
            tman.execute_command(c).unwrap();
        }
    });
    assert_eq!(
        tman.trigger_cache().len(),
        capacity.min(commands.len()),
        "resident"
    );
    drop(tman);
    (bytes, blocks)
}

#[test]
fn a_resident_description_stays_within_its_budget() {
    let size = std::mem::size_of::<CompiledTrigger>();
    println!("size_of::<CompiledTrigger>() = {size} B");
    assert!(size <= SIZE, "{size} B inline, budget {SIZE}");

    let commands = population();
    let all = create_all(TRIGGERS as usize, &commands);
    let one = create_all(1, &commands);
    // The cache of one still holds the last trigger created.
    let resident = f64::from(TRIGGERS - 1);
    let bytes = (all.0 - one.0) as f64 / resident;
    let blocks = (all.1 - one.1) as f64 / resident;
    println!(
        "{TRIGGERS} triggers: {} B in {} blocks held with all resident, {} B in {} with one; \
         {bytes:.1} B in {blocks:.2} blocks a resident description",
        all.0, all.1, one.0, one.1
    );
    // What is left of a `raise event` trigger over one source is one
    // block: the `Arc<CompiledTrigger>` (its counts and the description:
    // id, the name inline, set flag, enabled and reference marks, the
    // variable list inline — the source's `Arc` and no alias of its own —
    // `on` clause, condition, and the action with its event name and its
    // one argument inline as (slot, column) ordinals). No name block, no
    // routing key, no argument display name, no source text, no network.
    // The bytes and the fraction of a block add the cache's table slot, in
    // pages of trigger ids, and its ring slot.
    assert!(
        blocks <= BLOCKS,
        "{blocks:.2} blocks a resident description, budget {BLOCKS}"
    );
    assert!(
        bytes <= BYTES,
        "{bytes:.1} B a resident description, budget {BYTES}"
    );
    // Counted on one thread over a fixed population: the same on a rerun.
    assert_eq!(
        create_all(TRIGGERS as usize, &commands),
        all,
        "repeats exactly"
    );
}

#[test]
fn a_trigger_without_its_description_stays_within_its_budget() {
    let commands = population();
    let (bytes, blocks) = create_all(1, &commands);
    let (bytes, blocks) = (
        bytes as f64 / f64::from(TRIGGERS),
        blocks as f64 / f64::from(TRIGGERS),
    );
    println!(
        "{TRIGGERS} triggers under a cache of one: {bytes:.1} B in {blocks:.3} blocks a trigger"
    );
    // A trigger's index entry is a cell of its class and a directory
    // record, its constants a row, its directory head a slot in a page of
    // trigger ids, and the DDL name map's lower-cased key is inline: no
    // block of its own. The catalog row lives in pages, each held once.
    assert!(
        blocks <= TRIGGER_BLOCKS,
        "{blocks:.2} blocks a trigger, budget {TRIGGER_BLOCKS}"
    );
    assert!(
        bytes <= TRIGGER_BYTES,
        "{bytes:.1} B a trigger, budget {TRIGGER_BYTES}"
    );
}
