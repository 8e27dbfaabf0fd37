//! Flat hash table for equality-plan signatures (strategy 2).
//!
//! One constant group — a key and its triggerID set, Figure 4 — is one
//! 16-byte slot of an open-addressed table. The slot carries a 32-bit tag
//! (the top half of the key's hash) and says where the group's two parts
//! sit in two arenas shared by the whole table: its key, encoded as bytes,
//! and its entries, a contiguous span. A probe arrives with the hash
//! already computed from the token's columns; it compares tags slot by
//! slot and reads key bytes only on a tag hit (so once, short of a 32-bit
//! collision), then hands out the span. Nothing is allocated per group or
//! per entry. The key arena is the only place a group's key is stored: a
//! cell holds an entry's ids and its row, not its constants.
//!
//! A span holds a power of two of cells. A group that outgrows its span
//! moves to one twice as long; the span it leaves, and the span of a group
//! a removal empties, go on a free list by size and are the first choice
//! of the next group that needs that size. Key bytes of emptied groups are
//! dead until half the key arena is, then it is rewritten without them.
//!
//! Entries of one group are delivered in insertion order.

use crate::org::Entry;
use crate::{tick, Work};
use std::hash::{Hash, Hasher};
use tman_common::fxhash::FxHasher;
use tman_common::{TriggerId, Value};

/// The hash a key is filed and probed under: its values' [`Value::hash`],
/// one after another, so numerically equal ints and floats agree.
pub(crate) fn key_hash<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
    let mut h = FxHasher::default();
    for v in values {
        v.hash(&mut h);
    }
    h.finish()
}

/// An arena position as a slot stores it. Four Gi cells or key bytes in
/// one constant set is past what a main-memory index is for; past it,
/// stop rather than wrap.
fn offset(at: usize) -> u32 {
    u32::try_from(at).expect("a constant set's arenas stay below 4 Gi positions")
}

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;

/// Append `v` to a key's bytes: a tag, then eight little-endian bytes for a
/// number, or a `u32` length and the bytes for a string.
fn encode(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&offset(s.len()).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Split the first encoded value off `bytes`: its tag, its payload (the
/// string's bytes, without the length), and what follows.
fn split_value(bytes: &[u8]) -> (u8, &[u8], &[u8]) {
    let (tag, rest) = (bytes[0], &bytes[1..]);
    let (payload, rest) = match tag {
        TAG_NULL => rest.split_at(0),
        TAG_INT | TAG_FLOAT => rest.split_at(8),
        _ => {
            let (len, rest) = rest.split_at(4);
            rest.split_at(u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize)
        }
    };
    (tag, payload, rest)
}

/// The `arity`-value key encoded at the head of `bytes`.
fn decode(mut bytes: &[u8], arity: usize) -> Vec<Value> {
    let mut key = Vec::with_capacity(arity);
    for _ in 0..arity {
        let (tag, payload, rest) = split_value(bytes);
        let number = || payload.try_into().expect("8 bytes");
        key.push(match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(number())),
            TAG_FLOAT => Value::Float(f64::from_le_bytes(number())),
            _ => Value::Str(String::from_utf8_lossy(payload).into_owned()),
        });
        bytes = rest;
    }
    key
}

/// Is the key encoded at the head of `bytes` equal to `values`, value by
/// value, as [`Value`]'s `==` has it?
fn key_eq<'a>(mut bytes: &[u8], values: impl Iterator<Item = &'a Value>) -> bool {
    tick(Work::KeyCompare);
    for v in values {
        let (tag, payload, rest) = split_value(bytes);
        let number = || payload.try_into().expect("8 bytes");
        let same = match tag {
            TAG_NULL => v.is_null(),
            TAG_INT => *v == Value::Int(i64::from_le_bytes(number())),
            TAG_FLOAT => *v == Value::Float(f64::from_le_bytes(number())),
            _ => v.as_str().is_some_and(|s| s.as_bytes() == payload),
        };
        if !same {
            return false;
        }
        bytes = rest;
    }
    true
}

/// The bytes of the `arity`-value key that starts at `keys[at]`.
fn key_bytes(keys: &[u8], arity: usize, at: u32) -> &[u8] {
    let from = &keys[at as usize..];
    let rest = (0..arity).fold(from, |rest, _| split_value(rest).2);
    &from[..from.len() - rest.len()]
}

/// One constant group. `len == 0` marks an empty slot.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// Top half of the key's hash: its home in the table is the tag's top
    /// bits (an Fx hash ends in a multiply, which leaves the low bits
    /// weak), and a probe compares tags before it reads a key.
    tag: u32,
    /// Where the group's key starts in `keys`.
    key: u32,
    /// The group's entries are `cells[start..start + len]`, of a span of
    /// [`span_cells`]`(len)` cells.
    start: u32,
    len: u32,
}

/// Cells in the span of a group of `len` entries (one for a group about to
/// get its first).
fn span_cells(len: u32) -> u32 {
    len.next_power_of_two()
}

/// The tag a key whose hash is `hash` is filed under.
pub(crate) fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The equality organization of one signature's constant set.
pub(crate) struct EqTable {
    /// Values in a key (none for a signature without an equality plan,
    /// whose entries then form one group).
    arity: usize,
    /// Open addressing, linear probing; a power of two, at most two thirds
    /// full.
    slots: Vec<Slot>,
    /// `32 - log2(slots.len())`: a slot's home is `tag >> shift`.
    shift: u32,
    keys: Vec<u8>,
    /// A span's cells past its group's length are unused.
    cells: Vec<Entry>,
    /// Unused spans: `free[k]` holds the starts of those of `1 << k` cells.
    free: Vec<Vec<u32>>,
    groups: usize,
    dead_key_bytes: usize,
}

const MIN_SLOTS: usize = 8;

impl EqTable {
    /// Empty table of keys of `arity` values.
    pub(crate) fn new(arity: usize) -> EqTable {
        EqTable {
            arity,
            slots: vec![Slot::default(); MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
            keys: Vec::new(),
            cells: Vec::new(),
            free: Vec::new(),
            groups: 0,
            dead_key_bytes: 0,
        }
    }

    /// The slot holding the group `hash`/`key`, or the empty slot where it
    /// would go.
    fn find<'a>(&self, hash: u64, key: impl Iterator<Item = &'a Value> + Clone) -> usize {
        let (tag, mask) = (tag_of(hash), self.slots.len() - 1);
        let mut i = (tag >> self.shift) as usize;
        loop {
            let s = &self.slots[i];
            if s.len == 0 || (s.tag == tag && key_eq(&self.keys[s.key as usize..], key.clone())) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn span(&self, s: &Slot) -> &[Entry] {
        &self.cells[s.start as usize..(s.start + s.len) as usize]
    }

    /// Visit the entries filed under `key`, whose [`key_hash`] is `hash`.
    pub(crate) fn probe<'a>(
        &self,
        hash: u64,
        key: impl Iterator<Item = &'a Value> + Clone,
        visit: &mut dyn FnMut(&Entry),
    ) {
        let s = &self.slots[self.find(hash, key)];
        self.span(s).iter().for_each(visit);
    }

    /// An unused span of `cells` cells (a power of two): a freed one if
    /// there is one, else new cells at the end of the arena.
    fn take_span(&mut self, cells: u32) -> u32 {
        let freed = self.free.get_mut(cells.trailing_zeros() as usize);
        freed.and_then(Vec::pop).unwrap_or_else(|| {
            let end = self.cells.len() + cells as usize;
            self.cells.resize(end, Entry::default());
            offset(end) - cells
        })
    }

    /// Give back the (emptied) span of `cells` cells at `start`.
    fn free_span(&mut self, start: u32, cells: u32) {
        let class = cells.trailing_zeros() as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(start);
    }

    /// File `entry` under `key`, whose [`key_hash`] is `hash`.
    pub(crate) fn insert<'a>(
        &mut self,
        hash: u64,
        key: impl Iterator<Item = &'a Value> + Clone,
        entry: Entry,
    ) {
        let mut i = self.find(hash, key.clone());
        if self.slots[i].len == 0 {
            if (self.groups + 1) * 3 > self.slots.len() * 2 {
                self.rehash(self.slots.len() * 2);
                i = self.find(hash, key.clone());
            }
            self.slots[i] = Slot {
                tag: tag_of(hash),
                key: offset(self.keys.len()),
                start: self.take_span(1),
                len: 0,
            };
            key.for_each(|v| encode(v, &mut self.keys));
            self.groups += 1;
        }
        let s = self.slots[i];
        if s.len == span_cells(s.len) {
            // The span is full: move to one twice as long.
            let to = self.take_span(2 * s.len);
            self.cells
                .copy_within(s.start as usize..(s.start + s.len) as usize, to as usize);
            self.free_span(s.start, s.len);
            self.slots[i].start = to;
        }
        let s = &mut self.slots[i];
        self.cells[(s.start + s.len) as usize] = entry;
        s.len += 1;
    }

    /// Remove `trigger`'s entries from the groups filed under `tag` (the
    /// one its key is in, short of a 32-bit collision), keeping the others'
    /// order, and hand each to `gone`. Returns how many.
    pub(crate) fn remove(
        &mut self,
        tag: u32,
        trigger: TriggerId,
        gone: &mut dyn FnMut(&Entry),
    ) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (tag >> self.shift) as usize;
        let mut removed = 0;
        while self.slots[i].len > 0 {
            if self.slots[i].tag == tag {
                let n = self.remove_from(i, trigger, gone);
                removed += n;
                if n > 0 && self.slots[i].len == 0 {
                    // Erased: slot `i` now holds the next in the chain.
                    continue;
                }
            }
            i = (i + 1) & mask;
        }
        removed
    }

    /// Remove `trigger`'s entries from the group in slot `i`.
    fn remove_from(&mut self, i: usize, trigger: TriggerId, gone: &mut dyn FnMut(&Entry)) -> usize {
        let s = self.slots[i];
        let span = &mut self.cells[s.start as usize..(s.start + s.len) as usize];
        // Survivors to the front, in order; the trigger's entries behind.
        let mut kept = 0;
        for k in 0..span.len() {
            tick(Work::RemoveVisit);
            if span[k].trigger_id != trigger {
                span.swap(kept, k);
                kept += 1;
            }
        }
        let removed = span.len() - kept;
        if removed == 0 {
            return 0;
        }
        span[kept..].iter().for_each(&mut *gone);
        self.slots[i].len = kept as u32;
        // Shrink the span to what the survivors need.
        let (had, needs) = (span_cells(s.len), span_cells(kept as u32));
        if kept == 0 {
            self.free_span(s.start, had);
            self.dead_key_bytes += key_bytes(&self.keys, self.arity, s.key).len();
            self.groups -= 1;
            self.erase(i);
            self.compact_keys_if_half_dead();
        } else {
            let mut cells = had;
            while cells > needs {
                cells /= 2;
                self.free_span(s.start + cells, cells);
            }
        }
        removed
    }

    /// Empty slot `i`, moving up the slots behind it that probing would
    /// otherwise no longer reach.
    fn erase(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.len == 0 {
                break;
            }
            // `s` must stay if its home lies cyclically in (i, j].
            let home = (s.tag >> self.shift) as usize;
            let stays = if i <= j {
                i < home && home <= j
            } else {
                i < home || home <= j
            };
            if !stays {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = Slot::default();
    }

    fn rehash(&mut self, n: usize) {
        let old = std::mem::replace(&mut self.slots, vec![Slot::default(); n]);
        self.shift = 32 - n.trailing_zeros();
        for s in old.into_iter().filter(|s| s.len > 0) {
            let mut i = (s.tag >> self.shift) as usize;
            while self.slots[i].len > 0 {
                i = (i + 1) & (n - 1);
            }
            self.slots[i] = s;
        }
    }

    /// Rewrite the key arena without its dead bytes once they are half of
    /// it — amortized against the removals that killed them.
    fn compact_keys_if_half_dead(&mut self) {
        if self.dead_key_bytes < 1024 || self.dead_key_bytes * 2 < self.keys.len() {
            return;
        }
        let mut keys = Vec::with_capacity(self.keys.len() - self.dead_key_bytes);
        for s in self.slots.iter_mut().filter(|s| s.len > 0) {
            let key = key_bytes(&self.keys, self.arity, s.key);
            s.key = offset(keys.len());
            keys.extend_from_slice(key);
        }
        self.keys = keys;
        self.dead_key_bytes = 0;
    }

    /// Visit every entry: group by group in table order, each group in
    /// insertion order.
    pub(crate) fn for_each(&self, visit: &mut dyn FnMut(&Entry)) {
        for s in self.slots.iter().filter(|s| s.len > 0) {
            self.span(s).iter().for_each(&mut *visit);
        }
    }

    /// Visit every entry with its group's key, in [`for_each`](Self::for_each)'s
    /// order.
    pub(crate) fn for_each_keyed(&self, visit: &mut dyn FnMut(&[Value], &Entry)) {
        for s in self.slots.iter().filter(|s| s.len > 0) {
            let key = decode(&self.keys[s.key as usize..], self.arity);
            self.span(s).iter().for_each(|e| visit(&key, e));
        }
    }

    /// Heap bytes held: the capacity of the backing arrays.
    pub(crate) fn memory_bytes(&self) -> usize {
        let free = self.free.iter().map(Vec::capacity).sum::<usize>();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.keys.capacity()
            + self.cells.capacity() * std::mem::size_of::<Entry>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + free * std::mem::size_of::<u32>()
    }
}
