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
//! per entry.
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
use std::sync::Arc;
use tman_common::fxhash::FxHasher;
use tman_common::{TriggerId, Value};

/// The hash a key is filed and probed under: its values' [`Value::hash`],
/// one after another, so numerically equal ints and floats agree.
pub fn key_hash<'a>(values: impl Iterator<Item = &'a Value>) -> u64 {
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

fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The equality organization of one signature's constant set.
pub struct EqTable {
    /// Which of an entry's constants make its key (the plan's
    /// `const_slots`; none for a signature without an equality plan, whose
    /// entries then form one group).
    key_slots: Vec<usize>,
    /// Open addressing, linear probing; a power of two, at most two thirds
    /// full.
    slots: Vec<Slot>,
    /// `32 - log2(slots.len())`: a slot's home is `tag >> shift`.
    shift: u32,
    keys: Vec<u8>,
    cells: Vec<Option<Entry>>,
    /// Unused spans: `free[k]` holds the starts of those of `1 << k` cells.
    free: Vec<Vec<u32>>,
    groups: usize,
    dead_key_bytes: usize,
    /// Heap bytes of the distinct constant vectors the entries hold.
    consts_bytes: usize,
}

const MIN_SLOTS: usize = 8;

/// Heap bytes of one constant vector: the `Arc`'s two counts, the values,
/// their string buffers.
pub(crate) fn consts_heap(consts: &[Value]) -> usize {
    2 * std::mem::size_of::<usize>() + consts.iter().map(Value::heap_size).sum::<usize>()
}

impl EqTable {
    /// Empty table whose keys are the constants at `key_slots`.
    pub fn new(key_slots: Vec<usize>) -> EqTable {
        EqTable {
            key_slots,
            slots: vec![Slot::default(); MIN_SLOTS],
            shift: 32 - MIN_SLOTS.trailing_zeros(),
            keys: Vec::new(),
            cells: Vec::new(),
            free: Vec::new(),
            groups: 0,
            dead_key_bytes: 0,
            consts_bytes: 0,
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

    /// The key of the constant vector `consts`.
    fn key_of<'a>(&self, consts: &'a [Value]) -> Vec<&'a Value> {
        self.key_slots.iter().map(|&s| &consts[s]).collect()
    }

    fn span(&self, s: &Slot) -> &[Option<Entry>] {
        &self.cells[s.start as usize..(s.start + s.len) as usize]
    }

    /// Visit the entries filed under `key`, whose [`key_hash`] is `hash`.
    pub fn probe<'a>(
        &self,
        hash: u64,
        key: impl Iterator<Item = &'a Value> + Clone,
        visit: &mut dyn FnMut(&Entry),
    ) {
        let s = &self.slots[self.find(hash, key)];
        self.span(s).iter().flatten().for_each(visit);
    }

    /// An unused span of `cells` cells (a power of two): a freed one if
    /// there is one, else new cells at the end of the arena.
    fn take_span(&mut self, cells: u32) -> u32 {
        let freed = self.free.get_mut(cells.trailing_zeros() as usize);
        freed.and_then(Vec::pop).unwrap_or_else(|| {
            let end = self.cells.len() + cells as usize;
            self.cells.resize_with(end, || None);
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

    /// File `entry` under its key. A member of the group with the same
    /// constant vector lends its allocation (Figure-4 normalization);
    /// returns the vector the entry ended up holding.
    pub fn insert(&mut self, mut entry: Entry) -> Arc<[Value]> {
        let consts = entry.consts.clone();
        let key = self.key_of(&consts);
        let key = key.iter().copied();
        let hash = key_hash(key.clone());
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
        match self.span(&s).iter().flatten().find(|e| e.consts == consts) {
            Some(owner) => entry.consts = owner.consts.clone(),
            None => self.consts_bytes += consts_heap(&consts),
        }
        if s.len == span_cells(s.len) {
            // The span is full: move to one twice as long.
            let to = self.take_span(2 * s.len);
            for k in 0..s.len as usize {
                self.cells[to as usize + k] = self.cells[s.start as usize + k].take();
            }
            self.free_span(s.start, s.len);
            self.slots[i].start = to;
        }
        let s = &mut self.slots[i];
        let held = entry.consts.clone();
        self.cells[(s.start + s.len) as usize] = Some(entry);
        s.len += 1;
        held
    }

    /// Remove `trigger`'s entries from the group a constant vector
    /// `consts` belongs to, keeping the others' order. Returns how many.
    pub fn remove(&mut self, consts: &[Value], trigger: TriggerId) -> usize {
        let key = self.key_of(consts);
        let i = self.find(key_hash(key.iter().copied()), key.iter().copied());
        let s = self.slots[i];
        let span = &mut self.cells[s.start as usize..(s.start + s.len) as usize];
        // Survivors to the front, in order; the trigger's entries behind.
        let mut kept = 0;
        for k in 0..span.len() {
            tick(Work::RemoveVisit);
            if span[k].as_ref().is_some_and(|e| e.trigger_id != trigger) {
                span.swap(kept, k);
                kept += 1;
            }
        }
        let removed = span.len() - kept;
        if removed == 0 {
            return 0;
        }
        for k in kept..span.len() {
            let gone = span[k].take().expect("a full span");
            let held = |e: &Entry| Arc::ptr_eq(&e.consts, &gone.consts);
            if !span.iter().flatten().any(held) {
                self.consts_bytes -= consts_heap(&gone.consts);
            }
        }
        self.slots[i].len = kept as u32;
        // Shrink the span to what the survivors need.
        let (had, needs) = (span_cells(s.len), span_cells(kept as u32));
        if kept == 0 {
            self.free_span(s.start, had);
            self.dead_key_bytes += key_bytes(&self.keys, self.key_slots.len(), s.key).len();
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
            let key = key_bytes(&self.keys, self.key_slots.len(), s.key);
            s.key = offset(keys.len());
            keys.extend_from_slice(key);
        }
        self.keys = keys;
        self.dead_key_bytes = 0;
    }

    /// Visit every entry: group by group in table order, each group in
    /// insertion order.
    pub fn for_each(&self, visit: &mut dyn FnMut(&Entry)) {
        for s in self.slots.iter().filter(|s| s.len > 0) {
            self.span(s).iter().flatten().for_each(&mut *visit);
        }
    }

    /// Take every entry out, in [`for_each`](Self::for_each) order.
    pub fn drain(&mut self) -> Vec<Entry> {
        let mut all = std::mem::replace(self, EqTable::new(self.key_slots.clone()));
        let mut out = Vec::new();
        for s in all.slots.iter().filter(|s| s.len > 0) {
            let span = &mut all.cells[s.start as usize..(s.start + s.len) as usize];
            out.extend(span.iter_mut().filter_map(Option::take));
        }
        out
    }

    /// Heap bytes held: the capacity of the backing arrays, plus the
    /// entries' constant vectors, each distinct allocation once.
    pub fn memory_bytes(&self) -> usize {
        let free = self.free.iter().map(Vec::capacity).sum::<usize>();
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.keys.capacity()
            + self.cells.capacity() * std::mem::size_of::<Option<Entry>>()
            + self.free.capacity() * std::mem::size_of::<Vec<u32>>()
            + free * std::mem::size_of::<u32>()
            + self.consts_bytes
    }
}
