//! What a class keeps of an entry's constants outside its index structure:
//! a row of typed slots.
//!
//! Each constant of an entry is stored once, where its organization reads
//! it. An equality key is in the [`EqTable`](crate::eqtable::EqTable)'s key
//! arena (or a list group's key), a range bound in the
//! [`IntervalIndex`](crate::IntervalIndex)'s endpoint array, and the rest —
//! what the residual reads — in the entry's row here. A row slot is a
//! 16-byte [`Const`]: a number in place, a string as a `u32` id into the
//! class's [`Dict`], which holds each distinct string once.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use tman_common::fxhash::{FxHashMap, FxHasher};
use tman_common::Value;

/// A constant as a class stores it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Const {
    Null,
    Int(i64),
    Float(f64),
    /// An id in the class's [`Dict`].
    Str(u32),
}

/// A value or a [`Const`] as [`Value::total_cmp`] orders it: NULL, then
/// numbers (an int against a float as `f64`), then strings.
#[derive(Clone, Copy)]
pub(crate) enum View<'a> {
    Null,
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> View<'a> {
    pub(crate) fn of(v: &'a Value) -> View<'a> {
        match v {
            Value::Null => View::Null,
            Value::Int(i) => View::Int(*i),
            Value::Float(f) => View::Float(*f),
            Value::Str(s) => View::Str(s),
        }
    }

    fn class(self) -> u8 {
        match self {
            View::Null => 0,
            View::Int(_) | View::Float(_) => 1,
            View::Str(_) => 2,
        }
    }

    pub(crate) fn cmp(self, other: View<'_>) -> Ordering {
        match (self, other) {
            (View::Int(a), View::Int(b)) => a.cmp(&b),
            (View::Float(a), View::Float(b)) => a.total_cmp(&b),
            (View::Int(a), View::Float(b)) => (a as f64).total_cmp(&b),
            (View::Float(a), View::Int(b)) => a.total_cmp(&(b as f64)),
            (View::Str(a), View::Str(b)) => a.cmp(b),
            (a, b) => a.class().cmp(&b.class()),
        }
    }
}

impl Const {
    /// `v`, its string (if any) interned in `dict`.
    pub(crate) fn intern(v: &Value, dict: &mut Dict) -> Const {
        match v {
            Value::Null => Const::Null,
            Value::Int(i) => Const::Int(*i),
            Value::Float(f) => Const::Float(*f),
            Value::Str(s) => Const::Str(dict.intern(s)),
        }
    }

    /// Give back what [`intern`](Self::intern) took of `dict`.
    pub(crate) fn release(self, dict: &mut Dict) {
        if let Const::Str(id) = self {
            dict.release(id);
        }
    }

    /// The constant as a value.
    pub(crate) fn value(self, dict: &Dict) -> Value {
        match self {
            Const::Null => Value::Null,
            Const::Int(i) => Value::Int(i),
            Const::Float(f) => Value::Float(f),
            Const::Str(id) => Value::Str(dict.get(id).to_owned()),
        }
    }

    /// The constant as [`View`] compares it.
    pub(crate) fn view(self, dict: &Dict) -> View<'_> {
        match self {
            Const::Null => View::Null,
            Const::Int(i) => View::Int(i),
            Const::Float(f) => View::Float(f),
            Const::Str(id) => View::Str(dict.get(id)),
        }
    }
}

/// A class's strings, each stored once under a `u32` id and counted by the
/// constants that hold it; an id whose count falls to zero is reused.
#[derive(Default)]
pub(crate) struct Dict {
    /// By id: the string and how many constants hold it.
    strs: Vec<(Box<str>, u32)>,
    /// A string's Fx hash → its id. Best effort: a string whose hash
    /// another string already files under gets an id of its own.
    ids: FxHashMap<u64, u32>,
    free: Vec<u32>,
    /// Bytes of the live strings.
    bytes: usize,
}

fn str_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

impl Dict {
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        let hash = str_hash(s);
        if let Some(&id) = self.ids.get(&hash) {
            let (held, count) = &mut self.strs[id as usize];
            if **held == *s {
                *count += 1;
                return id;
            }
        }
        self.bytes += s.len();
        let entry = (Box::from(s), 1);
        let id = match self.free.pop() {
            Some(id) => {
                self.strs[id as usize] = entry;
                id
            }
            None => {
                self.strs.push(entry);
                u32::try_from(self.strs.len() - 1).expect("fewer than 4 Gi strings in a class")
            }
        };
        self.ids.entry(hash).or_insert(id);
        id
    }

    pub(crate) fn release(&mut self, id: u32) {
        let (held, count) = &mut self.strs[id as usize];
        *count -= 1;
        if *count > 0 {
            return;
        }
        let s = std::mem::take(held);
        self.bytes -= s.len();
        let hash = str_hash(&s);
        if self.ids.get(&hash) == Some(&id) {
            self.ids.remove(&hash);
        }
        self.free.push(id);
    }

    pub(crate) fn get(&self, id: u32) -> &str {
        &self.strs[id as usize].0
    }

    /// Heap bytes held: the strings and the capacity of the tables.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bytes
            + self.strs.capacity() * std::mem::size_of::<(Box<str>, u32)>()
            + self.ids.capacity() * 8 / 7 * (std::mem::size_of::<(u64, u32)>() + 1)
            + self.free.capacity() * std::mem::size_of::<u32>()
    }
}

/// The rows of one organization: for each entry, its constants at the
/// slots the organization's index structure does not hold.
pub(crate) struct Rows {
    /// The constant slots a row holds, in slot order.
    slots: Vec<usize>,
    /// Row `r` is `vals[r * w..(r + 1) * w]`, `w` being `slots.len()`.
    vals: Vec<Const>,
    /// Rows given back, reused first.
    free: Vec<u32>,
    dict: Dict,
}

impl Rows {
    /// Rows of the constants at `slots`.
    pub(crate) fn new(slots: Vec<usize>) -> Rows {
        Rows {
            slots,
            vals: Vec::new(),
            free: Vec::new(),
            dict: Dict::default(),
        }
    }

    /// Store `consts` at the held slots; returns the row. A row of no
    /// slots stores nothing, and is row 0.
    pub(crate) fn insert(&mut self, consts: &[Value]) -> u32 {
        let w = self.slots.len();
        if w == 0 {
            return 0;
        }
        let row = match self.free.pop() {
            Some(row) => row,
            None => {
                let rows = self.vals.len() / w;
                self.vals.resize(self.vals.len() + w, Const::Null);
                u32::try_from(rows).expect("fewer than 4 Gi rows in a class")
            }
        };
        for (k, &slot) in self.slots.iter().enumerate() {
            self.vals[row as usize * w + k] = Const::intern(&consts[slot], &mut self.dict);
        }
        row
    }

    /// Give `row` back.
    pub(crate) fn remove(&mut self, row: u32) {
        let w = self.slots.len();
        if w == 0 {
            return;
        }
        for k in 0..w {
            let c = std::mem::replace(&mut self.vals[row as usize * w + k], Const::Null);
            c.release(&mut self.dict);
        }
        self.free.push(row);
    }

    /// Write `row`'s constants into their slots of `out`, a constant
    /// vector; the other slots are left as they are.
    pub(crate) fn fill(&self, row: u32, out: &mut [Value]) {
        let w = self.slots.len();
        let vals = &self.vals[row as usize * w..(row as usize + 1) * w];
        for (&slot, c) in self.slots.iter().zip(vals) {
            out[slot] = c.value(&self.dict);
        }
    }

    /// `row`'s constant at `slot`, if rows hold that slot.
    pub(crate) fn view(&self, row: u32, slot: usize) -> Option<View<'_>> {
        let k = self.slots.iter().position(|&s| s == slot)?;
        let c = self.vals[row as usize * self.slots.len() + k];
        Some(c.view(&self.dict))
    }

    /// Heap bytes held: the capacity of the row array and the free list,
    /// and the dictionary.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.vals.capacity() * std::mem::size_of::<Const>()
            + self.free.capacity() * std::mem::size_of::<u32>()
            + self.slots.capacity() * std::mem::size_of::<usize>()
            + self.dict.memory_bytes()
    }
}
