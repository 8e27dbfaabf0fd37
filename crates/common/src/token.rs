//! Update descriptors (tokens).
//!
//! §5.4: "an update descriptor (token) consists of a data source ID, an
//! operation code, and an old tuple, new tuple, or old/new tuple pair."

use crate::error::{Result, TmanError};
use crate::fxhash::FxHashSet;
use crate::ids::DataSourceId;
use crate::tuple::Tuple;
use std::fmt;
use std::sync::{Arc, Mutex};
use tman_telemetry::TraceHandle;

/// Operation code carried by a token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenOp {
    /// A new tuple was inserted (carries `new`).
    Insert,
    /// A tuple was deleted (carries `old`).
    Delete,
    /// A tuple was updated (carries `old` and `new`).
    Update,
}

impl TokenOp {
    /// Catalog encoding (stable across restarts).
    pub fn code(self) -> u8 {
        match self {
            TokenOp::Insert => 0,
            TokenOp::Delete => 1,
            TokenOp::Update => 2,
        }
    }

    /// Decode the catalog encoding.
    pub fn from_code(c: u8) -> Result<TokenOp> {
        match c {
            0 => Ok(TokenOp::Insert),
            1 => Ok(TokenOp::Delete),
            2 => Ok(TokenOp::Update),
            _ => Err(TmanError::Storage(format!("bad token op code {c}"))),
        }
    }
}

impl fmt::Display for TokenOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenOp::Insert => write!(f, "insert"),
            TokenOp::Delete => write!(f, "delete"),
            TokenOp::Update => write!(f, "update"),
        }
    }
}

/// Event condition attached to a signature or trigger (`on` clause).
///
/// §5: the operation code of an expression signature is "insert, delete,
/// update, or insertOrUpdate"; a tuple variable with no `on` event is
/// implicitly *insert or update*.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// `on insert to S`
    Insert,
    /// `on delete from S`
    Delete,
    /// `on update(S.a, S.b)` — empty column list means "any column".
    Update(Vec<String>),
    /// Implicit event when no `on` clause names the tuple variable.
    InsertOrUpdate,
    /// Accepts every operation. Not part of the paper's opcode set: used by
    /// the engine to route *maintenance* tokens (including deletes) to
    /// triggers whose discrimination networks keep stored memories
    /// (TREAT/Rete); event filtering then happens at action time.
    Any,
}

impl EventKind {
    /// Signature operation-code byte (update column lists are part of the
    /// signature description, not the opcode).
    pub fn opcode(&self) -> u8 {
        match self {
            EventKind::Insert => 0,
            EventKind::Delete => 1,
            EventKind::Update(_) => 2,
            EventKind::InsertOrUpdate => 3,
            EventKind::Any => 4,
        }
    }

    /// Does a token with operation `op` satisfy this event condition?
    ///
    /// Column-level update events (`update(emp.salary)`) additionally
    /// require one of the named columns to have changed; that check needs
    /// the schema and both tuples, so it is performed by
    /// [`UpdateDescriptor::touches_columns`] at match time.
    pub fn accepts(&self, op: TokenOp) -> bool {
        match self {
            EventKind::Insert => op == TokenOp::Insert,
            EventKind::Delete => op == TokenOp::Delete,
            EventKind::Update(_) => op == TokenOp::Update,
            EventKind::InsertOrUpdate => op == TokenOp::Insert || op == TokenOp::Update,
            EventKind::Any => true,
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Insert => write!(f, "insert"),
            EventKind::Delete => write!(f, "delete"),
            EventKind::Update(cols) if cols.is_empty() => write!(f, "update"),
            EventKind::Update(cols) => write!(f, "update({})", cols.join(",")),
            EventKind::InsertOrUpdate => write!(f, "insertOrUpdate"),
            EventKind::Any => write!(f, "any"),
        }
    }
}

/// Shared claim set for *tagged execution* of indexed disjunctions (Kim &
/// Madden). An OR-trigger registers one predicate-index entry per
/// selectable disjunct; all of its entries carry the same tag. Whichever
/// entry's probe reaches the token first *claims* the tag; later hits on
/// the same tag for the same token are duplicates of the same logical
/// match and must not fire again.
///
/// The tag travels with the token. A token processed whole claims against
/// a set local to its replay and carries the inert form ([`none`]): no
/// allocation, no lock. Only a token that is split across tasks
/// (partition fan-out) is given the shared form ([`shared_from`], seeded
/// with what the replay had already claimed), so every task cloned from it
/// claims against one set and the dedup stays exactly-once across shards.
///
/// [`none`]: Self::none
/// [`shared_from`]: Self::shared_from
#[derive(Debug, Clone, Default)]
pub struct TagClaims(Option<Arc<Mutex<FxHashSet<u64>>>>);

impl TagClaims {
    /// Inert claims: no set allocated, every [`claim`](Self::claim) is true.
    pub fn none() -> TagClaims {
        TagClaims(None)
    }

    /// A shared claim set holding `claimed` already.
    pub fn shared_from(claimed: impl IntoIterator<Item = u64>) -> TagClaims {
        TagClaims(Some(Arc::new(Mutex::new(claimed.into_iter().collect()))))
    }

    /// Is a shared claim set armed on this token?
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Claim `tag` for this token. Returns true exactly once per
    /// `(token, tag)` when armed; always true when inert.
    pub fn claim(&self, tag: u64) -> bool {
        match &self.0 {
            Some(set) => set.lock().expect("claims poisoned").insert(tag),
            None => true,
        }
    }
}

/// The paper's *token*: one captured update flowing through the system.
///
/// Equality ignores the [`trace`](Self::trace) handle — it is execution
/// metadata riding along with the token, not part of its identity.
#[derive(Debug, Clone)]
pub struct UpdateDescriptor {
    /// Source the update happened on.
    pub data_src: DataSourceId,
    /// What happened.
    pub op: TokenOp,
    /// Pre-image (`:OLD`); present for delete and update.
    pub old: Option<Tuple>,
    /// Post-image (`:NEW`); present for insert and update.
    pub new: Option<Tuple>,
    /// Per-token trace lineage (inert unless the engine is tracing). The
    /// handle is cloned into every task spawned for this token, so the
    /// trace finalizes when the last task finishes. Not serialized by
    /// [`encode`](Self::encode).
    pub trace: TraceHandle,
    /// Durable origin of this token — the persistent-queue sequence number
    /// it was dequeued under, if any. Downstream delivery tiers use it to
    /// deduplicate redelivered tokens after a crash. Like `trace`, this is
    /// execution metadata: ignored by equality and not serialized.
    pub origin: Option<i64>,
    /// Wall-clock ingest stamp (ns since the Unix epoch), 0 when unknown.
    /// Stamped where the token entered the system (the wire server on
    /// decode, or the client's send stamp when the peer supplies one) and
    /// carried through the persistent queue so end-to-end ingest→fire
    /// latency survives a restart. Execution metadata: ignored by equality,
    /// but — unlike `trace` — serialized by [`encode`](Self::encode).
    pub ingest_unix_ns: u64,
    /// Tagged-execution claim set (see [`TagClaims`]). Execution metadata
    /// like `trace`: ignored by equality, not serialized; the engine arms
    /// it when it splits the token across tasks.
    pub claims: TagClaims,
}

impl PartialEq for UpdateDescriptor {
    fn eq(&self, other: &UpdateDescriptor) -> bool {
        self.data_src == other.data_src
            && self.op == other.op
            && self.old == other.old
            && self.new == other.new
    }
}

impl UpdateDescriptor {
    /// Insert token.
    pub fn insert(data_src: DataSourceId, new: Tuple) -> UpdateDescriptor {
        UpdateDescriptor {
            data_src,
            op: TokenOp::Insert,
            old: None,
            new: Some(new),
            trace: TraceHandle::none(),
            origin: None,
            ingest_unix_ns: 0,
            claims: TagClaims::none(),
        }
    }

    /// Delete token.
    pub fn delete(data_src: DataSourceId, old: Tuple) -> UpdateDescriptor {
        UpdateDescriptor {
            data_src,
            op: TokenOp::Delete,
            old: Some(old),
            new: None,
            trace: TraceHandle::none(),
            origin: None,
            ingest_unix_ns: 0,
            claims: TagClaims::none(),
        }
    }

    /// Update token (old/new pair).
    pub fn update(data_src: DataSourceId, old: Tuple, new: Tuple) -> UpdateDescriptor {
        UpdateDescriptor {
            data_src,
            op: TokenOp::Update,
            old: Some(old),
            new: Some(new),
            trace: TraceHandle::none(),
            origin: None,
            ingest_unix_ns: 0,
            claims: TagClaims::none(),
        }
    }

    /// The tuple selection predicates are evaluated against: the new image
    /// for inserts/updates, the old image for deletes.
    #[inline]
    pub fn probe_tuple(&self) -> &Tuple {
        match self.op {
            TokenOp::Insert | TokenOp::Update => self.new.as_ref().expect("new image"),
            TokenOp::Delete => self.old.as_ref().expect("old image"),
        }
    }

    /// For an update token, did any of the given column ordinals change
    /// value? Vacuously true for non-update tokens and for an empty list.
    pub fn touches_columns(&self, cols: &[usize]) -> bool {
        if self.op != TokenOp::Update || cols.is_empty() {
            return true;
        }
        let (old, new) = (
            self.old.as_ref().expect("old image"),
            self.new.as_ref().expect("new image"),
        );
        cols.iter().any(|&c| old.get(c) != new.get(c))
    }

    /// Serialize (for the persistent update-descriptor queue).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(&mut out);
        out
    }

    /// Serialize onto the end of `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.data_src.raw().to_le_bytes());
        out.push(self.op.code());
        let mut flags = 0u8;
        if self.old.is_some() {
            flags |= 1;
        }
        if self.new.is_some() {
            flags |= 2;
        }
        if self.ingest_unix_ns != 0 {
            flags |= 4;
        }
        out.push(flags);
        if let Some(t) = &self.old {
            t.encode_into(out);
        }
        if let Some(t) = &self.new {
            t.encode_into(out);
        }
        if self.ingest_unix_ns != 0 {
            out.extend_from_slice(&self.ingest_unix_ns.to_le_bytes());
        }
    }

    /// Deserialize (inverse of [`encode`](Self::encode)).
    pub fn decode(buf: &[u8]) -> Result<UpdateDescriptor> {
        if buf.len() < 6 {
            return Err(TmanError::Storage("truncated update descriptor".into()));
        }
        let data_src = DataSourceId(u32::from_le_bytes(buf[0..4].try_into().unwrap()));
        let op = TokenOp::from_code(buf[4])?;
        let flags = buf[5];
        let mut cursor = 6;
        let old = if flags & 1 != 0 {
            Some(Tuple::decode_from(buf, &mut cursor)?)
        } else {
            None
        };
        let new = if flags & 2 != 0 {
            Some(Tuple::decode_from(buf, &mut cursor)?)
        } else {
            None
        };
        let ingest_unix_ns = if flags & 4 != 0 {
            if buf.len() < cursor + 8 {
                return Err(TmanError::Storage("truncated ingest stamp".into()));
            }
            let v = u64::from_le_bytes(buf[cursor..cursor + 8].try_into().unwrap());
            cursor += 8;
            v
        } else {
            0
        };
        if cursor != buf.len() {
            return Err(TmanError::Storage(
                "trailing bytes in update descriptor".into(),
            ));
        }
        Ok(UpdateDescriptor {
            data_src,
            op,
            old,
            new,
            trace: TraceHandle::none(),
            origin: None,
            ingest_unix_ns,
            claims: TagClaims::none(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn tup(vals: &[i64]) -> Tuple {
        Tuple::new(vals.iter().map(|&v| Value::Int(v)).collect())
    }

    #[test]
    fn event_acceptance_matrix() {
        assert!(EventKind::Insert.accepts(TokenOp::Insert));
        assert!(!EventKind::Insert.accepts(TokenOp::Update));
        assert!(EventKind::Delete.accepts(TokenOp::Delete));
        assert!(EventKind::Update(vec![]).accepts(TokenOp::Update));
        assert!(!EventKind::Update(vec![]).accepts(TokenOp::Insert));
        assert!(EventKind::InsertOrUpdate.accepts(TokenOp::Insert));
        assert!(EventKind::InsertOrUpdate.accepts(TokenOp::Update));
        assert!(!EventKind::InsertOrUpdate.accepts(TokenOp::Delete));
    }

    #[test]
    fn probe_tuple_picks_correct_image() {
        let ins = UpdateDescriptor::insert(DataSourceId(1), tup(&[1]));
        assert_eq!(ins.probe_tuple(), &tup(&[1]));
        let del = UpdateDescriptor::delete(DataSourceId(1), tup(&[2]));
        assert_eq!(del.probe_tuple(), &tup(&[2]));
        let upd = UpdateDescriptor::update(DataSourceId(1), tup(&[3]), tup(&[4]));
        assert_eq!(upd.probe_tuple(), &tup(&[4]));
    }

    #[test]
    fn touches_columns_detects_changes() {
        let upd = UpdateDescriptor::update(DataSourceId(1), tup(&[1, 2, 3]), tup(&[1, 9, 3]));
        assert!(upd.touches_columns(&[1]));
        assert!(!upd.touches_columns(&[0, 2]));
        assert!(upd.touches_columns(&[])); // empty = any column
        let ins = UpdateDescriptor::insert(DataSourceId(1), tup(&[1]));
        assert!(ins.touches_columns(&[0])); // non-update: vacuous
    }

    #[test]
    fn encode_decode_roundtrip_all_ops() {
        for d in [
            UpdateDescriptor::insert(DataSourceId(5), tup(&[1, 2])),
            UpdateDescriptor::delete(DataSourceId(5), tup(&[3])),
            UpdateDescriptor::update(DataSourceId(9), tup(&[1]), tup(&[2])),
        ] {
            assert_eq!(UpdateDescriptor::decode(&d.encode()).unwrap(), d);
        }
    }

    #[test]
    fn equality_ignores_trace_handle() {
        use std::sync::Arc;
        let tracer = Arc::new(tman_telemetry::Tracer::new(
            64,
            1,
            std::time::Duration::ZERO,
        ));
        let plain = UpdateDescriptor::insert(DataSourceId(1), tup(&[1]));
        let mut traced = plain.clone();
        traced.trace = tracer.begin();
        assert!(traced.trace.is_active());
        assert_eq!(plain, traced);
        // And the round-trip through the persistent-queue codec drops the
        // handle without affecting token identity.
        let decoded = UpdateDescriptor::decode(&traced.encode()).unwrap();
        assert!(!decoded.trace.is_active());
        assert_eq!(decoded, traced);
    }

    #[test]
    fn tag_claims_claim_once_and_shared_across_clones() {
        let inert = TagClaims::none();
        assert!(!inert.is_active());
        assert!(inert.claim(7));
        assert!(inert.claim(7)); // inert: always true

        let armed = TagClaims::shared_from([]);
        assert!(armed.is_active());
        assert!(armed.claim(7));
        assert!(!armed.claim(7)); // second hit on the same tag is a dup
        assert!(armed.claim(8)); // distinct tag claims independently
                                 // A cloned token (fan-out task) shares the same claim set.
        let cloned = armed.clone();
        assert!(!cloned.claim(7));
        assert!(cloned.claim(9));
        assert!(!armed.claim(9));
        // A split token inherits what its replay had claimed locally.
        let split = TagClaims::shared_from([3, 4]);
        assert!(!split.claim(3));
        assert!(split.claim(5));
    }

    #[test]
    fn token_claims_are_execution_metadata() {
        let plain = UpdateDescriptor::insert(DataSourceId(1), tup(&[1]));
        let mut armed = plain.clone();
        armed.claims = TagClaims::shared_from([]);
        assert_eq!(plain, armed); // equality ignores claims
        let decoded = UpdateDescriptor::decode(&armed.encode()).unwrap();
        assert!(!decoded.claims.is_active()); // codec drops them
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(UpdateDescriptor::decode(&[]).is_err());
        assert!(UpdateDescriptor::decode(&[0, 0, 0, 0, 9, 0]).is_err()); // bad op
        let mut good = UpdateDescriptor::insert(DataSourceId(1), tup(&[1])).encode();
        good.push(0);
        assert!(UpdateDescriptor::decode(&good).is_err()); // trailing byte
    }
}
