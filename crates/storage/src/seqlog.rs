//! Sequence-addressed record log.
//!
//! An append-only chain of pages whose records are addressed by a dense
//! sequence number that is never reused: the first record ever appended is
//! 1, a reader names the sequence it wants next, and
//! [`truncate_through`](SeqLog::truncate_through) declares everything at or
//! below a sequence dead. Nothing scans: an in-memory index of the live
//! chain (one entry per page) finds a sequence's page by binary search, so
//! append, read and truncate each touch only the pages they name, however
//! many records the log has ever held. Head pages that truncation empties
//! are recycled by later appends, so a log cycling a bounded backlog stays
//! a bounded number of pages.
//!
//! Pages come from the [`BufferPool`], so a log shares its store's
//! write-ahead log, fault injection and memory backend with every heap and
//! B+tree in it. The log adds **no durability barrier** of its own: a
//! caller that needs an append or a truncation to survive a crash follows
//! it with [`BufferPool::sync`].
//!
//! # Layout
//!
//! ```text
//! meta page (the log's identity in the directory)
//!   0..4    magic "SLOG"
//!   4..8    head page: oldest page of the live chain
//!   8..16   truncated-through sequence (the watermark)
//!   16..18  number of free-list entries
//!   24..    free list: page ids, u32 each
//!
//! chain page
//!   0..4    next page (0 = tail)
//!   4..8    magic: "SLGD" record page | "SLGC" continuation page
//!   8..16   sequence of the first record starting here; on a
//!           continuation page, of the record being continued
//!   16..18  records starting here (0 on a continuation page)
//!   18..20  payload bytes used
//!   24..    payload: records, each `len u32 | bytes`
//! ```
//!
//! A record is never split unless it cannot fit an empty page. One that
//! cannot starts a fresh record page, fills it, and runs on through as
//! many continuation pages as it needs; the next record starts a fresh
//! page again.
//!
//! # What a crash can leave, and what `open` does about it
//!
//! A crash recovers some commit of the store's log, and a commit can catch
//! another thread between two page writes, so every operation here is
//! ordered to be safe under any such cut.
//!
//! * **Truncation** writes the meta page and nothing else — head,
//!   watermark and free list move together or not at all — and writes it
//!   *through* ([`BufferPool::write_through`]) before it returns. A freed
//!   page is not touched until an append reuses it, which is therefore
//!   after the meta page that freed it is in the log: no commit can hold a
//!   recycled head page under a meta page that still calls it the head.
//! * **Append** writes its record and the page's counts under one page
//!   lock. One that needs new pages pins them all, fills them, and links
//!   them from the old tail last; it never writes the meta page. A commit
//!   may hold that link without the new pages' contents, or a free list
//!   that still names a page the chain has since taken.
//!
//! [`SeqLog::open`] walks the chain from the head, requires each page to
//! continue its predecessor's sequence exactly (a stale page carries an
//! older sequence), and cuts the chain at the first page that does not —
//! such a page was never covered by a completed barrier. It then drops
//! from the free list every page the chain holds. The sequence counter
//! resumes past both the chain's end and the watermark.

use crate::buffer::{BufferPool, PageGuard};
use crate::disk::{PageId, PAGE_SIZE};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use tman_common::{Result, TmanError};
use tman_sync::Mutex;

const META_MAGIC: &[u8; 4] = b"SLOG";
const RECORD_PAGE: &[u8; 4] = b"SLGD";
const CONT_PAGE: &[u8; 4] = b"SLGC";

/// Header bytes of the meta page and of every chain page.
const HDR: usize = 24;
/// Payload bytes of a chain page.
const CAP: usize = PAGE_SIZE - HDR;
/// Length prefix of a record.
const LEN: usize = 4;
/// Free-list entries the meta page has room for. Truncation leaves dead
/// head pages chained once the list is full; they are freed as appends
/// make room.
const FREE_CAP: usize = (PAGE_SIZE - HDR) / 4;

fn u32_at(p: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(p[off..off + 4].try_into().expect("4-byte field"))
}

fn u64_at(p: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(p[off..off + 8].try_into().expect("8-byte field"))
}

fn u16_at(p: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(p[off..off + 2].try_into().expect("2-byte field"))
}

/// A chain page's header, as stored.
struct PageHdr {
    next: PageId,
    cont: bool,
    first_seq: u64,
    nrecs: u16,
    used: usize,
}

/// Parse a chain page's header; `None` if the page is not one (never
/// written, quarantined, or belongs to something else).
fn page_hdr(p: &[u8; PAGE_SIZE]) -> Option<PageHdr> {
    let cont = match &p[4..8] {
        m if m == RECORD_PAGE => false,
        m if m == CONT_PAGE => true,
        _ => return None,
    };
    let used = u16_at(p, 18) as usize;
    (used <= CAP).then(|| PageHdr {
        next: PageId(u32_at(p, 0)),
        cont,
        first_seq: u64_at(p, 8),
        nrecs: u16_at(p, 16),
        used,
    })
}

/// Format a chain page with `payload` already in place.
fn init_page(p: &mut [u8; PAGE_SIZE], cont: bool, first_seq: u64, nrecs: u16, payload: &[&[u8]]) {
    p[0..4].copy_from_slice(&0u32.to_le_bytes());
    p[4..8].copy_from_slice(if cont { CONT_PAGE } else { RECORD_PAGE });
    p[8..16].copy_from_slice(&first_seq.to_le_bytes());
    p[16..18].copy_from_slice(&nrecs.to_le_bytes());
    let mut used = 0;
    for part in payload {
        p[HDR + used..HDR + used + part.len()].copy_from_slice(part);
        used += part.len();
    }
    p[18..20].copy_from_slice(&(used as u16).to_le_bytes());
}

/// One page of the live chain.
#[derive(Clone, Copy)]
struct Live {
    /// Sequence of the first record starting on the page (of the record
    /// being continued, on a continuation page).
    first_seq: u64,
    pid: PageId,
    cont: bool,
}

struct State {
    /// The live chain, head first. Never empty: the tail is never freed.
    pages: VecDeque<Live>,
    /// Payload bytes used on the tail; `CAP` when the tail closes a record
    /// that spans pages, which takes no neighbours.
    tail_used: usize,
    next_seq: u64,
    watermark: u64,
    free: Vec<PageId>,
}

impl State {
    fn tail(&self) -> Live {
        *self.pages.back().expect("the chain always has a tail")
    }

    /// Index of the page on which record `seq` starts. Caller guarantees
    /// `first live sequence <= seq < next_seq`.
    fn locate(&self, seq: u64) -> usize {
        // Continuation pages share their record's sequence and follow its
        // first page, so the first page at or above `seq` is either the
        // one `seq` starts on or the one after it.
        let at = self.pages.partition_point(|l| l.first_seq < seq);
        match self.pages.get(at) {
            Some(l) if l.first_seq == seq => at,
            _ => at.saturating_sub(1),
        }
    }

    /// Pages at the head of the chain, `room` at most, that hold only
    /// records at or below `seq`. A record that spans pages goes whole or
    /// not at all, and the tail's record stays, so the head is always a
    /// record page.
    fn dead_head_pages(&self, seq: u64, room: usize) -> usize {
        let mut dead = 0;
        loop {
            let conts = self.pages.iter().skip(dead + 1).take_while(|l| l.cont);
            let after = dead + 1 + conts.count();
            match self.pages.get(after) {
                Some(next) if next.first_seq - 1 <= seq && after <= room => dead = after,
                _ => return dead,
            }
        }
    }
}

/// An append-only record log addressed by sequence number. Its page
/// layout and crash rules are the `seqlog` module's documentation.
pub struct SeqLog {
    pool: Arc<BufferPool>,
    meta: PageId,
    state: Mutex<State>,
}

impl SeqLog {
    /// Create an empty log: a meta page and one empty record page.
    pub(crate) fn create(pool: Arc<BufferPool>) -> Result<SeqLog> {
        let (meta_pid, meta) = pool.allocate()?;
        let (first_pid, first) = pool.allocate()?;
        init_page(&mut first.write(), false, 1, 0, &[]);
        let state = State {
            pages: VecDeque::from([Live {
                first_seq: 1,
                pid: first_pid,
                cont: false,
            }]),
            tail_used: 0,
            next_seq: 1,
            watermark: 0,
            free: Vec::new(),
        };
        meta.write()[0..4].copy_from_slice(META_MAGIC);
        Self::write_meta(&meta, &state);
        Ok(SeqLog {
            pool,
            meta: meta_pid,
            state: Mutex::new(state),
        })
    }

    /// Open a log by its meta page, rebuilding the page index from the
    /// chain and repairing what an interrupted append or a torn commit may
    /// have left (see the module documentation).
    pub fn open(pool: Arc<BufferPool>, meta: PageId) -> Result<SeqLog> {
        let meta_guard = pool.fetch(meta)?;
        let (head, watermark, listed) = {
            let m = meta_guard.read();
            if &m[0..4] != META_MAGIC {
                return Err(TmanError::Storage(format!(
                    "page {} is not a sequence-log meta page",
                    meta.0
                )));
            }
            let n = (u16_at(&m[..], 16) as usize).min(FREE_CAP);
            let listed: Vec<PageId> = (0..n)
                .map(|i| PageId(u32_at(&m[..], HDR + 4 * i)))
                .collect();
            (PageId(u32_at(&m[..], 4)), u64_at(&m[..], 8), listed)
        };
        let num_pages = pool.disk().num_pages();
        let in_bounds = |pid: PageId| !pid.is_null() && pid.0 < num_pages;
        if !in_bounds(head) {
            return Err(TmanError::Storage(format!(
                "sequence log {}: head page {} is out of bounds",
                meta.0, head.0
            )));
        }

        // Walk the chain while each page continues the one before it. A
        // page that does not is still one this log once linked, so it is
        // spare: free, unless the chain or the free list holds it already.
        let mut pages: VecDeque<Live> = VecDeque::new();
        let mut spare = Vec::new();
        let mut seen = HashSet::from([meta]);
        let mut tail_used = 0;
        let mut next_seq = None; // sequence the next record page must start at
        let mut owed = 0; // bytes the record being continued still lacks
        let mut pid = head;
        while in_bounds(pid) && seen.insert(pid) {
            let g = pool.fetch(pid)?;
            let p = g.read();
            let follows = page_hdr(&p).filter(|h| {
                if owed > 0 {
                    h.cont && h.first_seq.checked_add(1) == next_seq && h.used == owed.min(CAP)
                } else {
                    !h.cont && next_seq.is_none_or(|s| s == h.first_seq)
                }
            });
            let Some(h) = follows else {
                spare.push(pid);
                break;
            };
            if h.cont {
                owed -= h.used;
            } else {
                next_seq = Some(h.first_seq.saturating_add(h.nrecs as u64));
                if h.used >= LEN {
                    let need = LEN + u32_at(&p[..], HDR) as usize;
                    owed = need.saturating_sub(CAP);
                    if owed > 0 && (h.nrecs != 1 || h.used != CAP) {
                        spare.push(pid);
                        break;
                    }
                }
            }
            pages.push_back(Live {
                first_seq: h.first_seq,
                pid,
                cont: h.cont,
            });
            tail_used = if owed > 0 || h.cont { CAP } else { h.used };
            pid = h.next;
        }
        // A record whose last pages are missing was never completed.
        if owed > 0 {
            let start = pages.iter().rposition(|l| !l.cont);
            let start = start.expect("continuation pages follow their record page");
            spare.extend(pages.drain(start..).map(|l| l.pid));
            next_seq = next_seq.map(|s| s - 1);
            tail_used = CAP;
        }
        let chain_end = next_seq.unwrap_or(0);
        let next_seq = chain_end.max(watermark + 1);
        if pages.is_empty() || chain_end <= watermark {
            // Nothing live survived (or the watermark's commit outran the
            // records it covers): restart the chain on the head page, so
            // that no sequence at or below the watermark is issued again.
            spare.extend(pages.drain(..).map(|l| l.pid));
            init_page(&mut pool.fetch(head)?.write(), false, next_seq, 0, &[]);
            pages.push_back(Live {
                first_seq: next_seq,
                pid: head,
                cont: false,
            });
            tail_used = 0;
        } else {
            // Cut whatever the walk refused to follow.
            let tail = pool.fetch(pages.back().expect("not empty").pid)?;
            if u32_at(&tail.read()[..], 0) != 0 {
                tail.write()[0..4].copy_from_slice(&0u32.to_le_bytes());
            }
        }
        let mut taken: HashSet<PageId> = pages.iter().map(|l| l.pid).collect();
        taken.insert(meta);
        let free: Vec<PageId> = listed
            .into_iter()
            .chain(spare)
            .filter(|pid| in_bounds(*pid) && taken.insert(*pid))
            .take(FREE_CAP)
            .collect();
        Ok(SeqLog {
            pool,
            meta,
            state: Mutex::new(State {
                pages,
                tail_used,
                next_seq,
                watermark,
                free,
            }),
        })
    }

    /// The meta page id (stable identity for the directory).
    pub fn meta_page(&self) -> PageId {
        self.meta
    }

    /// Sequence the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.state.lock().next_seq
    }

    /// Sequence through which the log has been truncated (0 = nothing).
    pub fn watermark(&self) -> u64 {
        self.state.lock().watermark
    }

    /// Pages in the live chain (not counting the meta page or free pages).
    #[cfg(test)]
    fn chain_pages(&self) -> usize {
        self.state.lock().pages.len()
    }

    fn write_meta(meta: &PageGuard, st: &State) {
        let mut m = meta.write();
        let head = st.pages.front().expect("the chain always has a head");
        m[4..8].copy_from_slice(&head.pid.0.to_le_bytes());
        m[8..16].copy_from_slice(&st.watermark.to_le_bytes());
        m[16..18].copy_from_slice(&(st.free.len() as u16).to_le_bytes());
        for (i, pid) in st.free.iter().enumerate() {
            m[HDR + 4 * i..HDR + 4 * i + 4].copy_from_slice(&pid.0.to_le_bytes());
        }
    }

    /// Append a record and return its sequence number. On an error the log
    /// is as it was: no sequence number is consumed.
    pub fn append(&self, rec: &[u8]) -> Result<u64> {
        let len = u32::try_from(rec.len())
            .map_err(|_| TmanError::Storage("sequence-log record exceeds 4 GiB".into()))?;
        let need = LEN + rec.len();
        let mut st = self.state.lock();
        let seq = st.next_seq;
        let tail = st.tail();
        let tail_guard = self.pool.fetch(tail.pid)?;
        if need <= CAP - st.tail_used {
            let mut p = tail_guard.write();
            let at = HDR + st.tail_used;
            p[at..at + LEN].copy_from_slice(&len.to_le_bytes());
            p[at + LEN..at + need].copy_from_slice(rec);
            st.tail_used += need;
            st.next_seq += 1;
            let nrecs = (st.next_seq - tail.first_seq) as u16;
            p[16..18].copy_from_slice(&nrecs.to_le_bytes());
            p[18..20].copy_from_slice(&(st.tail_used as u16).to_le_bytes());
            return Ok(seq);
        }

        // Start a fresh page; a record too large for one runs on through
        // continuation pages. Pin every page before writing any, so that
        // nothing below can fail and leave the record half-linked.
        let first_chunk = rec.len().min(CAP - LEN);
        let chunks: Vec<&[u8]> = std::iter::once(&rec[..first_chunk])
            .chain(rec[first_chunk..].chunks(CAP))
            .collect();
        let mut fresh: Vec<(PageId, PageGuard)> = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            let got = match st.free.pop() {
                Some(pid) => self.pool.fetch(pid).map(|g| (pid, g)).inspect_err(|_| {
                    st.free.push(pid);
                }),
                None => self.pool.allocate(),
            };
            match got {
                Ok(page) => fresh.push(page),
                Err(e) => {
                    st.free.extend(fresh.iter().map(|(pid, _)| *pid));
                    return Err(e);
                }
            }
        }
        for (i, ((_, guard), chunk)) in fresh.iter().zip(&chunks).enumerate() {
            let mut p = guard.write();
            if i == 0 {
                init_page(&mut p, false, seq, 1, &[&len.to_le_bytes(), chunk]);
            } else {
                init_page(&mut p, true, seq, 0, &[chunk]);
            }
            if let Some((next, _)) = fresh.get(i + 1) {
                p[0..4].copy_from_slice(&next.0.to_le_bytes());
            }
        }
        tail_guard.write()[0..4].copy_from_slice(&fresh[0].0 .0.to_le_bytes());
        st.pages
            .extend(fresh.iter().enumerate().map(|(i, (pid, _))| Live {
                first_seq: seq,
                pid: *pid,
                cont: i > 0,
            }));
        st.tail_used = if fresh.len() > 1 { CAP } else { need };
        st.next_seq += 1;
        Ok(seq)
    }

    /// Visit up to `max` records in sequence order, starting at `from` or
    /// at the first record above the watermark if that is later. Returns
    /// the sequence after the last record visited — the `from` of the next
    /// call. Fetches only the pages the visited records lie on. `visit`
    /// runs under the log's lock and must not call back into the log.
    pub fn read_from(
        &self,
        from: u64,
        max: usize,
        mut visit: impl FnMut(u64, &[u8]),
    ) -> Result<u64> {
        let st = self.state.lock();
        let mut seq = from.max(st.watermark + 1);
        let end = st.next_seq.min(seq.saturating_add(max as u64));
        if seq >= end {
            return Ok(seq);
        }
        let torn = |what: &str, seq: u64| {
            TmanError::Corrupt(format!("sequence log {}: {what} record {seq}", self.meta.0))
        };
        let mut at = st.locate(seq);
        while seq < end {
            let live = *st
                .pages
                .get(at)
                .ok_or_else(|| torn("chain ends before", seq))?;
            let guard = self.pool.fetch(live.pid)?;
            let p = guard.read();
            let h = page_hdr(&p)
                .filter(|h| !h.cont && h.first_seq == live.first_seq)
                .ok_or_else(|| torn("indexed page does not hold", seq))?;
            let payload = &p[HDR..HDR + h.used];
            let mut off = 0;
            for s in h.first_seq..h.first_seq + h.nrecs as u64 {
                if seq == end {
                    break;
                }
                let body = off + LEN;
                if body > payload.len() {
                    return Err(torn("page ends inside the header of", s));
                }
                let len = u32_at(payload, off) as usize;
                off = body + len;
                if s < seq {
                    continue;
                }
                if s > seq {
                    return Err(torn("page starts after", seq));
                }
                if off <= payload.len() {
                    visit(s, &payload[body..off]);
                } else {
                    // Spans pages: gather the continuation chunks.
                    let mut rec = payload[body..].to_vec();
                    while rec.len() < len {
                        at += 1;
                        let cont = st.pages.get(at).filter(|l| l.cont && l.first_seq == s);
                        let cont = cont.ok_or_else(|| torn("continuation page missing for", s))?;
                        let cg = self.pool.fetch(cont.pid)?;
                        let cp = cg.read();
                        let ch = page_hdr(&cp)
                            .ok_or_else(|| torn("continuation page unformatted for", s))?;
                        rec.extend_from_slice(&cp[HDR..HDR + ch.used]);
                    }
                    if rec.len() != len {
                        return Err(torn("continuation pages overrun", s));
                    }
                    visit(s, &rec);
                }
                seq = s + 1;
            }
            at += 1;
        }
        Ok(seq)
    }

    /// Declare every record at or below `seq` dead. Advances the watermark
    /// (never backwards, never past the last record appended), moves head
    /// pages that hold only dead records to the free list, and writes the
    /// meta page — the only page a truncation writes — through to the
    /// store's log before any freed page can be reused. On an error the
    /// log is as it was.
    pub fn truncate_through(&self, seq: u64) -> Result<()> {
        let mut st = self.state.lock();
        let seq = seq.min(st.next_seq - 1);
        if seq <= st.watermark {
            return Ok(());
        }
        let meta = self.pool.fetch(self.meta)?;
        let before = st.watermark;
        st.watermark = seq;
        let dead = st.dead_head_pages(seq, FREE_CAP - st.free.len());
        let freed: Vec<Live> = st.pages.drain(..dead).collect();
        st.free.extend(freed.iter().map(|l| l.pid));
        Self::write_meta(&meta, &st);
        if let Err(e) = self.pool.write_through(&meta) {
            st.watermark = before;
            let kept = st.free.len() - freed.len();
            st.free.truncate(kept);
            for live in freed.into_iter().rev() {
                st.pages.push_front(live);
            }
            Self::write_meta(&meta, &st);
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn pool(cap: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(Arc::new(DiskManager::open_memory()), cap))
    }

    fn read_all(log: &SeqLog, from: u64) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        log.read_from(from, usize::MAX, |s, r| out.push((s, r.to_vec())))
            .unwrap();
        out
    }

    fn rec(i: u64) -> Vec<u8> {
        format!("record-{i:06}").into_bytes()
    }

    #[test]
    fn append_read_in_sequence_across_pages() {
        let log = SeqLog::create(pool(16)).unwrap();
        for i in 1..=1000u64 {
            assert_eq!(log.append(&rec(i)).unwrap(), i);
        }
        assert!(log.chain_pages() > 3);
        assert_eq!(log.next_seq(), 1001);
        let all = read_all(&log, 1);
        assert_eq!(all.len(), 1000);
        assert!(all.iter().all(|(s, r)| *r == rec(*s)));
        // A bounded read resumes where it says it stopped.
        let mut got = Vec::new();
        let next = log.read_from(400, 7, |s, _| got.push(s)).unwrap();
        assert_eq!(got, (400..407).collect::<Vec<_>>());
        assert_eq!(next, 407);
        assert_eq!(
            log.read_from(1001, 5, |_, _| panic!("past the end"))
                .unwrap(),
            1001
        );
    }

    #[test]
    fn truncation_recycles_head_pages() {
        let p = pool(16);
        let log = SeqLog::create(p.clone()).unwrap();
        for i in 1..=1000u64 {
            log.append(&rec(i)).unwrap();
        }
        let (pages, chain) = (p.disk().num_pages(), log.chain_pages());
        log.truncate_through(990).unwrap();
        assert_eq!(log.watermark(), 990);
        assert!(log.chain_pages() < chain);
        // Reads start above the watermark whatever they ask for.
        assert_eq!(read_all(&log, 1).first().unwrap().0, 991);
        // The next thousand reuse the freed pages: the store does not grow.
        for i in 1001..=1990u64 {
            log.append(&rec(i)).unwrap();
        }
        assert_eq!(p.disk().num_pages(), pages);
        let all = read_all(&log, 0);
        assert_eq!(all.len(), 1000);
        assert!(all.iter().all(|(s, r)| *r == rec(*s)));
        // Never backwards, never past the end.
        log.truncate_through(5).unwrap();
        assert_eq!(log.watermark(), 990);
        log.truncate_through(u64::MAX).unwrap();
        assert_eq!(log.watermark(), 1990);
        assert_eq!(log.chain_pages(), 1);
        assert_eq!(log.append(b"next").unwrap(), 1991);
    }

    #[test]
    fn records_larger_than_a_page_span_pages() {
        let log = SeqLog::create(pool(16)).unwrap();
        let big: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let exact = vec![7u8; CAP - LEN]; // fills one page to the byte
        let spill = vec![8u8; CAP - LEN + 1]; // one byte onto a second page
        log.append(b"before").unwrap();
        log.append(&big).unwrap();
        log.append(&exact).unwrap();
        log.append(&spill).unwrap();
        log.append(b"").unwrap();
        log.append(b"after").unwrap();
        let want: Vec<Vec<u8>> = vec![
            b"before".to_vec(),
            big,
            exact,
            spill,
            Vec::new(),
            b"after".to_vec(),
        ];
        let got: Vec<Vec<u8>> = read_all(&log, 1).into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, want);
        // Reading from the middle lands on the right page.
        assert_eq!(read_all(&log, 4)[0].1, want[3]);
        // Truncating into the spanning record frees none of its pages;
        // through it, all of them.
        let chain = log.chain_pages();
        log.truncate_through(1).unwrap();
        assert_eq!(log.chain_pages(), chain - 1);
        log.truncate_through(2).unwrap();
        assert_eq!(log.chain_pages(), chain - 4);
        assert_eq!(read_all(&log, 0)[0].1, want[2]);
    }

    #[test]
    fn reopen_rebuilds_the_index_and_the_free_list() {
        let p = pool(32);
        let log = SeqLog::create(p.clone()).unwrap();
        let big = vec![3u8; 9_000];
        for i in 1..=600u64 {
            log.append(&rec(i)).unwrap();
        }
        log.append(&big).unwrap();
        log.truncate_through(500).unwrap();
        let meta = log.meta_page();
        let pages = p.disk().num_pages();
        drop(log);
        let log = SeqLog::open(p.clone(), meta).unwrap();
        assert_eq!(log.watermark(), 500);
        assert_eq!(log.next_seq(), 602);
        let all = read_all(&log, 0);
        assert_eq!(all.len(), 101);
        assert_eq!(all[0], (501, rec(501)));
        assert_eq!(all[100], (601, big));
        // Freed pages are still free after the reopen.
        for i in 602..=900u64 {
            log.append(&rec(i)).unwrap();
        }
        assert_eq!(p.disk().num_pages(), pages);
        assert!(SeqLog::open(p, PageId(0)).is_err());
    }

    #[test]
    fn open_cuts_a_link_to_a_page_that_does_not_continue_the_chain() {
        let p = pool(32);
        let log = SeqLog::create(p.clone()).unwrap();
        for i in 1..=300u64 {
            log.append(&rec(i)).unwrap();
        }
        let meta = log.meta_page();
        // What a commit that missed the tail's new contents leaves: the
        // link is there, the page behind it is stale.
        let tail = log.state.lock().tail();
        let on_tail = log.next_seq() - tail.first_seq;
        init_page(&mut p.fetch(tail.pid).unwrap().write(), false, 7, 3, &[]);
        drop(log);
        let log = SeqLog::open(p.clone(), meta).unwrap();
        assert_eq!(log.next_seq(), 301 - on_tail);
        let all = read_all(&log, 1);
        assert_eq!(all.len() as u64, 300 - on_tail);
        // Appends continue from the cut.
        assert_eq!(log.append(b"x").unwrap(), 301 - on_tail);
        assert_eq!(
            read_all(&log, 301 - on_tail),
            vec![(301 - on_tail, b"x".to_vec())]
        );
    }

    #[test]
    fn open_drops_a_spanning_record_whose_last_page_is_missing() {
        let p = pool(32);
        let log = SeqLog::create(p.clone()).unwrap();
        log.append(b"whole").unwrap();
        log.append(&vec![9u8; 10_000]).unwrap();
        let meta = log.meta_page();
        let pages = p.disk().num_pages();
        // The commit caught the record's first pages and not its last.
        let tail = log.state.lock().tail();
        p.fetch(tail.pid).unwrap().write().fill(0);
        drop(log);
        let log = SeqLog::open(p.clone(), meta).unwrap();
        assert_eq!(read_all(&log, 1), vec![(1, b"whole".to_vec())]);
        // Its sequence and its pages are both there for the next append.
        assert_eq!(log.append(&vec![5u8; 10_000]).unwrap(), 2);
        assert_eq!(read_all(&log, 2), vec![(2, vec![5u8; 10_000])]);
        assert_eq!(p.disk().num_pages(), pages);
    }

    #[test]
    fn watermark_beyond_the_chain_never_reissues_a_sequence() {
        let p = pool(16);
        let log = SeqLog::create(p.clone()).unwrap();
        for i in 1..=10u64 {
            log.append(&rec(i)).unwrap();
        }
        log.truncate_through(10).unwrap();
        let meta = log.meta_page();
        // The meta page reached the log, the tail's last records did not.
        let tail = log.state.lock().tail();
        init_page(&mut p.fetch(tail.pid).unwrap().write(), false, 1, 0, &[]);
        drop(log);
        let log = SeqLog::open(p, meta).unwrap();
        assert_eq!(log.next_seq(), 11);
        assert_eq!(log.append(b"eleven").unwrap(), 11);
        assert_eq!(read_all(&log, 0), vec![(11, b"eleven".to_vec())]);
    }
}
