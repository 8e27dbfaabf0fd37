//! The adaptive constant-set organization **governor**.
//!
//! §5.2 argues the memory-resident organizations "make the common case
//! fast" while the database-backed ones "are mandatory" once an
//! equivalence class grows large. The static insert-time thresholds in
//! [`IndexConfig`](crate::IndexConfig) capture only class *size*; this
//! module drives the choice from live per-signature telemetry instead:
//!
//! * every [`SignatureRuntime`](crate::SignatureRuntime) carries a
//!   [`SigActivity`] stats block — cumulative probe/match counters the hot
//!   path bumps with relaxed atomics, plus exponentially-decayed rates the
//!   governor refreshes each pass;
//! * a **governor pass** ([`PredicateIndex::governor_pass`]) runs from the
//!   drivers' maintenance path (never inside `insert()` under the org
//!   write lock), decides promotions *and* demotions with hysteresis
//!   bands so a class oscillating around a threshold does not thrash, and
//!   enforces a global memory budget by force-spilling the coldest large
//!   classes to the database;
//! * migration happens off the probe critical path: the new organization
//!   is built from a snapshot while probes continue against the old one,
//!   then swapped in one short write-lock window guarded by a mutation
//!   epoch (see [`SignatureRuntime::migrate_to`](crate::SignatureRuntime::migrate_to)).

use crate::org::OrgKind;
use crate::IndexConfig;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tman_common::stats::Counter;
use tman_common::SignatureId;

/// Rough per-entry memory estimate used when a database-resident class has
/// no recorded spill size (e.g. it was promoted before telemetry attached).
pub const ENTRY_BYTES_ESTIMATE: usize = 96;

/// Per-signature activity stats block: cumulative counters bumped on the
/// probe path (relaxed atomics, no locks), decayed rates owned by the
/// governor, and the mutation epoch that guards lock-free org migration.
#[derive(Debug, Default)]
pub struct SigActivity {
    /// Cumulative probes against this signature's constant set.
    probes: AtomicU64,
    /// Cumulative full matches produced.
    matches: AtomicU64,
    /// Probe count at the previous governor pass.
    last_probes: AtomicU64,
    /// Match count at the previous governor pass.
    last_matches: AtomicU64,
    /// EWMA probes-per-pass, stored as `f64` bits.
    probe_rate_bits: AtomicU64,
    /// EWMA matches-per-pass, stored as `f64` bits.
    match_rate_bits: AtomicU64,
    /// Bumped by every mutation (insert / remove / org switch). A
    /// migration snapshots the epoch, builds off-lock, and aborts its swap
    /// if the epoch moved — probes never invalidate a migration.
    epoch: AtomicU64,
    /// Memory-bytes estimate recorded when the class was moved to the
    /// database (0 while memory-resident). Used to decide whether the
    /// class fits back under the budget.
    spill_bytes: AtomicU64,
    /// 1 when the class was spilled by budget enforcement rather than the
    /// size threshold; such classes return to memory only when headroom
    /// allows.
    budget_spilled: AtomicU64,
}

impl SigActivity {
    /// Fresh block (all zeros).
    pub fn new() -> SigActivity {
        SigActivity::default()
    }

    /// Hot path: `n` constant-set probes happened (one add per batch).
    #[inline]
    pub fn record_probes(&self, n: u64) {
        self.probes.fetch_add(n, Ordering::Relaxed);
    }

    /// Hot path: `n` full matches were produced.
    #[inline]
    pub fn record_matches(&self, n: u64) {
        self.matches.fetch_add(n, Ordering::Relaxed);
    }

    /// Cumulative probes.
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Cumulative matches.
    pub fn matches(&self) -> u64 {
        self.matches.load(Ordering::Relaxed)
    }

    /// Current mutation epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Record one mutation (insert / remove / org switch).
    #[inline]
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Governor-only: fold the probe/match deltas since the previous pass
    /// into the decayed rates and return `(probe_rate, match_rate)`.
    pub fn tick(&self, alpha: f64) -> (f64, f64) {
        let fold = |cum: &AtomicU64, last: &AtomicU64, bits: &AtomicU64| {
            let now = cum.load(Ordering::Relaxed);
            let prev = last.swap(now, Ordering::Relaxed);
            let delta = now.saturating_sub(prev) as f64;
            let old = f64::from_bits(bits.load(Ordering::Relaxed));
            let rate = alpha * delta + (1.0 - alpha) * old;
            bits.store(rate.to_bits(), Ordering::Relaxed);
            rate
        };
        (
            fold(&self.probes, &self.last_probes, &self.probe_rate_bits),
            fold(&self.matches, &self.last_matches, &self.match_rate_bits),
        )
    }

    /// Decayed probes-per-pass.
    pub fn probe_rate(&self) -> f64 {
        f64::from_bits(self.probe_rate_bits.load(Ordering::Relaxed))
    }

    /// Decayed matches-per-pass.
    pub fn match_rate(&self) -> f64 {
        f64::from_bits(self.match_rate_bits.load(Ordering::Relaxed))
    }

    /// Record that the class now lives in the database, remembering how
    /// many memory bytes it gave back and why it moved.
    pub fn set_spill(&self, bytes: usize, by_budget: bool) {
        self.spill_bytes.store(bytes as u64, Ordering::Relaxed);
        self.budget_spilled
            .store(u64::from(by_budget), Ordering::Relaxed);
    }

    /// The class is memory-resident again.
    pub fn clear_spill(&self) {
        self.spill_bytes.store(0, Ordering::Relaxed);
        self.budget_spilled.store(0, Ordering::Relaxed);
    }

    /// Memory-bytes estimate recorded at spill time (0 if memory-resident).
    pub fn spill_bytes(&self) -> usize {
        self.spill_bytes.load(Ordering::Relaxed) as usize
    }

    /// Was the class spilled by budget enforcement?
    pub fn budget_spilled(&self) -> bool {
        self.budget_spilled.load(Ordering::Relaxed) != 0
    }
}

/// Per-signature partition-activity block, the condition-partition
/// controller's counterpart to [`SigActivity`]. It lives next to the
/// governor's block on every [`SignatureRuntime`](crate::SignatureRuntime)
/// but keeps its **own** probe snapshot and EWMA: the governor owns
/// [`SigActivity::tick`], and the two feedback loops run on independent
/// schedules, so they must not fold the same deltas.
///
/// The `fanout` cell is the controller's published decision: the engine's
/// probe path reads it (relaxed) to choose how many Figure-5
/// `SigPartition` tasks to fan a token out into. `1` means partitioning
/// is disengaged for this signature.
#[derive(Debug)]
pub struct PartitionActivity {
    /// Effective fan-out the probe path should use (≥ 1).
    fanout: AtomicU64,
    /// Cumulative fan-outs actually taken on the probe path.
    fanouts: AtomicU64,
    /// Probe count at the previous controller pass (controller-owned
    /// snapshot of [`SigActivity::probes`]).
    last_probes: AtomicU64,
    /// EWMA probes-per-pass, stored as `f64` bits (controller-owned).
    probe_rate_bits: AtomicU64,
    /// Controller pass number at the last fan-out change (hysteresis).
    last_change_pass: AtomicU64,
}

impl Default for PartitionActivity {
    fn default() -> PartitionActivity {
        PartitionActivity {
            fanout: AtomicU64::new(1),
            fanouts: AtomicU64::new(0),
            last_probes: AtomicU64::new(0),
            probe_rate_bits: AtomicU64::new(0),
            last_change_pass: AtomicU64::new(0),
        }
    }
}

impl PartitionActivity {
    /// Fresh block (fan-out 1, rates zero).
    pub fn new() -> PartitionActivity {
        PartitionActivity::default()
    }

    /// Effective fan-out the probe path should use (≥ 1).
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout.load(Ordering::Relaxed).max(1) as usize
    }

    /// Publish a new fan-out decision.
    pub fn set_fanout(&self, n: usize) {
        self.fanout.store(n.max(1) as u64, Ordering::Relaxed);
    }

    /// Hot path: one token was fanned out into `SigPartition` tasks.
    #[inline]
    pub fn record_fanout(&self) {
        self.fanouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative fan-outs taken on the probe path.
    pub fn fanouts(&self) -> u64 {
        self.fanouts.load(Ordering::Relaxed)
    }

    /// Controller-only: fold the probe delta since the previous controller
    /// pass into the decayed rate and return it. `cum_probes` comes from
    /// the signature's [`SigActivity::probes`]; keeping the snapshot here
    /// leaves the governor's own fold untouched.
    pub fn tick_probe_rate(&self, cum_probes: u64, alpha: f64) -> f64 {
        let prev = self.last_probes.swap(cum_probes, Ordering::Relaxed);
        let delta = cum_probes.saturating_sub(prev) as f64;
        let old = f64::from_bits(self.probe_rate_bits.load(Ordering::Relaxed));
        let rate = alpha * delta + (1.0 - alpha) * old;
        self.probe_rate_bits
            .store(rate.to_bits(), Ordering::Relaxed);
        rate
    }

    /// Decayed probes-per-controller-pass.
    pub fn probe_rate(&self) -> f64 {
        f64::from_bits(self.probe_rate_bits.load(Ordering::Relaxed))
    }

    /// Controller pass number at the last fan-out change.
    pub fn last_change_pass(&self) -> u64 {
        self.last_change_pass.load(Ordering::Relaxed)
    }

    /// Record the pass number of a fan-out change (hysteresis cooldown).
    pub fn set_last_change_pass(&self, pass: u64) {
        self.last_change_pass.store(pass, Ordering::Relaxed);
    }
}

/// Governor tuning. Promotion thresholds mirror
/// [`IndexConfig`](crate::IndexConfig); the demotion bands sit a
/// `demote_factor` below them (hysteresis), so a class must shrink well
/// under a threshold before it moves back down.
#[derive(Debug, Clone)]
pub struct GovernorPolicy {
    /// Entries above which a list becomes a memory index.
    pub list_to_index: usize,
    /// Entries above which a memory org spills to the indexed database
    /// table (`usize::MAX` disables size-based spill; the memory budget
    /// can still force one).
    pub index_to_db: usize,
    /// Demotion band as a fraction of the promotion threshold: a class
    /// demotes only once `len <= threshold * demote_factor`.
    pub demote_factor: f64,
    /// A budget-spilled class returns to memory only while
    /// `resident + class bytes <= budget * refill_headroom`, so refills
    /// stop before the budget forces the next spill.
    pub refill_headroom: f64,
    /// EWMA weight of the newest probe/match delta in [`SigActivity::tick`].
    pub decay: f64,
    /// Global cap on constant-set memory; the coldest (lowest decayed
    /// probe rate) large classes spill to the database until resident
    /// bytes fit. `None` disables enforcement.
    pub memory_budget: Option<usize>,
    /// Classes smaller than this are never budget-spilled (the db handle
    /// overhead would exceed the savings).
    pub min_spill_bytes: usize,
    /// How often a migration's swap may be invalidated by a concurrent
    /// mutation before the governor gives up until the next pass.
    pub max_swap_retries: u32,
    /// Which list organization demotions land on ([`OrgKind::MemList`]
    /// unless the Figure-4 normalization is disabled).
    pub list_kind: OrgKind,
}

impl GovernorPolicy {
    /// Derive a policy from the static index thresholds.
    pub fn from_config(cfg: &IndexConfig) -> GovernorPolicy {
        GovernorPolicy {
            list_to_index: cfg.list_to_index,
            index_to_db: cfg.index_to_db,
            demote_factor: 0.5,
            refill_headroom: 0.8,
            decay: 0.3,
            memory_budget: None,
            min_spill_bytes: 1024,
            max_swap_retries: 3,
            list_kind: if cfg.normalized {
                OrgKind::MemList
            } else {
                OrgKind::MemListDenorm
            },
        }
    }
}

impl Default for GovernorPolicy {
    fn default() -> GovernorPolicy {
        GovernorPolicy::from_config(&IndexConfig::default())
    }
}

/// What the governor saw for one signature this pass (inputs to
/// [`decide`]; pure data so the policy is unit-testable).
#[derive(Debug, Clone)]
pub struct SigObservation {
    /// Current organization.
    pub kind: OrgKind,
    /// Equivalence-class size.
    pub len: usize,
    /// Approximate main-memory bytes (db orgs report only their handle).
    pub mem_bytes: usize,
    /// Decayed probes-per-pass.
    pub probe_rate: f64,
    /// Decayed matches-per-pass.
    pub match_rate: f64,
    /// Does the signature have an indexable part (`IndexPlan` ≠ `None`)?
    pub indexable: bool,
    /// Is a database attached (strategies 3/4 available)?
    pub has_db: bool,
    /// Memory estimate recorded at spill time (0 if memory-resident).
    pub spill_bytes: usize,
    /// Was the class spilled by the budget rather than the size threshold?
    pub budget_spilled: bool,
}

/// Ordering of the organizations along the promote/demote axis.
pub fn org_rank(kind: OrgKind) -> u8 {
    match kind {
        OrgKind::MemList | OrgKind::MemListDenorm => 0,
        OrgKind::MemIndex | OrgKind::Custom(_) => 1,
        OrgKind::DbTable | OrgKind::DbIndexed => 2,
    }
}

/// The hysteresis decision for one signature: `Some(target)` when the
/// class should change organization, `None` to stay put. `mem_total` is
/// the current resident constant-set memory, used to keep demotions from
/// re-busting the budget. Budget *enforcement* (forced spills) is separate
/// — see [`PredicateIndex::governor_pass`](crate::PredicateIndex::governor_pass).
pub fn decide(obs: &SigObservation, policy: &GovernorPolicy, mem_total: usize) -> Option<OrgKind> {
    let band = |threshold: usize| threshold as f64 * policy.demote_factor;
    let fits_budget = |extra: usize| match policy.memory_budget {
        None => true,
        Some(b) => (mem_total + extra) as f64 <= b as f64 * policy.refill_headroom,
    };
    match obs.kind {
        // User-installed and explicitly-forced organizations are never
        // second-guessed.
        OrgKind::Custom(_) | OrgKind::DbTable => None,
        OrgKind::MemList | OrgKind::MemListDenorm => {
            if obs.len > policy.index_to_db && obs.has_db {
                Some(OrgKind::DbIndexed)
            } else if obs.len > policy.list_to_index && obs.indexable {
                Some(OrgKind::MemIndex)
            } else {
                None
            }
        }
        OrgKind::MemIndex => {
            if obs.len > policy.index_to_db && obs.has_db {
                Some(OrgKind::DbIndexed)
            } else if (obs.len as f64) <= band(policy.list_to_index) {
                Some(policy.list_kind)
            } else {
                None
            }
        }
        OrgKind::DbIndexed => {
            let est = obs.spill_bytes.max(obs.len * ENTRY_BYTES_ESTIMATE);
            let target = if obs.indexable && (obs.len as f64) > band(policy.list_to_index) {
                OrgKind::MemIndex
            } else {
                policy.list_kind
            };
            if obs.budget_spilled {
                // Forced out by the budget: return only when there is
                // comfortable headroom, regardless of size thresholds.
                if fits_budget(est) {
                    Some(target)
                } else {
                    None
                }
            } else if (obs.len as f64) <= band(policy.index_to_db) && fits_budget(est) {
                Some(target)
            } else {
                None
            }
        }
    }
}

/// Why the governor moved a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationReason {
    /// The hysteresis bands called for a promotion or demotion.
    Hysteresis,
    /// Budget enforcement force-spilled a cold class.
    BudgetSpill,
}

/// Timing and outcome of one organization migration.
#[derive(Debug, Clone)]
pub struct MigrationOutcome {
    /// Organization before.
    pub from: OrgKind,
    /// Target organization.
    pub to: OrgKind,
    /// Entries migrated.
    pub entries: usize,
    /// Time spent building the new organization *off* the org lock.
    pub build_ns: u64,
    /// Time the org write lock was actually held for the swap — the only
    /// window during which probes block.
    pub swap_ns: u64,
    /// Swap attempts invalidated by concurrent mutations.
    pub retries: u32,
    /// `false` when every retry was invalidated and the organization was
    /// left unchanged (the next pass will try again).
    pub completed: bool,
    /// Memory footprint of the old organization (budget accounting).
    pub mem_bytes_before: usize,
}

/// One governor-initiated migration, as reported per pass.
#[derive(Debug, Clone)]
pub struct MigrationRecord {
    /// Which signature moved.
    pub sig: SignatureId,
    /// Why it moved.
    pub reason: MigrationReason,
    /// What happened.
    pub outcome: MigrationOutcome,
}

/// What one governor pass did ([`PredicateIndex::governor_pass`](crate::PredicateIndex::governor_pass)).
#[derive(Debug, Clone, Default)]
pub struct GovernorReport {
    /// Signatures examined.
    pub examined: usize,
    /// Migrations attempted (completed or aborted).
    pub migrations: Vec<MigrationRecord>,
    /// Resident constant-set bytes after the pass.
    pub mem_bytes: usize,
    /// Wall time of the whole pass.
    pub pass_ns: u64,
    /// Errors from individual migrations (the pass continues past them).
    pub errors: Vec<String>,
}

/// Aggregate governor counters, shared `Arc`s so they can be registered
/// into a telemetry registry ([`crate::PredicateIndex::attach_telemetry`]).
#[derive(Debug, Clone, Default)]
pub struct GovernorStats {
    /// Governor passes run.
    pub passes: Arc<Counter>,
    /// Completed migrations to a higher-rank organization.
    pub promotions: Arc<Counter>,
    /// Completed migrations to a lower-rank organization.
    pub demotions: Arc<Counter>,
    /// Completed budget-forced spills (also counted as promotions).
    pub budget_spills: Arc<Counter>,
    /// Migrations abandoned after every swap retry was invalidated.
    pub aborted_migrations: Arc<Counter>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(kind: OrgKind, len: usize) -> SigObservation {
        SigObservation {
            kind,
            len,
            mem_bytes: len * 64,
            probe_rate: 1.0,
            match_rate: 0.0,
            indexable: true,
            has_db: true,
            spill_bytes: 0,
            budget_spilled: false,
        }
    }

    fn policy() -> GovernorPolicy {
        GovernorPolicy {
            list_to_index: 32,
            index_to_db: 1000,
            ..GovernorPolicy::default()
        }
    }

    #[test]
    fn promotes_past_thresholds() {
        let p = policy();
        assert_eq!(
            decide(&obs(OrgKind::MemList, 33), &p, 0),
            Some(OrgKind::MemIndex)
        );
        assert_eq!(
            decide(&obs(OrgKind::MemIndex, 1001), &p, 0),
            Some(OrgKind::DbIndexed)
        );
        // A list that blew straight past both thresholds goes directly to
        // the database.
        assert_eq!(
            decide(&obs(OrgKind::MemList, 2000), &p, 0),
            Some(OrgKind::DbIndexed)
        );
    }

    #[test]
    fn hysteresis_band_prevents_thrash() {
        let p = policy();
        // Inside the band (16 < len <= 32): no demotion.
        assert_eq!(decide(&obs(OrgKind::MemIndex, 20), &p, 0), None);
        assert_eq!(decide(&obs(OrgKind::MemIndex, 17), &p, 0), None);
        // At or below half the threshold: demote.
        assert_eq!(
            decide(&obs(OrgKind::MemIndex, 16), &p, 0),
            Some(OrgKind::MemList)
        );
        // Same band on the db edge.
        assert_eq!(decide(&obs(OrgKind::DbIndexed, 800), &p, 0), None);
        assert_eq!(
            decide(&obs(OrgKind::DbIndexed, 500), &p, 0),
            Some(OrgKind::MemIndex)
        );
    }

    #[test]
    fn non_indexable_signatures_stay_lists() {
        let p = policy();
        let mut o = obs(OrgKind::MemList, 100);
        o.indexable = false;
        assert_eq!(decide(&o, &p, 0), None);
    }

    #[test]
    fn forced_and_custom_orgs_left_alone() {
        let p = policy();
        assert_eq!(decide(&obs(OrgKind::DbTable, 5), &p, 0), None);
        assert_eq!(decide(&obs(OrgKind::Custom("x"), 5), &p, 0), None);
    }

    #[test]
    fn budget_spilled_class_needs_headroom_to_return() {
        let mut p = policy();
        p.memory_budget = Some(10_000);
        let mut o = obs(OrgKind::DbIndexed, 40);
        o.budget_spilled = true;
        o.spill_bytes = 4_000;
        // 5k resident + 4k returning = 9k > 10k * 0.8 headroom: stay out.
        assert_eq!(decide(&o, &p, 5_000), None);
        // 3k resident + 4k returning = 7k <= 8k: come back.
        assert_eq!(decide(&o, &p, 3_000), Some(OrgKind::MemIndex));
    }

    #[test]
    fn denormalized_config_demotes_to_denorm_list() {
        let mut p = policy();
        p.list_kind = OrgKind::MemListDenorm;
        assert_eq!(
            decide(&obs(OrgKind::MemIndex, 4), &p, 0),
            Some(OrgKind::MemListDenorm)
        );
    }

    #[test]
    fn activity_rates_decay() {
        let a = SigActivity::new();
        a.record_probes(100);
        let (p1, _) = a.tick(0.5);
        assert!((p1 - 50.0).abs() < 1e-9, "0.5 * 100 = {p1}");
        // No new probes: rate halves again.
        let (p2, _) = a.tick(0.5);
        assert!((p2 - 25.0).abs() < 1e-9, "{p2}");
        assert_eq!(a.probes(), 100);
    }

    #[test]
    fn partition_activity_defaults_and_folds() {
        let p = PartitionActivity::new();
        assert_eq!(p.fanout(), 1);
        p.set_fanout(4);
        assert_eq!(p.fanout(), 4);
        // set_fanout(0) clamps to the disengaged state, never zero.
        p.set_fanout(0);
        assert_eq!(p.fanout(), 1);
        // Controller-owned fold: 100 probes at alpha 0.5, then no new ones.
        let r1 = p.tick_probe_rate(100, 0.5);
        assert!((r1 - 50.0).abs() < 1e-9, "{r1}");
        let r2 = p.tick_probe_rate(100, 0.5);
        assert!((r2 - 25.0).abs() < 1e-9, "{r2}");
        assert!((p.probe_rate() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_tracks_mutations() {
        let a = SigActivity::new();
        let e0 = a.epoch();
        a.bump_epoch();
        a.bump_epoch();
        assert_eq!(a.epoch(), e0 + 2);
    }
}
