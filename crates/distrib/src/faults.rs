//! Deterministic fault injection for the distributed cluster.
//!
//! Production clusters (the paper's 14-container deployment, §8) lose
//! shards, suffer stragglers, and see storage bit-rot; a reproduction that
//! only models the happy path cannot claim the headline throughput is
//! *servable*. This module provides a seeded [`FaultPlan`] that the
//! [`Cluster`](crate::cluster::Cluster) consults at well-defined operation
//! points and that injects:
//!
//! * **shard crashes** — the shard worker panics mid-search;
//! * **straggler slowdowns** — a shard's simulated `total_us` is scaled;
//! * **KV loss / corruption** — a feature-store read returns nothing, or
//!   deterministically mangled bytes;
//! * **transient I/O errors** — an operation fails and is worth retrying;
//! * **durability faults** (DESIGN.md §12) — a WAL append is lost before
//!   fsync or torn mid-write, a snapshot lands bit-flipped, or a replay
//!   stalls for accounted simulated time. The mechanisms live in
//!   `texid-store` ([`texid_store::WriteFault`] / [`texid_store::SnapshotFault`]);
//!   this plan only decides *when* they fire.
//!
//! # Determinism contract
//!
//! There is **no wall-clock entropy anywhere**, and no dependence on the
//! order in which threads ask: a chaos decision is a pure function of the
//! seed, the op's *site* (class, shard, key, retry attempt) and that
//! site's ordinal — how many decisions the site has taken before. Two
//! shards' legs, or two keys' reads, may ask in any interleaving and each
//! site still sees its own fixed sequence, so re-running a workload against
//! the same plan reproduces every site's failures, serial or concurrent —
//! the property the chaos suite (`tests/chaos.rs`) is built on. Scripted
//! rules count the ops that match them, across sites, in the order they
//! arrive.
//!
//! The default is no plan at all (`Option<FaultPlan> = None` inside the
//! cluster), so production paths pay a single branch.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The pipeline stage a stage-targeted fault slows down — the stage list
/// itself lives in `texid-obs`. [`FaultKind::StageStall`] slows a single
/// stage of a shard's search (e.g. only the GEMM), which is the knob the
/// cost-model drift sentry's acceptance test turns: a one-stage slowdown
/// must move exactly one `texid_model_drift_ratio{stage}` gauge.
pub use texid_obs::Stage;

/// What kind of fault fires at an operation point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The shard worker panics (as a real container OOM/segfault would).
    ShardCrash,
    /// The shard completes but its simulated time is scaled by `factor`.
    Straggler {
        /// Slowdown multiplier applied to the shard's simulated time.
        factor: f64,
    },
    /// The shard completes but one pipeline stage's simulated time is
    /// scaled by `factor` — a kernel-level regression (clock throttle,
    /// cache thrash) rather than a whole-node straggler.
    StageStall {
        /// Which stage slows down.
        stage: Stage,
        /// Slowdown multiplier applied to that stage's simulated time.
        factor: f64,
    },
    /// A feature-store read finds nothing (entry lost).
    KvLoss,
    /// A feature-store read returns deterministically corrupted bytes.
    KvCorrupt,
    /// A transient I/O error: the operation fails but a retry may succeed.
    Transient,
    /// A WAL append is lost before fsync — the writer believes it wrote,
    /// the media kept nothing.
    CrashBeforeFsync,
    /// A WAL append is sheared mid-write, leaving a dangling prefix for
    /// replay to find and drop.
    TornWrite,
    /// A snapshot lands with a flipped bit, so replay must reject it by
    /// checksum and fall back to the WAL.
    SnapshotCorrupt,
    /// A shard's replay stalls for `us` simulated microseconds (accounted,
    /// not slept) — the recovery-path analogue of a straggler.
    ReplayStall {
        /// Simulated stall, µs.
        us: f64,
    },
}

/// The operation classes the cluster exposes to fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// One shard's share of a scatter-gather search (flush + match).
    SearchShard,
    /// A feature-store read (search recovery, `get_texture`, `verify`).
    KvRead,
    /// A feature-store write (`add_texture`, `update_texture`).
    KvWrite,
    /// A durable WAL append riding a feature-store write.
    WalAppend,
    /// A periodic snapshot/compaction write.
    SnapshotWrite,
    /// One shard's replay leg inside `heal()`.
    Replay,
}

/// One operation point, described to [`FaultPlan::decide`].
#[derive(Clone, Copy, Debug)]
pub struct FaultOp<'a> {
    /// Operation class.
    pub class: OpClass,
    /// Shard index for shard-scoped operations.
    pub shard: Option<usize>,
    /// Store key for KV operations.
    pub key: Option<&'a str>,
    /// Retry attempt within the operation (0 = the first try). Part of the
    /// site: the legs of a shard that reach their k-th retry share the
    /// attempt-k stream, so how many of them run out of retries does not
    /// depend on how their retries interleave.
    pub attempt: u32,
}

impl<'a> FaultOp<'a> {
    /// A shard's search leg.
    pub fn search_shard(shard: usize) -> FaultOp<'a> {
        FaultOp { class: OpClass::SearchShard, shard: Some(shard), key: None, attempt: 0 }
    }

    /// A store read of `key`.
    pub fn kv_read(key: &'a str) -> FaultOp<'a> {
        FaultOp { class: OpClass::KvRead, shard: None, key: Some(key), attempt: 0 }
    }

    /// A store write of `key`.
    pub fn kv_write(key: &'a str) -> FaultOp<'a> {
        FaultOp { class: OpClass::KvWrite, shard: None, key: Some(key), attempt: 0 }
    }

    /// The durable WAL append carrying a write of `key`.
    pub fn wal_append(key: &'a str) -> FaultOp<'a> {
        FaultOp { class: OpClass::WalAppend, shard: None, key: Some(key), attempt: 0 }
    }

    /// A snapshot/compaction write.
    pub fn snapshot_write() -> FaultOp<'a> {
        FaultOp { class: OpClass::SnapshotWrite, shard: None, key: None, attempt: 0 }
    }

    /// Shard `shard`'s replay leg inside `heal()`.
    pub fn replay(shard: usize) -> FaultOp<'a> {
        FaultOp { class: OpClass::Replay, shard: Some(shard), key: None, attempt: 0 }
    }
}

/// Per-class probabilities for seeded chaos mode (all default to 0).
#[derive(Clone, Copy, Debug, Default)]
pub struct FaultProbs {
    /// P(shard crash) per search leg.
    pub shard_crash: f64,
    /// P(straggler) per search leg.
    pub straggler: f64,
    /// P(transient error) per operation (any class).
    pub transient: f64,
    /// P(lost entry) per store read.
    pub kv_loss: f64,
    /// P(corrupted bytes) per store read.
    pub kv_corrupt: f64,
    /// P(append lost before fsync) per durable WAL append.
    pub crash_before_fsync: f64,
    /// P(append sheared mid-write) per durable WAL append.
    pub torn_write: f64,
    /// P(bit-flipped snapshot) per compaction.
    pub snapshot_corrupt: f64,
    /// P(stall) per shard replay leg.
    pub replay_stall: f64,
}

/// A scripted injection: fire `kind` on the nth..nth+count'th matching op.
#[derive(Debug)]
struct Rule {
    class: OpClass,
    shard: Option<usize>,
    kind: FaultKind,
    /// Matching operations let through before the rule starts firing.
    skip: u64,
    /// Injections remaining.
    budget: AtomicU64,
    /// Matching operations seen so far.
    seen: AtomicU64,
}

/// A deterministic, seeded fault schedule.
///
/// Scripted rules (exact "crash shard 2 on its first search leg" style) are
/// checked first; if none fires, the seeded probabilistic chaos mode draws
/// from the op's site's own SplitMix64 stream.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    probs: FaultProbs,
    rules: Vec<Rule>,
    /// Decisions taken so far, per site hash ([`site_hash`]).
    ordinals: Mutex<HashMap<u64, u64>>,
    injected: AtomicU64,
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The op's site — class, shard, key, attempt — as 64 bits. Two sites
/// colliding would only share one ordinal counter.
fn site_hash(op: FaultOp<'_>) -> u64 {
    // FNV-1a over the key's bytes, then one SplitMix64 round per part.
    let key = op.key.map_or(0, |k| {
        let fnv = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        k.bytes().fold(0xcbf2_9ce4_8422_2325, fnv)
    });
    let shard = op.shard.map_or(u64::MAX, |s| s as u64);
    [op.class as u64, shard, u64::from(op.attempt), key]
        .into_iter()
        .fold(0, |h, part| splitmix(h ^ part))
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultPlan {
    /// An empty plan: injects nothing until rules or probabilities are added.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            probs: FaultProbs::default(),
            rules: Vec::new(),
            ordinals: Mutex::new(HashMap::new()),
            injected: AtomicU64::new(0),
        }
    }

    /// Seeded chaos mode: every operation rolls against `probs`.
    pub fn chaos(seed: u64, probs: FaultProbs) -> FaultPlan {
        FaultPlan { probs, ..FaultPlan::new(seed) }
    }

    fn rule(mut self, class: OpClass, shard: Option<usize>, kind: FaultKind, skip: u64, count: u64) -> Self {
        self.rules.push(Rule {
            class,
            shard,
            kind,
            skip,
            budget: AtomicU64::new(count),
            seen: AtomicU64::new(0),
        });
        self
    }

    /// Crash `shard`'s next search leg (once).
    pub fn crash_shard(self, shard: usize) -> Self {
        self.crash_shard_after(shard, 0)
    }

    /// Crash `shard`'s search leg after letting `skip` legs succeed.
    pub fn crash_shard_after(self, shard: usize, skip: u64) -> Self {
        self.rule(OpClass::SearchShard, Some(shard), FaultKind::ShardCrash, skip, 1)
    }

    /// Slow `shard` down by `factor` on its next `count` search legs.
    pub fn straggle_shard(self, shard: usize, factor: f64, count: u64) -> Self {
        self.rule(OpClass::SearchShard, Some(shard), FaultKind::Straggler { factor }, 0, count)
    }

    /// Slow one pipeline `stage` of `shard`'s next `count` search legs by
    /// `factor`, leaving the other stages untouched. Scripted-only (no
    /// chaos probability), so adding it never perturbs existing seeded
    /// draw sequences.
    pub fn stall_stage(self, shard: usize, stage: Stage, factor: f64, count: u64) -> Self {
        self.rule(OpClass::SearchShard, Some(shard), FaultKind::StageStall { stage, factor }, 0, count)
    }

    /// Fail `shard`'s next `count` search legs with transient errors.
    pub fn transient_search(self, shard: usize, count: u64) -> Self {
        self.rule(OpClass::SearchShard, Some(shard), FaultKind::Transient, 0, count)
    }

    /// Lose the next `count` feature-store reads.
    pub fn lose_kv_reads(self, count: u64) -> Self {
        self.rule(OpClass::KvRead, None, FaultKind::KvLoss, 0, count)
    }

    /// Corrupt the next `count` feature-store reads.
    pub fn corrupt_kv_reads(self, count: u64) -> Self {
        self.rule(OpClass::KvRead, None, FaultKind::KvCorrupt, 0, count)
    }

    /// Fail the next `count` feature-store reads transiently.
    pub fn transient_kv_reads(self, count: u64) -> Self {
        self.rule(OpClass::KvRead, None, FaultKind::Transient, 0, count)
    }

    /// Fail the next `count` feature-store writes transiently.
    pub fn transient_kv_writes(self, count: u64) -> Self {
        self.rule(OpClass::KvWrite, None, FaultKind::Transient, 0, count)
    }

    /// Lose the WAL append of the next write after letting `skip` appends
    /// land cleanly (crash-before-fsync).
    pub fn lose_wal_append_after(self, skip: u64) -> Self {
        self.rule(OpClass::WalAppend, None, FaultKind::CrashBeforeFsync, skip, 1)
    }

    /// Tear the WAL append of the next write after letting `skip` appends
    /// land cleanly (the classic torn final record).
    pub fn tear_wal_append_after(self, skip: u64) -> Self {
        self.rule(OpClass::WalAppend, None, FaultKind::TornWrite, skip, 1)
    }

    /// Bit-flip the next `count` snapshot writes.
    pub fn corrupt_snapshots(self, count: u64) -> Self {
        self.rule(OpClass::SnapshotWrite, None, FaultKind::SnapshotCorrupt, 0, count)
    }

    /// Stall `shard`'s next replay leg by `us` simulated microseconds.
    pub fn stall_replay(self, shard: usize, us: f64) -> Self {
        self.rule(OpClass::Replay, Some(shard), FaultKind::ReplayStall { us }, 0, 1)
    }

    /// Decide what (if anything) to inject at `op`: the first scripted rule
    /// that fires, else a chaos draw that is a pure function of the seed,
    /// `op`'s site and that site's ordinal (the module docs' determinism
    /// contract). Safe to call from any number of threads at once.
    pub fn decide(&self, op: FaultOp<'_>) -> Option<FaultKind> {
        let site = site_hash(op);
        let ordinal = {
            let mut ordinals = self.ordinals.lock();
            let taken = ordinals.entry(site).or_insert(0);
            *taken += 1;
            *taken - 1
        };
        // Scripted rules first, in declaration order. Every matching rule's
        // `seen` counter advances on every op — `skip` indexes ops, not
        // ops-left-over-after-earlier-rules — so two rules on the same class
        // (e.g. tear append #2, lose append #4) each hit their exact target.
        let mut chosen = None;
        for rule in &self.rules {
            if rule.class != op.class {
                continue;
            }
            if let (Some(want), Some(got)) = (rule.shard, op.shard) {
                if want != got {
                    continue;
                }
            } else if rule.shard.is_some() {
                continue;
            }
            let seen = rule.seen.fetch_add(1, Ordering::Relaxed);
            if seen < rule.skip || chosen.is_some() {
                continue;
            }
            // Claim one unit of budget (saturating at zero).
            let claimed = rule
                .budget
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                .is_ok();
            if claimed {
                self.injected.fetch_add(1, Ordering::Relaxed);
                chosen = Some(rule.kind);
            }
        }
        if chosen.is_some() {
            return chosen;
        }

        // Seeded chaos: one uniform draw, mass split over the class's kinds.
        let candidates: &[(f64, FaultKind)] = match op.class {
            OpClass::SearchShard => &[
                (self.probs.shard_crash, FaultKind::ShardCrash),
                (self.probs.straggler, FaultKind::Straggler { factor: 0.0 }),
                (self.probs.transient, FaultKind::Transient),
            ],
            OpClass::KvRead => &[
                (self.probs.kv_loss, FaultKind::KvLoss),
                (self.probs.kv_corrupt, FaultKind::KvCorrupt),
                (self.probs.transient, FaultKind::Transient),
            ],
            OpClass::KvWrite => &[(self.probs.transient, FaultKind::Transient)],
            OpClass::WalAppend => &[
                (self.probs.crash_before_fsync, FaultKind::CrashBeforeFsync),
                (self.probs.torn_write, FaultKind::TornWrite),
            ],
            OpClass::SnapshotWrite => &[(self.probs.snapshot_corrupt, FaultKind::SnapshotCorrupt)],
            OpClass::Replay => &[(self.probs.replay_stall, FaultKind::ReplayStall { us: 0.0 })],
        };
        if candidates.iter().all(|(p, _)| *p <= 0.0) {
            return None;
        }
        let stream = splitmix(self.seed ^ site);
        let bits = splitmix(stream ^ ordinal.wrapping_mul(0xd6e8_feb8_6659_fd93));
        let mut u = unit(bits);
        for (p, kind) in candidates {
            if u < *p {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(match kind {
                    // Straggler factor derived from a second mix: 2x..16x.
                    FaultKind::Straggler { .. } => {
                        FaultKind::Straggler { factor: 2.0 + 14.0 * unit(splitmix(bits)) }
                    }
                    // Replay stall drawn the same way: 1ms..50ms simulated.
                    FaultKind::ReplayStall { .. } => {
                        FaultKind::ReplayStall { us: 1_000.0 + 49_000.0 * unit(splitmix(bits)) }
                    }
                    other => *other,
                });
            }
            u -= p;
        }
        None
    }

    /// Deterministically mangle stored bytes (truncate + flip the header)
    /// so the wire decoder reliably reports corruption.
    pub fn corrupt_bytes(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() / 2);
        if let Some(b) = bytes.first_mut() {
            *b ^= 0xa5;
        }
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

/// Deterministic exponential backoff schedule for bounded retries.
///
/// Delays are *simulated* microseconds (they are accounted, not slept):
/// `BASE_US * 2^attempt`, attempt 0-indexed.
pub struct Backoff;

impl Backoff {
    /// First-retry delay, µs.
    pub const BASE_US: f64 = 100.0;
    /// Maximum retry attempts after the initial try.
    pub const MAX_RETRIES: u32 = 3;

    /// Simulated delay before retry `attempt` (0-indexed).
    pub fn delay_us(attempt: u32) -> f64 {
        Self::BASE_US * (1u64 << attempt.min(20)) as f64
    }

    /// Total simulated delay for `attempts` retries.
    pub fn total_us(attempts: u32) -> f64 {
        (0..attempts).map(Self::delay_us).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_rule_fires_at_the_right_occurrence() {
        let plan = FaultPlan::new(1).crash_shard_after(2, 1);
        // First leg of shard 2 passes, second crashes, third passes.
        assert_eq!(plan.decide(FaultOp::search_shard(2)), None);
        assert_eq!(plan.decide(FaultOp::search_shard(0)), None);
        assert_eq!(plan.decide(FaultOp::search_shard(2)), Some(FaultKind::ShardCrash));
        assert_eq!(plan.decide(FaultOp::search_shard(2)), None);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn budgets_are_finite() {
        let plan = FaultPlan::new(1).transient_kv_reads(2);
        assert_eq!(plan.decide(FaultOp::kv_read("k")), Some(FaultKind::Transient));
        assert_eq!(plan.decide(FaultOp::kv_read("k")), Some(FaultKind::Transient));
        assert_eq!(plan.decide(FaultOp::kv_read("k")), None);
    }

    #[test]
    fn chaos_mode_is_seed_deterministic() {
        let probs = FaultProbs { shard_crash: 0.2, straggler: 0.2, transient: 0.2, ..Default::default() };
        let a = FaultPlan::chaos(99, probs);
        let b = FaultPlan::chaos(99, probs);
        let seq_a: Vec<_> = (0..64).map(|i| a.decide(FaultOp::search_shard(i % 4))).collect();
        let seq_b: Vec<_> = (0..64).map(|i| b.decide(FaultOp::search_shard(i % 4))).collect();
        assert_eq!(seq_a, seq_b);
        assert!(a.injected() > 0, "probabilities too low to test anything");

        let c = FaultPlan::chaos(100, probs);
        let seq_c: Vec<_> = (0..64).map(|i| c.decide(FaultOp::search_shard(i % 4))).collect();
        assert_ne!(seq_a, seq_c, "different seeds should differ");
    }

    #[test]
    fn per_site_sequences_do_not_depend_on_interleaving() {
        let probs = FaultProbs {
            shard_crash: 0.2,
            straggler: 0.2,
            transient: 0.3,
            kv_loss: 0.1,
            ..Default::default()
        };
        let sites = [
            FaultOp::search_shard(0),
            FaultOp::search_shard(1),
            FaultOp { attempt: 1, ..FaultOp::search_shard(0) },
            FaultOp::kv_read("tex:1"),
            FaultOp::kv_read("tex:2"),
        ];
        const DRAWS: usize = 16;
        // Each site's decisions, asked for in `order`.
        let per_site = |order: &[usize]| {
            let plan = FaultPlan::chaos(5, probs);
            let mut seqs = vec![Vec::new(); sites.len()];
            for &s in order {
                seqs[s].push(plan.decide(sites[s]));
            }
            seqs
        };
        let blocked: Vec<usize> = (0..sites.len()).flat_map(|s| [s; DRAWS]).collect();
        let round_robin: Vec<usize> = (0..DRAWS).flat_map(|_| 0..sites.len()).collect();
        let reversed: Vec<usize> = blocked.iter().rev().copied().collect();
        let expected = per_site(&blocked);
        assert_eq!(per_site(&round_robin), expected);
        assert_eq!(per_site(&reversed), expected);
        // And with one thread per site, in whatever order they run.
        let plan = &FaultPlan::chaos(5, probs);
        let threaded: Vec<Vec<_>> = std::thread::scope(|s| {
            let handles: Vec<_> = sites
                .iter()
                .map(|&op| s.spawn(move || (0..DRAWS).map(|_| plan.decide(op)).collect()))
                .collect();
            handles.into_iter().map(|h| h.join().expect("site thread")).collect()
        });
        assert_eq!(threaded, expected);
        assert!(expected[0].iter().any(Option::is_some), "probabilities too low: {expected:?}");
        assert_ne!(expected[0], expected[1], "two sites, two streams");
        assert_ne!(expected[0], expected[2], "a retry draws from its own stream");
    }

    #[test]
    fn chaos_respects_zero_probabilities() {
        let plan = FaultPlan::chaos(7, FaultProbs::default());
        for i in 0..128 {
            assert_eq!(plan.decide(FaultOp::search_shard(i)), None);
        }
        assert_eq!(plan.injected(), 0);
    }

    #[test]
    fn straggler_factors_are_bounded() {
        let probs = FaultProbs { straggler: 1.0, ..Default::default() };
        let plan = FaultPlan::chaos(3, probs);
        for i in 0..32 {
            match plan.decide(FaultOp::search_shard(i)) {
                Some(FaultKind::Straggler { factor }) => {
                    assert!((2.0..=16.0).contains(&factor), "{factor}");
                }
                other => panic!("expected straggler, got {other:?}"),
            }
        }
    }

    #[test]
    fn stage_stall_targets_one_shard_and_stage() {
        let plan = FaultPlan::new(1).stall_stage(1, Stage::Gemm, 2.0, 2);
        assert_eq!(plan.decide(FaultOp::search_shard(0)), None);
        assert_eq!(
            plan.decide(FaultOp::search_shard(1)),
            Some(FaultKind::StageStall { stage: Stage::Gemm, factor: 2.0 })
        );
        assert_eq!(
            plan.decide(FaultOp::search_shard(1)),
            Some(FaultKind::StageStall { stage: Stage::Gemm, factor: 2.0 })
        );
        assert_eq!(plan.decide(FaultOp::search_shard(1)), None, "budget exhausted");
    }

    #[test]
    fn corruption_is_detectable_and_deterministic() {
        let original = vec![1u8, 2, 3, 4, 5, 6, 7, 8];
        let mut a = original.clone();
        let mut b = original.clone();
        FaultPlan::corrupt_bytes(&mut a);
        FaultPlan::corrupt_bytes(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, original);
        assert!(a.len() < original.len());
    }

    #[test]
    fn durability_rules_target_the_exact_append() {
        let plan = FaultPlan::new(1).tear_wal_append_after(2).lose_wal_append_after(4);
        let kinds: Vec<_> = (0..6).map(|i| plan.decide(FaultOp::wal_append(&format!("k{i}")))).collect();
        assert_eq!(
            kinds,
            vec![
                None,
                None,
                Some(FaultKind::TornWrite),
                None,
                Some(FaultKind::CrashBeforeFsync),
                None
            ]
        );
    }

    #[test]
    fn snapshot_and_replay_rules_fire() {
        let plan = FaultPlan::new(1).corrupt_snapshots(1).stall_replay(3, 5_000.0);
        assert_eq!(plan.decide(FaultOp::snapshot_write()), Some(FaultKind::SnapshotCorrupt));
        assert_eq!(plan.decide(FaultOp::snapshot_write()), None);
        assert_eq!(plan.decide(FaultOp::replay(0)), None);
        assert_eq!(plan.decide(FaultOp::replay(3)), Some(FaultKind::ReplayStall { us: 5_000.0 }));
        assert_eq!(plan.decide(FaultOp::replay(3)), None);
    }

    #[test]
    fn chaos_replay_stalls_are_bounded() {
        let probs = FaultProbs { replay_stall: 1.0, ..Default::default() };
        let plan = FaultPlan::chaos(11, probs);
        for i in 0..16 {
            match plan.decide(FaultOp::replay(i)) {
                Some(FaultKind::ReplayStall { us }) => {
                    assert!((1_000.0..=50_000.0).contains(&us), "{us}");
                }
                other => panic!("expected replay stall, got {other:?}"),
            }
        }
    }

    #[test]
    fn backoff_is_exponential_and_bounded() {
        assert_eq!(Backoff::delay_us(0), 100.0);
        assert_eq!(Backoff::delay_us(1), 200.0);
        assert_eq!(Backoff::delay_us(2), 400.0);
        assert_eq!(Backoff::total_us(3), 700.0);
        assert_eq!(Backoff::total_us(0), 0.0);
    }
}
