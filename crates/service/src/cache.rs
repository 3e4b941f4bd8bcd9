//! The re-optimization-aware plan cache: template-keyed, single-flight,
//! LRU-bounded, fresh per sample version.
//!
//! Sampling-based re-optimization is cheap *per query* but a serving
//! system pays it per *arrival* unless plans are reused. The cache keys
//! final plans by [`reopt_plan::template_fingerprint`] — literals
//! parameterized out — so every instance of a query shape after the first
//! is a hash lookup.
//!
//! **Single-flight admission.** The expensive event is N sessions
//! arriving with the same cold template at once: naively all N run the
//! full sampling loop and N−1 results are discarded. `PlanCache::begin`
//! arbitrates under one short map lock: the first arrival becomes the
//! *leader* (it gets a `LeadGuard` and must compute), every concurrent
//! arrival gets a `Flight` handle and blocks on a condvar until the
//! leader publishes. Exactly one re-optimization runs; all N sessions
//! receive the identical `Arc`'d plan. A leader that fails publishes its
//! error to the waiters and *removes* the slot, so the next arrival
//! retries rather than caching the failure; a leader that panics is caught
//! by `LeadGuard::drop`, which publishes an [`Error::Service`] so waiters
//! can retry instead of blocking forever.
//!
//! **Eviction.** An entry dies only by LRU, when the cache exceeds its
//! capacity (least-recently-touched `Ready` entry goes; in-flight slots
//! are never evicted). A stale entry is not evicted but handed out for
//! re-validation, below.
//!
//! **Freshness is a function of the admitting snapshot.** Every
//! [`CachedPlan`] records, per base table, the version of the *sample* it
//! was validated on ([`CachedPlan::sampled_at`]), and `PlanCache::begin`
//! compares that against the sample versions of the snapshot the caller
//! was admitted under — the same per-table sample versions that key the
//! shared dry-run cache ([`reopt_sampling::SharedSampleRunCache`]). A
//! sample refresh, surgical or full, therefore needs no mark pass and
//! no second step after the snapshot swap: the moment a reader holds the
//! post-refresh snapshot, every plan validated on a redrawn table's old
//! sample reads as stale — including one whose in-flight computation lands
//! *after* the refresh — and its next admission gets the stale plan back
//! via `Admission::Revalidate` (it may be cheaply re-admitted when its
//! re-validated cost still holds), while templates over untouched tables
//! keep warm-hitting. A reader still holding an *older* snapshot than the
//! one the entry was validated under is sent back for a newer one
//! (`Admission::Behind`), so every response pairs a plan with a data
//! version at or after the plan's own.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use reopt_common::{lock_unpoisoned, Error, Result, TableId};
use reopt_plan::PhysicalPlan;
use reopt_storage::DataVersion;
use reopt_telemetry::{names, MetricsRegistry};

/// A cached re-optimization outcome for one query template.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The final plan of the re-optimization loop, shared by every session
    /// that hits this template.
    pub plan: Arc<PhysicalPlan>,
    /// Rounds the loop took when the plan was computed.
    pub rounds: usize,
    /// Whether the loop converged (vs. stopping on a cap/budget).
    pub converged: bool,
    /// Wall time of the re-optimization that produced the plan.
    pub reopt_time: Duration,
    /// The plan's cost under the final Γ of the run that produced it —
    /// the reference value re-validation compares against.
    pub validated_cost: f64,
    /// The [`DataVersion`] of the snapshot the plan was computed (or last
    /// re-validated) under. It is only ever served to a snapshot at or
    /// after this one.
    pub data_version: DataVersion,
    /// Base tables the template touches (sorted, deduplicated), each with
    /// the version of the sample the plan was validated on
    /// ([`reopt_sampling::SampleStore::table_version`] of the admitting
    /// snapshot) — what admission compares against the admitting snapshot.
    pub sampled_at: Vec<(TableId, DataVersion)>,
}

/// How a cached plan's validation relates to the samples of one snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Freshness {
    /// Validated on exactly the snapshot's samples of every base table.
    Current,
    /// A base table's sample was redrawn since: re-validate before serving.
    Stale,
    /// Validated under a *newer* snapshot than the caller holds — the
    /// caller's snapshot has been superseded.
    Ahead,
}

impl CachedPlan {
    /// How this plan relates to an admitting snapshot at data version
    /// `at` whose per-table sample versions are `sample_version`. A plan
    /// validated under a later snapshot is [`Freshness::Ahead`]; otherwise
    /// it is current exactly while every base table's sample is the one it
    /// was validated on (per-table versions only advance, so any
    /// difference means "redrawn since"; a table the snapshot has no
    /// sample of reads as stale).
    pub(crate) fn freshness(
        &self,
        at: DataVersion,
        sample_version: impl Fn(TableId) -> Option<DataVersion>,
    ) -> Freshness {
        if self.data_version > at {
            Freshness::Ahead
        } else if self
            .sampled_at
            .iter()
            .all(|&(table, validated)| sample_version(table) == Some(validated))
        {
            Freshness::Current
        } else {
            Freshness::Stale
        }
    }
}

/// A single-flight rendezvous: the leader publishes exactly once, waiters
/// block until then.
#[derive(Debug, Default)]
pub(crate) struct Flight {
    result: Mutex<Option<Result<CachedPlan>>>,
    cv: Condvar,
}

impl Flight {
    /// Block until the leader publishes, then return its result.
    pub(crate) fn wait(&self) -> Result<CachedPlan> {
        let mut guard = lock_unpoisoned(&self.result);
        loop {
            if let Some(result) = guard.as_ref() {
                return result.clone();
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn publish(&self, result: Result<CachedPlan>) {
        let mut guard = lock_unpoisoned(&self.result);
        *guard = Some(result);
        self.cv.notify_all();
    }
}

#[derive(Debug)]
struct Entry {
    cached: CachedPlan,
    /// Logical clock value of the last touch (monotone; higher = fresher).
    last_used: u64,
}

#[derive(Debug)]
enum Slot {
    /// A leader is computing; joiners wait on the flight.
    InFlight(Arc<Flight>),
    /// A plan is available.
    Ready(Entry),
}

/// Outcome of [`PlanCache::begin`] — what this session must do next.
#[derive(Debug)]
pub(crate) enum Admission {
    /// Warm hit: the plan, immediately.
    Hit(CachedPlan),
    /// Another session is computing this template; wait on the flight.
    Wait(Arc<Flight>),
    /// This session leads: compute, then `complete` the guard.
    Lead(LeadGuard),
    /// This session leads, holding a plan validated on a since-redrawn
    /// sample: re-validate `stale` against the fresh samples and either
    /// re-admit it or fall through to a full re-optimization, then
    /// `complete` the guard.
    Revalidate { guard: LeadGuard, stale: CachedPlan },
    /// The cached plan was validated under a newer snapshot than the
    /// caller holds: load the current snapshot and begin again.
    Behind,
}

/// Leadership token for one in-flight template. The leader must call
/// [`LeadGuard::complete`]; if it unwinds first, `Drop` publishes a
/// retryable [`Error::Service`] to the waiters and frees the slot.
#[derive(Debug)]
pub(crate) struct LeadGuard {
    cache: Arc<PlanCache>,
    fingerprint: u64,
    flight: Arc<Flight>,
    completed: bool,
}

impl LeadGuard {
    /// Publish the computation's outcome: a success is inserted into the
    /// cache (possibly LRU-evicting) and handed to every waiter; an error
    /// frees the slot so the next arrival retries.
    pub(crate) fn complete(mut self, result: Result<CachedPlan>) {
        self.completed = true;
        self.cache
            .finish_flight(self.fingerprint, &self.flight, result);
    }
}

impl Drop for LeadGuard {
    fn drop(&mut self) {
        if !self.completed {
            self.cache.finish_flight(
                self.fingerprint,
                &self.flight,
                Err(Error::service(
                    "plan computation abandoned: the leading session panicked or was dropped; retry",
                )),
            );
        }
    }
}

/// The shared, thread-safe plan cache (see the module docs).
#[derive(Debug)]
pub struct PlanCache {
    /// Template fingerprint → slot. An ordered map (rule R1): the LRU scan
    /// walks it, and an ordered walk keeps which entry dies on a tick tie
    /// deterministic by construction. It never exceeds `capacity` +
    /// in-flight slots, so the lookup is noise next to the
    /// re-optimization it fronts.
    slots: Mutex<BTreeMap<u64, Slot>>,
    /// Max `Ready` entries kept; ≥ 1.
    capacity: usize,
    /// Logical LRU clock.
    tick: AtomicU64,
    /// Where LRU evictions are counted
    /// ([`names::PLAN_CACHE_LRU_EVICTIONS`]).
    registry: MetricsRegistry,
}

impl PlanCache {
    /// Cache holding at most `capacity` plans (clamped to ≥ 1), counting
    /// its LRU evictions in `registry`.
    pub fn new(capacity: usize, registry: MetricsRegistry) -> Self {
        PlanCache {
            slots: Mutex::new(BTreeMap::new()),
            capacity: capacity.max(1),
            tick: AtomicU64::new(0),
            registry,
        }
    }

    /// Every mutation under this lock is a single map operation, so a
    /// panicked sharer cannot leave the map torn: recover from poison.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<u64, Slot>> {
        lock_unpoisoned(&self.slots)
    }

    fn next_tick(&self) -> u64 {
        // lint: relaxed-ok(fetch_add RMWs on one atomic are totally ordered, so ticks are unique; ticks are compared only among themselves for LRU age, and all stores/loads of `last_used` happen under the slots lock)
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of `Ready` plans held (in-flight slots excluded).
    pub fn len(&self) -> usize {
        self.lock()
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admission control for `fingerprint` under the admitting snapshot
    /// (its data version `at` and per-table sample versions) — decides hit
    /// / wait / lead / re-validate atomically (one map lock). `self` is taken as `Arc` because a leading admission
    /// hands the cache to the guard.
    pub(crate) fn begin(
        self: &Arc<Self>,
        fingerprint: u64,
        at: DataVersion,
        sample_version: impl Fn(TableId) -> Option<DataVersion>,
    ) -> Admission {
        let mut slots = self.lock();
        let lead = |slots: &mut BTreeMap<u64, Slot>| {
            let flight = Arc::new(Flight::default());
            slots.insert(fingerprint, Slot::InFlight(Arc::clone(&flight)));
            LeadGuard {
                cache: Arc::clone(self),
                fingerprint,
                flight,
                completed: false,
            }
        };
        let entry = match slots.get_mut(&fingerprint) {
            None => return Admission::Lead(lead(&mut slots)),
            Some(Slot::InFlight(flight)) => return Admission::Wait(Arc::clone(flight)),
            Some(Slot::Ready(entry)) => entry,
        };
        match entry.cached.freshness(at, sample_version) {
            Freshness::Current => {
                entry.last_used = self.next_tick();
                Admission::Hit(entry.cached.clone())
            }
            // The stale plan travels with the guard and the slot flips to
            // in-flight, so concurrent arrivals wait for one verdict
            // instead of each re-validating.
            Freshness::Stale => {
                let stale = entry.cached.clone();
                Admission::Revalidate {
                    guard: lead(&mut slots),
                    stale,
                }
            }
            Freshness::Ahead => Admission::Behind,
        }
    }

    fn finish_flight(&self, fingerprint: u64, flight: &Arc<Flight>, result: Result<CachedPlan>) {
        {
            let mut slots = self.lock();
            // Only touch the slot if it still belongs to this flight — a
            // failed leader's slot may have been re-claimed by a retry.
            let ours = matches!(
                slots.get(&fingerprint),
                Some(Slot::InFlight(f)) if Arc::ptr_eq(f, flight)
            );
            if ours {
                match &result {
                    Ok(cached) => {
                        slots.insert(
                            fingerprint,
                            Slot::Ready(Entry {
                                cached: cached.clone(),
                                last_used: self.next_tick(),
                            }),
                        );
                        self.evict_over_capacity(&mut slots);
                    }
                    Err(_) => {
                        slots.remove(&fingerprint);
                    }
                }
            }
        }
        flight.publish(result);
    }

    /// Evict least-recently-used `Ready` entries until at most `capacity`
    /// remain. In-flight slots never count against capacity and are never
    /// evicted — a waiter holds a flight reference, not a map reference,
    /// so eviction could strand nobody anyway, but the leader's pending
    /// insert must not be raced away.
    fn evict_over_capacity(&self, slots: &mut BTreeMap<u64, Slot>) {
        loop {
            let ready = slots
                .iter()
                .filter_map(|(fp, s)| match s {
                    Slot::Ready(e) => Some((*fp, e.last_used)),
                    Slot::InFlight(_) => None,
                })
                .collect::<Vec<_>>();
            if ready.len() <= self.capacity {
                return;
            }
            if let Some(&(victim, _)) = ready.iter().min_by_key(|(_, used)| *used) {
                slots.remove(&victim);
                self.registry.add(names::PLAN_CACHE_LRU_EVICTIONS, 1);
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::{RelId, TableId};
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::AccessPath;

    fn plan(rel: u32) -> CachedPlan {
        CachedPlan {
            plan: Arc::new(PhysicalPlan::Scan {
                rel: RelId::new(rel),
                table: TableId::new(rel),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            }),
            rounds: 1,
            converged: true,
            reopt_time: Duration::ZERO,
            validated_cost: 1.0,
            data_version: DataVersion::ZERO,
            sampled_at: vec![(TableId::new(rel), DataVersion::ZERO)],
        }
    }

    fn new_cache(capacity: usize) -> Arc<PlanCache> {
        Arc::new(PlanCache::new(capacity, MetricsRegistry::new()))
    }

    /// Admission under a snapshot at data version `v` whose every sample
    /// was drawn at `v`.
    fn begin_at(cache: &Arc<PlanCache>, fp: u64, v: u64) -> Admission {
        let v = DataVersion::new(v);
        cache.begin(fp, v, |_| Some(v))
    }

    fn lead(cache: &Arc<PlanCache>, fp: u64) -> LeadGuard {
        match begin_at(cache, fp, 0) {
            Admission::Lead(g) => g,
            other => panic!("expected Lead for {fp}, got {other:?}"),
        }
    }

    #[test]
    fn first_arrival_leads_then_hits() {
        let cache = new_cache(8);
        lead(&cache, 1).complete(Ok(plan(0)));
        match begin_at(&cache, 1, 0) {
            Admission::Hit(c) => assert_eq!(c.rounds, 1),
            other => panic!("expected Hit, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn concurrent_arrivals_wait_for_the_leader() {
        let cache = new_cache(8);
        let guard = lead(&cache, 7);
        let waiter = match begin_at(&cache, 7, 0) {
            Admission::Wait(f) => f,
            other => panic!("expected Wait, got {other:?}"),
        };
        let handle = std::thread::spawn(move || waiter.wait());
        guard.complete(Ok(plan(0)));
        let got = handle.join().unwrap().unwrap();
        assert!(got.converged);
    }

    #[test]
    fn failed_leader_frees_the_slot_and_propagates() {
        let cache = new_cache(8);
        let guard = lead(&cache, 9);
        let waiter = match begin_at(&cache, 9, 0) {
            Admission::Wait(f) => f,
            other => panic!("expected Wait, got {other:?}"),
        };
        guard.complete(Err(Error::invalid("no relations")));
        assert!(matches!(waiter.wait(), Err(Error::Invalid(_))));
        // Slot freed: the next arrival retries as leader.
        assert!(matches!(begin_at(&cache, 9, 0), Admission::Lead(_)));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn abandoned_leader_publishes_a_retryable_error() {
        let cache = new_cache(8);
        let guard = lead(&cache, 3);
        let waiter = match begin_at(&cache, 3, 0) {
            Admission::Wait(f) => f,
            other => panic!("expected Wait, got {other:?}"),
        };
        drop(guard); // leader "panicked"
        let err = waiter.wait().unwrap_err();
        assert!(err.is_retryable(), "{err}");
        assert!(matches!(begin_at(&cache, 3, 0), Admission::Lead(_)));
    }

    #[test]
    fn lru_evicts_the_coldest_ready_entry() {
        let registry = MetricsRegistry::new();
        let cache = Arc::new(PlanCache::new(2, registry.clone()));
        lead(&cache, 1).complete(Ok(plan(1)));
        lead(&cache, 2).complete(Ok(plan(2)));
        // Touch 1 so 2 is the coldest.
        assert!(matches!(begin_at(&cache, 1, 0), Admission::Hit(_)));
        lead(&cache, 3).complete(Ok(plan(3)));
        assert_eq!(cache.len(), 2);
        assert_eq!(registry.counter(names::PLAN_CACHE_LRU_EVICTIONS), 1);
        assert!(
            matches!(begin_at(&cache, 2, 0), Admission::Lead(_)),
            "2 evicted"
        );
        match begin_at(&cache, 1, 0) {
            Admission::Hit(_) => {}
            other => panic!("1 should have survived, got {other:?}"),
        }
    }

    #[test]
    fn in_flight_slots_are_never_evicted() {
        let cache = new_cache(1);
        let guard = lead(&cache, 10); // in-flight, exempt from capacity
        lead(&cache, 11).complete(Ok(plan(1)));
        lead(&cache, 12).complete(Ok(plan(2))); // evicts 11
        assert!(matches!(begin_at(&cache, 10, 0), Admission::Wait(_)));
        guard.complete(Ok(plan(0)));
        assert!(matches!(begin_at(&cache, 10, 0), Admission::Hit(_)));
    }

    #[test]
    fn straggler_does_not_evict_a_fresher_entry() {
        // A session still on an older snapshot — whose samples differ from
        // the ones the entry was validated on — must be sent back for the
        // newer snapshot, not hand the fresher entry out for re-validation.
        let cache = new_cache(8);
        lead(&cache, 6).complete(Ok(CachedPlan {
            data_version: DataVersion::new(1),
            sampled_at: vec![(TableId::new(0), DataVersion::new(1))],
            ..plan(0)
        }));
        assert!(matches!(begin_at(&cache, 6, 0), Admission::Behind));
        assert!(matches!(begin_at(&cache, 6, 1), Admission::Hit(_)));
    }

    #[test]
    fn a_redrawn_sample_revalidates_only_touching_plans() {
        let cache = new_cache(8);
        lead(&cache, 1).complete(Ok(plan(0))); // touches table 0
        lead(&cache, 2).complete(Ok(plan(1))); // touches table 1

        // A snapshot in which only table 0's sample was redrawn (at v3).
        let refreshed =
            |t: TableId| Some(DataVersion::new(if t == TableId::new(0) { 3 } else { 0 }));
        // The untouched template keeps warm-hitting…
        assert!(matches!(
            cache.begin(2, DataVersion::new(3), refreshed),
            Admission::Hit(_)
        ));
        // …while the touched one leads a re-validation flight carrying
        // the stale plan.
        match cache.begin(1, DataVersion::new(3), refreshed) {
            Admission::Revalidate { guard, stale } => {
                assert_eq!(stale.sampled_at, vec![(TableId::new(0), DataVersion::ZERO)]);
                // Concurrent arrivals wait on the verdict.
                assert!(matches!(
                    cache.begin(1, DataVersion::new(3), refreshed),
                    Admission::Wait(_)
                ));
                // Re-admission under the fresh sample makes it a plain hit.
                guard.complete(Ok(CachedPlan {
                    data_version: DataVersion::new(3),
                    sampled_at: vec![(TableId::new(0), DataVersion::new(3))],
                    ..stale
                }));
            }
            other => panic!("expected Revalidate, got {other:?}"),
        }
        assert!(matches!(
            cache.begin(1, DataVersion::new(3), refreshed),
            Admission::Hit(_)
        ));
    }

    #[test]
    fn a_flight_that_lands_after_a_refresh_reads_as_stale() {
        // A leader admitted before the refresh validated against the old
        // samples; its result lands afterwards. Freshness is a function of
        // the admitting snapshot, so nobody has to mark it: the first
        // post-refresh admission sees it.
        let cache = new_cache(8);
        let guard = lead(&cache, 4);
        guard.complete(Ok(plan(0)));
        assert!(matches!(
            begin_at(&cache, 4, 1),
            Admission::Revalidate { .. }
        ));
    }

    #[test]
    fn a_reader_behind_the_entry_is_sent_back_for_a_newer_snapshot() {
        let cache = new_cache(8);
        lead(&cache, 4).complete(Ok(CachedPlan {
            data_version: DataVersion::new(2),
            ..plan(0)
        }));
        // Pairing a plan computed at v2 with the v1 snapshot would hand out
        // a (cost, data version) no single version explains — even though
        // the samples did not move in between.
        let unmoved = |_| Some(DataVersion::ZERO);
        assert!(matches!(
            cache.begin(4, DataVersion::new(1), unmoved),
            Admission::Behind
        ));
        assert!(matches!(
            cache.begin(4, DataVersion::new(2), unmoved),
            Admission::Hit(_)
        ));
    }

    #[test]
    fn a_table_the_snapshot_never_sampled_reads_as_stale() {
        let cache = new_cache(8);
        lead(&cache, 4).complete(Ok(plan(0)));
        assert!(matches!(
            cache.begin(4, DataVersion::ZERO, |_| None),
            Admission::Revalidate { .. }
        ));
    }
}
