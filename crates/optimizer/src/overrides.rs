//! Γ — the store of sampling-validated cardinalities.
//!
//! Algorithm 1 maintains Γ, "the sampling-based cardinality estimates for
//! joins that have been validated". Within one query, a validated join
//! result is identified by the set of base relations it covers (its local
//! predicates are fixed), so Γ is a map `RelSet → rows`. The optimizer's
//! cardinality estimator consults Γ *before* its native statistics and
//! accepts the entry unconditionally (§7 discusses this design choice).

//! Mid-query re-optimization extends Γ with **exact** entries: when the
//! executor suspends at a pipeline breaker it has *observed* the true
//! cardinality of every completed node — a count, not an estimate, with no
//! sampling scale-up (scale 1.0). Exact entries take precedence over
//! sampled ones: [`CardOverrides::insert_exact`] overwrites any sampled
//! value for the same set, while the sampled paths
//! ([`CardOverrides::insert`], [`CardOverrides::merge`]) silently skip
//! sets already known exactly — an estimate must never displace a fact.

use reopt_common::RelSet;
use std::collections::{BTreeMap, BTreeSet};

/// Validated cardinalities for one query (the paper's Γ).
///
/// Stored in ordered maps: Γ is iterated when merging Δ and when reports
/// and caches walk the validated sets, and an unordered walk there is
/// exactly the class of silent determinism hazard rule R1 of `reopt-lint`
/// exists to catch. Γ is small (one entry per validated join subset), so
/// the `BTreeMap` costs nothing measurable next to a sample run.
#[derive(Debug, Clone, Default)]
pub struct CardOverrides {
    map: BTreeMap<RelSet, f64>,
    /// Sets whose entry is an exact observed count, not a sampled
    /// estimate. Invariant: `exact ⊆ map.keys()`.
    exact: BTreeSet<RelSet>,
}

impl CardOverrides {
    /// Empty Γ (round 1 of Algorithm 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// The validated row count for exactly `set`, if present.
    pub fn get(&self, set: RelSet) -> Option<f64> {
        self.map.get(&set).copied()
    }

    /// Whether `set` has been validated.
    pub fn contains(&self, set: RelSet) -> bool {
        self.map.contains_key(&set)
    }

    /// Record a validated cardinality. Overwrites an existing sampled
    /// entry (the newest sample run wins; in practice re-validation of the
    /// same set yields the same number because sampling is deterministic
    /// per query). A set already known *exactly* is left untouched: a
    /// sampled estimate never displaces an observed count.
    pub fn insert(&mut self, set: RelSet, rows: f64) {
        if self.exact.contains(&set) {
            return;
        }
        self.map.insert(set, rows.max(0.0));
    }

    /// Record an **exact observed** cardinality (mid-query
    /// re-optimization): the executor counted `rows` output tuples for
    /// `set` on the full database, so the entry carries no sampling scale
    /// (scale 1.0) and overrides any sampled estimate for the same set.
    /// Exact entries are permanent for the life of this Γ — later sampled
    /// inserts/merges cannot touch them.
    pub fn insert_exact(&mut self, set: RelSet, rows: f64) {
        self.map.insert(set, rows.max(0.0));
        self.exact.insert(set);
    }

    /// Whether `set`'s entry is an exact observed count.
    pub fn is_exact(&self, set: RelSet) -> bool {
        self.exact.contains(&set)
    }

    /// Number of exact observed entries.
    pub fn exact_len(&self) -> usize {
        self.exact.len()
    }

    /// Γ ← Γ ∪ Δ (line 10 of Algorithm 1). Returns the number of sets that
    /// were not previously present — zero means Δ added nothing new, the
    /// premise of Theorem 1's convergence condition. Δ carries sampled
    /// estimates, so sets this Γ already knows exactly are skipped (they
    /// count as "previously present", never as fresh).
    pub fn merge(&mut self, delta: &CardOverrides) -> usize {
        let mut fresh = 0;
        for (&set, &rows) in &delta.map {
            if self.exact.contains(&set) {
                continue;
            }
            if self.map.insert(set, rows).is_none() {
                fresh += 1;
            }
        }
        fresh
    }

    /// Number of validated sets.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been validated yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate the validated (set, rows) pairs in ascending [`RelSet`]
    /// order — deterministic across runs and processes.
    pub fn iter(&self) -> impl Iterator<Item = (RelSet, f64)> + '_ {
        self.map.iter().map(|(&s, &r)| (s, r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::RelId;

    fn rs(ids: &[u32]) -> RelSet {
        ids.iter().map(|&i| RelId::new(i)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut g = CardOverrides::new();
        assert!(g.is_empty());
        g.insert(rs(&[0, 1]), 1234.0);
        assert_eq!(g.get(rs(&[0, 1])), Some(1234.0));
        assert!(g.contains(rs(&[0, 1])));
        assert!(!g.contains(rs(&[0, 2])));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn negative_rows_clamped_to_zero() {
        let mut g = CardOverrides::new();
        g.insert(rs(&[0]), -5.0);
        assert_eq!(g.get(rs(&[0])), Some(0.0));
    }

    #[test]
    fn merge_counts_only_new_sets() {
        let mut g = CardOverrides::new();
        g.insert(rs(&[0, 1]), 10.0);

        let mut d = CardOverrides::new();
        d.insert(rs(&[0, 1]), 12.0); // update, not new
        d.insert(rs(&[1, 2]), 7.0); // new
        let fresh = g.merge(&d);
        assert_eq!(fresh, 1);
        assert_eq!(g.len(), 2);
        // Newest value wins.
        assert_eq!(g.get(rs(&[0, 1])), Some(12.0));
    }

    #[test]
    fn merge_of_covered_delta_adds_nothing() {
        // Theorem 1's premise: when Δ ⊆ Γ (set-wise), Γ is unchanged.
        let mut g = CardOverrides::new();
        g.insert(rs(&[0, 1]), 10.0);
        g.insert(rs(&[0, 1, 2]), 100.0);
        let mut d = CardOverrides::new();
        d.insert(rs(&[0, 1]), 10.0);
        assert_eq!(g.merge(&d), 0);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn exact_entries_override_and_survive_sampled_writes() {
        let mut g = CardOverrides::new();
        g.insert(rs(&[0, 1]), 10.0);
        assert!(!g.is_exact(rs(&[0, 1])));

        // Exact observation overrides the sampled estimate...
        g.insert_exact(rs(&[0, 1]), 42.0);
        assert_eq!(g.get(rs(&[0, 1])), Some(42.0));
        assert!(g.is_exact(rs(&[0, 1])));
        assert_eq!(g.exact_len(), 1);

        // ...and later sampled writes cannot displace it.
        g.insert(rs(&[0, 1]), 7.0);
        assert_eq!(g.get(rs(&[0, 1])), Some(42.0));
        let mut d = CardOverrides::new();
        d.insert(rs(&[0, 1]), 9.0);
        d.insert(rs(&[1, 2]), 5.0);
        let fresh = g.merge(&d);
        assert_eq!(fresh, 1, "only the genuinely new set counts");
        assert_eq!(g.get(rs(&[0, 1])), Some(42.0));
        assert_eq!(g.get(rs(&[1, 2])), Some(5.0));
    }

    #[test]
    fn exact_reobservation_updates_in_place() {
        // Re-observing a set (e.g. the same breaker after a stats refresh)
        // keeps the newest exact count.
        let mut g = CardOverrides::new();
        g.insert_exact(rs(&[0]), 3.0);
        g.insert_exact(rs(&[0]), 4.0);
        assert_eq!(g.get(rs(&[0])), Some(4.0));
        assert_eq!(g.exact_len(), 1);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn iteration_covers_all_entries() {
        let mut g = CardOverrides::new();
        g.insert(rs(&[0]), 1.0);
        g.insert(rs(&[1]), 2.0);
        let mut got: Vec<(RelSet, f64)> = g.iter().collect();
        got.sort_by_key(|(s, _)| *s);
        assert_eq!(got, vec![(rs(&[0]), 1.0), (rs(&[1]), 2.0)]);
    }
}
