//! Cross-round DP memoization for incremental re-optimization.
//!
//! The re-optimization loop calls the optimizer once per round, and
//! consecutive rounds differ only in Γ: round i+1 adds the cardinalities
//! validated from round i's plan. Because the DP entry for a relation set
//! `S` (its best subplan, rows and cost) depends *only* on the
//! cardinalities of subsets of `S` — input rows come from subsets, output
//! rows from `S` itself, everything else is static statistics — an entry
//! stays exact across rounds unless Γ gained an entry for some `C ⊆ S`.
//! [`PlanMemo`] holds the DP table between rounds and
//! [`PlanMemo::invalidate_supersets`] evicts exactly that stale frontier,
//! so each round re-plans only the subsets the new Γ entries can affect
//! (the incremental re-optimization direction of Liu et al., ICDE 2016).
//!
//! A memo is only meaningful for a fixed (query, optimizer configuration)
//! pair; [`crate::Optimizer::optimize_incremental`] documents the
//! contract and `reopt_core`-level callers own one memo per
//! re-optimization run.

use reopt_common::RelSet;
use reopt_plan::PhysicalPlan;
use reopt_storage::DataVersion;
use std::collections::BTreeMap;

/// One planned subtree: the DP table's value type.
#[derive(Debug, Clone)]
pub(crate) struct MemoEntry {
    /// Best physical subplan covering the set.
    pub(crate) plan: PhysicalPlan,
    /// Estimated output rows under the Γ in force when planned.
    pub(crate) rows: f64,
    /// Estimated cumulative cost under that Γ.
    pub(crate) cost: f64,
}

/// A persistent DP table keyed by [`RelSet`], reusable across
/// re-optimization rounds.
///
/// Ordered map (rule R1): invalidation visits the table, and the DP's
/// lookups are set-keyed, so an ordered walk keeps every traversal of the
/// memo deterministic by construction.
/// A memo is additionally pinned to one [`DataVersion`]: its rows/costs
/// embed statistics and Γ entries derived from a specific data state, so
/// [`PlanMemo::set_data_version`] self-clears on any mismatch — a DP entry
/// planned against yesterday's statistics is structurally unreachable
/// after an ingest.
#[derive(Debug, Clone, Default)]
pub struct PlanMemo {
    entries: BTreeMap<RelSet, MemoEntry>,
    /// The data state every resident entry was planned against.
    version: DataVersion,
}

impl PlanMemo {
    /// Empty memo (round 1 of a re-optimization run).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized subsets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `set` has a (non-stale) entry.
    pub fn contains(&self, set: RelSet) -> bool {
        self.entries.contains_key(&set)
    }

    /// The data state the resident entries were planned against.
    pub fn data_version(&self) -> DataVersion {
        self.version
    }

    /// Pin the memo to `version`, clearing it first if the resident
    /// entries were planned against a different data state. Returns `true`
    /// when entries were dropped — a cross-version DP reuse is thereby
    /// structurally impossible, not merely discouraged.
    pub fn set_data_version(&mut self, version: DataVersion) -> bool {
        if self.version == version {
            return false;
        }
        let had = !self.entries.is_empty();
        self.entries.clear();
        self.version = version;
        had
    }

    /// Evict every entry whose set is a superset of any `changed` set and
    /// return how many were evicted. The cost/rows of a set `S` depend only
    /// on cardinalities of subsets of `S`, so entries with no changed
    /// subset remain exact.
    pub fn invalidate_supersets(&mut self, changed: &[RelSet]) -> usize {
        if changed.is_empty() {
            return 0;
        }
        let before = self.entries.len();
        self.entries
            .retain(|set, _| !changed.iter().any(|c| c.is_subset_of(*set)));
        before - self.entries.len()
    }

    pub(crate) fn get(&self, set: RelSet) -> Option<&MemoEntry> {
        self.entries.get(&set)
    }

    pub(crate) fn insert(&mut self, set: RelSet, entry: MemoEntry) {
        self.entries.insert(set, entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reopt_common::RelId;
    use reopt_plan::physical::PlanNodeInfo;
    use reopt_plan::{AccessPath, PhysicalPlan};

    fn rs(ids: &[u32]) -> RelSet {
        ids.iter().map(|&i| RelId::new(i)).collect()
    }

    fn entry() -> MemoEntry {
        MemoEntry {
            plan: PhysicalPlan::Scan {
                rel: RelId::new(0),
                table: reopt_common::TableId::new(0),
                access: AccessPath::SeqScan,
                info: PlanNodeInfo::default(),
            },
            rows: 1.0,
            cost: 1.0,
        }
    }

    #[test]
    fn invalidation_evicts_exactly_the_superset_frontier() {
        let mut memo = PlanMemo::new();
        for sets in [&[0][..], &[1], &[2], &[0, 1], &[1, 2], &[0, 1, 2]] {
            memo.insert(rs(sets), entry());
        }
        assert_eq!(memo.len(), 6);
        // Γ gained {0,1}: stale entries are {0,1} and {0,1,2}.
        let evicted = memo.invalidate_supersets(&[rs(&[0, 1])]);
        assert_eq!(evicted, 2);
        assert!(!memo.contains(rs(&[0, 1])));
        assert!(!memo.contains(rs(&[0, 1, 2])));
        assert!(memo.contains(rs(&[0])));
        assert!(memo.contains(rs(&[1, 2])));
    }

    #[test]
    fn singleton_change_invalidates_everything_containing_it() {
        let mut memo = PlanMemo::new();
        for sets in [&[0][..], &[1], &[0, 1]] {
            memo.insert(rs(sets), entry());
        }
        let evicted = memo.invalidate_supersets(&[rs(&[1])]);
        assert_eq!(evicted, 2);
        assert!(memo.contains(rs(&[0])));
    }

    #[test]
    fn version_pin_clears_on_mismatch_only() {
        let mut memo = PlanMemo::new();
        memo.insert(rs(&[0]), entry());
        // Same version: a no-op.
        assert!(!memo.set_data_version(DataVersion::ZERO));
        assert_eq!(memo.len(), 1);
        // Data moved: the whole table is stale.
        assert!(memo.set_data_version(DataVersion::new(1)));
        assert!(memo.is_empty());
        assert_eq!(memo.data_version(), DataVersion::new(1));
        // Clearing an already-empty memo reports no drop.
        assert!(!memo.set_data_version(DataVersion::new(2)));
    }

    #[test]
    fn empty_change_list_is_a_no_op() {
        let mut memo = PlanMemo::new();
        memo.insert(rs(&[0]), entry());
        assert_eq!(memo.invalidate_supersets(&[]), 0);
        assert_eq!(memo.len(), 1);
    }
}
