//! [`RowSet`]: the executor's intermediate result representation.
//!
//! A row set over relations `{r_a, r_b, …}` stores one `Vec<u32>` of base
//! table row ids per relation, all of equal length; output tuple `i` is the
//! concatenation of base rows `cols[r][i]` across relations. This "rowid
//! join" representation keeps joins allocation-light regardless of how wide
//! the payload tables are.

use reopt_common::{Error, RelId, RelSet, Result};

/// An intermediate (or final) join result.
#[derive(Debug, Clone)]
pub struct RowSet {
    rels: Vec<RelId>,
    cols: Vec<Vec<u32>>,
    len: usize,
}

impl RowSet {
    /// A row set over a single relation.
    pub fn single(rel: RelId, rows: Vec<u32>) -> Self {
        let len = rows.len();
        RowSet {
            rels: vec![rel],
            cols: vec![rows],
            len,
        }
    }

    /// Assemble from parallel relation/rowid columns.
    pub fn new(rels: Vec<RelId>, cols: Vec<Vec<u32>>) -> Result<Self> {
        if rels.len() != cols.len() {
            return Err(Error::internal("rowset: rels/cols arity mismatch"));
        }
        let len = cols.first().map_or(0, Vec::len);
        if cols.iter().any(|c| c.len() != len) {
            return Err(Error::internal("rowset: ragged rowid columns"));
        }
        Ok(RowSet { rels, cols, len })
    }

    /// Number of output tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Relations covered, in column order.
    pub fn rels(&self) -> &[RelId] {
        &self.rels
    }

    /// The covered relations as a set.
    pub fn relset(&self) -> RelSet {
        self.rels.iter().copied().collect()
    }

    /// Row ids for `rel`.
    pub fn rowids(&self, rel: RelId) -> Result<&[u32]> {
        let pos = self.position(rel)?;
        Ok(&self.cols[pos])
    }

    /// Column position of `rel`.
    pub fn position(&self, rel: RelId) -> Result<usize> {
        self.rels
            .iter()
            .position(|&r| r == rel)
            .ok_or_else(|| Error::internal(format!("rowset does not cover relation {rel}")))
    }

    /// Concatenate two disjoint row sets according to `(left_idx, right_idx)`
    /// output pairs (the result of a join match phase).
    pub fn combine(left: &RowSet, right: &RowSet, pairs: &[(u32, u32)]) -> Result<RowSet> {
        if !left.relset().is_disjoint(right.relset()) {
            return Err(Error::internal("joining overlapping rowsets"));
        }
        let mut rels = Vec::with_capacity(left.rels.len() + right.rels.len());
        let mut cols = Vec::with_capacity(rels.capacity());
        for (r, c) in left.rels.iter().zip(&left.cols) {
            rels.push(*r);
            cols.push(pairs.iter().map(|&(l, _)| c[l as usize]).collect());
        }
        for (r, c) in right.rels.iter().zip(&right.cols) {
            rels.push(*r);
            cols.push(pairs.iter().map(|&(_, rr)| c[rr as usize]).collect());
        }
        RowSet::new(rels, cols)
    }

    /// Append `rows` as the row-id column of `rel`, a relation this set
    /// does not cover yet. The column is moved in, not copied.
    pub fn with_relation(mut self, rel: RelId, rows: Vec<u32>) -> Result<RowSet> {
        if self.rels.contains(&rel) {
            return Err(Error::internal("joining overlapping rowsets"));
        }
        if rows.len() != self.len {
            return Err(Error::internal("rowset: ragged rowid columns"));
        }
        self.rels.push(rel);
        self.cols.push(rows);
        Ok(self)
    }

    /// Keep only the tuples at `positions` (selection after the fact).
    pub fn select(&self, positions: &[u32]) -> RowSet {
        let cols = self
            .cols
            .iter()
            .map(|c| positions.iter().map(|&p| c[p as usize]).collect())
            .collect();
        RowSet {
            rels: self.rels.clone(),
            cols,
            len: positions.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u32) -> RelId {
        RelId::new(i)
    }

    #[test]
    fn single_and_accessors() {
        let rs = RowSet::single(r(2), vec![5, 7, 9]);
        assert_eq!(rs.len(), 3);
        assert!(!rs.is_empty());
        assert_eq!(rs.rels(), &[r(2)]);
        assert_eq!(rs.rowids(r(2)).unwrap(), &[5, 7, 9]);
        assert!(rs.rowids(r(0)).is_err());
        assert_eq!(rs.relset(), RelSet::single(r(2)));
    }

    #[test]
    fn new_validates_shape() {
        assert!(RowSet::new(vec![r(0)], vec![]).is_err());
        assert!(RowSet::new(vec![r(0), r(1)], vec![vec![1], vec![1, 2]]).is_err());
        let ok = RowSet::new(vec![r(0), r(1)], vec![vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(ok.len(), 2);
    }

    #[test]
    fn combine_joins_disjoint_sets() {
        let left = RowSet::single(r(0), vec![10, 11]);
        let right = RowSet::single(r(1), vec![20, 21, 22]);
        // Match left[0] with right[2] and left[1] with right[0].
        let out = RowSet::combine(&left, &right, &[(0, 2), (1, 0)]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.rowids(r(0)).unwrap(), &[10, 11]);
        assert_eq!(out.rowids(r(1)).unwrap(), &[22, 20]);
    }

    #[test]
    fn combine_rejects_overlap() {
        let a = RowSet::single(r(0), vec![1]);
        let b = RowSet::single(r(0), vec![2]);
        assert!(RowSet::combine(&a, &b, &[]).is_err());
    }

    #[test]
    fn select_filters_positions() {
        let rs = RowSet::new(vec![r(0), r(1)], vec![vec![1, 2, 3], vec![4, 5, 6]]).unwrap();
        let out = rs.select(&[2, 0]);
        assert_eq!(out.len(), 2);
        assert_eq!(out.rowids(r(0)).unwrap(), &[3, 1]);
        assert_eq!(out.rowids(r(1)).unwrap(), &[6, 4]);
    }

    #[test]
    fn with_relation_appends_a_disjoint_column() {
        let rs = RowSet::new(vec![r(0), r(1)], vec![vec![1, 2], vec![3, 4]]).unwrap();
        let out = rs.clone().with_relation(r(2), vec![8, 9]).unwrap();
        assert_eq!(out.rels(), &[r(0), r(1), r(2)]);
        assert_eq!(out.rowids(r(2)).unwrap(), &[8, 9]);
        assert!(rs.clone().with_relation(r(1), vec![8, 9]).is_err());
        assert!(rs.with_relation(r(2), vec![8]).is_err());
    }

    #[test]
    fn empty_combine() {
        let left = RowSet::single(r(0), vec![]);
        let right = RowSet::single(r(1), vec![]);
        let out = RowSet::combine(&left, &right, &[]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.rels().len(), 2);
    }
}
