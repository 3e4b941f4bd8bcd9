//! Columns: typed `i64` vectors with an optional string dictionary.

use std::sync::Arc;

use crate::schema::LogicalType;
use crate::value::{StringDict, Value, NULL_SENTINEL};
use reopt_common::{Error, Result};

/// One stored column.
///
/// Data is a dense `Vec<i64>`; NULLs are encoded as [`NULL_SENTINEL`].
/// Dictionary-typed columns share an [`Arc<StringDict>`] so that cheap
/// clones (e.g. sample tables) do not duplicate the dictionary.
#[derive(Debug, Clone)]
pub struct Column {
    ty: LogicalType,
    data: Vec<i64>,
    dict: Option<Arc<StringDict>>,
}

impl Column {
    /// Build a column from raw `i64` data.
    pub fn from_i64(ty: LogicalType, data: Vec<i64>) -> Self {
        Column {
            ty,
            data,
            dict: None,
        }
    }

    /// Build a dictionary column from strings.
    pub fn from_strings<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict = StringDict::new();
        let data = values.iter().map(|s| dict.intern(s.as_ref())).collect();
        Column {
            ty: LogicalType::Dict,
            data,
            dict: Some(Arc::new(dict)),
        }
    }

    /// Build a dictionary column from codes plus a shared dictionary.
    pub fn from_codes(data: Vec<i64>, dict: Arc<StringDict>) -> Self {
        Column {
            ty: LogicalType::Dict,
            data,
            dict: Some(dict),
        }
    }

    /// Logical type.
    pub fn ty(&self) -> LogicalType {
        self.ty
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw `i64` data (NULLs as [`NULL_SENTINEL`]).
    pub fn data(&self) -> &[i64] {
        &self.data
    }

    /// The dictionary for a dict column.
    pub fn dict(&self) -> Option<&Arc<StringDict>> {
        self.dict.as_ref()
    }

    /// Raw value at `row`.
    pub fn raw(&self, row: usize) -> i64 {
        self.data[row]
    }

    /// Typed value at `row`.
    pub fn value(&self, row: usize) -> Value {
        let raw = self.data[row];
        if raw == NULL_SENTINEL {
            return Value::Null;
        }
        match self.ty {
            LogicalType::Dict => match self.dict.as_ref().and_then(|d| d.lookup(raw)) {
                Some(s) => Value::Str(s.clone()),
                None => Value::Int(raw),
            },
            _ => Value::Int(raw),
        }
    }

    /// Translate a typed constant to this column's raw representation, for
    /// predicate evaluation. Returns an error for type mismatches; returns
    /// `Ok(None)` for a string constant absent from the dictionary (a
    /// predicate on it matches nothing).
    pub fn encode_constant(&self, v: &Value) -> Result<Option<i64>> {
        match (self.ty, v) {
            (LogicalType::Dict, Value::Str(s)) => Ok(self.dict.as_ref().and_then(|d| d.code_of(s))),
            (LogicalType::Dict, Value::Int(raw)) => Ok(Some(*raw)),
            (LogicalType::Dict, other) => Err(Error::invalid(format!(
                "cannot compare dict column with {other:?}"
            ))),
            (_, Value::Int(raw)) => Ok(Some(*raw)),
            (_, other) => Err(Error::invalid(format!(
                "cannot compare {:?} column with {other:?}",
                self.ty
            ))),
        }
    }

    /// Gather rows by index into a new raw vector (used by sampling).
    pub fn gather(&self, rows: &[u32]) -> Vec<i64> {
        rows.iter().map(|&r| self.data[r as usize]).collect()
    }

    /// Check that `v` can be appended to this column without mutating
    /// anything: NULL is always accepted, dictionary columns take strings,
    /// every other type takes integers. [`crate::Table::append_rows`]
    /// vets a whole batch with this before
    /// applying any of it, which is what makes batch application atomic.
    pub fn can_append(&self, v: &Value) -> Result<()> {
        match (self.ty, v) {
            (_, Value::Null) => Ok(()),
            (LogicalType::Dict, Value::Str(_)) => Ok(()),
            (LogicalType::Dict, other) => Err(Error::invalid(format!(
                "cannot append {other:?} to a dict column"
            ))),
            (_, Value::Int(_)) => Ok(()),
            (ty, other) => Err(Error::invalid(format!(
                "cannot append {other:?} to a {ty:?} column"
            ))),
        }
    }

    /// Append a value previously vetted by [`Column::can_append`] and
    /// return the raw representation pushed (for index maintenance).
    /// Strings are interned in arrival order — the same order a fresh
    /// [`Column::from_strings`] build would intern them, so dictionary
    /// codes after incremental appends match a from-scratch build over the
    /// same row sequence (the quiescence bit-identity contract). A value
    /// that was never vetted degrades to NULL rather than corrupting the
    /// column.
    pub fn append_value(&mut self, v: &Value) -> i64 {
        let raw = match (self.ty, v) {
            (_, Value::Null) => NULL_SENTINEL,
            (LogicalType::Dict, Value::Str(s)) => {
                let dict = self.dict.get_or_insert_with(|| Arc::new(StringDict::new()));
                Arc::make_mut(dict).intern(s)
            }
            (_, other) => other.as_int().unwrap_or(NULL_SENTINEL),
        };
        self.data.push(raw);
        raw
    }

    /// Keep only the rows listed in `keep` (ascending), dropping the rest —
    /// the rewrite primitive behind `delete_where`. The dictionary is left
    /// untouched: codes of deleted rows simply become unreferenced.
    pub(crate) fn retain_rows(&mut self, keep: &[u32]) {
        self.data = self.gather(keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_column_round_trip() {
        let c = Column::from_i64(LogicalType::Int, vec![1, 2, NULL_SENTINEL]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(0), Value::Int(1));
        assert_eq!(c.value(2), Value::Null);
        assert_eq!(c.raw(1), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn string_column_round_trip() {
        let c = Column::from_strings(&["ASIA", "EUROPE", "ASIA"]);
        assert_eq!(c.ty(), LogicalType::Dict);
        assert_eq!(c.value(0), Value::from("ASIA"));
        assert_eq!(c.value(2), Value::from("ASIA"));
        assert_eq!(c.raw(0), c.raw(2));
        assert_ne!(c.raw(0), c.raw(1));
    }

    #[test]
    fn encode_constant_for_dict() {
        let c = Column::from_strings(&["ASIA", "EUROPE"]);
        let code = c.encode_constant(&Value::from("EUROPE")).unwrap();
        assert_eq!(code, Some(c.raw(1)));
        // Absent string: matches nothing but is not an error.
        assert_eq!(c.encode_constant(&Value::from("MARS")).unwrap(), None);
        // Float against dict: type error.
        assert!(c.encode_constant(&Value::Float(1.0)).is_err());
    }

    #[test]
    fn encode_constant_for_int() {
        let c = Column::from_i64(LogicalType::Date, vec![10, 20]);
        assert_eq!(c.encode_constant(&Value::Int(15)).unwrap(), Some(15));
        assert!(c.encode_constant(&Value::from("x")).is_err());
    }

    #[test]
    fn gather_selects_rows() {
        let c = Column::from_i64(LogicalType::Int, vec![10, 20, 30, 40]);
        assert_eq!(c.gather(&[3, 1]), vec![40, 20]);
        assert_eq!(c.gather(&[]), Vec::<i64>::new());
    }
}
