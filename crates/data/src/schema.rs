//! Attribute schemas for point tables.
//!
//! Every point carries a location and a timestamp implicitly; the schema
//! describes the additional attribute columns (`a1, a2, …` in the paper's
//! query template).

use crate::{DataError, Result};

/// Type of an attribute column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// Continuous numeric attribute (fare, trip distance, …), stored `f32`
    /// — matching what the paper's GPU implementation uploads.
    Numeric,
    /// Categorical code (complaint type, payment type, …), stored as a
    /// small integer inside an `f32` column for uniform filtering.
    Categorical,
}

/// Ordered attribute column declarations.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    columns: Vec<(String, AttrType)>,
}

impl Schema {
    /// Empty schema (points with no attributes — pure COUNT workloads).
    pub fn empty() -> Self {
        Schema { columns: Vec::new() }
    }

    /// Schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Rejects duplicate column names.
    pub fn new<I, S>(cols: I) -> Result<Self>
    where
        I: IntoIterator<Item = (S, AttrType)>,
        S: Into<String>,
    {
        let mut columns: Vec<(String, AttrType)> = Vec::new();
        // lint: allow(cancel-poll-reachability) walks a schema's column definitions, a handful per dataset, not its rows
        for (name, ty) in cols {
            let name = name.into();
            if columns.iter().any(|(n, _)| *n == name) {
                return Err(DataError::Schema(format!("duplicate column: {name}")));
            }
            columns.push((name, ty));
        }
        Ok(Schema { columns })
    }

    /// Number of attribute columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when there are no attribute columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Column index by name.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| DataError::UnknownColumn(name.to_string()))
    }

    /// Column name at `idx`.
    pub fn name(&self, idx: usize) -> &str {
        &self.columns[idx].0
    }

    /// Column type at `idx`.
    pub fn attr_type(&self, idx: usize) -> AttrType {
        self.columns[idx].1
    }

    /// Iterate `(name, type)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, AttrType)> {
        self.columns.iter().map(|(n, t)| (n.as_str(), *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = Schema::new([("fare", AttrType::Numeric), ("kind", AttrType::Categorical)])
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("fare").unwrap(), 0);
        assert_eq!(s.index_of("kind").unwrap(), 1);
        assert!(matches!(s.index_of("nope"), Err(DataError::UnknownColumn(_))));
        assert_eq!(s.name(1), "kind");
        assert_eq!(s.attr_type(0), AttrType::Numeric);
    }

    #[test]
    fn duplicate_rejected() {
        assert!(Schema::new([("a", AttrType::Numeric), ("a", AttrType::Numeric)]).is_err());
    }

    #[test]
    fn empty_schema() {
        let s = Schema::empty();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }
}
