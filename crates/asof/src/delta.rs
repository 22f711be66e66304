//! Appliable per-version deltas — the storage unit of the as-of index.
//!
//! The measurement diff ([`SchemaDiff`]) is deliberately lossy: it counts
//! *affected attributes* (the paper's unit) and carries no data types or
//! view definitions, so it cannot reconstruct a schema. A [`VersionDelta`]
//! pairs that measurement diff (kept for provenance queries) with a minimal
//! **appliable** edit: the full new value of every table/view the version
//! touched, plus the names it dropped. Folding deltas over the empty schema
//! reproduces each stored version exactly, at a fraction of the memory of
//! retaining every monthly snapshot.

use std::mem::size_of;

use schemachron_corpus::pipeline::{approx_diff_bytes, approx_table_bytes};
use schemachron_history::{Date, MonthId, SchemaVersion};
use schemachron_model::{Name, Schema, SchemaDiff, Table, View};

/// One version transition in appliable form.
#[derive(Clone, Debug, PartialEq)]
pub struct VersionDelta {
    /// The month the version was committed in.
    pub month: MonthId,
    /// The exact commit date (day precision orders same-month versions).
    pub date: Date,
    /// The measurement diff from the predecessor version — reused verbatim
    /// from `schemachron-model` for provenance and activity queries.
    pub diff: SchemaDiff,
    /// Full new value of every table the version added or modified.
    tables_upserted: Vec<Table>,
    /// Tables present in the predecessor but not in this version.
    tables_dropped: Vec<Name>,
    /// Full new value of every view the version added or modified.
    views_upserted: Vec<View>,
    /// Views present in the predecessor but not in this version.
    views_dropped: Vec<Name>,
}

impl VersionDelta {
    /// Builds the delta taking `old` to `version.schema`.
    pub fn between(old: &Schema, version: &SchemaVersion) -> Self {
        let new = &version.schema;
        let tables_upserted = new
            .tables()
            .filter(|t| old.table_of(&t.name) != Some(*t))
            .cloned()
            .collect();
        let tables_dropped = old
            .tables()
            .filter(|t| new.table_of(&t.name).is_none())
            .map(|t| t.name.clone())
            .collect();
        let views_upserted = new
            .views()
            .filter(|v| old.view(v.name.as_str()) != Some(*v))
            .cloned()
            .collect();
        let views_dropped = old
            .views()
            .filter(|v| new.view(v.name.as_str()).is_none())
            .map(|v| v.name.clone())
            .collect();
        VersionDelta {
            month: version.date.month_id(),
            date: version.date,
            diff: version.diff.clone(),
            tables_upserted,
            tables_dropped,
            views_upserted,
            views_dropped,
        }
    }

    /// Approximate bytes of the delta: O(tables it touched).
    pub(crate) fn approx_bytes(&self) -> usize {
        size_of::<Self>()
            + approx_diff_bytes(&self.diff)
            + self.tables_upserted.iter().map(approx_table_bytes).sum::<usize>()
            + self
                .views_upserted
                .iter()
                .map(|v| size_of::<View>() + v.definition.len())
                .sum::<usize>()
            + (self.tables_dropped.len() + self.views_dropped.len()) * size_of::<Name>()
    }

    /// Applies the delta in place, turning the predecessor schema into this
    /// version's schema.
    pub fn apply(&self, schema: &mut Schema) {
        for name in &self.tables_dropped {
            schema.remove_table(name.as_str());
        }
        for table in &self.tables_upserted {
            schema.insert_table(table.clone());
        }
        for name in &self.views_dropped {
            schema.remove_view(name.as_str());
        }
        for view in &self.views_upserted {
            schema.insert_view(view.clone());
        }
    }

    /// Number of tables this delta writes or drops (a size proxy for cost
    /// accounting in the bench report).
    pub fn touched_tables(&self) -> usize {
        self.tables_upserted.len() + self.tables_dropped.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_history::{IngestMode, SchemaHistory};

    #[test]
    fn deltas_replay_to_each_stored_version() {
        let h = SchemaHistory::from_entries(
            IngestMode::Snapshot,
            vec![
                (Date::new(2020, 1, 5), "CREATE TABLE t (a INT);".into()),
                (
                    Date::new(2020, 3, 2),
                    "CREATE TABLE t (a INT, b INT); CREATE TABLE u (x INT);".into(),
                ),
                (Date::new(2020, 7, 9), "CREATE TABLE u (x INT, y INT);".into()),
            ],
        );
        let mut schema = Schema::default();
        let mut prev = Schema::default();
        for version in h.versions() {
            let delta = VersionDelta::between(&prev, version);
            delta.apply(&mut schema);
            assert_eq!(schema, version.schema);
            prev = version.schema.clone();
        }
    }

    #[test]
    fn untouched_tables_are_not_restated() {
        let h = SchemaHistory::from_entries(
            IngestMode::Snapshot,
            vec![
                (
                    Date::new(2020, 1, 5),
                    "CREATE TABLE t (a INT); CREATE TABLE u (x INT);".into(),
                ),
                (
                    Date::new(2020, 3, 2),
                    "CREATE TABLE t (a INT); CREATE TABLE u (x INT, y INT);".into(),
                ),
            ],
        );
        let delta = VersionDelta::between(&h.versions()[0].schema, &h.versions()[1]);
        // Only `u` changed; `t` must not be re-shipped in the delta.
        assert_eq!(delta.touched_tables(), 1);
    }
}
