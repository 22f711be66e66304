//! Sequences of schema versions and the diffs between them.

use schemachron_ddl::{parse_schema, Diagnostic, SchemaBuilder};
use schemachron_model::{diff, Schema, SchemaDiff};

use crate::Date;

/// How a version's DDL text relates to the schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestMode {
    /// The text is a full dump; the version's schema is built from scratch.
    Snapshot,
    /// The text is a migration script applied on top of the previous version.
    Migration,
}

/// Builds the schema `sql` yields after `prev` and diffs the two: the one
/// apply-and-diff step behind [`SchemaHistory::push`] and
/// [`HistoryFold::push`](crate::HistoryFold::push).
pub(crate) fn next_version(
    prev: &Schema,
    mode: IngestMode,
    sql: &str,
) -> (Schema, SchemaDiff, Vec<Diagnostic>) {
    let (schema, diags) = match mode {
        IngestMode::Snapshot => parse_schema(sql),
        IngestMode::Migration => {
            // Clone the previous schema only on the path that mutates it.
            let mut b = SchemaBuilder::with_schema(prev.clone());
            b.apply_script(sql);
            b.finish()
        }
    };
    let d = diff(prev, &schema);
    (schema, d, diags)
}

/// One version of the schema, with the diff from its predecessor.
#[derive(Clone, Debug, PartialEq)]
pub struct SchemaVersion {
    /// When the version was committed.
    pub date: Date,
    /// The reconstructed logical schema at this version.
    pub schema: Schema,
    /// Changes relative to the previous version. For the first version this
    /// is the diff from the empty schema (i.e. everything is "born").
    pub diff: SchemaDiff,
}

/// An ordered sequence of schema versions with their diffs.
///
/// Build one by feeding dated DDL texts via [`SchemaHistory::push`]; versions
/// may arrive out of order, they are sorted by date at construction time via
/// [`SchemaHistory::from_entries`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchemaHistory {
    versions: Vec<SchemaVersion>,
    diagnostics: Vec<Diagnostic>,
}

impl SchemaHistory {
    /// An empty history.
    pub fn new() -> Self {
        SchemaHistory::default()
    }

    /// Builds a history from already-computed versions and diagnostics.
    ///
    /// This is the assembly entry point for staged pipelines that parse,
    /// build and diff schemas as separate cached steps. The caller
    /// guarantees `versions` is in chronological order and every `diff` is
    /// the delta from its predecessor (from the empty schema for the first
    /// version) — exactly what [`SchemaHistory::push`] would have produced.
    pub fn from_versions(versions: Vec<SchemaVersion>, diagnostics: Vec<Diagnostic>) -> Self {
        SchemaHistory {
            versions,
            diagnostics,
        }
    }

    /// Builds a history from `(date, ddl-text)` entries. Entries are sorted
    /// by date (stable, so same-date entries keep insertion order).
    pub fn from_entries(mode: IngestMode, entries: Vec<(Date, String)>) -> Self {
        let mut sorted = entries;
        sorted.sort_by_key(|(d, _)| *d);
        let mut h = SchemaHistory::new();
        for (date, sql) in sorted {
            h.push(mode, date, &sql);
        }
        h
    }

    /// Appends one version. The caller must push in chronological order
    /// (use [`SchemaHistory::from_entries`] otherwise).
    pub fn push(&mut self, mode: IngestMode, date: Date, sql: &str) {
        let empty = Schema::default();
        let prev_schema = self.versions.last().map_or(&empty, |v| &v.schema);
        let (schema, diff, mut diags) = next_version(prev_schema, mode, sql);
        self.diagnostics.append(&mut diags);
        self.versions.push(SchemaVersion { date, schema, diff });
    }

    /// Appends one version from an already-built logical schema — the
    /// ingestion path for non-SQL schema sources (e.g. implicit schemata
    /// inferred from document stores). The caller must push in
    /// chronological order.
    pub fn push_schema(&mut self, date: Date, schema: Schema) {
        let empty = Schema::default();
        let prev_schema = self.versions.last().map_or(&empty, |v| &v.schema);
        let d = diff(prev_schema, &schema);
        self.versions.push(SchemaVersion {
            date,
            schema,
            diff: d,
        });
    }

    /// The versions in chronological order.
    pub fn versions(&self) -> &[SchemaVersion] {
        &self.versions
    }

    /// All parse diagnostics accumulated during ingestion.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The final schema, if any version exists.
    pub fn last_schema(&self) -> Option<&Schema> {
        self.versions.last().map(|v| &v.schema)
    }

    /// Total attribute-level activity over the whole history (including the
    /// birth version's attribute births).
    pub fn total_activity(&self) -> usize {
        self.versions
            .iter()
            .map(|v| v.diff.attribute_change_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schemachron_model::ChangeKind;

    fn d(y: i32, m: u8, day: u8) -> Date {
        Date::new(y, m, day)
    }

    #[test]
    fn snapshot_history_diffs_between_dumps() {
        let mut h = SchemaHistory::new();
        h.push(
            IngestMode::Snapshot,
            d(2020, 1, 1),
            "CREATE TABLE t (a INT);",
        );
        h.push(
            IngestMode::Snapshot,
            d(2020, 2, 1),
            "CREATE TABLE t (a INT, b INT);",
        );
        assert_eq!(h.versions().len(), 2);
        assert_eq!(
            h.versions()[0]
                .diff
                .count_of(ChangeKind::AttributeBornWithTable),
            1
        );
        assert_eq!(
            h.versions()[1].diff.count_of(ChangeKind::AttributeInjected),
            1
        );
        assert_eq!(h.total_activity(), 2);
    }

    #[test]
    fn migration_history_applies_deltas() {
        let mut h = SchemaHistory::new();
        h.push(
            IngestMode::Migration,
            d(2020, 1, 1),
            "CREATE TABLE t (a INT);",
        );
        h.push(
            IngestMode::Migration,
            d(2020, 3, 1),
            "ALTER TABLE t ADD COLUMN b INT; CREATE TABLE u (x INT);",
        );
        let last = h.last_schema().unwrap();
        assert_eq!(last.table_count(), 2);
        assert_eq!(h.versions()[1].diff.attribute_change_count(), 2);
    }

    #[test]
    fn from_entries_sorts_by_date() {
        let h = SchemaHistory::from_entries(
            IngestMode::Snapshot,
            vec![
                (d(2020, 5, 1), "CREATE TABLE t (a INT, b INT);".into()),
                (d(2020, 1, 1), "CREATE TABLE t (a INT);".into()),
            ],
        );
        assert_eq!(h.versions()[0].date, d(2020, 1, 1));
        assert_eq!(h.versions()[1].diff.attribute_change_count(), 1);
    }

    #[test]
    fn empty_snapshot_version_drops_everything() {
        let mut h = SchemaHistory::new();
        h.push(
            IngestMode::Snapshot,
            d(2020, 1, 1),
            "CREATE TABLE t (a INT);",
        );
        h.push(IngestMode::Snapshot, d(2020, 2, 1), "-- schema gone");
        assert_eq!(
            h.versions()[1]
                .diff
                .count_of(ChangeKind::AttributeDeletedWithTable),
            1
        );
        assert!(h.last_schema().unwrap().is_empty());
    }

    #[test]
    fn diagnostics_accumulate() {
        let mut h = SchemaHistory::new();
        h.push(
            IngestMode::Snapshot,
            d(2020, 1, 1),
            "INSERT INTO x VALUES (1); CREATE TABLE t (a INT);",
        );
        assert_eq!(h.diagnostics().len(), 1);
    }
}
