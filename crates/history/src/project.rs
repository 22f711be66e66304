//! Whole-project histories: schema + source heartbeats over the PUP.

use schemachron_model::{ChangeKind, Schema, SchemaDiff};

use crate::{Date, Heartbeat, IngestMode, MonthId, SchemaHistory};

/// A project's complete evolution record over its **Project Update Period**
/// (PUP): the time between the originating version and the last commit.
///
/// Both heartbeats are aligned to the same month range (index 0 is the
/// project's first month), so time indices are directly comparable — this
/// is the structure every §3.2 metric is computed from.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectHistory {
    name: String,
    start: MonthId,
    schema: Heartbeat,
    schema_expansion: Heartbeat,
    schema_maintenance: Heartbeat,
    source: Heartbeat,
    kind_totals: [usize; 6],
    schema_history: Option<SchemaHistory>,
}

impl ProjectHistory {
    /// Builds a project history directly from aligned heartbeat values
    /// (mainly for tests and loaders of pre-aggregated datasets).
    ///
    /// `schema` and `source` must have the same length; `kind_totals` is the
    /// per-[`ChangeKind`] breakdown in [`ChangeKind::all`] order.
    pub fn from_heartbeats(
        name: impl Into<String>,
        start: MonthId,
        schema: Vec<f64>,
        source: Vec<f64>,
        kind_totals: [usize; 6],
    ) -> Self {
        assert_eq!(
            schema.len(),
            source.len(),
            "schema and source heartbeats must be aligned"
        );
        ProjectHistory {
            name: name.into(),
            start,
            schema: Heartbeat::from_values(start, schema.clone()),
            schema_expansion: Heartbeat::from_values(start, vec![0.0; schema.len()]),
            schema_maintenance: Heartbeat::from_values(start, vec![0.0; schema.len()]),
            source: Heartbeat::from_values(start, source),
            kind_totals,
            schema_history: None,
        }
    }

    /// The project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The first month of the PUP.
    pub fn start(&self) -> MonthId {
        self.start
    }

    /// The PUP length in months.
    pub fn month_count(&self) -> usize {
        self.schema.month_count()
    }

    /// The schema heartbeat (affected attributes per month), PUP-aligned.
    pub fn schema_heartbeat(&self) -> &Heartbeat {
        &self.schema
    }

    /// The expansion-only part of the schema heartbeat.
    pub fn schema_expansion(&self) -> &Heartbeat {
        &self.schema_expansion
    }

    /// The maintenance-only part of the schema heartbeat.
    pub fn schema_maintenance(&self) -> &Heartbeat {
        &self.schema_maintenance
    }

    /// The source-code heartbeat (changed lines per month), PUP-aligned.
    pub fn source_heartbeat(&self) -> &Heartbeat {
        &self.source
    }

    /// Total schema activity (affected attributes) over the whole history.
    pub fn schema_total(&self) -> f64 {
        self.schema.total()
    }

    /// The month index (0-based, within the PUP) of schema birth — the first
    /// month with schema activity. `None` when the schema never appears.
    pub fn schema_birth_index(&self) -> Option<usize> {
        self.schema.first_active_index()
    }

    /// Per-[`ChangeKind`] totals, in [`ChangeKind::all`] order.
    pub fn kind_totals(&self) -> [usize; 6] {
        self.kind_totals
    }

    /// Total expansion changes (born-with-table + injected).
    pub fn expansion_total(&self) -> usize {
        ChangeKind::all()
            .iter()
            .zip(self.kind_totals)
            .filter(|(k, _)| k.is_expansion())
            .map(|(_, n)| n)
            .sum()
    }

    /// Total maintenance changes (deletions, type and key updates).
    pub fn maintenance_total(&self) -> usize {
        ChangeKind::all()
            .iter()
            .zip(self.kind_totals)
            .filter(|(k, _)| k.is_maintenance())
            .map(|(_, n)| n)
            .sum()
    }

    /// The detailed version history, when the project was built from DDL.
    pub fn schema_history(&self) -> Option<&SchemaHistory> {
        self.schema_history.as_ref()
    }

    /// Assembles a project history from an already-built [`SchemaHistory`]
    /// plus dated source-commit events.
    ///
    /// This is the final assembly step shared by [`ProjectHistoryBuilder`]
    /// and staged pipelines that cache the schema history separately: the
    /// per-version diffs become the schema/expansion/maintenance heartbeats,
    /// the source events become the source heartbeat, and all four are
    /// aligned to the full PUP (earliest to latest event of either line).
    pub fn from_schema_history(
        name: impl Into<String>,
        history: SchemaHistory,
        source_events: &[(Date, f64)],
    ) -> ProjectHistory {
        let mut activity = SchemaActivity::default();
        for v in history.versions() {
            activity.add(v.date, &v.diff);
        }
        activity.into_project(name.into(), source_events, Some(history))
    }
}

/// The schema side of a project history, accumulated one version at a
/// time: the schema, expansion and maintenance heartbeats plus the
/// per-kind totals. [`ProjectHistory::from_schema_history`] and
/// [`HistoryFold`](crate::HistoryFold) both accumulate through
/// [`SchemaActivity::add`], so their f64 sums run in the same order.
#[derive(Clone, Debug, Default)]
pub(crate) struct SchemaActivity {
    schema: Heartbeat,
    expansion: Heartbeat,
    maintenance: Heartbeat,
    kind_totals: [usize; 6],
}

impl SchemaActivity {
    /// Adds one version's diff to the month of `date`.
    pub(crate) fn add(&mut self, date: Date, diff: &SchemaDiff) {
        let m = date.month_id();
        self.schema.add(m, diff.attribute_change_count() as f64);
        self.expansion.add(m, diff.expansion_count() as f64);
        self.maintenance.add(m, diff.maintenance_count() as f64);
        for (i, k) in ChangeKind::all().iter().enumerate() {
            self.kind_totals[i] += diff.count_of(*k);
        }
    }

    /// Builds the source heartbeat from `source_events`, aligns all four
    /// heartbeats to the full PUP (earliest to latest event of either
    /// line) and assembles the project history.
    pub(crate) fn into_project(
        self,
        name: String,
        source_events: &[(Date, f64)],
        schema_history: Option<SchemaHistory>,
    ) -> ProjectHistory {
        let SchemaActivity {
            mut schema,
            mut expansion,
            mut maintenance,
            kind_totals,
        } = self;
        let mut source = Heartbeat::new();
        for (date, lines) in source_events {
            source.add(date.month_id(), *lines);
        }

        // PUP spans from the earliest to the latest event of either line.
        let starts = [schema.start(), source.start()];
        let start = starts.iter().flatten().min().copied();
        let ends = [
            schema
                .start()
                .map(|s| s.plus(schema.month_count() as i32 - 1)),
            source
                .start()
                .map(|s| s.plus(source.month_count() as i32 - 1)),
        ];
        let end = ends.iter().flatten().max().copied();
        if let (Some(start), Some(end)) = (start, end) {
            schema.extend_to_cover(start, end);
            expansion.extend_to_cover(start, end);
            maintenance.extend_to_cover(start, end);
            source.extend_to_cover(start, end);
        }

        ProjectHistory {
            name,
            start: start.unwrap_or(MonthId(0)),
            schema,
            schema_expansion: expansion,
            schema_maintenance: maintenance,
            source,
            kind_totals,
            schema_history,
        }
    }
}

/// One pending schema version: DDL text or a pre-built logical schema.
#[derive(Debug)]
enum SchemaEntry {
    Sql(String, IngestMode),
    Direct(Schema),
}

/// Builds a [`ProjectHistory`] from dated DDL texts (or pre-built schemas)
/// plus source-commit events. See the crate-level example.
#[derive(Debug)]
pub struct ProjectHistoryBuilder {
    name: String,
    schema_entries: Vec<(Date, SchemaEntry)>,
    source_events: Vec<(Date, f64)>,
}

impl ProjectHistoryBuilder {
    /// Starts a builder for the named project.
    pub fn new(name: impl Into<String>) -> Self {
        ProjectHistoryBuilder {
            name: name.into(),
            schema_entries: Vec::new(),
            source_events: Vec::new(),
        }
    }

    /// Adds a full-dump schema version.
    pub fn snapshot(&mut self, date: Date, sql: impl Into<String>) -> &mut Self {
        self.schema_entries
            .push((date, SchemaEntry::Sql(sql.into(), IngestMode::Snapshot)));
        self
    }

    /// Adds a migration script applied on top of the previous version.
    pub fn migration(&mut self, date: Date, sql: impl Into<String>) -> &mut Self {
        self.schema_entries
            .push((date, SchemaEntry::Sql(sql.into(), IngestMode::Migration)));
        self
    }

    /// Adds a pre-built logical schema as a version — the ingestion path
    /// for non-SQL sources (e.g. implicit schemata of document stores).
    pub fn schema_version(&mut self, date: Date, schema: Schema) -> &mut Self {
        self.schema_entries
            .push((date, SchemaEntry::Direct(schema)));
        self
    }

    /// Records source-code activity (e.g. lines changed by a commit).
    pub fn source_commit(&mut self, date: Date, lines_changed: f64) -> &mut Self {
        self.source_events.push((date, lines_changed));
        self
    }

    /// Finalizes the project history. Schema versions are sorted by date;
    /// the two heartbeats are aligned to the full PUP.
    pub fn build(self) -> ProjectHistory {
        let mut entries = self.schema_entries;
        entries.sort_by_key(|(d, _)| *d);
        let mut history = SchemaHistory::new();
        for (date, entry) in entries {
            match entry {
                SchemaEntry::Sql(sql, mode) => history.push(mode, date, &sql),
                SchemaEntry::Direct(schema) => history.push_schema(date, schema),
            }
        }
        ProjectHistory::from_schema_history(self.name, history, &self.source_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(y: i32, m: u8, day: u8) -> Date {
        Date::new(y, m, day)
    }

    #[test]
    fn heartbeats_align_to_full_pup() {
        let mut b = ProjectHistoryBuilder::new("p");
        b.source_commit(d(2020, 1, 1), 10.0);
        b.snapshot(d(2020, 6, 1), "CREATE TABLE t (a INT);");
        b.source_commit(d(2020, 12, 1), 5.0);
        let p = b.build();
        assert_eq!(p.month_count(), 12);
        assert_eq!(p.schema_birth_index(), Some(5));
        assert_eq!(p.schema_total(), 1.0);
        assert_eq!(p.source_heartbeat().total(), 15.0);
        assert_eq!(p.start(), MonthId::from_ym(2020, 1));
    }

    #[test]
    fn schema_before_source_extends_left() {
        let mut b = ProjectHistoryBuilder::new("p");
        b.snapshot(d(2020, 1, 1), "CREATE TABLE t (a INT);");
        b.source_commit(d(2020, 3, 1), 10.0);
        let p = b.build();
        assert_eq!(p.month_count(), 3);
        assert_eq!(p.schema_birth_index(), Some(0));
    }

    #[test]
    fn expansion_and_maintenance_split() {
        let mut b = ProjectHistoryBuilder::new("p");
        b.snapshot(d(2020, 1, 1), "CREATE TABLE t (a INT, b INT);");
        b.snapshot(d(2020, 2, 1), "CREATE TABLE t (a INT);"); // b ejected
        let p = b.build();
        assert_eq!(p.expansion_total(), 2);
        assert_eq!(p.maintenance_total(), 1);
        assert_eq!(p.schema_expansion().total(), 2.0);
        assert_eq!(p.schema_maintenance().total(), 1.0);
        assert_eq!(p.schema_total(), 3.0);
    }

    #[test]
    fn same_month_versions_aggregate() {
        let mut b = ProjectHistoryBuilder::new("p");
        b.snapshot(d(2020, 1, 3), "CREATE TABLE t (a INT);");
        b.snapshot(d(2020, 1, 20), "CREATE TABLE t (a INT, b INT);");
        let p = b.build();
        assert_eq!(p.month_count(), 1);
        assert_eq!(p.schema_heartbeat().values(), &[2.0]);
    }

    #[test]
    fn from_heartbeats_constructor() {
        let p = ProjectHistory::from_heartbeats(
            "direct",
            MonthId::from_ym(2019, 1),
            vec![5.0, 0.0, 1.0],
            vec![10.0, 10.0, 10.0],
            [5, 1, 0, 0, 0, 0],
        );
        assert_eq!(p.month_count(), 3);
        assert_eq!(p.expansion_total(), 6);
        assert_eq!(p.maintenance_total(), 0);
        assert!(p.schema_history().is_none());
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn from_heartbeats_rejects_misaligned() {
        let _ =
            ProjectHistory::from_heartbeats("bad", MonthId(0), vec![1.0], vec![1.0, 2.0], [0; 6]);
    }

    #[test]
    fn empty_project_is_safe() {
        let p = ProjectHistoryBuilder::new("empty").build();
        assert_eq!(p.month_count(), 0);
        assert_eq!(p.schema_birth_index(), None);
        assert_eq!(p.schema_total(), 0.0);
    }

    #[test]
    fn migration_entries_mix_with_source() {
        let mut b = ProjectHistoryBuilder::new("p");
        b.migration(d(2021, 1, 1), "CREATE TABLE a (x INT);");
        b.migration(d(2021, 4, 1), "ALTER TABLE a ADD COLUMN y INT;");
        b.source_commit(d(2021, 6, 1), 1.0);
        let p = b.build();
        assert_eq!(p.month_count(), 6);
        assert_eq!(p.schema_total(), 2.0);
        let hist = p.schema_history().unwrap();
        assert_eq!(hist.versions().len(), 2);
        assert_eq!(
            hist.last_schema()
                .unwrap()
                .table("a")
                .unwrap()
                .attribute_count(),
            2
        );
    }
}
