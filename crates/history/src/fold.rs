//! A running project history, grown one migration at a time.

use schemachron_model::Schema;

use crate::project::SchemaActivity;
use crate::version::next_version;
use crate::{Date, IngestMode, ProjectHistory};

/// A project history folded one migration at a time — the live-ingestion
/// counterpart of [`ProjectHistoryBuilder`](crate::ProjectHistoryBuilder).
///
/// It keeps the last schema, which the next migration applies to, and
/// what the §3.2 metrics read: the schema/expansion/maintenance
/// heartbeats and the per-kind totals, plus the last folded date.
/// [`HistoryFold::push`] applies one migration and diffs it, whatever the
/// history's length; [`HistoryFold::project_history`] costs O(months).
///
/// Folding a chain in date order gives, bit for bit, the heartbeats that
/// [`ProjectHistoryBuilder`](crate::ProjectHistoryBuilder) builds from the
/// same migrations: both run one apply-and-diff step and one accumulation,
/// in the same order.
#[derive(Clone, Debug, Default)]
pub struct HistoryFold {
    schema: Schema,
    activity: SchemaActivity,
    last_date: Option<Date>,
    versions: usize,
}

impl HistoryFold {
    /// An empty fold.
    pub fn new() -> Self {
        HistoryFold::default()
    }

    /// Folds a whole chain of migrations, stably sorted by date so that
    /// same-date migrations keep their order — the order
    /// [`ProjectHistoryBuilder::build`](crate::ProjectHistoryBuilder::build)
    /// gives them.
    pub fn from_migrations<'a>(chain: impl IntoIterator<Item = (Date, &'a str)>) -> Self {
        let mut sorted: Vec<(Date, &str)> = chain.into_iter().collect();
        sorted.sort_by_key(|(date, _)| *date);
        let mut fold = HistoryFold::new();
        for (date, sql) in sorted {
            fold.push(date, sql);
        }
        fold
    }

    /// Applies one migration on top of the last schema, diffs it and adds
    /// the diff to its month.
    ///
    /// `date` must not precede [`HistoryFold::last_date`]: the batch
    /// builder sorts by date, so a backdated migration belongs earlier in
    /// the history than this fold can place it. Refold the chain with
    /// [`HistoryFold::from_migrations`] instead.
    pub fn push(&mut self, date: Date, sql: &str) {
        debug_assert!(
            self.last_date <= Some(date),
            "backdated push: {date} after {:?}",
            self.last_date
        );
        let (schema, diff, _diagnostics) = next_version(&self.schema, IngestMode::Migration, sql);
        self.activity.add(date, &diff);
        self.schema = schema;
        self.last_date = Some(date);
        self.versions += 1;
    }

    /// The date of the last folded migration (`None` before the first).
    pub fn last_date(&self) -> Option<Date> {
        self.last_date
    }

    /// How many migrations have been folded.
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// The PUP-aligned project history of everything folded so far, with
    /// no source heartbeat and no version list.
    pub fn project_history(&self, name: impl Into<String>) -> ProjectHistory {
        self.activity.clone().into_project(name.into(), &[], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ProjectHistoryBuilder;

    fn d(y: i32, m: u8, day: u8) -> Date {
        Date::new(y, m, day)
    }

    const CHAIN: [((i32, u8, u8), &str); 6] = [
        ((2020, 1, 10), "CREATE TABLE t (a INT, b INT);"),
        ((2020, 1, 10), "ALTER TABLE t ADD COLUMN c INT;"),
        ((2020, 1, 25), "ALTER TABLE t DROP COLUMN b;"),
        ((2020, 4, 2), "-- nothing changes"),
        ((2020, 9, 2), "CREATE TABLE u (x INT);"),
        ((2021, 2, 2), "DROP TABLE t; DROP TABLE u;"),
    ];

    #[test]
    fn every_prefix_equals_the_builder() {
        let mut fold = HistoryFold::new();
        for (n, ((y, m, day), sql)) in CHAIN.into_iter().enumerate() {
            fold.push(d(y, m, day), sql);
            let mut prefix = ProjectHistoryBuilder::new("p");
            for ((y, m, day), sql) in &CHAIN[..=n] {
                prefix.migration(d(*y, *m, *day), *sql);
            }
            let want = prefix.build();
            let got = fold.project_history("p");
            assert_eq!(got.schema_heartbeat(), want.schema_heartbeat());
            assert_eq!(got.schema_expansion(), want.schema_expansion());
            assert_eq!(got.schema_maintenance(), want.schema_maintenance());
            assert_eq!(got.kind_totals(), want.kind_totals());
            assert_eq!(got.start(), want.start());
        }
        assert_eq!(fold.version_count(), CHAIN.len());
        assert_eq!(fold.last_date(), Some(d(2021, 2, 2)));
    }

    #[test]
    fn from_migrations_sorts_stably_like_the_builder() {
        let chain = [
            (d(2020, 5, 1), "ALTER TABLE t ADD COLUMN b INT;"),
            (d(2020, 1, 1), "CREATE TABLE t (a INT);"),
            (d(2020, 5, 1), "ALTER TABLE t DROP COLUMN a;"),
        ];
        let fold = HistoryFold::from_migrations(chain);
        let mut b = ProjectHistoryBuilder::new("p");
        for (date, sql) in chain {
            b.migration(date, sql);
        }
        let want = b.build();
        assert_eq!(fold.version_count(), 3);
        assert_eq!(
            fold.project_history("p").schema_heartbeat(),
            want.schema_heartbeat()
        );
    }

    #[test]
    fn empty_fold_is_an_empty_history() {
        let p = HistoryFold::new().project_history("empty");
        assert_eq!(p.month_count(), 0);
        assert_eq!(p.schema_birth_index(), None);
        assert_eq!(p.name(), "empty");
    }
}
