//! The streaming store: per-project WALs plus the shared change feed,
//! behind one idempotent append operation.
//!
//! Layout on disk: `<root>/<project>/NNNNNN.wal`. Opening a store replays
//! every project's WAL (truncating torn tails), re-derives each project's
//! current classification, and resumes the feed cursor past the highest
//! cursor any replayed record carries — so a restarted process continues
//! the same monotonic cursor line it crashed on.
//!
//! Appends are **idempotent via client sequence numbers**: the first
//! commit of a project is `seq 1`, each next one `last + 1`. A duplicate
//! or out-of-order retry (`seq ≤ last`) is acknowledged as a safe no-op
//! without re-writing or re-emitting anything; a gap (`seq > last + 1`)
//! is refused with the expected sequence so the client can resync.
//!
//! A commit's date must be exactly `YYYY-MM-DD`: a four-digit year and an
//! in-range month and day. Anything else is [`StreamError::BadDate`],
//! refused before the WAL write. Replay still reads record dates with the
//! lenient [`Date`] grammar, so existing WALs keep opening.
//!
//! Each project keeps a running [`HistoryFold`] of its WAL records in date
//! order, so an append that keeps date order folds one commit and
//! classifies in O(months) (see [`crate::classify`]). The fold is built at
//! most once per project per process: when opening misses the stage cache,
//! or else on the project's first append that misses. A backdated commit
//! drops it and refolds every record. The WAL records are the only copy of
//! the chain; the rare full rebuilds read them.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use schemachron_history::{Date, HistoryFold};

use crate::classify::{classify_commits, fold_classification};
use crate::feed::{ChangeEvent, ChangeFeed, FeedBatch, FEED_CAPACITY};
use crate::wal::{Wal, WalError, WalRecord};

/// Outcome of one append call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Append {
    /// The commit was made durable and announced on the feed.
    Appended {
        /// The acknowledged sequence number.
        seq: u64,
        /// The feed cursor the transition event carries.
        cursor: u64,
        /// Pattern label before this commit (`None` for the first).
        before: Option<String>,
        /// Pattern label after this commit.
        after: String,
    },
    /// `seq` was already acknowledged: a retried or reordered request.
    Duplicate {
        /// The retried sequence number.
        seq: u64,
        /// The project's last acknowledged sequence number.
        last_seq: u64,
    },
}

/// A streaming-store failure.
#[derive(Debug)]
pub enum StreamError {
    /// `seq` skips ahead: the client must send `expected` next.
    SequenceGap {
        /// The next acceptable sequence number.
        expected: u64,
        /// The sequence number the client sent.
        got: u64,
    },
    /// The commit date is not a valid `YYYY-MM-DD`.
    BadDate(String),
    /// Sequence numbers start at 1.
    BadSeq(u64),
    /// The project name is empty or escapes the store root.
    BadProject(String),
    /// The WAL failed (I/O or corruption).
    Wal(WalError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::SequenceGap { expected, got } => {
                write!(f, "sequence gap: expected seq {expected}, got {got}")
            }
            StreamError::BadDate(d) => write!(f, "bad commit date `{d}` (want YYYY-MM-DD)"),
            StreamError::BadSeq(s) => write!(f, "bad seq {s}: sequence numbers start at 1"),
            StreamError::BadProject(p) => write!(f, "bad project name `{p}`"),
            StreamError::Wal(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<WalError> for StreamError {
    fn from(e: WalError) -> Self {
        StreamError::Wal(e)
    }
}

/// One project's live state.
#[derive(Debug)]
struct ProjectStream {
    wal: Wal,
    /// The running history of the first `version_count()` WAL records in
    /// date order. `None` until a stage-cache miss builds it, and again
    /// after a backdated commit or a panic until the next miss.
    fold: Option<HistoryFold>,
    /// The current pattern label (`None` before the first commit).
    pattern: Option<String>,
}

impl ProjectStream {
    fn from_wal(name: &str, wal: Wal) -> Result<ProjectStream, StreamError> {
        // Replay reads dates with the lenient `Date` grammar, so WALs
        // written before appends were held to `check_commit_date` still
        // open.
        if let Some(rec) = wal
            .records()
            .iter()
            .find(|r| Date::from_str(&r.date).is_err())
        {
            return Err(StreamError::BadDate(rec.date.clone()));
        }
        let mut stream = ProjectStream {
            wal,
            fold: None,
            pattern: None,
        };
        if !stream.wal.records().is_empty() {
            stream.reclassify(name);
        }
        Ok(stream)
    }

    /// Re-derives the pattern of the whole (non-empty) WAL chain: a
    /// stage-cache hit, or else the fold brought up to the last record.
    /// Records past the fold that keep date order are pushed one by one; a
    /// backdated one, which the batch builder's stable date sort would
    /// move, drops the fold so every record is refolded in date order.
    fn reclassify(&mut self, name: &str) -> String {
        let records = self.wal.records();
        let folded = self.fold.as_ref().map_or(0, HistoryFold::version_count);
        let mut pending = dated(&records[folded..]);
        let last = self.fold.as_ref().and_then(HistoryFold::last_date);
        let in_order = std::iter::once(last)
            .chain(pending.iter().map(|(date, _)| Some(*date)))
            .is_sorted();
        if !in_order {
            self.fold = None;
            pending = dated(records);
        }
        let pattern = fold_classification(
            name,
            self.wal.chain_crc(),
            records.len() as u64,
            &mut self.fold,
            pending,
        )
        .pattern
        .clone();
        self.pattern = Some(pattern.clone());
        pattern
    }
}

/// The `(date, sql)` chain of `records`, whose dates were all checked when
/// they were replayed or appended.
fn dated(records: &[WalRecord]) -> Vec<(Date, &str)> {
    records
        .iter()
        .map(|rec| {
            let date = Date::from_str(&rec.date)
                .unwrap_or_else(|_| unreachable!("record dates are checked at replay and append"));
            (date, rec.payload.as_str())
        })
        .collect()
}

/// Checks the date of a streamed commit: exactly `YYYY-MM-DD` with a
/// four-digit year and an in-range month and day. The bound keeps one
/// commit from padding a heartbeat across millions of empty months.
fn check_commit_date(s: &str) -> Result<(), StreamError> {
    let shaped = s.len() == 10
        && s.bytes().enumerate().all(|(i, c)| match i {
            4 | 7 => c == b'-',
            _ => c.is_ascii_digit(),
        });
    if shaped && Date::from_str(s).is_ok() {
        Ok(())
    } else {
        Err(StreamError::BadDate(s.to_owned()))
    }
}

/// The streaming store.
#[derive(Debug)]
pub struct StreamStore {
    root: PathBuf,
    projects: BTreeMap<String, ProjectStream>,
    feed: ChangeFeed,
}

fn valid_project_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 128
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
        && !name.starts_with('.')
}

impl StreamStore {
    /// Opens (or creates) the store rooted at `root`, replaying every
    /// project directory that holds WAL segments.
    ///
    /// # Errors
    /// I/O failures and non-recoverable WAL corruption.
    pub fn open(root: &Path) -> Result<StreamStore, StreamError> {
        std::fs::create_dir_all(root).map_err(WalError::Io)?;
        let mut store = StreamStore {
            root: root.to_owned(),
            projects: BTreeMap::new(),
            feed: ChangeFeed::new(FEED_CAPACITY),
        };
        let entries = std::fs::read_dir(root).map_err(WalError::Io)?;
        for entry in entries {
            let path = entry.map_err(WalError::Io)?.path();
            if !path.is_dir() {
                continue;
            }
            let name = path
                .file_name()
                .map_or_else(String::new, |n| n.to_string_lossy().into_owned());
            if !valid_project_name(&name) {
                continue;
            }
            let has_wal = std::fs::read_dir(&path)
                .map_err(WalError::Io)?
                .filter_map(Result::ok)
                .any(|e| e.path().extension().is_some_and(|x| x == "wal"));
            if !has_wal {
                continue;
            }
            let wal = Wal::open(&path, &name)?;
            store.feed.resume_past(wal.last_cursor());
            let stream = ProjectStream::from_wal(&name, wal)?;
            store.projects.insert(name, stream);
        }
        Ok(store)
    }

    /// The store root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Appends one commit: durable WAL write (write → fsync → ack), then
    /// live re-classification, then exactly one feed transition event.
    /// Duplicate and out-of-order retries are safe no-ops; gaps are
    /// refused with the expected sequence number.
    ///
    /// # Errors
    /// [`StreamError::SequenceGap`] on a gap, validation errors on bad
    /// input, and [`StreamError::Wal`] when the append could not be made
    /// durable (the commit is then *not* acknowledged and the same `seq`
    /// can be retried).
    pub fn append(
        &mut self,
        project: &str,
        seq: u64,
        date_str: &str,
        sql: &str,
    ) -> Result<Append, StreamError> {
        if !valid_project_name(project) {
            return Err(StreamError::BadProject(project.to_owned()));
        }
        if seq == 0 {
            return Err(StreamError::BadSeq(seq));
        }
        check_commit_date(date_str)?;

        if !self.projects.contains_key(project) {
            let dir = self.root.join(project);
            let wal = Wal::open(&dir, project)?;
            self.feed.resume_past(wal.last_cursor());
            let stream = ProjectStream::from_wal(project, wal)?;
            self.projects.insert(project.to_owned(), stream);
        }
        let cursor = self.feed.peek_cursor();
        let stream = self
            .projects
            .get_mut(project)
            .unwrap_or_else(|| unreachable!("inserted above"));

        let last = stream.wal.last_seq();
        if seq <= last {
            return Ok(Append::Duplicate { seq, last_seq: last });
        }
        if seq != last + 1 {
            return Err(StreamError::SequenceGap {
                expected: last + 1,
                got: seq,
            });
        }

        stream.wal.append(WalRecord {
            seq,
            cursor,
            date: date_str.to_owned(),
            payload: sql.to_owned(),
        })?;
        // Acknowledged: the commit is durable. Everything below is derived
        // state that a replay reconstructs identically.
        let before = stream.pattern.clone();
        let after = stream.reclassify(project);
        self.feed.emit(ChangeEvent {
            cursor,
            project: project.to_owned(),
            seq,
            date: date_str.to_owned(),
            before: before.clone(),
            after: after.clone(),
        });
        Ok(Append::Appended {
            seq,
            cursor,
            before,
            after,
        })
    }

    /// Feed events after `since`, at most `max`.
    pub fn events_since(&self, since: u64, max: usize) -> FeedBatch {
        self.feed.events_since(since, max)
    }

    /// The cursor the next commit will be announced under.
    pub fn next_cursor(&self) -> u64 {
        self.feed.peek_cursor()
    }

    /// Project names with at least one replayed or appended commit.
    pub fn project_names(&self) -> Vec<String> {
        self.projects.keys().cloned().collect()
    }

    /// A project's last acknowledged sequence number (0 when unknown).
    pub fn last_seq(&self, project: &str) -> u64 {
        self.projects.get(project).map_or(0, |s| s.wal.last_seq())
    }

    /// A project's current pattern label.
    pub fn pattern(&self, project: &str) -> Option<String> {
        self.projects.get(project).and_then(|s| s.pattern.clone())
    }

    /// A project's WAL chain checksum.
    pub fn chain_crc(&self, project: &str) -> Option<u64> {
        self.projects.get(project).map(|s| s.wal.chain_crc())
    }

    /// Re-derives a project's pattern from its WAL records without the
    /// cache or the fold — the batch-rebuild reference the chaos drill
    /// compares against.
    pub fn batch_classify(&self, project: &str) -> Option<String> {
        let records = self.projects.get(project)?.wal.records();
        let commits: Vec<(Date, String)> = dated(records)
            .into_iter()
            .map(|(date, sql)| (date, sql.to_owned()))
            .collect();
        (!commits.is_empty()).then(|| classify_commits(project, &commits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("schemachron-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn appends_classify_and_announce_transitions() {
        let _shared = crate::testlock::shared();
        let root = tmp("basic");
        let mut store = StreamStore::open(&root).unwrap();
        let first = store
            .append("proj-a", 1, "2020-01-10", "CREATE TABLE t (a INT, b INT);")
            .unwrap();
        let Append::Appended { seq, cursor, before, after } = first else {
            panic!("expected an append, got {first:?}");
        };
        assert_eq!((seq, cursor), (1, 1));
        assert_eq!(before, None);
        assert!(!after.is_empty());
        let second = store
            .append("proj-a", 2, "2021-06-10", "ALTER TABLE t ADD COLUMN c INT;")
            .unwrap();
        let Append::Appended { before, .. } = &second else {
            panic!("expected an append, got {second:?}");
        };
        assert_eq!(before.as_deref(), Some(after.as_str()));
        let batch = store.events_since(0, 10);
        assert_eq!(batch.events.len(), 2);
        assert_eq!(batch.events[1].cursor, 2);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn duplicates_are_noops_and_gaps_are_refused() {
        let _shared = crate::testlock::shared();
        let root = tmp("idem");
        let mut store = StreamStore::open(&root).unwrap();
        store
            .append("proj-b", 1, "2020-01-10", "CREATE TABLE t (a INT);")
            .unwrap();
        // Retried and reordered sequence numbers are acknowledged no-ops.
        for retry in [1, 1] {
            let dup = store
                .append("proj-b", retry, "2020-01-10", "CREATE TABLE t (a INT);")
                .unwrap();
            assert_eq!(dup, Append::Duplicate { seq: retry, last_seq: 1 });
        }
        assert_eq!(store.events_since(0, 10).events.len(), 1, "no re-emission");
        // A gap names the expected sequence.
        match store.append("proj-b", 5, "2020-02-10", "DROP TABLE t;") {
            Err(StreamError::SequenceGap { expected: 2, got: 5 }) => {}
            other => panic!("expected a gap refusal, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn restart_replays_state_and_resumes_cursors() {
        let _shared = crate::testlock::shared();
        let root = tmp("restart");
        let mut store = StreamStore::open(&root).unwrap();
        store
            .append("proj-c", 1, "2020-01-10", "CREATE TABLE t (a INT);")
            .unwrap();
        store
            .append("proj-c", 2, "2020-05-10", "ALTER TABLE t ADD COLUMN b INT;")
            .unwrap();
        let pattern = store.pattern("proj-c");
        drop(store);
        let mut reopened = StreamStore::open(&root).unwrap();
        assert_eq!(reopened.last_seq("proj-c"), 2);
        assert_eq!(reopened.pattern("proj-c"), pattern);
        assert_eq!(reopened.next_cursor(), 3, "cursors resume past the WAL");
        let third = reopened
            .append("proj-c", 3, "2021-01-10", "ALTER TABLE t ADD COLUMN c INT;")
            .unwrap();
        let Append::Appended { cursor, .. } = third else {
            panic!("expected an append, got {third:?}");
        };
        assert_eq!(cursor, 3);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn live_classification_agrees_with_batch_rebuild() {
        let _shared = crate::testlock::shared();
        let root = tmp("agree");
        let mut store = StreamStore::open(&root).unwrap();
        let commits = [
            ("2015-02-10", "CREATE TABLE users (id INT, name TEXT);"),
            ("2015-03-10", "ALTER TABLE users ADD COLUMN email TEXT;"),
            ("2018-11-10", "ALTER TABLE users DROP COLUMN name;"),
        ];
        for (i, (date, sql)) in commits.iter().enumerate() {
            store.append("proj-d", (i + 1) as u64, date, sql).unwrap();
        }
        assert_eq!(store.pattern("proj-d"), store.batch_classify("proj-d"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn unbounded_and_malformed_dates_are_refused_before_the_wal() {
        let _shared = crate::testlock::shared();
        let root = tmp("dates");
        let mut store = StreamStore::open(&root).unwrap();
        store
            .append("proj-e", 1, "2020-01-10", "CREATE TABLE t (a INT);")
            .unwrap();
        for bad in [
            "10000000-01-10",
            "99999-01-10",
            "-001-01-10",
            "+2020-01-10",
            "2020-01",
            "2020/01/10",
            " 2020-01-10",
            "2020-1-10",
            "2020-13-10",
            "2020-01-32",
            "2020-01-1x",
        ] {
            match store.append("proj-e", 2, bad, "DROP TABLE t;") {
                Err(StreamError::BadDate(d)) => assert_eq!(d, bad),
                other => panic!("{bad:?}: expected BadDate, got {other:?}"),
            }
            assert_eq!(
                store.last_seq("proj-e"),
                1,
                "{bad:?} must not reach the WAL"
            );
            assert_eq!(store.events_since(0, 10).events.len(), 1, "{bad:?} emitted");
        }
        // The seq the refusals did not consume is still the next one.
        let ok = store
            .append("proj-e", 2, "0999-12-31", "DROP TABLE t;")
            .unwrap();
        assert!(matches!(ok, Append::Appended { seq: 2, .. }), "{ok:?}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn live_pattern_equals_the_batch_builder_after_every_append() {
        let _shared = crate::testlock::shared();
        let root = tmp("fold-chain");
        let chain = [
            (
                "2016-03-04",
                "CREATE TABLE a (id INT, x TEXT); CREATE TABLE b (id INT);",
            ),
            ("2016-03-04", "ALTER TABLE a ADD COLUMN y INT;"),
            ("2016-03-20", "ALTER TABLE b ADD COLUMN z INT;"),
            ("2016-05-01", "-- a commit that changes nothing"),
            ("2016-02-11", "CREATE TABLE early (k INT, v INT, w INT);"),
            ("2017-01-09", "THIS IS NOT SQL AT ALL;"),
            ("2017-01-09", "ALTER TABLE a DROP COLUMN x;"),
            (
                "2018-06-30",
                "DROP TABLE a; DROP TABLE b; DROP TABLE early;",
            ),
            ("2016-04-15", "ALTER TABLE a ALTER COLUMN y TYPE BIGINT;"),
            ("2019-02-02", "CREATE TABLE c (id INT, note TEXT);"),
            ("2019-02-02", "ALTER TABLE c ADD COLUMN at DATE;"),
            ("2023-08-08", "ALTER TABLE c DROP COLUMN note;"),
        ];
        let owned = |n: usize| -> Vec<(Date, String)> {
            chain[..n]
                .iter()
                .map(|(d, sql)| (Date::from_str(d).unwrap(), (*sql).to_owned()))
                .collect()
        };
        let mut store = StreamStore::open(&root).unwrap();
        for (i, (date, sql)) in chain.iter().enumerate() {
            let seq = i as u64 + 1;
            if i == 6 {
                // A restart mid-chain: the reopened store serves the pattern
                // from the stage cache and refolds on its next append.
                drop(store);
                store = StreamStore::open(&root).unwrap();
                assert_eq!(
                    store.pattern("proj-f"),
                    Some(classify_commits("proj-f", &owned(i)))
                );
            }
            let ack = store.append("proj-f", seq, date, sql).unwrap();
            let want = classify_commits("proj-f", &owned(i + 1));
            let Append::Appended { after, .. } = ack else {
                panic!("seq {seq}: expected an append, got {ack:?}");
            };
            assert_eq!(after, want, "seq {seq} ({date})");
            assert_eq!(store.pattern("proj-f").as_deref(), Some(want.as_str()));
            // Retries of acknowledged commits change nothing.
            for retry in [seq, 1] {
                let dup = store.append("proj-f", retry, date, sql).unwrap();
                assert_eq!(
                    dup,
                    Append::Duplicate {
                        seq: retry,
                        last_seq: seq
                    }
                );
            }
            assert_eq!(store.pattern("proj-f").as_deref(), Some(want.as_str()));
            assert_eq!(store.batch_classify("proj-f"), Some(want));
        }
        assert_eq!(
            store.next_cursor(),
            chain.len() as u64 + 1,
            "one event per append"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_fold_that_skipped_a_cache_hit_catches_up_on_the_next_miss() {
        let _shared = crate::testlock::shared();
        let chain = [
            ("2012-01-10", "CREATE TABLE t (a INT, b INT);"),
            ("2012-02-10", "ALTER TABLE t ADD COLUMN c INT;"),
            ("2012-09-10", "ALTER TABLE t DROP COLUMN a;"),
            ("2013-03-10", "CREATE TABLE u (x INT, y INT);"),
            ("2015-07-10", "ALTER TABLE u ADD COLUMN z INT;"),
        ];
        let (root_b, root_c) = (tmp("catchup-b"), tmp("catchup-c"));
        let mut b = StreamStore::open(&root_b).unwrap();
        let mut c = StreamStore::open(&root_c).unwrap();
        let folded = |s: &StreamStore| {
            s.projects["proj-g"]
                .fold
                .as_ref()
                .map(HistoryFold::version_count)
        };
        // Identical chains under identical cursors share cache keys: `b`
        // misses and folds, `c` hits and never builds a fold.
        for (i, (date, sql)) in chain[..3].iter().enumerate() {
            b.append("proj-g", i as u64 + 1, date, sql).unwrap();
            c.append("proj-g", i as u64 + 1, date, sql).unwrap();
        }
        assert_eq!((folded(&b), folded(&c)), (Some(3), None));
        // `c` misses first and folds its whole chain; `b` then hits and
        // leaves its fold one commit behind.
        let (date, sql) = chain[3];
        c.append("proj-g", 4, date, sql).unwrap();
        b.append("proj-g", 4, date, sql).unwrap();
        assert_eq!((folded(&b), folded(&c)), (Some(3), Some(4)));
        // The next miss folds both skipped commits.
        let (date, sql) = chain[4];
        b.append("proj-g", 5, date, sql).unwrap();
        assert_eq!(folded(&b), Some(5));
        let commits: Vec<(Date, String)> = chain
            .iter()
            .map(|(d, sql)| (Date::from_str(d).unwrap(), (*sql).to_owned()))
            .collect();
        assert_eq!(
            b.pattern("proj-g"),
            Some(classify_commits("proj-g", &commits))
        );
        drop((b, c));
        let _ = std::fs::remove_dir_all(&root_b);
        let _ = std::fs::remove_dir_all(&root_c);
    }
}
