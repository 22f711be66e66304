#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # schemachron-history
//!
//! Schema **version histories** and month-granule **heartbeats** — the data
//! structures behind §3.2 of the EDBT 2025 study.
//!
//! A project's history is a pair of monthly activity series over its
//! *Project Update Period* (PUP): the **schema heartbeat** (number of
//! affected attributes per month, as measured by `schemachron-model::diff`)
//! and the **source heartbeat** (lines of code changed per month). From the
//! cumulative, total-normalized form of these series the study derives all
//! of its time-related metrics.
//!
//! [`ProjectHistoryBuilder`] builds a finished history in one pass;
//! [`HistoryFold`] keeps the same schema heartbeats up to date as a history
//! grows, one migration at a time.
//!
//! ## Quick example
//!
//! ```
//! use schemachron_history::{Date, ProjectHistoryBuilder};
//!
//! let mut b = ProjectHistoryBuilder::new("demo");
//! b.snapshot(Date::new(2020, 1, 10), "CREATE TABLE t (a INT, b INT);");
//! b.snapshot(Date::new(2020, 4, 2), "CREATE TABLE t (a INT, b INT, c INT);");
//! b.source_commit(Date::new(2020, 1, 5), 100.0);
//! b.source_commit(Date::new(2020, 12, 20), 50.0);
//! let p = b.build();
//!
//! assert_eq!(p.month_count(), 12);           // Jan..Dec 2020
//! assert_eq!(p.schema_total(), 3.0);         // 2 born + 1 injected
//! assert_eq!(p.schema_birth_index(), Some(0));
//! ```

mod date;
mod fold;
mod heartbeat;
mod project;
mod version;

pub use date::{Date, DateParseError, MonthId, MonthParseError};
pub use fold::HistoryFold;
pub use heartbeat::Heartbeat;
pub use project::{ProjectHistory, ProjectHistoryBuilder};
pub use version::{IngestMode, SchemaHistory, SchemaVersion};
