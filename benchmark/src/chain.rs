//! The seeded synthetic commit chain the live-commit workload streams.
//!
//! A chain opens with 3–6 `CREATE TABLE`s and then churns columns: add,
//! drop, or change a column's type, with commit dates advancing 1–3 days.
//! Table width is capped at [`MAX_COLUMNS`], and the total width reverts
//! to [`TARGET_WIDTH`]: adds grow likelier below it and drops above it.
//! Without that bound every commit could add a column, and classifying a
//! 1,000-commit history would measure schema width rather than history
//! length; holding the total near one value also keeps classification cost
//! the same from seed to seed.

use crate::stats::Rng;

/// The most columns any table of a chain ever holds.
pub const MAX_COLUMNS: usize = 40;

/// The total column count, over all tables, that churn reverts to.
pub const TARGET_WIDTH: usize = 12;

const TYPES: [&str; 6] = ["INT", "BIGINT", "TEXT", "VARCHAR(64)", "DATE", "BOOLEAN"];

/// One commit: its `YYYY-MM-DD` date and DDL script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Commit {
    /// The commit date.
    pub date: String,
    /// The commit's DDL.
    pub sql: String,
}

struct Table {
    name: String,
    /// `(column name, index into TYPES)`.
    columns: Vec<(String, usize)>,
    next_column: usize,
}

/// Days since 2010-01-01 → `YYYY-MM-DD`.
fn date_of(mut days: u32) -> String {
    let mut year = 2010;
    loop {
        let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
        let len = if leap { 366 } else { 365 };
        if days < len {
            let months = [
                31,
                if leap { 29 } else { 28 },
                31,
                30,
                31,
                30,
                31,
                31,
                30,
                31,
                30,
                31,
            ];
            let mut month = 0;
            while days >= months[month] {
                days -= months[month];
                month += 1;
            }
            return format!("{year:04}-{:02}-{:02}", month + 1, days + 1);
        }
        days -= len;
        year += 1;
    }
}

/// The first `len` commits of the chain for `seed`, opening with `tables`
/// `CREATE TABLE`s (clamped to 3–6). A longer chain of the same seed
/// extends a shorter one, so a preloaded prefix and the commits streamed
/// after it come from one chain.
pub fn commit_chain(seed: u64, tables: usize, len: usize) -> Vec<Commit> {
    let mut rng = Rng::new(seed);
    let mut day = rng.below(365) as u32;
    let table_count = tables.clamp(3, 6);
    let mut tables: Vec<Table> = Vec::new();
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let sql = if tables.len() < table_count {
            let mut table = Table {
                name: format!("t{}", tables.len()),
                columns: Vec::new(),
                next_column: 0,
            };
            for _ in 0..rng.between(2, 6) {
                let ty = rng.below(TYPES.len());
                table.columns.push((format!("c{}", table.next_column), ty));
                table.next_column += 1;
            }
            let cols: Vec<String> = table
                .columns
                .iter()
                .map(|(name, ty)| format!("{name} {}", TYPES[*ty]))
                .collect();
            let sql = format!("CREATE TABLE {} ({});", table.name, cols.join(", "));
            tables.push(table);
            sql
        } else {
            let total: usize = tables.iter().map(|t| t.columns.len()).sum();
            let gap = (TARGET_WIDTH as f64 - total as f64) / TARGET_WIDTH as f64;
            let add = (0.35 + 0.35 * gap).clamp(0.05, 0.65);
            let ti = rng.below(tables.len());
            let table = &mut tables[ti];
            let roll = rng.unit();
            let width = table.columns.len();
            if width < 2 || (width < MAX_COLUMNS && roll < add) {
                let ty = rng.below(TYPES.len());
                let name = format!("c{}", table.next_column);
                table.next_column += 1;
                let sql = format!(
                    "ALTER TABLE {} ADD COLUMN {name} {};",
                    table.name, TYPES[ty]
                );
                table.columns.push((name, ty));
                sql
            } else if roll < 0.7 {
                let (name, _) = table.columns.remove(rng.below(width));
                format!("ALTER TABLE {} DROP COLUMN {name};", table.name)
            } else {
                let ci = rng.below(width);
                let ty = (table.columns[ci].1 + 1 + rng.below(TYPES.len() - 1)) % TYPES.len();
                table.columns[ci].1 = ty;
                format!(
                    "ALTER TABLE {} ALTER COLUMN {} TYPE {};",
                    table.name, table.columns[ci].0, TYPES[ty]
                )
            }
        };
        out.push(Commit {
            date: date_of(day),
            sql,
        });
        day += rng.between(1, 3) as u32;
    }
    out
}
