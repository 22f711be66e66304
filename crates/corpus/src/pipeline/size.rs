//! Approximate artifact sizes for the stage cache's byte budget.
//!
//! Each estimate counts elements, never bytes: a schema costs its map slot
//! and attribute rows per table, so a history's estimate is O(versions ×
//! tables). Short strings (identifiers, type names) are charged one
//! allocator chunk each instead of being measured.

use std::mem::size_of;
use std::sync::Arc;

use schemachron_ddl::ast::Statement;
use schemachron_ddl::Diagnostic;
use schemachron_history::{Date, ProjectHistory, SchemaVersion};
use schemachron_model::{Attribute, AttributeChange, ForeignKey, Name, Schema, SchemaDiff, Table, View};

use super::artifact::{
    DiffSeq, DiffStep, LabelTuple, LogicalSchema, MetricVector, ParsedCommit, ParsedDdl,
    PatternClass, RawScripts,
};
use super::stage::ApproxSize;

/// The heap block behind one short string: glibc's smallest chunk.
const SHORT_HEAP: usize = 32;

/// A name and its heap block.
const NAME_BYTES: usize = size_of::<Name>() + SHORT_HEAP;

/// Approximate bytes of one table: its map slot, its names, and one row
/// per attribute (name and type heap included). O(1) in the attributes.
pub fn approx_table_bytes(table: &Table) -> usize {
    let keys = table.primary_key.len() + table.uniques.len();
    size_of::<(Name, Table)>()
        + 2 * SHORT_HEAP
        + table.attribute_count() * (size_of::<Attribute>() + 2 * SHORT_HEAP)
        + keys * NAME_BYTES
        + table.foreign_keys.len() * (size_of::<ForeignKey>() + 2 * NAME_BYTES)
}

/// Approximate bytes of one schema: O(tables).
pub fn approx_schema_bytes(schema: &Schema) -> usize {
    size_of::<Schema>()
        + schema.tables().map(approx_table_bytes).sum::<usize>()
        + schema
            .views()
            .map(|v| size_of::<(Name, View)>() + 2 * SHORT_HEAP + v.definition.len())
            .sum::<usize>()
}

/// Approximate bytes of one diff: O(1) in its changes.
pub fn approx_diff_bytes(diff: &SchemaDiff) -> usize {
    size_of::<SchemaDiff>()
        + (diff.tables_added.len() + diff.tables_dropped.len()) * NAME_BYTES
        + diff.changes.len() * (size_of::<AttributeChange>() + 2 * SHORT_HEAP)
}

fn diagnostics_bytes(diagnostics: &[Diagnostic]) -> usize {
    diagnostics
        .iter()
        .map(|d| size_of::<Diagnostic>() + d.message.len())
        .sum()
}

impl ApproxSize for ProjectHistory {
    fn approx_bytes(&self) -> usize {
        // Four month-aligned heartbeats: schema, expansion, maintenance and
        // source activity.
        let heartbeats = 4 * self.month_count() * size_of::<f64>();
        let versions = self.schema_history().map_or(0, |h| {
            h.versions()
                .iter()
                .map(|v| {
                    size_of::<SchemaVersion>()
                        + approx_schema_bytes(&v.schema)
                        + approx_diff_bytes(&v.diff)
                })
                .sum::<usize>()
                + diagnostics_bytes(h.diagnostics())
        });
        size_of::<Self>() + self.name().len() + heartbeats + versions
    }
}

impl ApproxSize for MetricVector {
    fn approx_bytes(&self) -> usize {
        size_of::<Self>()
    }
}

impl ApproxSize for LabelTuple {
    fn approx_bytes(&self) -> usize {
        size_of::<Self>()
    }
}

impl ApproxSize for PatternClass {
    fn approx_bytes(&self) -> usize {
        size_of::<Self>()
    }
}

// The upstream artifacts stay in a walk's memo fields and are never
// published; they still weigh themselves so every stage takes the one
// `step!` path whatever its publish flag.

impl ApproxSize for RawScripts {
    fn approx_bytes(&self) -> usize {
        let p = &self.project;
        size_of::<Self>()
            + p.name.len()
            + p.ddl_commits
                .iter()
                .map(|(_, sql)| size_of::<(Date, String)>() + sql.len())
                .sum::<usize>()
            + p.source_commits.len() * size_of::<(Date, f64)>()
    }
}

impl ApproxSize for ParsedDdl {
    fn approx_bytes(&self) -> usize {
        self.commits
            .iter()
            .map(|c| {
                size_of::<ParsedCommit>()
                    + c.statements.len() * (size_of::<Statement>() + 4 * SHORT_HEAP)
                    + diagnostics_bytes(&c.diagnostics)
            })
            .sum()
    }
}

impl ApproxSize for LogicalSchema {
    fn approx_bytes(&self) -> usize {
        self.snapshots
            .iter()
            .map(|(_, s)| size_of::<(Date, Arc<Schema>)>() + approx_schema_bytes(s))
            .sum::<usize>()
            + diagnostics_bytes(&self.diagnostics)
    }
}

impl ApproxSize for DiffSeq {
    fn approx_bytes(&self) -> usize {
        // The schemas are shared with the logical-schema artifact.
        self.steps
            .iter()
            .map(|s| size_of::<DiffStep>() + approx_diff_bytes(&s.diff))
            .sum::<usize>()
            + diagnostics_bytes(&self.diagnostics)
    }
}
