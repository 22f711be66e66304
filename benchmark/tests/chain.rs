//! The live-commit commit-chain generator.

use std::collections::BTreeMap;

use schemachron_benchmark::chain::{commit_chain, MAX_COLUMNS};
use schemachron_ddl::ast::{AlterAction, Statement};
use schemachron_ddl::parse_statements;

#[test]
fn every_commit_parses_and_width_stays_bounded() {
    for (seed, tables) in [(1, 3), (2, 6), (42, 4), (7, 5)] {
        let chain = commit_chain(seed, tables, 1500);
        let mut widths: BTreeMap<String, usize> = BTreeMap::new();
        let mut creates = 0;
        for c in &chain {
            let (statements, diagnostics) = parse_statements(&c.sql);
            assert!(diagnostics.is_empty(), "{}: {diagnostics:?}", c.sql);
            assert_eq!(statements.len(), 1, "{}", c.sql);
            match &statements[0] {
                Statement::CreateTable(t) => {
                    creates += 1;
                    widths.insert(t.name.as_str().to_owned(), t.columns.len());
                }
                Statement::AlterTable { name, actions } => {
                    let w = widths.get_mut(name.as_str()).expect("altered table exists");
                    for a in actions {
                        match a {
                            AlterAction::AddColumn { .. } => *w += 1,
                            AlterAction::DropColumn(_) => *w -= 1,
                            AlterAction::AlterColumnType { .. } => {}
                            other => panic!("unexpected action {other:?}"),
                        }
                    }
                }
                other => panic!("unexpected statement {other:?}"),
            }
            assert!(
                widths.values().all(|&w| (1..=MAX_COLUMNS).contains(&w)),
                "{widths:?}"
            );
        }
        assert_eq!(creates, tables, "seed {seed}");
        assert!(
            chain.windows(2).all(|w| w[0].date < w[1].date),
            "dates advance"
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_chain() {
    let long = commit_chain(9, 4, 1200);
    assert_eq!(long, commit_chain(9, 4, 1200));
    assert_eq!(
        &long[..1000],
        &commit_chain(9, 4, 1000)[..],
        "a longer chain extends a shorter"
    );
    assert_ne!(long, commit_chain(10, 4, 1200));
}
