//! Randomized and exhaustive tests over the core invariants of the
//! pipeline.
//!
//! These were originally proptest properties; the offline build vendors no
//! proptest, so each property is now driven by a seeded [`StdRng`] loop
//! (same invariants, deterministic inputs) or, where the input space is
//! small enough, checked exhaustively.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use schemachron::core::metrics::TimeMetrics;
use schemachron::core::quantize::{
    ActiveGrowthClass, ActivePupClass, BirthVolumeClass, IntervalClass, Labels, TailClass,
    TimepointClass,
};
use schemachron::core::{classify, classify_nearest, Pattern};
use schemachron::ddl::parse_schema;
use schemachron::history::{
    Heartbeat, HistoryFold, MonthId, ProjectHistory, ProjectHistoryBuilder,
};
use schemachron::model::{diff, render_schema_sql, Attribute, DataType, Name, Schema, Table};
use schemachron_corpus::{Card, Corpus};

// ------------------------------------------------------------ generators

fn ident(r: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    let len = r.random_range(0..=10usize);
    let mut s = String::with_capacity(len + 1);
    s.push(FIRST[r.random_range(0..FIRST.len())] as char);
    for _ in 0..len {
        s.push(REST[r.random_range(0..REST.len())] as char);
    }
    s
}

fn data_type(r: &mut StdRng) -> DataType {
    match r.random_range(0..6u8) {
        0 => DataType::named("int"),
        1 => DataType::named("bigint"),
        2 => DataType::named("text"),
        3 => DataType::with_params("varchar", vec![r.random_range(1..500i64)]),
        4 => DataType::with_params(
            "decimal",
            vec![r.random_range(1..20i64), r.random_range(0..10i64)],
        ),
        _ => DataType::named("int").with_modifier("unsigned"),
    }
}

fn table(r: &mut StdRng) -> Table {
    let mut t = Table::new(ident(r));
    let mut cols: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    let want = r.random_range(1..8usize);
    while cols.len() < want {
        cols.insert(ident(r));
    }
    for c in &cols {
        t.push_attribute(Attribute::new(c.clone(), data_type(r)));
    }
    if r.random_bool(0.5) {
        t.primary_key = vec![t.attributes()[0].name.clone()];
    }
    t
}

fn schema(r: &mut StdRng) -> Schema {
    let mut s = Schema::new();
    for _ in 0..r.random_range(0..6usize) {
        s.insert_table(table(r));
    }
    s
}

// ------------------------------------------------------------ the tests

#[test]
fn parser_never_panics_on_arbitrary_input() {
    let mut r = StdRng::seed_from_u64(0xA11A);
    for _ in 0..200 {
        let len = r.random_range(0..300usize);
        let input: String = (0..len)
            .map(|_| {
                // Mostly printable ASCII, with occasional non-ASCII noise.
                if r.random_bool(0.9) {
                    (r.random_range(0x20..0x7Fu8)) as char
                } else {
                    char::from_u32(r.random_range(0x80..0x2FFFu32)).unwrap_or('\u{fffd}')
                }
            })
            .collect();
        let _ = parse_schema(&input);
    }
}

#[test]
fn parser_never_panics_on_sqlish_input() {
    let mut r = StdRng::seed_from_u64(0x5A11);
    for _ in 0..300 {
        let n = r.random_range(0..40usize);
        let parts: Vec<String> = (0..n)
            .map(|_| match r.random_range(0..11u8) {
                0 => "CREATE TABLE".to_owned(),
                1 => "ALTER TABLE".to_owned(),
                2 => "DROP".to_owned(),
                3 => "(".to_owned(),
                4 => ")".to_owned(),
                5 => ",".to_owned(),
                6 => ";".to_owned(),
                7 => "PRIMARY KEY".to_owned(),
                8 => "'str".to_owned(),
                9 => "`tick".to_owned(),
                _ => ident(&mut r),
            })
            .collect();
        let _ = parse_schema(&parts.join(" "));
    }
}

#[test]
fn render_parse_roundtrip() {
    let mut r = StdRng::seed_from_u64(0x0707);
    for _ in 0..100 {
        let s = schema(&mut r);
        let sql = render_schema_sql(&s);
        let (parsed, diags) = parse_schema(&sql);
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}\n{sql}");
        assert_eq!(parsed, s);
    }
}

#[test]
fn diff_of_identical_schemas_is_empty() {
    let mut r = StdRng::seed_from_u64(0x1D1D);
    for _ in 0..100 {
        let s = schema(&mut r);
        assert!(diff(&s, &s.clone()).is_empty());
    }
}

#[test]
fn diff_from_empty_counts_every_attribute_as_born() {
    let mut r = StdRng::seed_from_u64(0xB0B0);
    for _ in 0..100 {
        let s = schema(&mut r);
        let d = diff(&Schema::new(), &s);
        assert_eq!(d.attribute_change_count(), s.attribute_count());
        assert_eq!(d.expansion_count(), s.attribute_count());
        assert_eq!(d.maintenance_count(), 0);
    }
}

#[test]
fn diff_partitions_into_expansion_and_maintenance() {
    let mut r = StdRng::seed_from_u64(0xD1FF);
    for _ in 0..100 {
        let (a, b) = (schema(&mut r), schema(&mut r));
        let d = diff(&a, &b);
        assert_eq!(
            d.expansion_count() + d.maintenance_count(),
            d.attribute_change_count()
        );
    }
}

#[test]
fn diff_direction_mirrors_births_and_deletions() {
    use schemachron::model::ChangeKind;
    let mut r = StdRng::seed_from_u64(0x3141);
    for _ in 0..100 {
        let (a, b) = (schema(&mut r), schema(&mut r));
        let fwd = diff(&a, &b);
        let back = diff(&b, &a);
        assert_eq!(
            fwd.count_of(ChangeKind::AttributeBornWithTable),
            back.count_of(ChangeKind::AttributeDeletedWithTable)
        );
        assert_eq!(
            fwd.count_of(ChangeKind::AttributeInjected),
            back.count_of(ChangeKind::AttributeEjected)
        );
        assert_eq!(fwd.tables_added.len(), back.tables_dropped.len());
    }
}

#[test]
fn name_comparison_is_ascii_case_insensitive() {
    let mut r = StdRng::seed_from_u64(0xCA5E);
    for _ in 0..200 {
        let s = ident(&mut r);
        assert_eq!(
            Name::from(s.to_ascii_uppercase()),
            Name::from(s.to_ascii_lowercase())
        );
    }
}

#[test]
fn heartbeat_cumulative_is_monotone_unit_bounded() {
    let mut r = StdRng::seed_from_u64(0xBEA7);
    for _ in 0..150 {
        let n = r.random_range(1..30usize);
        let events: Vec<(i32, f64)> = (0..n)
            .map(|_| (r.random_range(0..120i32), r.random_range(0.0..50.0)))
            .collect();
        let mut h = Heartbeat::new();
        for (m, v) in &events {
            h.add(MonthId(*m), *v);
        }
        let c = h.cumulative_fraction();
        assert!(c.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(c.iter().all(|&v| (-1e-12..=1.0 + 1e-12).contains(&v)));
        let total: f64 = events.iter().map(|(_, v)| v).sum();
        assert!((h.total() - total).abs() < 1e-9);
    }
}

#[test]
fn metrics_are_internally_consistent() {
    let mut r = StdRng::seed_from_u64(0x3E7A);
    for _ in 0..150 {
        let n = r.random_range(13..80usize);
        let mut activity: Vec<f64> = (0..n).map(|_| r.random_range(0.0..40.0)).collect();
        // Ensure at least one active month.
        let idx = r.random_range(0..12usize) % activity.len();
        activity[idx] += 1.0;
        let n = activity.len();
        let p =
            ProjectHistory::from_heartbeats("prop", MonthId(0), activity, vec![1.0; n], [0; 6]);
        let m = TimeMetrics::from_project(&p).expect("active");
        assert!(m.birth_index <= m.topband_index);
        assert!((0.0..=1.0).contains(&m.birth_pct_pup));
        assert!((0.0..=1.0).contains(&m.topband_pct_pup));
        assert!((0.0..=1.0).contains(&m.birth_volume_pct_total));
        assert!(m.interval_birth_to_top_pct >= -1e-12);
        assert!(
            (m.interval_birth_to_top_pct + m.birth_pct_pup - m.topband_pct_pup).abs() < 1e-9
        );
        assert!((m.interval_top_to_end_pct + m.topband_pct_pup - 1.0).abs() < 1e-9);
        assert_eq!(m.has_single_vault, m.interval_birth_to_top_pct < 0.10);
        assert!((m.birth_volume + m.activity_after_birth - m.total_activity).abs() < 1e-9);
        // Quantization always succeeds and stays in-range.
        let l = Labels::from_metrics(&m);
        assert!(l.birth_point.ordinal() < 4);
        assert!(l.interval_birth_to_top.ordinal() < 5);
    }
}

#[test]
fn at_most_one_pattern_matches_any_profile() {
    // The label space is small enough to sweep exhaustively (with a
    // representative set of active-growth-month counts).
    for bv in 0..4 {
        for bp in 0..4 {
            for tp in 0..4 {
                for iv in 0..5 {
                    for tl in 0..4 {
                        for ag in 0..4 {
                            for ap in 0..4 {
                                for agm in [0usize, 1, 2, 3, 4, 7, 12, 19] {
                                    for vault in [false, true] {
                                        check_profile(bv, bp, tp, iv, tl, ag, ap, agm, vault);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_profile(
    bv: usize,
    bp: usize,
    tp: usize,
    iv: usize,
    tl: usize,
    ag: usize,
    ap: usize,
    agm: usize,
    vault: bool,
) {
    let l = Labels {
        birth_volume: BirthVolumeClass::ALL[bv],
        birth_point: TimepointClass::ALL[bp],
        topband_point: TimepointClass::ALL[tp],
        interval_birth_to_top: IntervalClass::ALL[iv],
        interval_top_to_end: TailClass::ALL[tl],
        active_growth: ActiveGrowthClass::ALL[ag],
        active_pup: ActivePupClass::ALL[ap],
        active_growth_months: agm,
        has_single_vault: vault,
    };
    let matching: Vec<Pattern> = Pattern::ALL
        .iter()
        .copied()
        .filter(|p| p.matches(&l))
        .collect();
    assert!(matching.len() <= 1, "{matching:?}");
    // classify agrees with the match; nearest agrees when strict.
    assert_eq!(classify(&l), matching.first().copied());
    let (nearest, violations) = classify_nearest(&l);
    match matching.first() {
        Some(&p) => {
            assert_eq!(nearest, p);
            assert_eq!(violations, 0);
        }
        None => assert!(violations > 0),
    }
}

#[test]
fn feasible_cards_always_schedule_exactly() {
    let mut r = StdRng::seed_from_u64(0xF00D);
    for _ in 0..40 {
        let duration = r.random_range(13..90u32);
        let birth_frac_pct = r.random_range(20..70u32);
        let total = r.random_range(30..300u32);
        let agm = r.random_range(0..4u32);
        let seed = r.random_range(0..50u64);
        // Construct a feasible card: birth early-ish, top well after birth.
        let birth = duration / 10;
        let top = (birth + 5 + agm).min(duration - 1);
        let card = Card {
            name: format!("prop-{duration}-{total}"),
            pattern: Pattern::QuantumSteps,
            exception: false,
            duration,
            birth_month: birth,
            top_month: top,
            agm,
            birth_frac: birth_frac_pct as f64 / 100.0,
            total_units: total,
            tail_units: total / 20,
            tail_months: 1,
            maintenance_bias: 0.2,
        };
        let s = card.schedule();
        assert_eq!(s.total(), total);
        let months: Vec<u32> = s.events.iter().map(|(m, _)| *m).collect();
        let mut sorted = months.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(&months, &sorted, "unique and sorted");
        assert!(months.iter().all(|&m| m < duration));
        // Materialization reproduces the schedule exactly.
        let mat = schemachron_corpus::materialize::materialize(&card, seed);
        let mut b = schemachron::history::ProjectHistoryBuilder::new(&card.name);
        for (d, sql) in &mat.ddl_commits {
            b.migration(*d, sql.clone());
        }
        for (d, l) in &mat.source_commits {
            b.source_commit(*d, *l);
        }
        let p = b.build();
        assert_eq!(p.schema_total() as u32, total);
        assert_eq!(p.schema_birth_index(), Some(birth as usize));
    }
}

#[test]
fn corpus_regeneration_is_deterministic() {
    let a = Corpus::generate(7);
    let b = Corpus::generate(7);
    for (x, y) in a.projects().iter().zip(b.projects()) {
        assert_eq!(x.labels, y.labels);
        assert_eq!(x.metrics, y.metrics);
    }
}

#[test]
fn fold_metrics_equal_the_batch_builder_at_every_prefix_of_every_corpus_chain() {
    // The streaming store classifies from a running fold; the batch path
    // rebuilds the whole prefix. Their metrics must agree bit for bit
    // (`==` on every f64) on every prefix of every seed-42 chain.
    let corpus = Corpus::generate(42);
    let mut prefixes = 0;
    for project in corpus.projects() {
        let name = &project.card.name;
        let mat = schemachron_corpus::materialize::materialize(&project.card, 42);
        let mut fold = HistoryFold::new();
        for (n, (date, sql)) in mat.ddl_commits.iter().enumerate() {
            fold.push(*date, sql);
            let mut builder = ProjectHistoryBuilder::new(name);
            for (d, s) in &mat.ddl_commits[..=n] {
                builder.migration(*d, s.clone());
            }
            assert_eq!(
                TimeMetrics::from_project(&fold.project_history(name)),
                TimeMetrics::from_project(&builder.build()),
                "{name}: prefix of {} commits",
                n + 1
            );
            prefixes += 1;
        }
    }
    assert_eq!(
        prefixes, 536,
        "every commit of the 151 chains is a prefix end"
    );
}
