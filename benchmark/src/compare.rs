//! `compare A B`: two sets of result files, metric by metric, against the
//! declared bounds.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value;

use crate::spec::Declared;
use crate::stats::{median, quartiles};

/// The comparison verdict for one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    WithinBound,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's spread exceeds the bound, so the data cannot tell.
    Unresolved,
}

impl Verdict {
    /// The printed word.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. Spread is the interquartile distance over the
/// median. A spread wider than the bound leaves the verdict unresolved,
/// unless every run of B reads better than every run of A.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / median(v).abs()
    };
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (spread(a) > bound || spread(b) > bound) && !all_b_better {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let worsening = if lower_is_better { mb - ma } else { ma - mb } / ma.abs();
    if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    }
}

/// Untraced result files under `dir`: workload → metric → values.
fn collect(
    dir: &Path,
    into: &mut BTreeMap<String, BTreeMap<String, Vec<f64>>>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect(&path, into)?;
            continue;
        }
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        let Ok(v) = serde_json::from_str(&text) else {
            continue;
        };
        let v: Value = v;
        if v.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            v.get("workload").and_then(Value::as_str),
            v.get("metrics").and_then(Value::as_object),
        ) else {
            continue;
        };
        let per = into.entry(workload.to_owned()).or_default();
        for (metric, m) in metrics.iter() {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                per.entry(metric.clone()).or_default().push(x);
            }
        }
    }
    Ok(())
}

/// Compares the result sets under `a` and `b` for every declared
/// end-to-end metric; prints one line per workload × metric and returns
/// whether every verdict is "within bound".
pub fn compare(a: &Path, b: &Path, declared: &[Declared]) -> std::io::Result<bool> {
    let (mut sa, mut sb) = (BTreeMap::new(), BTreeMap::new());
    collect(a, &mut sa)?;
    collect(b, &mut sb)?;
    let mut clean = true;
    for (workload, metrics_a) in &sa {
        for d in declared {
            let bound = d.bound.unwrap_or(0.0);
            let va = metrics_a.get(&d.name);
            let vb = sb.get(workload).and_then(|m| m.get(&d.name));
            let (Some(va), Some(vb)) = (va, vb) else {
                println!("{workload} {}: missing on one side", d.name);
                clean = false;
                continue;
            };
            let v = verdict(va, vb, d.lower_is_better, bound);
            clean &= v == Verdict::WithinBound;
            let side = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}] n={}", median(x), q1, q3, x.len())
            };
            println!(
                "{workload} {} {}  A {}  B {}  bound {:.0}%  {}",
                d.name,
                d.unit,
                side(va),
                side(vb),
                bound * 100.0,
                v.word()
            );
        }
    }
    for workload in sb.keys().filter(|w| !sa.contains_key(*w)) {
        println!("{workload}: only in B");
        clean = false;
    }
    Ok(clean)
}
