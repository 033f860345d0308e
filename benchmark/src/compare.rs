//! `compare A.json B.json`: two result files of `run`, metric by metric,
//! with the benchmark's own bounds. Also the repeatability check: two
//! runs of one commit must show no `worse` and no `unresolved`.

use crate::meter::{median, percentile};
use crate::metrics::{Metric, END_TO_END, WORKLOADS};
use serde::{Serialize, Value};
use std::path::Path;

/// Lets a hand-built tree go through the vendored `serde_json` writer.
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Field `key` of a JSON object.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: &Value) -> Option<f64> {
    match *value {
        Value::F64(x) => Some(x),
        Value::U64(x) => Some(x as f64),
        Value::I64(x) => Some(x as f64),
        _ => None,
    }
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match get(&doc, "kind") {
        Some(Value::Str(kind)) if kind == "run" => Ok(doc),
        _ => Err(format!("{} is not a result file of `run`", path.display())),
    }
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let entry = get(
        get(get(get(doc, "workloads")?, workload)?, "metrics")?,
        metric,
    )?;
    match get(entry, "samples")? {
        Value::Seq(items) if !items.is_empty() => items.iter().map(number).collect(),
        _ => None,
    }
}

fn failed_share(doc: &Value, workload: &str) -> Option<f64> {
    let w = get(get(doc, "workloads")?, workload)?;
    Some(number(get(w, "failed")?)? / number(get(w, "attempted")?)?.max(1.0))
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The repetitions spread wider than the bound and the two runs
    /// overlap: the data cannot say.
    Unresolved,
}

/// Judge `b` against `a` for one metric. "Worse" is a median worse by
/// more than the bound; when the repetitions of either run spread wider
/// than the bound and the runs' ranges overlap, nothing is claimed.
pub fn verdict(metric: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    // Orient so that larger is worse.
    let sign = if metric.higher { -1.0 } else { 1.0 };
    let orient = |s: &[f64]| -> Vec<f64> { s.iter().map(|x| sign * x).collect() };
    let (a, b) = (orient(a), orient(b));
    let (med_a, med_b) = (median(&a), median(&b));
    let scale = med_a.abs();
    let iqr = |s: &[f64]| percentile(s, 0.75) - percentile(s, 0.25);
    let spread = iqr(&a).max(iqr(&b)) / scale;
    let range = |s: &[f64]| (percentile(s, 0.0), percentile(s, 1.0));
    let ((lo_a, hi_a), (lo_b, hi_b)) = (range(&a), range(&b));
    let overlap = lo_b <= hi_a && lo_a <= hi_b;
    let change = (med_b - med_a) / scale;
    if spread > metric.bound && overlap {
        Verdict::Unresolved
    } else if change > metric.bound {
        Verdict::Worse
    } else if hi_b < lo_a && -change > spread {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    println!(
        "{:<28} {:<22} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}  verdict",
        "workload", "metric", "A median", "A q1", "A q3", "B median", "B q1", "B q3", "bound"
    );
    let mut ok = true;
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let (Some(sa), Some(sb)) = (
                samples(&a, workload, metric.name),
                samples(&b, workload, metric.name),
            ) else {
                return Err(format!("{workload} {} is missing from a file", metric.name));
            };
            let v = verdict(metric, &sa, &sb);
            ok &= !matches!(v, Verdict::Worse);
            println!(
                "{workload:<28} {:<22} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>12.5} {:>6.2}  {}",
                metric.name,
                median(&sa),
                percentile(&sa, 0.25),
                percentile(&sa, 0.75),
                median(&sb),
                percentile(&sb, 0.25),
                percentile(&sb, 0.75),
                metric.bound,
                format!("{v:?}").to_lowercase()
            );
        }
        let (fa, fb) = (
            failed_share(&a, workload).ok_or("failed counts missing")?,
            failed_share(&b, workload).ok_or("failed counts missing")?,
        );
        if fb > fa {
            println!("{workload:<28} failed_share rose from {fa} to {fb}: worse");
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Metric = Metric {
        name: "wall_s",
        unit: "s",
        higher: false,
        bound: 0.10,
    };
    const HIGHER: Metric = Metric {
        name: "recall",
        unit: "share",
        higher: true,
        bound: 0.02,
    };

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.01, 1.02], &[1.0, 1.02, 1.03]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.01, 1.02], &[1.2, 1.21, 1.22]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.01, 1.02], &[0.8, 0.81, 0.82]),
            Verdict::Better
        );
        // Wide spread and overlapping ranges: no claim either way.
        assert_eq!(
            verdict(&LOWER, &[1.0, 1.3, 1.6], &[1.1, 1.5, 1.7]),
            Verdict::Unresolved
        );
        // Wide spread, yet every B run beats every A run.
        assert_eq!(
            verdict(&LOWER, &[2.0, 2.3, 2.6], &[1.0, 1.3, 1.6]),
            Verdict::Better
        );
        assert_eq!(verdict(&HIGHER, &[0.95], &[0.90]), Verdict::Worse);
        assert_eq!(verdict(&HIGHER, &[0.95], &[0.95]), Verdict::Same);
        assert_eq!(verdict(&HIGHER, &[0.90], &[0.95]), Verdict::Better);
    }
}
