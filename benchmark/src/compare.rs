//! `compare a.json b.json`: the noise-aware gate.
//!
//! One row per (end-to-end metric, workload) with both values, the
//! ratio `b / a` (base `a`) and a verdict from the bound `BENCHMARK.json`
//! fixes for the metric:
//!
//! * `ok` — `b` is no worse than `a`, or worse by no more than the bound;
//! * `unresolved` — `b` is worse and either file's within-run spread of
//!   the metric is wider than the bound, so one pair of runs cannot tell;
//! * `regressed` — `b` is worse by more than the bound and both runs
//!   were steadier than the bound.

use ff_workload::json::JsonValue;

use crate::spec::Better;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// The share of `a` by which `b` is worse (negative when better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (a - b) / a,
        Better::Lower => (b - a) / a,
    }
}

pub fn verdict(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    let worse = worsening(a, b, better);
    if worse <= 0.0 {
        Verdict::Ok
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse <= bound {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

/// `(name, better, bound)` of every end-to-end metric in a parsed
/// `BENCHMARK.json`.
fn bounds(benchmark: &JsonValue) -> Result<Vec<(String, Better, f64)>, String> {
    let Some(JsonValue::Array(rows)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end array".into());
    };
    rows.iter()
        .map(|row| {
            let name = row.get("name").and_then(JsonValue::as_str);
            let better = match row.get("better").and_then(JsonValue::as_str) {
                Some("higher") => Some(Better::Higher),
                Some("lower") => Some(Better::Lower),
                _ => None,
            };
            let bound = row.get("bound").and_then(JsonValue::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b, x)),
                _ => Err(format!("malformed end_to_end row: {}", row.render())),
            }
        })
        .collect()
}

/// `metric → (value, spread)` of `workload` in a results file.
fn end_to_end(results: &JsonValue, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let JsonValue::Array(workloads) = results.get("workloads")? else {
        return None;
    };
    let entry = workloads
        .iter()
        .find(|w| w.get("name").and_then(JsonValue::as_str) == Some(workload))?
        .get("end_to_end")?
        .get(metric)?;
    Some((
        entry.get("value")?.as_f64()?,
        entry
            .get("spread")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0),
    ))
}

/// The comparison table and whether any row regressed.
pub fn compare(
    benchmark: &JsonValue,
    a: &JsonValue,
    b: &JsonValue,
    workloads: &[&str],
) -> Result<(String, bool), String> {
    let mut table = format!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a", "b", "b/a", "bound", "spread"
    );
    let mut regressed = false;
    for (metric, better, bound) in bounds(benchmark)? {
        for &workload in workloads {
            let (Some((va, sa)), Some((vb, sb))) = (
                end_to_end(a, workload, &metric),
                end_to_end(b, workload, &metric),
            ) else {
                continue;
            };
            let spread = sa.max(sb);
            let v = verdict(va, vb, better, bound, spread);
            regressed |= v == Verdict::Regressed;
            table += &format!(
                "{workload:<16} {metric:<12} {va:>14.4} {vb:>14.4} {:>9.4} {bound:>7.3} {spread:>7.3}  {}\n",
                if va == 0.0 { 0.0 } else { vb / va },
                v.label(),
            );
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts_at_inside_and_outside_a_bound() {
        // Throughput, bound 8%, steady runs.
        assert_eq!(verdict(100.0, 95.0, Higher, 0.08, 0.01), Verdict::Ok);
        assert_eq!(
            verdict(100.0, 92.0, Higher, 0.08, 0.01),
            Verdict::Ok,
            "at the bound"
        );
        assert_eq!(verdict(100.0, 91.9, Higher, 0.08, 0.01), Verdict::Regressed);
        assert_eq!(verdict(100.0, 130.0, Higher, 0.08, 0.01), Verdict::Ok);
        // Latency: lower is better, so the signs flip.
        assert_eq!(verdict(500.0, 540.0, Lower, 0.08, 0.0), Verdict::Ok);
        assert_eq!(verdict(500.0, 541.0, Lower, 0.08, 0.0), Verdict::Regressed);
        assert_eq!(
            verdict(500.0, 300.0, Lower, 0.08, 0.5),
            Verdict::Ok,
            "better is ok however noisy"
        );
        // A noisy run cannot convict, nor acquit a worse reading.
        assert_eq!(
            verdict(100.0, 66.0, Higher, 0.08, 0.30),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(100.0, 97.0, Higher, 0.08, 0.30),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_reads_bounds_and_results() {
        let bench = JsonValue::parse(
            r#"{"end_to_end": [{"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .unwrap();
        let results = |v: f64, spread: f64| {
            JsonValue::parse(&format!(
                r#"{{"workloads": [{{"name": "mem-write", "end_to_end": {{"ops_per_s": {{"value": {v}, "spread": {spread}}}}}}}]}}"#
            ))
            .unwrap()
        };
        let (table, regressed) = compare(
            &bench,
            &results(400.0, 0.02),
            &results(300.0, 0.02),
            &["mem-write", "tcp-pipe"],
        )
        .unwrap();
        assert!(regressed && table.contains("regressed") && table.contains("0.7500"));
        assert_eq!(table.lines().count(), 2, "absent workloads print no row");
        let (table, regressed) = compare(
            &bench,
            &results(400.0, 0.02),
            &results(300.0, 0.2),
            &["mem-write"],
        )
        .unwrap();
        assert!(!regressed && table.contains("unresolved"));
        assert!(compare(&JsonValue::Null, &bench, &bench, &[]).is_err());
    }
}
