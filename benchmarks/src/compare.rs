//! `qperf compare A.json B.json`: B against A, row by row. Each end-to-end
//! metric may worsen by its bound from `BENCHMARK.json`; `failed` and the
//! program-determined counts must be identical.

use crate::contract::Contract;
use crate::json::Json;

/// The counts a program fixes by itself, whatever its measurements return.
/// The others (`gates`, `command_rounds`, `exchange_rounds`, `wire_bytes`,
/// `coalesced_flushes`) are not exact per seed: teleport/uncopy fix-ups
/// apply a Pauli gate — and on the socket engine pay its rounds and bytes —
/// only when a measurement returned 1, and concurrent ranks draw their
/// outcomes from the engine's one seeded generator in a racing order.
const EXACT_COUNTS: [&str; 5] = [
    "counts.measurements_per_iter",
    "counts.classical_bits_per_iter",
    "counts.epr_pairs_per_iter",
    "counts.epr_rounds_per_iter",
    "counts.s_peak",
];

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// How much worse B is, as a share of A (negative: better). `None`
    /// for rows that must match exactly.
    pub worse_by: Option<f64>,
    pub bound: f64,
    pub breach: bool,
}

fn value(doc: &Json, workload: &str, group: &str, metric: &str) -> Option<f64> {
    doc.get("workloads")?
        .get(workload)?
        .get(group)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// One row per (metric, workload) pairing present in both documents.
pub fn compare(a: &Json, b: &Json, contract: &Contract) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        for m in &contract.end_to_end {
            let (Some(va), Some(vb)) = (
                value(a, workload, "end_to_end", &m.name),
                value(b, workload, "end_to_end", &m.name),
            ) else {
                continue;
            };
            let delta = if m.lower_is_better { vb - va } else { va - vb };
            let worse_by = delta / va.abs();
            rows.push(Row {
                workload: workload.clone(),
                metric: m.name.clone(),
                a: va,
                b: vb,
                worse_by: Some(worse_by),
                bound: m.bound,
                breach: worse_by > m.bound,
            });
        }
        let exact = |group: &str, metric: &str| {
            let (va, vb) = (
                value(a, workload, group, metric)?,
                value(b, workload, group, metric)?,
            );
            Some(Row {
                workload: workload.clone(),
                metric: metric.to_string(),
                a: va,
                b: vb,
                worse_by: None,
                bound: 0.0,
                breach: va != vb,
            })
        };
        rows.extend(exact("checks", "failed"));
        rows.extend(EXACT_COUNTS.iter().filter_map(|n| exact("per_layer", n)));
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<22} {:<34} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for r in rows {
        let (change, bound) = match r.worse_by {
            Some(w) => (
                format!("{:+.2}%", w * 100.0),
                format!("{:.0}%", r.bound * 100.0),
            ),
            None => ("-".into(), "exact".into()),
        };
        println!(
            "{:<22} {:<34} {:>14.6} {:>14.6} {:>9} {:>7}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            bound,
            if r.breach { "BREACH" } else { "ok" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contract() -> Contract {
        Contract::parse(
            r#"{"run_seconds": 1,
                "workloads": [{"name": "w", "why": ""}],
                "end_to_end": [
                  {"name": "iter_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
                  {"name": "units_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}],
                "per_layer": [{"name": "counts.epr_pairs_per_iter", "unit": "count", "better": "lower"},
                              {"name": "trace.sync_share", "unit": "ratio", "better": "lower"}]}"#,
        )
        .unwrap()
    }

    fn doc(p50: f64, rate: f64, gates: f64, failed: f64) -> Json {
        let v = |x: f64| Json::obj().with("value", x);
        Json::obj().with(
            "workloads",
            Json::obj().with(
                "w",
                Json::obj()
                    .with(
                        "end_to_end",
                        Json::obj()
                            .with("iter_ms_p50", v(p50))
                            .with("units_per_s", v(rate)),
                    )
                    .with(
                        "per_layer",
                        Json::obj().with("counts.epr_pairs_per_iter", v(gates)),
                    )
                    .with("checks", Json::obj().with("failed", v(failed))),
            ),
        )
    }

    fn breaches(a: &Json, b: &Json) -> Vec<String> {
        compare(a, b, &contract())
            .into_iter()
            .filter(|r| r.breach)
            .map(|r| r.metric)
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let base = doc(10.0, 100.0, 32.0, 0.0);
        assert_eq!(compare(&base, &base, &contract()).len(), 4);
        assert!(breaches(&base, &base).is_empty());
        // Within the bound either way; better is never a breach.
        assert!(breaches(&base, &doc(10.9, 91.0, 32.0, 0.0)).is_empty());
        assert!(breaches(&base, &doc(5.0, 300.0, 32.0, 0.0)).is_empty());
        // Past the bound, in each metric's own direction.
        assert_eq!(
            breaches(&base, &doc(11.1, 100.0, 32.0, 0.0)),
            ["iter_ms_p50"]
        );
        assert_eq!(
            breaches(&base, &doc(10.0, 89.0, 32.0, 0.0)),
            ["units_per_s"]
        );
        // Counts and failures must match exactly.
        assert_eq!(
            breaches(&base, &doc(10.0, 100.0, 33.0, 0.0)),
            ["counts.epr_pairs_per_iter"]
        );
        assert_eq!(breaches(&base, &doc(10.0, 100.0, 32.0, 1.0)), ["failed"]);
    }
}
