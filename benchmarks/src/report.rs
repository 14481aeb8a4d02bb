//! From a [`Measured`] to named metrics, and the contract's result line.

use crate::json::Json;
use crate::layers::{Metric, Metrics};
use crate::span::{self, Class};
use crate::stats::{has_ten_beyond, median, percentile};
use crate::workloads::Measured;

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    out.push("setup_s", median(&m.setup_s), "s");
    out.push("iter_ms_p50", percentile(&m.samples_ms, 50.0), "ms");
    out.push("units_per_s", units_per_s(m), "1/s");
    out.push("peak_rss_mib", crate::env::peak_rss_mib(), "MiB");
    out
}

/// Work units per second: the samples are cut into twelve consecutive
/// slices, each slice's rate is mean-based (units ÷ summed time, so a stall
/// that recurs every few iterations — a checkpoint, a window ageing out —
/// slows every slice and shows), and the median slice is reported (so a
/// stall of the machine that swallows one or two slices does not).
pub fn units_per_s(m: &Measured) -> f64 {
    let n = m.samples_ms.len();
    let per_iter = m.units as f64 / n as f64;
    let slice = (n / 12).max(1);
    let rates: Vec<f64> = m
        .samples_ms
        .chunks_exact(slice)
        .map(|s| per_iter * slice as f64 / (s.iter().sum::<f64>() * 1e-3))
        .collect();
    median(&rates) * m.streams.max(1) as f64
}

/// The tail percentile: a number a user also sees, but an extreme value
/// that does not repeat within a bound on a small shared machine, so it is
/// reported without one, beside the layers.
pub fn tail(m: &Measured) -> Metrics {
    let mut out = Metrics::default();
    out.push("iter_ms_p90", percentile(&m.samples_ms, 90.0), "ms");
    out
}

/// The paper's cost units per timed iteration (exact per seed).
pub fn counts(m: &Measured) -> Metrics {
    let iters = m.samples_ms.len().max(1) as f64;
    let t = &m.totals;
    let mut out = Metrics::default();
    for (name, total) in [
        ("gates", t.gates),
        ("measurements", t.measurements),
        ("classical_bits", t.classical_bits),
        ("epr_pairs", t.epr_pairs),
        ("epr_rounds", t.epr_rounds),
        ("command_rounds", t.command_rounds),
        ("exchange_rounds", t.exchange_rounds),
        ("wire_bytes", t.wire_bytes),
        ("coalesced_flushes", t.coalesced_flushes),
    ] {
        out.push(
            format!("counts.{name}_per_iter"),
            total as f64 / iters,
            "count",
        );
    }
    out.push("counts.s_peak", m.s_peak as f64, "count");
    out
}

/// Where rank 0's (client 0's) traced time went, and what tracing cost.
pub fn trace(traced: &Measured, untraced: &Measured) -> Metrics {
    let shares = span::class_shares(&traced.spans, 0);
    let mut out = Metrics::default();
    for (class, share) in Class::ALL.iter().zip(shares) {
        let name = match class {
            Class::Root => "trace.root_self_share".to_string(),
            c => format!("trace.{}_share", c.name()),
        };
        out.push(name, share, "ratio");
    }
    out.push(
        "trace.overhead_frac",
        percentile(&traced.samples_ms, 50.0) / percentile(&untraced.samples_ms, 50.0) - 1.0,
        "ratio",
    );
    out
}

/// `name = value unit` lines for people.
pub fn print(heading: &str, m: &Measured, metrics: &Metrics) {
    let n = m.samples_ms.len();
    println!(
        "== {heading}: {n} samples, {} attempted, {} failed",
        m.attempted, m.failed
    );
    if !has_ten_beyond(n, 90.0) {
        println!("   (fewer than ten samples beyond p90: read iter_ms_p90 as indicative only)");
    }
    print_metrics(metrics);
}

pub fn print_metrics(metrics: &Metrics) {
    for Metric { name, value, unit } in &metrics.0 {
        println!("{name} = {value} {unit}");
    }
}

pub fn metrics_json(metrics: &Metrics) -> Json {
    let mut obj = Json::obj();
    for Metric { name, value, unit } in &metrics.0 {
        obj.set(name, Json::obj().with("value", *value).with("unit", *unit));
    }
    obj
}

/// The one-line result the benchmark contract asks for.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Json::obj()
        .with("correct", failed == 0 && attempted > 0)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", metrics_json(metrics))
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::CountTotals;

    fn measured() -> Measured {
        Measured {
            setup_s: vec![0.5, 0.3, 0.4],
            samples_ms: (1..=100).map(f64::from).collect(),
            streams: 1,
            units: 300,
            attempted: 100,
            totals: CountTotals {
                gates: 1200,
                epr_pairs: 200,
                ..CountTotals::default()
            },
            s_peak: 2,
            ..Measured::default()
        }
    }

    #[test]
    fn end_to_end_metrics_follow_their_definitions() {
        let e = end_to_end(&measured());
        let get = |n: &str| e.0.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("setup_s"), 0.4);
        assert_eq!(get("iter_ms_p50"), 50.0);
        // Slices of 8 samples (1..=8, 9..=16, ...): 3 units per sample;
        // the median slice is the mean of the 6th and 7th.
        let slice_rate = |first: f64| 24.0 / ((8.0 * first + 28.0) * 1e-3);
        let want = (slice_rate(41.0) + slice_rate(49.0)) / 2.0;
        assert!((get("units_per_s") - want).abs() < 1e-9);
        assert!(get("peak_rss_mib") > 0.0);
        assert_eq!(tail(&measured()).0[0].value, 90.0);
        let c = counts(&measured());
        let get = |n: &str| c.0.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(get("counts.gates_per_iter"), 12.0);
        assert_eq!(get("counts.epr_pairs_per_iter"), 2.0);
        assert_eq!(get("counts.s_peak"), 2.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(10, 0, &end_to_end(&measured()));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let latency = doc.get("metrics").unwrap().get("iter_ms_p50").unwrap();
        assert_eq!(latency.get("unit").unwrap().as_str(), Some("ms"));
        let failed = Json::parse(&result_line(10, 1, &Metrics::default())).unwrap();
        assert_eq!(failed.get("correct"), Some(&Json::Bool(false)));
    }
}
