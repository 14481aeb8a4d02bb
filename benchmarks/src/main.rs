//! `qperf`: the repository's end-to-end + per-layer benchmark.
//!
//! * `qperf run --workload W --seed N --seconds S --trace 0|1` — one
//!   workload in this process; the last stdout line is the result object
//!   the benchmark contract defines (what `BENCHMARK.json`'s command runs).
//! * `qperf suite [--seed N] [--workload W|all] [--traced] [--smoke]` —
//!   every workload in a process of its own, plus the layer probes; prints
//!   every metric and writes one JSON document under `benchmarks/out/`.
//! * `qperf layers [--probe-samples P]` — the layer probes alone.
//! * `qperf compare A.json B.json` — B against A under the contract's
//!   bounds.

mod compare;
mod contract;
mod env;
mod json;
mod layers;
mod ops;
mod report;
mod rng;
mod span;
mod stats;
mod suite;
mod workloads;

use json::Json;
use layers::Metrics;
use std::process::ExitCode;
use workloads::RunOpts;

/// `--key value` pairs and bare `--flags` after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("{key}: cannot parse '{v}'")))
            .transpose()
    }

    pub fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn usage() -> String {
    "usage: qperf run --workload W --seed N --seconds S --trace 0|1 [--iters K] [--probe-samples P] [--doc FILE]\n       \
     qperf suite [--seed N] [--workload W|all] [--traced] [--smoke] [--seconds S]\n       \
     qperf layers [--seed N] [--probe-samples P] [--doc FILE]\n       \
     qperf compare A.json B.json"
        .to_string()
}

fn write_doc(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

/// One workload, in this process. Returns the process exit code.
fn run(args: &Args) -> Result<u8, String> {
    let name = args.value("--workload").ok_or_else(usage)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(10.0);
    let iters: Option<usize> = args.parsed("--iters")?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
    };
    let probe_samples: usize = args
        .parsed("--probe-samples")?
        .unwrap_or(layers::DEFAULT_SAMPLES);
    let unknown = || {
        format!(
            "unknown workload '{name}' (one of {:?})",
            workloads::WORKLOADS
        )
    };

    let mut doc = Json::obj()
        .with("workload", name)
        .with("seed", seed)
        .with("trace", trace);
    let (attempted, failed, line_metrics, code);
    if !trace {
        let m = workloads::run(
            name,
            &RunOpts {
                seed,
                seconds,
                iters,
                traced: false,
                // A fixed-count run (the smoke test) sets up once.
                repeat_setup: iters.is_none(),
            },
        )
        .ok_or_else(unknown)?;
        let e2e = report::end_to_end(&m);
        let mut counts = report::tail(&m);
        counts.0.extend(report::counts(&m).0);
        report::print(name, &m, &e2e);
        report::print_metrics(&counts);
        (attempted, failed, code) = (m.attempted, m.failed, m.exit_code());
        doc.set("samples", m.samples_ms.len())
            .set(
                "samples_ms",
                m.samples_ms
                    .iter()
                    .map(|&s| Json::Num(s))
                    .collect::<Vec<_>>(),
            )
            .set("end_to_end", report::metrics_json(&e2e))
            .set("per_layer", report::metrics_json(&counts))
            .set("config", m.config);
        line_metrics = e2e;
    } else {
        // A quarter of the time box untraced (the overhead reference and
        // the counts), a quarter traced; set-up once each.
        let slice = |traced| RunOpts {
            seed,
            seconds: seconds / 4.0,
            iters,
            traced,
            repeat_setup: false,
        };
        let plain = workloads::run(name, &slice(false)).ok_or_else(unknown)?;
        let traced = workloads::run(name, &slice(true)).ok_or_else(unknown)?;
        let mut per_layer = report::tail(&plain);
        per_layer.0.extend(report::counts(&plain).0);
        per_layer.0.extend(report::trace(&traced, &plain).0);
        report::print(&format!("{name} (traced)"), &traced, &per_layer);
        let trace_path = suite::write_trace(name, &traced.spans)?;
        println!("spans: {trace_path}");
        if probe_samples > 0 {
            let probes = layers::probe_all(probe_samples, seed);
            report::print_metrics(&probes);
            per_layer.0.extend(probes.0);
        }
        attempted = plain.attempted + traced.attempted;
        failed = plain.failed + traced.failed;
        code = plain.exit_code().max(traced.exit_code());
        doc.set("samples", traced.samples_ms.len())
            .set("per_layer", report::metrics_json(&per_layer))
            .set("config", traced.config);
        line_metrics = per_layer;
    }
    doc.set(
        "checks",
        Json::obj()
            .with("attempted", Json::obj().with("value", attempted))
            .with("failed", Json::obj().with("value", failed)),
    );
    if let Some(path) = args.value("--doc") {
        write_doc(path, &doc)?;
    }
    println!("{}", report::result_line(attempted, failed, &line_metrics));
    Ok(code)
}

fn layers_only(args: &Args) -> Result<u8, String> {
    let samples = args
        .parsed("--probe-samples")?
        .unwrap_or(layers::DEFAULT_SAMPLES);
    let probes: Metrics = layers::probe_all(samples, args.parsed("--seed")?.unwrap_or(1));
    report::print_metrics(&probes);
    if let Some(path) = args.value("--doc") {
        write_doc(path, &report::metrics_json(&probes))?;
    }
    Ok(0)
}

fn compare_docs(paths: &[String]) -> Result<u8, String> {
    let [a, b] = paths else {
        return Err(usage());
    };
    let load = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let rows = compare::compare(&load(a)?, &load(b)?, &contract::Contract::load()?);
    compare::print(&rows);
    if rows.is_empty() {
        return Err("the two documents share no (metric, workload) pairing".into());
    }
    let breaches = rows.iter().filter(|r| r.breach).count();
    println!("{} rows, {breaches} breach(es)", rows.len());
    Ok(u8::from(breaches > 0))
}

fn main() -> ExitCode {
    // Before any thread exists: no ambient library knob survives.
    let scrubbed = env::scrub_knobs();
    if !scrubbed.is_empty() {
        eprintln!("qperf: ignoring environment knobs {scrubbed:?}");
    }
    let mut argv = std::env::args().skip(1);
    let command = argv.next().unwrap_or_default();
    let args = Args(argv.collect());
    let outcome = match command.as_str() {
        "run" => run(&args),
        "suite" => suite::suite(&args),
        "layers" => layers_only(&args),
        "compare" => compare_docs(&args.0),
        _ => Err(usage()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("qperf: {message}");
            ExitCode::from(2)
        }
    }
}
