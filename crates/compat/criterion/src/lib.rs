//! Offline stand-in for the `criterion` crate.
//!
//! Implements the API subset the workspace's benches use — `Criterion`,
//! benchmark groups, `BenchmarkId`, `Bencher::iter`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros — as a plain wall-clock
//! harness. Each benchmark runs a short warmup, then `sample_size` timed
//! samples, and prints min/mean per-iteration times. No statistics engine,
//! no HTML reports; the point is that `cargo bench` compiles, runs, and
//! yields comparable numbers in this offline environment.
//!
//! Two environment variables serve CI:
//!
//! * `CRITERION_SAMPLE_SIZE` — overrides every benchmark's sample count
//!   (the "`--quick`" knob for smoke jobs);
//! * `CRITERION_OUTPUT_JSON` — path to which `criterion_main!` writes all
//!   collected results as JSON after the groups finish, so pipelines can
//!   archive a machine-readable perf artifact per commit.

#![forbid(unsafe_code)]

use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// One finished benchmark, as recorded for the JSON artifact.
struct Record {
    name: String,
    min_ns: u128,
    mean_ns: u128,
    samples: usize,
}

fn results() -> &'static Mutex<Vec<Record>> {
    static RESULTS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RESULTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// The `CRITERION_SAMPLE_SIZE` override, if set and parseable.
fn sample_size_override() -> Option<usize> {
    std::env::var("CRITERION_SAMPLE_SIZE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Writes every recorded result to `CRITERION_OUTPUT_JSON` (no-op when the
/// variable is unset). Called by `criterion_main!` after all groups run.
pub fn write_json_report() {
    let Ok(path) = std::env::var("CRITERION_OUTPUT_JSON") else {
        return;
    };
    let records = results().lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"min_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}{comma}\n",
            json_escape(&r.name),
            r.min_ns,
            r.mean_ns,
            r.samples
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write(&path, out) {
        Ok(()) => println!("wrote {} benchmark records to {path}", records.len()),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

/// Re-export of the compiler fence against optimizing away benched values.
pub use std::hint::black_box;

/// Top-level benchmark driver.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark (builder form, used by
    /// `criterion_group!`'s `config = ...`).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs a single named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, self.sample_size, &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named collection of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples for benchmarks in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n > 0, "sample_size must be positive");
        self.sample_size = n;
        self
    }

    /// Runs one benchmark parameterized by `input`.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.label);
        run_one(&label, self.sample_size, &mut |b| f(b, input));
        self
    }

    /// Closes the group.
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// An id made of a function name and a parameter value.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{param}"),
        }
    }

    /// An id made of a parameter value alone.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            label: param.to_string(),
        }
    }
}

/// Timing handle passed to benchmark closures.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Times `sample_size` executions of `routine` (after one warmup call).
    pub fn iter<R, F>(&mut self, mut routine: F)
    where
        F: FnMut() -> R,
    {
        black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
        }
    }
}

fn run_one(label: &str, sample_size: usize, f: &mut dyn FnMut(&mut Bencher)) {
    let sample_size = sample_size_override().unwrap_or(sample_size);
    let mut b = Bencher {
        samples: Vec::with_capacity(sample_size),
        sample_size,
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{label:<40} (no samples — closure never called iter)");
        return;
    }
    let min = b.samples.iter().min().expect("nonempty");
    let total: Duration = b.samples.iter().sum();
    let mean = total / b.samples.len() as u32;
    println!(
        "{label:<40} min {:>12}  mean {:>12}  ({} samples)",
        format_ns(*min),
        format_ns(mean),
        b.samples.len()
    );
    results()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Record {
            name: label.to_string(),
            min_ns: min.as_nanos(),
            mean_ns: mean.as_nanos(),
            samples: b.samples.len(),
        });
}

fn format_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Declares a group function that runs the listed benchmarks.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg;
            $( $target(&mut criterion); )+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench binary (requires `harness = false`). After
/// all groups finish, results are written to `CRITERION_OUTPUT_JSON` if the
/// variable is set.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::write_json_report();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench(c: &mut Criterion) {
        c.bench_function("tiny/sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        let mut group = c.benchmark_group("tiny/group");
        group.sample_size(3);
        for n in [4u64, 8] {
            group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
                b.iter(|| (0..n).product::<u64>())
            });
        }
        group.finish();
    }

    #[test]
    fn harness_runs_to_completion() {
        let mut c = Criterion::default().sample_size(2);
        tiny_bench(&mut c);
    }

    #[test]
    fn json_report_round_trips() {
        let path = std::env::temp_dir().join("criterion_compat_report_test.json");
        std::env::set_var("CRITERION_OUTPUT_JSON", &path);
        let mut c = Criterion::default().sample_size(2);
        c.bench_function("json/roundtrip", |b| b.iter(|| black_box(1 + 1)));
        write_json_report();
        std::env::remove_var("CRITERION_OUTPUT_JSON");
        let body = std::fs::read_to_string(&path).expect("report written");
        std::fs::remove_file(&path).ok();
        assert!(body.contains("\"benchmarks\""));
        assert!(body.contains("\"name\": \"json/roundtrip\""));
        assert!(body.contains("\"mean_ns\""));
    }
}
