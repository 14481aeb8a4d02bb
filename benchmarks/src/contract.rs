//! `BENCHMARK.json` as the harness reads it: the metric names a run must
//! emit and the bound each end-to-end metric may worsen by.

use crate::json::Json;
use std::path::PathBuf;

#[derive(Clone, Debug, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Contract {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Bounded>,
    pub per_layer: Vec<String>,
}

/// The benchmark's own directory (`benchmarks/`), fixed at build time.
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

impl Contract {
    pub fn load() -> Result<Contract, String> {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Contract::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Contract, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: no list '{key}'"))
        };
        let name = |item: &Json| {
            item.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "BENCHMARK.json: entry without a name".to_string())
        };
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .map(name)
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(|item| {
                    Ok(Bounded {
                        name: name(item)?,
                        lower_is_better: item.get("better").and_then(Json::as_str) == Some("lower"),
                        bound: item
                            .get("bound")
                            .and_then(Json::as_f64)
                            .ok_or("BENCHMARK.json: end_to_end entry without a bound")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(name)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Names in `emitted` but not `expected`, and the reverse.
pub fn name_mismatch(emitted: &[String], expected: &[String]) -> Option<String> {
    let extra: Vec<_> = emitted.iter().filter(|n| !expected.contains(n)).collect();
    let missing: Vec<_> = expected.iter().filter(|n| !emitted.contains(n)).collect();
    (!extra.is_empty() || !missing.is_empty())
        .then(|| format!("not in BENCHMARK.json: {extra:?}; not emitted: {missing:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_committed_contract_lists_what_the_harness_emits() {
        let c = Contract::load().expect("BENCHMARK.json parses");
        assert_eq!(c.workloads, crate::workloads::WORKLOADS);
        let names: Vec<&str> = c.end_to_end.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup_s", "iter_ms_p50", "units_per_s", "peak_rss_mib"]
        );
        assert!(c
            .end_to_end
            .iter()
            .all(|b| b.bound > 0.0 && b.bound <= 0.25));
        assert!(c.per_layer.len() <= 128);
        assert!(name_mismatch(&c.per_layer, &c.per_layer).is_none());
        let short = &c.per_layer[1..];
        assert!(name_mismatch(short, &c.per_layer).is_some());
    }
}
