//! `qperf suite`: every workload in a process of its own (so peak memory
//! is per workload), the layer probes once, one merged JSON document.

use crate::contract::{name_mismatch, out_dir, Contract};
use crate::json::Json;
use crate::span::{self, Span};
use crate::{layers, Args};
use std::process::Command;

/// Iterations of a trace file's head that are written out. Aggregates
/// (the `trace.*` shares) always cover every recorded iteration; the file
/// is a readable sample, not tens of megabytes.
const TRACE_FILE_ITERS: u32 = 32;

/// Writes `benchmarks/out/trace-<workload>.json`; returns its path.
pub fn write_trace(workload: &str, spans: &[Span]) -> Result<String, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.json"));
    // Parents precede their children in the list, so one pass can renumber.
    let mut new_index: Vec<Option<u32>> = vec![None; spans.len()];
    let mut head: Vec<Span> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.iter < TRACE_FILE_ITERS {
            new_index[i] = Some(head.len() as u32);
            head.push(Span {
                parent: s.parent.and_then(|p| new_index[p as usize]),
                ..s.clone()
            });
        }
    }
    let iterations = spans.iter().map(|s| s.iter + 1).max().unwrap_or(0);
    let doc = Json::obj()
        .with("workload", workload)
        .with("iterations_recorded", u64::from(iterations))
        .with(
            "iterations_written",
            u64::from(iterations.min(TRACE_FILE_ITERS)),
        )
        .with("spans", span::to_json(&head));
    std::fs::write(&path, doc.render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Runs `qperf <args>` as a child, echoes its output, and returns whether
/// it succeeded plus its last stdout line.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child qperf: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default().to_string();
    Ok((out.status.success(), last))
}

fn read_doc(path: &std::path::Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Metric names of a child's result line.
fn line_names(line: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(line).map_err(|e| format!("result line: {e}"))?;
    Ok(doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line without metrics")?
        .iter()
        .map(|(k, _)| k.clone())
        .collect())
}

fn merged(a: Option<&Json>, b: Option<&Json>) -> Json {
    let mut out = Json::obj();
    for (k, v) in [a, b]
        .into_iter()
        .flatten()
        .filter_map(Json::as_object)
        .flatten()
    {
        if out.get(k).is_none() {
            out.set(k, v.clone());
        }
    }
    out
}

pub fn suite(args: &Args) -> Result<u8, String> {
    let contract = Contract::load()?;
    let smoke = args.flag("--smoke");
    let traced = smoke || args.flag("--traced");
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(contract.run_seconds);
    let probe_samples = if smoke { 10 } else { layers::DEFAULT_SAMPLES };
    let selected: Vec<&String> = match args.value("--workload") {
        None | Some("all") => contract.workloads.iter().collect(),
        Some(one) => vec![contract
            .workloads
            .iter()
            .find(|w| *w == one)
            .ok_or_else(|| {
                format!("unknown workload '{one}' (one of {:?})", contract.workloads)
            })?],
    };
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;

    let expected_e2e: Vec<String> = contract.end_to_end.iter().map(|b| b.name.clone()).collect();
    let mut problems: Vec<String> = Vec::new();
    let mut workloads = Json::obj();
    let mut traced_names: Vec<String> = Vec::new();
    for name in selected {
        let mut parts = Vec::new();
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let part = out.join(format!("part-{name}-{}.json", u8::from(trace)));
            let mut argv: Vec<String> = [
                "run",
                "--workload",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
                // The probes run once, below, not once per workload.
                "--probe-samples",
                "0",
                "--doc",
                &part.display().to_string(),
            ]
            .map(String::from)
            .to_vec();
            if smoke {
                argv.extend(["--iters".to_string(), "12".to_string()]);
            }
            let (ok, line) = child(&argv)?;
            if !ok {
                problems.push(format!("{name} (trace {}) failed", u8::from(trace)));
                continue;
            }
            let names = line_names(&line)?;
            if trace {
                traced_names = names;
            } else if let Some(diff) = name_mismatch(&names, &expected_e2e) {
                problems.push(format!("{name}: end-to-end names: {diff}"));
            }
            parts.push(read_doc(&part)?);
            let _ = std::fs::remove_file(&part);
        }
        let Some(first) = parts.first() else {
            continue;
        };
        let mut entry = Json::obj();
        for key in ["samples", "checks", "end_to_end", "config"] {
            if let Some(v) = first.get(key) {
                entry.set(key, v.clone());
            }
        }
        entry.set(
            "per_layer",
            merged(
                first.get("per_layer"),
                parts.get(1).and_then(|p| p.get("per_layer")),
            ),
        );
        workloads.set(name, entry);
    }

    let layers_part = out.join("part-layers.json");
    let (ok, _) = child(
        &[
            "layers",
            "--seed",
            &seed.to_string(),
            "--probe-samples",
            &probe_samples.to_string(),
            "--doc",
            &layers_part.display().to_string(),
        ]
        .map(String::from),
    )?;
    let layer_doc = if ok {
        let doc = read_doc(&layers_part)?;
        let _ = std::fs::remove_file(&layers_part);
        doc
    } else {
        problems.push("the layer probes failed".into());
        Json::obj()
    };
    if traced && !traced_names.is_empty() {
        let probe_names = layer_doc
            .as_object()
            .into_iter()
            .flatten()
            .map(|(k, _)| k.clone());
        let emitted: Vec<String> = traced_names.into_iter().chain(probe_names).collect();
        if let Some(diff) = name_mismatch(&emitted, &contract.per_layer) {
            problems.push(format!("per-layer names: {diff}"));
        }
    }

    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let doc = Json::obj()
        .with("seed", seed)
        .with("run_seconds", seconds)
        .with("smoke", smoke)
        .with("traced", traced)
        .with("machine", crate::env::machine_facts())
        .with("workloads", workloads)
        .with("layers", layer_doc);
    let path = out.join(format!(
        "{}-seed{seed}-{stamp}.json",
        if smoke { "smoke" } else { "run" }
    ));
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("document: {}", path.display());
    for p in &problems {
        eprintln!("qperf: {p}");
    }
    Ok(u8::from(!problems.is_empty()))
}
