//! Process environment: knob scrub, machine facts, peak memory.

use crate::json::Json;

/// Removes every `QMPI_*` / `QSERVE_*` variable so no ambient knob (batch
/// budgets, fusion, coalescing, watchdog, worker path, transport) reaches
/// the library; the harness passes what it wants explicitly. Returns the
/// names removed. Must run before any other thread exists.
pub fn scrub_knobs() -> Vec<String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("QMPI_") || k.starts_with("QSERVE_"))
        .collect();
    for k in &knobs {
        std::env::remove_var(k);
    }
    knobs
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

/// Facts about the machine and toolchain, recorded with every run.
/// `QPERF_RUSTC` / `QPERF_GIT_COMMIT` / `MALLOC_ARENA_MAX` are set by `run.sh`.
pub fn machine_facts() -> Json {
    let mut caches = Json::obj();
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let (Some(level), Some(kind), Some(size)) = (
            read_trimmed(&format!("{dir}/level")),
            read_trimmed(&format!("{dir}/type")),
            read_trimmed(&format!("{dir}/size")),
        ) else {
            continue;
        };
        caches.set(&format!("L{level}-{kind}"), size);
    }
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unknown".into());
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("caches_cpu0", caches)
        .with("malloc_arena_max", var("MALLOC_ARENA_MAX"))
        .with("rustc", var("QPERF_RUSTC"))
        .with("git_commit", var("QPERF_GIT_COMMIT"))
}

/// High-water mark of this process's resident set (`VmHWM`), in MiB.
/// Controller side only: `qworker` children are separate processes and
/// are not included.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrub_removes_only_library_knobs() {
        std::env::set_var("QMPI_FUSE", "off");
        std::env::set_var("QSERVE_TRANSPORT", "unix-socket");
        std::env::set_var("QPERF_TEST_KEEP", "1");
        let removed = scrub_knobs();
        assert!(removed.iter().any(|k| k == "QMPI_FUSE"));
        assert!(removed.iter().any(|k| k == "QSERVE_TRANSPORT"));
        assert!(std::env::var_os("QMPI_FUSE").is_none());
        assert!(std::env::var_os("QSERVE_TRANSPORT").is_none());
        assert!(std::env::var_os("QPERF_TEST_KEEP").is_some());
        assert!(peak_rss_mib() > 0.0);
    }
}
