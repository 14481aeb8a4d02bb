//! Layer probes: each file times one module of the stack from outside,
//! through public functions only, and reports the median of its samples.
//! Single-threaded unless the metric's layer is inherently two-sided.

pub mod backend;
pub mod codec;
pub mod context;
pub mod mailbox;
pub mod optimizer;
pub mod protocols;
pub mod qserve;
pub mod sendq;
pub mod sim;
pub mod stripe;
pub mod transport;

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Samples a layer probe takes by default.
pub const DEFAULT_SAMPLES: usize = 200;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Where probes put their results.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// Wall time in nanoseconds of `samples` calls of `f`, after a tenth as
/// many (at least two) untimed calls.
pub fn time_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> Vec<f64> {
    time_ns_with(samples, &mut (), |_| (), |_| f())
}

/// Like [`time_ns`] with an untimed `prep` before every call; both see
/// the same `state`.
pub fn time_ns_with<S, R>(
    samples: usize,
    state: &mut S,
    mut prep: impl FnMut(&mut S),
    mut f: impl FnMut(&mut S) -> R,
) -> Vec<f64> {
    let warmup = (samples / 10).max(2);
    let mut out = Vec::with_capacity(samples);
    for i in 0..warmup + samples {
        prep(state);
        let t0 = Instant::now();
        black_box(f(black_box(state)));
        let ns = t0.elapsed().as_nanos() as f64;
        if i >= warmup {
            out.push(ns);
        }
    }
    out
}

pub fn median_ns<R>(samples: usize, f: impl FnMut() -> R) -> f64 {
    median(&time_ns(samples, f))
}

/// Runs every probe.
pub fn probe_all(samples: usize, seed: u64) -> Metrics {
    let mut m = Metrics::default();
    stripe::probe(samples, &mut m);
    sim::probe(samples, &mut m);
    optimizer::probe(samples, &mut m);
    codec::probe(samples, &mut m);
    transport::probe(samples, &mut m);
    mailbox::probe(samples, &mut m);
    backend::probe(samples, &mut m);
    context::probe(samples, &mut m);
    protocols::probe(samples, &mut m);
    qserve::probe(samples, seed, &mut m);
    sendq::probe(samples, &mut m);
    m
}
