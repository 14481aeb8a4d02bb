//! Spans recorded by the benchmark's own code around each call into the
//! library. Kept in memory; written out when the run ends.

use crate::json::Json;
use std::sync::OnceLock;
use std::time::Instant;

/// What a span's time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// One iteration (or one rank's world body); its self time is whatever
    /// no call below it covers.
    Root,
    /// Gate calls (record into the rank's pending batch).
    GateRecord,
    /// `flush` and `barrier`.
    Sync,
    /// Point-to-point, EPR and collective calls.
    Comm,
    /// alloc / free / `measure_and_free`.
    Structural,
    /// Expectations and probabilities.
    Read,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Root,
        Class::GateRecord,
        Class::Sync,
        Class::Comm,
        Class::Structural,
        Class::Read,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Root => "root",
            Class::GateRecord => "gate_record",
            Class::Sync => "sync",
            Class::Comm => "comm",
            Class::Structural => "structural",
            Class::Read => "read",
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub class: Class,
    pub rank: u32,
    /// Iteration the span belongs to: spans of one iteration share it.
    pub iter: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the process-wide trace epoch, so spans recorded on
/// different threads share one clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One thread's span list with a stack of open spans.
#[derive(Debug, Default)]
pub struct SpanLog {
    rank: u32,
    iter: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new(rank: usize) -> SpanLog {
        SpanLog {
            rank: rank as u32,
            ..SpanLog::default()
        }
    }

    pub fn set_iter(&mut self, iter: u32) {
        self.iter = iter;
    }

    /// Whether a span (an iteration's root, at the bottom) is open.
    pub fn in_iteration(&self) -> bool {
        !self.open.is_empty()
    }

    pub fn open(&mut self, name: &'static str, class: Class) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            class,
            rank: self.rank,
            iter: self.iter,
            start_ns: now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end_ns = now_ns();
    }

    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Appends `more` to `all`, shifting parent indices; top-level spans of
/// `more` become children of `adopt` when given.
pub fn append(all: &mut Vec<Span>, more: Vec<Span>, adopt: Option<u32>) {
    let base = all.len() as u32;
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base).or(adopt);
        s
    }));
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of `rank`'s traced time each class's self time makes up, in
/// [`Class::ALL`] order. The denominator is the summed duration of the
/// rank's top-level spans, so the shares add to one.
pub fn class_shares(spans: &[Span], rank: u32) -> [f64; 6] {
    let own = self_times(spans);
    let mut by_class = [0u64; 6];
    let mut total = 0u64;
    for (s, own_ns) in spans.iter().zip(own) {
        if s.rank != rank {
            continue;
        }
        let slot = Class::ALL
            .iter()
            .position(|c| *c == s.class)
            .expect("class listed");
        by_class[slot] += own_ns;
        if s.parent.is_none() {
            total += s.duration_ns();
        }
    }
    by_class.map(|ns| {
        if total == 0 {
            0.0
        } else {
            ns as f64 / total as f64
        }
    })
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj()
                    .with("name", s.name)
                    .with("class", s.class.name())
                    .with("rank", u64::from(s.rank))
                    .with("iter", u64::from(s.iter))
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| u64::from(p).into()),
                    )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(class: Class, rank: u32, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "t",
            class,
            rank,
            iter: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root [0,100] ─ comm [10,50] ─ sync [20,30]
        //              └ gate [60,70]
        // plus a second rank's root that must not leak into rank 0.
        let tree = vec![
            span(Class::Root, 0, 0, 100, None),
            span(Class::Comm, 0, 10, 50, Some(0)),
            span(Class::Sync, 0, 20, 30, Some(1)),
            span(Class::GateRecord, 0, 60, 70, Some(0)),
            span(Class::Root, 1, 0, 400, None),
        ];
        assert_eq!(self_times(&tree), vec![50, 30, 10, 10, 400]);
        let shares = class_shares(&tree, 0);
        assert_eq!(shares, [0.5, 0.1, 0.1, 0.3, 0.0, 0.0]);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn append_shifts_parents_and_adopts_top_level_spans() {
        let mut all = vec![span(Class::Root, 0, 0, 100, None)];
        let more = vec![
            span(Class::Root, 0, 5, 95, None),
            span(Class::Comm, 0, 10, 20, Some(0)),
        ];
        append(&mut all, more, Some(0));
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!(self_times(&all), vec![10, 80, 10]);
    }

    #[test]
    fn log_nests_by_open_order() {
        let mut log = SpanLog::new(3);
        let root = log.open("iter", Class::Root);
        let inner = log.open("cnot", Class::GateRecord);
        log.close(inner);
        log.close(root);
        let spans = log.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans.iter().all(|s| s.rank == 3 && s.end_ns >= s.start_ns));
    }
}
