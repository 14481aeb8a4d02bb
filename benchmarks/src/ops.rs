//! The small surface of the paper's `QmpiRank` API the workload programs
//! are written against, with two implementations: [`Direct`] forwards
//! each call; [`Traced`] also records a span around it.
//!
//! Only the `QmpiRank` paper API appears here — no per-gate backend or
//! engine method — so the programs survive a collapse of those surfaces.

use crate::span::{Class, Span, SpanLog};
use qmpi::{Parity, QTag, QmpiError, QmpiRank, Qubit, ReduceHandle, Result};
use qsim::Pauli;
use std::cell::RefCell;

pub trait Ops {
    fn ctx(&self) -> &QmpiRank;

    /// Runs one library call, charged to `class`.
    fn call<R>(&self, class: Class, name: &'static str, f: impl FnOnce(&QmpiRank) -> R) -> R;

    /// Runs one iteration's body under a root span numbered `iter`.
    fn iteration<R>(&self, iter: u32, f: impl FnOnce() -> R) -> R;

    /// A failure of a flush the implementation issued itself (never set by
    /// [`Direct`]).
    fn take_fault(&self) -> Result<()> {
        Ok(())
    }

    fn rank(&self) -> usize {
        self.ctx().rank()
    }
    fn size(&self) -> usize {
        self.ctx().size()
    }

    // -- gates ------------------------------------------------------------
    fn h(&self, q: &Qubit) -> Result<()> {
        self.call(Class::GateRecord, "h", |c| c.h(q))
    }
    fn x(&self, q: &Qubit) -> Result<()> {
        self.call(Class::GateRecord, "x", |c| c.x(q))
    }
    fn rx(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.call(Class::GateRecord, "rx", |c| c.rx(q, theta))
    }
    fn ry(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.call(Class::GateRecord, "ry", |c| c.ry(q, theta))
    }
    fn rz(&self, q: &Qubit, theta: f64) -> Result<()> {
        self.call(Class::GateRecord, "rz", |c| c.rz(q, theta))
    }
    fn cnot(&self, control: &Qubit, target: &Qubit) -> Result<()> {
        self.call(Class::GateRecord, "cnot", |c| c.cnot(control, target))
    }

    // -- sync -------------------------------------------------------------
    fn flush(&self) -> Result<()> {
        self.call(Class::Sync, "flush", QmpiRank::flush)
    }
    fn barrier(&self) {
        self.call(Class::Sync, "barrier", QmpiRank::barrier)
    }

    // -- communication ----------------------------------------------------
    fn send(&self, q: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.call(Class::Comm, "send", |c| c.send(q, dest, tag))
    }
    fn recv(&self, src: usize, tag: QTag) -> Result<Qubit> {
        self.call(Class::Comm, "recv", |c| c.recv(src, tag))
    }
    fn unsend(&self, q: &Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.call(Class::Comm, "unsend", |c| c.unsend(q, dest, tag))
    }
    fn unrecv(&self, q: Qubit, src: usize, tag: QTag) -> Result<()> {
        self.call(Class::Comm, "unrecv", |c| c.unrecv(q, src, tag))
    }
    fn send_move(&self, q: Qubit, dest: usize, tag: QTag) -> Result<()> {
        self.call(Class::Comm, "send_move", |c| c.send_move(q, dest, tag))
    }
    fn recv_move(&self, src: usize, tag: QTag) -> Result<Qubit> {
        self.call(Class::Comm, "recv_move", |c| c.recv_move(src, tag))
    }
    fn cat_establish(&self) -> Result<Qubit> {
        self.call(Class::Comm, "cat_establish", QmpiRank::cat_establish)
    }
    fn reduce_parity(&self, q: &Qubit, root: usize) -> Result<(Option<Qubit>, ReduceHandle)> {
        self.call(Class::Comm, "reduce", |c| c.reduce(q, &Parity, root))
    }
    fn unreduce_parity(
        &self,
        q: &Qubit,
        result: Option<Qubit>,
        handle: ReduceHandle,
    ) -> Result<()> {
        self.call(Class::Comm, "unreduce", |c| {
            c.unreduce(q, result, handle, &Parity)
        })
    }

    // -- structural -------------------------------------------------------
    fn alloc_qmem(&self, n: usize) -> Vec<Qubit> {
        self.call(Class::Structural, "alloc_qmem", |c| c.alloc_qmem(n))
    }
    fn alloc_one(&self) -> Qubit {
        self.call(Class::Structural, "alloc_one", QmpiRank::alloc_one)
    }
    fn measure_and_free(&self, q: Qubit) -> Result<bool> {
        self.call(Class::Structural, "measure_and_free", |c| {
            c.measure_and_free(q)
        })
    }

    // -- reads ------------------------------------------------------------
    fn prob_one(&self, q: &Qubit) -> Result<f64> {
        self.call(Class::Read, "prob_one", |c| c.prob_one(q))
    }
    fn expectation(&self, terms: &[(&Qubit, Pauli)]) -> Result<f64> {
        self.call(Class::Read, "expectation", |c| c.expectation(terms))
    }
    fn expectation_each(&self, strings: &[Vec<(&Qubit, Pauli)>]) -> Result<Vec<f64>> {
        self.call(Class::Read, "expectation_each", |c| {
            c.expectation_each(strings)
        })
    }
}

/// Forwards every call; nothing else.
pub struct Direct<'a>(pub &'a QmpiRank);

impl Ops for Direct<'_> {
    fn ctx(&self) -> &QmpiRank {
        self.0
    }
    #[inline(always)]
    fn call<R>(&self, _class: Class, _name: &'static str, f: impl FnOnce(&QmpiRank) -> R) -> R {
        f(self.0)
    }
    #[inline(always)]
    fn iteration<R>(&self, _iter: u32, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Records a span around every call. Before each non-gate call it flushes
/// the rank's pending gates (and ships the backend's coalesce window)
/// under a `sync` span of its own — the point where the library would do
/// both anyway — so deferred gate work is charged to `sync`, not to
/// whichever call happened to trigger it.
pub struct Traced<'a> {
    ctx: &'a QmpiRank,
    log: RefCell<SpanLog>,
    fault: RefCell<Option<QmpiError>>,
}

impl<'a> Traced<'a> {
    pub fn new(ctx: &'a QmpiRank) -> Self {
        Traced {
            ctx,
            log: RefCell::new(SpanLog::new(ctx.rank())),
            fault: RefCell::new(None),
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.log.into_inner().into_spans()
    }

    /// Calls outside any iteration (set-up, warm-up, checks) are not part
    /// of what the trace apportions and are not recorded.
    fn span<R>(&self, class: Class, name: &'static str, f: impl FnOnce() -> R) -> R {
        if class != Class::Root && !self.log.borrow().in_iteration() {
            return f();
        }
        let id = self.log.borrow_mut().open(name, class);
        let out = f();
        self.log.borrow_mut().close(id);
        out
    }
}

impl Ops for Traced<'_> {
    fn ctx(&self) -> &QmpiRank {
        self.ctx
    }

    fn call<R>(&self, class: Class, name: &'static str, f: impl FnOnce(&QmpiRank) -> R) -> R {
        if !matches!(class, Class::GateRecord | Class::Sync) {
            // On the sharded engines a flush only parks the rank's segment
            // in the backend's coalesce window; the call about to run would
            // ship it first thing. Ship it here, so that work is `sync` too.
            let landed = self.span(Class::Sync, "flush", || {
                self.ctx.flush()?;
                self.ctx.backend().sync_coalesced()
            });
            if let Err(e) = landed {
                self.fault.borrow_mut().get_or_insert(e);
            }
        }
        self.span(class, name, || f(self.ctx))
    }

    fn iteration<R>(&self, iter: u32, f: impl FnOnce() -> R) -> R {
        self.log.borrow_mut().set_iter(iter);
        self.span(Class::Root, "iter", f)
    }

    fn take_fault(&self) -> Result<()> {
        self.fault.borrow_mut().take().map_or(Ok(()), Err)
    }
}
