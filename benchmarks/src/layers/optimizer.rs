//! `qsim.optimizer`: the plan-time pass every rank flush runs, on a
//! TFIM-shaped stream (CNOT·Rz·CNOT ladders then an Rx layer over 8
//! qubits) of 4 096 ops — the default flush budget.

use super::{time_ns_with, Metrics};
use crate::stats::median;
use qsim::{optimize, BatchOp, Gate, GateBatch, QubitId};

const OPS: usize = 4096;

fn tfim_shaped_batch() -> GateBatch {
    let q: Vec<QubitId> = (0..8).map(QubitId).collect();
    let mut batch = GateBatch::new();
    let mut layer = 0usize;
    'fill: loop {
        let mut ops = Vec::new();
        for site in 0..q.len() - 1 {
            ops.push(BatchOp::Cnot {
                c: q[site],
                t: q[site + 1],
            });
            ops.push(BatchOp::Gate {
                gate: Gate::Rz(0.1 + 0.01 * layer as f64),
                q: q[site + 1],
            });
            ops.push(BatchOp::Cnot {
                c: q[site],
                t: q[site + 1],
            });
        }
        ops.extend(q.iter().map(|&q| BatchOp::Gate {
            gate: Gate::Rx(-0.2),
            q,
        }));
        for op in ops {
            if batch.len() == OPS {
                break 'fill;
            }
            batch.push(op);
        }
        layer += 1;
    }
    batch
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let batch = tfim_shaped_batch();
    let mut slot: (Option<GateBatch>, usize) = (None, 0);
    let ns = time_ns_with(
        samples,
        &mut slot,
        |slot| slot.0 = Some(batch.clone()),
        |slot| slot.1 = optimize(slot.0.take().expect("prepared")).len(),
    );
    m.push(
        "qsim.optimizer.optimize_ns_per_op",
        median(&ns) / OPS as f64,
        "ns",
    );
    m.push(
        "qsim.optimizer.ops_out_per_op_in",
        slot.1 as f64 / OPS as f64,
        "ratio",
    );
}
