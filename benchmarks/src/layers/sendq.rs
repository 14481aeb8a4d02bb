//! `sendq`: the SENDQ event simulator behind the paper's §7.2 model. On no
//! workload's timed path; listed so a regression of the model harness
//! shows. The task count is *computed* from the schedule's shape.

use super::{median_ns, Metrics};
use sendq::analysis::tfim::simulate_step_delay;
use sendq::model::SendqParams;

const NODES: usize = 64;
const SPINS_PER_NODE: usize = 16;
const STEPS: usize = 64;

pub fn probe(samples: usize, m: &mut Metrics) {
    let params = SendqParams::midterm(NODES);
    // Per step: two EPR tasks plus 2 · spins/node rotations.
    let tasks = STEPS * (2 + 2 * SPINS_PER_NODE);
    let ns = median_ns(samples, || {
        simulate_step_delay(&params, NODES * SPINS_PER_NODE, false, STEPS)
    });
    m.push(
        "sendq.event_sim.tasks_per_s",
        tasks as f64 / (ns * 1e-9),
        "1/s",
    );
}
