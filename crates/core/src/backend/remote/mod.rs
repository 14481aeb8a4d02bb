//! Process-separated shard workers: the remote sharded state-vector engine.
//!
//! [`RemoteShardedEngine`] cuts the dense amplitude vector into `2^k`
//! shards and places each in a dedicated
//! *worker rank* — a thread of this process or a `qworker` process — and
//! turns every shard interaction into a framed message protocol over one
//! kind of link (`backend::remote_transport`: an in-process pipe or a Unix
//! domain socket). Nothing but messages crosses the shard boundary: the
//! paper's deployment model (Section 4: shards live in separate QMPI nodes)
//! and the shape NetQMPI gives its simulation workers.
//!
//! ## Roles and message flow
//!
//! The engine is the *controller* (rank 0 of a private worker world); shard
//! `s` is owned by worker rank `s + 1`. Three frame tags carry the
//! protocol, on a link from the controller to each worker and on one
//! between each pair of workers:
//!
//! | tag | direction | carries |
//! |---|---|---|
//! | `TAG_CMD` | controller → worker | [`ShardCmd`] (gates, queries, layout, state loads) |
//! | `TAG_REPLY` | worker → controller | [`ShardReply`] (partial sums, stripes) |
//! | `TAG_XCHG` | worker ↔ worker, direct | stripe amplitudes (cross-shard pairing, expectation partners, reshape parts) |
//!
//! No command ends a worker: EOF on its controller link does, when the
//! world ends or a test kills the worker.
//!
//! Every command broadcast happens under one controller lock, so all
//! workers observe the *same global command order*; each worker applies its
//! commands sequentially from its controller link (FIFO). Together those
//! two facts give every stripe a single consistent history without any
//! shared memory. Exchanges go straight from worker to worker (a link per
//! worker pair), and every one of them is
//! ordered — one member receives before it sends — so none waits on a
//! cycle even where a send blocks until its receiver reads.
//!
//! Each file owns one decision: `wire.rs` the bytes of every frame and
//! their `WIRE_VERSION`, `worker.rs` what a worker does with a command,
//! `controller.rs` which commands a store call becomes, `failover.rs` how a
//! dead worker's world is rebuilt, and `store.rs` the engine around them.
//!
//! * **Ship on a read.** Work that needs no reply waits in a per-worker
//!   queue on the controller, in global order: planned gate streams, alloc
//!   and free reshapes, measurement collapses. A command that needs a reply
//!   takes the worker's queue with it in one [`ShardCmd::Seq`] frame (queue
//!   first, then the read), and a worker the read does not address gets its
//!   queue in the same fan-out. So a command round is a read, which is the
//!   QMPI paper's aggregation argument (and the NetQASM SDK's, on which
//!   NetQMPI builds) applied to the simulator's own transport. A queue that
//!   reaches `BatchPolicy::default().max_ops` entries ships on its own.
//! * **Gate streams** are *planned*: the controller decomposes each gate
//!   into per-stripe moves ([`WorkerOp`]) and appends them to the
//!   [`ShardCmd::Batch`] at the tail of each worker's queue. One batch of
//!   gates and the same gates in several consecutive batches (eager
//!   dispatch, or several ranks' flushes between two reads) therefore
//!   become the same frames, execute the same kernels in the same order
//!   and stay bit-identical per seed.
//! * **Within-shard gates** become [`WorkerOp::PairWithin`] entries;
//!   workers run the identical [`qsim::stripe`] kernels the dense store
//!   runs, each on its own stripe, in parallel.
//! * **Cross-shard gates** pair shard `s0` with `s0 | tbit`: the high
//!   member ships its stripe to the low member ([`WorkerOp::CrossHigh`] /
//!   [`WorkerOp::CrossLow`]), which zips the pair kernel across both
//!   stripes and ships the updated half back. Every worker walks its
//!   batch frame in the same global gate order, so exchanges inside a
//!   batch pair up deadlock-free.
//! * **SWAP** is a dedicated one-round stripe exchange
//!   ([`WorkerOp::SwapWithin`], or [`WorkerOp::SwapCrossLow`] against a
//!   [`WorkerOp::CrossHigh`] partner, or two shard-selecting qubits'
//!   stripes traded whole by a [`WorkerOp::CrossHigh`] on each member): a
//!   pure amplitude permutation costing at most one exchange per shard
//!   pair, where three CNOTs pay three (6 cross-shard stripe transfers).
//! * **Measurement** is one read: [`ShardCmd::Branches`] brings back each
//!   stripe's (even, odd) mass under a parity mask (a single qubit is a
//!   one-bit parity, the only form the store is asked for), the controller
//!   compares the front's uniform draw with the odd total, and the
//!   rescaled projection onto the outcome is queued as one reply-free pass
//!   per stripe ([`ShardCmd::CollapseScale`]); a free queues none.
//! * **Expectation values** are gather-free: [`ShardCmd::Expect`] pairs
//!   each shard with its `x_mask`-partner ([`ExpectRole`]), the partners
//!   exchange stripes worker↔worker, and only complex partial sums flow
//!   to the controller — never the amplitude vector.
//! * **Noise** is sampled on the controller by the one simulator front
//!   ([`qsim::sim::AmpSim`], the dense engine's, so trajectories are
//!   identical draw for draw) and injected as uncounted single-qubit
//!   gates — planned into the same batch frame as the gates they ride on.
//!   An amplitude-damping draw reads the qubit's one-bit parity mass, which
//!   ships the queue first.
//! * **Stable shard axes.** The controller maps each live position to a
//!   physical index bit: the low bits address within a stripe, the top `k`
//!   select it. The first qubits allocated take the shard axes and keep
//!   them while they live; a later qubit enters as the highest local bit,
//!   so an alloc doubles each stripe where it lives and freeing a local
//!   qubit rescales and compacts each stripe in one pass where it lives
//!   ([`ShardCmd::Reshape`], by the mass of the read that decided it). A
//!   fresh communication qubit therefore never moves a stripe. Only
//!   freeing a shard axis moves amplitudes: the highest local qubit takes
//!   the axis over, and the kept side rescales and sends one half-stripe
//!   per shard pair on `TAG_XCHG`. Neither needs anything back, so each is
//!   one queued command per worker.
//! * **Snapshots** (`state_vector`), failover checkpoints and recovery are
//!   the only users of the dense state: [`ShardCmd::Gather`] and
//!   [`ShardCmd::Load`]. A snapshot ships the queue in a round of its own
//!   before it gathers.
//!
//! ## Dead workers and the deadlock watchdog
//!
//! A dead or deadlocked worker must not hang a run. A worker that exits
//! closes its links, so the controller reads EOF from it within
//! milliseconds; a stuck one outlasts the watchdog (`DEFAULT_WATCHDOG_MS`,
//! 30 s, unless [`RemoteShardedEngine::with_watchdog`] sets another) that
//! bounds every blocking read. Either way the world fails over, threads or
//! processes alike (`failover.rs`); a shard whose worker dies 16
//! generations running ends the engine with a panic naming it.
//!
//! ## The engine is a store under the one front
//!
//! [`RemoteShardedEngine`] is [`super::AmplitudeEngine`] over
//! [`RemoteStore`]: handles, operand checks, counters, noise and the
//! measurement draw order come from [`qsim::sim::AmpSim`], as for every
//! amplitude engine. The store's gate methods, `add_qubit` and
//! `remove_qubit` only *queue*; its reads (probabilities, measurements,
//! expectations, snapshots) ship the queue. A measurement is one read
//! because the front draws its uniform before calling the store. Select
//! the engine with [`super::BackendKind::RemoteSharded`].

mod controller;
mod failover;
mod store;
mod wire;
mod worker;

pub(crate) use failover::DeadWorker;
pub use qsim::stripe::PairKernel;
pub use store::{RemoteShardedEngine, RemoteStore};
pub(crate) use wire::{
    decode_reply_frame, decode_stripe_into, encode_reply_frame, WireAmps, WIRE_VERSION,
};
pub use wire::{ExpectRole, ShardCmd, ShardReply, WorkerOp};
pub(crate) use worker::{worker_loop, WorkerHalt};

/// World rank of shard `shard`'s worker: the controller is rank 0, so shard
/// `s` is rank `s + 1`.
pub(crate) const fn rank_of(shard: usize) -> usize {
    shard + 1
}

/// The shard whose worker is world rank `rank`; `None` for the controller.
pub(crate) fn shard_of(rank: usize) -> Option<usize> {
    rank.checked_sub(1)
}

/// Hard cap on the worker count (`2^6` = 64 worker ranks); each shard is a
/// real thread or process with a link to every other.
pub const MAX_REMOTE_SHARD_BITS: u32 = 6;

/// The one shard-count rule: clamp to `[1, 2^MAX_REMOTE_SHARD_BITS]`, then
/// round up to a power of two. The worker world and `BackendKind`'s
/// clamp-warning diagnostics both call this, so what the warning reports is
/// by construction what the engine runs with.
pub(crate) fn normalize_shards(requested: usize) -> usize {
    requested
        .clamp(1, 1 << MAX_REMOTE_SHARD_BITS)
        .next_power_of_two()
}

/// The watchdog a worker world starts with, in milliseconds: the bound on
/// every blocking protocol receive until
/// [`RemoteShardedEngine::with_watchdog`] sets another.
pub(crate) const DEFAULT_WATCHDOG_MS: u64 = 30_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{
        ops, AmplitudeEngine, BackendKind, EngineStore, QuantumBackend, StateVectorEngine,
    };
    use crate::context::BatchPolicy;
    use qsim::noise::NoiseModel;
    use qsim::{Gate, Pauli, QubitId};
    use std::time::{Duration, Instant};

    /// Applies the same circuit to the dense engine and a remote engine and
    /// asserts the amplitudes agree bit-for-bit (the kernels perform the
    /// identical arithmetic in the identical order).
    fn assert_remote_matches_dense_bitwise(shards: usize, noise: NoiseModel, n_qubits: usize) {
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut remote = RemoteShardedEngine::with_noise(1, shards, noise);
        let dq: Vec<QubitId> = (0..n_qubits).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..n_qubits).map(|_| remote.alloc()).collect();
        use qsim::BatchOp;
        let circuit = |q: &[QubitId]| {
            let last = q[q.len() - 1];
            let gate = |gate, q| BatchOp::Gate { gate, q };
            [
                gate(Gate::H, q[0]),
                gate(Gate::H, last),
                gate(Gate::T, last),
                BatchOp::Cnot { c: q[0], t: last },
                BatchOp::Cnot { c: last, t: q[0] },
                BatchOp::Cz {
                    a: q[1],
                    b: q[q.len() - 2],
                },
                gate(Gate::S, q[2]),
                BatchOp::Swap { a: q[1], b: last },
                BatchOp::Controlled {
                    controls: vec![q[0], last],
                    gate: Gate::Ry(0.7),
                    target: q[2],
                },
            ]
        };
        // Op by op: one batch (and one noise draw point) per gate.
        for (d, r) in circuit(&dq).into_iter().zip(circuit(&rq)) {
            dense.apply_batch(&ops::batch([d])).unwrap();
            remote.apply_batch(&ops::batch([r])).unwrap();
        }
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        assert_eq!(want.len(), got.len());
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "shards={shards} amp[{i}] differs: {w:?} vs {g:?}"
            );
        }
    }

    /// A free rescales by the exact mass of the read that decided it, so
    /// eight shards land on the dense engine's bits through frees at every
    /// position of generic-angle states.
    #[test]
    fn frees_rescale_to_the_dense_engines_bits() {
        fn run<S: EngineStore>(
            e: &mut AmplitudeEngine<S>,
            seed: u64,
        ) -> (Vec<bool>, Vec<(u64, u64)>) {
            let angle = |i: usize| 0.31 + 0.57 * (i as f64 + seed as f64).sin().abs();
            let mut qs: Vec<QubitId> = (0..7).map(|_| e.alloc()).collect();
            let mut outcomes = Vec::new();
            for round in 0..10 {
                for (i, &q) in qs.iter().enumerate() {
                    e.apply_batch(&ops::gate(Gate::Ry(angle(round * 7 + i)), q))
                        .unwrap();
                }
                for w in qs.windows(2) {
                    e.apply_batch(&ops::cnot(w[0], w[1])).unwrap();
                }
                let gone = qs.remove(round % qs.len());
                outcomes.push(e.measure_and_free(gone).unwrap());
                qs.push(e.alloc());
            }
            let st = e.state_vector(&qs).unwrap();
            let bits = st.amplitudes().iter();
            (
                outcomes,
                bits.map(|a| (a.re.to_bits(), a.im.to_bits())).collect(),
            )
        }
        for seed in 0..4 {
            let want = run(&mut StateVectorEngine::new(seed), seed);
            let got = run(&mut RemoteShardedEngine::new(seed, 8), seed);
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn remote_matches_dense_bitwise_on_fixed_circuit() {
        for shards in [1usize, 2, 8] {
            assert_remote_matches_dense_bitwise(shards, NoiseModel::ideal(), 6);
        }
    }

    #[test]
    fn remote_matches_dense_bitwise_under_pauli_noise() {
        let noise = NoiseModel::depolarizing(0.25)
            .with_measurement(qsim::NoiseChannel::Dephasing { p: 0.3 });
        for shards in [1usize, 2, 4] {
            assert_remote_matches_dense_bitwise(shards, noise, 5);
        }
    }

    #[test]
    fn remote_measurement_and_free_roundtrip() {
        let mut e = RemoteShardedEngine::new(7, 4);
        let a = e.alloc();
        let b = e.alloc();
        let c = e.alloc();
        e.apply_batch(&ops::gate(Gate::X, c)).unwrap();
        assert!((e.prob_one(c).unwrap() - 1.0).abs() < 1e-12);
        assert!(e.prob_one(a).unwrap() < 1e-12);
        // Removing the middle qubit shifts c down; it must still read |1>.
        assert!(!e.free(b).unwrap());
        assert!(e.measure_and_free(c).unwrap());
        assert!(!e.measure_z_parity(&[a]).unwrap());
        assert_eq!(e.n_qubits(), 1);
        assert_eq!(e.measurement_count(), 2);
    }

    #[test]
    fn remote_epr_pair_correlates() {
        for seed in 0..6u64 {
            let mut e = RemoteShardedEngine::new(seed, 2);
            let a = e.alloc();
            let b = e.alloc();
            e.entangle_epr(a, b).unwrap();
            let zz = e.expectation(&[(a, Pauli::Z), (b, Pauli::Z)]).unwrap();
            assert!((zz - 1.0).abs() < 1e-10, "seed {seed}: <ZZ> = {zz}");
            let ma = e.measure_z_parity(&[a]).unwrap();
            let mb = e.measure_z_parity(&[b]).unwrap();
            assert_eq!(ma, mb, "seed {seed}: EPR halves must agree");
        }
    }

    #[test]
    fn remote_parity_measurement_projects() {
        let mut e = RemoteShardedEngine::new(11, 4);
        let a = e.alloc();
        let b = e.alloc();
        e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
        e.apply_batch(&ops::cnot(a, b)).unwrap();
        // EPR pair lives entirely in the even-parity subspace.
        assert!(!e.measure_z_parity(&[a, b]).unwrap());
        let st = e.state_vector(&[a, b]).unwrap();
        assert!((st.probability(0b00) - 0.5).abs() < 1e-10);
        assert!((st.probability(0b11) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn remote_amplitude_damping_tracks_dense_on_fixed_circuit() {
        // The jump decision reads prob_one, whose reduction order differs
        // between engines; a fixed seed and circuit keeps both on the same
        // trajectory branch, and the Kraus maps must then agree closely.
        let noise = NoiseModel::amplitude_damping(0.2);
        let mut dense = StateVectorEngine::with_noise(1, noise);
        let mut remote = RemoteShardedEngine::with_noise(1, 4, noise);
        let dq: Vec<QubitId> = (0..4).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..4).map(|_| remote.alloc()).collect();
        for (d, r) in [(0, 0), (1, 1)] {
            dense.apply_batch(&ops::gate(Gate::H, dq[d])).unwrap();
            remote.apply_batch(&ops::gate(Gate::H, rq[r])).unwrap();
        }
        dense.apply_batch(&ops::cnot(dq[0], dq[2])).unwrap();
        remote.apply_batch(&ops::cnot(rq[0], rq[2])).unwrap();
        dense.apply_batch(&ops::gate(Gate::Ry(0.9), dq[1])).unwrap();
        remote
            .apply_batch(&ops::gate(Gate::Ry(0.9), rq[1]))
            .unwrap();
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        for i in 0..want.len() {
            assert!(
                want.amplitude(i).approx_eq(got.amplitude(i), 1e-12),
                "amp[{i}]: {:?} vs {:?}",
                want.amplitude(i),
                got.amplitude(i)
            );
        }
    }

    /// What a gate stream costs in command rounds: nothing, eager or
    /// batched, within-shard or cross-shard — it waits in the queue — and
    /// the read that follows ships all of it in its one round. Cross-shard
    /// pairings still pay their irreducible stripe exchanges.
    #[test]
    fn gate_streams_cost_no_rounds_and_ship_with_the_next_read() {
        use qsim::BatchOp;
        let mut e = RemoteShardedEngine::new(5, 4);
        let qs: Vec<QubitId> = (0..4).map(|_| e.alloc()).collect();
        let rounds = |e: &RemoteShardedEngine| e.transport_stats().command_rounds;
        // Eager and batched: the same four gates, no round either way.
        let before = rounds(&e);
        for &q in &qs {
            e.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        let batch = ops::batch(qs.iter().map(|&q| BatchOp::Gate { gate: Gate::H, q }));
        e.apply_batch(&batch).unwrap();
        assert_eq!(rounds(&e), before, "gates wait for a read");

        // A batch with cross-shard ops: still no command round; each
        // cross-shard pairing adds only its irreducible stripe exchange.
        // Qubits 2 and 3 are shard-selecting at 4 shards with 4 qubits
        // (2 local bits).
        let xchg_before = e.transport_stats().exchange_rounds;
        let batch = ops::batch(vec![
            BatchOp::Gate {
                gate: Gate::T,
                q: qs[0],
            },
            BatchOp::Cnot { c: qs[0], t: qs[3] },
            BatchOp::Swap { a: qs[1], b: qs[2] },
            BatchOp::Cz { a: qs[2], b: qs[3] },
        ]);
        e.apply_batch(&batch).unwrap();
        let xchg_delta = e.transport_stats().exchange_rounds - xchg_before;
        assert_eq!(rounds(&e), before, "no round regardless of batch content");
        assert!(
            (2..=2 * 4).contains(&xchg_delta),
            "cross-shard ops pay their exchanges and no more, got {xchg_delta}"
        );
        // One read ships the allocs and every gate above.
        e.prob_one(qs[0]).unwrap();
        assert_eq!(rounds(&e), before + 1, "the read is the one round");
        // The state must still be exact: undo everything and check |0..0>
        // parity against the dense engine instead of trusting counters.
        let got = e.state_vector(&qs).unwrap();
        let mut dense = StateVectorEngine::new(5);
        let dq: Vec<QubitId> = (0..4).map(|_| dense.alloc()).collect();
        for &q in &dq {
            dense.apply_batch(&ops::gate(Gate::H, q)).unwrap();
            dense.apply_batch(&ops::gate(Gate::H, q)).unwrap();
        }
        dense.apply_batch(&ops::gate(Gate::T, dq[0])).unwrap();
        dense.apply_batch(&ops::cnot(dq[0], dq[3])).unwrap();
        dense.apply_batch(&ops::swap(dq[1], dq[2])).unwrap();
        dense.apply_batch(&ops::cz(dq[2], dq[3])).unwrap();
        let want = dense.state_vector(&dq).unwrap();
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "amp[{i}]: {w:?} vs {g:?}"
            );
        }
    }

    /// A long gate stream with no read never lets the queue reach its bound:
    /// at `BatchPolicy::default().max_ops` entries it ships in a round of
    /// its own.
    #[test]
    fn a_long_gate_stream_without_a_read_stays_under_the_queue_bound() {
        let bound = BatchPolicy::default().max_ops;
        let mut e = RemoteShardedEngine::new(1, 2);
        let qs: Vec<QubitId> = (0..3).map(|_| e.alloc()).collect();
        let before = e.transport_stats().command_rounds;
        for i in 0..2 * bound {
            let gate = Gate::Rz(1e-3 * i as f64);
            e.apply_batch(&ops::gate(gate, qs[i % 3])).unwrap();
            assert!(e.raw_state().ctl.lock().queue.len < bound, "gate {i}");
        }
        // Every gate queues one op on each of the two stripes, within a
        // stripe or across the pair.
        assert_eq!(e.transport_stats().command_rounds - before, 4);
    }

    /// Optimizer-emitted ops are first-class wire ops: a fused 1q kernel
    /// plus a merged phase sweep queue with zero stripe exchanges (sweeps
    /// are shard-local by construction) and ship in the snapshot's queue
    /// round, apply fewer kernel sweeps than the primitive stream they
    /// replace, and reproduce the dense engine's amplitudes bit-for-bit.
    #[test]
    fn fused_ops_ship_with_the_next_read_and_match_dense_bitwise() {
        use qsim::BatchOp;
        // 5 qubits over 4 shards: the first two allocated hold the shard
        // axes (`q(3)` and `q(4)` below), the other three are local,
        // so the sweep exercises local factors, shard-constant factors,
        // and all three CZ localizations (lo/lo+hi/hi+hi).
        let stream = |qs: &[QubitId]| {
            let q = |i: usize| qs[(i + 2) % 5];
            ops::batch(vec![
                BatchOp::Gate {
                    gate: Gate::H,
                    q: q(0),
                },
                BatchOp::Gate {
                    gate: Gate::Ry(0.3),
                    q: q(0),
                },
                BatchOp::Gate {
                    gate: Gate::T,
                    q: q(3),
                },
                BatchOp::Gate {
                    gate: Gate::T,
                    q: q(4),
                },
                BatchOp::Gate {
                    gate: Gate::Z,
                    q: q(1),
                },
                BatchOp::Cz { a: q(1), b: q(3) },
                BatchOp::Cz { a: q(0), b: q(4) },
                BatchOp::Cz { a: q(3), b: q(4) },
            ])
        };
        let mut dense = StateVectorEngine::new(2);
        let mut remote = RemoteShardedEngine::new(2, 4);
        let dq: Vec<QubitId> = (0..5).map(|_| dense.alloc()).collect();
        let rq: Vec<QubitId> = (0..5).map(|_| remote.alloc()).collect();
        for i in 0..5 {
            dense.apply_batch(&ops::gate(Gate::H, dq[i])).unwrap();
            remote.apply_batch(&ops::gate(Gate::H, rq[i])).unwrap();
        }
        let d_opt = qsim::optimize(stream(&dq));
        let r_opt = qsim::optimize(stream(&rq));
        assert!(
            d_opt
                .ops()
                .iter()
                .any(|op| matches!(op, BatchOp::Fused1q { .. }))
                && d_opt
                    .ops()
                    .iter()
                    .any(|op| matches!(op, BatchOp::PhaseSweep { .. })),
            "the optimizer must emit both fused op kinds here: {:?}",
            d_opt.ops()
        );
        assert!(d_opt.len() < stream(&dq).len(), "fewer kernel sweeps");
        let before = remote.transport_stats();
        dense.apply_batch(&d_opt).unwrap();
        remote.apply_batch(&r_opt).unwrap();
        let after = remote.transport_stats();
        assert_eq!(
            after.command_rounds, before.command_rounds,
            "a batch, fused or not, waits for a read"
        );
        assert_eq!(
            after.exchange_rounds, before.exchange_rounds,
            "fused 1q kernels and phase sweeps are shard-local"
        );
        assert_eq!(dense.gate_count(), remote.gate_count());
        let want = dense.state_vector(&dq).unwrap();
        let got = remote.state_vector(&rq).unwrap();
        assert_eq!(
            remote.transport_stats().command_rounds - after.command_rounds,
            2,
            "the snapshot ships the queue in a round of its own, then gathers"
        );
        for i in 0..want.len() {
            let (w, g) = (want.amplitude(i), got.amplitude(i));
            assert!(
                w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                "amp[{i}]: {w:?} vs {g:?}"
            );
        }
    }

    /// Batched and eager application must stay bit-identical per seed —
    /// including under Pauli noise, where the controller samples the shared
    /// stream per op while planning.
    #[test]
    fn batched_stream_is_bit_identical_to_eager_under_noise() {
        use qsim::BatchOp;
        let noise = NoiseModel::depolarizing(0.3);
        for shards in [1usize, 2, 4] {
            let mut eager = RemoteShardedEngine::with_noise(9, shards, noise);
            let mut batched = RemoteShardedEngine::with_noise(9, shards, noise);
            let eq: Vec<QubitId> = (0..5).map(|_| eager.alloc()).collect();
            let bq: Vec<QubitId> = (0..5).map(|_| batched.alloc()).collect();
            let stream = |qs: &[QubitId]| {
                vec![
                    BatchOp::Gate {
                        gate: Gate::H,
                        q: qs[0],
                    },
                    BatchOp::Gate {
                        gate: Gate::T,
                        q: qs[4],
                    },
                    BatchOp::Cnot { c: qs[0], t: qs[4] },
                    BatchOp::Swap { a: qs[1], b: qs[4] },
                    BatchOp::Cz { a: qs[2], b: qs[3] },
                    BatchOp::Controlled {
                        controls: vec![qs[0]],
                        gate: Gate::Ry(0.4),
                        target: qs[2],
                    },
                ]
            };
            for op in stream(&eq) {
                eager.apply_batch(&ops::batch([op])).unwrap();
            }
            batched.apply_batch(&ops::batch(stream(&bq))).unwrap();
            assert_eq!(eager.gate_count(), batched.gate_count(), "shards={shards}");
            let want = eager.state_vector(&eq).unwrap();
            let got = batched.state_vector(&bq).unwrap();
            for i in 0..want.len() {
                let (w, g) = (want.amplitude(i), got.amplitude(i));
                assert!(
                    w.re.to_bits() == g.re.to_bits() && w.im.to_bits() == g.im.to_bits(),
                    "shards={shards} amp[{i}]: {w:?} vs {g:?}"
                );
            }
        }
    }

    /// The gather-free expectation protocol: cross-shard X/Y strings pair
    /// workers directly; values must match the dense engine on a
    /// non-trivial entangled state, and no stripe may flow to the
    /// controller (asserted via the command pattern: expectation issues no
    /// Gather, so byte traffic stays far below a stripe gather's).
    #[test]
    fn expectation_is_gather_free_and_matches_dense() {
        // 6 qubits over 4 shards: positions 4 and 5 are shard-selecting,
        // so X/Y strings touching them exercise the worker↔worker pairing.
        let mut e = RemoteShardedEngine::new(3, 4);
        let mut dense = StateVectorEngine::new(3);
        let rq: Vec<QubitId> = (0..6).map(|_| e.alloc()).collect();
        let dq: Vec<QubitId> = (0..6).map(|_| dense.alloc()).collect();
        for (engine_q, dense_q) in rq.iter().zip(&dq) {
            e.apply_batch(&ops::gate(Gate::H, *engine_q)).unwrap();
            dense.apply_batch(&ops::gate(Gate::H, *dense_q)).unwrap();
        }
        e.apply_batch(&ops::cnot(rq[0], rq[5])).unwrap();
        dense.apply_batch(&ops::cnot(dq[0], dq[5])).unwrap();
        e.apply_batch(&ops::gate(Gate::T, rq[2])).unwrap();
        dense.apply_batch(&ops::gate(Gate::T, dq[2])).unwrap();
        let pick = |qs: &[QubitId]| -> Vec<Vec<(QubitId, Pauli)>> {
            vec![
                vec![(qs[0], Pauli::Z), (qs[5], Pauli::Z)],
                vec![(qs[0], Pauli::X), (qs[5], Pauli::X)], // shard-crossing X
                vec![(qs[4], Pauli::Y), (qs[5], Pauli::X)], // both shard bits
                vec![(qs[2], Pauli::Y)],
                vec![(qs[1], Pauli::X), (qs[2], Pauli::Z), (qs[5], Pauli::Y)],
            ]
        };
        for (rs, ds) in pick(&rq).iter().zip(&pick(&dq)) {
            let got = e.expectation(rs).unwrap();
            let want = dense.expectation(ds).unwrap();
            assert!(
                (got - want).abs() < 1e-12,
                "expectation {rs:?}: {got} vs {want}"
            );
        }
        // Traffic check: a shard-crossing expectation moves the paired
        // stripes worker↔worker (half the amplitudes), never the full
        // gather to the controller.
        let bytes_before = e.transport_stats().wire_bytes;
        e.expectation(&[(rq[0], Pauli::X), (rq[5], Pauli::X)])
            .unwrap();
        let xchg_traffic = e.transport_stats().wire_bytes - bytes_before;
        let bytes_before = e.transport_stats().wire_bytes;
        let _ = e.state_vector(&rq).unwrap(); // a real gather, for scale
        let gather_traffic = e.transport_stats().wire_bytes - bytes_before;
        assert!(
            xchg_traffic < gather_traffic,
            "gather-free expectation ({xchg_traffic} B) must move less than a gather \
             ({gather_traffic} B)"
        );
    }

    /// What a run observed: the read after its kill point and its final
    /// amplitudes as bits, its respawns, and how long that read took.
    type Observed = ((u64, Vec<(u64, u64)>), u64, Duration);

    /// Reads `read`'s probability, timed from `start`, then the state of
    /// `qs`.
    fn observe(e: &RemoteShardedEngine, read: QubitId, qs: &[QubitId], start: Instant) -> Observed {
        let p = e.prob_one(read).unwrap().to_bits();
        let took = start.elapsed();
        let st = e.state_vector(qs).unwrap();
        let bits = st.amplitudes().iter();
        let bits = bits.map(|a| (a.re.to_bits(), a.im.to_bits())).collect();
        ((p, bits), e.transport_stats().respawns, took)
    }

    /// The recovery contract of a lost thread worker: the run that lost it
    /// reads the undisturbed run's bits, having replaced one generation of
    /// `shards` workers, and its read returned within 2 s under the default
    /// 30 s watchdog.
    fn assert_recovered(how: &str, shards: usize, calm: Observed, killed: Observed) {
        assert_eq!(calm.1, 0, "{how}: the undisturbed run respawns nothing");
        assert_eq!(killed.1, shards as u64, "{how}: one generation replaced");
        assert!(
            killed.2 < Duration::from_secs(2),
            "{how}: took {:?}",
            killed.2
        );
        assert_eq!(calm.0, killed.0, "{how}: the death must not show");
    }

    /// A worker that left its loop is seen at EOF by the next read, which
    /// fails over instead of hanging, and the run finishes on the bits of an
    /// undisturbed run of the same seed.
    #[test]
    fn a_dead_worker_is_replaced_at_eof_instead_of_hanging() {
        let run = |kill: bool| {
            let mut e = RemoteShardedEngine::new(3, 2);
            let a = e.alloc();
            let b = e.alloc();
            e.apply_batch(&ops::gate(Gate::H, a)).unwrap();
            let start = Instant::now();
            if kill {
                e.debug_kill_worker(1);
            }
            observe(&e, b, &[a, b], start)
        };
        assert_recovered("debug_kill_worker", 2, run(false), run(true));
    }

    /// A worker dying *mid-batch*, with a framed gate stream queued for it
    /// and a cross-shard exchange pending against it, is replaced at the
    /// next read: the read ships the queue into the dead link, fails over,
    /// and ships it again to the new generation. (The surviving exchange
    /// partner reads EOF on its link to the dead worker and exits too.)
    #[test]
    fn a_worker_dying_mid_batch_is_replaced_at_eof() {
        use qsim::BatchOp;
        let run = |kill: bool| {
            let mut e = RemoteShardedEngine::new(7, 4);
            let qs: Vec<QubitId> = (0..4).map(|_| e.alloc()).collect();
            e.apply_batch(&ops::gate(Gate::H, qs[0])).unwrap();
            let start = Instant::now();
            if kill {
                e.debug_kill_worker(2);
            }
            let batch = ops::batch(vec![
                BatchOp::Gate {
                    gate: Gate::H,
                    q: qs[1],
                },
                // Qubit 3 is shard-selecting (2 local bits at 4 shards), so
                // this pairs shards across the dead worker.
                BatchOp::Cnot { c: qs[0], t: qs[3] },
            ]);
            e.apply_batch(&batch).unwrap();
            observe(&e, qs[3], &qs, start)
        };
        assert_recovered("mid-batch", 4, run(false), run(true));
    }

    /// A reply of the wrong shape is a dead worker: a stray `Gather` sent
    /// ahead of a `Branches` read makes shard 1 answer a stripe where the
    /// read expects masses, and the read fails over, as at EOF, instead of
    /// panicking, and returns the bits of an undisturbed run.
    #[test]
    fn a_wrong_shaped_reply_fails_over_like_a_dead_worker() {
        let run = |stray: bool| {
            let mut e = RemoteShardedEngine::new(5, 2);
            let qs: Vec<QubitId> = (0..3).map(|_| e.alloc()).collect();
            e.apply_batch(&ops::gate(Gate::H, qs[1])).unwrap();
            let start = Instant::now();
            if stray {
                let mut ctl = e.raw_state().ctl.lock();
                ctl.lease.link_mut().send_cmd(1, &ShardCmd::Gather).unwrap();
            }
            observe(&e, qs[2], &qs, start)
        };
        assert_recovered("a stray Gather", 2, run(false), run(true));
    }

    #[test]
    fn remote_backend_kind_builds_under_sharded_shared() {
        let backend = crate::backend::build_backend(
            BackendKind::RemoteSharded { shards: 4 },
            cmpi::TransportKind::InProcess,
            5,
            NoiseModel::ideal(),
        )
        .unwrap();
        assert_eq!(backend.kind(), BackendKind::RemoteSharded { shards: 4 });
        let qa = backend.alloc(0, 1)[0];
        let qb = backend.alloc(1, 1)[0];
        backend.entangle_epr_batch(&[(qa, qb)]).unwrap();
        let ma = backend.measure_z_parity(0, &[qa]).unwrap();
        let mb = backend.measure_z_parity(1, &[qb]).unwrap();
        assert_eq!(ma, mb);
        assert_eq!(backend.counts().epr_entanglements, 1);
    }

    #[test]
    fn wrapper_runs_concurrent_rank_gates_against_workers() {
        use std::sync::Arc;
        let backend: Arc<dyn QuantumBackend> = crate::backend::build_backend(
            BackendKind::RemoteSharded { shards: 4 },
            cmpi::TransportKind::InProcess,
            3,
            NoiseModel::ideal(),
        )
        .unwrap();
        let mut qubits = Vec::new();
        for rank in 0..4usize {
            qubits.push((rank, backend.alloc(rank, 2)));
        }
        std::thread::scope(|s| {
            for (rank, qs) in &qubits {
                let backend = Arc::clone(&backend);
                s.spawn(move || {
                    for _ in 0..10 {
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::cnot(qs[0], qs[1]))
                            .unwrap();
                        backend
                            .apply_batch(*rank, &ops::gate(Gate::H, qs[0]))
                            .unwrap();
                    }
                });
            }
        });
        // Every rank's round was self-inverse: all qubits must read |0>.
        for (rank, qs) in &qubits {
            for &q in qs {
                assert!(backend.prob_one(*rank, q).unwrap() < 1e-9);
                backend.measure_and_free(*rank, q).unwrap();
            }
        }
        assert_eq!(backend.counts().live_qubits, 0);
    }
}
