//! Cross-crate integration: the Fig. 3 protocols (fanout, unfanout,
//! teleportation) executed on the full stack — QMPI ranks over the
//! classical substrate over the shared simulator — verified against dense
//! single-process references at the state-vector level. Also what an EPR
//! request dropped before its `wait` leaves its peer.

mod common;

use common::ops;
use qmpi::{run_with_config, QmpiConfig, QmpiError};
use qsim::{Gate, QubitId, Simulator};

fn prepared_reference(theta: f64, phi: f64) -> qsim::State {
    let mut sim = Simulator::new(0);
    let q = sim.alloc();
    sim.apply(Gate::Ry(theta), q).unwrap();
    sim.apply(Gate::Rz(phi), q).unwrap();
    sim.state_vector(&[q]).unwrap()
}

#[test]
fn teleportation_chain_across_three_ranks() {
    // 0 -> 1 -> 2: two hops preserve the state exactly.
    let (theta, phi) = (0.9, -1.3);
    let out = run_with_config(3, QmpiConfig::new().seed(5), move |ctx| match ctx.rank() {
        0 => {
            let q = ctx.alloc_one();
            ctx.ry(&q, theta).unwrap();
            ctx.rz(&q, phi).unwrap();
            ctx.send_move(q, 1, 0).unwrap();
            1.0
        }
        1 => {
            let q = ctx.recv_move(0, 0).unwrap();
            ctx.send_move(q, 2, 1).unwrap();
            1.0
        }
        _ => {
            let q = ctx.recv_move(1, 1).unwrap();
            let state = ctx.backend().state_vector(&[q.id()]).unwrap();
            let f = state.fidelity(&prepared_reference(theta, phi));
            ctx.measure_and_free(q).unwrap();
            f
        }
    });
    assert!(
        (out[2] - 1.0).abs() < 1e-9,
        "fidelity after two hops: {}",
        out[2]
    );
}

#[test]
fn fanout_exposes_value_on_three_ranks_simultaneously() {
    // Section 3's "entangled copy" mode: a basis value fanned out to all
    // ranks is observed identically everywhere.
    let out = run_with_config(3, QmpiConfig::new().seed(8), |ctx| {
        if ctx.rank() == 0 {
            let q = ctx.alloc_one();
            ctx.x(&q).unwrap();
            ctx.send(&q, 1, 0).unwrap();
            ctx.send(&q, 2, 0).unwrap();
            ctx.barrier();

            ctx.measure_and_free(q).unwrap()
        } else {
            let copy = ctx.recv(0, 0).unwrap();
            ctx.barrier();
            ctx.measure_and_free(copy).unwrap()
        }
    });
    assert_eq!(out, vec![true, true, true]);
}

#[test]
fn teleportation_resource_totals_scale_linearly() {
    // Moving m qubits costs exactly m EPR pairs and 2m bits (Table 1).
    let m = 5;
    let out = run_with_config(2, QmpiConfig::new().seed(3), move |ctx| {
        let (delta, ()) = ctx.measure_resources(|| {
            if ctx.rank() == 0 {
                for i in 0..m {
                    let q = ctx.alloc_one();
                    ctx.ry(&q, 0.1 * i as f64).unwrap();
                    ctx.send_move(q, 1, i as u16).unwrap();
                }
            } else {
                for i in 0..m {
                    let q = ctx.recv_move(0, i as u16).unwrap();
                    ctx.measure_and_free(q).unwrap();
                }
            }
        });
        delta
    });
    assert_eq!(out[0].epr_pairs, m as u64);
    assert_eq!(out[0].classical_bits, 2 * m as u64);
}

#[test]
fn s_limit_one_forces_serialized_moves() {
    // With S = 1, issuing two concurrent EPR preparations on one rank is
    // rejected, but strictly serialized teleports still work.
    let cfg = QmpiConfig::new().seed(1).s_limit(1);
    let out = run_with_config(2, cfg, |ctx| {
        if ctx.rank() == 0 {
            let a = ctx.alloc_one();
            let b = ctx.alloc_one();
            ctx.x(&b).unwrap();
            ctx.send_move(a, 1, 0).unwrap();
            ctx.send_move(b, 1, 1).unwrap();
            (false, false)
        } else {
            let a = ctx.recv_move(0, 0).unwrap();
            let b = ctx.recv_move(0, 1).unwrap();
            let ma = ctx.measure_and_free(a).unwrap();
            let mb = ctx.measure_and_free(b).unwrap();
            (ma, mb)
        }
    });
    assert_eq!(out[1], (false, true));
}

#[test]
fn locality_is_enforced_end_to_end() {
    // The backend rejects a gate on a qubit owned by another rank even when
    // the raw id is known — the error carries the ownership facts.
    let out = run_with_config(2, QmpiConfig::new().seed(2), |ctx| {
        if ctx.rank() == 0 {
            let q = ctx.alloc_one();
            ctx.classical().send(&q.id().0, 1, 0);
            let (_, _) = ctx.classical().recv::<bool>(1, 1);
            ctx.free_qmem(q).unwrap();
            true
        } else {
            let (raw, _) = ctx.classical().recv::<u64>(0, 0);
            // Forge a backend-level access: must be refused.
            let err = ctx
                .backend()
                .apply_batch(1, &ops::gate(qsim::Gate::X, qsim::QubitId(raw)))
                .unwrap_err();
            let ok = matches!(
                err,
                qmpi::QmpiError::Locality {
                    owner: 0,
                    acting: 1,
                    ..
                }
            );
            ctx.classical().send(&ok, 0, 1);
            ok
        }
    });
    assert!(out[1]);
}

#[test]
fn ghz_built_from_pairwise_sends_matches_cat_collective() {
    // Building α|000>+β|111> via two sends equals the cat-state collective
    // up to the protocol used — verify via full-state snapshot.
    let out = run_with_config(3, QmpiConfig::new().seed(21), |ctx| {
        if ctx.rank() == 0 {
            let q = ctx.alloc_one();
            ctx.h(&q).unwrap();
            ctx.send(&q, 1, 0).unwrap();
            ctx.send(&q, 2, 0).unwrap();
            ctx.barrier();
            let ids = [q.id()];
            let gathered = ctx
                .classical()
                .gather(&ids.iter().map(|i| i.0).collect::<Vec<_>>(), 0);
            let all: Vec<QubitId> = gathered
                .unwrap()
                .into_iter()
                .flatten()
                .map(QubitId)
                .collect();
            let st = ctx.backend().state_vector(&all).unwrap();
            let p000 = st.probability(0);
            let p111 = st.probability(7);
            ctx.barrier();
            ctx.measure_and_free(q).unwrap();
            (p000, p111)
        } else {
            let copy = ctx.recv(0, 0).unwrap();
            ctx.barrier();
            let ids: Vec<u64> = vec![copy.id().0];
            ctx.classical().gather(&ids, 0);
            ctx.barrier();
            ctx.measure_and_free(copy).unwrap();
            (0.0, 0.0)
        }
    });
    assert!((out[0].0 - 0.5).abs() < 1e-9);
    assert!((out[0].1 - 0.5).abs() < 1e-9);
}

/// Runs a two-rank world under `cfg` on a thread and gives it `secs` to
/// return; `None` when it is still blocked by then (the thread is left
/// behind).
fn within_secs<T: Send + 'static>(
    secs: u64,
    cfg: QmpiConfig,
    f: impl Fn(&qmpi::QmpiRank) -> T + Send + Sync + 'static,
) -> Option<Vec<T>> {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_with_config(2, cfg, f));
    });
    rx.recv_timeout(std::time::Duration::from_secs(secs)).ok()
}

/// A request the lower rank drops without `wait` fails the higher
/// rank's `prepare_epr` with a typed error instead of blocking it.
#[test]
fn an_epr_request_dropped_on_the_lower_rank_fails_the_peer() {
    let out = within_secs(10, QmpiConfig::default(), |ctx| {
        let q = ctx.alloc_one();
        let got = if ctx.rank() == 0 {
            drop(ctx.iprepare_epr(&q, 1, 0).unwrap());
            Ok(())
        } else {
            ctx.prepare_epr(&q, 0, 0)
        };
        ctx.measure_and_free(q).unwrap();
        got
    })
    .expect("the peer of a dropped EPR request blocked");
    assert_eq!(out[0], Ok(()));
    assert!(
        matches!(&out[1], Err(QmpiError::Protocol(m)) if m.contains("rank 0")),
        "{out:?}"
    );
}

/// The lower rank needs nothing from the higher one past its posted id,
/// so a request the higher rank drops still becomes a pair.
#[test]
fn an_epr_request_dropped_on_the_higher_rank_still_pairs() {
    let out = within_secs(10, QmpiConfig::default(), |ctx| {
        let q = ctx.alloc_one();
        let got = if ctx.rank() == 1 {
            drop(ctx.iprepare_epr(&q, 0, 0).unwrap());
            Ok(())
        } else {
            ctx.prepare_epr(&q, 1, 0)
        };
        ctx.barrier();
        (got, ctx.measure_and_free(q).unwrap())
    })
    .expect("a dropped EPR request blocked its peer");
    assert_eq!(out[0].0, Ok(()));
    assert_eq!(out[0].1, out[1].1, "the pair was established");
}

/// The tag of a dropped request pairs again: whichever rank dropped it,
/// the peer's messages for it wait on that rank's stream, and the next
/// establishment on the same tag discards them before it pairs — over 50
/// seeds, both establishments of each run and their outcomes.
#[test]
fn an_epr_tag_pairs_again_after_a_request_on_it_is_dropped() {
    for seed in 0..50 {
        for dropper in [0, 1] {
            let out = within_secs(10, QmpiConfig::new().seed(seed), move |ctx| {
                let peer = 1 - ctx.rank();
                let q = ctx.alloc_one();
                let first = if ctx.rank() == dropper {
                    drop(ctx.iprepare_epr(&q, peer, 0).unwrap());
                    Ok(())
                } else {
                    ctx.prepare_epr(&q, peer, 0)
                };
                ctx.barrier();
                let m = ctx.measure_and_free(q).unwrap();
                let q = ctx.alloc_one();
                let again = ctx.prepare_epr(&q, peer, 0);
                (first, m, again, ctx.measure_and_free(q).unwrap())
            })
            .expect("an EPR stream blocked after a dropped request");
            let what = format!("seed {seed}, rank {dropper} dropped");
            if dropper == 1 {
                // The lower rank entangles without the higher one's wait.
                assert_eq!(out[0].0, Ok(()), "{what}");
                assert_eq!(out[0].1, out[1].1, "{what}: the first pair correlates");
            } else {
                assert!(matches!(out[1].0, Err(QmpiError::Protocol(_))), "{what}");
            }
            assert_eq!((&out[0].2, &out[1].2), (&Ok(()), &Ok(())), "{what}");
            assert_eq!(out[0].3, out[1].3, "{what}: the second pair correlates");
        }
    }
}
