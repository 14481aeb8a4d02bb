//! Pluggable noise channels for the simulation engines.
//!
//! The QMPI paper's performance model becomes interesting once EPR pairs and
//! gates are *imperfect*: fidelity under a constrained SENDQ `S` budget is
//! the quantity Häner et al. reason about. This module defines the channel
//! vocabulary shared by every engine:
//!
//! * [`NoiseChannel`] — one single-qubit channel (depolarizing, dephasing,
//!   or amplitude damping) with its rate;
//! * [`NoiseModel`] — independent channels for the four operation classes
//!   ([`OpClass`]): single-qubit gates, multi-qubit gates, measurement, and
//!   EPR establishment over the interconnect;
//! * [`NoiseState`] — the model plus its own seeded RNG stream, used by the
//!   engines to sample stochastic insertions.
//!
//! ## Unraveling
//!
//! Dense engines realize channels as stochastic quantum trajectories: after
//! each noisy operation the channel [samples](NoiseChannel::sample) an
//! action per involved qubit — nothing, a Pauli insertion, or (for amplitude
//! damping) a renormalized Kraus jump/no-jump operator. Averaged over seeds,
//! the trajectories reproduce the channel's density-matrix action; a single
//! seeded run is one member of the ensemble, exactly like QCMPI-style
//! ensemble experiments.
//!
//! ## Determinism
//!
//! Noise draws come from a dedicated RNG whose seed is derived from the
//! world seed via [`noise_stream_seed`]. The measurement RNG stream is never
//! touched by noise sampling, and a channel whose rate is zero draws
//! nothing, so a zero-rate model is bit-identical to the noiseless path on
//! every engine. Two engines given the same seed and the same operation
//! sequence draw identical noise streams — this is what keeps the dense and
//! sharded state-vector engines amplitude-identical under noise.

use crate::complex::{Complex, C_ONE, C_ZERO};
use crate::gates::{Mat2, Pauli};
use crate::stabilizer::clifford_action;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The operation classes a [`NoiseModel`] distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Single-qubit gates.
    Gate1q,
    /// Multi-qubit gates (CNOT, CZ, SWAP, controlled gates): the channel is
    /// applied independently to *every* involved qubit.
    Gate2q,
    /// Measurement (projective, parity, and measuring frees): the channel is
    /// applied to every measured qubit *before* projection, modeling
    /// readout error.
    Measurement,
    /// EPR establishment over the interconnect: the channel is applied to
    /// *each half* of the pair after entangling.
    Epr,
}

/// One single-qubit noise channel with its rate.
///
/// Rates are probabilities in `[0, 1]` per application site (see
/// [`OpClass`] for the per-qubit conventions).
///
/// ```
/// use qsim::noise::{NoiseChannel, NoiseModel};
///
/// let ch = NoiseChannel::Depolarizing { p: 0.01 };
/// assert!(NoiseModel::ideal().with_gate_1q(ch).is_clifford());
/// assert!((ch.error_free_probability() - 0.99).abs() < 1e-12);
/// let damping = NoiseChannel::AmplitudeDamping { gamma: 0.1 };
/// assert!(!NoiseModel::ideal().with_gate_1q(damping).is_clifford());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum NoiseChannel {
    /// The ideal (identity) channel.
    #[default]
    None,
    /// With probability `p`, apply a uniformly random Pauli (X, Y, or Z
    /// each with probability `p/3`).
    Depolarizing {
        /// Total error probability.
        p: f64,
    },
    /// With probability `p`, apply Z.
    Dephasing {
        /// Phase-flip probability.
        p: f64,
    },
    /// Amplitude damping (energy relaxation |1> -> |0>) with damping
    /// parameter `gamma`, unraveled as a quantum trajectory: the jump
    /// fires with probability `gamma * P(|1>)`. Not Clifford — rejected by
    /// the stabilizer backend.
    AmplitudeDamping {
        /// Damping parameter in `[0, 1]`.
        gamma: f64,
    },
}

/// What a sampled channel application does to one qubit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChannelAction {
    /// No error this time.
    Nothing,
    /// Insert this Pauli.
    Pauli(Pauli),
    /// Apply this (non-unitary, renormalization included) 2x2 Kraus map.
    Kraus(Mat2),
}

impl NoiseChannel {
    /// The channel's error rate (`p` or `gamma`; 0 for the ideal channel).
    fn rate(self) -> f64 {
        match self {
            NoiseChannel::None => 0.0,
            NoiseChannel::Depolarizing { p } | NoiseChannel::Dephasing { p } => p,
            NoiseChannel::AmplitudeDamping { gamma } => gamma,
        }
    }

    /// True when the channel can never fire (ideal, or rate exactly zero).
    /// Ideal channels draw nothing from the noise RNG, which is what makes
    /// zero-rate runs bit-identical to noiseless runs.
    pub fn is_ideal(self) -> bool {
        self.rate() == 0.0
    }

    /// The matrices a sample of this channel can apply, up to its
    /// renormalisation: what a store must realise to run it (see
    /// [`crate::sim::AmpStore::check_1q`]). None for an ideal channel,
    /// which never fires.
    pub fn actions(self) -> Vec<Mat2> {
        match self {
            _ if self.is_ideal() => Vec::new(),
            NoiseChannel::None => Vec::new(),
            NoiseChannel::Depolarizing { .. } => {
                [Pauli::X, Pauli::Y, Pauli::Z].map(Pauli::matrix).to_vec()
            }
            NoiseChannel::Dephasing { .. } => vec![Pauli::Z.matrix()],
            NoiseChannel::AmplitudeDamping { gamma } => vec![
                [[C_ZERO, C_ONE], [C_ZERO, C_ZERO]],
                [
                    [C_ONE, C_ZERO],
                    [C_ZERO, Complex::real((1.0 - gamma).sqrt())],
                ],
            ],
        }
    }

    /// True when every action is a Clifford (every sampled action a Pauli
    /// insertion), i.e. the channel can run on the stabilizer tableau.
    fn is_clifford(self) -> bool {
        let actions = self.actions();
        actions.iter().all(|m| clifford_action(m).is_some())
    }

    /// Probability that no error event fires at one application site —
    /// the factor [`crate::sim::AmpSim::error_free_probability`] multiplies
    /// in per site (the trace backend's modeled fidelity).
    pub fn error_free_probability(self) -> f64 {
        1.0 - self.rate()
    }

    /// Checks the rate is a probability.
    fn validate(self) -> Result<(), String> {
        let r = self.rate();
        if (0.0..=1.0).contains(&r) {
            Ok(())
        } else {
            Err(format!("noise rate {r} of {self:?} is outside [0, 1]"))
        }
    }

    /// Samples this channel's action on one qubit.
    ///
    /// `prob_one` lazily reports the qubit's current probability of reading
    /// |1> — only the amplitude-damping trajectory evaluates it. Ideal
    /// channels return [`ChannelAction::Nothing`] without drawing from
    /// `rng`; every non-ideal channel draws exactly one `f64`, so engines
    /// fed the same seed and operation sequence consume identical streams.
    pub fn sample(self, prob_one: impl FnOnce() -> f64, rng: &mut StdRng) -> ChannelAction {
        if self.is_ideal() {
            return ChannelAction::Nothing;
        }
        match self {
            NoiseChannel::None => ChannelAction::Nothing,
            NoiseChannel::Depolarizing { p } => {
                let u = rng.gen::<f64>();
                if u >= p {
                    ChannelAction::Nothing
                } else {
                    // Reuse the draw: u/p is uniform in [0, 1) given u < p.
                    match ((u / p) * 3.0) as usize {
                        0 => ChannelAction::Pauli(Pauli::X),
                        1 => ChannelAction::Pauli(Pauli::Y),
                        _ => ChannelAction::Pauli(Pauli::Z),
                    }
                }
            }
            NoiseChannel::Dephasing { p } => {
                if rng.gen::<f64>() < p {
                    ChannelAction::Pauli(Pauli::Z)
                } else {
                    ChannelAction::Nothing
                }
            }
            NoiseChannel::AmplitudeDamping { gamma } => {
                let p1 = prob_one();
                let p_jump = gamma * p1;
                if rng.gen::<f64>() < p_jump {
                    // Jump K1 = sqrt(gamma)|0><1|, renormalized by
                    // sqrt(p_jump): the |1> component relaxes to |0>.
                    let k = Complex::real(1.0 / p1.sqrt());
                    ChannelAction::Kraus([[C_ZERO, k], [C_ZERO, C_ZERO]])
                } else {
                    // No-jump K0 = diag(1, sqrt(1-gamma)), renormalized by
                    // sqrt(1 - p_jump).
                    let inv = 1.0 / (1.0 - p_jump).sqrt();
                    ChannelAction::Kraus([
                        [Complex::real(inv), C_ZERO],
                        [C_ZERO, Complex::real((1.0 - gamma).sqrt() * inv)],
                    ])
                }
            }
        }
    }
}

impl std::fmt::Display for NoiseChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoiseChannel::None => write!(f, "ideal"),
            NoiseChannel::Depolarizing { p } => write!(f, "depolarizing(p={p})"),
            NoiseChannel::Dephasing { p } => write!(f, "dephasing(p={p})"),
            NoiseChannel::AmplitudeDamping { gamma } => {
                write!(f, "amplitude-damping(gamma={gamma})")
            }
        }
    }
}

/// Independent noise channels for the four [`OpClass`]es.
///
/// Built fluently; the default is the ideal model:
///
/// ```
/// use qsim::noise::{NoiseChannel, NoiseModel, OpClass};
///
/// // Uniform 0.1% depolarizing everywhere, but 2% on the interconnect.
/// let model = NoiseModel::depolarizing(0.001)
///     .with_epr(NoiseChannel::Depolarizing { p: 0.02 });
/// assert_eq!(model.channel(OpClass::Epr), NoiseChannel::Depolarizing { p: 0.02 });
/// assert!(model.is_clifford());
/// assert!(!model.is_ideal());
/// assert!(NoiseModel::ideal().is_ideal());
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseModel {
    /// Channel applied after every single-qubit gate.
    pub gate_1q: NoiseChannel,
    /// Channel applied to every qubit involved in a multi-qubit gate.
    pub gate_2q: NoiseChannel,
    /// Channel applied to every measured qubit before projection.
    pub measurement: NoiseChannel,
    /// Channel applied to each half of an EPR pair after establishment.
    pub epr: NoiseChannel,
}

impl NoiseModel {
    /// The ideal (noiseless) model; identical to `NoiseModel::default()`.
    pub fn ideal() -> Self {
        NoiseModel::default()
    }

    /// Uniform depolarizing noise with probability `p` on all four classes.
    pub fn depolarizing(p: f64) -> Self {
        let ch = NoiseChannel::Depolarizing { p };
        NoiseModel {
            gate_1q: ch,
            gate_2q: ch,
            measurement: ch,
            epr: ch,
        }
    }

    /// Uniform dephasing noise with probability `p` on all four classes.
    pub fn dephasing(p: f64) -> Self {
        let ch = NoiseChannel::Dephasing { p };
        NoiseModel {
            gate_1q: ch,
            gate_2q: ch,
            measurement: ch,
            epr: ch,
        }
    }

    /// Uniform amplitude damping with parameter `gamma` on all four classes.
    pub fn amplitude_damping(gamma: f64) -> Self {
        let ch = NoiseChannel::AmplitudeDamping { gamma };
        NoiseModel {
            gate_1q: ch,
            gate_2q: ch,
            measurement: ch,
            epr: ch,
        }
    }

    /// Noise on the interconnect only: `ch` on EPR establishment, every
    /// other class ideal. The configuration of the paper's
    /// fidelity-vs-`S`-budget studies, where imperfect EPR pairs dominate.
    pub fn epr_only(ch: NoiseChannel) -> Self {
        NoiseModel::ideal().with_epr(ch)
    }

    /// Replaces the single-qubit-gate channel.
    pub fn with_gate_1q(mut self, ch: NoiseChannel) -> Self {
        self.gate_1q = ch;
        self
    }

    /// Replaces the multi-qubit-gate channel.
    pub fn with_gate_2q(mut self, ch: NoiseChannel) -> Self {
        self.gate_2q = ch;
        self
    }

    /// Replaces the measurement channel.
    pub fn with_measurement(mut self, ch: NoiseChannel) -> Self {
        self.measurement = ch;
        self
    }

    /// Replaces the EPR-establishment channel.
    pub fn with_epr(mut self, ch: NoiseChannel) -> Self {
        self.epr = ch;
        self
    }

    /// The channel for one operation class.
    pub fn channel(&self, class: OpClass) -> NoiseChannel {
        match class {
            OpClass::Gate1q => self.gate_1q,
            OpClass::Gate2q => self.gate_2q,
            OpClass::Measurement => self.measurement,
            OpClass::Epr => self.epr,
        }
    }

    /// True when no channel can ever fire.
    pub fn is_ideal(&self) -> bool {
        self.channels().iter().all(|ch| ch.is_ideal())
    }

    /// True when every channel runs on the stabilizer tableau.
    pub fn is_clifford(&self) -> bool {
        self.channels().iter().all(|ch| ch.is_clifford())
    }

    /// Checks every rate is a probability.
    pub fn validate(&self) -> Result<(), String> {
        for ch in self.channels() {
            ch.validate()?;
        }
        Ok(())
    }

    fn channels(&self) -> [NoiseChannel; 4] {
        [self.gate_1q, self.gate_2q, self.measurement, self.epr]
    }
}

/// Derives the noise RNG seed from the world seed. Kept separate from the
/// measurement stream so enabling (or zeroing) noise never perturbs
/// measurement outcomes — splitmix64's finalizer over a tagged seed.
pub fn noise_stream_seed(seed: u64) -> u64 {
    let mut z = seed ^ 0x4E4F_4953_4551_4D50; // "NOISEQMP"
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`NoiseModel`] plus its dedicated RNG stream — the state an engine
/// carries to sample stochastic insertions.
#[derive(Clone, Debug)]
pub struct NoiseState {
    /// The configured model.
    pub model: NoiseModel,
    /// The dedicated noise stream (seeded via [`noise_stream_seed`]).
    pub rng: StdRng,
}

impl NoiseState {
    /// Builds the noise state for a world seeded with `seed`.
    pub fn new(seed: u64, model: NoiseModel) -> Self {
        NoiseState {
            model,
            rng: StdRng::seed_from_u64(noise_stream_seed(seed)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_channels_draw_nothing() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for ch in [
            NoiseChannel::None,
            NoiseChannel::Depolarizing { p: 0.0 },
            NoiseChannel::Dephasing { p: 0.0 },
            NoiseChannel::AmplitudeDamping { gamma: 0.0 },
        ] {
            assert!(ch.is_ideal());
            assert_eq!(ch.sample(|| 0.3, &mut a), ChannelAction::Nothing);
        }
        // The streams must still be aligned: no draw was consumed.
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn depolarizing_frequencies_match_rate() {
        let mut rng = StdRng::seed_from_u64(7);
        let ch = NoiseChannel::Depolarizing { p: 0.3 };
        let mut counts = [0u32; 4]; // nothing, x, y, z
        let n = 30_000;
        for _ in 0..n {
            match ch.sample(|| 0.0, &mut rng) {
                ChannelAction::Nothing => counts[0] += 1,
                ChannelAction::Pauli(Pauli::X) => counts[1] += 1,
                ChannelAction::Pauli(Pauli::Y) => counts[2] += 1,
                ChannelAction::Pauli(Pauli::Z) => counts[3] += 1,
                ChannelAction::Kraus(_) => unreachable!(),
            }
        }
        let f = |c: u32| c as f64 / n as f64;
        assert!((f(counts[0]) - 0.7).abs() < 0.02, "{counts:?}");
        for &c in &counts[1..] {
            assert!((f(c) - 0.1).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn amplitude_damping_jump_rate_tracks_population() {
        let mut rng = StdRng::seed_from_u64(11);
        let ch = NoiseChannel::AmplitudeDamping { gamma: 0.4 };
        let mut jumps = 0u32;
        let n = 20_000;
        for _ in 0..n {
            if let ChannelAction::Kraus(m) = ch.sample(|| 0.5, &mut rng) {
                if m[0][0] == C_ZERO {
                    jumps += 1;
                }
            }
        }
        // P(jump) = gamma * p1 = 0.2.
        assert!((jumps as f64 / n as f64 - 0.2).abs() < 0.015);
    }

    #[test]
    fn model_validation_and_clifford_subset() {
        assert!(NoiseModel::depolarizing(0.1).validate().is_ok());
        assert!(NoiseModel::depolarizing(1.5).validate().is_err());
        assert!(NoiseModel::depolarizing(0.1).is_clifford());
        assert!(NoiseModel::dephasing(0.1).is_clifford());
        assert!(!NoiseModel::amplitude_damping(0.1).is_clifford());
        // Zero-gamma amplitude damping is trivially Clifford (it never fires).
        assert!(NoiseModel::amplitude_damping(0.0).is_clifford());
    }

    #[test]
    fn noise_stream_is_independent_of_world_seed_stream() {
        assert_ne!(noise_stream_seed(5), 5);
        assert_ne!(noise_stream_seed(5), noise_stream_seed(6));
    }
}
