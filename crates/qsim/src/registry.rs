//! Stable qubit-handle bookkeeping shared by the amplitude engines.
//!
//! The simulator front ([`crate::sim::AmpSim`]), and through it every
//! amplitude engine, exposes stable [`QubitId`] handles over a state whose
//! internal qubit *positions* shift as qubits are freed. This registry is
//! the single source of truth for that mapping — handle allocation,
//! position lookup, the shift-down on removal, and snapshot permutations.

use crate::sim::{QubitId, SimError};
use std::collections::HashMap;

/// id <-> position mapping with stable handles and dense positions.
#[derive(Debug, Default)]
pub struct QubitRegistry {
    /// id -> position (bit index) in the backing state.
    positions: HashMap<QubitId, usize>,
    /// position -> id, for shifting on removal.
    by_position: Vec<QubitId>,
    next_id: u64,
}

impl QubitRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        QubitRegistry::default()
    }

    /// Number of live qubits.
    pub fn len(&self) -> usize {
        self.by_position.len()
    }

    /// Registers a fresh handle at position `pos`, which must be the next
    /// dense position (i.e. the current [`QubitRegistry::len`]).
    pub fn push(&mut self, pos: usize) -> QubitId {
        debug_assert_eq!(pos, self.by_position.len());
        let id = QubitId(self.next_id);
        self.next_id += 1;
        self.positions.insert(id, pos);
        self.by_position.push(id);
        id
    }

    /// Current position of `q`.
    pub fn pos(&self, q: QubitId) -> Result<usize, SimError> {
        self.positions
            .get(&q)
            .copied()
            .ok_or(SimError::UnknownQubit(q))
    }

    /// Unregisters `q`, which lives at `pos`; every handle above shifts
    /// down one position (matching the state's `remove_qubit`).
    pub fn remove(&mut self, q: QubitId, pos: usize) {
        self.positions.remove(&q);
        self.by_position.remove(pos);
        for (shifted_pos, id) in self.by_position.iter().enumerate().skip(pos) {
            self.positions.insert(*id, shifted_pos);
        }
    }

    /// Position permutation for a dense snapshot with qubits ordered as in
    /// `order` (`order[0]` becomes the least-significant bit). `order` must
    /// name every live qubit exactly once: a missing one is
    /// [`SimError::MissingQubit`], naming the lowest-position one.
    pub fn permutation(&self, order: &[QubitId]) -> Result<Vec<usize>, SimError> {
        let mut seen = vec![false; self.by_position.len()];
        let mut perm = Vec::with_capacity(order.len());
        for &q in order {
            let pos = self.pos(q)?;
            if std::mem::replace(&mut seen[pos], true) {
                return Err(SimError::DuplicateQubit(q));
            }
            perm.push(pos);
        }
        if let Some(pos) = seen.iter().position(|&named| !named) {
            return Err(SimError::MissingQubit(self.by_position[pos]));
        }
        Ok(perm)
    }
}

/// Classifies a probability-of-|1> into the classical value required by the
/// `QMPI_Free_qmem` contract: near-0 reads `false`, near-1 reads `true`,
/// anything in between is [`SimError::NotClassical`].
pub fn classical_outcome(q: QubitId, p1: f64) -> Result<bool, SimError> {
    if p1 < 1e-9 {
        Ok(false)
    } else if p1 > 1.0 - 1e-9 {
        Ok(true)
    } else {
        Err(SimError::NotClassical(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_shift_down_on_removal() {
        let mut reg = QubitRegistry::new();
        let a = reg.push(0);
        let b = reg.push(1);
        let c = reg.push(2);
        assert_eq!(reg.pos(b), Ok(1));
        reg.remove(b, 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.pos(a), Ok(0));
        assert_eq!(reg.pos(c), Ok(1));
        assert_eq!(reg.pos(b), Err(SimError::UnknownQubit(b)));
    }

    #[test]
    fn permutation_requires_every_live_qubit() {
        let mut reg = QubitRegistry::new();
        let a = reg.push(0);
        let b = reg.push(1);
        assert_eq!(reg.permutation(&[b, a]), Ok(vec![1, 0]));
        assert_eq!(reg.permutation(&[a]), Err(SimError::MissingQubit(b)));
        assert_eq!(reg.permutation(&[]), Err(SimError::MissingQubit(a)));
        assert_eq!(reg.permutation(&[a, a]), Err(SimError::DuplicateQubit(a)));
    }

    #[test]
    fn classical_outcome_thresholds() {
        let q = QubitId(3);
        assert_eq!(classical_outcome(q, 0.0), Ok(false));
        assert_eq!(classical_outcome(q, 1.0), Ok(true));
        assert_eq!(classical_outcome(q, 0.5), Err(SimError::NotClassical(q)));
    }
}
