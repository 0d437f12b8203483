//! The bit-serial reference trainer: the oracle of the equivalence suites.
//!
//! [`train_step_bit_serial`] applies the reconstructed tri-state rule (see
//! [`crate::bsom`]) one trit at a time, with one scalar [`CoinThreshold`]
//! coin per stochastic decision. It runs the same winner search and
//! neighbourhood policy as the production
//! [`SelfOrganizingMap::train_step`], but shares none of its update code:
//! each neighbourhood neuron is materialised from the packed layer, updated
//! bit by bit, and written back through [`BSom::set_neuron`].
//!
//! The production window path draws whole Bernoulli mask words and so
//! consumes the map's xorshift64* state differently. The two agree *in
//! distribution* for interior probabilities and **bit for bit** when both
//! probabilities are 0 or 1, where neither consumes randomness — the two
//! tiers the `word_update_equivalence`, `window_update_equivalence` and
//! `dispatch_train_identity` suites assert.
//!
//! ```rust
//! use bsom_signature::BinaryVector;
//! use bsom_som::{reference, BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(3);
//! let config = BSomConfig::new(6, 70).with_update_probabilities(1.0, 1.0);
//! let mut window = BSom::new(config, &mut rng);
//! let mut serial = window.clone();
//! let schedule = TrainSchedule::new(4);
//! for t in 0..4 {
//!     let input = BinaryVector::random(70, &mut rng);
//!     window.train_step(&input, t, &schedule).unwrap();
//!     reference::train_step_bit_serial(&mut serial, &input, t, &schedule).unwrap();
//! }
//! assert_eq!(window, serial); // undamped: bit-identical
//! ```

use bsom_signature::bernoulli::next_word;
use bsom_signature::{BinaryVector, TriStateVector, Trit};

use crate::bsom::{BSom, NeighbourRule};
use crate::error::SomError;
use crate::schedule::TrainSchedule;
use crate::som_trait::{line_neighbourhood, SelfOrganizingMap, Winner};

/// A precomputed integer acceptance threshold for a Bernoulli(p) coin.
///
/// `Below(t)` accepts when the next RNG word is `< t`, i.e. with probability
/// `t / 2⁶⁴`. The degenerate probabilities 0 and 1 are their own variants
/// and — deliberately — **do not advance the RNG state**, matching the
/// behaviour of the whole-word [`MaskPlan`](bsom_signature::MaskPlan) path
/// so the two stay bit-identical for p ∈ {0, 1}.
///
/// # Examples
///
/// ```rust
/// use bsom_som::reference::CoinThreshold;
///
/// let mut state = 0x1234_5678_9ABC_DEF1_u64;
/// let coin = CoinThreshold::from_probability(0.3);
/// let mut heads = 0usize;
/// for _ in 0..10_000 {
///     if coin.flip(&mut state) {
///         heads += 1;
///     }
/// }
/// // Binomial(10_000, 0.3): far outside [2600, 3400] is astronomically unlikely.
/// assert!(heads > 2600 && heads < 3400);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoinThreshold {
    /// Probability 0: never accepts, never consumes randomness.
    Never,
    /// Probability 1: always accepts, never consumes randomness.
    Always,
    /// Accepts when the next RNG word compares below the threshold.
    Below(u64),
}

impl CoinThreshold {
    /// Builds the threshold for probability `p`, clamping to `[0, 1]`.
    ///
    /// Probabilities below 2⁻⁶⁴ collapse to [`CoinThreshold::Never`] — they
    /// are beneath the resolution of a 64-bit comparison anyway.
    pub fn from_probability(p: f64) -> Self {
        if p <= 0.0 {
            return CoinThreshold::Never;
        }
        if p >= 1.0 {
            return CoinThreshold::Always;
        }
        // 2^64 as f64; the cast saturates, and p < 1 keeps it below u64::MAX.
        let threshold = (p * 18_446_744_073_709_551_616.0) as u64;
        if threshold == 0 {
            CoinThreshold::Never
        } else {
            CoinThreshold::Below(threshold)
        }
    }

    /// Flips the coin, advancing `state` only for non-degenerate
    /// probabilities.
    #[inline]
    pub fn flip(self, state: &mut u64) -> bool {
        match self {
            CoinThreshold::Never => false,
            CoinThreshold::Always => true,
            CoinThreshold::Below(threshold) => next_word(state) < threshold,
        }
    }

    /// The exact probability the threshold encodes.
    pub fn probability(self) -> f64 {
        match self {
            CoinThreshold::Never => 0.0,
            CoinThreshold::Always => 1.0,
            CoinThreshold::Below(threshold) => threshold as f64 / 18_446_744_073_709_551_616.0,
        }
    }
}

/// One training step through the bit-serial reference datapath: winner
/// search, then every neuron of the neighbourhood visited in address order,
/// every weight bit damped by its own scalar coin drawn from the map's
/// xorshift64* state.
///
/// # Errors
///
/// Returns [`SomError::InputLengthMismatch`] if the input length differs
/// from the map's vector length.
pub fn train_step_bit_serial(
    som: &mut BSom,
    input: &BinaryVector,
    t: usize,
    schedule: &TrainSchedule,
) -> Result<Winner, SomError> {
    let winner = som.winner(input)?;
    let config = *som.config();
    let relax = CoinThreshold::from_probability(config.relax_probability);
    let commit = CoinThreshold::from_probability(config.commit_probability);
    let radius = schedule.radius_at(t);
    for idx in line_neighbourhood(winner.index, radius, config.neurons) {
        let commit = match config.neighbour_rule {
            _ if idx == winner.index => commit,
            NeighbourRule::SameAsWinner => commit,
            NeighbourRule::RelaxOnly => CoinThreshold::Never,
            NeighbourRule::WinnerOnly => continue,
        };
        let mut neuron = som.neuron(idx)?;
        update_bit_serial(&mut neuron, input, relax, commit, som.rng_state_mut());
        som.set_neuron(idx, neuron)?;
    }
    Ok(winner)
}

/// The per-trit rule table of [`crate::bsom`], one coin per decision.
fn update_bit_serial(
    neuron: &mut TriStateVector,
    input: &BinaryVector,
    relax: CoinThreshold,
    commit: CoinThreshold,
    state: &mut u64,
) {
    for k in 0..input.len() {
        let x = input.bit(k);
        match neuron.trit(k) {
            Trit::DontCare => {
                if commit.flip(state) {
                    neuron.set(k, Trit::from_bit(x));
                }
            }
            t => {
                if !t.matches(x) && relax.flip(state) {
                    neuron.set(k, Trit::DontCare);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coin_threshold_degenerate_probabilities_do_not_touch_state() {
        let mut state = 42u64;
        assert!(!CoinThreshold::from_probability(0.0).flip(&mut state));
        assert!(CoinThreshold::from_probability(1.0).flip(&mut state));
        assert!(!CoinThreshold::from_probability(-3.0).flip(&mut state));
        assert!(CoinThreshold::from_probability(2.0).flip(&mut state));
        assert_eq!(state, 42, "p in {{0, 1}} must not consume randomness");
    }

    #[test]
    fn coin_threshold_probability_roundtrip() {
        assert_eq!(CoinThreshold::from_probability(0.0).probability(), 0.0);
        assert_eq!(CoinThreshold::from_probability(1.0).probability(), 1.0);
        let p = CoinThreshold::from_probability(0.3).probability();
        assert!((p - 0.3).abs() < 1e-12, "got {p}");
    }

    #[test]
    fn coin_threshold_statistics() {
        let mut state = 0xDEAD_BEEF_u64;
        for p in [0.1, 0.3, 0.5, 0.9] {
            let coin = CoinThreshold::from_probability(p);
            let heads = (0..20_000).filter(|_| coin.flip(&mut state)).count();
            let expected = 20_000.0 * p;
            // ±6 sigma on Binomial(20_000, p); sigma < 71 for every p here.
            assert!(
                (heads as f64 - expected).abs() < 6.0 * 71.0,
                "p = {p}: {heads} heads"
            );
        }
    }
}
