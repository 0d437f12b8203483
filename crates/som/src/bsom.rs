//! The tri-state binary Self-Organizing Map (bSOM).
//!
//! The bSOM (paper §III, based on Appiah et al., IJCNN 2009) is a SOM whose
//! input layer takes binary vectors and whose competitive-layer neurons hold
//! tri-state weight vectors over `{0, 1, #}`. The similarity measure is the
//! #-aware Hamming distance: a `#` ("don't care") weight position matches
//! either input bit and never contributes to the distance.
//!
//! ## Reconstructed training rule
//!
//! This SOCC 2010 paper does not restate the full update rule of its
//! reference \[5\]; the rule implemented here (and documented in DESIGN.md
//! §"The reconstructed update rule" as a substitution) is the natural
//! tri-state rule with the properties the paper
//! relies on, damped stochastically so that a prototype reflects the
//! *majority* of the patterns a neuron wins rather than just the last one.
//!
//! For the winning neuron and every neuron in its current neighbourhood, each
//! weight trit `w_k` is updated against the input bit `x_k`:
//!
//! | current `w_k` | input `x_k` | new `w_k` | rationale |
//! |---|---|---|---|
//! | `0` or `1`, equal to `x_k` | — | unchanged | the weight already explains the input |
//! | `0` or `1`, different from `x_k` | — | `#` *with probability* `relax_probability` | conflicting evidence ⇒ stop caring |
//! | `#` | `0`/`1` | `x_k` *with probability* `commit_probability` | commit to the observed value |
//!
//! With probabilities of 1.0 this is the raw single-step tri-state rule; the
//! defaults of 0.3 low-pass filter each bit over a handful of wins, which is
//! what brings the bSOM's recognition accuracy level with the averaging cSOM
//! (Table I) while staying a pure bit-manipulation pipeline — in hardware the
//! damping is a single AND against an LFSR bit stream. Neighbours follow
//! [`NeighbourRule`]; the default applies the same update to the whole
//! neighbourhood window, mirroring the FPGA's neighbourhood-update block.
//!
//! The rule is learning-rate free. Bits that are consistent within the
//! cluster of inputs a neuron wins converge to concrete values; bits that
//! vary spend time in `#`, harmlessly excluded from the distance.
//!
//! ## The plane-sliced training datapath
//!
//! The map has **one** weight store, a [`PackedLayer`] — the software
//! analogue of the FPGA's BlockRAM planes, which the update circuit writes
//! and the Hamming units read (DESIGN.md §"Train-while-serve and the shared
//! packed layout"). [`BSom::train_step`] applies the table above **64 trits
//! × the whole neighbourhood at a time** (DESIGN.md §"The neighbourhood
//! broadcast update"): because the neighbourhood is a contiguous run of
//! neuron addresses, per 64-bit word index **one** broadcast Bernoulli mask
//! pair ([`bsom_signature::draw_broadcast_masks`]) is drawn and applied to
//! the window's run of packed column words
//! ([`bsom_signature::update_window_word`]), with a per-neuron gate word
//! carrying the [`NeighbourRule`], mirroring the FPGA's single update
//! circuit broadcast to the address window. The per-neuron `#`-counts the
//! WTA key needs live in the layer and are maintained incrementally from the
//! popcount deltas of each masked write — `winner` never re-popcounts a care
//! plane. [`BSom::neuron`] and [`BSom::neurons`] build owned
//! [`TriStateVector`]s from the plane rows on demand.
//!
//! [`crate::reference::train_step_bit_serial`] is the one other datapath:
//! the per-trit loop with one scalar coin per bit, kept as the oracle of the
//! equivalence suites. It consumes the xorshift64* state differently, so for
//! interior probabilities the two agree *in distribution*, not bit for bit;
//! for probabilities 0 and 1 neither consumes randomness and they are
//! bit-identical.

use bsom_signature::bernoulli::{gate_word, MaskPlan};
use bsom_signature::{BinaryVector, TriStateVector};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::SomError;
use crate::packed::PackedLayer;
use crate::schedule::TrainSchedule;
use crate::som_trait::{SelfOrganizingMap, Winner};

/// How neurons in the neighbourhood of the winner (excluding the winner
/// itself) are updated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum NeighbourRule {
    /// Neighbours receive the same (damped) tri-state update as the winner.
    /// This is the default and mirrors the FPGA neighbourhood-update block,
    /// which applies one update circuit to the selected address window.
    #[default]
    SameAsWinner,
    /// Neighbours only relax conflicting bits to `#`; they do not commit `#`
    /// positions to the input value — the tri-state analogue of giving
    /// neighbours a smaller learning rate. Kept for the update-rule ablation.
    RelaxOnly,
    /// Neighbours are not updated at all (winner-take-all learning). The
    /// ablation benches show this collapses onto a single over-general
    /// neuron; it exists to demonstrate that the neighbourhood block matters.
    WinnerOnly,
}

/// Configuration for a [`BSom`].
///
/// The defaults of [`BSomConfig::paper_default`] reproduce Table III: 40
/// neurons, 768-bit vectors, random initial weights, maximum neighbourhood 4
/// (the neighbourhood policy itself lives in
/// [`TrainSchedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BSomConfig {
    /// Number of neurons in the competitive layer.
    pub neurons: usize,
    /// Length of the input and weight vectors in bits.
    pub vector_len: usize,
    /// How neighbours of the winner are updated.
    pub neighbour_rule: NeighbourRule,
    /// Probability that a concrete weight trit that *disagrees* with the
    /// input relaxes to `#` during an update. 1.0 recovers the raw tri-state
    /// rule; lower values low-pass filter the weights over several wins,
    /// which is what gives the bSOM prototype quality comparable to the
    /// averaging cSOM (in hardware this is one AND gate against an LFSR bit
    /// stream).
    pub relax_probability: f64,
    /// Probability that a `#` trit commits to the observed input bit during
    /// an update. 1.0 recovers the raw tri-state rule.
    pub commit_probability: f64,
}

impl BSomConfig {
    /// Creates a configuration with the given shape and the default update
    /// behaviour.
    pub fn new(neurons: usize, vector_len: usize) -> Self {
        BSomConfig {
            neurons,
            vector_len,
            neighbour_rule: NeighbourRule::default(),
            relax_probability: 0.3,
            commit_probability: 0.3,
        }
    }

    /// The paper's configuration (Table III): 40 neurons × 768 bits.
    pub fn paper_default() -> Self {
        BSomConfig::new(40, 768)
    }

    /// Overrides the neighbour update rule.
    pub fn with_neighbour_rule(mut self, rule: NeighbourRule) -> Self {
        self.neighbour_rule = rule;
        self
    }

    /// Overrides the stochastic update probabilities (relax, commit). Pass
    /// `(1.0, 1.0)` for the undamped tri-state rule used by the ablation
    /// benches.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn with_update_probabilities(mut self, relax: f64, commit: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&relax) && (0.0..=1.0).contains(&commit),
            "update probabilities must be within [0, 1], got ({relax}, {commit})"
        );
        self.relax_probability = relax;
        self.commit_probability = commit;
        self
    }
}

impl Default for BSomConfig {
    fn default() -> Self {
        BSomConfig::paper_default()
    }
}

/// Whole-word Bernoulli mask plans for the configured probabilities,
/// compiled once instead of per coin flip. Rebuilt whenever the
/// probabilities change; never serialized (it is a pure function of the
/// config).
#[derive(Debug, Clone, PartialEq)]
struct UpdateTables {
    /// Mask plan realising `relax_probability` 64 lanes at a time.
    relax_plan: MaskPlan,
    /// Mask plan realising `commit_probability` 64 lanes at a time.
    commit_plan: MaskPlan,
}

impl UpdateTables {
    fn from_config(config: &BSomConfig) -> Self {
        UpdateTables {
            relax_plan: MaskPlan::from_probability(config.relax_probability),
            commit_plan: MaskPlan::from_probability(config.commit_probability),
        }
    }
}

/// Reusable scratch for the plane-sliced window update: the per-neuron
/// commit gates and flip counters of one neighbourhood. Owned by the map so
/// the training hot path performs no per-step allocation; never serialized
/// or compared (its contents are meaningless between steps).
#[derive(Debug, Clone, Default)]
struct WindowScratch {
    /// One [`gate_word`] per neuron in the window.
    gates: Vec<u64>,
    /// Per-neuron relaxed-bit counts, filled by the window update.
    relaxed: Vec<u32>,
    /// Per-neuron committed-bit counts, filled by the window update.
    committed: Vec<u32>,
}

/// The tri-state binary Self-Organizing Map.
///
/// # Examples
///
/// ```rust
/// use bsom_signature::BinaryVector;
/// use bsom_som::{BSom, BSomConfig, SelfOrganizingMap, TrainSchedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bsom_som::SomError> {
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut som = BSom::new(BSomConfig::new(8, 64), &mut rng);
/// let pattern = BinaryVector::random(64, &mut rng);
/// som.train(std::slice::from_ref(&pattern), TrainSchedule::new(50), &mut rng)?;
/// // After training on a single repeated pattern, some neuron matches it exactly.
/// let winner = som.winner(&pattern)?;
/// assert_eq!(winner.distance, 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BSom {
    config: BSomConfig,
    /// Internal xorshift state driving the stochastic update decisions — the
    /// software analogue of the LFSR bit stream a hardware implementation
    /// would use. Keeping it inside the map keeps `train_step` deterministic
    /// for a given construction seed.
    rng_state: u64,
    /// Precompiled mask plans for the configured update probabilities.
    tables: UpdateTables,
    /// The weights: plane-sliced rows plus per-neuron `#`-counts. Training
    /// writes them in place, winner search reads them, and publishing a
    /// serving snapshot is a copy-on-write clone of this field.
    packed: PackedLayer,
    /// Reusable window-update scratch (see [`WindowScratch`]).
    scratch: WindowScratch,
}

/// Equality is over the map's intrinsic state — configuration, weights and
/// RNG state. The update tables are a pure function of the configuration
/// and the scratch is meaningless between steps.
impl PartialEq for BSom {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.rng_state == other.rng_state
            && self.packed == other.packed
    }
}

impl BSom {
    /// Creates a bSOM with every weight initialised to a random concrete bit,
    /// the start-up state produced by the FPGA weight-initialisation block.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero neurons or a zero vector length;
    /// use [`BSom::try_new`] for a fallible constructor.
    pub fn new<R: Rng + ?Sized>(config: BSomConfig, rng: &mut R) -> Self {
        Self::try_new(config, rng).expect("bSOM configuration must be non-empty")
    }

    /// Fallible counterpart of [`BSom::new`].
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyConfiguration`] if `config.neurons` or
    /// `config.vector_len` is zero.
    pub fn try_new<R: Rng + ?Sized>(config: BSomConfig, rng: &mut R) -> Result<Self, SomError> {
        if config.neurons == 0 || config.vector_len == 0 {
            return Err(SomError::EmptyConfiguration {
                neurons: config.neurons,
                vector_len: config.vector_len,
            });
        }
        let neurons: Vec<TriStateVector> = (0..config.neurons)
            .map(|_| TriStateVector::random_concrete(config.vector_len, rng))
            .collect();
        let rng_state = rng.gen::<u64>() | 1;
        Ok(Self::assemble(
            config,
            rng_state,
            PackedLayer::from_neurons(&neurons)?,
        ))
    }

    /// Creates a bSOM from explicit weight vectors (e.g. weights exported
    /// from the FPGA BlockRAM after off-line training, §V-F).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::EmptyConfiguration`] for an empty weight list and
    /// [`SomError::InputLengthMismatch`] if any weight vector's length
    /// differs from the first one's.
    pub fn from_weights(weights: Vec<TriStateVector>) -> Result<Self, SomError> {
        let packed = PackedLayer::from_neurons(&weights)?;
        let config = BSomConfig::new(packed.neuron_count(), packed.vector_len());
        Ok(Self::assemble(config, 0x9E37_79B9_7F4A_7C15, packed))
    }

    /// Wraps a validated layer with its configuration and RNG state.
    fn assemble(config: BSomConfig, rng_state: u64, packed: PackedLayer) -> Self {
        BSom {
            config,
            rng_state,
            tables: UpdateTables::from_config(&config),
            packed,
            scratch: WindowScratch::default(),
        }
    }

    /// The map's configuration.
    pub fn config(&self) -> &BSomConfig {
        &self.config
    }

    /// Overrides the stochastic update probabilities of an existing map
    /// (useful after [`BSom::from_weights`], which uses the defaults).
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn with_update_probabilities(mut self, relax: f64, commit: f64) -> Self {
        self.config = self.config.with_update_probabilities(relax, commit);
        self.tables = UpdateTables::from_config(&self.config);
        self
    }

    /// Overrides the neighbour update rule of an existing map.
    pub fn with_neighbour_rule(mut self, rule: NeighbourRule) -> Self {
        self.config = self.config.with_neighbour_rule(rule);
        self
    }

    /// The weight vector of neuron `index`, built from the plane rows.
    ///
    /// # Errors
    ///
    /// Returns [`SomError::NeuronOutOfRange`] for an invalid index.
    pub fn neuron(&self, index: usize) -> Result<TriStateVector, SomError> {
        self.packed.neuron(index)
    }

    /// All neuron weight vectors in index order, built from the plane rows.
    pub fn neurons(&self) -> Vec<TriStateVector> {
        self.packed.neurons()
    }

    /// Replaces the weight vector of neuron `index` (weights can only be
    /// mutated through the update rule or through this method).
    ///
    /// # Errors
    ///
    /// Returns [`SomError::NeuronOutOfRange`] for an invalid index and
    /// [`SomError::InputLengthMismatch`] if the new weight's length differs
    /// from the map's vector length.
    pub fn set_neuron(&mut self, index: usize, weight: TriStateVector) -> Result<(), SomError> {
        if index >= self.config.neurons {
            return Err(SomError::NeuronOutOfRange {
                index,
                neurons: self.config.neurons,
            });
        }
        if weight.len() != self.config.vector_len {
            return Err(SomError::InputLengthMismatch {
                expected: self.config.vector_len,
                actual: weight.len(),
            });
        }
        self.packed.apply_neuron_update(index, &weight);
        Ok(())
    }

    /// The plane-sliced weight store — the layout both training-time winner
    /// search and serving snapshots run on. Cloning it is how a serving
    /// snapshot is published (no re-pack).
    pub fn packed_layer(&self) -> &PackedLayer {
        &self.packed
    }

    /// The per-neuron `#`-counts in address order — the secondary comparator
    /// key of the WTA search, maintained incrementally on every weight write.
    pub fn dont_care_counts(&self) -> &[u32] {
        self.packed.dont_care_counts()
    }

    /// Total number of `#` trits across all neurons — a measure of how much
    /// of the map has relaxed to "don't care". Served from the incremental
    /// counts; O(neurons) rather than O(neurons × words).
    pub fn total_dont_care(&self) -> usize {
        self.dont_care_counts().iter().map(|&c| c as usize).sum()
    }

    /// The xorshift64* state, for the bit-serial reference trainer.
    pub(crate) fn rng_state_mut(&mut self) -> &mut u64 {
        &mut self.rng_state
    }

    /// The plane-sliced neighbourhood update: one broadcast mask stream
    /// applied to the contiguous window `[lo, hi]` of packed neuron columns
    /// in a single pass ([`PackedLayer::apply_window_update`]), with the
    /// commit transition gated per neuron by the [`NeighbourRule`] (only the
    /// winner commits under [`NeighbourRule::RelaxOnly`]).
    fn update_window(&mut self, lo: usize, hi: usize, winner: usize, input: &BinaryVector) {
        let BSom {
            config,
            rng_state,
            tables,
            packed,
            scratch,
        } = self;
        let window = lo..hi + 1;
        let width = window.len();
        scratch.gates.clear();
        scratch.gates.extend(window.clone().map(|idx| {
            gate_word(match config.neighbour_rule {
                NeighbourRule::RelaxOnly => idx == winner,
                _ => true,
            })
        }));
        scratch.relaxed.resize(width, 0);
        scratch.committed.resize(width, 0);
        packed.apply_window_update(
            window,
            input,
            &tables.relax_plan,
            &tables.commit_plan,
            &scratch.gates,
            rng_state,
            &mut scratch.relaxed,
            &mut scratch.committed,
        );
    }
}

impl SelfOrganizingMap for BSom {
    fn neuron_count(&self) -> usize {
        self.config.neurons
    }

    fn vector_len(&self) -> usize {
        self.config.vector_len
    }

    fn winner(&self, input: &BinaryVector) -> Result<Winner, SomError> {
        // Winner-take-all on the #-aware Hamming distance, computed by the
        // same plane-sliced word-slice kernels serve-time search runs on —
        // there is exactly one distance path in the system. Ties are broken
        // towards the most *specific* neuron (fewest don't-cares, served
        // from the incremental counts) and then towards the lower index: a
        // heavily-relaxed neuron has an artificially small distance to
        // everything, so among equidistant candidates the one that actually
        // commits to more bits is the better explanation of the input. In
        // hardware this is a wider comparator key ({distance, #-count,
        // address}); see DESIGN.md §"Winner selection and the WTA tie-break
        // key".
        let w = self.packed.winner(input)?;
        Ok(Winner::new(w.index, f64::from(w.distance)))
    }

    /// One training step through the plane-sliced window datapath: winner
    /// search on the shared packed layout, then **one** broadcast mask
    /// stream applied to the whole neighbourhood address window directly on
    /// the packed columns (see the module docs and DESIGN.md §"The
    /// neighbourhood broadcast update").
    fn train_step(
        &mut self,
        input: &BinaryVector,
        t: usize,
        schedule: &TrainSchedule,
    ) -> Result<Winner, SomError> {
        let winner = self.winner(input)?;
        let radius = schedule.radius_at(t);
        // The address window [lo, hi], clamped at the line's ends exactly
        // like `line_neighbourhood` (winner-take-all learning collapses the
        // window to the winner itself).
        let (lo, hi) = match self.config.neighbour_rule {
            NeighbourRule::WinnerOnly => (winner.index, winner.index),
            NeighbourRule::SameAsWinner | NeighbourRule::RelaxOnly => (
                winner.index.saturating_sub(radius),
                (winner.index + radius).min(self.config.neurons - 1),
            ),
        };
        self.update_window(lo, hi, winner.index, input);
        Ok(winner)
    }

    fn distances(&self, input: &BinaryVector) -> Result<Vec<f64>, SomError> {
        Ok(self
            .packed
            .distances(input)?
            .into_iter()
            .map(f64::from)
            .collect())
    }
}

/// The raw wire shape of a [`BSom`]: `{config, neurons, rng_state}`, the
/// per-neuron planes in address order. The `#`-counts and update tables are
/// *not* serialized: both are pure functions of the other fields, and
/// rebuilding them on deserialization means a tampered snapshot can never
/// smuggle in inconsistent counts. Every neuron decodes through
/// [`TriStateVector`]'s validating `Deserialize` (word counts, clean tails,
/// value plane inside the care plane).
#[derive(Deserialize)]
struct RawBSom {
    config: BSomConfig,
    neurons: Vec<TriStateVector>,
    rng_state: u64,
}

impl BSom {
    /// Validates a raw snapshot and rebuilds the derived state.
    fn from_raw(raw: RawBSom) -> Result<Self, String> {
        // Rejects an empty layer and neurons of unequal lengths.
        let packed = PackedLayer::from_neurons(&raw.neurons).map_err(|e| e.to_string())?;
        let shape = (packed.neuron_count(), packed.vector_len());
        if shape != (raw.config.neurons, raw.config.vector_len) {
            return Err(format!(
                "snapshot holds {} neurons of {} bits for a config of {} x {}",
                shape.0, shape.1, raw.config.neurons, raw.config.vector_len
            ));
        }
        for p in [raw.config.relax_probability, raw.config.commit_probability] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("update probability {p} outside [0, 1]"));
            }
        }
        if raw.rng_state == 0 {
            return Err("rng_state must be non-zero (xorshift fixed point)".to_string());
        }
        Ok(Self::assemble(raw.config, raw.rng_state, packed))
    }
}

impl serde::Serialize for BSom {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("config".to_string(), self.config.to_value()),
            ("neurons".to_string(), self.neurons().to_value()),
            ("rng_state".to_string(), self.rng_state.to_value()),
        ])
    }
}

// Written against the vendored serde stand-in's `from_value` trait; with
// registry serde this collapses to `#[serde(try_from = "RawBSom")]` on the
// struct (see vendor/README.md).
impl serde::Deserialize for BSom {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let raw = RawBSom::from_value(value)?;
        BSom::from_raw(raw).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xB50A)
    }

    #[test]
    fn paper_default_config_matches_table_three() {
        let c = BSomConfig::paper_default();
        assert_eq!(c.neurons, 40);
        assert_eq!(c.vector_len, 768);
        assert_eq!(BSomConfig::default(), c);
    }

    #[test]
    fn new_initialises_random_concrete_weights() {
        let som = BSom::new(BSomConfig::paper_default(), &mut rng());
        assert_eq!(som.neuron_count(), 40);
        assert_eq!(som.vector_len(), 768);
        assert_eq!(som.total_dont_care(), 0);
        // Neurons should not all be identical.
        assert!(som.neurons().windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn try_new_rejects_empty_configurations() {
        assert!(matches!(
            BSom::try_new(BSomConfig::new(0, 768), &mut rng()),
            Err(SomError::EmptyConfiguration { .. })
        ));
        assert!(matches!(
            BSom::try_new(BSomConfig::new(40, 0), &mut rng()),
            Err(SomError::EmptyConfiguration { .. })
        ));
    }

    #[test]
    fn from_weights_validates_lengths() {
        let good = vec![TriStateVector::all_dont_care(8), TriStateVector::zeros(8)];
        assert!(BSom::from_weights(good).is_ok());
        let bad = vec![TriStateVector::zeros(8), TriStateVector::zeros(9)];
        assert!(matches!(
            BSom::from_weights(bad),
            Err(SomError::InputLengthMismatch {
                expected: 8,
                actual: 9
            })
        ));
        assert!(BSom::from_weights(Vec::new()).is_err());
    }

    #[test]
    fn winner_finds_exact_match() {
        let weights = vec![
            TriStateVector::from_str("1111").unwrap(),
            TriStateVector::from_str("0000").unwrap(),
            TriStateVector::from_str("1100").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("1100").unwrap())
            .unwrap();
        assert_eq!(w.index, 2);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_breaks_ties_towards_lower_index() {
        let weights = vec![
            TriStateVector::from_str("1111").unwrap(),
            TriStateVector::from_str("1111").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("1110").unwrap())
            .unwrap();
        assert_eq!(w.index, 0);
        assert_eq!(w.distance, 1.0);
    }

    #[test]
    fn all_dont_care_neuron_always_wins_with_distance_zero() {
        // The paper calls this case out explicitly.
        let weights = vec![
            TriStateVector::from_str("1010").unwrap(),
            TriStateVector::from_str("####").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        let w = som
            .winner(&BinaryVector::from_bit_str("0101").unwrap())
            .unwrap();
        assert_eq!(w.index, 1);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_tie_break_uses_the_cached_count_key() {
        // Both neurons sit at distance 0; the concrete one must win on the
        // cached #-count, exercising the {distance, #-count, address} key.
        let weights = vec![
            TriStateVector::from_str("##10").unwrap(),
            TriStateVector::from_str("1010").unwrap(),
        ];
        let som = BSom::from_weights(weights).unwrap();
        assert_eq!(som.dont_care_counts(), &[2, 0]);
        let w = som
            .winner(&BinaryVector::from_bit_str("1010").unwrap())
            .unwrap();
        assert_eq!(w.index, 1);
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn winner_rejects_wrong_length_input() {
        let som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.winner(&BinaryVector::zeros(8)),
            Err(SomError::InputLengthMismatch {
                expected: 16,
                actual: 8
            })
        ));
        assert!(som.distances(&BinaryVector::zeros(8)).is_err());
    }

    #[test]
    fn update_rule_agreement_keeps_disagreement_relaxes_dont_care_commits() {
        let weights = vec![TriStateVector::from_str("01#").unwrap()];
        // Undamped probabilities so the single-step rule is deterministic.
        let mut som = BSom::from_weights(weights)
            .unwrap()
            .with_update_probabilities(1.0, 1.0);
        let input = BinaryVector::from_bit_str("001").unwrap();
        // Radius is irrelevant for a single-neuron map.
        som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        let w = som.neuron(0).unwrap();
        // position 0: weight 0, input 0 -> keep 0
        // position 1: weight 1, input 0 -> relax to #
        // position 2: weight #, input 1 -> commit to 1
        assert_eq!(w.to_trit_string(), "0#1");
    }

    #[test]
    fn bit_serial_and_word_parallel_agree_exactly_for_undamped_probabilities() {
        // With p = 1 neither path consumes randomness, so the two datapaths
        // must produce bit-identical maps (the proptest suite broadens this).
        let mut r = rng();
        let config = BSomConfig::new(6, 70).with_update_probabilities(1.0, 1.0);
        let word = BSom::new(config, &mut r);
        let mut serial = word.clone();
        let mut word = word;
        let schedule = TrainSchedule::new(8);
        for t in 0..8 {
            let input = BinaryVector::random(70, &mut r);
            let ww = word.train_step(&input, t, &schedule).unwrap();
            let ws =
                crate::reference::train_step_bit_serial(&mut serial, &input, t, &schedule).unwrap();
            assert_eq!(ww.index, ws.index);
        }
        assert_eq!(word, serial);
    }

    #[test]
    fn window_and_per_neuron_paths_agree_exactly_for_undamped_probabilities() {
        // With p = 1 neither the broadcast window path nor the reference's
        // neuron-at-a-time path consumes randomness, so the two must produce
        // bit-identical maps under every neighbour rule (the
        // `window_update_equivalence` proptest suite broadens this).
        for rule in [
            NeighbourRule::SameAsWinner,
            NeighbourRule::RelaxOnly,
            NeighbourRule::WinnerOnly,
        ] {
            let mut r = rng();
            let config = BSomConfig::new(6, 70)
                .with_update_probabilities(1.0, 1.0)
                .with_neighbour_rule(rule);
            let reference = BSom::new(config, &mut r);
            let mut per_neuron = reference.clone();
            let mut window = reference;
            let schedule = TrainSchedule::new(8);
            for t in 0..8 {
                let input = BinaryVector::random(70, &mut r);
                let ww = window.train_step(&input, t, &schedule).unwrap();
                let wp =
                    crate::reference::train_step_bit_serial(&mut per_neuron, &input, t, &schedule)
                        .unwrap();
                assert_eq!(ww.index, wp.index, "rule {rule:?}");
            }
            assert_eq!(window, per_neuron, "rule {rule:?}");
            assert_eq!(window.dont_care_counts(), per_neuron.dont_care_counts());
        }
    }

    #[test]
    fn window_update_keeps_the_packed_layout_in_lockstep() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(9, 130), &mut r);
        let schedule = TrainSchedule::new(6);
        for t in 0..6 {
            let input = BinaryVector::random(130, &mut r);
            som.train_step(&input, t, &schedule).unwrap();
        }
        assert_eq!(som.packed_layer(), &PackedLayer::pack(&som));
    }

    #[test]
    fn repeated_pattern_converges_to_exact_match() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let pattern = BinaryVector::random(64, &mut r);
        som.train(
            std::slice::from_ref(&pattern),
            TrainSchedule::new(64),
            &mut r,
        )
        .unwrap();
        let w = som.winner(&pattern).unwrap();
        assert_eq!(w.distance, 0.0);
    }

    #[test]
    fn training_two_patterns_separates_them() {
        let mut r = rng();
        let a = BinaryVector::from_bits((0..64).map(|i| i < 32));
        let b = BinaryVector::from_bits((0..64).map(|i| i >= 32));
        let mut som = BSom::new(BSomConfig::new(8, 64), &mut r);
        som.train(&[a.clone(), b.clone()], TrainSchedule::new(200), &mut r)
            .unwrap();
        let wa = som.winner(&a).unwrap();
        let wb = som.winner(&b).unwrap();
        assert_eq!(wa.distance, 0.0);
        assert_eq!(wb.distance, 0.0);
        // The two patterns are 64 bits apart, so distinct neurons must win
        // (a single neuron cannot match both exactly unless it is all-#, and
        // the commit rule prevents a stable all-# winner for both).
        assert_ne!(wa.index, wb.index);
    }

    #[test]
    fn train_on_empty_dataset_errors() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(4, 16), &mut r);
        let empty: Vec<BinaryVector> = Vec::new();
        assert_eq!(
            som.train(&empty, TrainSchedule::new(10), &mut r),
            Err(SomError::EmptyTrainingSet)
        );
    }

    #[test]
    fn winner_only_rule_leaves_other_neurons_untouched() {
        let mut r = rng();
        let config = BSomConfig::new(6, 32).with_neighbour_rule(NeighbourRule::WinnerOnly);
        let mut som = BSom::new(config, &mut r);
        let before = som.neurons().to_vec();
        let input = BinaryVector::random(32, &mut r);
        let w = som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        for (i, (b, a)) in before.iter().zip(&som.neurons()).enumerate() {
            if i != w.index {
                assert_eq!(b, a, "neuron {i} changed despite WinnerOnly rule");
            }
        }
    }

    #[test]
    fn relax_only_neighbours_never_gain_concrete_bits() {
        let mut r = rng();
        let config = BSomConfig::new(6, 32).with_neighbour_rule(NeighbourRule::RelaxOnly);
        let mut som = BSom::new(config, &mut r);
        // Pre-relax neuron 1 fully so we can observe that it never re-commits.
        som.set_neuron(1, TriStateVector::all_dont_care(32))
            .unwrap();
        let input = BinaryVector::random(32, &mut r);
        // Force neuron 0 to be the winner by making it an exact match.
        som.set_neuron(0, TriStateVector::from_binary(&input))
            .unwrap();
        som.train_step(&input, 0, &TrainSchedule::new(1)).unwrap();
        assert_eq!(som.neuron(1).unwrap().count_dont_care(), 32);
    }

    #[test]
    fn set_neuron_validates_and_updates_the_cache() {
        let mut som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.set_neuron(4, TriStateVector::all_dont_care(16)),
            Err(SomError::NeuronOutOfRange {
                index: 4,
                neurons: 4
            })
        ));
        assert!(matches!(
            som.set_neuron(0, TriStateVector::all_dont_care(8)),
            Err(SomError::InputLengthMismatch {
                expected: 16,
                actual: 8
            })
        ));
        som.set_neuron(2, TriStateVector::all_dont_care(16))
            .unwrap();
        assert_eq!(som.dont_care_counts(), &[0, 0, 16, 0]);
        assert_eq!(som.total_dont_care(), 16);
    }

    #[test]
    fn cached_counts_stay_consistent_through_stochastic_training() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(8, 70), &mut r);
        let data: Vec<BinaryVector> = (0..5).map(|_| BinaryVector::random(70, &mut r)).collect();
        som.train(&data, TrainSchedule::new(30), &mut r).unwrap();
        for (i, neuron) in som.neurons().iter().enumerate() {
            assert_eq!(
                som.dont_care_counts()[i] as usize,
                neuron.count_dont_care(),
                "neuron {i}"
            );
        }
        assert_eq!(
            som.total_dont_care(),
            som.neurons()
                .iter()
                .map(TriStateVector::count_dont_care)
                .sum::<usize>()
        );
    }

    #[test]
    fn distances_are_consistent_with_winner() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(16, 96), &mut r);
        let input = BinaryVector::random(96, &mut r);
        let dists = som.distances(&input).unwrap();
        let w = som.winner(&input).unwrap();
        let min = dists.iter().cloned().fold(f64::INFINITY, f64::min);
        assert_eq!(w.distance, min);
        assert_eq!(dists[w.index], min);
    }

    #[test]
    fn neuron_out_of_range_errors() {
        let som = BSom::new(BSomConfig::new(4, 16), &mut rng());
        assert!(matches!(
            som.neuron(4),
            Err(SomError::NeuronOutOfRange {
                index: 4,
                neurons: 4
            })
        ));
    }

    #[test]
    fn serde_roundtrip_preserves_weights() {
        let mut r = rng();
        let mut som = BSom::new(BSomConfig::new(8, 64), &mut r);
        let data: Vec<BinaryVector> = (0..4).map(|_| BinaryVector::random(64, &mut r)).collect();
        som.train(&data, TrainSchedule::new(50), &mut r).unwrap();
        let json = serde_json::to_string(&som).unwrap();
        let back: BSom = serde_json::from_str(&json).unwrap();
        assert_eq!(som, back);
    }

    #[test]
    fn deserialize_rejects_inconsistent_snapshots() {
        let mut r = rng();
        let som = BSom::new(BSomConfig::new(4, 16), &mut r);
        let json = serde_json::to_string(&som).unwrap();

        // Neuron count disagreeing with the stored weights.
        let bad = json.replace("\"neurons\":4", "\"neurons\":5");
        assert_ne!(bad, json, "fixture must tamper the config");
        assert!(serde_json::from_str::<BSom>(&bad).is_err());

        // Out-of-range probability.
        let bad = json.replace("\"relax_probability\":0.3", "\"relax_probability\":1.5");
        assert_ne!(bad, json);
        assert!(serde_json::from_str::<BSom>(&bad).is_err());

        // The xorshift fixed point.
        let state = som.rng_state;
        let bad = json.replace(&format!("\"rng_state\":{state}"), "\"rng_state\":0");
        assert_ne!(bad, json);
        assert!(serde_json::from_str::<BSom>(&bad).is_err());

        // Tampered tri-state planes on a one-neuron `####` map: each must be
        // a decode error, never a panic or a silently accepted map.
        let blank = BSom::from_weights(vec![TriStateVector::all_dont_care(4)]).unwrap();
        let json = serde_json::to_string(&blank).unwrap();
        let value = "\"value\":{\"words\":[0]";
        let care = "\"care\":{\"words\":[0]";
        for (from, to) in [
            // Value bits outside the care plane: `####` holding value 1111
            // would commit to 1111 whatever the input.
            (value, "\"value\":{\"words\":[15]"),
            // More plane words than the length needs.
            (value, "\"value\":{\"words\":[0,0]"),
            // A care bit beyond the length.
            (care, "\"care\":{\"words\":[16]"),
        ] {
            let bad = json.replace(from, to);
            assert_ne!(bad, json, "fixture must tamper {from}");
            assert!(serde_json::from_str::<BSom>(&bad).is_err(), "{to} accepted");
        }
    }

    #[test]
    fn deserialize_rejects_unpackable_layers() {
        // Snapshots whose neuron list cannot form one packed layer of the
        // configured shape: each must be a decode error, never a panic.
        fn snapshot(config: BSomConfig, neurons: &[TriStateVector]) -> String {
            let neurons: Vec<String> = neurons
                .iter()
                .map(|n| serde_json::to_string(n).unwrap())
                .collect();
            format!(
                "{{\"config\":{},\"neurons\":[{}],\"rng_state\":7}}",
                serde_json::to_string(&config).unwrap(),
                neurons.join(",")
            )
        }
        let config = BSomConfig::new(2, 8);
        let good = snapshot(
            config,
            &[TriStateVector::zeros(8), TriStateVector::zeros(8)],
        );
        assert!(serde_json::from_str::<BSom>(&good).is_ok());

        for (case, neurons) in [
            ("empty layer", Vec::new()),
            (
                "unequal neuron lengths",
                vec![TriStateVector::zeros(8), TriStateVector::zeros(9)],
            ),
            (
                "vector length disagreeing with the config",
                vec![TriStateVector::zeros(9), TriStateVector::zeros(9)],
            ),
        ] {
            let bad = snapshot(config, &neurons);
            assert!(
                serde_json::from_str::<BSom>(&bad).is_err(),
                "{case} accepted"
            );
        }
    }
}
