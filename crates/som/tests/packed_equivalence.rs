//! Property suite pinning the batch/scalar winner-search equivalence
//! (DESIGN.md §"The batched engine layout"): for arbitrary layers and inputs
//! — including engineered ties and layers wider than 64 neurons — the
//! plane-sliced [`PackedLayer`] search must return a bit-identical
//! `{winner, distance, #-count}` to an independent per-neuron scan, and
//! identical full distance vectors. The scan lives in this file and shares
//! no code with the packed kernels: [`TriStateVector::hamming`] per neuron,
//! then the minimum of `{distance, #-count, address}`.

use bsom_signature::{BinaryVector, TriStateVector, Trit};
use bsom_som::{BSom, PackedLayer, SelfOrganizingMap};
use proptest::prelude::*;

/// Strategy producing an arbitrary binary input of the given length.
fn binary_vector(len: usize) -> impl Strategy<Value = BinaryVector> {
    prop::collection::vec(any::<bool>(), len).prop_map(BinaryVector::from_bits)
}

/// Strategy producing an arbitrary tri-state weight vector of the given
/// length, with all three trit kinds well represented.
fn tristate_vector(len: usize) -> impl Strategy<Value = TriStateVector> {
    prop::collection::vec(0u8..3, len).prop_map(|raw| {
        TriStateVector::from_trits(raw.into_iter().map(|v| match v {
            0 => Trit::Zero,
            1 => Trit::One,
            _ => Trit::DontCare,
        }))
    })
}

/// Strategy producing a whole competitive layer: 1–12 neurons over vectors
/// spanning several 64-bit words (so the masked tail word is exercised).
fn layer(len: usize) -> impl Strategy<Value = Vec<TriStateVector>> {
    prop::collection::vec(tristate_vector(len), 1..12)
}

/// A layer engineered to produce distance ties: neurons are drawn from a
/// tiny pool of base vectors, with only `#`-counts and addresses left to
/// disambiguate.
fn tie_heavy_layer(len: usize) -> impl Strategy<Value = Vec<TriStateVector>> {
    (prop::collection::vec(tristate_vector(len), 1..3), 2usize..9).prop_map(|(bases, copies)| {
        let mut neurons = Vec::new();
        for _ in 0..copies {
            neurons.extend(bases.iter().cloned());
        }
        neurons
    })
}

/// A wide layer engineered for ties at scale: every neuron is `#` except
/// its first three trits, so distances fall in `{0..3}` and `#`-counts in
/// `{61..64}`, and among 60–200 neurons nearly every comparison is decided
/// by a deeper key component.
fn tie_heavy_wide_layer() -> impl Strategy<Value = Vec<TriStateVector>> {
    prop::collection::vec(prop::collection::vec(0u8..3, 3), 60..200).prop_map(|heads| {
        heads
            .into_iter()
            .map(|head| {
                TriStateVector::from_trits((0..64).map(|k| match head.get(k) {
                    Some(0) => Trit::Zero,
                    Some(1) => Trit::One,
                    _ => Trit::DontCare,
                }))
            })
            .collect()
    })
}

/// The independent scalar oracle: per-neuron distances, and the address of
/// the minimum `{distance, #-count, address}` key. `None` when the input
/// length does not match the layer.
fn scalar_scan(weights: &[TriStateVector], input: &BinaryVector) -> Option<(Vec<u32>, usize)> {
    let distances = weights
        .iter()
        .map(|w| w.hamming(input).ok().map(|d| d as u32))
        .collect::<Option<Vec<u32>>>()?;
    let winner =
        (0..weights.len()).min_by_key(|&i| (distances[i], weights[i].count_dont_care(), i))?;
    Some((distances, winner))
}

/// Asserts full scalar/batched agreement for one layer and one input.
fn assert_equivalent(
    weights: Vec<TriStateVector>,
    input: &BinaryVector,
) -> Result<(), TestCaseError> {
    let som = BSom::from_weights(weights.clone()).expect("non-empty layer");
    let packed = PackedLayer::from_neurons(&weights).expect("non-empty layer");

    let scalar = scalar_scan(&weights, input);
    let packed_distances = packed.distances(input);
    prop_assert_eq!(scalar.is_some(), packed_distances.is_ok());
    prop_assert_eq!(som.winner(input).is_ok(), packed_distances.is_ok());
    let (Some((scalar_distances, scalar_index)), Ok(packed_distances)) = (scalar, packed_distances)
    else {
        return Ok(()); // both rejected the input (length mismatch)
    };
    prop_assert_eq!(&scalar_distances, &packed_distances);
    let map_distances = som.distances(input).unwrap();
    for (s, m) in scalar_distances.iter().zip(&map_distances) {
        prop_assert_eq!(*s as f64, *m);
    }

    let scalar_distance = scalar_distances[scalar_index];
    let batched = packed.winner(input).unwrap();
    prop_assert_eq!(batched.index, scalar_index);
    prop_assert_eq!(batched.distance, scalar_distance);
    prop_assert_eq!(
        batched.dont_care_count as usize,
        weights[batched.index].count_dont_care()
    );
    let via_map = som.winner(input).unwrap();
    prop_assert_eq!(via_map.index, scalar_index);
    prop_assert_eq!(via_map.distance, scalar_distance as f64);
    Ok(())
}

proptest! {
    /// Arbitrary layers and inputs across a word boundary (len 96 = 1.5 words).
    #[test]
    fn batch_winner_matches_scalar_loop(weights in layer(96), input in binary_vector(96)) {
        assert_equivalent(weights, &input)?;
    }

    /// Tie-heavy layers: duplicated neurons force the `{distance, #-count,
    /// address}` tie-break to decide, and it must decide identically.
    #[test]
    fn tie_breaks_are_bit_identical(weights in tie_heavy_layer(64), input in binary_vector(64)) {
        assert_equivalent(weights, &input)?;
    }

    /// The paper's exact shape: 768-bit vectors (12 whole words, no tail).
    #[test]
    fn paper_width_vectors_agree(weights in layer(768), input in binary_vector(768)) {
        assert_equivalent(weights, &input)?;
    }

    /// Wrong-length inputs must be rejected by both paths, never mis-scored.
    #[test]
    fn both_paths_reject_mismatched_lengths(weights in layer(96), input in binary_vector(64)) {
        assert_equivalent(weights, &input)?;
    }

    /// Layers wider than 64 neurons: the winner equals the scalar scan and
    /// the linear [`select_winner`](bsom_signature::select_winner) over the
    /// layer's own distance vector.
    #[test]
    fn wide_layer_winner_equals_linear_scan(
        weights in prop::collection::vec(tristate_vector(96), 60..160),
        input in binary_vector(96),
    ) {
        let packed = PackedLayer::from_neurons(&weights).expect("non-empty layer");
        let distances = packed.distances(&input).unwrap();
        let (index, distance) =
            bsom_signature::select_winner(&distances, packed.dont_care_counts()).unwrap();
        let winner = packed.winner(&input).unwrap();
        prop_assert_eq!(winner.index, index);
        prop_assert_eq!(winner.distance, distance);
        prop_assert_eq!(winner.dont_care_count, packed.dont_care_counts()[index]);
        assert_equivalent(weights, &input)?;
    }

    /// Tie-heavy layers wider than 64 neurons: distance and `#`-count ties
    /// everywhere, so the address decides most comparisons.
    #[test]
    fn tie_heavy_wide_layers_resolve_like_the_scalar_scan(
        weights in tie_heavy_wide_layer(),
        input in binary_vector(64),
    ) {
        assert_equivalent(weights, &input)?;
    }

    /// A batched call over many inputs equals one-at-a-time calls.
    #[test]
    fn winners_batch_equals_pointwise(
        weights in layer(96),
        inputs in prop::collection::vec(binary_vector(96), 1..8),
    ) {
        let packed = PackedLayer::from_neurons(&weights).expect("non-empty layer");
        let batch = packed.winners(&inputs).unwrap();
        for (input, batched) in inputs.iter().zip(&batch) {
            prop_assert_eq!(*batched, packed.winner(input).unwrap());
        }
    }
}

/// A run of fully tied `{distance, #-count}` keys planted across address 64
/// must resolve to its lowest address, with every other neuron strictly
/// worse.
#[test]
fn planted_tie_run_resolves_to_its_lowest_address() {
    let input = BinaryVector::from_bits((0..96).map(|i| i % 5 == 0));
    let exact = TriStateVector::from_binary(&input);
    let worse = TriStateVector::from_binary(&!&input);
    for (lo, hi) in [(60usize, 68usize), (63, 65), (64, 70), (0, 130)] {
        let weights: Vec<TriStateVector> = (0..130)
            .map(|i| {
                if (lo..hi).contains(&i) {
                    exact.clone()
                } else {
                    worse.clone()
                }
            })
            .collect();
        let packed = PackedLayer::from_neurons(&weights).unwrap();
        let winner = packed.winner(&input).unwrap();
        assert_eq!((winner.index, winner.distance), (lo, 0), "run {lo}..{hi}");
        assert_eq!(scalar_scan(&weights, &input).unwrap().1, lo);
    }
}
