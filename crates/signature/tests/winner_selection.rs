//! Property suite for the **winner-take-all** selection
//! (DESIGN.md §"Winner selection and the WTA tie-break key").
//!
//! [`select_winner`] scans per-neuron distances once, keeping the minimum
//! `{distance, #-count, address}` [`WtaKey`] — the software shape of the
//! FPGA comparator. The suite pins it to an independent oracle (the minimum
//! of the plain lexicographic tuple) for arbitrary and tie-heavy tables, and
//! pins the key's derived ordering to the documented comparator.

use bsom_signature::{select_winner, WtaKey};
use proptest::prelude::*;

/// The independent oracle: address and distance of the minimum
/// `(distance, #-count, address)` tuple.
fn tuple_minimum(distances: &[u32], counts: &[u32]) -> Option<(usize, u32)> {
    (0..distances.len())
        .min_by_key(|&i| (distances[i], counts[i], i))
        .map(|i| (i, distances[i]))
}

proptest! {
    /// Arbitrary distance/#-count tables and arbitrary map sizes; the
    /// tie-heavy half draws from tiny domains so most comparisons fall
    /// through to the #-count or the address.
    #[test]
    fn linear_scan_matches_the_key_minimum_for_arbitrary_maps(
        rows in prop::collection::vec((0u32..2000, 0u32..800), 1..200),
        tie_heavy in any::<bool>(),
    ) {
        let (mut distances, mut counts): (Vec<u32>, Vec<u32>) = rows.into_iter().unzip();
        if tie_heavy {
            distances.iter_mut().for_each(|d| *d %= 3);
            counts.iter_mut().for_each(|c| *c %= 3);
        }
        prop_assert_eq!(
            select_winner(&distances, &counts),
            tuple_minimum(&distances, &counts)
        );
    }
}

#[test]
fn key_ordering_is_the_documented_lexicographic_comparator() {
    let a = WtaKey {
        distance: 1,
        dont_care_count: 700,
        address: 900,
    };
    let b = WtaKey {
        distance: 2,
        dont_care_count: 0,
        address: 0,
    };
    assert!(a < b, "distance dominates both tie-break components");
    let c = WtaKey {
        distance: 1,
        dont_care_count: 699,
        address: 901,
    };
    assert!(c < a, "#-count dominates address");
}

#[test]
fn empty_map_has_no_winner() {
    assert_eq!(select_winner(&[], &[]), None);
    assert_eq!(tuple_minimum(&[], &[]), None);
}
