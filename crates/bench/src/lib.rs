//! # bsom-bench
//!
//! Home of the `bench_report` binary, which writes the gated `BENCH_*.json`
//! speed figures (README §"Benchmarks"). The paper's tables and figures come
//! from `bsom-eval <experiment>`; this library only holds the fixture dataset
//! the reporter measures on, so every report sees the same signatures.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use bsom_dataset::{DatasetConfig, SurveillanceDataset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Training-split size of the benchmark fixture dataset (a reduced volume:
/// the reporter times the hot paths, not the paper's accuracy).
pub const BENCH_TRAIN: usize = 300;

/// Test-split size of the benchmark fixture dataset.
pub const BENCH_TEST: usize = 150;

/// Builds the shared benchmark dataset (nine identities, reduced volume,
/// paper-default corruption), deterministically from a fixed seed.
pub fn bench_dataset() -> SurveillanceDataset {
    let config = DatasetConfig {
        train_instances: BENCH_TRAIN,
        test_instances: BENCH_TEST,
        ..DatasetConfig::paper_default()
    };
    SurveillanceDataset::generate(&config, &mut StdRng::seed_from_u64(0xBE9C))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic_and_correctly_sized() {
        let a = bench_dataset();
        let b = bench_dataset();
        assert_eq!(a.train, b.train);
        assert_eq!(a.train.len(), BENCH_TRAIN);
        assert_eq!(a.test.len(), BENCH_TEST);
    }
}
