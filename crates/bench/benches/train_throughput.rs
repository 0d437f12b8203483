//! Training-datapath workload (DESIGN.md §"The word-parallel trainer"): the
//! bit-serial per-trit update loop versus the word-parallel (value, care)
//! plane kernels, on the paper's 40-neuron × 768-bit configuration — the
//! acceptance micro-benchmark for the word-parallel trainer, mirroring what
//! `engine_batch.rs` is for the recognition side.

use bsom_bench::bench_dataset;
use bsom_engine::{EngineConfig, SomService};
use bsom_som::reference::train_step_bit_serial;
use bsom_som::{BSom, BSomConfig, ObjectLabel, SelfOrganizingMap, TrainSchedule};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn train_throughput(c: &mut Criterion) {
    let dataset = bench_dataset();
    let signatures = dataset.train_signatures();
    let schedule = TrainSchedule::new(usize::MAX); // hold the radius fixed across rounds
    let fresh = || {
        BSom::new(
            BSomConfig::paper_default(),
            &mut StdRng::seed_from_u64(0xB50A),
        )
    };

    let mut group = c.benchmark_group("train_throughput");
    group.throughput(Throughput::Elements(signatures.len() as u64));

    // The bit-serial reference: one trit visit + one scalar coin per weight
    // bit, 768 bits x up to 9 neighbourhood neurons per step.
    group.bench_function("bit_serial_epoch", |b| {
        let mut som = fresh();
        let mut t = 0usize;
        b.iter(|| {
            for s in &signatures {
                black_box(train_step_bit_serial(&mut som, s, t, &schedule).unwrap());
            }
            t += 1;
        })
    });

    // The production path: Bernoulli mask words + the three-bitwise-op
    // update kernel, applied to the whole neighbourhood window on the
    // packed columns under one broadcast mask stream (see
    // `neighbourhood_update.rs` for the radius sweep), with incrementally
    // maintained #-counts in the winner search.
    group.bench_function("word_parallel_epoch", |b| {
        let mut som = fresh();
        let mut t = 0usize;
        b.iter(|| {
            for s in &signatures {
                black_box(som.train_step(s, t, &schedule).unwrap());
            }
            t += 1;
        })
    });

    // The same path through the service's Trainer (adds shuffling, win-stat
    // accumulation and one snapshot publish per epoch — the production
    // train-while-serve entry point; publish cost must stay in the noise).
    group.bench_function("service_trainer_epoch", |b| {
        let labelled: Vec<(_, ObjectLabel)> = signatures
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), ObjectLabel::new(i % 9)))
            .collect();
        let (_service, mut trainer) = SomService::train_while_serve(
            fresh(),
            TrainSchedule::new(usize::MAX),
            &[],
            EngineConfig::with_workers(1),
        );
        let mut rng = StdRng::seed_from_u64(0x5EED);
        b.iter(|| {
            black_box(trainer.train_epochs(&labelled, 1, &mut rng).unwrap());
        })
    });

    group.finish();
}

criterion_group!(benches, train_throughput);
criterion_main!(benches);
