//! The `paper` workload: a reduced Table I protocol — 40-neuron maps, a
//! few iteration budgets, one repetition, a 900 / 450 dataset — run through
//! the public `table1::bsom_accuracy` / `csom_accuracy`, single-threaded,
//! with no server. The window repeats the sweep; each sweep must give the
//! same accuracy table, and the table for the golden seed must equal the
//! one stored with the benchmark.

use std::time::{Duration, Instant};

use bsom_dataset::{DatasetConfig, SurveillanceDataset};
use bsom_eval::table1;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{self, paper as P};
use crate::host;
use crate::trace::{Trace, Tracer};
use crate::util::{median, percentile, tag, Outcome, Seeds};

/// The golden accuracy table for [`config::GOLDEN_SEED`].
const GOLDEN: &str = include_str!("../golden/paper_table.txt");

/// Allowed gap between the traced window's summed eval spans and the
/// untraced window's set-up plus median sweep: two windows of the same run,
/// timed by different code, that differ by the tracing and by the host's
/// drift, which moves single-threaded sweeps by up to a sixth between
/// windows seconds apart.
const SWEEP_TOLERANCE: f64 = 0.20;

fn dataset_config() -> DatasetConfig {
    DatasetConfig {
        train_instances: P::TRAIN_INSTANCES,
        test_instances: P::TEST_INSTANCES,
        ..DatasetConfig::paper_default()
    }
}

fn dataset(seeds: &Seeds) -> SurveillanceDataset {
    SurveillanceDataset::generate(
        &dataset_config(),
        &mut StdRng::seed_from_u64(seeds.derive(tag::DATASET, 0)),
    )
}

/// One sweep's accuracy table, one `(budget, csom %, bsom %)` row per budget.
type Table = Vec<(usize, f64, f64)>;

/// Renders a table in the golden file's format (full precision).
pub fn render(table: &Table) -> String {
    table
        .iter()
        .map(|(budget, csom, bsom)| format!("{budget} {csom:?} {bsom:?}\n"))
        .collect()
}

/// One sweep's table and its wall time.
struct Sweep {
    table: Table,
    took: Duration,
}

/// Runs one sweep; with a span buffer, records `eval.csom_run` and
/// `eval.bsom_run` under an `eval.sweep` parent.
fn sweep(
    ds: &SurveillanceDataset,
    seeds: &Seeds,
    spans: Option<&mut crate::trace::SpanBuf>,
) -> Sweep {
    let begin = Instant::now();
    let mut table = Vec::new();
    let mut spans = spans;
    let parent = spans.as_ref().map(|s| s.reserve()).unwrap_or(0);
    for (i, &budget) in P::BUDGETS.iter().enumerate() {
        let seed = seeds.derive(tag::CELLS, i as u64);
        let t0 = Instant::now();
        let csom = table1::csom_accuracy(ds, P::NEURONS, budget, seed);
        let t1 = Instant::now();
        let bsom = table1::bsom_accuracy(ds, P::NEURONS, budget, seed ^ 0xB50A);
        let t2 = Instant::now();
        if let Some(spans) = spans.as_mut() {
            spans.record("eval.csom_run", parent, budget as u64, t0, t1);
            spans.record("eval.bsom_run", parent, budget as u64, t1, t2);
        }
        table.push((budget, csom, bsom));
    }
    let end = Instant::now();
    if let Some(spans) = spans {
        spans.record_reserved(parent, "eval.sweep", 0, begin, end);
    }
    Sweep {
        table,
        took: end - begin,
    }
}

/// Signatures one sweep processes: training presentations plus the
/// labelling pass and the test pass of every cell, for both maps.
fn signatures_per_sweep() -> f64 {
    let per_cell = |budget: usize| {
        (budget * P::TRAIN_INSTANCES + P::TRAIN_INSTANCES + P::TEST_INSTANCES) as f64
    };
    2.0 * P::BUDGETS.iter().map(|&b| per_cell(b)).sum::<f64>()
}

struct Window {
    /// Every sweep's duration in seconds.
    times: Vec<f64>,
    table: Table,
}

fn window(
    ds: &SurveillanceDataset,
    seeds: &Seeds,
    seconds: f64,
    spans: Option<&mut crate::trace::SpanBuf>,
    out: &mut Outcome,
) -> Window {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut first: Option<Table> = None;
    let mut spans = spans;
    // At least three sweeps, so the median is a median; no sweep starts
    // that would end past the window.
    let mut last = 0.0;
    while times.len() < 3 || start.elapsed().as_secs_f64() + last <= seconds {
        let one = sweep(ds, seeds, spans.as_deref_mut());
        last = one.took.as_secs_f64();
        times.push(last);
        match &first {
            None => first = Some(one.table),
            Some(t) if *t != one.table => {
                out.problem("paper: a repeated sweep gave a different accuracy table");
            }
            Some(_) => {}
        }
    }
    Window {
        times,
        table: first.expect("at least one sweep"),
    }
}

pub fn run(seeds: &Seeds, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let tracer = Tracer::new();
    let mut trace = Trace::default();
    let mut spans = tracer.buf();

    let mut setup = Vec::new();
    let mut ds = None;
    for _ in 0..config::SETUP_REPEATS {
        let begin = Instant::now();
        let generated = dataset(seeds);
        let end = Instant::now();
        spans.record("eval.dataset", 0, 0, begin, end);
        setup.push((end - begin).as_secs_f64());
        ds = Some(generated);
    }
    let ds = ds.expect("at least one set-up");

    let mut sweeps_run = 0;
    let gated = host::gated(|_| {
        let w = window(&ds, seeds, seconds, None, &mut out);
        sweeps_run += w.times.len();
        w
    });
    out.note(gated.describe("timed"));
    out.e2e("peak_rss_mb", "MB", gated.first_peak_rss_mb);
    let timed = gated.value;
    let sweep_s = median(&timed.times);
    let mut sorted = timed.times.clone();
    sorted.sort_by(f64::total_cmp);
    let sweep_p90 = percentile(&sorted, 0.90).unwrap_or(0.0);
    // The window's mean rate over every sweep, beside the median sweep.
    let sigs = signatures_per_sweep() * timed.times.len() as f64 / timed.times.iter().sum::<f64>();
    out.extra_attempted = (sweeps_run * P::BUDGETS.len() * 2) as u64;
    out.note(format!(
        "sweep_s = {sweep_s:.4} s, sweep p90 {sweep_p90:.4} s (n={} sweeps); {sigs:.0} signatures/s over the window; budgets {:?}, {} neurons, {}/{} instances",
        timed.times.len(),
        P::BUDGETS,
        P::NEURONS,
        P::TRAIN_INSTANCES,
        P::TEST_INSTANCES
    ));
    for (budget, csom, bsom) in &timed.table {
        out.note(format!(
            "table I row: {budget} iterations: cSOM {csom:.2}%  bSOM {bsom:.2}%"
        ));
    }
    let setup_s = median(&setup);
    out.note(format!(
        "setup_s = {setup_s:.4} s, the median of {} dataset generations: {:?}",
        setup.len(),
        setup
            .iter()
            .map(|t| (t * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    ));
    out.e2e("setup_s", "s", setup_s);
    out.e2e("p50_ms", "ms", sweep_s * 1e3);
    out.e2e("p90_ms", "ms", sweep_p90 * 1e3);
    out.e2e("signatures_per_s", "1/s", sigs);

    // Output check: the golden seed's table must equal the stored one.
    let golden_table = if seeds_are_golden(seeds) {
        timed.table.clone()
    } else {
        let golden_seeds = Seeds::new(config::GOLDEN_SEED);
        sweep(&dataset(&golden_seeds), &golden_seeds, None).table
    };
    if render(&golden_table) != GOLDEN {
        out.problem(format!(
            "paper: accuracy table for seed {} differs from golden/paper_table.txt:\n{}",
            config::GOLDEN_SEED,
            render(&golden_table)
        ));
    }
    out.note(format!(
        "output check: seed {} accuracy table vs golden/paper_table.txt; sweeps repeat bit-identically",
        config::GOLDEN_SEED
    ));
    for (_, csom, bsom) in &timed.table {
        if *csom < 30.0 || *bsom < 30.0 {
            out.problem(format!(
                "paper: accuracy {csom:.2}% / {bsom:.2}% is near chance"
            ));
        }
    }

    if traced {
        let w = host::gated(|_| {
            let mut attempt = tracer.buf();
            let w = window(&ds, seeds, seconds, Some(&mut attempt), &mut out);
            (w, attempt)
        });
        out.note(w.describe("traced"));
        let (w, attempt) = w.value;
        trace.absorb(spans);
        trace.absorb(attempt);
        let n = w.times.len() as f64;
        let csom = trace.total("eval.csom_run").as_secs_f64() / n;
        let bsom = trace.total("eval.bsom_run").as_secs_f64() / n;
        let dataset_s = median(
            &trace
                .durations("eval.dataset")
                .iter()
                .map(Duration::as_secs_f64)
                .collect::<Vec<_>>(),
        );
        out.layer("eval.csom_run_s", "s", csom);
        out.layer("eval.bsom_run_s", "s", bsom);
        out.layer("eval.dataset_s", "s", dataset_s);
        let traced_sweep = median(&w.times);
        out.layer(
            "trace.overhead_share",
            "share",
            (traced_sweep - sweep_s) / sweep_s,
        );
        out.note(format!(
            "tracing overhead: sweep {traced_sweep:.4} s traced vs {sweep_s:.4} s untraced"
        ));
        // Reconciliation: the traced window's dataset + cSOM + bSOM spans
        // against the untraced run's set-up plus median sweep.
        let parts = dataset_s + csom + bsom;
        let whole = setup_s + sweep_s;
        let error = (parts - whole).abs() / whole;
        out.note(format!(
            "reconcile: eval.dataset_s + eval.csom_run_s + eval.bsom_run_s = {parts:.4} s (traced) vs setup_s + sweep_s = {whole:.4} s (untraced): error {:.3}% (tolerance {:.0}%)",
            error * 100.0,
            SWEEP_TOLERANCE * 100.0
        ));
        out.layer("reconcile.sweep_error_share", "share", error);
        if error > SWEEP_TOLERANCE {
            out.problem(format!(
                "reconciliation failed: sweep error {:.3}% > {:.0}%",
                error * 100.0,
                SWEEP_TOLERANCE * 100.0
            ));
        }
        // The bSOM layer on the paper's own data.
        let som = bsom_som::BSom::new(
            bsom_som::BSomConfig::new(P::NEURONS, crate::serving::VECTOR_LEN),
            &mut StdRng::seed_from_u64(seeds.derive(tag::MAP, 0)),
        );
        let probes: Vec<_> = ds.test.iter().map(|(s, _)| s.clone()).collect();
        crate::layers::record_som(&mut out, som.packed_layer(), &probes, 150, &som, &ds.train);
        out.layer("paper.sweeps", "count", n);
        crate::write_trace(&tracer, &trace, "paper", &mut out);
    }
    out
}

fn seeds_are_golden(seeds: &Seeds) -> bool {
    seeds.derive(tag::DATASET, 0) == Seeds::new(config::GOLDEN_SEED).derive(tag::DATASET, 0)
}
