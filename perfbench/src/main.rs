//! `perfbench`: the end-to-end and per-layer benchmark of the bSOM
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload stream|bulk|fleet|paper [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Every input is generated from `--seed`.
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics from a separate traced window with
//! `--trace 1`. Any output-check mismatch exits with code 1.

mod config;
mod fleet;
mod gen;
mod host;
mod layers;
mod paper;
mod serving;
mod single;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use util::{json_number, Outcome, Seeds};

/// The end-to-end metrics every workload reports, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("signatures_per_s", "1/s"),
];

/// The per-layer metrics of the traced run. A layer a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("gen.late_p99_ms", "ms"),
    ("ledger.failed_share", "share"),
    ("e2e.p99_ms", "ms"),
    ("e2e.sparse_p50_ms", "ms"),
    ("e2e.sparse_p99_ms", "ms"),
    ("e2e.train_ack_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.request_bytes", "B"),
    ("scheduler.wait_p50_us", "us"),
    ("scheduler.batch_sigs_mean", "count"),
    ("scheduler.coalesced_share", "share"),
    ("scheduler.delay_us", "us"),
    ("scheduler.shed", "count"),
    ("service.classify_batch_us", "us"),
    ("service.queue_depth_max", "count"),
    ("trainer.feed_us", "us"),
    ("trainer.publish_us", "us"),
    ("trainer.versions", "count"),
    ("som.winner_us", "us"),
    ("som.winners_per_sig_us", "us"),
    ("som.train_step_us", "us"),
    ("signature.hamming_row_ns", "ns"),
    ("registry.tick_p50_ms", "ms"),
    ("registry.tick_p99_ms", "ms"),
    ("registry.tick_busy_share", "share"),
    ("registry.steps_per_tick", "count"),
    ("registry.reloads_per_s", "1/s"),
    ("registry.evictions_per_s", "1/s"),
    ("registry.pending_max", "count"),
    ("registry.feed_us", "us"),
    ("registry.classify_hot_us", "us"),
    ("checkpoint.evict_ms", "ms"),
    ("checkpoint.reload_ms", "ms"),
    ("checkpoint.frame_bytes", "B"),
    ("checkpoint.restore_ms", "ms"),
    ("eval.csom_run_s", "s"),
    ("eval.bsom_run_s", "s"),
    ("eval.dataset_s", "s"),
    ("reconcile.sweep_error_share", "share"),
    ("reconcile.tick_busy_error_share", "share"),
    ("signature.dispatch_lanes", "count"),
    ("paper.sweeps", "count"),
    ("host.steal_share", "share"),
];

const USAGE: &str =
    "usage: perfbench --workload stream|bulk|fleet|paper [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: config::GOLDEN_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Scratch space inside the checkout, next to the benchmark's build.
fn work_dir() -> PathBuf {
    Path::new(".bench_build").join("perfbench")
}

/// Writes a traced run's spans as JSON lines under the work directory.
pub fn write_trace(
    tracer: &trace::Tracer,
    trace: &trace::Trace,
    workload: &str,
    out: &mut Outcome,
) {
    let path = work_dir().join(format!("trace-{workload}.jsonl"));
    match trace.write_jsonl(tracer, &path) {
        Ok(()) => out.note(format!(
            "trace: {} spans written to {}",
            trace.spans.len(),
            path.display()
        )),
        Err(e) => out.note(format!("trace: could not write {}: {e}", path.display())),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = work_dir().join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::from(2);
    }
    let seeds = Seeds::new(args.seed);
    let dispatch = bsom_signature::active_dispatch();
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} dispatch={} cpus={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        dispatch.name(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(0)
    );
    let run_clock = host::read();
    let mut outcome = match args.workload.as_str() {
        "stream" => single::run_stream(&seeds, args.seconds, args.trace),
        "bulk" => single::run_bulk(&seeds, args.seconds, args.trace, &scratch),
        "fleet" => fleet::run(&seeds, args.seconds, args.trace, &scratch),
        "paper" => paper::run(&seeds, args.seconds, args.trace),
        other => {
            let _ = std::fs::remove_dir_all(&scratch);
            eprintln!("perfbench: unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&scratch);
    // Share of the CPU time this VM demanded that the shared host took away
    // while the run went on: high values mark a contended run.
    let steal = host::steal_since(run_clock);
    outcome.note(format!(
        "host: the hypervisor stole {:.1}% of the CPU time the run demanded",
        steal * 100.0
    ));
    if args.trace {
        outcome.layer(
            "ledger.failed_share",
            "share",
            outcome.ledger.failed_share(),
        );
        outcome.layer(
            "signature.dispatch_lanes",
            "count",
            dispatch_lanes(dispatch),
        );
        outcome.layer("host.steal_share", "share", steal);
    }
    report(&args, outcome)
}

/// 64-bit lanes per step of the active word-kernel lowering (the dispatch
/// label as a number: 1 scalar, 4/8 wide).
fn dispatch_lanes(dispatch: bsom_signature::Dispatch) -> f64 {
    use bsom_signature::Dispatch;
    match dispatch {
        Dispatch::Scalar => 1.0,
        Dispatch::Neon => 2.0,
        Dispatch::Lanes4 | Dispatch::Avx2 => 4.0,
        Dispatch::Lanes8 | Dispatch::Avx512 => 8.0,
    }
}

fn report(args: &Args, mut outcome: Outcome) -> ExitCode {
    if !outcome.ledger.balances() {
        outcome.problem(format!("ledger does not balance: {:?}", outcome.ledger));
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let (names, from): (&[(&str, &str)], &[util::Metric]) = if args.trace {
        (&PER_LAYER, &outcome.per_layer)
    } else {
        (&END_TO_END, &outcome.end_to_end)
    };
    let mut fields = Vec::new();
    let mut missing = Vec::new();
    for (name, unit) in names {
        let value = from.iter().rev().find(|m| m.name == *name).map(|m| m.value);
        let value = match value {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                missing.push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if !args.trace {
            println!("{name} = {value:.6} {unit}");
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    outcome.problems.extend(missing);
    if args.trace {
        for (name, unit) in PER_LAYER {
            let value = outcome
                .per_layer
                .iter()
                .rev()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            println!("{name} = {value:.6} {unit}");
        }
    }
    for problem in &outcome.problems {
        println!("PROBLEM: {problem}");
    }
    let correct = outcome.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        (outcome.ledger.sent + outcome.extra_attempted).max(1),
        outcome.ledger.failed(),
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_metric_lists() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = text.matches("\"name\":").count();
        // Four workloads plus every metric.
        assert_eq!(declared, 4 + END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
