//! Every rate, size, mix and budget of the benchmark, fixed once.
//!
//! They were chosen on a 2-CPU x86-64 box so that no workload sheds or
//! fails, and they are never derived from measured capacity at run time.

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 7;
/// Seed the paper workload's golden accuracy table was recorded with.
pub const GOLDEN_SEED: u64 = 1;
/// Open-loop generator lateness beyond which a run is invalid. A median lag
/// above `GEN_LATE_P50_LIMIT_MS` means the sender cannot keep pace with its
/// schedule; a p99 lag above `GEN_LATE_P99_LIMIT_MS` means stalls reshaped
/// the schedule itself. Short whole-machine stalls (a host-side disk flush
/// under the fleet's fsyncs) delay the sender like every other thread and
/// stay below the p99 limit.
pub const GEN_LATE_P50_LIMIT_MS: f64 = 1.0;
pub const GEN_LATE_P99_LIMIT_MS: f64 = 100.0;
/// Warm-up before the measured phases (caches, adaptive deadline).
pub const WARMUP_MS: u64 = 300;

pub mod stream {
    /// The paper's map: 40 neurons x 768 bits.
    pub const NEURONS: usize = 40;
    /// Corpus examples per label (the trainer's feed set).
    pub const CORPUS_PER_LABEL: usize = 32;
    /// Trainer feed rate, steps per second; publishes every 64 steps.
    pub const TRAIN_RATE: f64 = 2_000.0;
    pub const PUBLISH_EVERY: u64 = 64;
    /// Distinct single-signature frames cycled by the generator.
    pub const FRAME_POOL: usize = 4096;
    /// Open-loop Poisson rates of the sparse and busy phases.
    pub const SPARSE_RATE: f64 = 1_000.0;
    pub const BUSY_RATE: f64 = 10_000.0;
    /// Closed-loop capacity phase: connections x pipelined singletons.
    pub const CAPACITY_CONNECTIONS: usize = 2;
    pub const CAPACITY_IN_FLIGHT: usize = 64;
    /// Shares of `--seconds` given to the sparse, busy and capacity phases.
    pub const PHASE_SHARES: [f64; 3] = [0.3, 0.4, 0.3];
}

pub mod bulk {
    /// The scale-out map restored from a checkpoint: 1024 x 768.
    pub const NEURONS: usize = 1024;
    pub const CORPUS_PER_LABEL: usize = 32;
    /// Steps fed before the checkpoint is written.
    pub const PRETRAIN_STEPS: usize = 256;
    pub const TRAIN_RATE: f64 = 400.0;
    pub const PUBLISH_EVERY: u64 = 64;
    /// Signatures per classify request.
    pub const BATCH: usize = 150;
    pub const FRAME_POOL: usize = 64;
    /// Closed loop: connections x requests in flight each. With one in
    /// flight the two connections fell into or out of step for whole runs
    /// and p90 jumped between single and coalesced batches; two keep the
    /// scheduler's batches alike from run to run.
    pub const CONNECTIONS: usize = 2;
    pub const IN_FLIGHT: usize = 2;
}

pub mod fleet {
    /// Tenants, each a 40 x 768 map.
    pub const TENANTS: usize = 300;
    pub const NEURONS: usize = 40;
    /// Residency cap, half the tenant count. Head frames pick among the
    /// `MAX_RESIDENT` most popular tenants by Zipf rank; one frame in five
    /// goes to a tenant drawn uniformly from the rest, the spilled tail,
    /// so about a quarter of the classify frames reload a tenant.
    pub const MAX_RESIDENT: usize = 150;
    /// Corpus examples per label (each tenant's seed data).
    pub const CORPUS_PER_LABEL: usize = 8;
    /// Steps per `train_tick`, as `bsom-serve --tick-budget` defaults.
    pub const TICK_BUDGET: u64 = 32;
    pub const PUBLISH_EVERY: u64 = 64;
    /// Open-loop Poisson rate of tenant-addressed frames.
    pub const RATE: f64 = 400.0;
    /// Signatures per classify frame and examples per train frame.
    pub const CLASSIFY_SIGNATURES: usize = 4;
    pub const TRAIN_EXAMPLES: usize = 8;
    /// Zipf exponent of tenant popularity.
    pub const ZIPF_S: f64 = 1.0;
    /// Share of `--seconds` given to the open-loop phase; the closed-loop
    /// capacity phase takes the rest.
    pub const OPEN_SHARE: f64 = 0.7;
    /// Closed-loop capacity phase: connections x pipelined frames, drawn
    /// like the open-loop ones but only for the `CAPACITY_TENANTS` most
    /// popular tenants, which stay resident, and with no tail. Its
    /// throughput is the registry's own (lock, classify, training ticks),
    /// not the host disk's: a spilled tenant costs an fsync, whose latency
    /// on a shared host drifts by half from minute to minute.
    pub const CAPACITY_TENANTS: usize = 64;
    pub const CAPACITY_CONNECTIONS: usize = 2;
    pub const CAPACITY_IN_FLIGHT: usize = 4;
    pub const CAPACITY_FRAMES: usize = 8192;
}

pub mod paper {
    /// Neurons of both maps (the paper's 40).
    pub const NEURONS: usize = 40;
    /// The reduced dataset: 900 training / 450 test instances.
    pub const TRAIN_INSTANCES: usize = 900;
    pub const TEST_INSTANCES: usize = 450;
    /// Iteration budgets of the reduced Table I (one repetition each).
    pub const BUDGETS: [usize; 2] = [10, 20];
}
