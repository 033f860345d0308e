//! The metric and workload registry — the code's copy of what
//! `BENCHMARK.json` declares (`run --quick` checks the two agree) — and
//! the result one workload hands back.

use crate::meter::median;
use serde::Value;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only; 0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    e2e(name, unit, higher, 0.0)
}

/// Workload names, in running order. Why each exists is in
/// `BENCHMARK.json` and the README.
pub const WORKLOADS: [&str; 5] = [
    "overlap_spgemm_x50",
    "overlap_minimizer_x7_stream",
    "candidates_spgemm",
    "pairs_blosum62_x400",
    "serve_cpu_open",
];

/// Every workload reports every one of these (the driver's contract).
/// A batch workload is one request per repetition, so its saturation rate
/// is operations per second. The time bounds are the contract's largest:
/// the target box's speed drifts by 10-30 % for minutes at a time (ten-run
/// spreads of 2-18 % in `wall_s`, medians of two ten-run sets up to 17 %
/// apart), and a tighter bound would reject unchanged code. Open-loop
/// latency percentiles spread 6-37 % there, more than any bound the
/// contract allows, so they are per-layer metrics.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("wall_s", "s", false, 0.25),
    e2e("peak_mib", "MiB", false, 0.10),
    e2e("recall", "share", true, 0.02),
    e2e("precision", "share", true, 0.02),
    e2e("saturation_req_per_s", "req/s", true, 0.25),
];

/// Layer = crate, then module. A workload that does not exercise a layer
/// reports 0 for it.
pub const PER_LAYER: [Metric; 58] = [
    layer("seq.fasta.busy_s", "s", false),
    layer("seq.fasta.mb_per_s", "MB/s", true),
    layer("bella.kmer_count.busy_s", "s", false),
    layer("bella.kmer_count.distinct_kmers", "count", false),
    layer("bella.prune.busy_s", "s", false),
    layer("bella.prune.reliable_kmers", "count", false),
    layer("bella.matrix.busy_s", "s", false),
    layer("bella.matrix.nnz", "count", false),
    layer("bella.spgemm.busy_s", "s", false),
    layer("bella.spgemm.candidates", "count", false),
    layer("bella.chain.sketch_s", "s", false),
    layer("bella.chain.chain_s", "s", false),
    layer("bella.chain.admitted_share", "share", true),
    layer("bella.binning.busy_s", "s", false),
    layer("bella.threshold.busy_s", "s", false),
    layer("bella.threshold.kept_share", "share", true),
    layer("bella.pipeline.glue_s", "s", false),
    layer("bella.stream.overlap_ratio", "ratio", true),
    layer("align.extend.busy_s", "s", false),
    layer("align.extend.cells", "count", false),
    layer("align.extend.gcups", "GCUPS", true),
    layer("align.extend.us_per_pair", "us", false),
    layer("align.extend.cells_per_pair", "count", false),
    layer("align.tier.i8_share", "share", true),
    layer("align.tier.i16_share", "share", true),
    layer("align.tier.scalar_share", "share", false),
    layer("align.tier.escalation_share", "share", false),
    layer("align.ladder.scalar_gcups", "GCUPS", true),
    layer("align.ladder.i16_gcups", "GCUPS", true),
    layer("align.ladder.i8_gcups", "GCUPS", true),
    layer("align.ladder.adaptive_gcups", "GCUPS", true),
    layer("align.extend.warm_allocs", "count", false),
    layer("core.executor.sim_gcups", "GCUPS", true),
    layer("core.executor.sim_s", "s", false),
    layer("core.executor.launches", "count", false),
    layer("gpusim.hbm_peak_mib", "MiB", false),
    layer("core.executor.host_s", "s", false),
    layer("core.fleet.sim_makespan_s", "s", false),
    layer("core.fleet.balance", "ratio", false),
    layer("roofline.oi_instr_per_byte", "instr/B", true),
    layer("roofline.warp_gips", "GIPS", true),
    layer("roofline.int32_ceiling_share", "share", true),
    layer("serve.submit_us_p50", "us", false),
    layer("serve.unloaded_overhead_us", "us", false),
    layer("serve.lane_busy_share", "share", false),
    layer("serve.batches", "count", false),
    layer("serve.mean_batch_pairs", "count", true),
    layer("serve.coalesced_share", "share", true),
    layer("serve.saturation_over_direct", "ratio", true),
    layer("serve.latency_p50_ms", "ms", false),
    layer("serve.latency_p90_ms", "ms", false),
    layer("serve.latency_p99_ms", "ms", false),
    layer("serve.generator_late_ms_max", "ms", false),
    layer("serve.sim.p50_ms", "ms", false),
    layer("serve.sim.p99_ms", "ms", false),
    layer("serve.sim.goodput_pairs_per_s", "1/s", true),
    layer("serve.sim.refused_share", "share", false),
    layer("trace.overhead_share", "share", false),
];

/// Full-size inputs, or the tiny ones `check.sh` runs.
#[derive(Clone, Copy, PartialEq)]
pub enum Scale {
    Full,
    Quick,
}

/// What the caller asks of one workload.
pub struct Request {
    pub seed: u64,
    /// Timed budget in seconds; a workload runs
    /// `max(3, seconds / its frozen nominal repetition time)` repetitions.
    pub seconds: u64,
    pub scale: Scale,
}

impl Request {
    /// Timed repetitions: fixed by `--seconds` and a frozen constant, never
    /// by how fast the program runs, so a faster program is offered the
    /// same load.
    pub fn reps(&self, nominal_rep_s: f64) -> usize {
        match self.scale {
            Scale::Quick => 1,
            Scale::Full => ((self.seconds as f64 / nominal_rep_s) as usize).max(3),
        }
    }
}

/// One workload's result: per-repetition samples of each end-to-end
/// metric, or one value per layer metric.
#[derive(Default)]
pub struct Outcome {
    pub input_digest: u64,
    pub output_digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, for the log.
    pub failures: Vec<String>,
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, samples: Vec<f64>) {
        self.samples.push((name, samples));
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.push(name, vec![value]);
    }

    /// Count one checked operation; `why` names it when it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// The default seed's output digest must be the committed one.
    pub fn check_golden(&mut self, workload: &str, golden: Option<u64>) {
        let digest = self.output_digest;
        if let Some(golden) = golden {
            self.check(digest == golden, || {
                format!("{workload}: output digest {digest:016x} is not the golden {golden:016x}")
            });
        }
    }

    /// The samples of `name`; empty when the workload did not report it.
    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(&[], |(_, s)| s)
    }

    /// The reported value of `name`: the median of its samples, 0 for a
    /// per-layer metric the workload does not exercise.
    pub fn value(&self, name: &str) -> f64 {
        match self.samples_of(name) {
            [] => 0.0,
            s => median(s),
        }
    }

    /// Batch workloads: one request per repetition, so the saturation rate
    /// is operations per second.
    pub fn push_batch_walls(&mut self, walls: Vec<f64>) {
        self.push(
            "saturation_req_per_s",
            walls.iter().map(|w| 1.0 / w).collect(),
        );
        self.push("wall_s", walls);
    }

    /// The driver's result line for the given metric list.
    pub fn driver_line(&self, metrics: &[Metric]) -> String {
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(self.value(m.name)),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The result-file entry: median, quartiles and every sample.
    pub fn to_json(&self, metrics: &[Metric]) -> Value {
        let entries = metrics
            .iter()
            .map(|m| {
                let s = self.samples_of(m.name);
                let (q1, q3) = match s {
                    [] => (0.0, 0.0),
                    s => (
                        crate::meter::percentile(s, 0.25),
                        crate::meter::percentile(s, 0.75),
                    ),
                };
                let fields = vec![
                    ("unit".into(), Value::Str(m.unit.into())),
                    ("value".into(), Value::F64(self.value(m.name))),
                    ("q1".into(), Value::F64(q1)),
                    ("q3".into(), Value::F64(q3)),
                    (
                        "samples".into(),
                        Value::Seq(s.iter().map(|&x| Value::F64(x)).collect()),
                    ),
                ];
                (m.name.to_string(), Value::Map(fields))
            })
            .collect();
        Value::Map(vec![
            (
                "input_digest".into(),
                Value::Str(format!("{:016x}", self.input_digest)),
            ),
            (
                "output_digest".into(),
                Value::Str(format!("{:016x}", self.output_digest)),
            ),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(entries)),
        ])
    }
}

/// A float as JSON with all its digits (`1` prints as `1.0`).
pub fn json_number(x: f64) -> String {
    assert!(x.is_finite(), "metric value {x} is not a number");
    let s = format!("{x}");
    if s.contains(['.', 'e']) {
        s
    } else {
        s + ".0"
    }
}
