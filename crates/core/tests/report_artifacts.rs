//! Artifact compatibility of the run reports.
//!
//! `fixtures/*.parent.json` were written by the commit *before* the
//! per-device and multi-device report types were collapsed into
//! [`BackendReport`]/[`FleetReport`]: a [`BackendReport`] from
//! `LoganExecutor::align_block` and a [`FleetReport`] from
//! `"gpu+cpu:1"` under the static schedule, both on the workload of
//! [`workload`]. They must still deserialize, re-serialize to the same
//! bytes (same keys, order and number formatting), and — the run being
//! deterministic — equal today's run field for field; only the host
//! wall clocks are compared against the recorded literals instead.

use logan_align::{Engine, TierTally};
use logan_core::{AlignBackend, BackendReport, FleetReport, FleetSpec, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::{PairSet, ReadPair};

const BACKEND_FIXTURE: &str = include_str!("fixtures/backend_report.parent.json");
const FLEET_FIXTURE: &str = include_str!("fixtures/fleet_report.parent.json");

fn workload() -> (Vec<ReadPair>, LoganConfig) {
    let pairs = PairSet::generate_with_lengths(3, 0.15, 60, 90, 7).pairs;
    let mut cfg = LoganConfig::with_x(20);
    // The tier the recorded run dispatched, by name: the fixtures date
    // from when the adaptive engine started every extension there.
    cfg.engine = Engine::I8;
    (pairs, cfg)
}

/// Every field of `old` against `new`; the destructuring makes a new
/// field a compile error here rather than a silent gap.
fn assert_same_report(old: BackendReport, new: BackendReport, old_wall_s: f64, what: &str) {
    let BackendReport {
        pairs,
        blocks,
        total_cells,
        wall_s,
        sim_time_s,
        launches,
        hbm_peak_bytes,
        tiers,
        kernel_reports,
    } = old;
    assert_eq!(pairs, new.pairs, "{what}: pairs");
    assert_eq!(blocks, new.blocks, "{what}: blocks");
    assert_eq!(total_cells, new.total_cells, "{what}: total_cells");
    assert_eq!(wall_s, old_wall_s, "{what}: wall_s as recorded");
    assert!(new.wall_s > 0.0, "{what}: wall_s still measured");
    assert_eq!(sim_time_s, new.sim_time_s, "{what}: sim_time_s");
    assert_eq!(launches, new.launches, "{what}: launches");
    assert_eq!(hbm_peak_bytes, new.hbm_peak_bytes, "{what}: hbm_peak_bytes");
    assert_eq!(tiers, new.tiers, "{what}: tiers");
    // Per-block costs are not serialized, so compare the serialized form.
    assert_eq!(
        serde_json::to_string(&kernel_reports).unwrap(),
        serde_json::to_string(&new.kernel_reports).unwrap(),
        "{what}: kernel_reports"
    );
}

#[test]
fn parent_backend_report_reads_back_field_for_field() {
    let old: BackendReport = serde_json::from_str(BACKEND_FIXTURE).expect("fixture parses");
    assert_eq!(serde_json::to_string(&old).unwrap(), BACKEND_FIXTURE);
    assert_eq!(old.launches, 2, "left and right stream");
    assert_eq!(old.kernel_reports.len(), 2);

    let (pairs, cfg) = workload();
    let (_, new) = LoganExecutor::new(DeviceSpec::v100(), cfg).align_block(&pairs);
    assert_same_report(old, new, 0.000380779, "executor");
}

#[test]
fn parent_fleet_report_reads_back_field_for_field() {
    let old: FleetReport = serde_json::from_str(FLEET_FIXTURE).expect("fixture parses");
    assert_eq!(serde_json::to_string(&old).unwrap(), FLEET_FIXTURE);

    let (pairs, cfg) = workload();
    let fleet = "gpu+cpu:1"
        .parse::<FleetSpec>()
        .unwrap()
        .build(DeviceSpec::v100(), cfg);
    let (_, new) = fleet.align_pairs_static(&pairs);
    let FleetReport {
        per_worker,
        assignment_sizes,
        chunks,
        sim_time_s,
        wall_s,
        total_cells,
        errors,
        hedges,
        quarantines,
        reinstatements,
        retired,
        poison_pairs,
    } = old;
    assert_eq!(per_worker.len(), 2);
    assert_eq!(
        per_worker[1].tiers,
        TierTally {
            lanes8: 2,
            ..TierTally::default()
        },
        "the CPU worker's tier tally survives the round trip"
    );
    let mut new_workers = new.per_worker.into_iter();
    for (old_worker, (old_wall_s, what)) in per_worker
        .into_iter()
        .zip([(0.000190566, "gpu worker"), (0.000013519, "cpu worker")])
    {
        assert_same_report(old_worker, new_workers.next().unwrap(), old_wall_s, what);
    }
    assert_eq!(assignment_sizes, new.assignment_sizes);
    assert_eq!(chunks, new.chunks);
    assert_eq!(sim_time_s, new.sim_time_s);
    assert_eq!(wall_s, 0.00022332);
    assert!(new.wall_s > 0.0);
    assert_eq!(total_cells, new.total_cells);
    assert_eq!(errors, new.errors);
    assert_eq!(hedges, new.hedges);
    assert_eq!(quarantines, new.quarantines);
    assert_eq!(reinstatements, new.reinstatements);
    assert_eq!(retired, new.retired);
    assert_eq!(poison_pairs, new.poison_pairs);
}
