//! Artifact compatibility of the run reports.
//!
//! `fixtures/*.parent.json` were written by the commit *before* the
//! per-device and multi-device report types were collapsed into
//! [`BackendReport`](logan_core::BackendReport)/[`FleetReport`](logan_core::FleetReport):
//! a `BackendReport` from `LoganExecutor::align_block` and a
//! `FleetReport` from `"gpu+cpu:1"` under the static schedule, both on
//! the workload of [`workload`]. The run being deterministic, today's
//! report must serialize to the same bytes (same keys, order, values and
//! number formatting). Only the host wall clocks differ: every `wall_s`
//! of today's run must be measured (> 0), and the fixture's recorded
//! value is spliced in at the same path before the bytes are compared.

use logan_align::Engine;
use logan_core::{AlignBackend, FleetSpec, LoganConfig, LoganExecutor};
use logan_gpusim::DeviceSpec;
use logan_seq::readsim::{PairSet, ReadPair};
use serde::{Serialize, Value};

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

/// Lets a spliced tree go through the `serde_json` writer.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Replace every `wall_s` of `today` by the value at the same path in
/// `recorded`, asserting that today's was measured. Returns how many
/// were replaced. Paths missing from `recorded` are left alone: the
/// byte comparison then fails on them.
fn splice_walls(today: &mut Value, recorded: &Value, path: &str) -> usize {
    match (today, recorded) {
        (Value::Map(entries), Value::Map(old)) => {
            let mut spliced = 0;
            for (key, value) in entries {
                let Some((_, old_value)) = old.iter().find(|(k, _)| k == key) else {
                    continue;
                };
                let at = format!("{path}.{key}");
                if key == "wall_s" {
                    assert!(
                        matches!(value, Value::F64(s) if *s > 0.0),
                        "{at}: wall clock not measured: {value:?}"
                    );
                    *value = old_value.clone();
                    spliced += 1;
                } else {
                    spliced += splice_walls(value, old_value, &at);
                }
            }
            spliced
        }
        (Value::Seq(items), Value::Seq(old)) => items
            .iter_mut()
            .zip(old)
            .enumerate()
            .map(|(i, (item, old_item))| splice_walls(item, old_item, &format!("{path}[{i}]")))
            .sum(),
        _ => 0,
    }
}

/// Today's `report` against the recorded `fixture`, byte for byte once
/// the `walls` wall clocks are spliced in.
fn assert_matches_fixture(report: &impl Serialize, fixture: &str, walls: usize) {
    let mut today = serde_json::parse_value(&serde_json::to_string(report).unwrap()).unwrap();
    let recorded = serde_json::parse_value(fixture).expect("fixture parses");
    assert_eq!(
        splice_walls(&mut today, &recorded, "$"),
        walls,
        "wall clocks"
    );
    assert_eq!(serde_json::to_string(&Raw(today)).unwrap(), fixture);
}

#[test]
fn parent_backend_report_reads_back_field_for_field() {
    let (pairs, cfg) = workload();
    let (_, report) = LoganExecutor::new(DeviceSpec::v100(), cfg).align_block(&pairs);
    assert_matches_fixture(&report, BACKEND_FIXTURE, 1);
}

#[test]
fn parent_fleet_report_reads_back_field_for_field() {
    let (pairs, cfg) = workload();
    let fleet = "gpu+cpu:1"
        .parse::<FleetSpec>()
        .unwrap()
        .build(DeviceSpec::v100(), cfg);
    let (_, report) = fleet.align_pairs_static(&pairs);
    // The fleet's own clock plus one per worker.
    assert_matches_fixture(&report, FLEET_FIXTURE, 3);
}
