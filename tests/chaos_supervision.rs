//! Cross-crate chaos suite, run as its own premerge step
//! (`chaos-recovery`): seeded fault storms injected under the
//! supervision stack at every layer it composes through —
//! [`Supervised`] over a [`ChaosBackend`], a [`Fleet`] with a
//! chaos-wrapped member, and the serve simulator's supervised event
//! loop. Three properties anchor it (`DESIGN.md` §12):
//!
//! * **Transparency** — over a fault-free backend, supervision is
//!   bit-for-bit invisible (proptested);
//! * **Recovery** — under a storm that leaves any live lane, every
//!   block completes with results identical to a healthy run;
//! * **Reproducibility** — the same seeds replay the identical
//!   [`TraceEvent`] sequence, byte for byte.

use logan::prelude::*;
use logan::serve::sim::{seeded_requests, simulate, ArrivalProcess, SimConfig};
use proptest::prelude::*;

fn pairs(n: usize, seed: u64) -> Vec<ReadPair> {
    PairSet::generate_with_lengths(n, 0.2, 150, 450, seed).pairs
}

/// A policy with no real sleeping, so trace-equality tests run fast.
fn fast_policy() -> SupervisePolicy {
    SupervisePolicy {
        backoff_base_s: 0.0,
        backoff_max_s: 0.0,
        ..SupervisePolicy::default()
    }
}

// ---------------------------------------------------------------- //
// Transparency: Supervised ≡ bare over a fault-free backend.        //
// ---------------------------------------------------------------- //

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn supervision_is_transparent_over_a_fault_free_backend(
        n in 1usize..24,
        seed in 0u64..1_000_000,
        x in 20i32..120,
    ) {
        let ps = pairs(n, seed);
        let bare = LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x));
        let (want, want_rep) = bare.align_block(&ps);
        let sup = Supervised::new(
            LoganExecutor::new(DeviceSpec::v100(), LoganConfig::with_x(x)),
            SupervisePolicy::default(),
        );
        let (got, got_rep) = sup.align_block(&ps);
        prop_assert_eq!(got, want, "supervision must not change results");
        prop_assert_eq!(got_rep.total_cells, want_rep.total_cells);
        prop_assert_eq!(got_rep.sim_time_s, want_rep.sim_time_s);
        // No faults → no fault machinery in the trace.
        prop_assert!(sup.trace().iter().all(|e| matches!(e, TraceEvent::Attempt { .. })));
        prop_assert!(sup.dead_lanes().is_empty());
    }
}

// ---------------------------------------------------------------- //
// Recovery + reproducibility through Supervised over ChaosBackend.  //
// ---------------------------------------------------------------- //

/// Run one seeded storm through a supervised 2-lane backend and return
/// (results, trace).
fn supervised_storm_run(
    seed: u64,
    blocks: &[Vec<ReadPair>],
) -> (Vec<SeedExtendResult>, Vec<TraceEvent>) {
    let inner: Box<dyn AlignBackend> = Box::new(Fleet::static_gpus(
        2,
        DeviceSpec::v100(),
        LoganConfig::with_x(40),
    ));
    let chaos = ChaosBackend::new(inner, FaultPlan::storm(seed, 2));
    let sup = Supervised::new(chaos, fast_policy());
    let mut results = Vec::new();
    // Round-robin the preferred lane, the way a multi-lane caller
    // would — so the storm's fail-stop lane actually gets dispatched
    // to (and killed), not just used as a redispatch target.
    for (i, b) in blocks.iter().enumerate() {
        let (r, _) = sup.align_block_on(i % 2, b);
        results.extend(r);
    }
    (results, sup.trace())
}

#[test]
fn storm_recovers_bit_identical_results_and_replays_its_trace() {
    let blocks: Vec<Vec<ReadPair>> = (0..10).map(|i| pairs(3, 100 + i)).collect();
    // Healthy reference: the same blocks on an unwrapped backend.
    let healthy = Fleet::static_gpus(2, DeviceSpec::v100(), LoganConfig::with_x(40));
    let want: Vec<SeedExtendResult> = blocks
        .iter()
        .flat_map(|b| healthy.align_block(b).0)
        .collect();

    let (got, trace) = supervised_storm_run(9, &blocks);
    assert_eq!(got, want, "recovered results must be bit-identical");
    // The storm really fired: transient faults absorbed, and the
    // 2-lane storm's fail-stop killed one lane.
    assert!(trace.iter().any(|e| matches!(
        e,
        TraceEvent::Fault {
            kind: "transient",
            ..
        }
    )));
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::LaneDead { .. })));
    assert!(trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Redispatch { .. })));

    // Same seeds ⇒ identical trace, event for event.
    let (got2, trace2) = supervised_storm_run(9, &blocks);
    assert_eq!(got2, want);
    assert_eq!(trace, trace2, "chaos replay must be deterministic");

    // A different storm seed must not replay the same trace.
    let (_, other) = supervised_storm_run(10, &blocks);
    assert_ne!(trace, other, "the seed must matter");
}

#[test]
fn poison_block_fails_alone_without_wedging_the_backend() {
    // Both lanes reject every block: supervision must give up on the
    // block (poison after 2 distinct lanes), not retry forever.
    let inner: Box<dyn AlignBackend> = Box::new(Fleet::static_gpus(
        2,
        DeviceSpec::v100(),
        LoganConfig::with_x(40),
    ));
    let plan = FaultPlan::new(1)
        .with_fault(
            0,
            Fault::Transient {
                nth_block: 0,
                count: 1000,
            },
        )
        .with_fault(
            1,
            Fault::Transient {
                nth_block: 0,
                count: 1000,
            },
        );
    let sup = Supervised::new(ChaosBackend::new(inner, plan), fast_policy());
    let err = sup.try_align_block(&pairs(2, 5)).unwrap_err();
    assert_eq!(err.kind(), "poison");
    assert!(sup
        .trace()
        .iter()
        .any(|e| matches!(e, TraceEvent::Poisoned { lanes: 2, .. })));
    // Transient exhaustion must not have killed either lane.
    assert!(sup.dead_lanes().is_empty());
}

// ---------------------------------------------------------------- //
// Fleet: a flaky member is quarantined, probed, and reinstated.     //
// ---------------------------------------------------------------- //

#[test]
fn fleet_quarantines_probes_and_reinstates_a_flaky_member() {
    let ps = pairs(40, 77);
    let reference = XDropCpuAligner::new(1, Scoring::default(), 30, Engine::Scalar);
    let (want, _) = reference.align_block(&ps);

    // Member 0 errors on its first two attempts (the quarantine
    // threshold), then works again — a driver hiccup, not a death.
    let flaky: Box<dyn AlignBackend> = Box::new(ChaosBackend::new(
        Box::new(XDropCpuAligner::new(
            1,
            Scoring::default(),
            30,
            Engine::Scalar,
        )),
        FaultPlan::new(3).with_fault(
            0,
            Fault::Transient {
                nth_block: 0,
                count: 2,
            },
        ),
    ));
    let mut fleet = Fleet::new(vec![
        flaky,
        Box::new(XDropCpuAligner::new(
            1,
            Scoring::default(),
            30,
            Engine::Scalar,
        )),
    ]);
    // Zero delays so the quarantine → probation → reinstated arc fits
    // in one short run (same idiom as the core fleet tests).
    fleet.supervision.probation_delay_s = 0.0;
    fleet.supervision.error_clock_s = 0.0;

    let (results, rep) = fleet.align_pairs(&ps);
    assert_eq!(
        results, want,
        "recovered fleet output must be bit-identical"
    );
    assert_eq!(rep.poison_pairs, 0);
    assert!(rep.errors[0] >= 2, "{:?}", rep.errors);
    assert!(rep.quarantines >= 1, "{rep:?}");
    assert!(
        rep.reinstatements >= 1,
        "the probation probe must have readmitted worker 0: {rep:?}"
    );
    assert!(rep.retired.is_empty(), "a recovered lane must not retire");
    let trace = fleet.trace();
    for looked_for in ["Quarantined", "Probation", "Reinstated"] {
        assert!(
            trace
                .iter()
                .any(|e| format!("{e:?}").starts_with(looked_for)),
            "trace missing {looked_for}: {trace:?}"
        );
    }
}

// ---------------------------------------------------------------- //
// Serve simulator: a multi-lane storm through the supervised loop.  //
// ---------------------------------------------------------------- //

#[test]
fn simulated_fleet_storm_completes_everything_and_replays() {
    let cfg0 = LoganConfig::with_x(30);
    let fleet = Fleet::new(vec![
        Box::new(GpuBackend::new(
            LoganExecutor::new(DeviceSpec::tiny(), cfg0),
            1,
        )) as Box<dyn AlignBackend>,
        Box::new(GpuBackend::new(
            LoganExecutor::new(DeviceSpec::tiny(), cfg0),
            1,
        )),
        Box::new(XDropCpuAligner::new(
            2,
            Scoring::default(),
            30,
            Engine::from_env(),
        )),
    ]);
    let arrivals = ArrivalProcess::Bursty {
        rate_rps: 300.0,
        burst: 8,
    };
    let requests = seeded_requests(48, 3, 4, &arrivals, 21);
    let cfg = SimConfig {
        serve: ServeConfig {
            queue_depth: 64,
            quota_pairs: 10_000,
            ..ServeConfig::default()
        },
        coalesce: true,
        supervise: Some(SupervisePolicy {
            poison_lanes: 3,
            ..SupervisePolicy::default()
        }),
        chaos: Some(FaultPlan::storm(21, 3)),
    };
    let rep = simulate(&fleet, &cfg, &requests);
    assert_eq!(
        (rep.completed, rep.failed),
        (48, 0),
        "supervision must complete every non-poison request: {:?}",
        rep.outcomes
    );
    assert_eq!(rep.lanes_retired, 1, "the storm fail-stops the last lane");
    assert!(rep.recoveries > 0);
    assert!(rep
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Redispatch { .. })));
    let rep2 = simulate(&fleet, &cfg, &requests);
    assert_eq!(rep.trace, rep2.trace, "simulated storm must replay");
    assert_eq!(rep.outcomes, rep2.outcomes);
}

// ---------------------------------------------------------------- //
// CLI grammar: the --chaos spec round-trips through FaultPlan.      //
// ---------------------------------------------------------------- //

#[test]
fn chaos_spec_grammar_resolves_and_rejects() {
    let spec: ChaosSpec = "7:storm".parse().unwrap();
    assert_eq!(spec.resolve(3), FaultPlan::storm(7, 3));
    let spec: ChaosSpec = "9:0=transient@2x3/stall@0.05,1=failstop@4".parse().unwrap();
    let plan = spec.resolve(2);
    assert_eq!(plan.faults_for(0).len(), 2);
    assert_eq!(plan.faults_for(1), &[Fault::FailStop { after: 4 }]);
    for bad in [
        "storm",
        "7:",
        "7:lane=transient@1",
        "7:0=transient",
        "7:0=melt@1",
    ] {
        assert!(
            bad.parse::<ChaosSpec>().is_err(),
            "{bad:?} must be rejected"
        );
    }
}
