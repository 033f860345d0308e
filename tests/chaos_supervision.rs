//! Cross-crate chaos suite: seeded fault storms injected under the
//! supervision stack at every layer that applies its verdicts —
//! [`Supervised`] over a [`ChaosBackend`], a [`Fleet`] with a
//! chaos-wrapped member, and the serve simulator's supervised event
//! loop. Four properties anchor it (`DESIGN.md` §12):
//!
//! * **Transparency** — over a fault-free backend, supervision is
//!   bit-for-bit invisible (proptested);
//! * **Recovery** — under a storm that leaves any live lane, every
//!   block completes with results identical to a healthy run, and the
//!   supervised simulator completes what the bare one fails;
//! * **Reproducibility** — the same seeds replay the identical
//!   [`TraceEvent`] sequence;
//! * **Goldens** — every `Supervised`, fleet and simulator trace
//!   matches `tests/golden/chaos/`, byte for byte; each fleet golden
//!   holds the whole report too, all but its host wall fields.

use logan::prelude::*;
use logan::serve::sim::{seeded_requests, simulate, ArrivalProcess, SimConfig, SimReport};
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
    supervised_storm_run_with(seed, blocks, fast_policy())
}

fn supervised_storm_run_with(
    seed: u64,
    blocks: &[Vec<ReadPair>],
    policy: SupervisePolicy,
) -> (Vec<SeedExtendResult>, Vec<TraceEvent>) {
    let inner: Box<dyn AlignBackend> = Box::new(Fleet::static_gpus(
        2,
        DeviceSpec::v100(),
        LoganConfig::with_x(40),
    ));
    let chaos = ChaosBackend::new(inner, FaultPlan::storm(seed, 2));
    let sup = Supervised::new(chaos, policy);
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

/// A [`Supervised`] over a 2-lane backend whose lanes both reject
/// every block.
fn poison_backend(policy: SupervisePolicy) -> Supervised<ChaosBackend> {
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
    Supervised::new(ChaosBackend::new(inner, plan), policy)
}

#[test]
fn poison_block_fails_alone_without_wedging_the_backend() {
    // Both lanes reject every block: supervision must give up on the
    // block (poison after 2 distinct lanes), not retry forever.
    let sup = poison_backend(fast_policy());
    let err = sup.try_align_block_on(0, &pairs(2, 5)).unwrap_err();
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
    assert_eq!(rep.errors, vec![2, 0]);
    assert_eq!(rep.quarantines, 1, "{rep:?}");
    assert_eq!(
        rep.reinstatements, 1,
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
    // A window running to the end of the index space: `nth_block +
    // count` overflows, so the window must be tested without the sum.
    let spec: ChaosSpec = format!("1:0=transient@5x{}", usize::MAX).parse().unwrap();
    let plan = spec.resolve(1);
    assert!(plan.injected_error(0, 4).is_none());
    for n in [5, 6, usize::MAX] {
        assert_eq!(
            plan.injected_error(0, n).map(|e| e.kind()),
            Some("transient"),
            "block {n} is inside the window"
        );
    }
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

// ---------------------------------------------------------------- //
// Goldens: every supervision decision, byte for byte.               //
// ---------------------------------------------------------------- //

/// A policy whose backoff delays are long enough in microseconds that
/// the seeded jitter shows in the trace, and short enough not to slow
/// the suite down.
fn jitter_policy() -> SupervisePolicy {
    SupervisePolicy {
        backoff_base_s: 1e-4,
        backoff_max_s: 1e-3,
        ..SupervisePolicy::default()
    }
}

/// One trace event per line, in their `Display` form.
fn render_trace(trace: &[TraceEvent]) -> String {
    trace.iter().map(|e| format!("{e}\n")).collect()
}

/// Compare `actual` with `tests/golden/chaos/<name>.txt`, byte for
/// byte, naming the first line that differs.
fn assert_golden(name: &str, actual: &str) {
    let path = format!(
        "{}/tests/golden/chaos/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if want != actual {
        let (w, a): (Vec<&str>, Vec<&str>) = (want.lines().collect(), actual.lines().collect());
        let at = (0..w.len().max(a.len()))
            .find(|&i| w.get(i) != a.get(i))
            .unwrap_or(0);
        panic!(
            "{name}: differs from {path} at line {}: want {:?}, got {:?}",
            at + 1,
            w.get(at),
            a.get(at)
        );
    }
}

#[test]
fn supervised_storm_traces_match_their_goldens() {
    let blocks: Vec<Vec<ReadPair>> = (0..10).map(|i| pairs(3, 100 + i)).collect();
    for seed in [9u64, 10] {
        let (_, trace) = supervised_storm_run_with(seed, &blocks, jitter_policy());
        assert_golden(&format!("supervised_storm_{seed}"), &render_trace(&trace));
    }
}

#[test]
fn poison_trace_matches_its_golden() {
    let sup = poison_backend(jitter_policy());
    let err = sup.try_align_block_on(0, &pairs(2, 5)).unwrap_err();
    let got = format!(
        "{}error {err}\ndead {:?}\n",
        render_trace(&sup.trace()),
        sup.dead_lanes()
    );
    assert_golden("supervised_poison", &got);
}

/// Requests of the chaos-recovery contrast: one storm seed, 80
/// requests.
const RECOVERY_SEED: u64 = 42;
const RECOVERY_REQUESTS: usize = 80;

/// The two backend shapes of the chaos-recovery contrast: one simulated
/// GPU, and a `2gpu+cpu` fleet (CPU width pinned so the CPU lane's
/// rate-derived service time does not depend on the host).
fn recovery_backends() -> Vec<(&'static str, Box<dyn AlignBackend>)> {
    let config = LoganConfig::with_x(30);
    let spec: FleetSpec = "2gpu+cpu:2".parse().expect("fleet spec");
    vec![
        (
            "gpu",
            Box::new(LoganExecutor::new(DeviceSpec::tiny(), config)) as Box<dyn AlignBackend>,
        ),
        ("fleet", Box::new(spec.build(DeviceSpec::tiny(), config))),
    ]
}

/// Deep queue, wide quota, no deadline: every outcome of the contrast
/// is completed or failed — it measures recovery, not shedding.
fn recovery_serve() -> ServeConfig {
    ServeConfig {
        batch_pairs: 64,
        queue_depth: RECOVERY_REQUESTS,
        quota_pairs: 100_000,
        ..ServeConfig::default()
    }
}

/// Offered arrival rate for a comfortable load on the backend's lane
/// 0 alone, self-calibrated from a probe batch: the storm, not the
/// queue, should be the reason anything is late.
fn offered_rps(backend: &dyn AlignBackend, serve: &ServeConfig) -> f64 {
    let probe = PairSet::generate_with_lengths(64, 0.2, 150, 450, 0xca11b).pairs;
    let (_, rep) = backend.align_block_on(0, &probe);
    let per_pair_s = rep.device_s(backend.throughput_hint_on(0)) / probe.len() as f64;
    // Mean request is 2.5 pairs (uniform 1..=4); offer 60% of what one
    // healthy lane serves per request.
    0.6 / (serve.batch_setup_s + 2.5 * per_pair_s)
}

/// The contrast's supervision policy: poison only a batch that failed
/// on every lane of the backend.
fn recovery_policy(backend: &dyn AlignBackend) -> SupervisePolicy {
    SupervisePolicy {
        poison_lanes: backend.lanes().max(2),
        ..SupervisePolicy::default()
    }
}

/// One run of the storm through the simulator, bare (`supervise:
/// None`) or supervised.
fn recovery_run(backend: &dyn AlignBackend, supervise: Option<SupervisePolicy>) -> SimReport {
    let serve = recovery_serve();
    // Bursty arrivals keep the queue deep enough that batches coalesce
    // to full width, so a faulted batch carries real work.
    let arrivals = ArrivalProcess::Bursty {
        rate_rps: offered_rps(backend, &serve),
        burst: 16,
    };
    let requests = seeded_requests(RECOVERY_REQUESTS, 4, 4, &arrivals, RECOVERY_SEED);
    let cfg = SimConfig {
        serve,
        coalesce: true,
        supervise,
        chaos: Some(FaultPlan::storm(RECOVERY_SEED, backend.lanes())),
    };
    simulate(backend, &cfg, &requests)
}

/// A simulator run as golden text: the trace, every outcome, and the
/// recovery counters.
fn render_sim(rep: &SimReport) -> String {
    let mut out = render_trace(&rep.trace);
    for (i, o) in rep.outcomes.iter().enumerate() {
        out.push_str(&format!("outcome {i} {o:?}\n"));
    }
    out.push_str(&format!(
        "recoveries {}\nlanes_retired {}\n",
        rep.recoveries, rep.lanes_retired
    ));
    out
}

/// The chaos-recovery contrast on both backend shapes: the storm hurts
/// the bare simulator, and supervision completes every request.
#[test]
fn supervision_recovers_the_storm_the_bare_simulator_fails() {
    for (name, backend) in recovery_backends() {
        let backend = backend.as_ref();
        let policy = recovery_policy(backend);
        let bare = recovery_run(backend, None);
        let sup = recovery_run(backend, Some(policy));
        assert_eq!(
            (sup.shed, sup.over_quota, bare.shed, bare.over_quota),
            (0, 0, 0, 0),
            "{name}: queue and quota keep shedding out of the contrast"
        );
        assert_eq!(
            sup.completed, RECOVERY_REQUESTS,
            "{name}: supervision completes every non-poison request ({} failed)",
            sup.failed
        );
        assert!(bare.failed > 0, "{name}: the storm must hurt the bare run");
        assert!(
            sup.recoveries > 0 && sup.mean_recovery_s > 0.0,
            "{name}: supervision must have recovered a batch"
        );
        if backend.lanes() > 1 {
            assert!(
                sup.goodput_pairs_per_s >= 1.5 * bare.goodput_pairs_per_s,
                "{name}: supervised goodput {:.0} pairs/s must be ≥ 1.5× bare {:.0}",
                sup.goodput_pairs_per_s,
                bare.goodput_pairs_per_s
            );
            assert_eq!(
                sup.lanes_retired, 1,
                "{name}: the storm's fail-stop retires exactly one lane"
            );
        }
        let replay = recovery_run(backend, Some(policy));
        assert_eq!(sup.trace, replay.trace, "{name}: trace must replay");
        assert_eq!(sup.outcomes, replay.outcomes);
    }
}

#[test]
fn simulated_storm_traces_match_their_goldens() {
    for (name, backend) in recovery_backends() {
        let backend = backend.as_ref();
        let bare = recovery_run(backend, None);
        assert_golden(&format!("sim_{name}_bare"), &render_sim(&bare));
        let sup = recovery_run(backend, Some(recovery_policy(backend)));
        assert_golden(&format!("sim_{name}_supervised"), &render_sim(&sup));
    }
    // Poison at the first lane a batch exhausts: the simulator records
    // a fail-stop's lane death before the poison verdict.
    let (_, fleet) = recovery_backends().pop().expect("fleet backend");
    let poison = SupervisePolicy {
        poison_lanes: 1,
        ..SupervisePolicy::default()
    };
    let rep = recovery_run(fleet.as_ref(), Some(poison));
    assert_golden("sim_fleet_poison", &render_sim(&rep));
}

/// A one-thread scalar CPU member.
fn cpu_member() -> Box<dyn AlignBackend> {
    Box::new(XDropCpuAligner::new(
        1,
        Scoring::default(),
        30,
        Engine::Scalar,
    ))
}

/// A CPU member behind one injected fault.
fn faulty_member(fault: Fault) -> Box<dyn AlignBackend> {
    Box::new(ChaosBackend::new(
        cpu_member(),
        FaultPlan::new(3).with_fault(0, fault),
    ))
}

/// A fleet report as text, one field a line, without the host wall
/// fields (the only ones a rerun may change).
fn render_fleet_report(r: &logan::core::FleetReport) -> String {
    format!("{r:#?}")
        .lines()
        .filter(|l| !l.trim_start().starts_with("wall_s:"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Five fleet storms: their scoreboard counters, and each run's trace
/// and whole report, which replay byte for byte and match
/// `tests/golden/chaos/fleet_<case>.txt`.
#[test]
fn fleet_report_counters_match_their_goldens() {
    let ps = pairs(40, 77);
    let transient = |count| {
        Some(Fault::Transient {
            nth_block: 0,
            count,
        })
    };
    let failstop = |after| Some(Fault::FailStop { after });
    // Each member's fault (`None`: a healthy one), then errors, hedges,
    // quarantines, reinstatements, retired, poison pairs.
    let cases: [(&str, [Option<Fault>; 2], &str); 5] = [
        ("flaky", [transient(2), None], "[2, 0] 0 1 1 [] 0"),
        ("failstop_0", [failstop(0), None], "[1, 0] 0 0 0 [0] 0"),
        ("failstop_1", [failstop(1), None], "[1, 0] 0 0 0 [0] 0"),
        (
            "both_transient",
            [transient(1000), transient(1000)],
            "[4, 4] 0 2 0 [0, 1] 40",
        ),
        (
            "both_dead",
            [failstop(0), failstop(0)],
            "[1, 1] 0 0 0 [0, 1] 40",
        ),
    ];
    for (name, faults, want) in cases {
        // A fresh fleet per run: a chaos member counts its blocks.
        let run = || {
            let mut fleet = Fleet::new(
                faults
                    .iter()
                    .map(|f| f.map_or_else(cpu_member, faulty_member))
                    .collect(),
            );
            if name == "flaky" {
                // Zero delays: the quarantine → probation → reinstated
                // arc fits in one short run.
                fleet.supervision.probation_delay_s = 0.0;
                fleet.supervision.error_clock_s = 0.0;
            }
            let (_, r) = fleet.align_pairs_outcome(&ps);
            let counters = format!(
                "{:?} {} {} {} {:?} {}",
                r.errors, r.hedges, r.quarantines, r.reinstatements, r.retired, r.poison_pairs
            );
            let text = format!(
                "{}{}",
                render_trace(&fleet.trace()),
                render_fleet_report(&r)
            );
            (counters, text)
        };
        let (counters, text) = run();
        assert_eq!(counters, want, "{name}");
        assert_eq!(run().1, text, "{name}: a rerun diverged");
        assert_golden(&format!("fleet_{name}"), &text);
    }
}
