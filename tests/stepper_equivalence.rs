//! Proof that the shipped simulation core is cycle-exact.
//!
//! The seed simulator advanced the clock one 1.6 GHz cycle at a time
//! ([`palermo::sim::runner::ReferenceStepper`], kept as the oracle); the
//! shipped core ([`palermo::sim::runner::CalendarStepper`], which every run
//! uses by default) jumps over provably-idle stretches and settled windows.
//! These tests assert the two produce **identical** [`RunMetrics`] —
//! including `DramStats`, sync-stall attribution and every per-request
//! latency — for every (scheme, workload) pair of the paper's grid under the
//! `small_for_tests` configuration.

use palermo::sim::experiment::{CustomProtocol, RunSpec};
use palermo::sim::runner::{
    run_workload_spec, run_workload_spec_stepped, CalendarStepper, ReferenceStepper,
};
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::sim::{
    PooledShardStepper, SerialShardStepper, ShardStepper, ShardedSystem, WorkloadSpec,
};
use palermo::workloads::Workload;

/// Asserts byte-identical metrics, with a field-by-field message on failure
/// so a regression names the counter that diverged.
fn assert_equivalent(scheme: Scheme, workload: Workload, cfg: &SystemConfig) {
    let spec = workload.into();
    let reference = run_workload_spec_stepped(scheme, &spec, cfg, &ReferenceStepper)
        .unwrap_or_else(|e| panic!("reference run failed for {scheme}/{workload}: {e}"));
    let calendar = run_workload_spec_stepped(scheme, &spec, cfg, &CalendarStepper)
        .unwrap_or_else(|e| panic!("calendar run failed for {scheme}/{workload}: {e}"));

    assert_eq!(
        reference.cycles, calendar.cycles,
        "{scheme}/{workload}: measured cycles diverged"
    );
    assert_eq!(
        reference.dram, calendar.dram,
        "{scheme}/{workload}: DramStats diverged"
    );
    assert_eq!(
        reference.sync_stall_cycles, calendar.sync_stall_cycles,
        "{scheme}/{workload}: sync stall cycles diverged"
    );
    assert_eq!(
        reference.sync_stall_by_level, calendar.sync_stall_by_level,
        "{scheme}/{workload}: per-level sync stalls diverged"
    );
    assert_eq!(
        reference.latencies, calendar.latencies,
        "{scheme}/{workload}: per-request latencies diverged"
    );
    // And the full struct, in case a new field is added later.
    assert_eq!(
        reference, calendar,
        "{scheme}/{workload}: RunMetrics diverged"
    );
}

/// Every scheme × workload pair of the paper grid is byte-identical between
/// the per-cycle reference stepper and the shipped calendar core.
#[test]
fn event_core_is_cycle_exact_across_the_full_grid() {
    let cfg = SystemConfig::small_for_tests();
    for scheme in Scheme::ALL {
        for workload in Workload::ALL {
            assert_equivalent(scheme, workload, &cfg);
        }
    }
}

/// The equivalence also holds with a zero warm-up window, where the measured
/// window opens at cycle 0 (regression coverage for the warm-up bugfix
/// interacting with time skipping).
#[test]
fn event_core_is_cycle_exact_with_zero_warmup() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.warmup_requests = 0;
    cfg.measured_requests = 30;
    for scheme in [Scheme::RingOram, Scheme::Palermo, Scheme::PrOram] {
        assert_equivalent(scheme, Workload::Random, &cfg);
    }
}

/// A starved DRAM queue keeps the equivalence contract: with per-channel
/// queue capacity cut to 2, the controller's issue pass is rejected
/// constantly, exercising the enqueue-blocked retry path where the stepper
/// must not jump past the cycle a freed slot un-blocks the retry
/// (regression coverage for the next-event staleness bugfix, at the runner
/// level rather than the channel level).
#[test]
fn tiny_dram_queues_stay_cycle_exact_under_time_skipping() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.dram.queue_capacity = 2;
    for scheme in [Scheme::RingOram, Scheme::Palermo] {
        assert_equivalent(scheme, Workload::Mcf, &cfg);
    }
}

/// The Palermo-family schemes, whose controllers keep many requests in
/// flight: their DRAM queues sit full, so the enqueue-blocked retry path
/// (and the stepper's wake-up on a freed slot) carries most of the run.
const PALERMO_FAMILY: [Scheme; 3] = [Scheme::Palermo, Scheme::PalermoSw, Scheme::PalermoPrefetch];

/// Composed workload specs keep the equivalence contract: an `open:` spec
/// (arrival process + admission queue wrapped around the closed-loop core)
/// produces byte-identical [`palermo::sim::runner::RunMetrics`] under the
/// per-cycle reference and the settled-window calendar core. The Palermo
/// family also runs the benchmark's open-loop mix and a rate well past its
/// capacity at this configuration (~3 req/kcycle), where the controller
/// runs at full occupancy.
#[test]
fn calendar_core_is_cycle_exact_for_open_loop_specs() {
    let cfg = SystemConfig::small_for_tests();
    let light = ["open:poisson:0.05:random", "open:bursty:0.2:2000:6000:mcf"];
    let saturated = [
        "open:poisson:1.0:mix:rr:redis*2+llm+stream",
        "open:poisson:5.0:mix:rr:redis*2+llm+stream",
    ];
    let runs =
        light
            .iter()
            .map(|&name| (Scheme::RingOram, name))
            .chain(PALERMO_FAMILY.iter().flat_map(|&scheme| {
                light
                    .iter()
                    .chain(&saturated)
                    .map(move |&name| (scheme, name))
            }));
    for (scheme, name) in runs {
        let spec = WorkloadSpec::from_name(name).unwrap();
        let reference = run_workload_spec_stepped(scheme, &spec, &cfg, &ReferenceStepper)
            .unwrap_or_else(|e| panic!("reference run failed for {scheme}/{name}: {e}"));
        let calendar = run_workload_spec_stepped(scheme, &spec, &cfg, &CalendarStepper)
            .unwrap_or_else(|e| panic!("calendar run failed for {scheme}/{name}: {e}"));
        assert_eq!(reference, calendar, "{scheme}/{name}: RunMetrics diverged");
    }
}

/// A `shard:<K>` composed spec under the calendar core is byte-identical to
/// the per-cycle reference, and byte-identical across both shard executors
/// (serial and thread-pooled) — sharding, stepping and scheduling must all
/// be determinism-preserving at once.
#[test]
fn sharded_specs_are_cycle_exact_under_the_calendar_core_on_both_executors() {
    let cfg = SystemConfig::small_for_tests();
    let runs = std::iter::once((Scheme::RingOram, "shard:2:hash:random")).chain(
        PALERMO_FAMILY.iter().flat_map(|&scheme| {
            [
                (scheme, "shard:2:hash:random"),
                (scheme, "shard:2:hash:mcf"),
            ]
        }),
    );
    for (scheme, name) in runs {
        let spec = WorkloadSpec::from_name(name).unwrap();
        let system = ShardedSystem::new(scheme, &spec, &cfg).unwrap();

        let reference = ShardStepper::run(&SerialShardStepper, &system, &ReferenceStepper).unwrap();
        let serial = ShardStepper::run(&SerialShardStepper, &system, &CalendarStepper).unwrap();
        let pooled =
            ShardStepper::run(&PooledShardStepper::new(2), &system, &CalendarStepper).unwrap();

        assert_eq!(
            reference, serial,
            "{scheme}/{name}: calendar core diverged from the per-cycle reference"
        );
        assert_eq!(
            serial, pooled,
            "{scheme}/{name}: pooled executor diverged from the serial executor"
        );
    }
}

/// A starved controller keeps the equivalence contract: a custom Palermo
/// protocol whose issue port takes only one or two DRAM operations per
/// cycle, over DRAM queues of two entries per channel. Ticks that stop at
/// the issue width, ticks turned away by a full queue and the retries a
/// freed slot allows all interleave, and the calendar core must wake on
/// exactly the cycles the per-cycle reference acts on.
#[test]
fn starved_palermo_controller_stays_cycle_exact() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.dram.queue_capacity = 2;
    for issue_width in [1, 2] {
        let mut controller = Scheme::Palermo.controller_config(cfg.pe_columns);
        controller.issue_width = issue_width;
        let hierarchy = Scheme::Palermo
            .hierarchy_config(
                cfg.hierarchy_params().unwrap(),
                cfg.seed,
                1,
                cfg.stash_capacity,
            )
            .unwrap();
        let spec =
            RunSpec::new(Scheme::Palermo, Workload::Mcf, cfg.clone()).with_custom(CustomProtocol {
                hierarchy,
                controller,
                prefetch_length: 1,
            });
        let reference = spec.execute_stepped(&ReferenceStepper).unwrap();
        let calendar = spec.execute_stepped(&CalendarStepper).unwrap();
        assert!(reference.oram_requests > 0);
        assert_eq!(
            reference, calendar,
            "issue width {issue_width}: RunMetrics diverged"
        );
    }
}

/// With `warmup_requests = 0` the measured window must open before the first
/// completion: every measured counter fills in (the seed runner silently
/// returned all-zero metrics here).
#[test]
fn zero_warmup_measures_every_request() {
    let mut cfg = SystemConfig::small_for_tests();
    cfg.warmup_requests = 0;
    cfg.measured_requests = 25;
    let m = run_workload_spec(Scheme::RingOram, &Workload::Mcf.into(), &cfg).unwrap();
    assert_eq!(m.oram_requests, cfg.measured_requests);
    assert_eq!(m.latencies.len(), cfg.measured_requests as usize);
    assert!(m.workload_accesses >= m.oram_requests);
    assert!(m.cycles > 0);
    assert!(m.dram.total_accesses() > 0);
}
