//! Golden fingerprints: pins *what* the simulator computes, not just that
//! two steppers agree with each other.
//!
//! The stepper-equivalence suite compares the shipped core against the
//! per-cycle reference, but both run the same controller, DRAM and ORAM
//! code, so a change to that shared code would shift both and stay green.
//! This test runs a fixed set of (scheme, spec) pairs at
//! `SystemConfig::small_for_tests()` and compares an integer fingerprint of
//! each run against `tests/golden/runs.txt`. Every run is a pure function of
//! (code, config, seed), so any difference is a change in behaviour.
//!
//! A deliberate behaviour change regenerates the file from the output this
//! test prints on failure.

use palermo::oram::baselines;
use palermo::sim::experiment::{CustomProtocol, RunSpec};
use palermo::sim::{run_workload_spec, RunMetrics, Scheme, SystemConfig, WorkloadSpec};
use palermo::workloads::Workload;
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("golden/runs.txt");

const SCHEMES: [Scheme; 3] = [Scheme::RingOram, Scheme::Palermo, Scheme::PalermoPrefetch];

const SPECS: [&str; 4] = [
    "mcf",
    "mix:rr:redis*2+llm+stream",
    "open:poisson:0.05:random",
    "shard:2:hash:random",
];

/// Single rows outside the grid, appended after it so the grid rows keep
/// their positions, each with an optional DRAM queue capacity override:
/// - a Palermo open-loop run offered more than it can serve (the controller
///   runs at full occupancy with its DRAM queues full);
/// - a sharded PalermoPrefetch run on a workload whose prefetch length is > 1;
/// - Palermo-SW, whose serial ordering hands each request's successor over
///   only when the predecessor's last read returns;
/// - Palermo with two-entry DRAM queues, enqueue-blocked on almost every tick.
const EXTRA: [(Scheme, &str, Option<usize>); 4] = [
    (
        Scheme::Palermo,
        "open:poisson:5.0:mix:rr:redis*2+llm+stream",
        None,
    ),
    (Scheme::PalermoPrefetch, "shard:2:hash:mcf", None),
    (Scheme::PalermoSw, "mcf", None),
    (Scheme::Palermo, "mcf", Some(2)),
];

/// FNV-1a over the little-endian bytes of each value.
fn fnv1a64(values: &[u64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for byte in values.iter().flat_map(|v| v.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fingerprint(label: &str, m: &RunMetrics) -> String {
    format!(
        "{label} cycles={} oram_requests={} dummy_requests={} submitted_requests={} \
dram.reads={} dram.writes={} dram.row_hits={} stash_high_water={} sync_stall_cycles={} \
sync_stall_by_level={:?} arrivals={} dropped_arrivals={} latencies_fnv={:016x} \
queue_waits_fnv={:016x}",
        m.cycles,
        m.oram_requests,
        m.dummy_requests,
        m.submitted_requests,
        m.dram.reads,
        m.dram.writes,
        m.dram.row_hits,
        m.stash_high_water,
        m.sync_stall_cycles,
        m.sync_stall_by_level,
        m.arrivals,
        m.dropped_arrivals,
        fnv1a64(&m.latencies),
        fnv1a64(&m.queue_waits),
    )
}

/// The PrORAM-without-fat-tree point of Fig. 4 at prefetch length 4, built
/// the way `figures::fig04` builds its custom variants.
fn custom_run(config: &SystemConfig) -> RunMetrics {
    let prefetch_length = 4;
    let stash = 1024;
    let hierarchy = baselines::pr_oram(
        config.hierarchy_params().unwrap(),
        config.seed,
        prefetch_length,
        false,
        stash,
        stash * 3 / 4,
    )
    .unwrap();
    RunSpec::new(Scheme::PrOram, Workload::Streaming, config.clone())
        .with_custom(CustomProtocol {
            hierarchy,
            controller: Scheme::PrOram.controller_config(config.pe_columns),
            prefetch_length,
        })
        .execute()
        .unwrap()
}

fn regenerate() -> String {
    let config = SystemConfig::small_for_tests();
    let mut out = String::new();
    let run = |out: &mut String, scheme: Scheme, name: &str, config: &SystemConfig, label: &str| {
        let spec = WorkloadSpec::from_name(name).unwrap();
        let m = run_workload_spec(scheme, &spec, config)
            .unwrap_or_else(|e| panic!("{label} failed: {e}"));
        writeln!(out, "{}", fingerprint(label, &m)).unwrap();
    };
    for name in SPECS {
        for scheme in SCHEMES {
            run(&mut out, scheme, name, &config, &format!("{scheme}/{name}"));
        }
    }
    let custom = custom_run(&config);
    writeln!(out, "{}", fingerprint("custom:PrORAM/stream/pf=4", &custom)).unwrap();
    for (scheme, name, queue_capacity) in EXTRA {
        let mut config = config.clone();
        let mut label = format!("{scheme}/{name}");
        if let Some(capacity) = queue_capacity {
            config.dram.queue_capacity = capacity;
            label.push_str(&format!(" dram.queue_capacity={capacity}"));
        }
        run(&mut out, scheme, name, &config, &label);
    }
    out
}

#[test]
fn runs_match_the_golden_fingerprints() {
    let actual = regenerate();
    assert!(
        actual == GOLDEN,
        "golden fingerprints changed; if the change is intended, replace \
tests/golden/runs.txt with:\n{actual}"
    );
}
