//! Per-tenant QoS inside a phased multi-tenant mix, end to end:
//!
//! 1. a `PhasedMix` with tenant arrival and departure (redis always on, llm
//!    arriving a quarter in, streaming departing three quarters in) swept
//!    under RingORAM vs. Palermo through the `Experiment` grid;
//! 2. per-tenant attribution: completion counts, mean/p50/p95/p99 response
//!    latency and DRAM demand share per tenant, with the conservation
//!    invariant (per-tenant sums == aggregates) checked on every record;
//! 3. the capture pipeline: the exact access stream the phased run
//!    consumed, dumped to a binary `PTRC` file and replayed — the replay
//!    reproduces the aggregate metrics bit for bit;
//! 4. the per-tenant CSV/JSON exports round-tripping through their parsers.
//!
//! ```text
//! cargo run --release --example tenant_qos
//! PALERMO_REQUESTS=40 PALERMO_SERIAL_CHECK=1 cargo run --release --example tenant_qos
//! ```

use palermo::sim::experiment::{
    Experiment, ExportRow, RunSummary, SerialExecutor, TenantSummary, ThreadPoolExecutor,
};
use palermo::sim::figures::tenant_qos;
use palermo::sim::runner::run_workload_spec;
use palermo::sim::schemes::Scheme;
use palermo::sim::system::SystemConfig;
use palermo::workloads::{capture, CaptureEncoding};
use std::time::Instant;

const SCHEMES: [Scheme; 2] = [Scheme::RingOram, Scheme::Palermo];

/// Accesses to capture for the replay demo — scaled with the request
/// budget (each request consumes one miss plus a small number of LLC
/// hits, so 16x is generous headroom) and floored high enough for the
/// default budget; the looping replay must never wrap inside the run.
fn capture_accesses(cfg: &SystemConfig) -> usize {
    (cfg.total_requests() as usize)
        .saturating_mul(16)
        .max(400_000)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SystemConfig::paper_default();
    cfg.measured_requests = 200;
    cfg.warmup_requests = 50;
    if let Ok(Ok(n)) = std::env::var("PALERMO_REQUESTS").map(|v| v.parse::<u64>()) {
        cfg.measured_requests = n;
        cfg.warmup_requests = (n / 4).max(1);
    }

    // Size the arrival/departure windows against a rough access budget:
    // every request consumes at least one access, and LLC hits stretch that
    // by a small factor, so 4x the request budget puts the transitions
    // mid-run.
    let spec = tenant_qos::phased_service_mix(cfg.total_requests() * 4);
    eprintln!("phased mix under test: {spec}");

    let pool = ThreadPoolExecutor::with_available_parallelism();
    let started = Instant::now();
    let results = Experiment::new(cfg.clone())
        .schemes(SCHEMES)
        .workload_specs([spec.clone()])
        .run(&pool)?;
    eprintln!(
        "{}x1 (scheme x spec) grid finished in {:.2?} on {} worker thread(s)",
        SCHEMES.len(),
        started.elapsed(),
        pool.threads()
    );

    // Per-tenant conservation: for every record the per-tenant vectors sum
    // exactly to the aggregates.
    for record in &results {
        assert!(
            record.metrics.tenant_conservation_ok(),
            "conservation violated for {}",
            record.label
        );
    }
    eprintln!("per-tenant conservation verified on every record");

    // The executors are byte-identical by construction; verify on demand.
    if std::env::var("PALERMO_SERIAL_CHECK").is_ok() {
        let serial = Experiment::new(cfg.clone())
            .schemes(SCHEMES)
            .workload_specs([spec.clone()])
            .run(&SerialExecutor)?;
        assert_eq!(
            RunSummary::to_csv(&serial.rows()),
            RunSummary::to_csv(&results.rows()),
            "executors diverged"
        );
        assert_eq!(
            TenantSummary::to_csv(&serial.rows()),
            TenantSummary::to_csv(&results.rows()),
            "per-tenant attribution diverged between executors"
        );
        eprintln!("serial re-run verified: per-tenant metrics byte-identical");
    }

    // The per-tenant QoS table (who stalls whom), derived from the grid
    // records already computed — no simulation is repeated.
    let rows = tenant_qos::rows(&results, &spec, &SCHEMES);
    println!("{}", tenant_qos::table(&spec, &rows).to_text());

    // Capture pipeline: dump the exact stream the run consumed to a binary
    // PTRC trace, replay it, and reproduce the aggregate metrics bit for
    // bit (the replay is a flat single-tenant stream, so only the
    // per-tenant view collapses).
    let path = std::env::temp_dir().join("palermo_tenant_qos.ptrc");
    let n_capture = capture_accesses(&cfg);
    let replay = capture::capture_to_file(
        &spec,
        n_capture,
        cfg.stream_footprint_hint(),
        cfg.stream_seed(),
        &path,
        CaptureEncoding::Binary,
    )?;
    // The generator-driven Palermo run already exists in the grid records
    // (runs are deterministic, so re-simulating would reproduce it anyway).
    let direct = results
        .get_spec(Scheme::Palermo, &spec)
        .expect("Palermo is in the scheme list")
        .metrics
        .clone();
    let mut replayed = run_workload_spec(Scheme::Palermo, &replay, &cfg)?;
    replayed.workload = direct.workload.clone();
    replayed.per_tenant = direct.per_tenant.clone();
    assert_eq!(
        replayed, direct,
        "replaying the capture diverged from the generator run"
    );
    println!(
        "capture -> replay closed loop verified: {} accesses via {}",
        n_capture,
        path.display()
    );

    // Per-tenant exports survive both round trips.
    let tenants: Vec<TenantSummary> = results.rows();
    let tenant_csv = TenantSummary::to_csv(&tenants);
    assert_eq!(
        TenantSummary::parse_csv(&tenant_csv).as_ref(),
        Some(&tenants)
    );
    assert_eq!(
        TenantSummary::parse_json(&TenantSummary::to_json(&tenants)).as_ref(),
        Some(&tenants)
    );
    println!(
        "per-tenant CSV/JSON round-trip verified for {} tenant rows",
        tenants.len()
    );
    println!("--- per-tenant CSV export (first 4 lines) ---");
    for line in tenant_csv.lines().take(4) {
        println!("{line}");
    }
    Ok(())
}
