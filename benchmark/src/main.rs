//! The repository benchmark: host cost per simulated ORAM request for
//! RingORAM and Palermo, closed and open loop, and a traced run that
//! attributes host time and work to the simulator's layers.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <ring_mcf|palermo_mcf|palermo_open_mix|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `--trace 0` reports the
//! end-to-end metrics and `--trace 1` the per-layer ones. A human-readable
//! report goes to standard error. `README.md` beside this crate describes
//! the workloads, the metrics and the measurement protocol.

mod stats;
mod traced;

use palermo_sim::{
    run_workload_spec, run_workload_spec_stepped, ReferenceStepper, RunMetrics, Scheme,
    SystemConfig, WorkloadSpec,
};
use stats::{median, percentile, ratio};
use std::hint::black_box;
use std::io::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use traced::{run_traced, Counts, Layer, System, Traced};

/// The paper's seed, used when `--seed` is not given.
const PAPER_SEED: u64 = 0x9A1E_0A90;
/// Sub-seeds one invocation simulates; the simulated metrics pool them.
/// 32 runs x 600 measured requests pool 19200 latencies, so p99 has far
/// more than ten samples beyond it, and the pooled figures move by a few
/// percent at most from one `--seed` to another.
const SIM_SEEDS: u64 = 32;
/// System builds timed for `setup_s` beside every timed run (the median
/// over all of them is reported).
const SETUP_REPS: usize = 4;
/// Iterations of the fixed calibration loop run beside every timed run.
const CALIB_ITERS: u32 = 1 << 19;
/// Child processes whose peak memory is measured (the median is reported).
const RSS_PROBES: usize = 5;

const USAGE: &str =
    "usage: palermo-hostbench --workload <ring_mcf|palermo_mcf|palermo_open_mix|all> \
[--seed N] [--seconds S] [--trace 0|1]";

/// One benchmark workload: a scheme on a workload spec, under Table III.
struct Workload {
    name: &'static str,
    scheme: Scheme,
    spec: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ring_mcf",
        scheme: Scheme::RingOram,
        spec: "mcf",
    },
    Workload {
        name: "palermo_mcf",
        scheme: Scheme::Palermo,
        spec: "mcf",
    },
    Workload {
        name: "palermo_open_mix",
        scheme: Scheme::Palermo,
        spec: "open:poisson:1.0:mix:rr:redis*2+llm+stream",
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Internal: run one simulation and print this process's peak memory.
    rss_probe: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: PAPER_SEED,
        seconds: 10,
        trace: false,
        rss_probe: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => {
                args.seed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                }
                .map_err(|e| format!("bad --seed {value:?}: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|e| format!("bad --seconds {value:?}: {e}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}: expected 0 or 1")),
                };
            }
            "--rss-probe" => args.rss_probe = value == "1",
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `i`-th simulated seed of an invocation; sub-seed 0 is the seed
/// itself, so the default invocation simulates the paper seed.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i << 48)
}

fn config_for(seed: u64) -> SystemConfig {
    SystemConfig {
        seed,
        ..SystemConfig::paper_default()
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed over an invocation's timed runs.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fixed pure-CPU loop (a serial xorshift chain); its duration beside
/// each timed run makes host-speed changes visible in the results.
fn calibrate() -> u64 {
    let start = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..black_box(CALIB_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    elapsed_ns(start)
}

/// Times `SETUP_REPS` builds of the system a run on `config` starts from,
/// appending seconds to `samples`.
fn time_setup(
    w: &Workload,
    spec: &WorkloadSpec,
    config: &SystemConfig,
    samples: &mut Vec<f64>,
) -> Result<(), String> {
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let system = System::build(w.scheme, spec, config).map_err(|e| e.to_string())?;
        samples.push(start.elapsed().as_secs_f64());
        drop(black_box(system));
    }
    Ok(())
}

/// The oracle check: the per-cycle `ReferenceStepper` must reproduce the
/// calendar stepper's metrics exactly.
fn oracle_check(
    w: &Workload,
    spec: &WorkloadSpec,
    seed: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let config = config_for(seed);
    let (calendar, _) = timed_run(w, spec, &config, tally)?;
    let reference = run_workload_spec_stepped(w.scheme, spec, &config, &ReferenceStepper)
        .map_err(|e| e.to_string())?;
    if calendar != reference {
        return Err(format!(
            "oracle check failed on seed {seed:#x}: ReferenceStepper gave {} cycles, \
             CalendarStepper {}",
            reference.cycles, calendar.cycles
        ));
    }
    Ok(())
}

/// Correctness checks every timed run must pass.
fn check_run(m: &RunMetrics, config: &SystemConfig) -> Result<(), String> {
    if m.oram_requests != config.measured_requests
        || m.latencies.len() as u64 != config.measured_requests
    {
        return Err(format!(
            "completed {} measured requests ({} latencies), expected {}",
            m.oram_requests,
            m.latencies.len(),
            config.measured_requests
        ));
    }
    if !m.tenant_conservation_ok() {
        return Err("per-tenant metrics do not sum to the aggregates".into());
    }
    if !m.arrival_conservation_ok() {
        return Err("arrival accounting is inconsistent".into());
    }
    if m.workload.open_loop().is_some() && m.queue_waits.len() != m.latencies.len() {
        return Err(format!(
            "{} queue waits for {} latencies",
            m.queue_waits.len(),
            m.latencies.len()
        ));
    }
    Ok(())
}

/// One untraced, timed run: returns its metrics and host nanoseconds after
/// the per-run checks, and counts its operations (open loop: measured-window
/// arrivals, of which drops fail; closed loop: measured requests).
fn timed_run(
    w: &Workload,
    spec: &WorkloadSpec,
    config: &SystemConfig,
    tally: &mut Tally,
) -> Result<(RunMetrics, u64), String> {
    let start = Instant::now();
    let result = run_workload_spec(w.scheme, spec, config);
    let ns = elapsed_ns(start);
    let m = result.map_err(|e| {
        tally.attempted += config.measured_requests;
        e.to_string()
    })?;
    tally.attempted += if m.workload.open_loop().is_some() {
        m.arrivals
    } else {
        config.measured_requests
    };
    tally.failed += m.dropped_arrivals;
    check_run(&m, config).map_err(|e| format!("seed {:#x}: {e}", config.seed))?;
    Ok((m, ns))
}

/// Checks that a repeated run of a sub-seed reproduced its first run.
fn check_repeat(first: &RunMetrics, again: &RunMetrics, seed: u64) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "seed {seed:#x} is not deterministic: {} cycles, then {}",
            first.cycles, again.cycles
        ))
    }
}

/// This process's peak resident memory (`VmHWM`) in KiB.
fn peak_rss_kib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Median peak memory, in MiB, of fresh processes that each run the
/// workload once on `seed` (`--rss-probe 1`). A single process's peak moves
/// by a few hundred KiB from run to run with how its pages happen to fault
/// in, so several are taken.
fn probe_peak_rss_mib(w: &Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let mut samples = Vec::with_capacity(RSS_PROBES);
    for _ in 0..RSS_PROBES {
        let out = Command::new(&exe)
            .args([
                "--workload",
                w.name,
                "--seed",
                &seed.to_string(),
                "--rss-probe",
                "1",
            ])
            .output()
            .map_err(|e| format!("cannot start the memory probe: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let kib: f64 = stdout
            .lines()
            .last()
            .and_then(|l| l.trim().parse().ok())
            .filter(|_| out.status.success())
            .ok_or_else(|| {
                format!(
                    "memory probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                )
            })?;
        samples.push(kib / 1024.0);
    }
    Ok(median(&samples))
}

/// Whether another of `done` equally long steps (runs or rounds) fits in
/// the budget, judged by their mean length so far; `min` steps always run.
fn another(start: Instant, done: u32, min: u32, budget: Duration) -> bool {
    let spent = start.elapsed();
    done < min || spent + spent / done <= budget
}

/// The end-to-end run: the oracle check and the memory probes, then
/// untraced runs cycling over the sub-seeds until `seconds` have passed
/// (at least one of each), with set-up timed beside every run.
fn measure_end_to_end(
    w: &Workload,
    spec: &WorkloadSpec,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    oracle_check(w, spec, seed, tally)?;
    let peak_rss_mb = probe_peak_rss_mib(w, seed)?;

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut first: Vec<RunMetrics> = Vec::new();
    let mut setup = Vec::new();
    let mut calib = Vec::new();
    let mut us_per_req = Vec::new();
    let (mut total_ns, mut total_requests) = (0u64, 0u64);
    while another(start, us_per_req.len() as u32, SIM_SEEDS as u32, budget) {
        let i = us_per_req.len() as u64 % SIM_SEEDS;
        let config = config_for(sub_seed(seed, i));
        time_setup(w, spec, &config, &mut setup)?;
        calib.push(calibrate() as f64);
        let (m, ns) = timed_run(w, spec, &config, tally)?;
        total_ns += ns;
        total_requests += config.total_requests();
        us_per_req.push(ns as f64 / 1e3 / config.total_requests() as f64);
        match first.get(i as usize) {
            Some(f) => check_repeat(f, &m, config.seed)?,
            None => first.push(m),
        }
    }

    let requests: u64 = first.iter().map(|m| m.oram_requests).sum();
    let cycles: u64 = first.iter().map(|m| m.cycles).sum();
    let energy_j: f64 = first.iter().map(RunMetrics::energy_j).sum();
    let arrivals: u64 = first.iter().map(|m| m.arrivals).sum();
    let dropped: u64 = first.iter().map(|m| m.dropped_arrivals).sum();
    let mut e2e: Vec<u64> = first
        .iter()
        .flat_map(RunMetrics::end_to_end_latencies)
        .collect();
    e2e.sort_unstable();
    let served_frac = if arrivals == 0 {
        1.0
    } else {
        (arrivals - dropped) as f64 / arrivals as f64
    };
    let mut sorted_us = us_per_req.clone();
    sorted_us.sort_by(f64::total_cmp);
    let q = |f: f64| sorted_us[((sorted_us.len() - 1) as f64 * f) as usize];
    eprintln!(
        "{}: {} runs over {SIM_SEEDS} seeds, {} latencies pooled; per-run host us/req min {:.1} \
         q1 {:.1} q2 {:.1} q3 {:.1} max {:.1}; calibration median {:.0} ns",
        w.name,
        us_per_req.len(),
        e2e.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0),
        median(&calib)
    );
    Ok(vec![
        metric(
            "host_us_per_req",
            total_ns as f64 / 1e3 / total_requests as f64,
            "us",
        ),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
        metric(
            "sim_req_per_kcycle",
            ratio(requests as f64 * 1000.0, cycles as f64),
            "req/kcycle",
        ),
        metric(
            "sim_lat_p50_cycles",
            percentile(&e2e, 50.0) as f64,
            "cycles",
        ),
        metric(
            "sim_lat_p99_cycles",
            percentile(&e2e, 99.0) as f64,
            "cycles",
        ),
        metric(
            "sim_energy_nj_per_req",
            ratio(energy_j * 1e9, requests as f64),
            "nJ",
        ),
        metric("served_frac", served_frac, "ratio"),
    ])
}

/// Host times of one traced round (one traced and one untraced run per
/// sub-seed).
#[derive(Default)]
struct RoundTimes {
    layer_ns: [u64; 8],
    traced_ns: u64,
    untraced_ns: u64,
}

impl RoundTimes {
    fn layer(&self, layer: Layer) -> f64 {
        self.layer_ns[layer.index()] as f64
    }
}

/// The traced run: the oracle check, then rounds that run every sub-seed
/// untraced and traced, check the traced driver's identity with the runner,
/// and attribute host time and work to the layers.
fn measure_layers(
    w: &Workload,
    spec: &WorkloadSpec,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Traced), String> {
    oracle_check(w, spec, seed, tally)?;

    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut first_counts: Option<Counts> = None;
    let mut rounds: Vec<RoundTimes> = Vec::new();
    let mut waits: Vec<u64> = Vec::new();
    let mut calib = Vec::new();
    let mut last = None;
    while another(start, rounds.len() as u32, 1, budget) {
        let mut counts = Counts::default();
        let mut round = RoundTimes::default();
        for i in 0..SIM_SEEDS {
            let config = config_for(sub_seed(seed, i));
            calib.push(calibrate() as f64);
            let (m, ns) = timed_run(w, spec, &config, tally)?;
            round.untraced_ns += ns;
            calib.push(calibrate() as f64);
            let t = Instant::now();
            let traced = run_traced(w.scheme, spec, &config).map_err(|e| e.to_string())?;
            round.traced_ns += elapsed_ns(t);
            if traced.cycles != m.cycles
                || traced.latencies != m.latencies
                || traced.queue_waits != m.queue_waits
            {
                return Err(format!(
                    "traced driver diverged from the runner on seed {:#x}: {} cycles vs {}; \
                     it no longer follows run_core's call sequence",
                    config.seed, traced.cycles, m.cycles
                ));
            }
            counts.add(&traced.counts);
            for (sum, ns) in round.layer_ns.iter_mut().zip(traced.layer_ns) {
                *sum += ns;
            }
            if first_counts.is_none() {
                waits.extend_from_slice(&traced.queue_waits);
            }
            last = Some(traced);
        }
        match &first_counts {
            None => first_counts = Some(counts),
            Some(c) if *c != counts => {
                return Err("traced work counts differ between rounds of the same seeds".into());
            }
            Some(_) => {}
        }
        rounds.push(round);
    }
    let (Some(c), Some(last)) = (first_counts, last) else {
        return Err("no traced round ran".into());
    };
    waits.sort_unstable();

    let reqs = c.real_requests as f64;
    let per_req = |layer: Layer| {
        median(
            &rounds
                .iter()
                .map(|r| r.layer(layer) / reqs)
                .collect::<Vec<_>>(),
        )
    };
    let per_count = |layer: Layer, n: u64| {
        median(
            &rounds
                .iter()
                .map(|r| ratio(r.layer(layer), n as f64))
                .collect::<Vec<_>>(),
        )
    };
    let overhead = median(
        &rounds
            .iter()
            .map(|r| ratio(r.traced_ns as f64, r.untraced_ns as f64))
            .collect::<Vec<_>>(),
    );
    let real_plans = c.plans - c.bg_evicts;
    let cw = &c.controller_window;
    let dw = &c.dram_window;
    let metrics = vec![
        metric(
            "controller.tick_ns_per_req",
            per_req(Layer::Controller),
            "ns",
        ),
        metric("controller.ticks", c.controller_ticks as f64, "count"),
        metric(
            "controller.ns_per_tick",
            per_count(Layer::Controller, c.controller_ticks),
            "ns",
        ),
        metric(
            "controller.settled_frac",
            ratio(c.settled_ticks as f64, c.controller_ticks as f64),
            "ratio",
        ),
        metric(
            "controller.submit_reject_frac",
            ratio(c.submit_rejects as f64, c.submit_attempts as f64),
            "ratio",
        ),
        metric("controller.submit_ns_per_req", per_req(Layer::Submit), "ns"),
        metric(
            "controller.sync_stall_frac",
            ratio(cw.sync_stall_cycles as f64, cw.cycles as f64),
            "ratio",
        ),
        metric(
            "controller.issue_cycle_frac",
            ratio(cw.issue_cycles as f64, cw.cycles as f64),
            "ratio",
        ),
        metric("dram.tick_ns_per_req", per_req(Layer::Dram), "ns"),
        metric("dram.ticks", c.dram_ticks as f64, "count"),
        metric(
            "dram.ns_per_tick",
            per_count(Layer::Dram, c.dram_ticks),
            "ns",
        ),
        metric(
            "dram.ops_per_req",
            ratio(dw.total_accesses() as f64, c.measured_requests as f64),
            "count",
        ),
        metric("dram.row_hit_rate", dw.row_hit_rate(), "ratio"),
        metric("dram.bus_util", dw.bandwidth_utilization(), "ratio"),
        metric(
            "dram.mean_read_latency_cycles",
            dw.avg_read_latency(),
            "cycles",
        ),
        metric("dram.mean_queue_depth", dw.avg_queue_occupancy(), "count"),
        metric("sim.stepper.self_ns_per_req", per_req(Layer::Stepper), "ns"),
        metric(
            "sim.loop_iters_per_req",
            ratio(c.loop_iters as f64, reqs),
            "count",
        ),
        metric("sim.stepper.skip_windows", c.skip_windows as f64, "count"),
        metric(
            "sim.stepper.skipped_cycle_frac",
            ratio(c.skipped_cycles as f64, c.total_cycles as f64),
            "ratio",
        ),
        metric(
            "sim.stepper.quiescent_hit_frac",
            ratio(c.skip_windows as f64, c.quiescent_calls as f64),
            "ratio",
        ),
        metric("oram.self_ns_per_req", per_req(Layer::Oram), "ns"),
        metric("oram.ns_per_plan", per_count(Layer::Oram, c.plans), "ns"),
        metric("oram.plans", c.plans as f64, "count"),
        metric("oram.bg_evicts", c.bg_evicts as f64, "count"),
        metric(
            "oram.dram_ops_per_plan",
            ratio(c.plan_traffic as f64, c.plans as f64),
            "count",
        ),
        metric("oram.stash_high_water", c.stash_high_water as f64, "count"),
        metric("workloads.self_ns_per_req", per_req(Layer::Workloads), "ns"),
        metric(
            "workloads.pulls_per_req",
            ratio(c.pulls as f64, real_plans as f64),
            "count",
        ),
        metric(
            "workloads.llc_hit_rate",
            ratio(c.llc_hits as f64, (c.llc_hits + c.llc_misses) as f64),
            "ratio",
        ),
        metric("sim.serving.self_ns_per_req", per_req(Layer::Serving), "ns"),
        metric(
            "sim.serving.queue_wait_p50_cycles",
            percentile(&waits, 50.0) as f64,
            "cycles",
        ),
        metric(
            "sim.serving.queue_wait_p99_cycles",
            percentile(&waits, 99.0) as f64,
            "cycles",
        ),
        metric("sim.retire.self_ns_per_req", per_req(Layer::Retire), "ns"),
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("bench.calib_ns", median(&calib), "ns"),
    ];

    let traced_ns: u64 = rounds.iter().map(|r| r.traced_ns).sum();
    eprintln!(
        "{}: {} rounds x {SIM_SEEDS} seeds; share of traced wall time per layer:",
        w.name,
        rounds.len()
    );
    for layer in Layer::ALL {
        let ns: f64 = rounds.iter().map(|r| r.layer(layer)).sum();
        eprintln!(
            "  {:<10} {:>5.1}%",
            layer.name(),
            100.0 * ratio(ns, traced_ns as f64)
        );
    }
    Ok((metrics, last))
}

/// Writes the last traced run's spans and per-layer totals as JSON lines,
/// once, after measuring.
fn write_spans(workload: &str, seed: u64, traced: &Traced) -> std::io::Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("spans-{workload}-{seed:#x}.jsonl"));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for layer in Layer::ALL {
        writeln!(
            out,
            "{{\"layer\": \"{}\", \"total_ns\": {}}}",
            layer.name(),
            traced.ns(layer)
        )?;
    }
    for s in &traced.spans {
        writeln!(
            out,
            "{{\"span\": \"{}\", \"request\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.kind.name(),
            s.request_id,
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let Some(spec) = WorkloadSpec::from_name(w.spec) else {
        eprintln!("error: workload spec {:?} does not parse", w.spec);
        return ExitCode::from(2);
    };
    if args.rss_probe {
        return match run_workload_spec(w.scheme, &spec, &config_for(args.seed))
            .map_err(|e| e.to_string())
            .and_then(|m| peak_rss_kib().map(|kib| (m, kib)))
        {
            Ok((m, kib)) => {
                black_box(m);
                println!("{kib}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut tally = Tally::default();
    let measured = if args.trace {
        measure_layers(w, &spec, args.seed, args.seconds, &mut tally).map(|(m, last)| {
            match write_spans(w.name, args.seed, &last) {
                Ok(path) => eprintln!("spans written to {path}"),
                Err(e) => eprintln!("warning: spans not written: {e}"),
            }
            m
        })
    } else {
        measure_end_to_end(w, &spec, args.seed, args.seconds, &mut tally)
    };
    let metrics = match measured {
        Ok(metrics) => metrics,
        Err(e) => {
            // A failed check voids the invocation: every operation it
            // attempted counts as failed.
            tally.failed = tally.attempted;
            eprintln!("FAILED {}: {e}", w.name);
            println!("{}", result_json(false, &tally, &[]));
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "{} (seed {:#x}, {} of {} operations failed):",
        w.name, args.seed, tally.failed, tally.attempted
    );
    for m in &metrics {
        eprintln!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(true, &tally, &metrics));
    ExitCode::SUCCESS
}

/// Runs every workload in its own child process (so each reports its own
/// peak memory) and fails if any of them fails.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        let mut child_args: Vec<String> = raw.to_vec();
        if let Some(pos) = child_args.iter().position(|a| a == "--workload") {
            child_args[pos + 1] = w.name.to_string();
        }
        println!("== {}", w.name);
        let passed = Command::new(&exe)
            .args(&child_args)
            .status()
            .is_ok_and(|s| s.success());
        ok &= passed;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: at least one workload failed its checks");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match WORKLOADS.iter().find(|w| w.name == args.workload) {
        Some(w) => run_one(w, &args),
        None => {
            eprintln!("error: unknown workload {:?}\n{USAGE}", args.workload);
            ExitCode::from(2)
        }
    }
}
