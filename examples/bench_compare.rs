//! Compares a fresh tick-loop bench snapshot against a committed baseline
//! and fails loudly on regressions, missing files, or group-name drift,
//! then checks the same-run perf gates on the fresh snapshot alone.
//!
//! This is the one perf-gate tool CI runs after regenerating
//! `BENCH_tick_loop.json` (see `bench/README.md` for the snapshot
//! convention):
//!
//! ```text
//! cargo run --release --example bench_compare -- \
//!     --baseline bench/BENCH_tick_loop.json \
//!     --fresh BENCH_tick_loop.json \
//!     --max-regression 0.15
//! ```
//!
//! Both files are JSON lines of `{"group":...,"id":...,"mean_ns":...}`
//! records as written by the `palermo-bench` harness under
//! `PALERMO_BENCH_JSON`. The parser is hand-rolled against that fixed,
//! machine-written schema (the workspace takes no JSON dependency).
//! Duplicate `(group, id)` lines merge by taking the **minimum** mean: the
//! harness appends, so running a bench N times against the same file
//! implements the min-of-N protocol from `bench/README.md` — the minimum is
//! far more stable than any single run on a busy or thermally-throttled
//! machine, and CI regenerates its fresh snapshot that way.
//!
//! Exit is non-zero when:
//! - either file is missing or unreadable (a silently absent baseline
//!   previously downgraded the whole gate to a no-op);
//! - a `(group, id)` present in the baseline is absent from the fresh run
//!   (bench group renames must update the committed snapshot in the same
//!   PR, otherwise the gate compares nothing);
//! - any fresh mean exceeds its baseline by more than `--max-regression`
//!   (relative, e.g. `0.15` = +15%);
//! - a same-run gate fails, or the fresh snapshot lacks one of its ids.
//!   Each gate compares two means measured by the same bench invocation,
//!   so machine variance cancels:
//!   - tenant tagging: `fig03_ring_baseline/ringoram_mcf` (per-tenant
//!     attribution on) may cost at most 5% + 0.5 ms over
//!     `ringoram_mcf_untagged`;
//!   - pooled shards: `shard_scaling/palermo_k4_serial` over
//!     `palermo_k4_pooled` must be at least 1.5x when the host has 4 or
//!     more cores (as `std::thread::available_parallelism` reports them,
//!     CPU quotas included); with fewer the gate prints a skip.
//!
//! Entries only in the fresh run are reported but do not fail: a new bench
//! lands before its first committed snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// One `{"group":...,"id":...,"mean_ns":...}` record per line.
type Snapshot = BTreeMap<(String, String), f64>;

/// Extracts the JSON string value for `key`, e.g. `"group":"fig03"`.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extracts the JSON numeric value for `key`, e.g. `"mean_ns":3868221.5`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load(path: &str) -> Result<Snapshot, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench snapshot {path}: {e}"))?;
    let mut snapshot = Snapshot::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let parsed = string_field(line, "group").and_then(|group| {
            let id = string_field(line, "id")?;
            let mean = number_field(line, "mean_ns")?;
            Some(((group, id), mean))
        });
        match parsed {
            Some((key, mean)) => {
                let slot = snapshot.entry(key).or_insert(f64::INFINITY);
                *slot = slot.min(mean);
            }
            None => {
                return Err(format!(
                    "{path}:{}: malformed bench record: {line}",
                    lineno + 1
                ))
            }
        }
    }
    if snapshot.is_empty() {
        return Err(format!("{path}: no bench records found"));
    }
    Ok(snapshot)
}

/// The fresh mean of `group/id`, or a failure naming the missing id.
fn mean(fresh: &Snapshot, group: &str, id: &str) -> Result<f64, String> {
    fresh
        .get(&(group.to_string(), id.to_string()))
        .copied()
        .ok_or_else(|| format!("{group}/{id}: missing from the fresh snapshot\n"))
}

/// Tenant tagging must stay within 5% + 0.5 ms of the untagged run.
fn tagging_gate(fresh: &Snapshot) -> Result<String, String> {
    let tagged = mean(fresh, "fig03_ring_baseline", "ringoram_mcf")?;
    let untagged = mean(fresh, "fig03_ring_baseline", "ringoram_mcf_untagged")?;
    let budget = untagged * 1.05 + 500_000.0;
    let line = format!(
        "tenant tagging: tagged {:.3} ms vs untagged {:.3} ms (budget {:.3} ms)",
        tagged / 1e6,
        untagged / 1e6,
        budget / 1e6
    );
    if tagged <= budget {
        Ok(line)
    } else {
        Err(format!(
            "{line} — tagging costs {:.1}% (budget: 5% + 0.5 ms)\n",
            (tagged / untagged - 1.0) * 100.0
        ))
    }
}

/// Pooled shard stepping must win at least 1.5x at K=4 on 4+ cores.
fn pooled_gate(fresh: &Snapshot, cores: usize) -> Result<String, String> {
    let serial = mean(fresh, "shard_scaling", "palermo_k4_serial")?;
    let pooled = mean(fresh, "shard_scaling", "palermo_k4_pooled")?;
    let speedup = serial / pooled;
    let line = format!(
        "pooled shards: serial {:.3} ms vs pooled {:.3} ms ({speedup:.2}x on {cores} cores)",
        serial / 1e6,
        pooled / 1e6
    );
    if cores < 4 {
        Ok(format!(
            "{line}; skipping the 1.5x gate: fewer than 4 cores"
        ))
    } else if speedup >= 1.5 {
        Ok(line)
    } else {
        Err(format!("{line} — below the 1.5x gate\n"))
    }
}

/// Runs every check on the two snapshot files and returns the report
/// (printed on stdout) and the failures (empty when everything passed).
pub fn compare(
    baseline_path: &str,
    fresh_path: &str,
    max_regression: f64,
    cores: usize,
) -> (String, String) {
    let mut report = String::new();
    let mut failures = String::new();
    let (baseline, fresh) = match (load(baseline_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                let _ = writeln!(failures, "bench_compare: {err}");
            }
            return (report, failures);
        }
    };

    for (key, base) in &baseline {
        let (group, id) = key;
        match fresh.get(key) {
            None => {
                let _ = writeln!(
                    failures,
                    "{group}/{id}: present in {baseline_path} but missing from \
                     {fresh_path} — bench renamed or dropped without updating \
                     the committed snapshot"
                );
            }
            Some(now) => {
                let ratio = now / base;
                let line = format!(
                    "{group}/{id}: {:.3} ms vs committed {:.3} ms ({:+.1}%)",
                    now / 1e6,
                    base / 1e6,
                    (ratio - 1.0) * 100.0
                );
                if ratio > 1.0 + max_regression {
                    let _ = writeln!(
                        failures,
                        "{line} — exceeds the {:.0}% regression budget",
                        max_regression * 100.0
                    );
                } else {
                    let _ = writeln!(report, "{line}");
                }
            }
        }
    }
    for (group, id) in fresh.keys().filter(|k| !baseline.contains_key(*k)) {
        let _ = writeln!(
            report,
            "{group}/{id}: new bench (no committed baseline yet)"
        );
    }
    for gate in [tagging_gate(&fresh), pooled_gate(&fresh, cores)] {
        match gate {
            Ok(line) => {
                let _ = writeln!(report, "{line}");
            }
            Err(failure) => failures.push_str(&failure),
        }
    }
    if failures.is_empty() {
        let _ = writeln!(
            report,
            "bench_compare: OK ({} benches within budget, same-run gates passed)",
            baseline.len()
        );
    }
    (report, failures)
}

fn parse_args() -> Result<(String, String, f64), String> {
    let mut baseline = None;
    let mut fresh = None;
    let mut max_regression = 0.15f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--max-regression" => {
                max_regression = value("--max-regression")?
                    .parse()
                    .map_err(|e| format!("--max-regression: {e}"))?
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok((
        baseline.ok_or("--baseline <path> is required")?,
        fresh.ok_or("--fresh <path> is required")?,
        max_regression,
    ))
}

fn main() -> ExitCode {
    let (baseline_path, fresh_path, max_regression) = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (report, failures) = compare(&baseline_path, &fresh_path, max_regression, cores);
    print!("{report}");
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprint!("{failures}");
        ExitCode::FAILURE
    }
}
