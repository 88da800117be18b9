//! Property tests for the export codec shared by every [`ExportRow`] type:
//! random rows round-trip exactly through JSON, round-trip through CSV up
//! to the documented replacements, and mutated documents never panic
//! either reader.

use palermo_sim::experiment::{ExportRow, RunSummary, ShardSummary, TenantSummary};
use palermo_sim::schemes::Scheme;
use palermo_workloads::WorkloadSpec;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::fmt::Debug;

/// Characters that stress the writers' escaping and the readers' scanning.
const HOSTILE: [char; 18] = [
    '"', '\\', '{', '}', '[', ']', ',', ':', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
    '\u{7f}', '\u{85}', 'é', '😀',
];

const WORKLOADS: [&str; 6] = [
    "mcf",
    "random",
    "mix:rr:redis*2+llm",
    "mix:phase:redis*2+llm@500..+stream@0..2000",
    "shard:2:hash:random",
    "open:poisson:0.05:random",
];

/// The alphabet byte mutations draw inserted and replacement bytes from.
const MUTATION_BYTES: &[u8] = b"{}[]\",:\\u0123456789abcdef";

fn pick<T: Copy>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.below(options.len() as u64) as usize]
}

fn text(rng: &mut TestRng) -> String {
    let len = rng.below(12);
    (0..len)
        .map(|_| {
            if rng.below(2) == 0 {
                pick(rng, &HOSTILE)
            } else {
                pick(rng, &['a', 'Z', '0', ' ', ';', '.'])
            }
        })
        .collect()
}

fn int(rng: &mut TestRng) -> u64 {
    let random = rng.next_u64();
    pick(rng, &[0, 1, u64::MAX, random])
}

fn small_int(rng: &mut TestRng) -> u32 {
    let random = rng.next_u64() as u32;
    pick(rng, &[0, 1, u32::MAX, random])
}

fn float(rng: &mut TestRng) -> f64 {
    let random = f64::from_bits(rng.next_u64());
    let random = if random.is_finite() { random } else { 0.5 };
    pick(
        rng,
        &[0.0, f64::MIN_POSITIVE, 1e300, 0.1 + 0.2, -2.5, random],
    )
}

fn scheme(rng: &mut TestRng) -> Scheme {
    pick(rng, &Scheme::ALL)
}

fn workload(rng: &mut TestRng) -> WorkloadSpec {
    WorkloadSpec::from_name(pick(rng, &WORKLOADS)).expect("valid spec name")
}

fn run_row(rng: &mut TestRng) -> RunSummary {
    RunSummary {
        label: text(rng),
        scheme: scheme(rng),
        workload: workload(rng),
        prefetch_length: small_int(rng),
        oram_requests: int(rng),
        workload_accesses: int(rng),
        dummy_requests: int(rng),
        cycles: int(rng),
        mean_latency: float(rng),
        llc_hit_rate: float(rng),
        stash_high_water: int(rng) as usize,
        bandwidth_utilization: float(rng),
        sync_stall_cycles: int(rng),
        arrivals: int(rng),
        dropped_arrivals: int(rng),
        mean_queue_wait: float(rng),
        shards: small_int(rng),
        hardware: text(rng),
        energy_j: float(rng),
    }
}

fn tenant_row(rng: &mut TestRng) -> TenantSummary {
    TenantSummary {
        label: text(rng),
        scheme: scheme(rng),
        workload: workload(rng),
        tenant: small_int(rng),
        tenant_workload: text(rng),
        submitted: int(rng),
        completed: int(rng),
        workload_accesses: int(rng),
        mean_latency: float(rng),
        p50_latency: int(rng),
        p95_latency: int(rng),
        p99_latency: int(rng),
        dram_ops: int(rng),
        dram_share: float(rng),
        energy_j: float(rng),
    }
}

fn shard_row(rng: &mut TestRng) -> ShardSummary {
    ShardSummary {
        label: text(rng),
        scheme: scheme(rng),
        workload: workload(rng),
        shard: small_int(rng),
        oram_requests: int(rng),
        workload_accesses: int(rng),
        dummy_requests: int(rng),
        cycles: int(rng),
        submitted_requests: int(rng),
        arrivals: int(rng),
        dropped_arrivals: int(rng),
        mean_latency: float(rng),
        p99_latency: int(rng),
        stash_high_water: int(rng) as usize,
    }
}

/// What CSV does to a text cell: `,` becomes `;`, control characters
/// become spaces.
fn flatten(s: &str) -> String {
    s.chars()
        .map(|c| match c {
            ',' => ';',
            c if c.is_control() => ' ',
            c => c,
        })
        .collect()
}

fn rows<T>(seed: u64, row: fn(&mut TestRng) -> T) -> Vec<T> {
    let mut rng = TestRng::deterministic(&seed.to_string());
    let len = rng.below(4);
    (0..len).map(|_| row(&mut rng)).collect()
}

fn check_round_trips<T: ExportRow + Clone + PartialEq + Debug>(
    rows: Vec<T>,
    flatten_row: fn(&mut T),
) {
    let json = T::to_json(&rows);
    // JSON strings may not hold raw characters below U+0020.
    assert!(!json.chars().any(|c| c < ' ' && c != '\n'));
    assert_eq!(T::parse_json(&json).as_ref(), Some(&rows), "{json}");
    let csv = T::to_csv(&rows);
    assert_eq!(csv.lines().count(), rows.len() + 1, "{csv}");
    let mut flattened = rows;
    flattened.iter_mut().for_each(flatten_row);
    assert_eq!(T::parse_csv(&csv), Some(flattened), "{csv}");
}

/// Applies `count` random byte deletions, insertions and replacements.
fn mutate(doc: &str, rng: &mut TestRng, count: u64) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    for _ in 0..count {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        let byte = pick(rng, MUTATION_BYTES);
        match rng.below(3) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 if at < bytes.len() => bytes[at] = byte,
            _ => bytes.insert(at, byte),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Feeds `doc` to both readers of every row type; only panics matter.
fn parse_everything(doc: &str) {
    let _ = RunSummary::parse_csv(doc);
    let _ = RunSummary::parse_json(doc);
    let _ = TenantSummary::parse_csv(doc);
    let _ = TenantSummary::parse_json(doc);
    let _ = ShardSummary::parse_csv(doc);
    let _ = ShardSummary::parse_json(doc);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn run_rows_round_trip(seed in any::<u64>()) {
        check_round_trips(rows(seed, run_row), |r| {
            r.label = flatten(&r.label);
            r.hardware = flatten(&r.hardware);
        });
    }

    #[test]
    fn tenant_rows_round_trip(seed in any::<u64>()) {
        check_round_trips(rows(seed, tenant_row), |r| {
            r.label = flatten(&r.label);
            r.tenant_workload = flatten(&r.tenant_workload);
        });
    }

    #[test]
    fn shard_rows_round_trip(seed in any::<u64>()) {
        check_round_trips(rows(seed, shard_row), |r| r.label = flatten(&r.label));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4000))]

    #[test]
    fn mutated_documents_never_panic_a_reader(seed in any::<u64>(), count in 1u64..8) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let docs = [
            RunSummary::to_csv(&rows(seed, run_row)),
            RunSummary::to_json(&rows(seed, run_row)),
            TenantSummary::to_csv(&rows(seed, tenant_row)),
            TenantSummary::to_json(&rows(seed, tenant_row)),
            ShardSummary::to_csv(&rows(seed, shard_row)),
            ShardSummary::to_json(&rows(seed, shard_row)),
        ];
        for doc in &docs {
            parse_everything(&mutate(doc, &mut rng, count));
        }
    }
}
