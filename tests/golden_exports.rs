//! Golden export bytes: pins the exact CSV and JSON documents the result
//! exports write for the run, tenant and shard tables.
//!
//! The round-trip tests check that each reader inverts its writer, so a
//! change to both sides (a renamed column, a different float format, a new
//! escape) would stay green while breaking every downstream consumer of the
//! files. This test renders all six documents from a small pinned
//! `ResultSet` at `SystemConfig::small_for_tests()` and compares them byte
//! for byte against `tests/golden/exports/`.
//!
//! The set covers a two-tenant mix (tenant rows), a two-shard run (shard
//! rows), an open-loop run (non-zero arrival columns), a non-default
//! hardware profile, and a copy of the sharded run relabelled with quotes,
//! braces, commas, control characters and a trailing backslash.
//!
//! A deliberate format change regenerates the files from the output this
//! test prints on failure. A second test keeps README's column lists in
//! step with the code.

use palermo::dram::HardwareProfile;
use palermo::sim::experiment::{
    ExportRow, ResultSet, RunSpec, RunSummary, ShardSummary, TenantSummary,
};
use palermo::sim::{Scheme, SystemConfig, WorkloadSpec};

const HOSTILE_LABEL: &str = "odd \"label\" with {braces},\ncommas\tand\u{1}controls\\";

const GOLDEN: [(&str, &str); 6] = [
    ("runs.csv", include_str!("golden/exports/runs.csv")),
    ("runs.json", include_str!("golden/exports/runs.json")),
    ("tenants.csv", include_str!("golden/exports/tenants.csv")),
    ("tenants.json", include_str!("golden/exports/tenants.json")),
    ("shards.csv", include_str!("golden/exports/shards.csv")),
    ("shards.json", include_str!("golden/exports/shards.json")),
];

fn pinned_set() -> ResultSet {
    let config = SystemConfig::small_for_tests();
    let hbm = HardwareProfile::builtins()
        .into_iter()
        .find(|p| p.name == "hbm2e")
        .expect("hbm2e is a builtin profile");
    let hbm_config = config.clone().with_hardware(&hbm);
    let specs = [
        (Scheme::RingOram, "mix:rr:redis*2+llm", config.clone()),
        (Scheme::Palermo, "shard:2:hash:random", config.clone()),
        (Scheme::Palermo, "open:poisson:0.05:random", config.clone()),
        (Scheme::RingOram, "random", hbm_config),
    ];
    let mut records: Vec<_> = specs
        .into_iter()
        .map(|(scheme, name, config)| {
            let spec = WorkloadSpec::from_name(name).unwrap();
            RunSpec::with_workload_spec(scheme, spec, config)
                .run()
                .unwrap_or_else(|e| panic!("{scheme}/{name} failed: {e}"))
        })
        .collect();
    let mut hostile = records[1].clone();
    hostile.label = HOSTILE_LABEL.to_string();
    records.push(hostile);
    ResultSet::new(records)
}

fn render(set: &ResultSet) -> [(&'static str, String); 6] {
    [
        ("runs.csv", RunSummary::to_csv(&set.rows())),
        ("runs.json", RunSummary::to_json(&set.rows())),
        ("tenants.csv", TenantSummary::to_csv(&set.rows())),
        ("tenants.json", TenantSummary::to_json(&set.rows())),
        ("shards.csv", ShardSummary::to_csv(&set.rows())),
        ("shards.json", ShardSummary::to_json(&set.rows())),
    ]
}

#[test]
fn exports_match_the_golden_documents() {
    let fresh = render(&pinned_set());
    let mut stale = Vec::new();
    for ((name, actual), (golden_name, golden)) in fresh.iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        assert!(
            actual.lines().count() >= 3,
            "{name}: every table needs at least two rows"
        );
        if actual != golden {
            stale.push(format!(
                "--- tests/golden/exports/{name} should be:\n{actual}"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "golden exports changed; if the change is intended, replace the \
files with:\n{}",
        stale.join("\n")
    );
    let total: usize = GOLDEN.iter().map(|(_, doc)| doc.len()).sum();
    assert!(total <= 16 * 1024, "golden exports grew to {total} bytes");
}

/// README's "Exports" section lists every table's columns; a column added
/// to the code without the docs fails here.
#[test]
fn readme_lists_every_export_header() {
    let readme = include_str!("../README.md");
    for header in [
        RunSummary::HEADER,
        TenantSummary::HEADER,
        ShardSummary::HEADER,
    ] {
        assert!(
            readme.lines().any(|line| line == header),
            "README.md does not list this export header on a line of its own:\n{header}"
        );
    }
}
