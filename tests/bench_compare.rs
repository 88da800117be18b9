//! Feeds fixture snapshots through `examples/bench_compare.rs`: one that
//! passes every check, one that breaks each same-run gate, and one that
//! lacks a gate's id.

#[path = "../examples/bench_compare.rs"]
#[allow(dead_code)]
mod bench_compare;

use std::path::PathBuf;

/// Writes a snapshot with the four gated means (in ms) to a fixture file.
fn snapshot(name: &str, tagged: f64, untagged: Option<f64>, serial: f64, pooled: f64) -> String {
    let mut lines = vec![
        ("fig03_ring_baseline", "ringoram_mcf", tagged),
        ("shard_scaling", "palermo_k4_serial", serial),
        ("shard_scaling", "palermo_k4_pooled", pooled),
    ];
    if let Some(untagged) = untagged {
        lines.push(("fig03_ring_baseline", "ringoram_mcf_untagged", untagged));
    }
    let text: String = lines
        .iter()
        .map(|(group, id, ms)| {
            format!(
                "{{\"group\":\"{group}\",\"id\":\"{id}\",\"mean_ns\":{}}}\n",
                ms * 1e6
            )
        })
        .collect();
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("bench_compare_{name}.json"));
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// Compares `fresh` against itself, so only the same-run gates can fail.
fn gates(fresh: &str, cores: usize) -> (String, String) {
    bench_compare::compare(fresh, fresh, 0.15, cores)
}

#[test]
fn a_healthy_snapshot_passes_on_any_core_count() {
    let fresh = snapshot("healthy", 2.05, Some(2.0), 100.0, 40.0);
    for cores in [1, 4, 16] {
        let (report, failures) = gates(&fresh, cores);
        assert_eq!(failures, "", "{cores} cores");
        assert!(report.contains("bench_compare: OK"), "{report}");
    }
}

#[test]
fn tagging_over_budget_fails() {
    // Budget: 2.0 ms * 1.05 + 0.5 ms = 2.6 ms.
    let within = snapshot("tagging_within", 2.59, Some(2.0), 100.0, 40.0);
    assert_eq!(gates(&within, 4).1, "");
    let over = snapshot("tagging_over", 2.61, Some(2.0), 100.0, 40.0);
    for cores in [1, 4] {
        let (_, failures) = gates(&over, cores);
        assert!(failures.contains("tenant tagging"), "{failures}");
    }
}

#[test]
fn slow_pooled_shards_fail_only_on_four_or_more_cores() {
    let slow = snapshot("pooled_slow", 2.0, Some(2.0), 100.0, 80.0);
    let (_, failures) = gates(&slow, 4);
    assert!(failures.contains("below the 1.5x gate"), "{failures}");
    let (report, failures) = gates(&slow, 3);
    assert_eq!(failures, "");
    assert!(report.contains("skipping the 1.5x gate"), "{report}");
}

#[test]
fn a_missing_gate_id_fails() {
    let missing = snapshot("missing_untagged", 2.0, None, 100.0, 40.0);
    let (_, failures) = gates(&missing, 4);
    assert!(
        failures.contains("fig03_ring_baseline/ringoram_mcf_untagged: missing"),
        "{failures}"
    );
}
