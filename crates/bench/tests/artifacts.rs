//! Committed benchmark-trajectory artifacts must be self-describing:
//! every `BENCH_*.json` at the repository root carries the schema version
//! and the commit it was generated at, so trajectory tooling can line up
//! formats and provenance across the history without guessing.

use std::path::PathBuf;

#[test]
fn every_bench_artifact_carries_schema_version_and_commit() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&root).expect("repo root readable") {
        let path = entry.expect("dir entry").path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_owned(),
            None => continue,
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("artifact readable");
        let has_key =
            |key: &str| text.lines().any(|l| l.trim_start().starts_with(&format!("\"{key}\":")));
        assert!(has_key("schema_version"), "{name} is missing \"schema_version\"");
        assert!(has_key("commit"), "{name} is missing \"commit\"");
        assert!(!text.contains("\"commit\": \"\""), "{name} has an empty \"commit\" field");
        assert!(
            has_key("host_cpus"),
            "{name} is missing \"host_cpus\" — wall-clock numbers must be legible as \
             single-core or parallel runs"
        );
        found.push(name);
    }
    found.sort();
    assert!(
        found.len() >= 7,
        "expected the committed BENCH artifacts (diff, mmu, table1, modes, host, kv, native), \
         found {found:?}"
    );
    assert!(
        found.iter().any(|n| n == "BENCH_kv.json"),
        "the KV serving sweep artifact must be committed, found {found:?}"
    );
    assert!(
        found.iter().any(|n| n == "BENCH_native.json"),
        "the native-substrate artifact must be committed, found {found:?}"
    );
}

/// The native-substrate artifact must carry the strategy comparison and
/// the KV sweep, with the DES-equality gate's provenance fields.
#[test]
fn native_artifact_records_the_des_gated_comparison() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let native = std::fs::read_to_string(root.join("BENCH_native.json"))
        .expect("BENCH_native.json must be committed");
    for key in [
        "\"bench\": \"native_substrate\"",
        "\"backend\": \"native\"",
        "\"host_cpus\":",
        "\"strategy_comparison\":",
        "\"kv_sweep\":",
        "\"master_only\":",
        "\"master_push\":",
        "\"rse\":",
        "\"wall_s\":",
        "\"throughput_rps\":",
        "\"read_xor\":",
    ] {
        assert!(native.contains(key), "BENCH_native.json must record {key}");
    }
}

/// The committed host-execution artifact must be at the v4 schema: one
/// engine, repeated samples per cluster size with their spread, and the
/// engine's switch counters.
#[test]
fn host_artifact_records_the_engine_trajectory() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let host = std::fs::read_to_string(root.join("BENCH_host.json"))
        .expect("BENCH_host.json must be committed");
    assert!(
        host.contains("\"schema_version\": 4"),
        "BENCH_host.json must carry the v4 schema (single-engine trajectory)"
    );
    for key in [
        "\"host_cpus\":",
        "\"samples\":",
        "\"median\":",
        "\"min\":",
        "\"max\":",
        "\"host_wall_s\":",
        "\"events_per_sec\":",
        "\"handoff_switches\":",
        "\"self_continues\":",
        "\"peak_pending\":",
        "\"stale_wakes\":",
    ] {
        assert!(host.contains(key), "BENCH_host.json v4 must record {key}");
    }
    for removed in ["\"parallel\":", "\"serial\":", "\"windows\":"] {
        assert!(!host.contains(removed), "BENCH_host.json v4 has no {removed} column");
    }
    for nodes in [32, 64, 256] {
        assert!(
            host.contains(&format!("{{\"nodes\": {nodes},")),
            "BENCH_host.json must cover {nodes} nodes"
        );
    }
}

/// EXPERIMENTS.md quotes the strategy comparison from `BENCH_modes.json`:
/// the two totals in the Table 1 paragraph and the whole §2 table. The
/// quoted figures must be the artifact's.
#[test]
fn experiments_quotes_the_modes_artifact() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let modes = std::fs::read_to_string(root.join("BENCH_modes.json"))
        .expect("BENCH_modes.json must be committed");
    let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
    let value = |key: &str| -> &str {
        let at = modes.find(&format!("\"{key}\": ")).unwrap_or_else(|| panic!("no {key}"));
        modes[at + key.len() + 4..].split(',').next().expect("a value").trim()
    };
    for key in ["master_only_time_s", "rse_time_s"] {
        let v = value(key);
        assert!(
            doc.contains(&format!("`{key}` ({v} s)")),
            "EXPERIMENTS.md must quote BENCH_modes.json's {key} = {v}"
        );
    }
    let num = |key: &str| -> f64 { value(key).parse().unwrap_or_else(|_| panic!("{key} number")) };
    for (row, time, ratio) in [
        ("MasterOnly", "master_only_time_s", None),
        ("MasterPush", "master_push_time_s", Some("push_vs_master_only")),
        ("Replicated", "rse_time_s", Some("rse_vs_master_only")),
    ] {
        let ratio = ratio.map_or("1.00".to_string(), |k| format!("{:.2}", num(k)));
        let line = format!("| {row} | {:.3} s | {ratio}× |", num(time));
        assert!(
            doc.contains(&line),
            "EXPERIMENTS.md's §2 table must have the row `{line}` from BENCH_modes.json"
        );
    }
}
