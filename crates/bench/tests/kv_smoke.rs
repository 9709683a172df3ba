//! End-to-end smoke of the KV-serving workload: the final-state gates must
//! hold across all three sequential-section strategies at a small scale.

use repseq_apps::kv::{KvResult, KvStore};
use repseq_bench::{kv_config, run, RunOutcome, Scale};
use repseq_core::SeqMode;
use repseq_dsm::ClusterConfig;

fn run_kv(mode: SeqMode, n: usize) -> RunOutcome<KvResult> {
    run(ClusterConfig::paper(n), mode, |rt| KvStore::setup(rt, kv_config(Scale::Tiny)))
}

#[test]
fn kv_state_is_strategy_invariant_at_small_scale() {
    let orig = run_kv(SeqMode::MasterOnly, 4);
    let opt = run_kv(SeqMode::Replicated, 4);
    let push = run_kv(SeqMode::MasterPush, 4);

    // Correctness gates: identical final table, identical served values,
    // identical trace.
    assert_eq!(orig.result.fingerprint, opt.result.fingerprint);
    assert_eq!(orig.result.fingerprint, push.result.fingerprint);
    assert_eq!(orig.result.read_xor, opt.result.read_xor);
    assert_eq!(orig.result.read_xor, push.result.read_xor);
    assert_eq!(orig.result.trace_hash, opt.result.trace_hash);
    assert_eq!(orig.result.reads + orig.result.writes, 256);

    // Sanity on the measurements: latencies are populated and ordered.
    for r in [&orig.result, &opt.result, &push.result] {
        assert!(r.p50_ns > 0, "{r:?}");
        assert!(r.p50_ns <= r.p99_ns && r.p99_ns <= r.p999_ns, "{r:?}");
        assert!(r.throughput_rps > 0.0, "{r:?}");
    }
}

#[test]
fn kv_runs_are_deterministic() {
    let a = run_kv(SeqMode::Replicated, 3);
    let b = run_kv(SeqMode::Replicated, 3);
    assert_eq!(a.result, b.result, "same seed + mode must reproduce bit-identically");
}
