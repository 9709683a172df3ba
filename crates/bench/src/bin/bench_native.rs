//! Emit `BENCH_native.json`: the native-substrate trajectory artifact.
//!
//! The DES artifacts measure *virtual* time under the paper's cost model;
//! this harness runs the same applications on the native OS-thread
//! backend (`Backend::Native` — real threads, a process-shared segment,
//! wall-clock timeouts) and records *wall-clock* numbers:
//!
//! * the three-way sequential-section strategy comparison (master-only
//!   vs replicated vs master-push) for Barnes-Hut and Ilink at small
//!   node counts, and
//! * the KV serving sweep, whose latency percentiles and throughput are
//!   over the wall clock on this backend.
//!
//! The harness gates, not just records: before anything is written, every
//! native run's deterministic results — the Barnes-Hut phase-space
//! checksum and interaction count, Ilink's likelihood and per-section
//! update counts, KV's served-value XOR, table fingerprint, trace hash
//! and request counts — are asserted equal to a DES run at the same
//! configuration. A native backend that computes different values than
//! the simulator is broken, whatever its throughput.
//!
//! Wall-clock numbers here are *not* fingerprinted (they vary run to run
//! and host to host); `host_cpus` is recorded so a single-core run is
//! legible as such. `REPSEQ_BENCH_NATIVE_NODES=<n,n,...>` selects the
//! node counts (default `4,8` — small, because every node is an OS
//! thread pair on one host).
//!
//! Run with `cargo run --release -p repseq-bench --bin bench_native`.

use std::time::Instant;

use repseq_apps::barnes_hut::BarnesHut;
use repseq_apps::ilink::Ilink;
use repseq_apps::kv::KvStore;
use repseq_bench::{
    bh_config, ilink_config, kv_config, nodes_list_env, run, write_artifact, App, Json, Scale,
};
use repseq_core::{Runtime, SeqMode};
use repseq_dsm::{Backend, ClusterConfig};

/// Schema of `BENCH_native.json`. Independent of `bench_json`'s DES
/// artifacts — this file records wall-clock measurements.
const SCHEMA_VERSION: u32 = 1;

/// The three sequential-section strategies of the comparison, in artifact
/// order.
const MODES: [(&str, SeqMode); 3] = [
    ("master_only", SeqMode::MasterOnly),
    ("master_push", SeqMode::MasterPush),
    ("rse", SeqMode::Replicated),
];

/// Time one native run with a same-config DES twin, panicking unless the
/// deterministic projection of the results agrees. Returns the native
/// result and its wall seconds.
fn gated<A: App, K: PartialEq + std::fmt::Debug>(
    label: &str,
    n: usize,
    mode: SeqMode,
    setup: impl Fn(&mut Runtime) -> A,
    key: impl Fn(&A::Output) -> K,
) -> (A::Output, f64) {
    let on = |backend| ClusterConfig { backend, ..ClusterConfig::paper(n) };
    let sim = run(on(Backend::Sim), mode, &setup);
    let t0 = Instant::now();
    let nat = run(on(Backend::Native), mode, &setup);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(key(&sim.result), key(&nat.result), "{label}: native result diverged from the DES");
    (nat.result, wall_s)
}

/// One (app, nodes) row of the strategy comparison: the DES-equal result
/// rendered by `describe` for provenance, then per-strategy wall seconds.
fn app_point<A: App, K: PartialEq + std::fmt::Debug>(
    app: &str,
    n: usize,
    setup: impl Fn(&mut Runtime) -> A,
    key: impl Fn(&A::Output) -> K,
    describe: impl Fn(&A::Output) -> String,
) -> Json {
    let mut result = String::new();
    let mut walls = Vec::new();
    for (name, mode) in MODES {
        let (r, wall_s) = gated(&format!("{app}/{name}/n{n}"), n, mode, &setup, &key);
        result = describe(&r);
        walls.push((name, wall_s));
    }
    print!("{app:<11} n={n:<3} {result}  ");
    for (name, wall_s) in &walls {
        print!(" {name}={:.1}ms", wall_s * 1e3);
    }
    println!();
    let mut fields = vec![("app", app.into()), ("nodes", n.into()), ("result", result.into())];
    fields.extend(
        walls.into_iter().map(|(name, w)| (name, Json::obj([("wall_s", Json::fixed(w, 6))]))),
    );
    Json::obj(fields)
}

/// One KV sweep row: per-strategy wall-clock serving numbers.
fn kv_point(n: usize, scale: Scale) -> Json {
    let cfg = kv_config(scale);
    let runs: Vec<_> = MODES
        .into_iter()
        .map(|(name, mode)| {
            let (r, wall_s) = gated(
                &format!("kv/{name}/n{n}"),
                n,
                mode,
                |rt| KvStore::setup(rt, cfg.clone()),
                |r| (r.fingerprint, r.trace_hash, r.read_xor, r.reads, r.writes),
            );
            (name, r, wall_s)
        })
        .collect();
    let last = &runs[runs.len() - 1].1;
    let requests = last.reads + last.writes;
    print!("kv          n={n:<3} requests={requests}  ");
    let mut fields = vec![
        ("nodes", n.into()),
        ("requests", requests.into()),
        ("read_xor", format!("{:#018x}", last.read_xor).into()),
    ];
    for (name, r, wall_s) in &runs {
        print!(" {name}={:.0}rps", r.throughput_rps);
        // On the native backend the app's clock IS the wall clock, so the
        // result's open-loop throughput is already wall-side.
        fields.push((
            name,
            Json::obj([
                ("wall_s", Json::fixed(*wall_s, 6)),
                ("throughput_rps", Json::fixed(r.throughput_rps, 1)),
                ("p50_ns", r.p50_ns.into()),
                ("p99_ns", r.p99_ns.into()),
            ]),
        ));
    }
    println!();
    Json::obj(fields)
}

fn main() {
    // Wall-clock throughput at Tiny problem sizes: the point is the
    // substrate comparison, not problem-size scaling (the DES artifacts
    // own that axis).
    let scale = Scale::Tiny;
    let nodes = nodes_list_env("REPSEQ_BENCH_NATIVE_NODES", &[4, 8]);

    let mut apps = Vec::new();
    let mut kv = Vec::new();
    for &n in &nodes {
        println!("native point: {n} nodes (BH, Ilink, KV × 3 strategies, DES-gated)...");
        apps.push(app_point(
            "barnes_hut",
            n,
            |rt| BarnesHut::setup(rt, bh_config(scale)),
            |r| (r.checksum.to_bits(), r.interactions),
            |r| format!("checksum={:.6e} interactions={}", r.checksum, r.interactions),
        ));
        apps.push(app_point(
            "ilink",
            n,
            |rt| Ilink::setup(rt, ilink_config(scale)),
            |r| (r.likelihood.to_bits(), r.parallel_updates, r.sequential_updates),
            |r| {
                format!(
                    "likelihood={:.6e} par_updates={} seq_updates={}",
                    r.likelihood, r.parallel_updates, r.sequential_updates
                )
            },
        ));
        kv.push(kv_point(n, scale));
    }

    write_artifact(
        "BENCH_native.json",
        "native_substrate",
        SCHEMA_VERSION,
        [
            ("scale", format!("{scale:?}").into()),
            ("backend", "native".into()),
            (
                "note",
                "applications on the native OS-thread substrate (real threads, process-shared \
                 segment, wall-clock timeouts). every point's deterministic result (checksums, \
                 likelihoods, read XOR, section update and request counts) was asserted equal to \
                 a DES run at the same configuration before this file was written. times are \
                 host wall seconds and vary with the machine; they are recorded for trajectory, \
                 not fingerprinted"
                    .into(),
            ),
            ("strategy_comparison", Json::Arr(apps)),
            ("kv_sweep", Json::Arr(kv)),
        ],
    )
    .expect("writing BENCH_native.json");
    println!("wrote BENCH_native.json (all points matched their DES twin)");
}
