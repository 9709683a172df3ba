//! Emit the benchmark-trajectory artifacts:
//!
//! * `BENCH_diff.json` — diff-engine micro-benchmarks (chunked vs
//!   byte-loop baseline, fused vs sequential apply);
//! * `BENCH_mmu.json` — software-MMU access-path micro-benchmarks: the
//!   locked page walk (TLB off) vs the TLB hit path vs the page-guard
//!   bulk path, in host ns per shared-memory access;
//! * `BENCH_table1.json` — a Table-1-shaped Barnes-Hut run with simulated
//!   times, host wall time, and the host data-plane counters.
//!
//! Run with `cargo run --release -p repseq-bench --bin bench_json` from the
//! repository root; the files are written to the current directory. The
//! checked-in copies record the trajectory at commit time — refresh them
//! whenever the data plane changes (see DESIGN.md §Performance and
//! EXPERIMENTS.md for the methodology).
//!
//! `REPSEQ_BENCH_SCALE=tiny|default` and `REPSEQ_BENCH_NODES=<n>` size the
//! table run (defaults: tiny, 32 — the paper's cluster size; CI's
//! bench-smoke job overrides nodes down for speed). Host timings are
//! medians of 15 samples from `repseq_bench::bench_ns`.
//!
//! The harness gates, not just records: it asserts the twin pool absorbs
//! ≥90% of twin allocations, that the guard path is ≥5x and the TLB hit
//! path ≥2x faster than the locked baseline, that the TLB changes
//! nothing about the simulation (identical virtual time, messages, bytes
//! with the TLB on and off), and that every repeat of the host-execution
//! trajectory reproduces the first run's fingerprint exactly.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::kv::{KvConfig, KvResult, KvStore};
use repseq_bench::{
    bench_ns, bh_config, host_cpus, nodes_list_env, run, write_artifact, Json, RunOutcome, Scale,
    SAMPLES,
};
use repseq_core::{RunConfig, Runtime, SeqMode};
use repseq_dsm::{ClusterConfig, Diff, ShArray};
use repseq_stats::host;

const PAGE: usize = 4096;

/// Schema of the BENCH_*.json artifacts this harness writes (except
/// `BENCH_host.json`, see [`HOST_SCHEMA_VERSION`]). Bump when a field
/// changes meaning, so trajectory tooling can tell formats apart. v3: the
/// `host_data_plane` blocks report the scratch-arena counters. Additive,
/// not version-bumping: every artifact records `host_cpus`, so wall-clock
/// numbers are legible as single-core or parallel runs.
const SCHEMA_VERSION: u32 = 3;

/// Execute independent sweep points on scoped host worker threads,
/// returning results in input order regardless of completion order.
/// `workers == 1` runs the points inline. Points must be genuinely
/// independent: simulations never share state, and the recorded metrics
/// must be virtual — points that *time the host wall clock* would contend
/// for cores when co-scheduled.
fn sweep_points<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    f: impl Fn(&I) -> T + Sync,
) -> Vec<T> {
    let workers = workers.clamp(1, items.len().max(1));
    if workers == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let v = f(&items[i]);
                slots.lock().unwrap()[i] = Some(v);
            });
        }
    });
    let filled = slots.into_inner().unwrap();
    filled.into_iter().map(|v| v.expect("sweep point completed")).collect()
}

struct Case {
    name: &'static str,
    baseline_ns: f64,
    chunked_ns: f64,
}

fn diff_cases() -> Vec<Case> {
    let twin = vec![0u8; PAGE];
    let mut sparse = twin.clone();
    for i in (0..PAGE).step_by(97) {
        sparse[i] = 1;
    }
    let mut dense = twin.clone();
    for (i, b) in dense.iter_mut().enumerate() {
        *b = (i % 251) as u8 + 1;
    }
    let clean = twin.clone();
    let mut out = Vec::new();
    for (name, page) in
        [("create_sparse", &sparse), ("create_dense", &dense), ("create_clean", &clean)]
    {
        out.push(Case {
            name,
            baseline_ns: bench_ns(|| {
                std::hint::black_box(Diff::create_scalar(&twin, page));
            }),
            chunked_ns: bench_ns(|| {
                std::hint::black_box(Diff::create(&twin, page));
            }),
        });
    }
    // Fused vs sequential apply of 8-diff chains. "Overlap" is the Ilink
    // fault shape — consecutive intervals rewrote the whole page, so every
    // earlier diff is fully shadowed and fused apply copies each byte
    // once instead of eight times. "Scattered" is the worst case for the
    // bookkeeping: small disjoint runs where sequential apply is already
    // one cheap word move per run.
    for (name, chain) in [
        ("apply_8_chain_overlap", overlap_chain(&twin)),
        ("apply_8_chain_scattered", scattered_chain(&twin)),
    ] {
        let mut scratch = twin.clone();
        out.push(Case {
            name,
            baseline_ns: bench_ns(|| {
                scratch.copy_from_slice(&twin);
                for d in &chain {
                    d.apply(&mut scratch).unwrap();
                }
                std::hint::black_box(&scratch);
            }),
            chunked_ns: bench_ns(|| {
                scratch.copy_from_slice(&twin);
                Diff::apply_fused(&chain, &mut scratch).unwrap();
                std::hint::black_box(&scratch);
            }),
        });
    }
    out
}

/// Eight diffs that each rewrite the entire page (dense iterative
/// updates, the Ilink shape).
fn overlap_chain(twin: &[u8]) -> Vec<Diff> {
    let mut chain = Vec::new();
    let mut cur = twin.to_vec();
    for k in 0..8u8 {
        let mut next = cur.clone();
        for b in &mut next {
            *b = b.wrapping_add(2 * k + 1); // odd step: every byte changes
        }
        chain.push(Diff::create(&cur, &next));
        cur = next;
    }
    chain
}

/// Eight diffs with small runs scattered at different offsets (unrelated
/// sparse writers).
fn scattered_chain(twin: &[u8]) -> Vec<Diff> {
    let mut chain = Vec::new();
    let mut cur = twin.to_vec();
    for k in 0..8u8 {
        let mut next = cur.clone();
        for i in ((k as usize * 13)..next.len()).step_by(97) {
            next[i] = next[i].wrapping_add(k + 1);
        }
        chain.push(Diff::create(&cur, &next));
        cur = next;
    }
    chain
}

fn write_bench_diff(cases: &[Case]) -> std::io::Result<()> {
    let rows = cases.iter().map(|c| {
        Json::obj([
            ("name", c.name.into()),
            ("baseline_ns", Json::fixed(c.baseline_ns, 1)),
            ("chunked_ns", Json::fixed(c.chunked_ns, 1)),
            ("speedup", Json::fixed(c.baseline_ns / c.chunked_ns, 2)),
        ])
    });
    write_artifact(
        "BENCH_diff.json",
        "diff_engine",
        SCHEMA_VERSION,
        [
            ("page_size", PAGE.into()),
            ("unit", "ns_per_op_median".into()),
            (
                "note",
                "baseline = byte-loop create (or sequential multi-apply); chunked = u64-chunked \
                 create (or fused apply)"
                    .into(),
            ),
            ("cases", Json::Arr(rows.collect())),
        ],
    )
}

// ---------------------------------------------------------------
// Software-MMU access-path micro-benchmarks
// ---------------------------------------------------------------

/// ns per access for the four access paths, measured inside a 1-node
/// cluster (every page warm, so no faults or messages — pure MMU cost).
#[derive(Debug, Clone, Copy)]
struct MmuNumbers {
    elem_read_ns: f64,
    elem_write_ns: f64,
    guard_read_ns: f64,
    guard_write_ns: f64,
}

/// Measure element and guard access on a warm 16-page array. `tlb` off
/// gives the locked page-walk baseline; on gives the TLB-hit path.
fn mmu_case(tlb: bool) -> MmuNumbers {
    let mut cluster = ClusterConfig::paper(1);
    cluster.dsm.tlb_enabled = tlb;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: SeqMode::MasterOnly });
    let len = 16 * PAGE / 8;
    let arr: ShArray<u64> = rt.alloc_array_page_aligned(len);
    let (nums, _) = rt
        .run_app(move |team| {
            let node = team.node();
            // Warm every page: one write fault each, pages stay writable.
            arr.with_slices_mut(node, 0..len, |run| {
                for j in 0..run.len() {
                    run.set(j, j as u64);
                }
                Ok(())
            })?;
            let mut i = 0usize;
            let elem_read_ns = bench_ns(|| {
                i = (i + 129) % len;
                std::hint::black_box(arr.get(node, i).unwrap());
            });
            let mut i = 0usize;
            let elem_write_ns = bench_ns(|| {
                i = (i + 129) % len;
                arr.set(node, i, i as u64 ^ 0x5A).unwrap();
            });
            let guard_read_ns = bench_ns(|| {
                let mut s = 0u64;
                arr.with_slices(node, 0..len, |run| {
                    for j in 0..run.len() {
                        s = s.wrapping_add(run.get(j));
                    }
                    Ok(())
                })
                .unwrap();
                std::hint::black_box(s);
            }) / len as f64;
            let guard_write_ns = bench_ns(|| {
                arr.with_slices_mut(node, 0..len, |run| {
                    for j in 0..run.len() {
                        run.set(j, j as u64 ^ 0xA5);
                    }
                    Ok(())
                })
                .unwrap();
            }) / len as f64;
            Ok(MmuNumbers { elem_read_ns, elem_write_ns, guard_read_ns, guard_write_ns })
        })
        .expect("mmu bench run failed");
    nums
}

fn write_bench_mmu(off: &MmuNumbers, on: &MmuNumbers) -> std::io::Result<()> {
    let pair = |read: f64, write: f64, decimals: usize| {
        Json::obj([
            ("read_ns", Json::fixed(read, decimals)),
            ("write_ns", Json::fixed(write, decimals)),
        ])
    };
    write_artifact(
        "BENCH_mmu.json",
        "software_mmu",
        SCHEMA_VERSION,
        [
            ("page_size", PAGE.into()),
            ("unit", "ns_per_access_median".into()),
            (
                "note",
                "warm 16-page u64 array on a 1-node cluster; locked_baseline = TLB disabled \
                 (mutex + page walk per access); tlb_hit = per-element fast path; guard = \
                 with_slices bulk path, amortized per element"
                    .into(),
            ),
            ("locked_baseline", pair(off.elem_read_ns, off.elem_write_ns, 1)),
            ("tlb_hit", pair(on.elem_read_ns, on.elem_write_ns, 1)),
            ("guard", pair(on.guard_read_ns, on.guard_write_ns, 2)),
            ("speedup_tlb_read", Json::fixed(off.elem_read_ns / on.elem_read_ns, 2)),
            ("speedup_tlb_write", Json::fixed(off.elem_write_ns / on.elem_write_ns, 2)),
            ("speedup_guard_read", Json::fixed(off.elem_read_ns / on.guard_read_ns, 2)),
            ("speedup_guard_write", Json::fixed(off.elem_write_ns / on.guard_write_ns, 2)),
        ],
    )
}

/// Simulated seconds of a run.
fn secs<R>(o: &RunOutcome<R>) -> f64 {
    o.snap.total_time.as_secs_f64()
}

/// The `host_data_plane` block: the host data-plane counters over a span
/// of runs, with the pool and TLB hit rates.
fn data_plane(host: &host::HostCounters) -> Json {
    let hit_rate = |hits: u64, misses: u64| {
        let total = hits + misses;
        Json::fixed(if total == 0 { 1.0 } else { hits as f64 / total as f64 }, 4)
    };
    Json::obj([
        ("diff_create_calls", host.diff_create_calls.into()),
        ("diff_create_ns", host.diff_create_ns.into()),
        ("diff_create_bytes_scanned", host.diff_create_bytes.into()),
        ("diff_apply_calls", host.diff_apply_calls.into()),
        ("diff_apply_ns", host.diff_apply_ns.into()),
        ("diff_apply_bytes_copied", host.diff_apply_bytes.into()),
        ("twin_pool_hits", host.twin_pool_hits.into()),
        ("twin_pool_misses", host.twin_pool_misses.into()),
        ("twin_pool_hit_rate", hit_rate(host.twin_pool_hits, host.twin_pool_misses)),
        ("scratch_pool_hits", host.scratch_pool_hits.into()),
        ("scratch_pool_misses", host.scratch_pool_misses.into()),
        ("scratch_pool_hit_rate", hit_rate(host.scratch_pool_hits, host.scratch_pool_misses)),
        ("tlb_hits", host.tlb_hits.into()),
        ("tlb_misses", host.tlb_misses.into()),
        ("tlb_hit_rate", hit_rate(host.tlb_hits, host.tlb_misses)),
    ])
}

/// Run Barnes-Hut under `mode` on `cluster`.
fn barnes(cluster: ClusterConfig, mode: SeqMode, cfg: &BhConfig) -> RunOutcome<BhResult> {
    run(cluster, mode, |rt| BarnesHut::setup(rt, cfg.clone()))
}

// ---------------------------------------------------------------
// KV serving sweep: open-loop zipfian traffic across skews
// ---------------------------------------------------------------

/// One measured point of the KV sweep: all three strategies on the same
/// trace at one (nodes, skew) coordinate.
struct KvPoint {
    nodes: usize,
    theta: f64,
    n_requests: usize,
    orig: RunOutcome<KvResult>,
    push: RunOutcome<KvResult>,
    rse: RunOutcome<KvResult>,
}

/// The serving-workload artifact: per-strategy throughput and tail
/// latency across the skew grid, at every node count. Request latencies
/// are open-loop (queueing delay included) over *virtual* time, so the
/// tails measure protocol contention, not host scheduling. The
/// fingerprint gate has already run by the time this is written.
fn write_bench_kv(points: &[KvPoint]) -> std::io::Result<()> {
    let serving = |o: &RunOutcome<KvResult>| {
        Json::obj([
            ("throughput_rps", Json::fixed(o.result.throughput_rps, 1)),
            ("p50_ns", o.result.p50_ns.into()),
            ("p99_ns", o.result.p99_ns.into()),
            ("p999_ns", o.result.p999_ns.into()),
            ("time_s", Json::fixed(o.result.total.as_secs_f64(), 6)),
        ])
    };
    let rows = points.iter().map(|p| {
        Json::obj([
            ("nodes", p.nodes.into()),
            ("zipf_theta", p.theta.into()),
            ("requests", p.n_requests.into()),
            ("fingerprint", format!("{:#018x}", p.orig.result.fingerprint).into()),
            ("master_only", serving(&p.orig)),
            ("master_push", serving(&p.push)),
            ("rse", serving(&p.rse)),
            (
                "rse_vs_master_only_throughput",
                Json::fixed(p.rse.result.throughput_rps / p.orig.result.throughput_rps, 3),
            ),
        ])
    });
    write_artifact(
        "BENCH_kv.json",
        "kv_serving_zipfian",
        SCHEMA_VERSION,
        [
            (
                "note",
                "open-loop zipfian KV serving: reads fan out cyclically across nodes, writes run \
                 as per-shard named sequential sections. latencies are virtual nanoseconds from \
                 request arrival to completion (queueing included); identical request traces and \
                 final-table fingerprints across strategies are asserted before this file is \
                 written"
                    .into(),
            ),
            ("points", Json::Arr(rows.collect())),
        ],
    )
}

// ---------------------------------------------------------------
// Host-execution bench: the coroutine engine's throughput by cluster size
// ---------------------------------------------------------------

/// Schema of `BENCH_host.json`. v4: one engine, repeated samples per
/// cluster size (v3 compared the removed serial, duty-handoff and
/// window-parallel modes). Additive, not version-bumping: each cluster
/// records the event queue's `peak_pending` and `stale_wakes`.
const HOST_SCHEMA_VERSION: u32 = 4;

/// Timed repeats per cluster size.
const HOST_SAMPLES: usize = 3;

/// One measured host execution of the reference workload.
struct HostRun {
    wall_s: f64,
    events_per_sec: f64,
}

/// Run Barnes-Hut (RSE) at `n` nodes and time the host wall clock.
/// Returns the run, its kernel report and a determinism fingerprint.
fn host_run(n: usize, cfg: &BhConfig) -> (HostRun, repseq_sim::SimReport, String) {
    let wall = Instant::now();
    let out = barnes(ClusterConfig::paper(n), SeqMode::Replicated, cfg);
    let wall_s = wall.elapsed().as_secs_f64();
    let report = out.report;
    // Everything determinism-relevant, in one comparable string: the
    // virtual end state of the kernel, the physics, and the wire totals.
    let agg = out.snap.total_agg_with_startup();
    let fp = format!(
        "end={} events={} clocks={:?} backlog={:?} total_time={} msgs={} bytes={} result={:?}",
        report.end_time.nanos(),
        report.events_processed,
        report.proc_clocks,
        report.mailbox_backlog,
        out.snap.total_time.nanos(),
        agg.messages,
        agg.bytes,
        out.result,
    );
    let run = HostRun { wall_s, events_per_sec: report.events_processed as f64 / wall_s.max(1e-9) };
    (run, report, fp)
}

struct HostCase {
    nodes: usize,
    events: u64,
    exec: repseq_sim::ExecCounters,
    samples: Vec<HostRun>,
}

/// Measure one cluster size [`HOST_SAMPLES`] times, asserting that every
/// repeat reproduces the first run's fingerprint and engine counters.
fn measure_host_case(hn: usize, cfg: &BhConfig) -> HostCase {
    let (first, report, fp) = host_run(hn, cfg);
    let mut samples = vec![first];
    for _ in 1..HOST_SAMPLES {
        let (run, r, f) = host_run(hn, cfg);
        assert_eq!(fp, f, "a repeat changed the simulation at {hn} nodes");
        assert_eq!(report.exec, r.exec, "a repeat changed the engine counters at {hn} nodes");
        samples.push(run);
    }
    HostCase { nodes: hn, events: report.events_processed, exec: report.exec, samples }
}

fn write_bench_host(scale: Scale, bodies: usize, cases: &[HostCase]) -> std::io::Result<()> {
    let rows = cases.iter().map(|c| {
        let walls: Vec<f64> = c.samples.iter().map(|r| r.wall_s).collect();
        let rates: Vec<f64> = c.samples.iter().map(|r| r.events_per_sec).collect();
        Json::obj([
            ("nodes", c.nodes.into()),
            ("events", c.events.into()),
            ("host_wall_s", Json::spread(&walls, 3)),
            ("events_per_sec", Json::spread(&rates, 0)),
            ("handoff_switches", c.exec.handoff_switches.into()),
            ("self_continues", c.exec.self_continues.into()),
            ("inline_events", c.exec.inline_events.into()),
            ("sprint_pops", c.exec.sprint_pops.into()),
            ("peak_pending", c.exec.peak_pending.into()),
            ("stale_wakes", c.exec.stale_wakes.into()),
        ])
    });
    write_artifact(
        "BENCH_host.json",
        "host_execution",
        HOST_SCHEMA_VERSION,
        [
            ("scale", format!("{scale:?}").into()),
            ("bodies", bodies.into()),
            ("samples", HOST_SAMPLES.into()),
            (
                "note",
                "Barnes-Hut (RSE) per cluster size on the coroutine DES engine (one host \
                 thread); every repeat verified to reproduce the first run's fingerprint \
                 (virtual end state, physics, wire totals) and engine counters. events_per_sec = \
                 kernel events / host wall seconds"
                    .into(),
            ),
            ("clusters", Json::Arr(rows.collect())),
        ],
    )
}

/// The Table-1-shaped run: simulated times of the Sequential, Original
/// and Optimized systems, plus the host data plane over all three.
fn write_bench_table1(
    scale: Scale,
    n: usize,
    [seq, orig, opt]: [&RunOutcome<BhResult>; 3],
    host: &host::HostCounters,
    host_wall_s: f64,
) -> std::io::Result<()> {
    write_artifact(
        "BENCH_table1.json",
        "table1_barnes_hut",
        SCHEMA_VERSION,
        [
            ("scale", format!("{scale:?}").into()),
            ("nodes", n.into()),
            ("host_wall_s", Json::fixed(host_wall_s, 3)),
            (
                "simulated",
                Json::obj([
                    ("sequential_time_s", Json::fixed(secs(seq), 6)),
                    ("original_time_s", Json::fixed(secs(orig), 6)),
                    ("optimized_time_s", Json::fixed(secs(opt), 6)),
                    ("original_speedup", Json::fixed(secs(seq) / secs(orig), 3)),
                    ("optimized_speedup", Json::fixed(secs(seq) / secs(opt), 3)),
                ]),
            ),
            (
                "tlb_invariance",
                "verified: identical virtual time, messages and bytes with the TLB on and off"
                    .into(),
            ),
            ("host_data_plane", data_plane(host)),
        ],
    )
}

/// The three-way sequential-section strategy comparison (§2, §6.1.2):
/// master-only, master-plus-broadcast (MasterPush) and replicated (RSE) on
/// the same contended Barnes-Hut run. MasterPush removes the demand-fetch
/// request storm but still serializes the whole tree through the master's
/// transmit link, so RSE must stay ahead of it once the tree is big enough
/// to be worth contending over — the run is pinned at 8192 bodies and at
/// least 16 nodes regardless of the (smoke-sized) table-run scale.
fn write_bench_modes(
    n: usize,
    bodies: usize,
    [orig, push, opt]: [&RunOutcome<BhResult>; 3],
    host: &host::HostCounters,
    host_wall_s: f64,
) -> std::io::Result<()> {
    write_artifact(
        "BENCH_modes.json",
        "seq_exec_modes_barnes_hut",
        SCHEMA_VERSION,
        [
            ("bodies", bodies.into()),
            ("nodes", n.into()),
            ("host_wall_s", Json::fixed(host_wall_s, 3)),
            (
                "note",
                "same workload and cluster for all three strategies; times are simulated \
                 seconds. master_push broadcasts the section's written pages over the master's \
                 link (contention moves from request storm to transmit serialization); rse \
                 replicates the section so no page of it ever crosses the wire"
                    .into(),
            ),
            (
                "simulated",
                Json::obj([
                    ("master_only_time_s", Json::fixed(secs(orig), 6)),
                    ("master_push_time_s", Json::fixed(secs(push), 6)),
                    ("rse_time_s", Json::fixed(secs(opt), 6)),
                    ("push_vs_master_only", Json::fixed(secs(orig) / secs(push), 3)),
                    ("rse_vs_master_only", Json::fixed(secs(orig) / secs(opt), 3)),
                    ("rse_vs_push", Json::fixed(secs(push) / secs(opt), 3)),
                ]),
            ),
            ("host_data_plane", data_plane(host)),
        ],
    )
}

fn main() {
    println!("diff-engine micro-benchmarks ({SAMPLES}-sample medians)...");
    let cases = diff_cases();
    for c in &cases {
        println!(
            "  {:<20} baseline {:>9.1} ns   chunked {:>9.1} ns   speedup {:>5.2}x",
            c.name,
            c.baseline_ns,
            c.chunked_ns,
            c.baseline_ns / c.chunked_ns
        );
    }
    write_bench_diff(&cases).expect("writing BENCH_diff.json");
    println!("wrote BENCH_diff.json");

    println!("software-MMU access-path micro-benchmarks...");
    let mmu_off = mmu_case(false);
    let mmu_on = mmu_case(true);
    println!(
        "  locked baseline  read {:>7.1} ns   write {:>7.1} ns",
        mmu_off.elem_read_ns, mmu_off.elem_write_ns
    );
    println!(
        "  TLB hit          read {:>7.1} ns   write {:>7.1} ns   ({:.2}x / {:.2}x)",
        mmu_on.elem_read_ns,
        mmu_on.elem_write_ns,
        mmu_off.elem_read_ns / mmu_on.elem_read_ns,
        mmu_off.elem_write_ns / mmu_on.elem_write_ns
    );
    println!(
        "  page guard       read {:>7.2} ns   write {:>7.2} ns   ({:.2}x / {:.2}x)",
        mmu_on.guard_read_ns,
        mmu_on.guard_write_ns,
        mmu_off.elem_read_ns / mmu_on.guard_read_ns,
        mmu_off.elem_write_ns / mmu_on.guard_write_ns
    );
    assert!(
        mmu_off.elem_read_ns >= 2.0 * mmu_on.elem_read_ns
            && mmu_off.elem_write_ns >= 2.0 * mmu_on.elem_write_ns,
        "TLB hit path must be >=2x faster than the locked baseline \
         (read {:.1} vs {:.1} ns, write {:.1} vs {:.1} ns)",
        mmu_on.elem_read_ns,
        mmu_off.elem_read_ns,
        mmu_on.elem_write_ns,
        mmu_off.elem_write_ns
    );
    assert!(
        mmu_off.elem_read_ns >= 5.0 * mmu_on.guard_read_ns
            && mmu_off.elem_write_ns >= 5.0 * mmu_on.guard_write_ns,
        "guard path must be >=5x faster than the locked baseline \
         (read {:.2} vs {:.1} ns, write {:.2} vs {:.1} ns)",
        mmu_on.guard_read_ns,
        mmu_off.elem_read_ns,
        mmu_on.guard_write_ns,
        mmu_off.elem_write_ns
    );
    write_bench_mmu(&mmu_off, &mmu_on).expect("writing BENCH_mmu.json");
    println!("wrote BENCH_mmu.json");

    let scale = match std::env::var("REPSEQ_BENCH_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        Ok("full") => Scale::Full,
        _ => Scale::Tiny,
    };
    let n: usize =
        std::env::var("REPSEQ_BENCH_NODES").ok().and_then(|s| s.parse().ok()).unwrap_or(32);
    let cfg = bh_config(scale);
    println!(
        "Barnes-Hut table run: {} bodies, {} timesteps, {n} nodes ({scale:?} scale)...",
        cfg.n_bodies, cfg.timesteps
    );
    host::reset();
    let wall = Instant::now();
    let seq = barnes(ClusterConfig::paper(1), SeqMode::MasterOnly, &cfg);
    let orig = barnes(ClusterConfig::paper(n), SeqMode::MasterOnly, &cfg);
    let opt = barnes(ClusterConfig::paper(n), SeqMode::Replicated, &cfg);
    let host_wall_s = wall.elapsed().as_secs_f64();
    assert_eq!(seq.result, orig.result, "systems must agree on the physics");
    assert_eq!(seq.result, opt.result, "systems must agree on the physics");
    let counters = host::snapshot();
    let twin_total = counters.twin_pool_hits + counters.twin_pool_misses;
    assert!(
        twin_total == 0 || counters.twin_pool_hits as f64 >= 0.9 * twin_total as f64,
        "twin pool must absorb >=90% of twin allocations ({} hits / {} total)",
        counters.twin_pool_hits,
        twin_total
    );
    let tlb_total = counters.tlb_hits + counters.tlb_misses;
    assert!(
        tlb_total == 0 || counters.tlb_hits as f64 >= 0.95 * tlb_total as f64,
        "software TLB must serve >=95% of accesses without a page walk \
         ({} hits / {} total): set-associativity, per-page generations and \
         guard amortization should leave only protocol-mandatory faults",
        counters.tlb_hits,
        tlb_total
    );
    repseq_bench::print_host_counters("table run", &counters);

    // The TLB must be invisible to the simulation: re-run the optimized
    // system with the fast path disabled and require identical virtual
    // results.
    println!("TLB invariance check (optimized system, fast path disabled)...");
    let mut no_tlb = ClusterConfig::paper(n);
    no_tlb.dsm.tlb_enabled = false;
    let opt_no_tlb = barnes(no_tlb, SeqMode::Replicated, &cfg);
    assert_eq!(opt.result, opt_no_tlb.result, "TLB must not change the physics");
    assert_eq!(
        opt.snap.total_time, opt_no_tlb.snap.total_time,
        "TLB must not change simulated time"
    );
    let (a, b) = (opt.snap.total_agg_with_startup(), opt_no_tlb.snap.total_agg_with_startup());
    assert_eq!(a.messages, b.messages, "TLB must not change message counts");
    assert_eq!(a.bytes, b.bytes, "TLB must not change byte counts");
    println!("  ok: identical virtual time, messages, bytes");

    write_bench_table1(scale, n, [&seq, &orig, &opt], &counters, host_wall_s)
        .expect("writing BENCH_table1.json");
    println!("wrote BENCH_table1.json");

    // Host-execution trajectory: the engine's wall time and event rate on
    // the same workload, growing the cluster past the paper's 32 nodes.
    // Repeats run one after another: each times the host wall clock.
    let host_nodes = nodes_list_env("REPSEQ_BENCH_HOST_NODES", &[32, 64, 256]);
    println!(
        "host execution trajectory: Barnes-Hut (RSE) at {host_nodes:?} nodes, \
         {HOST_SAMPLES} samples each..."
    );
    let host_cases: Vec<HostCase> =
        host_nodes.iter().map(|&hn| measure_host_case(hn, &cfg)).collect();
    for c in &host_cases {
        let walls: Vec<String> = c.samples.iter().map(|r| format!("{:.3}s", r.wall_s)).collect();
        let rates: Vec<String> =
            c.samples.iter().map(|r| format!("{:.0}", r.events_per_sec)).collect();
        println!(
            "  {:>4} nodes: {} events   wall {}   ev/s {}   peak pending {}   stale wakes {}",
            c.nodes,
            c.events,
            walls.join(" "),
            rates.join(" "),
            c.exec.peak_pending,
            c.exec.stale_wakes
        );
    }
    write_bench_host(scale, cfg.n_bodies, &host_cases).expect("writing BENCH_host.json");
    println!("wrote BENCH_host.json");

    // Strategy comparison on a tree big enough to contend over: the tiny
    // table config would let the broadcast win on sheer smallness.
    let modes_n = n.max(16);
    let modes_cfg = BhConfig::scaled(8_192);
    let bodies = modes_cfg.n_bodies;
    println!(
        "strategy comparison: {bodies} bodies, {} timesteps, {modes_n} nodes...",
        modes_cfg.timesteps
    );
    let modes_before = host::snapshot();
    let modes_wall = Instant::now();
    let m_orig = barnes(ClusterConfig::paper(modes_n), SeqMode::MasterOnly, &modes_cfg);
    let m_push = barnes(ClusterConfig::paper(modes_n), SeqMode::MasterPush, &modes_cfg);
    let m_opt = barnes(ClusterConfig::paper(modes_n), SeqMode::Replicated, &modes_cfg);
    let modes_wall_s = modes_wall.elapsed().as_secs_f64();
    let modes_host = host::snapshot().since(&modes_before);
    assert_eq!(m_orig.result, m_push.result, "strategies must agree on the physics");
    assert_eq!(m_orig.result, m_opt.result, "strategies must agree on the physics");
    println!(
        "  master_only {:.6}s   master_push {:.6}s   rse {:.6}s",
        secs(&m_orig),
        secs(&m_push),
        secs(&m_opt)
    );
    assert!(
        secs(&m_opt) < secs(&m_push),
        "RSE must beat MasterPush on the contended tree rebuild at {modes_n} nodes \
         (rse {:.6}s vs push {:.6}s): the broadcast still serializes the whole \
         tree through the master's transmit link (§2)",
        secs(&m_opt),
        secs(&m_push)
    );
    write_bench_modes(modes_n, bodies, [&m_orig, &m_push, &m_opt], &modes_host, modes_wall_s)
        .expect("writing BENCH_modes.json");
    println!("wrote BENCH_modes.json");

    // KV serving sweep: the open-loop zipfian workload across skews and
    // node counts, all three strategies on the same trace at each point.
    // Two gates before anything is written: every strategy must agree on
    // the final table fingerprint, the served-read XOR, and the request
    // counts at every point (a divergence means a stale page was served);
    // and at the highest skew RSE must beat MasterOnly on throughput —
    // the paper's contention-elimination claim, restated for serving.
    let kv_nodes = nodes_list_env("REPSEQ_BENCH_KV_NODES", &[32, 64, 256]);
    let skews = [0.2f64, 0.99, 1.2];
    // Record-sized values regardless of smoke scale — like the strategy
    // comparison above, the tiny test config would make the sections too
    // small to be worth contending over. Only the trace length shrinks.
    let kv_base = KvConfig::scaled(match scale {
        Scale::Tiny => 512,
        Scale::Default => 1024,
        Scale::Full => 4096,
    });
    // The θ×nodes grid points are independent simulations whose recorded
    // metrics are all *virtual* (throughput and latencies over simulated
    // time), so unlike the host trajectory above they can safely share
    // the machine: the sweep fans out on one scoped thread per host CPU
    // and the results come back in grid order, so the printed table and
    // BENCH_kv.json are byte-identical however the points were scheduled.
    let kv_workers = host_cpus();
    let coords: Vec<(usize, f64)> =
        kv_nodes.iter().flat_map(|&kn| skews.iter().map(move |&theta| (kn, theta))).collect();
    println!(
        "KV serving sweep: {} points ({:?} nodes x {:?} skew) on {kv_workers} sweep thread(s)...",
        coords.len(),
        kv_nodes,
        skews
    );
    let points: Vec<KvPoint> = sweep_points(&coords, kv_workers, |&(kn, theta)| {
        let cfg = kv_base.clone().with_skew(theta).weak_scaled(kn);
        let n_requests = cfg.n_requests;
        let kv = |mode| run(ClusterConfig::paper(kn), mode, |rt| KvStore::setup(rt, cfg.clone()));
        let orig = kv(SeqMode::MasterOnly);
        let push = kv(SeqMode::MasterPush);
        let rse = kv(SeqMode::Replicated);
        for (tag, o) in [("master_push", &push), ("rse", &rse)] {
            assert_eq!(
                (o.result.fingerprint, o.result.read_xor, o.result.reads, o.result.writes),
                (
                    orig.result.fingerprint,
                    orig.result.read_xor,
                    orig.result.reads,
                    orig.result.writes
                ),
                "{tag} diverged from master_only at {kn} nodes, theta {theta}: \
                 a replicated or pushed page served stale data"
            );
        }
        KvPoint { nodes: kn, theta, n_requests, orig, push, rse }
    });
    for p in &points {
        println!(
            "  {} nodes, theta {:<4} ({} requests): master_only {:>9.0} rps (p99 {:>7.2} ms)   \
             master_push {:>9.0} rps   rse {:>9.0} rps (p99 {:>7.2} ms)",
            p.nodes,
            p.theta,
            p.n_requests,
            p.orig.result.throughput_rps,
            p.orig.result.p99_ns as f64 / 1e6,
            p.push.result.throughput_rps,
            p.rse.result.throughput_rps,
            p.rse.result.p99_ns as f64 / 1e6
        );
        // Virtual-time gate, immune to host scheduling: at the highest
        // skew RSE must beat MasterOnly on throughput at every node
        // count — the paper's contention-elimination claim, restated
        // for serving.
        if p.theta == *skews.last().expect("skew grid is non-empty") {
            assert!(
                p.rse.result.throughput_rps >= p.orig.result.throughput_rps,
                "RSE must beat MasterOnly on throughput at theta {} with {} nodes \
                 (rse {:.0} vs master_only {:.0} rps): replicating the hot shard's \
                 write sections is the whole point under skew",
                p.theta,
                p.nodes,
                p.rse.result.throughput_rps,
                p.orig.result.throughput_rps
            );
        }
    }
    write_bench_kv(&points).expect("writing BENCH_kv.json");
    println!("wrote BENCH_kv.json");
}
