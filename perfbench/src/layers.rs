//! The traced run: per-layer metrics from pairs of one untraced and one
//! traced run of the same inputs. The untraced run supplies host times and
//! counters; the traced run adds what only observation can see (per-process
//! deliveries and wakes, the master's host-timed phases, shared accesses,
//! memory growth by fork). A layer that is not on a workload's run path
//! reads 0, and so does a rate with nothing to divide.

use std::sync::Arc;
use std::time::Instant;

use repseq_sim::TraceClass;

use crate::probe::{Probe, ProbeReport};
use crate::workload::{self, RunOut, RunSpec};
use crate::{median, same_virtual, time_for_another, Metric, Options, Reference, Tally};

/// Per-layer metrics: name, unit, and whether higher is better.
pub const PER_LAYER: [(&str, &str, bool); 43] = [
    ("sim.events", "count", false),
    ("sim.events_per_s", "1/s", true),
    ("sim.deliveries", "count", false),
    ("sim.wakes", "count", false),
    ("sim.sprint_pops", "count", true),
    ("sim.handoff_switches", "count", false),
    ("sim.self_continues", "count", true),
    ("sim.inline_events", "count", true),
    ("process.user_s", "s", false),
    ("process.sys_s", "s", false),
    ("core.forks", "count", false),
    ("core.rse_sections", "count", false),
    ("core.virtual_seq_s", "s", false),
    ("core.virtual_par_s", "s", false),
    ("core.host_seq_s", "s", false),
    ("core.host_par_s", "s", false),
    ("net.messages", "count", false),
    ("net.kbytes", "kB", false),
    ("net.diff_messages", "count", false),
    ("net.diff_kbytes", "kB", false),
    ("dsm.fetch.page_faults", "count", false),
    ("dsm.fetch.diff_requests", "count", false),
    ("dsm.fetch.max_node_diff_requests", "count", false),
    ("dsm.fetch.seq_avg_response_ms", "ms", false),
    ("dsm.fetch.par_avg_response_ms", "ms", false),
    ("dsm.fetch.diff_stall_ms", "ms", false),
    ("dsm.fetch.stale_reply_ratio", "ratio", false),
    ("dsm.fetch.master_handler_share", "ratio", false),
    ("dsm.strategy.valid_notice_msgs", "count", false),
    ("dsm.strategy.valid_notice_ms", "ms", false),
    ("dsm.strategy.null_acks", "count", false),
    ("dsm.dataplane.diff_create_calls", "count", false),
    ("dsm.dataplane.diff_create_s", "s", false),
    ("dsm.dataplane.diff_apply_calls", "count", false),
    ("dsm.dataplane.diff_apply_s", "s", false),
    ("dsm.dataplane.twin_pool_hit_rate", "ratio", true),
    ("dsm.dataplane.scratch_pool_hit_rate", "ratio", true),
    ("dsm.dataplane.tlb_hit_rate", "ratio", true),
    ("dsm.rss_growth_mb", "MB", false),
    ("apps.reads", "count", false),
    ("apps.writes", "count", false),
    ("native.useful_msg_ratio", "ratio", true),
    ("trace.overhead_share", "ratio", false),
];

/// Repeat untraced/traced pairs for `opts.seconds` and report each
/// metric's median over the pairs.
pub(crate) fn measure(
    opts: &Options,
    spec: &RunSpec,
    reference: Reference,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    // The reference runs first: for the native workload it is the DES run
    // of the same inputs, whose message count the native run's is held to.
    let reference = reference(spec);
    let des_messages = match (&reference, opts.workload.is_des()) {
        (Ok(r), false) => Some(r.snap.total_agg_with_startup().messages),
        _ => None,
    };
    let mut pairs: Vec<[f64; PER_LAYER.len()]> = Vec::new();
    let t0 = Instant::now();
    while pairs.is_empty() || time_for_another(t0, pairs.len(), opts.seconds) {
        let Some(plain) = tally.record(notes, workload::run(spec, None)) else { break };
        let probe = Arc::new(Probe::new(spec.nodes));
        let Some(traced) = tally.record(notes, workload::run(spec, Some(probe.clone()))) else {
            break;
        };
        // Observing a run must not change its fingerprint.
        let same = if opts.workload.is_des() {
            same_virtual(&plain, &traced)
        } else {
            plain.result.key() == traced.result.key()
        };
        if !same {
            tally.fail(notes, "the traced run changed the run's results".into());
        }
        pairs.push(layer_values(
            opts.workload.is_des(),
            &plain,
            &traced,
            &probe.report(),
            des_messages,
        ));
    }
    tally.check(notes, &reference);
    notes.push(format!("pairs = {}", pairs.len()));
    PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _))| Metric {
            name,
            unit,
            value: median(&pairs.iter().map(|p| p[i]).collect::<Vec<_>>()),
        })
        .collect()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric of one pair, in [`PER_LAYER`] order.
fn layer_values(
    des: bool,
    plain: &RunOut,
    traced: &RunOut,
    probe: &ProbeReport,
    des_messages: Option<u64>,
) -> [f64; PER_LAYER.len()] {
    let snap = &plain.snap;
    let total = snap.total_agg();
    let exec = &plain.report.exec;
    let host = &plain.host;

    // Deliveries and wakes per process, named through `proc_clocks`.
    let names: Vec<&str> = traced.report.proc_clocks.iter().map(|(n, _)| n.as_str()).collect();
    let (mut deliveries, mut wakes, mut handler_deliveries, mut master_handler) =
        (0u64, 0u64, 0u64, 0u64);
    for e in traced.report.trace.as_deref().unwrap_or_default() {
        match e.class {
            TraceClass::Deliver => {
                deliveries += 1;
                let name = names.get(e.pid).copied().unwrap_or_default();
                if name.starts_with("handler") {
                    handler_deliveries += 1;
                    master_handler += u64::from(name == "handler0");
                }
            }
            TraceClass::Wake => wakes += 1,
        }
    }

    // Resident set growth from the fork 10% of the way into the run to the
    // last fork.
    let forks = &probe.rss_at_fork;
    let rss_growth = match (forks.get(forks.len() / 10), forks.last()) {
        (Some(&a), Some(&b)) => (b as f64 - a as f64) / (1024.0 * 1024.0),
        _ => 0.0,
    };

    let max_node_diff_requests = snap
        .nodes
        .iter()
        .map(|n| n.sections.iter().map(|s| s.diff_requests).sum::<u64>())
        .max()
        .unwrap_or(0);
    let max_node_stall = snap
        .nodes
        .iter()
        .map(|n| n.sections.iter().map(|s| s.diff_stall.as_secs_f64()).sum::<f64>())
        .fold(0.0, f64::max);
    let avg_ms = |d: Option<repseq_sim::Dur>| d.map_or(0.0, |d| d.as_millis_f64());
    let hit_rate = |h: u64, m: u64| ratio(h as f64, (h + m) as f64);
    let events = if des { plain.report.events_processed as f64 } else { 0.0 };

    [
        events,
        ratio(events, plain.wall_s),
        deliveries as f64,
        wakes as f64,
        exec.sprint_pops as f64,
        exec.handoff_switches as f64,
        exec.self_continues as f64,
        exec.inline_events as f64,
        plain.cpu.user_s,
        plain.cpu.sys_s,
        probe.forks as f64,
        probe.rse_sections as f64,
        snap.seq_time().as_secs_f64(),
        snap.par_time().as_secs_f64(),
        probe.host_seq_s,
        probe.host_par_s,
        total.messages as f64,
        total.bytes as f64 / 1e3,
        total.diff_messages as f64,
        total.diff_bytes as f64 / 1e3,
        total.page_faults as f64,
        total.diff_requests as f64,
        max_node_diff_requests as f64,
        avg_ms(snap.seq_agg().avg_response()),
        avg_ms(snap.par_agg().avg_response()),
        max_node_stall * 1e3,
        ratio(total.stale_replies as f64, total.diff_requests as f64),
        ratio(master_handler as f64, handler_deliveries as f64),
        total.valid_notice_msgs as f64,
        snap.max_node_valid_notice_time().as_millis_f64(),
        total.null_acks as f64,
        host.diff_create_calls as f64,
        host.diff_create_ns as f64 * 1e-9,
        host.diff_apply_calls as f64,
        host.diff_apply_ns as f64 * 1e-9,
        hit_rate(host.twin_pool_hits, host.twin_pool_misses),
        hit_rate(host.scratch_pool_hits, host.scratch_pool_misses),
        hit_rate(host.tlb_hits, host.tlb_misses),
        rss_growth,
        probe.reads as f64,
        probe.writes as f64,
        des_messages
            .map_or(0.0, |d| ratio(d as f64, snap.total_agg_with_startup().messages as f64)),
        ratio(traced.wall_s, plain.wall_s) - 1.0,
    ]
}
