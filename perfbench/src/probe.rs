//! The traced run's observer, installed from outside the program through
//! `Runtime::set_race_sink`: it counts shared accesses by kind, host-times
//! the master's synchronization edges, and samples the resident set size
//! at every fork. It charges no virtual time and sends no messages, so a
//! traced run must reproduce the untraced run's fingerprint.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use repseq_dsm::{AccessKind, RaceSink, SyncEdge};
use repseq_stats::NodeId;

use crate::procfs::RssSampler;

/// Where the master's timeline is between two edges.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Sequential code on the master (master-only sections included).
    Sequential,
    /// Forked, kind not known yet: a replicated section enters next, a
    /// parallel one collects joins.
    Forked { at: Instant, joins: usize },
    /// Inside a replicated sequential section.
    Replicated,
}

#[derive(Debug)]
struct Timeline {
    phase: Phase,
    first: Option<Instant>,
    last: Option<Instant>,
    forks: u64,
    rse_sections: u64,
    par_s: f64,
    rss_at_fork: Vec<u64>,
}

/// What the probe saw over one run.
#[derive(Debug, Clone, Default)]
pub struct ProbeReport {
    pub reads: u64,
    pub writes: u64,
    /// Fork messages the master sent (the final shutdown fork included).
    pub forks: u64,
    pub rse_sections: u64,
    /// Host time from the master's first to last synchronization edge,
    /// split into parallel phases (fork to the last join) and the rest.
    pub host_par_s: f64,
    pub host_seq_s: f64,
    /// Resident set size at each master fork, in bytes.
    pub rss_at_fork: Vec<u64>,
}

pub struct Probe {
    nodes: usize,
    reads: AtomicU64,
    writes: AtomicU64,
    rss: RssSampler,
    master: Mutex<Timeline>,
}

impl Probe {
    pub fn new(nodes: usize) -> Probe {
        Probe {
            nodes,
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            rss: RssSampler::new(),
            master: Mutex::new(Timeline {
                phase: Phase::Sequential,
                first: None,
                last: None,
                forks: 0,
                rse_sections: 0,
                par_s: 0.0,
                rss_at_fork: Vec::new(),
            }),
        }
    }

    pub fn report(&self) -> ProbeReport {
        let mut t = self.master.lock().expect("probe lock poisoned by a panicking process");
        // A fork that never collected its joins (the shutdown fork, or any
        // fork on a one-node cluster) ends at the last edge.
        if let (Phase::Forked { at, .. }, Some(last)) = (t.phase, t.last) {
            t.par_s += last.duration_since(at).as_secs_f64();
            t.phase = Phase::Sequential;
        }
        let span = match (t.first, t.last) {
            (Some(a), Some(b)) => b.duration_since(a).as_secs_f64(),
            _ => 0.0,
        };
        ProbeReport {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            forks: t.forks,
            rse_sections: t.rse_sections,
            host_par_s: t.par_s,
            host_seq_s: (span - t.par_s).max(0.0),
            rss_at_fork: t.rss_at_fork.clone(),
        }
    }
}

impl RaceSink for Probe {
    fn access(&self, _node: NodeId, _addr: u64, _len: usize, kind: AccessKind) {
        let c = match kind {
            AccessKind::Read => &self.reads,
            AccessKind::Write => &self.writes,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    fn sync(&self, node: NodeId, edge: SyncEdge) {
        if node != 0 {
            return;
        }
        let now = Instant::now();
        let mut t = self.master.lock().expect("probe lock poisoned by a panicking process");
        t.first.get_or_insert(now);
        t.last = Some(now);
        match (edge, t.phase) {
            (SyncEdge::ForkSend, phase) => {
                if let Phase::Forked { at, .. } = phase {
                    t.par_s += now.duration_since(at).as_secs_f64();
                }
                t.forks += 1;
                let rss = self.rss.rss_bytes();
                t.rss_at_fork.push(rss);
                t.phase = Phase::Forked { at: now, joins: 0 };
            }
            (SyncEdge::RseEnter, Phase::Forked { .. }) => {
                t.rse_sections += 1;
                t.phase = Phase::Replicated;
            }
            (SyncEdge::RseExitDepart, Phase::Replicated) => t.phase = Phase::Sequential,
            (SyncEdge::JoinRecv { .. }, Phase::Forked { at, joins }) => {
                if joins + 1 == self.nodes - 1 {
                    t.par_s += now.duration_since(at).as_secs_f64();
                    t.phase = Phase::Sequential;
                } else {
                    t.phase = Phase::Forked { at, joins: joins + 1 };
                }
            }
            _ => {}
        }
    }
}
