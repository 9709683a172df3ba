//! The discrete-event kernel.
//!
//! Every simulated process is a stackful coroutine ([`crate::fiber`]) that
//! runs on the thread calling [`Sim::run`]. Processes interact with the
//! kernel only through [`Ctx`](crate::Ctx) — charging compute time, sending
//! messages with an explicit delivery time (computed by the network layer),
//! and blocking receives. `send` never yields; `recv`/`sleep` do. Local
//! computation between yields is free in wall-clock terms and is folded
//! into the process clock at the next yield point.
//!
//! The run loop pops events in ascending `(time, src_group, seq)` order and
//! applies them. When an event resumes a process, the loop switches into
//! that process's coroutine, which runs until it blocks again (or exits)
//! and switches back: two user-space stack switches per resume, no OS
//! thread and no channel. Each run is therefore bit-for-bit deterministic —
//! a property the reproduced paper *relies on* (replicated sequential
//! execution assumes deterministic sequential sections) and which makes
//! every experiment in this repository reproducible.
//!
//! # Event queue
//!
//! Pending events wait in one binary heap of `(key, slot)` pairs over a slab
//! of payloads (see [`EventQueue`]), so a sift moves a fixed-size key and
//! never a message. Event keys are `(time, src_group, seq)` where
//! `src_group` is the scheduling group of the *pushing* process (a group is
//! normally one simulated node: its application and protocol-handler
//! processes) and `seq` is drawn from that group's private counter, so
//! ties at one instant break by source group, then push order. Keys are
//! unique, so the pop order is a total order fixed by the pushes alone.
//!
//! # End of run
//!
//! When the last primary process exits, the engine finishes the lookahead
//! window the exit fell into — every event below `t + lookahead`, where `t`
//! is the time of the first pop at or past the previous horizon — and
//! stops. With no groups or zero lookahead the horizon is degenerate and
//! the run stops at the exit event.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use crate::ctx::Ctx;
use crate::error::SimError;
use crate::fiber::Fiber;
use crate::trace::TraceEntry;
use repseq_substrate::{Dur, Envelope, Pid, SimTime, Stopped};

/// Event key: `(delivery time, source group, per-source-group sequence)`.
/// Assigned at push from the pushing process's group counter; the global
/// pop order is the ascending key order.
type EvKey = (SimTime, u64, u64);

pub(crate) enum EventKind<M> {
    /// Wake a process (timer expiry or receive checkpoint). Stale if the
    /// process generation has moved on.
    Wake { pid: Pid, gen: u64 },
    /// Deliver a message into a mailbox.
    Deliver { dst: Pid, env: Envelope<M> },
}

impl<M> EventKind<M> {
    /// The process an event is routed to.
    fn target(&self) -> Pid {
        match self {
            EventKind::Wake { pid, .. } => *pid,
            EventKind::Deliver { dst, .. } => *dst,
        }
    }
}

pub(crate) struct Event<M> {
    pub time: SimTime,
    pub src: u64,
    pub seq: u64,
    pub kind: EventKind<M>,
}

/// Pending events: a min-heap of `(key, slot)` over a slab of payloads.
/// The heap orders 32-byte entries; a payload stays in its slab slot from
/// push to pop, and freed slots are reused.
struct EventQueue<M> {
    heap: BinaryHeap<Reverse<(EvKey, u32)>>,
    slab: Vec<Option<EventKind<M>>>,
    free: Vec<u32>,
}

impl<M> EventQueue<M> {
    fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), slab: Vec::new(), free: Vec::new() }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn push(&mut self, key: EvKey, kind: EventKind<M>) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(kind);
                slot
            }
            None => {
                self.slab.push(Some(kind));
                u32::try_from(self.slab.len() - 1).expect("more than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((key, slot)));
    }

    fn pop(&mut self) -> Option<Event<M>> {
        let Reverse(((time, src, seq), slot)) = self.heap.pop()?;
        let kind = self.slab[slot as usize].take().expect("queued slot is empty");
        self.free.push(slot);
        Some(Event { time, src, seq, kind })
    }

    fn peek_min(&self) -> Option<EvKey> {
        self.heap.peek().map(|Reverse((key, _))| *key)
    }
}

/// What a blocked process is waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Currently executing (at most one process at a time).
    Running,
    /// Waiting for a timer.
    Sleeping,
    /// Yielded for a receive; the checkpoint wake will inspect the mailbox.
    Polling { deadline: Option<SimTime> },
    /// Mailbox was empty at the checkpoint; waiting for a delivery
    /// (and possibly a timeout).
    Waiting { deadline: Option<SimTime> },
    /// Finished.
    Exited,
}

/// Why a blocked process was switched back into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// An event resumed it at its slot's clock; `timed_out` when that event
    /// was the deadline of a receive.
    Go { timed_out: bool },
    /// The run is over: the pending blocking call, and every later one,
    /// returns [`Stopped`].
    Stop,
}

pub(crate) struct ProcSlot<M> {
    pub name: String,
    pub daemon: bool,
    pub status: Status,
    /// Bumped on every resume; wake events carry the generation at which
    /// they were scheduled so stale wakes are ignored.
    pub gen: u64,
    pub clock: SimTime,
    pub mailbox: VecDeque<Envelope<M>>,
    /// Set by the kernel before it switches into the process.
    pub resume: Resume,
}

/// Host-execution counters for one run. These describe how the *host*
/// drove the simulation — they are not part of the simulation result and
/// are excluded from determinism fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecCounters {
    /// Pops whose target process is in the same group as the previous
    /// pop's target: runs of consecutive events on one simulated node.
    pub sprint_pops: u64,
    /// Coroutine resumes: each is a switch into a process and, when it
    /// blocks or exits, a switch back to the run loop.
    pub handoff_switches: u64,
    /// The subset of [`handoff_switches`](Self::handoff_switches) that
    /// resumed the process that had just blocked — no other process ran
    /// in between.
    pub self_continues: u64,
    /// Events applied without resuming anyone: deliveries to busy
    /// processes, checkpoint wakes that found an empty mailbox, stale
    /// wakes.
    pub inline_events: u64,
    /// Most events pending at once.
    pub peak_pending: u64,
    /// Wakes whose process had moved on (resumed by another event, or
    /// exited) by the time they popped, or by the end of the run for
    /// those still queued: mostly receive deadlines overtaken by a
    /// delivery. The popped ones are also counted in
    /// [`inline_events`](Self::inline_events).
    pub stale_wakes: u64,
}

pub(crate) struct Kernel<M> {
    queue: EventQueue<M>,
    pub procs: Vec<ProcSlot<M>>,
    /// pid → scheduling group. Each process starts in a fresh group of
    /// its own; [`Sim::assign_group`] merges the processes of one
    /// simulated node. Only used to form event keys (and to count
    /// same-group pops).
    group_of: Vec<usize>,
    /// Target group of the previous pop (for `sprint_pops`).
    last_group: Option<usize>,
    /// Per-group event sequence counters, one for every group numbered so
    /// far: a fresh group's index is their count.
    seqs: Vec<u64>,
    pub trace: Option<Vec<TraceEntry>>,
    /// Count of popped events, for the report.
    pub events_processed: u64,
    /// Virtual time of the last popped event.
    pub end_time: SimTime,
    /// Conservative lookahead: the minimum virtual latency of any
    /// cross-group message. Bounds the quiescence tail after the last
    /// primary exit, and is validated on every cross-group send in debug
    /// builds.
    lookahead: Dur,
    /// True once groups were explicitly assigned (enables the lookahead
    /// check and the horizon — with default per-pid groups, same-node
    /// traffic crosses groups at zero latency).
    grouped: bool,
    /// End of the lookahead window the last pop fell into (grouped runs
    /// with nonzero lookahead; stays ZERO otherwise). The quiescence tail
    /// after the last primary exit is bounded by this horizon.
    cur_horizon: SimTime,
    pub exec: ExecCounters,
}

impl<M> Kernel<M> {
    /// Schedule an event pushed by process `src`. The key is formed from
    /// `src`'s group and that group's sequence counter.
    pub(crate) fn push_event(&mut self, src: Pid, time: SimTime, kind: EventKind<M>) {
        let sg = self.group_of[src];
        let seq = self.seqs[sg];
        self.seqs[sg] += 1;
        #[cfg(debug_assertions)]
        self.assert_lookahead(time, &kind);
        self.queue.push((time, sg as u64, seq), kind);
        self.exec.peak_pending = self.exec.peak_pending.max(self.queue.len() as u64);
    }

    /// Validate the conservative-lookahead contract: a running process can
    /// only affect *another* node at least `lookahead` of virtual time in
    /// the future. It holds because the network model charges at least the
    /// minimum cross-node latency on every inter-node message, and the
    /// quiescence tail relies on it: no event below the horizon can appear
    /// on another node after the horizon was set.
    #[cfg(debug_assertions)]
    fn assert_lookahead(&self, time: SimTime, kind: &EventKind<M>) {
        if !self.grouped || self.lookahead == Dur::ZERO {
            return;
        }
        let EventKind::Deliver { dst, env } = kind else { return };
        if self.group_of[env.from] == self.group_of[*dst] {
            return;
        }
        debug_assert!(
            time >= self.end_time + self.lookahead,
            "cross-group delivery inside the lookahead window: at {time:?}, \
             kernel at {:?}, lookahead {:?}",
            self.end_time,
            self.lookahead
        );
    }

    pub(crate) fn bump_gen(&mut self, pid: Pid) -> u64 {
        self.procs[pid].gen += 1;
        self.procs[pid].gen
    }

    /// Pop the globally next event and do the per-event bookkeeping.
    fn pop_next(&mut self) -> Option<Event<M>> {
        let ev = self.queue.pop()?;
        debug_assert!(ev.time >= self.end_time, "kernel time went backwards");
        let g = self.group_of[ev.kind.target()];
        if self.last_group == Some(g) {
            self.exec.sprint_pops += 1;
        }
        self.last_group = Some(g);
        self.end_time = self.end_time.max(ev.time);
        self.events_processed += 1;
        if self.grouped && self.lookahead != Dur::ZERO && ev.time >= self.cur_horizon {
            self.cur_horizon = ev.time + self.lookahead;
        }
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry::from_event(&ev));
        }
        Some(ev)
    }

    /// Apply a popped event. Returns the process it resumed, if any; the
    /// caller must switch into it.
    fn apply(&mut self, ev: Event<M>) -> Option<Pid> {
        match ev.kind {
            EventKind::Wake { pid, gen } => {
                if self.wake_is_stale(pid, gen) {
                    self.exec.stale_wakes += 1;
                    return None;
                }
                let slot = &self.procs[pid];
                match slot.status {
                    Status::Sleeping => Some(self.resume(pid, ev.time, false)),
                    Status::Polling { deadline } => {
                        if !self.procs[pid].mailbox.is_empty() {
                            Some(self.resume(pid, ev.time, false))
                        } else if deadline == Some(ev.time) {
                            // Zero-length timeout: the checkpoint *is* the
                            // deadline.
                            Some(self.resume(pid, ev.time, true))
                        } else {
                            self.procs[pid].status = Status::Waiting { deadline };
                            None
                        }
                    }
                    Status::Waiting { deadline } => {
                        // Only the deadline wake is still live for a waiter.
                        debug_assert_eq!(deadline, Some(ev.time));
                        Some(self.resume(pid, ev.time, true))
                    }
                    Status::Running | Status::Exited => None,
                }
            }
            EventKind::Deliver { dst, env } => {
                let slot = &mut self.procs[dst];
                if slot.status == Status::Exited {
                    return None; // message to a dead process is dropped
                }
                slot.mailbox.push_back(env);
                match slot.status {
                    Status::Waiting { .. } => Some(self.resume(dst, ev.time, false)),
                    _ => None,
                }
            }
        }
    }

    /// A wake is stale once its process was resumed by another event (the
    /// generation moved on), is running, or has exited.
    fn wake_is_stale(&self, pid: Pid, gen: u64) -> bool {
        let slot = &self.procs[pid];
        slot.gen != gen || slot.status == Status::Exited || slot.status == Status::Running
    }

    /// Stale wakes still queued when the run ends.
    fn queued_stale_wakes(&self) -> u64 {
        let wakes = self.queue.slab.iter().flatten().filter_map(|kind| match *kind {
            EventKind::Wake { pid, gen } => Some((pid, gen)),
            EventKind::Deliver { .. } => None,
        });
        wakes.filter(|&(pid, gen)| self.wake_is_stale(pid, gen)).count() as u64
    }

    fn resume(&mut self, pid: Pid, at: SimTime, timed_out: bool) -> Pid {
        let slot = &mut self.procs[pid];
        debug_assert!(slot.clock <= at, "process resumed into its past");
        slot.gen += 1; // invalidate any other pending wakes
        slot.status = Status::Running;
        slot.clock = at;
        slot.resume = Resume::Go { timed_out };
        pid
    }
}

/// Summary of a completed simulation run.
#[derive(Debug)]
pub struct SimReport {
    /// Virtual time of the last processed event.
    pub end_time: SimTime,
    /// Final virtual clock of every process, by name.
    pub proc_clocks: Vec<(String, SimTime)>,
    /// Total number of kernel events processed.
    pub events_processed: u64,
    /// Event trace, if recording was enabled with [`Sim::record_trace`].
    pub trace: Option<Vec<TraceEntry>>,
    /// Messages still sitting in process mailboxes when the run ended,
    /// as `(process name, count)` for each non-empty mailbox. A quiescent
    /// protocol leaves this empty; a wedged recovery path shows up here as
    /// undelivered traffic.
    pub mailbox_backlog: Vec<(String, usize)>,
    /// How the host drove the run (coroutine switches). Not part of the
    /// simulation result: excluded from determinism fingerprints.
    pub exec: ExecCounters,
}

/// A simulation under construction and its runner.
///
/// `M` is the message payload type exchanged between processes.
///
/// ```
/// use repseq_sim::{Sim, Dur};
///
/// let mut sim = Sim::<&'static str>::new();
/// let ping = sim.spawn("ping", |ctx| {
///     ctx.send(1, "hello", ctx.now() + Dur::from_micros(10));
///     Ok(())
/// });
/// assert_eq!(ping, 0);
/// sim.spawn("pong", |ctx| {
///     let env = ctx.recv()?;
///     assert_eq!(env.msg, "hello");
///     assert_eq!(env.at.nanos(), 10_000);
///     Ok(())
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.nanos(), 10_000);
/// ```
pub struct Sim<M: Send + 'static> {
    kernel: Rc<RefCell<Kernel<M>>>,
    /// One coroutine per process, by pid; `None` once it has finished.
    fibers: Vec<Option<Fiber>>,
    record_trace: bool,
}

impl<M: Send + 'static> Default for Sim<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Sim<M> {
    /// Create an empty simulation.
    pub fn new() -> Self {
        Sim {
            kernel: Rc::new(RefCell::new(Kernel {
                queue: EventQueue::new(),
                procs: Vec::new(),
                group_of: Vec::new(),
                last_group: None,
                seqs: Vec::new(),
                trace: None,
                events_processed: 0,
                end_time: SimTime::ZERO,
                lookahead: Dur::ZERO,
                grouped: false,
                cur_horizon: SimTime::ZERO,
                exec: ExecCounters::default(),
            })),
            fibers: Vec::new(),
            record_trace: false,
        }
    }

    /// Record an event trace in the report (used by determinism tests).
    pub fn record_trace(&mut self, on: bool) {
        self.record_trace = on;
    }

    /// Set the conservative lookahead: a lower bound on the virtual latency
    /// of any message between processes of different groups — pass the
    /// network's minimum cross-node latency. Once the last primary process
    /// exits, the run finishes the lookahead window that exit fell into
    /// (see the module docs); debug builds check the bound on every
    /// cross-group send.
    pub fn set_lookahead(&mut self, lookahead: Dur) {
        self.kernel.borrow_mut().lookahead = lookahead;
    }

    /// Put `pid` into scheduling group `group`. Processes of one simulated
    /// node (its application and its protocol handler) should share a
    /// group: their mutual traffic has zero latency, while cross-group
    /// traffic is bounded below by the lookahead.
    pub fn assign_group(&mut self, pid: Pid, group: usize) {
        let mut k = self.kernel.borrow_mut();
        k.group_of[pid] = group;
        if k.seqs.len() <= group {
            k.seqs.resize(group + 1, 0);
        }
        k.grouped = true;
    }

    /// Spawn a primary process. The simulation ends when every primary
    /// process has exited (after the lookahead window the last exit fell
    /// into is finished — see the module docs).
    pub fn spawn<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, false, f)
    }

    /// Spawn a daemon process (e.g. a protocol request handler). Daemons are
    /// stopped automatically once all primary processes exit: their pending
    /// blocking call returns [`Stopped`].
    pub fn spawn_daemon<F>(&mut self, name: &str, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        self.spawn_inner(name, true, f)
    }

    fn spawn_inner<F>(&mut self, name: &str, daemon: bool, f: F) -> Pid
    where
        F: FnOnce(Ctx<M>) -> Result<(), Stopped> + Send + 'static,
    {
        let pid = {
            let mut k = self.kernel.borrow_mut();
            let pid = k.procs.len();
            k.procs.push(ProcSlot {
                name: name.to_string(),
                daemon,
                status: Status::Sleeping,
                gen: 0,
                clock: SimTime::ZERO,
                mailbox: VecDeque::new(),
                resume: Resume::Go { timed_out: false },
            });
            let fresh = k.seqs.len();
            k.group_of.push(fresh);
            k.seqs.push(0);
            // Initial wake at t=0 so the process starts when the engine runs.
            k.push_event(pid, SimTime::ZERO, EventKind::Wake { pid, gen: 0 });
            pid
        };
        let kernel = Rc::clone(&self.kernel);
        self.fibers.push(Some(Fiber::new(Box::new(move |yielder| {
            let _ = f(Ctx::new(pid, kernel, yielder));
        }))));
        pid
    }

    /// Run the simulation to completion.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        if self.record_trace {
            self.kernel.borrow_mut().trace = Some(Vec::new());
        }
        let n_primary = self.kernel.borrow().procs.iter().filter(|p| !p.daemon).count();
        if n_primary == 0 {
            return Err(SimError::NoPrimaryProcesses);
        }
        let result = self.event_loop(n_primary);
        {
            let mut k = self.kernel.borrow_mut();
            k.exec.stale_wakes += k.queued_stale_wakes();
        }
        // Stop remaining processes (daemons, or everyone on error).
        let stop_err = self.stop_remaining();

        let mut k = self.kernel.borrow_mut();
        let report = SimReport {
            end_time: k.end_time,
            proc_clocks: k.procs.iter().map(|p| (p.name.clone(), p.clock)).collect(),
            events_processed: k.events_processed,
            trace: k.trace.take(),
            mailbox_backlog: k
                .procs
                .iter()
                .filter(|p| !p.mailbox.is_empty())
                .map(|p| (p.name.clone(), p.mailbox.len()))
                .collect(),
            exec: k.exec,
        };
        drop(k);
        result?;
        match stop_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// The run loop: pop one event at a time and, when it resumes a
    /// process, run that process's coroutine until it blocks or exits.
    /// Once the last primary has exited, only the remainder of the current
    /// lookahead window is drained (nothing at all when the horizon is
    /// degenerate).
    fn event_loop(&mut self, n_primary: usize) -> Result<(), SimError> {
        let mut live_primary = n_primary;
        // The process that blocked most recently (for `self_continues`).
        let mut last: Option<Pid> = None;
        loop {
            let pid = {
                let mut k = self.kernel.borrow_mut();
                if live_primary == 0 && k.queue.peek_min().is_none_or(|key| key.0 >= k.cur_horizon)
                {
                    return Ok(());
                }
                let Some(ev) = k.pop_next() else {
                    // No events left while primaries live: they are
                    // deadlocked waiting for messages that will never
                    // arrive.
                    return Err(SimError::Deadlock { blocked: Self::blocked_procs(&k) });
                };
                let Some(pid) = k.apply(ev) else {
                    k.exec.inline_events += 1;
                    continue;
                };
                k.exec.handoff_switches += 1;
                if last == Some(pid) {
                    k.exec.self_continues += 1;
                }
                pid
            };
            let fiber = self.fibers[pid].as_mut().expect("resumed process has exited");
            match fiber.resume() {
                None => last = Some(pid),
                Some(panicked) => {
                    last = None;
                    self.fibers[pid] = None;
                    let mut k = self.kernel.borrow_mut();
                    k.procs[pid].status = Status::Exited;
                    let slot = &k.procs[pid];
                    if panicked {
                        return Err(SimError::ProcessPanicked { pid, name: slot.name.clone() });
                    }
                    if !slot.daemon {
                        live_primary -= 1;
                    }
                }
            }
        }
    }

    fn blocked_procs(k: &Kernel<M>) -> Vec<(Pid, String)> {
        k.procs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.status != Status::Exited && !p.daemon)
            .map(|(i, p)| (i, format!("{} ({:?})", p.name, p.status)))
            .collect()
    }

    /// Unwind every process still alive: a blocked one is resumed with
    /// [`Resume::Stop`], so its pending blocking call (and any later one)
    /// returns [`Stopped`] and it runs to its end; one that never started
    /// is dropped unrun. Reports the first process that panicked while
    /// stopping.
    fn stop_remaining(&mut self) -> Option<SimError> {
        let mut err = None;
        for pid in 0..self.fibers.len() {
            let Some(mut fiber) = self.fibers[pid].take() else { continue };
            if !fiber.started() {
                continue;
            }
            self.kernel.borrow_mut().procs[pid].resume = Resume::Stop;
            // A stopped process never suspends again (`Ctx::block` returns
            // `Stopped` at once), so this resume runs it to its end.
            let panicked = fiber.resume() == Some(true);
            let mut k = self.kernel.borrow_mut();
            k.procs[pid].status = Status::Exited;
            if panicked && err.is_none() {
                err = Some(SimError::ProcessPanicked { pid, name: k.procs[pid].name.clone() });
            }
        }
        err
    }
}

impl<M: Send + 'static> Drop for Sim<M> {
    /// Unwind processes still alive (covers simulations dropped without
    /// being run; after `run` this is a no-op).
    fn drop(&mut self) {
        self.stop_remaining();
    }
}
