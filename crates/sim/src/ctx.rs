//! The process-side handle to the simulation kernel.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use crate::engine::{EventKind, Kernel, Resume, Status};
use crate::fiber::Yielder;
use repseq_substrate::{Dur, Envelope, Pid, SimTime, Stopped, SubstrateCtx};

/// Handle through which a simulated process observes and affects virtual
/// time. One `Ctx` exists per process; it is valid only inside that
/// process and cannot leave its thread.
///
/// # Yield discipline
///
/// `charge` and `send` never yield to the engine; `recv`, `recv_timeout`,
/// `try_recv` and `sleep` do. **Never hold a lock shared with another
/// simulated process across a yielding call.** Every process runs on the
/// one thread that called [`Sim::run`](crate::Sim::run), so the other
/// process would try to re-lock it on the same thread and deadlock the
/// run (or panic, for a lock that detects re-entry).
pub struct Ctx<M: Send + 'static> {
    pid: Pid,
    kernel: Rc<RefCell<Kernel<M>>>,
    /// Switches back to the run loop at a yield.
    yielder: Yielder,
    /// Local copy of the process clock (nanoseconds); authoritative while
    /// the process runs, written back to the kernel at yields.
    clock: Cell<u64>,
    /// Compute time charged since the last yield.
    pending: Cell<u64>,
}

impl<M: Send + 'static> Ctx<M> {
    /// The handle of process `pid`, created when its coroutine first runs.
    pub(crate) fn new(pid: Pid, kernel: Rc<RefCell<Kernel<M>>>, yielder: Yielder) -> Self {
        let clock = kernel.borrow().procs[pid].clock.nanos();
        Ctx { pid, kernel, yielder, clock: Cell::new(clock), pending: Cell::new(0) }
    }

    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time as seen by this process, including compute time
    /// charged since the last yield.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.clock.get() + self.pending.get())
    }

    /// Account for `d` of local computation. Free at wall-clock level: the
    /// charge is folded into the clock at the next yield point.
    #[inline]
    pub fn charge(&self, d: Dur) {
        self.pending.set(self.pending.get() + d.nanos());
    }

    /// Schedule delivery of `msg` to `dst` at `deliver_at` (virtual time).
    /// The delivery time is computed by the caller — in this workspace, by
    /// the network model, which accounts for link occupancy. Never yields.
    pub fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        let at = deliver_at.max(self.now());
        let mut k = self.kernel.borrow_mut();
        debug_assert!(dst < k.procs.len(), "send to unknown pid {dst}");
        k.push_event(
            self.pid,
            at,
            EventKind::Deliver { dst, env: Envelope { from: self.pid, at, msg } },
        );
    }

    /// Sleep for `d` of virtual time (plus any pending charge).
    pub fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        let wake_at = self.flushed_clock() + d;
        self.block(|k, pid| {
            let gen = k.bump_gen(pid);
            k.procs[pid].status = Status::Sleeping;
            k.push_event(pid, wake_at, EventKind::Wake { pid, gen });
        })?;
        Ok(())
    }

    /// Receive the next message, blocking in virtual time until one is
    /// available.
    pub fn recv(&self) -> Result<Envelope<M>, Stopped> {
        loop {
            if let Some(env) = self.recv_deadline(None)? {
                return Ok(env);
            }
        }
    }

    /// Receive the next message, or `None` if none arrives within `d`.
    pub fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped> {
        let deadline = self.flushed_clock_peek() + d;
        self.recv_deadline(Some(deadline))
    }

    /// Receive a message that has already arrived, without waiting beyond
    /// the current instant. (Still a yield point: the kernel must process
    /// deliveries up to the current clock.)
    pub fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped> {
        let deadline = self.flushed_clock_peek();
        self.recv_deadline(Some(deadline))
    }

    fn recv_deadline(&self, deadline: Option<SimTime>) -> Result<Option<Envelope<M>>, Stopped> {
        let at = self.flushed_clock_peek();
        // Fast path: a message already in the mailbox was delivered at or
        // before this process's last resume, so it can be consumed right
        // now without a checkpoint event or a yield. Only one process runs
        // at a time and deliveries are applied in global
        // (time, src_group, seq) order, so the mailbox front is exactly
        // what the checkpoint path would return — minus a checkpoint event
        // and a coroutine round trip per received burst message.
        {
            let mut k = self.kernel.borrow_mut();
            if let Some(env) = k.procs[self.pid].mailbox.pop_front() {
                return Ok(Some(env));
            }
        }
        let timed_out = self.block(|k, pid| {
            let gen = k.bump_gen(pid);
            k.procs[pid].status = Status::Polling { deadline };
            // Checkpoint wake at the current clock: by the time it pops, all
            // deliveries up to this instant are in the mailbox.
            k.push_event(pid, at, EventKind::Wake { pid, gen });
            if let Some(dl) = deadline {
                if dl > at {
                    k.push_event(pid, dl, EventKind::Wake { pid, gen });
                }
            }
        })?;
        if timed_out {
            return Ok(None);
        }
        let mut k = self.kernel.borrow_mut();
        Ok(k.procs[self.pid].mailbox.pop_front())
    }

    /// Fold pending charge into the clock and return the new instant.
    fn flushed_clock(&self) -> SimTime {
        let c = self.clock.get() + self.pending.get();
        self.clock.set(c);
        self.pending.set(0);
        SimTime::from_nanos(c)
    }

    /// Same as [`flushed_clock`] but usable before the block that flushes.
    fn flushed_clock_peek(&self) -> SimTime {
        self.flushed_clock()
    }

    /// Yield to the engine. `setup` gets the kernel and must set this
    /// process's status and schedule any wake events. Returns whether
    /// the resuming event was a receive deadline.
    ///
    /// The process switches back to the run loop, which switches into it
    /// again when one of its wake events applies. A process that is being
    /// stopped, or that is unwinding from a panic, does not switch: the
    /// call returns [`Stopped`] at once.
    fn block(&self, setup: impl FnOnce(&mut Kernel<M>, Pid)) -> Result<bool, Stopped> {
        let c = self.flushed_clock();
        {
            let mut k = self.kernel.borrow_mut();
            k.procs[self.pid].clock = c;
            setup(&mut k, self.pid);
            if k.procs[self.pid].resume == Resume::Stop || std::thread::panicking() {
                return Err(Stopped);
            }
        }
        self.yielder.suspend();
        let k = self.kernel.borrow();
        let slot = &k.procs[self.pid];
        match slot.resume {
            Resume::Go { timed_out } => {
                self.clock.set(slot.clock.nanos());
                Ok(timed_out)
            }
            Resume::Stop => Err(Stopped),
        }
    }
}

/// The simulator is one backend of the substrate seam: every trait
/// primitive forwards to the inherent method of the same name, so code
/// written against [`SubstrateCtx`] (the fetch layer's retry loop, the
/// conformance suite) drives virtual time exactly like code written
/// against `Ctx` directly.
impl<M: Send + 'static> SubstrateCtx<M> for Ctx<M> {
    fn pid(&self) -> Pid {
        Ctx::pid(self)
    }

    fn now(&self) -> SimTime {
        Ctx::now(self)
    }

    fn charge(&self, d: Dur) {
        Ctx::charge(self, d)
    }

    fn send(&self, dst: Pid, msg: M, deliver_at: SimTime) {
        Ctx::send(self, dst, msg, deliver_at)
    }

    fn sleep(&self, d: Dur) -> Result<(), Stopped> {
        Ctx::sleep(self, d)
    }

    fn recv(&self) -> Result<Envelope<M>, Stopped> {
        Ctx::recv(self)
    }

    fn recv_timeout(&self, d: Dur) -> Result<Option<Envelope<M>>, Stopped> {
        Ctx::recv_timeout(self, d)
    }

    fn try_recv(&self) -> Result<Option<Envelope<M>>, Stopped> {
        Ctx::try_recv(self)
    }
}
