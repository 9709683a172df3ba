//! Integration tests for the discrete-event engine: ordering, blocking
//! semantics, timeouts, daemons, deadlock detection, determinism.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use repseq_sim::{Dur, Sim, SimError, SimTime};

#[test]
fn single_process_advances_time_by_charge() {
    let mut sim = Sim::<()>::new();
    let end = Arc::new(AtomicU64::new(0));
    let end2 = Arc::clone(&end);
    sim.spawn("p", move |ctx| {
        ctx.charge(Dur::from_micros(5));
        ctx.charge(Dur::from_micros(7));
        assert_eq!(ctx.now().nanos(), 12_000);
        ctx.sleep(Dur::from_micros(3))?;
        end2.store(ctx.now().nanos(), Ordering::SeqCst);
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(end.load(Ordering::SeqCst), 15_000);
}

#[test]
fn message_delivery_time_is_honored() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.charge(Dur::from_micros(1));
        ctx.send(1, 42, ctx.now() + Dur::from_micros(9));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        let env = ctx.recv()?;
        assert_eq!(env.msg, 42);
        assert_eq!(env.at.nanos(), 10_000);
        assert_eq!(ctx.now().nanos(), 10_000);
        assert_eq!(env.from, 0);
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 10_000);
}

#[test]
fn messages_arrive_in_delivery_time_order() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        // Sent out of order; must be received in virtual-time order.
        ctx.send(1, 2, SimTime::from_nanos(2_000));
        ctx.send(1, 1, SimTime::from_nanos(1_000));
        ctx.send(1, 3, SimTime::from_nanos(3_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        for expect in [1, 2, 3] {
            let env = ctx.recv()?;
            assert_eq!(env.msg, expect);
        }
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn ties_break_by_send_order() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 10, SimTime::from_nanos(1_000));
        ctx.send(1, 20, SimTime::from_nanos(1_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        assert_eq!(ctx.recv()?.msg, 10);
        assert_eq!(ctx.recv()?.msg, 20);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn recv_returns_queued_message_without_waiting() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 7, SimTime::from_nanos(100));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        // Compute past the delivery time, then receive: the message was
        // queued while we were busy, so recv must not advance the clock.
        ctx.charge(Dur::from_micros(1));
        let env = ctx.recv()?;
        assert_eq!(env.msg, 7);
        assert_eq!(env.at.nanos(), 100);
        assert_eq!(ctx.now().nanos(), 1_000, "recv of queued message is immediate");
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn recv_timeout_times_out_and_then_receives() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 5, SimTime::from_nanos(50_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        let r = ctx.recv_timeout(Dur::from_micros(10))?;
        assert!(r.is_none(), "nothing should arrive in the first 10us");
        assert_eq!(ctx.now().nanos(), 10_000);
        let r = ctx.recv_timeout(Dur::from_micros(100))?;
        let env = r.expect("message must arrive before the second deadline");
        assert_eq!(env.msg, 5);
        assert_eq!(ctx.now().nanos(), 50_000);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn try_recv_sees_only_already_delivered() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", |ctx| {
        ctx.send(1, 1, SimTime::from_nanos(500));
        ctx.send(1, 2, SimTime::from_nanos(2_000));
        Ok(())
    });
    sim.spawn("receiver", |ctx| {
        ctx.charge(Dur::from_nanos(1_000));
        let first = ctx.try_recv()?;
        assert_eq!(first.map(|e| e.msg), Some(1));
        let second = ctx.try_recv()?;
        assert!(second.is_none(), "the 2us message has not arrived at 1us");
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn zero_timeout_equals_try_recv() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("p", |ctx| {
        let r = ctx.recv_timeout(Dur::ZERO)?;
        assert!(r.is_none());
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn daemon_is_stopped_after_primaries_exit() {
    let mut sim = Sim::<u32>::new();
    let served = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served);
    sim.spawn_daemon("server", move |ctx| {
        while let Ok(env) = ctx.recv() {
            served2.fetch_add(1, Ordering::SeqCst);
            ctx.charge(Dur::from_micros(1));
            ctx.send(env.from, env.msg * 2, ctx.now() + Dur::from_micros(1));
        }
        Ok(())
    });
    sim.spawn("client", |ctx| {
        for i in 0..3u32 {
            ctx.send(0, i, ctx.now() + Dur::from_micros(1));
            let env = ctx.recv()?;
            assert_eq!(env.msg, i * 2);
        }
        Ok(())
    });
    sim.run().unwrap();
    assert_eq!(served.load(Ordering::SeqCst), 3);
}

#[test]
fn deadlock_is_detected() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("a", |ctx| {
        let _ = ctx.recv()?; // nobody will ever send
        Ok(())
    });
    sim.spawn("b", |ctx| {
        let _ = ctx.recv()?;
        Ok(())
    });
    match sim.run() {
        Err(SimError::Deadlock { blocked }) => {
            assert_eq!(blocked.len(), 2);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn empty_simulation_is_an_error() {
    let sim = Sim::<u32>::new();
    assert!(matches!(sim.run(), Err(SimError::NoPrimaryProcesses)));
}

#[test]
fn daemon_only_blocking_does_not_deadlock() {
    let mut sim = Sim::<u32>::new();
    sim.spawn_daemon("idle-server", |ctx| {
        let _ = ctx.recv(); // will be Stopped
        Ok(())
    });
    sim.spawn("quick", |ctx| {
        ctx.charge(Dur::from_micros(1));
        ctx.sleep(Dur::from_micros(1))?;
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 2_000);
}

#[test]
fn process_panic_is_reported() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("bang", |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        panic!("boom");
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bang"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

#[test]
fn report_tracks_clocks_and_events() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("a", |ctx| {
        ctx.sleep(Dur::from_micros(10))?;
        Ok(())
    });
    sim.spawn("b", |ctx| {
        ctx.sleep(Dur::from_micros(20))?;
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.end_time.nanos(), 20_000);
    assert_eq!(report.proc_clocks.len(), 2);
    assert_eq!(report.proc_clocks[0].0, "a");
    assert_eq!(report.proc_clocks[0].1.nanos(), 10_000);
    assert_eq!(report.proc_clocks[1].1.nanos(), 20_000);
    assert!(report.events_processed >= 4);
}

/// A token-ring of processes with charged compute per hop: the same run must
/// produce the same trace every time.
fn token_ring(n: usize, hops: u32) -> Vec<repseq_sim::TraceEntry> {
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    for i in 0..n {
        let next = (i + 1) % n;
        if i == 0 {
            sim.spawn("ring0", move |ctx| {
                ctx.charge(Dur::from_micros(3));
                ctx.send(next, hops, ctx.now() + Dur::from_micros(2));
                loop {
                    let env = ctx.recv()?;
                    if env.msg == 0 {
                        return Ok(());
                    }
                    ctx.charge(Dur::from_micros(1));
                    ctx.send(next, env.msg - 1, ctx.now() + Dur::from_micros(2));
                }
            });
        } else {
            sim.spawn_daemon(&format!("ring{i}"), move |ctx| {
                while let Ok(env) = ctx.recv() {
                    ctx.charge(Dur::from_micros(1));
                    if env.msg == 0 {
                        ctx.send(next, 0, ctx.now() + Dur::from_micros(2));
                    } else {
                        ctx.send(next, env.msg - 1, ctx.now() + Dur::from_micros(2));
                    }
                }
                Ok(())
            });
        }
    }
    sim.run().unwrap().trace.unwrap()
}

#[test]
fn identical_runs_produce_identical_traces() {
    let t1 = token_ring(5, 23);
    let t2 = token_ring(5, 23);
    assert!(!t1.is_empty());
    assert_eq!(t1, t2);
}

#[test]
fn shared_state_between_processes_is_consistent() {
    // Two processes appending to a shared log under a mutex (never held
    // across yields): the log order must follow virtual time.
    let log = Arc::new(Mutex::new(Vec::<(u64, &'static str)>::new()));
    let mut sim = Sim::<()>::new();
    for (name, start, step) in [("even", 0u64, 20u64), ("odd", 10, 20)] {
        let log = Arc::clone(&log);
        sim.spawn(name, move |ctx| {
            ctx.sleep(Dur::from_nanos(start))?;
            for _ in 0..5 {
                log.lock().push((ctx.now().nanos(), name));
                ctx.sleep(Dur::from_nanos(step))?;
            }
            Ok(())
        });
    }
    sim.run().unwrap();
    let log = log.lock();
    let times: Vec<u64> = log.iter().map(|e| e.0).collect();
    let mut sorted = times.clone();
    sorted.sort_unstable();
    assert_eq!(times, sorted, "log must be in virtual-time order");
    assert_eq!(log.len(), 10);
    assert_eq!(log[0], (0, "even"));
    assert_eq!(log[1], (10, "odd"));
}

#[test]
fn send_to_self_works() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("selfie", |ctx| {
        ctx.send(0, 9, ctx.now() + Dur::from_micros(4));
        let env = ctx.recv()?;
        assert_eq!(env.msg, 9);
        assert_eq!(ctx.now().nanos(), 4_000);
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn many_processes_scale() {
    // Sanity: a few hundred processes exchanging messages completes quickly.
    let n = 200;
    let mut sim = Sim::<u32>::new();
    sim.spawn("collector", move |ctx| {
        for _ in 0..n {
            ctx.recv()?;
        }
        Ok(())
    });
    for i in 0..n {
        sim.spawn(&format!("w{i}"), move |ctx| {
            ctx.charge(Dur::from_nanos(i as u64));
            ctx.send(0, i, ctx.now() + Dur::from_micros(1));
            Ok(())
        });
    }
    let report = sim.run().unwrap();
    assert!(report.events_processed >= 2 * n as u64);
}

// --- Grouped runs and engine counters ---

const RING: usize = 6;
const HOPS: u32 = 40;

/// The token ring with each process in its own group and the hop latency
/// as the (exact) lookahead bound.
fn grouped_ring() -> repseq_sim::SimReport {
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    for i in 0..RING {
        let next = (i + 1) % RING;
        let hop = move |ctx: &repseq_sim::Ctx<u32>, msg: u32| {
            ctx.charge(Dur::from_micros(1));
            ctx.send(next, msg.saturating_sub(1), ctx.now() + Dur::from_micros(2));
        };
        if i == 0 {
            sim.spawn("ring0", move |ctx| {
                ctx.charge(Dur::from_micros(2));
                hop(&ctx, HOPS + 1);
                loop {
                    let env = ctx.recv()?;
                    if env.msg == 0 {
                        return Ok(());
                    }
                    hop(&ctx, env.msg);
                }
            });
        } else {
            sim.spawn_daemon(&format!("ring{i}"), move |ctx| {
                while let Ok(env) = ctx.recv() {
                    hop(&ctx, env.msg);
                }
                Ok(())
            });
        }
        sim.assign_group(i, i);
    }
    sim.set_lookahead(Dur::from_micros(2));
    sim.run().unwrap()
}

#[test]
fn grouped_runs_repeat_bit_for_bit_and_count_their_switches() {
    let a = grouped_ring();
    let b = grouped_ring();
    assert_eq!(a.end_time, b.end_time);
    assert_eq!(a.events_processed, b.events_processed);
    assert_eq!(a.proc_clocks, b.proc_clocks);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.exec, b.exec, "engine counters are deterministic too");
    // Every hop delivery resumes the next process: a switch per hop, none
    // of them back into the process that just blocked.
    assert!(a.exec.handoff_switches as u32 >= HOPS, "{:?}", a.exec);
    // Each hop's checkpoint wake (Polling → Waiting) resumes nobody.
    assert!(a.exec.inline_events > 0, "{:?}", a.exec);
}

#[test]
fn self_resumes_are_counted() {
    // A lone process sleeping repeatedly: one resume to start it, then
    // every wake resumes the process that just blocked.
    let mut sim = Sim::<u32>::new();
    sim.spawn("loner", |ctx| {
        for _ in 0..10 {
            ctx.sleep(Dur::from_micros(1))?;
        }
        Ok(())
    });
    let report = sim.run().unwrap();
    assert_eq!(report.exec.handoff_switches, 11, "{:?}", report.exec);
    assert_eq!(report.exec.self_continues, 10, "{:?}", report.exec);
}

#[test]
fn consecutive_pops_for_one_group_count_as_sprints() {
    // Eight deliveries queued for one process: once the receiver's group
    // is popped, every later event targets it too — its checkpoint wakes
    // and the deliveries that resume it.
    let mut sim = Sim::<u32>::new();
    sim.spawn("burst-sender", |ctx| {
        for i in 0..8u32 {
            ctx.send(1, i, ctx.now() + Dur::from_micros(10 + i as u64));
        }
        Ok(())
    });
    sim.spawn("burst-receiver", |ctx| {
        for expect in 0..8u32 {
            assert_eq!(ctx.recv()?.msg, expect);
        }
        Ok(())
    });
    let report = sim.run().unwrap();
    // Sender wake, receiver wake, then eight (checkpoint, delivery) pairs
    // for the receiver: all but the first two pops repeat its group.
    assert_eq!(report.events_processed, 18, "{:?}", report.exec);
    assert_eq!(report.exec.sprint_pops, 16, "{:?}", report.exec);
    // The sender's eight messages plus the receiver's initial wake.
    assert_eq!(report.exec.peak_pending, 9, "{:?}", report.exec);
    assert_eq!(report.exec.stale_wakes, 0, "{:?}", report.exec);
}

/// A receiver whose 100 µs deadline is overtaken by a delivery at 10 µs;
/// the run ends when the sender wakes at `sender_sleep_us`.
fn overtaken_deadline(sender_sleep_us: u64) -> repseq_sim::SimReport {
    let mut sim = Sim::<u32>::new();
    sim.spawn("sender", move |ctx| {
        ctx.send(1, 7, ctx.now() + Dur::from_micros(10));
        ctx.sleep(Dur::from_micros(sender_sleep_us))
    });
    sim.spawn_daemon("receiver", |ctx| {
        let env = ctx.recv_timeout(Dur::from_micros(100))?;
        assert_eq!(env.map(|e| e.msg), Some(7));
        Ok(())
    });
    sim.run().unwrap()
}

#[test]
fn overtaken_deadlines_count_as_stale_wakes_popped_or_queued() {
    // The deadline pops (and is skipped) before the sender's wake at 200 µs.
    let popped = overtaken_deadline(200);
    assert_eq!(popped.end_time, SimTime::from_nanos(200_000));
    assert_eq!(popped.exec.stale_wakes, 1, "{:?}", popped.exec);
    // The run ends at 50 µs with the deadline still queued.
    let queued = overtaken_deadline(50);
    assert_eq!(queued.end_time, SimTime::from_nanos(50_000));
    assert_eq!(queued.exec.stale_wakes, 1, "{:?}", queued.exec);
    assert_eq!(queued.events_processed + 1, popped.events_processed);
}

#[test]
fn grouped_daemons_are_stopped_after_the_primaries_exit() {
    let mut sim = Sim::<u32>::new();
    let served = Arc::new(AtomicU64::new(0));
    let served2 = Arc::clone(&served);
    sim.spawn_daemon("server", move |ctx| {
        while let Ok(env) = ctx.recv() {
            served2.fetch_add(1, Ordering::SeqCst);
            ctx.charge(Dur::from_micros(1));
            ctx.send(env.from, env.msg * 2, ctx.now() + Dur::from_micros(1));
        }
        Ok(())
    });
    sim.spawn("client", |ctx| {
        for i in 0..3u32 {
            ctx.send(0, i, ctx.now() + Dur::from_micros(1));
            let env = ctx.recv()?;
            assert_eq!(env.msg, i * 2);
        }
        Ok(())
    });
    sim.set_lookahead(Dur::from_micros(1));
    sim.assign_group(0, 0);
    sim.assign_group(1, 1);
    sim.run().unwrap();
    assert_eq!(served.load(Ordering::SeqCst), 3);
}

#[test]
fn a_panic_ends_the_run_while_others_are_blocked() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("bang", |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        panic!("boom");
    });
    sim.spawn("bystander", |ctx| {
        let _ = ctx.recv()?;
        Ok(())
    });
    match sim.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bang"),
        other => panic!("expected panic report, got {other:?}"),
    }
}

// --- Coroutine execution ---

#[test]
fn every_process_runs_on_the_thread_that_called_run() {
    let caller = std::thread::current().id();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Sim::<u32>::new();
    for i in 0..4 {
        let seen = Arc::clone(&seen);
        sim.spawn(&format!("p{i}"), move |ctx| {
            for _ in 0..3 {
                seen.lock().push(std::thread::current().id());
                ctx.sleep(Dur::from_micros(i + 1))?;
            }
            Ok(())
        });
    }
    sim.run().unwrap();
    let seen = seen.lock();
    assert_eq!(seen.len(), 12);
    assert!(seen.iter().all(|&id| id == caller), "a process ran on another thread");
}

/// Recurse through `depth` frames of `FRAME` bytes each, yielding at the
/// bottom so the deep stack is suspended and resumed.
fn deep(ctx: &repseq_sim::Ctx<u32>, depth: usize) -> Result<u64, repseq_sim::Stopped> {
    const FRAME: usize = 1024;
    let mut pad = [0u8; FRAME];
    pad[depth % FRAME] = depth as u8;
    let below = if depth == 0 {
        ctx.sleep(Dur::from_micros(1))?;
        0
    } else {
        deep(ctx, depth - 1)?
    };
    Ok(below + std::hint::black_box(&pad)[depth % FRAME] as u64)
}

#[test]
fn a_process_can_use_more_than_a_mebibyte_of_stack() {
    let mut sim = Sim::<u32>::new();
    sim.spawn("deep", |ctx| {
        // 1200 frames of at least 1 KiB each: over 1.1 MiB of stack.
        let sum = deep(&ctx, 1200)?;
        assert_eq!(sum, (0..=1200u64).map(|d| d % 256).sum::<u64>());
        Ok(())
    });
    sim.run().unwrap();
}

#[test]
fn a_backtrace_inside_a_process_ends_at_the_coroutine_base() {
    let frames = Arc::new(Mutex::new(String::new()));
    let frames2 = Arc::clone(&frames);
    let mut sim = Sim::<u32>::new();
    sim.spawn("tracer", move |ctx| {
        ctx.sleep(Dur::from_micros(1))?;
        *frames2.lock() = std::backtrace::Backtrace::force_capture().to_string();
        ctx.sleep(Dur::from_micros(1))?;
        Ok(())
    });
    sim.run().unwrap();
    let frames = frames.lock();
    assert!(frames.contains("fiber_main"), "the walk reaches the coroutine base:\n{frames}");
    // The walk stops at the coroutine's base: nothing below it belongs to
    // the thread that called `run`.
    assert!(!frames.contains("event_loop"), "the unwinder walked off the coroutine:\n{frames}");
}

/// A value whose strong count tells whether a process's captures were
/// dropped.
fn tracked() -> (Arc<()>, Arc<()>) {
    let a = Arc::new(());
    (Arc::clone(&a), a)
}

#[test]
fn a_deadlocked_run_unwinds_its_suspended_processes() {
    let (probe, held) = tracked();
    let mut sim = Sim::<u32>::new();
    sim.spawn("stuck", move |ctx| {
        let _held = held;
        let _ = ctx.recv()?;
        Ok(())
    });
    assert!(matches!(sim.run(), Err(SimError::Deadlock { .. })));
    assert_eq!(Arc::strong_count(&probe), 1, "the suspended stack was not unwound");
}

#[test]
fn a_panicked_run_unwinds_every_process() {
    let (probe_bang, held_bang) = tracked();
    let (probe_other, held_other) = tracked();
    let mut sim = Sim::<u32>::new();
    sim.spawn("bang", move |ctx| {
        let _held = held_bang;
        ctx.sleep(Dur::from_micros(1))?;
        panic!("boom");
    });
    sim.spawn("waiter", move |ctx| {
        let _held = held_other;
        let _ = ctx.recv()?;
        Ok(())
    });
    assert!(matches!(sim.run(), Err(SimError::ProcessPanicked { .. })));
    assert_eq!(Arc::strong_count(&probe_bang), 1, "the panicking process leaked");
    assert_eq!(Arc::strong_count(&probe_other), 1, "the suspended process leaked");
}

#[test]
fn dropping_a_sim_that_never_ran_drops_its_processes() {
    let (probe, held) = tracked();
    let mut sim = Sim::<u32>::new();
    sim.spawn("never", move |_ctx| {
        let _held = held;
        Ok(())
    });
    assert_eq!(Arc::strong_count(&probe), 2);
    drop(sim);
    assert_eq!(Arc::strong_count(&probe), 1, "the unstarted process leaked");
}
