//! Model check of the event queue: random scripted runs through [`Sim`],
//! with many scheduling groups, same-time ties and `assign_group` calls
//! interleaved with the spawns, must pop their events in exactly the order
//! of a reference queue sorted by `(time, src_group, seq)`.
//!
//! Processes only `send` and `sleep`, never receive, so every wake resumes
//! its process and every delivery is applied inline. The reference can
//! then replay each script without modelling mailboxes: it forms the same
//! keys (a fresh group per spawn, per-group sequence counters) and keeps
//! pending events in a `BTreeMap`.

use std::collections::BTreeMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use repseq_sim::{Dur, Sim, SimTime, TraceClass};

/// One resume of a scripted process: its sends as `(dst, delay ns)`, then
/// a sleep of `Some(ns)`, or exit on `None`.
#[derive(Debug, Clone)]
struct Step {
    sends: Vec<(usize, u64)>,
    sleep: Option<u64>,
}

/// A process: daemon flag and steps. Each step runs at one resume.
#[derive(Debug, Clone)]
struct Script {
    daemon: bool,
    steps: Vec<Step>,
}

/// Setup actions, in order: spawn the next process, or move one already
/// spawned into a group.
#[derive(Debug, Clone)]
enum Setup {
    Spawn,
    Assign(usize, usize),
}

/// Delays are drawn from a few small values so that many events land on
/// the same instant and the tie order decides.
const DELAYS: [u64; 4] = [0, 0, 1_000, 3_000];

fn generate(seed: u64) -> (Vec<Script>, Vec<Setup>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = rng.gen_range(2..14usize);
    let scripts: Vec<Script> = (0..n)
        .map(|i| {
            let steps = (0..rng.gen_range(1..6usize))
                .map(|_| Step {
                    sends: (0..rng.gen_range(0..4usize))
                        .map(|_| (rng.gen_range(0..n), DELAYS[rng.gen_range(0..4usize)]))
                        .collect(),
                    sleep: Some(DELAYS[rng.gen_range(0..4usize)]),
                })
                .collect::<Vec<_>>();
            let mut steps = steps;
            steps.last_mut().unwrap().sleep = None;
            Script { daemon: i > 0 && rng.gen_range(0..3u32) == 0, steps }
        })
        .collect();
    let mut setup = Vec::new();
    for pid in 0..n {
        setup.push(Setup::Spawn);
        while rng.gen_range(0..2u32) == 0 {
            setup.push(Setup::Assign(rng.gen_range(0..pid + 1), rng.gen_range(0..2 * n)));
        }
    }
    (scripts, setup)
}

/// `(time, src_group, seq, pid, class)` of one popped event.
type Pop = (SimTime, u64, u64, usize, TraceClass);

/// What the engine should do: the pop sequence, the peak pending count
/// and the number of pops whose target group repeats the previous one's.
fn reference(scripts: &[Script], setup: &[Setup]) -> (Vec<Pop>, u64, u64) {
    type Key = (SimTime, u64, u64);
    let mut queue: BTreeMap<Key, (usize, TraceClass)> = BTreeMap::new();
    let mut group_of: Vec<usize> = Vec::new();
    let mut n_groups = 0;
    let mut seqs: BTreeMap<usize, u64> = BTreeMap::new();
    let mut peak = 0;
    let mut push = |queue: &mut BTreeMap<Key, (usize, TraceClass)>,
                    group: usize,
                    time: SimTime,
                    target: (usize, TraceClass)| {
        let seq = seqs.entry(group).or_insert(0);
        queue.insert((time, group as u64, *seq), target);
        *seq += 1;
        peak = peak.max(queue.len() as u64);
    };
    for action in setup {
        match *action {
            Setup::Spawn => {
                let pid = group_of.len();
                group_of.push(n_groups);
                n_groups += 1;
                push(&mut queue, group_of[pid], SimTime::ZERO, (pid, TraceClass::Wake));
            }
            Setup::Assign(pid, group) => {
                group_of[pid] = group;
                n_groups = n_groups.max(group + 1);
            }
        }
    }
    let mut live_primary = scripts.iter().filter(|s| !s.daemon).count();
    let mut next_step = vec![0; scripts.len()];
    let mut pops = Vec::new();
    let mut sprints = 0;
    let mut last_group = None;
    while live_primary > 0 {
        let ((time, src, seq), (pid, class)) = queue.pop_first().expect("reference deadlock");
        pops.push((time, src, seq, pid, class));
        if last_group == Some(group_of[pid]) {
            sprints += 1;
        }
        last_group = Some(group_of[pid]);
        if class == TraceClass::Deliver {
            continue;
        }
        let step = &scripts[pid].steps[next_step[pid]];
        next_step[pid] += 1;
        for &(dst, delay) in &step.sends {
            let at = time + Dur::from_nanos(delay);
            push(&mut queue, group_of[pid], at, (dst, TraceClass::Deliver));
        }
        match step.sleep {
            Some(d) => {
                push(&mut queue, group_of[pid], time + Dur::from_nanos(d), (pid, TraceClass::Wake))
            }
            None if !scripts[pid].daemon => live_primary -= 1,
            None => {}
        }
    }
    (pops, peak, sprints)
}

fn run(scripts: &[Script], setup: &[Setup]) -> repseq_sim::SimReport {
    let mut sim = Sim::<u32>::new();
    sim.record_trace(true);
    let mut spawned = 0;
    for action in setup {
        match *action {
            Setup::Spawn => {
                let script = scripts[spawned].clone();
                let body = move |ctx: repseq_sim::Ctx<u32>| {
                    for step in script.steps {
                        for (dst, delay) in step.sends {
                            ctx.send(dst, 0, ctx.now() + Dur::from_nanos(delay));
                        }
                        match step.sleep {
                            Some(d) => ctx.sleep(Dur::from_nanos(d))?,
                            None => break,
                        }
                    }
                    Ok(())
                };
                let name = format!("p{spawned}");
                if scripts[spawned].daemon {
                    sim.spawn_daemon(&name, body);
                } else {
                    sim.spawn(&name, body);
                }
                spawned += 1;
            }
            Setup::Assign(pid, group) => sim.assign_group(pid, group),
        }
    }
    sim.run().expect("scripted run")
}

#[test]
fn pops_follow_a_sorted_reference_queue() {
    let mut ties = 0;
    for seed in 0..300 {
        let (scripts, setup) = generate(seed);
        let (want, peak, sprints) = reference(&scripts, &setup);
        let report = run(&scripts, &setup);
        let got: Vec<Pop> = report
            .trace
            .as_ref()
            .unwrap()
            .iter()
            .map(|e| (e.time, e.src, e.seq, e.pid, e.class))
            .collect();
        assert_eq!(got, want, "seed {seed}: pop order differs from the reference");
        assert_eq!(report.events_processed, want.len() as u64, "seed {seed}");
        assert_eq!(report.exec.peak_pending, peak, "seed {seed}: peak pending");
        assert_eq!(report.exec.sprint_pops, sprints, "seed {seed}: same-group pops");
        assert_eq!(report.exec.stale_wakes, 0, "seed {seed}: every wake resumes");
        ties += want.windows(2).filter(|w| w[0].0 == w[1].0).count();
    }
    assert!(ties > 1000, "the scripts must exercise same-time ties ({ties})");
}
