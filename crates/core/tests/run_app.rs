//! `Runtime::run_app` hands back the master program's value on both
//! substrates, and `Runtime::run` is the same run with the value dropped.

use repseq_core::{RunConfig, Runtime, SeqMode, Stopped, Team, Worker};
use repseq_dsm::{Backend, ClusterConfig};
use repseq_sim::SimReport;

const NODES: usize = 4;
const LEN: usize = 2048;

/// A runtime holding `0..LEN` and a per-node partial-sum array, plus a
/// master program that doubles the data in a sequential section, sums it
/// in a parallel one and returns the total.
fn setup(
    backend: Backend,
) -> (Runtime, impl FnOnce(&Team) -> Result<u64, Stopped> + Send + 'static) {
    let mut cluster = ClusterConfig::paper(NODES);
    cluster.backend = backend;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: SeqMode::Replicated });
    let data = rt.alloc_array_page_aligned::<u64>(LEN);
    let partials = rt.alloc_array_page_aligned::<u64>(NODES);
    rt.preload(data, &(0..LEN as u64).collect::<Vec<_>>());
    let program = move |team: &Team| {
        team.sequential(move |nd| {
            for i in 0..data.len() {
                let v = data.get(nd, i)?;
                data.set(nd, i, 2 * v)?;
            }
            Ok(())
        })?;
        team.parallel(move |nd| {
            let mut s = 0;
            for i in nd.my_block(data.len()) {
                s += data.get(nd, i)?;
            }
            partials.set(nd, nd.node(), s)
        })?;
        let mut total = 0;
        for i in 0..NODES {
            total += partials.get(team.node(), i)?;
        }
        Ok(total)
    };
    (rt, program)
}

/// `2 * (0 + 1 + ... + LEN-1)`.
const EXPECTED: u64 = (LEN as u64) * (LEN as u64 - 1);

#[test]
fn run_app_returns_the_master_value_on_the_simulator() {
    let (rt, program) = setup(Backend::Sim);
    let (total, _) = rt.run_app(program).expect("run completes");
    assert_eq!(total, EXPECTED);
}

#[test]
fn run_app_returns_the_master_value_on_the_native_backend() {
    let (rt, program) = setup(Backend::Native);
    let (total, _) = rt.run_app(program).expect("run completes");
    assert_eq!(total, EXPECTED);
}

/// The virtual residue of a simulator run: everything but host counters.
fn residue(r: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (r.end_time, r.proc_clocks.clone(), r.events_processed, r.mailbox_backlog.clone())
}

#[test]
fn run_and_run_app_give_the_same_report() {
    let (rt, program) = setup(Backend::Sim);
    let (_, with_value) = rt.run_app(program).expect("run_app completes");
    let (rt, program) = setup(Backend::Sim);
    let without = rt
        .run(move |team| {
            program(team)?;
            Ok(())
        })
        .expect("run completes");
    assert_eq!(residue(&with_value), residue(&without));
}
