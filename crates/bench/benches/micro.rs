//! Host-time micro-benchmarks of the primitives no `BENCH_*.json`
//! artifact records: vector-clock operations, octree construction and
//! force evaluation, and end-to-end simulated runs of the contention
//! kernel. (`bench_json` owns the diff-engine and MMU cases.) These
//! measure the simulator itself, not virtual time — useful when hacking
//! on the protocol hot paths.

use std::hint::black_box;

use repseq_apps::barnes_hut::plummer::plummer_model;
use repseq_apps::barnes_hut::tree::{force_on, Octree};
use repseq_apps::kernels::{ContentionKernel, KernelConfig};
use repseq_bench::{bench_ns, run, SAMPLES};
use repseq_core::SeqMode;
use repseq_dsm::{ClusterConfig, Vc};

fn report(name: &str, ns: f64) {
    println!("{name:<24} {ns:>14.1} ns");
}

fn main() {
    println!("median host ns per call ({SAMPLES} samples each)");

    let mut a = Vc::zero(32);
    let mut b = Vc::zero(32);
    for i in 0..32 {
        a.set(i, (i * 7) as u32);
        b.set(i, (i * 5 + 3) as u32);
    }
    report(
        "vc_merge_32",
        bench_ns(|| {
            // Includes the clone the merge needs a fresh target for.
            let mut x = a.clone();
            x.merge(black_box(&b));
            black_box(x);
        }),
    );
    report(
        "vc_dominated_by_32",
        bench_ns(|| {
            black_box(black_box(&a).dominated_by(black_box(&b)));
        }),
    );

    let bodies = plummer_model(4096, 7);
    let pos: Vec<[f64; 3]> = bodies.iter().map(|b| b.pos).collect();
    let mass: Vec<f64> = bodies.iter().map(|b| b.mass).collect();
    report(
        "octree_build_4096",
        bench_ns(|| {
            black_box(Octree::build(black_box(&pos), black_box(&mass)));
        }),
    );
    let t = Octree::build(&pos, &mass);
    report(
        "octree_force_4096",
        bench_ns(|| {
            black_box(force_on(black_box(&t.cells), t.n_bodies, &pos, &mass, 17, 1.0, 0.0025));
        }),
    );

    for (name, mode) in
        [("kernel_original_8n", SeqMode::MasterOnly), ("kernel_replicated_8n", SeqMode::Replicated)]
    {
        report(
            name,
            bench_ns(|| {
                let out = run(ClusterConfig::paper(8), mode, |rt| {
                    ContentionKernel::setup(rt, KernelConfig::default())
                });
                black_box(out.result);
            }),
        );
    }
}
