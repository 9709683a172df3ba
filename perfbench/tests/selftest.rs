//! Self-tests of the benchmark, on short-scale inputs: the declared
//! metrics are exactly the emitted ones, names are well formed, DES virtual
//! metrics repeat bit for bit, and a wrong reference shows as failures.

use std::collections::BTreeSet;

use repseq_perfbench::layers::PER_LAYER;
use repseq_perfbench::workload::{self, AppResult, Scale, Workload};
use repseq_perfbench::{measure, measure_against, Options, Outcome, END_TO_END};

fn short(workload: Workload, trace: bool) -> Options {
    Options { workload, scale: Scale::Short, seed: Some(7), seconds: 0.0, trace }
}

fn names(out: &Outcome) -> BTreeSet<&'static str> {
    out.metrics.iter().map(|m| m.name).collect()
}

/// The `"name"` values of one list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeSet<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json.find(&format!("\"{list}\": [")).unwrap_or_else(|| panic!("no {list} list"));
    let body = &json[start..start + json[start..].find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name ends")].to_string())
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let layers: BTreeSet<String> = PER_LAYER.iter().map(|(n, ..)| n.to_string()).collect();
    assert_eq!(declared("end_to_end"), e2e);
    assert_eq!(declared("per_layer"), layers);
    let workloads: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared("workloads"), workloads);
}

#[test]
fn every_metric_is_emitted_for_every_workload() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = measure(&short(w, trace));
            assert!(out.correct, "{} trace={trace}: {:?}", w.name(), out.notes);
            let want: BTreeSet<&str> = if trace {
                PER_LAYER.iter().map(|(n, ..)| *n).collect()
            } else {
                END_TO_END.iter().map(|(n, _)| *n).collect()
            };
            assert_eq!(names(&out), want, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(m.value.is_finite(), "{} {}: {}", w.name(), m.name, m.value);
                if !trace {
                    assert!(m.value > 0.0, "{} {} must never be 0", w.name(), m.name);
                }
            }
        }
    }
}

#[test]
fn names_are_well_formed() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
    };
    let all: Vec<&str> = END_TO_END
        .iter()
        .map(|(n, _)| *n)
        .chain(PER_LAYER.iter().map(|(n, ..)| *n))
        .chain(Workload::ALL.iter().map(|w| w.name()))
        .collect();
    for n in &all {
        assert!(ok(n), "bad name {n}");
    }
    assert_eq!(all.iter().collect::<BTreeSet<_>>().len(), all.len(), "a name is used twice");
}

#[test]
fn des_virtual_metrics_repeat_bit_identically() {
    let virtual_metrics =
        ["virtual_s", "lat_p50_ms", "lat_p999_ms", "core.virtual_seq_s", "core.virtual_par_s"];
    for w in Workload::ALL.into_iter().filter(|w| w.is_des()) {
        for trace in [false, true] {
            let bits = |out: Outcome| -> Vec<(&str, u64)> {
                out.metrics
                    .iter()
                    .filter(|m| virtual_metrics.contains(&m.name))
                    .map(|m| (m.name, m.value.to_bits()))
                    .collect()
            };
            let a = bits(measure(&short(w, trace)));
            assert!(!a.is_empty());
            assert_eq!(a, bits(measure(&short(w, trace))), "{} trace={trace}", w.name());
        }
    }
}

#[test]
fn a_wrong_reference_makes_fail_share_nonzero() {
    let wrong = |spec: &workload::RunSpec| {
        let mut r = workload::run(&spec.reference(), None)?;
        match &mut r.result {
            AppResult::Bh(b) => b.interactions += 1,
            AppResult::Kv(k) => k.read_xor ^= 1,
        }
        Ok(r)
    };
    for w in [Workload::BhMoN32, Workload::KvZipfRseN32] {
        for trace in [false, true] {
            let out = measure_against(&short(w, trace), &wrong);
            assert!(!out.correct, "{} trace={trace}", w.name());
            assert!(out.fail_share() > 0.0, "{} trace={trace}", w.name());
            assert_eq!(out.failed, out.attempted, "{} trace={trace}: every run differs", w.name());
        }
    }
}
