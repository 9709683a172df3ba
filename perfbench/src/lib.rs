//! The repository benchmark: four repseq workloads measured end to end
//! (host time, virtual time, memory) with tracing off, and split across the
//! crates `sim`, `net`, `dsm`, `core`, `apps` and `native` by a separate
//! traced run. See `README.md` beside this crate for the workloads and the
//! layer-to-metric map.

pub mod layers;
mod probe;
mod procfs;
pub mod workload;

use std::time::Instant;

use workload::{time_setup, AppResult, RunOut, RunSpec, Scale, Workload};

/// End-to-end metrics, emitted for every workload by an untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_wall_s", "s"),
    ("host_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("virtual_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p999_ms", "ms"),
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What one benchmark invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result (values that are
    /// not metrics of the contract, such as the KV capacity).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub scale: Scale,
    /// `None` keeps the app configs' own seeds.
    pub seed: Option<u64>,
    /// How long the measured loop runs; it always completes one iteration.
    pub seconds: f64,
    /// Measure the per-layer metrics with a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// Produces the reference run the measured runs are checked against.
pub type Reference<'a> = &'a dyn Fn(&RunSpec) -> Result<RunOut, String>;

/// Run the benchmark, checking every run against [`RunSpec::reference`].
pub fn measure(opts: &Options) -> Outcome {
    measure_against(opts, &|spec| workload::run(&spec.reference(), None))
}

/// [`measure`] with the reference supplied by the caller (the self-tests
/// hand it a wrong one).
pub fn measure_against(opts: &Options, reference: Reference) -> Outcome {
    let spec = RunSpec::of(opts.workload, opts.scale, opts.seed);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let metrics = if opts.trace {
        layers::measure(opts, &spec, reference, &mut tally, &mut notes)
    } else {
        end_to_end(opts, &spec, reference, &mut tally, &mut notes)
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    Outcome { correct, attempted: tally.attempted, failed: tally.failed, metrics, notes }
}

/// Runs attempted and failed, and the result keys still to be checked
/// against the reference.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    attempted: u64,
    failed: u64,
    keys: Vec<Vec<u64>>,
}

impl Tally {
    /// Count one run; a run that errored counts as failed.
    fn record(&mut self, notes: &mut Vec<String>, run: Result<RunOut, String>) -> Option<RunOut> {
        self.attempted += 1;
        match run {
            Ok(r) => {
                self.keys.push(r.result.key());
                Some(r)
            }
            Err(e) => {
                notes.push(format!("run failed: {e}"));
                self.failed += 1;
                None
            }
        }
    }

    /// Count a run that completed but broke a check of its own.
    fn fail(&mut self, notes: &mut Vec<String>, why: String) {
        notes.push(why);
        self.failed += 1;
    }

    /// Fail every run recorded so far whose result differs from the
    /// reference's, or every one of them if the reference run failed.
    fn check(&mut self, notes: &mut Vec<String>, reference: &Result<RunOut, String>) {
        let want = match reference {
            Ok(r) => Some(r.result.key()),
            Err(e) => {
                notes.push(format!("reference run failed: {e}"));
                None
            }
        };
        for (i, key) in std::mem::take(&mut self.keys).into_iter().enumerate() {
            if want.as_ref() != Some(&key) {
                self.fail(
                    notes,
                    format!("run {i}: result {key:?} differs from the reference {want:?}"),
                );
            }
        }
    }
}

/// The median of `v` (the mean of the two middle values for an even count).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Share of each measured run's wall time spent re-timing set-up after it.
const SETUP_SHARE: f64 = 0.05;

/// Time set-up repeatedly for `seconds` (at least once). Bursts between
/// the measured runs spread the samples over the whole measuring interval,
/// so their median does not hang on the host's load at one moment.
fn time_setups(spec: &RunSpec, seconds: f64, samples: &mut Vec<f64>) {
    let t0 = Instant::now();
    loop {
        samples.push(time_setup(spec));
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Whether a loop that started at `t0` and has done `done` iterations
/// expects to finish one more within `seconds`.
fn time_for_another(t0: Instant, done: usize, seconds: f64) -> bool {
    let spent = t0.elapsed().as_secs_f64();
    spent + spent / done.max(1) as f64 <= seconds
}

/// The untraced run: repeat the workload for `opts.seconds`, then derive
/// the end-to-end metrics from the medians.
fn end_to_end(
    opts: &Options,
    spec: &RunSpec,
    reference: Reference,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let (mut walls, mut cpus, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    time_setups(spec, 0.0, &mut setups);
    let mut first: Option<RunOut> = None;
    let mut peak_rss_bytes = 0;
    let t0 = Instant::now();
    while walls.is_empty() || time_for_another(t0, walls.len(), opts.seconds) {
        let Some(r) = tally.record(notes, workload::run(spec, None)) else { break };
        walls.push(r.wall_s);
        cpus.push(r.cpu.total_s());
        time_setups(spec, SETUP_SHARE * r.wall_s, &mut setups);
        match &first {
            None => {
                // Read after the first run: the allocator keeps memory
                // between runs, so later peaks depend on the run count.
                peak_rss_bytes = procfs::peak_rss_bytes();
                first = Some(r);
            }
            // The DES is deterministic: a repeat must reproduce the first
            // run's virtual results exactly.
            Some(f) if opts.workload.is_des() && !same_virtual(f, &r) => {
                tally.fail(notes, "a repeated DES run changed its virtual results".into())
            }
            Some(_) => {}
        }
    }
    let Some(first) = first else { return Vec::new() };

    let saturated = match first.result {
        AppResult::Kv(_) => {
            let sat = RunSpec { app: spec.app.saturated(), ..spec.clone() };
            match tally.record(notes, workload::run(&sat, None)) {
                Some(RunOut { result: AppResult::Kv(k), .. }) => Some(k),
                _ => return Vec::new(),
            }
        }
        _ => None,
    };
    // Outside the timed region, after the peak RSS was read.
    let reference = reference(spec);
    tally.check(notes, &reference);
    let Ok(reference) = reference else { return Vec::new() };

    // Batch workloads serve one request, the job, due at the start of the
    // measured region; the KV workload serves its trace at a fixed rate
    // and then once more saturated, which gives its capacity. The native
    // workload's virtual time is that of its same-config DES reference.
    let (virtual_s, p50_ms, p999_ms) = match (first.result, saturated) {
        (AppResult::Kv(fixed), Some(sat)) => {
            notes.push(format!("kv_capacity_rps = {} 1/s", sat.throughput_rps));
            notes.push(format!("kv_p99_ms = {} ms", fixed.p99_ns as f64 * 1e-6));
            (sat.total.as_secs_f64(), fixed.p50_ns as f64 * 1e-6, fixed.p999_ns as f64 * 1e-6)
        }
        _ => {
            let v = if opts.workload.is_des() { first.virtual_s() } else { reference.virtual_s() };
            (v, v * 1e3, v * 1e3)
        }
    };
    let peak_rss_mb = peak_rss_bytes as f64 / (1024.0 * 1024.0);
    notes.push(format!("runs = {}", walls.len()));
    let values =
        [median(&walls), median(&cpus), median(&setups), peak_rss_mb, virtual_s, p50_ms, p999_ms];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, unit, value })
        .collect()
}

/// Whether two runs of one DES configuration agree on everything virtual.
fn same_virtual(a: &RunOut, b: &RunOut) -> bool {
    a.snap == b.snap
        && a.report.events_processed == b.report.events_processed
        && a.report.end_time == b.report.end_time
        && a.result.key() == b.result.key()
        && kv_latencies(a) == kv_latencies(b)
}

fn kv_latencies(r: &RunOut) -> Option<(u64, u64, u64)> {
    match r.result {
        AppResult::Kv(k) => Some((k.p50_ns, k.p999_ns, k.total.nanos())),
        _ => None,
    }
}
