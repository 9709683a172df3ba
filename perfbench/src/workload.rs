//! The four workloads and one run of each, driven through the public API
//! only: `ClusterConfig::paper(n)` with its `backend` set, `Runtime::new`,
//! the app's `setup`, and `Runtime::run`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use repseq_apps::barnes_hut::{BarnesHut, BhConfig, BhResult};
use repseq_apps::kv::{splitmix64, KvConfig, KvResult, KvStore};
use repseq_core::{RunConfig, Runtime, SeqMode, Stopped, Team};
use repseq_dsm::{Backend, ClusterConfig, RaceSink};
use repseq_sim::SimReport;
use repseq_stats::host::{self, HostCounters};
use repseq_stats::StatsSnapshot;

use crate::procfs::Cpu;

/// Offered rate of the KV workload's fixed-rate pass, requests per virtual
/// second: about three quarters of the saturated capacity.
const KV_RATE_RPS: f64 = 25_000.0;
/// A rate no cluster keeps up with: every request is due at the start, so
/// the pass measures capacity.
const KV_SATURATED_RPS: f64 = 1e12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BhRseN128,
    BhMoN32,
    KvZipfRseN32,
    BhNativeN2,
}

/// Full size for the benchmark, short size for its self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Short,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::BhRseN128, Workload::BhMoN32, Workload::KvZipfRseN32, Workload::BhNativeN2];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BhRseN128 => "bh_rse_n128",
            Workload::BhMoN32 => "bh_mo_n32",
            Workload::KvZipfRseN32 => "kv_zipf_rse_n32",
            Workload::BhNativeN2 => "bh_native_n2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Runs on the discrete-event simulator (virtual time is exact).
    pub fn is_des(self) -> bool {
        self != Workload::BhNativeN2
    }

    pub fn backend(self) -> Backend {
        if self.is_des() {
            Backend::Sim
        } else {
            Backend::Native
        }
    }

    pub fn nodes(self, scale: Scale) -> usize {
        match (self, scale) {
            (Workload::BhNativeN2, _) => 2,
            (_, Scale::Short) => 4,
            (Workload::BhRseN128, Scale::Full) => 128,
            (_, Scale::Full) => 32,
        }
    }

    pub fn seq_mode(self) -> SeqMode {
        match self {
            Workload::BhMoN32 => SeqMode::MasterOnly,
            _ => SeqMode::Replicated,
        }
    }

    /// The generated inputs. `seed: None` keeps the app config's own seed.
    pub fn app(self, scale: Scale, seed: Option<u64>) -> App {
        let mut app = match (self, scale) {
            (Workload::BhRseN128, Scale::Full) => App::Bh(BhConfig::scaled(512)),
            (Workload::BhMoN32, Scale::Full) => App::Bh(BhConfig::scaled(2048)),
            (Workload::BhNativeN2, Scale::Full) => App::Bh(BhConfig::scaled(65_536)),
            (Workload::KvZipfRseN32, Scale::Full) => {
                App::Kv(KvConfig::scaled(32_768).weak_scaled(self.nodes(scale)).with_skew(0.99))
            }
            (Workload::KvZipfRseN32, Scale::Short) => {
                App::Kv(KvConfig::tiny().weak_scaled(self.nodes(scale)).with_skew(0.99))
            }
            (_, Scale::Short) => App::Bh(BhConfig::tiny()),
        };
        if let App::Kv(c) = &mut app {
            c.arrival_rps = KV_RATE_RPS;
        }
        if let Some(s) = seed {
            app.set_seed(splitmix64(s));
        }
        app
    }
}

/// One workload's inputs.
#[derive(Debug, Clone)]
pub enum App {
    Bh(BhConfig),
    Kv(KvConfig),
}

impl App {
    fn set_seed(&mut self, seed: u64) {
        match self {
            App::Bh(c) => c.seed = seed,
            App::Kv(c) => c.seed = seed,
        }
    }

    /// The KV workload with every request due at the start.
    pub fn saturated(&self) -> App {
        match self {
            App::Kv(c) => App::Kv(c.clone().with_rate(KV_SATURATED_RPS)),
            other => other.clone(),
        }
    }
}

/// What an app's run returned.
#[derive(Debug, Clone, Copy)]
pub enum AppResult {
    Bh(BhResult),
    Kv(KvResult),
}

impl AppResult {
    /// The deterministic output: identical for every node count, backend,
    /// sequential-section mode and (for KV) offered rate.
    pub fn key(&self) -> Vec<u64> {
        match self {
            AppResult::Bh(r) => vec![r.checksum.to_bits(), r.interactions],
            AppResult::Kv(r) => vec![r.fingerprint, r.read_xor, r.reads, r.writes],
        }
    }
}

/// How to run a workload's app once.
#[derive(Clone)]
pub struct RunSpec {
    pub nodes: usize,
    pub backend: Backend,
    pub mode: SeqMode,
    pub app: App,
}

impl RunSpec {
    pub fn of(w: Workload, scale: Scale, seed: Option<u64>) -> RunSpec {
        RunSpec {
            nodes: w.nodes(scale),
            backend: w.backend(),
            mode: w.seq_mode(),
            app: w.app(scale, seed),
        }
    }

    /// The reference for the output check: the same inputs on one
    /// simulated node, or for a native run on the simulator at the same
    /// configuration.
    pub fn reference(&self) -> RunSpec {
        let nodes = if self.backend == Backend::Native { self.nodes } else { 1 };
        RunSpec { nodes, backend: Backend::Sim, ..self.clone() }
    }
}

/// Everything one run measured.
pub struct RunOut {
    pub result: AppResult,
    pub report: SimReport,
    pub snap: StatsSnapshot,
    /// Host wall time and CPU of `Runtime::run`.
    pub wall_s: f64,
    pub cpu: Cpu,
    /// The data-plane host counters accumulated during `Runtime::run`.
    pub host: HostCounters,
}

impl RunOut {
    /// Virtual time of the measured region (on the native backend, its
    /// wall-clock-based time).
    pub fn virtual_s(&self) -> f64 {
        self.snap.total_time.as_secs_f64()
    }
}

type Program = Box<dyn FnOnce(&Team) -> Result<AppResult, Stopped> + Send>;

/// Build the runtime and set up the app: the part `setup_s` times.
fn setup(spec: &RunSpec) -> (Runtime, Program) {
    let mut cluster = ClusterConfig::paper(spec.nodes);
    cluster.backend = spec.backend;
    let mut rt = Runtime::new(RunConfig { cluster, seq_mode: spec.mode });
    let program: Program = match &spec.app {
        App::Bh(c) => {
            let app = BarnesHut::setup(&mut rt, c.clone());
            Box::new(move |t| app.run(t).map(AppResult::Bh))
        }
        App::Kv(c) => {
            let app = KvStore::setup(&mut rt, c.clone());
            Box::new(move |t| app.run(t).map(AppResult::Kv))
        }
    };
    (rt, program)
}

/// Host time of one set-up, with the runtime dropped outside the timing.
pub fn time_setup(spec: &RunSpec) -> f64 {
    let t0 = Instant::now();
    let built = setup(spec);
    let s = t0.elapsed().as_secs_f64();
    drop(built);
    s
}

/// Run once. `observer` installs the traced run's sink and turns on the
/// kernel event trace.
pub fn run(spec: &RunSpec, observer: Option<Arc<dyn RaceSink>>) -> Result<RunOut, String> {
    let (mut rt, program) = setup(spec);
    if let Some(sink) = observer {
        rt.set_race_sink(sink);
        rt.record_trace(true);
    }
    let stats = rt.stats();
    let slot: Arc<Mutex<Option<AppResult>>> = Arc::new(Mutex::new(None));
    let out = Arc::clone(&slot);

    let host0 = host::snapshot();
    let cpu0 = Cpu::now();
    let t0 = Instant::now();
    let ran = rt.run(move |team| {
        let r = program(team)?;
        *out.lock().expect("result slot") = Some(r);
        Ok(())
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = Cpu::now().since(&cpu0);
    let host = host::snapshot().since(&host0);

    let report = ran.map_err(|e| e.to_string())?;
    let result =
        slot.lock().expect("result slot").take().ok_or("the program returned no result")?;
    Ok(RunOut { result, report, snap: stats.snapshot(), wall_s, cpu, host })
}
