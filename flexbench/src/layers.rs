//! In-process calls into each crate's public functions, timed from the
//! benchmark's side: substrate generators and APSP (`graph`), demand
//! recording (`workload`), strategy decisions and the rest of a simulated
//! round (`core`, `sim`), the offline DPs, the seed-parallel runner and the
//! figure pipelines (`experiments`). Nothing inside the program is
//! instrumented.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use flexserve_core::{initial_center, offstat, optimal_plan, OnBr, OnTh};
use flexserve_experiments::figures::Profile;
use flexserve_experiments::output::results_dir;
use flexserve_experiments::registry;
use flexserve_experiments::runner::{average_multi, run_algorithms, Algorithm, SeedSummary};
use flexserve_experiments::setup::{make_scenario, paper_t_for, record_shared};
use flexserve_experiments::spec::TopologySpec;
use flexserve_experiments::{CellBuilder, CellSpec, ExperimentEnv, ScenarioKind};
use flexserve_graph::{DistanceMatrix, NodeId};
use flexserve_sim::{
    run_online, CostBreakdown, CostParams, Fleet, LoadModel, OnlineStrategy, SimContext, SimSession,
};
use flexserve_workload::{RoundRequests, Trace};

use crate::metrics::Metrics;
use crate::spans::{self, Recorder};

/// Wraps a strategy and times every `decide` call.
pub struct Timed<S> {
    inner: S,
    pub calls: u64,
    pub busy_ns: u64,
    /// Calls that returned a reconfiguration.
    pub reconfigs: u64,
}

impl<S> Timed<S> {
    pub fn new(inner: S) -> Self {
        Timed {
            inner,
            calls: 0,
            busy_ns: 0,
            reconfigs: 0,
        }
    }
}

impl<S: OnlineStrategy> OnlineStrategy for Timed<S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn initialize(&mut self, ctx: &SimContext<'_>, fleet: &Fleet) {
        self.inner.initialize(ctx, fleet);
    }

    fn decide(
        &mut self,
        ctx: &SimContext<'_>,
        t: u64,
        requests: &RoundRequests,
        access_cost: f64,
        fleet: &Fleet,
    ) -> Option<Vec<NodeId>> {
        let t0 = Instant::now();
        let out = self.inner.decide(ctx, t, requests, access_cost, fleet);
        self.busy_ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        self.reconfigs += u64::from(out.is_some());
        out
    }
}

/// Per-strategy decision counters: label → (calls, busy ns, reconfigs).
#[derive(Default)]
pub struct DecideStats(pub BTreeMap<String, (u64, u64, u64)>);

impl DecideStats {
    fn add<S>(&mut self, label: &str, t: &Timed<S>) {
        let e = self.0.entry(label.to_string()).or_default();
        e.0 += t.calls;
        e.1 += t.busy_ns;
        e.2 += t.reconfigs;
    }
}

/// Work counters of the timed calls: APSP rows built, rounds and
/// requests recorded.
pub static APSP_ROWS: AtomicU64 = AtomicU64::new(0);
pub static RECORDED_ROUNDS: AtomicU64 = AtomicU64::new(0);
pub static RECORDED_REQUESTS: AtomicU64 = AtomicU64::new(0);

fn count_trace(trace: &Trace) {
    RECORDED_ROUNDS.fetch_add(trace.len() as u64, Ordering::Relaxed);
    RECORDED_REQUESTS.fetch_add(trace.total_requests() as u64, Ordering::Relaxed);
}

/// Strategy labels reported per strategy (the figure pipelines' three).
pub const LABELS: [&str; 3] = ["ONTH", "ONBR-fixed", "ONBR-dyn"];

/// Times one generator call (`graph.gen`) and one APSP build
/// (`graph.apsp`) for `spec` at `seed`.
pub fn build_env(rec: &mut Recorder, parent: u64, spec: &TopologySpec, seed: u64) -> ExperimentEnv {
    let id = rec.begin("graph.gen", parent, 0);
    let graph = spec.build(seed).expect("benchmark topologies are valid");
    rec.end(id);
    let id = rec.begin("graph.apsp", parent, 0);
    let matrix = DistanceMatrix::build(&graph);
    rec.end(id);
    APSP_ROWS.fetch_add(graph.node_count() as u64, Ordering::Relaxed);
    ExperimentEnv {
        graph: Arc::new(graph),
        matrix: Arc::new(matrix),
    }
}

/// Times one `Trace::record` (`workload.record`).
fn record(rec: &mut Recorder, parent: u64, env: &ExperimentEnv, key: &TraceKey) -> Trace {
    let id = rec.begin("workload.record", parent, 0);
    let mut scenario = make_scenario(key.kind, env, key.t, key.lambda, key.requests, key.seed);
    let trace = Trace::record(scenario.as_mut(), key.rounds);
    rec.end(id);
    count_trace(&trace);
    trace
}

#[derive(Clone)]
struct TraceKey {
    env: (bool, usize, u64),
    kind: ScenarioKind,
    t: u32,
    lambda: u64,
    requests: usize,
    seed: u64,
    rounds: u64,
}

type TraceId = ((bool, usize, u64), u8, u32, u64, usize, u64, u64);

impl TraceKey {
    fn id(&self) -> TraceId {
        (
            self.env,
            self.kind as u8,
            self.t,
            self.lambda,
            self.requests,
            self.seed,
            self.rounds,
        )
    }
}

/// Substrates and traces, each built once like the program's caches do.
struct Memo {
    envs: HashMap<(bool, usize, u64), ExperimentEnv>,
    traces: HashMap<TraceId, Trace>,
}

impl Memo {
    fn env(
        &mut self,
        rec: &mut Recorder,
        parent: u64,
        line: bool,
        n: usize,
        seed: u64,
    ) -> ExperimentEnv {
        if let Some(env) = self.envs.get(&(line, n, seed)) {
            return env.clone();
        }
        let spec = if line {
            TopologySpec::Line { n }
        } else {
            TopologySpec::ErdosRenyi { n }
        };
        let env = build_env(rec, parent, &spec, seed);
        self.envs.insert((line, n, seed), env.clone());
        env
    }

    fn trace(
        &mut self,
        rec: &mut Recorder,
        parent: u64,
        env: &ExperimentEnv,
        key: TraceKey,
    ) -> Trace {
        if let Some(t) = self.traces.get(&key.id()) {
            return t.clone();
        }
        let trace = record(rec, parent, env, &key);
        self.traces.insert(key.id(), trace.clone());
        trace
    }
}

/// Runs `alg` through `run_online` with its decisions timed: one
/// `sim.run_online` span holding one aggregate `core.decide` span.
/// Returns the run's total cost.
fn timed_run(
    rec: &mut Recorder,
    parent: u64,
    ctx: &SimContext<'_>,
    trace: &Trace,
    alg: Algorithm,
    stats: &mut DecideStats,
) -> CostBreakdown {
    let initial = initial_center(ctx);
    let start = rec.now();
    let (calls, busy, cost) = match alg {
        Algorithm::OnTh => {
            let mut s = Timed::new(OnTh::new());
            let cost = run_online(ctx, trace, &mut s, initial).total();
            stats.add("ONTH", &s);
            (s.calls, s.busy_ns, cost)
        }
        Algorithm::OnBrFixed => {
            let mut s = Timed::new(OnBr::fixed(ctx));
            let cost = run_online(ctx, trace, &mut s, initial).total();
            stats.add("ONBR-fixed", &s);
            (s.calls, s.busy_ns, cost)
        }
        Algorithm::OnBrDyn => {
            let mut s = Timed::new(OnBr::dynamic(ctx));
            let cost = run_online(ctx, trace, &mut s, initial).total();
            stats.add("ONBR-dyn", &s);
            (s.calls, s.busy_ns, cost)
        }
        other => unreachable!("the figure drive runs no {other:?}"),
    };
    let end = rec.now();
    let id = rec.record("sim.run_online", parent, 0, start, end);
    rec.aggregate("core.decide", id, start, end, calls, busy);
    cost
}

const ONLINE_ALGS: [Algorithm; 3] = [Algorithm::OnBrFixed, Algorithm::OnBrDyn, Algorithm::OnTh];

/// Per-seed costs of the online cells, one summary per strategy, keyed by
/// the figure CSV and the row they average into.
type RowCosts = BTreeMap<(&'static str, String), Vec<SeedSummary>>;

fn push_costs(rows: &mut RowCosts, key: (&'static str, String), costs: Vec<CostBreakdown>) {
    let row = rows
        .entry(key)
        .or_insert_with(|| vec![SeedSummary::default(); costs.len()]);
    for (summary, cost) in row.iter_mut().zip(costs) {
        summary.per_seed.push(cost);
    }
}

/// The online cells of figs 3–6 and 8–10 at the standard profile: graph
/// build, APSP, demand recording and `run_online` per cell and seed,
/// sequentially, with substrates and traces shared as the program's
/// caches share them.
///
/// The drive copies the pipelines' cell grids, so it checks that it still
/// plays their cells: the seed-averaged costs it computed must render
/// exactly the rows of the figure CSVs in the results directory, which
/// [`run_figures`] wrote earlier in the same run. Returns the figures
/// checked and the ones that differ.
pub fn drive_online_cells(
    rec: &mut Recorder,
    parent: u64,
    stats: &mut DecideStats,
) -> (usize, Vec<String>) {
    let p = Profile::Standard;
    let mut rows = RowCosts::new();
    let mut memo = Memo {
        envs: HashMap::new(),
        traces: HashMap::new(),
    };
    let kinds = [
        ScenarioKind::CommuterDynamic,
        ScenarioKind::CommuterStatic,
        ScenarioKind::TimeZones,
    ];
    // figs 3–5: cost vs n, three algorithms; fig 6: flipped costs, ONBR-fixed.
    for (params, algs) in [
        (CostParams::default(), &ONLINE_ALGS[..]),
        (CostParams::flipped(), &ONLINE_ALGS[..1]),
    ] {
        for (k, kind) in kinds.into_iter().enumerate() {
            for n in p.network_sizes() {
                for seed in p.seeds(5) {
                    let env = memo.env(rec, parent, false, n, seed);
                    let key = TraceKey {
                        env: (false, n, seed),
                        kind,
                        t: paper_t_for(n),
                        lambda: 10,
                        requests: 50,
                        seed: seed ^ 0xABCD,
                        rounds: p.rounds(500),
                    };
                    let trace = memo.trace(rec, parent, &env, key);
                    let ctx = env.context(params, LoadModel::Linear);
                    let costs = algs
                        .iter()
                        .map(|&alg| timed_run(rec, parent, &ctx, &trace, alg, stats))
                        .collect();
                    let key = if algs.len() == 1 {
                        ("fig06", format!("{n},{kind}"))
                    } else {
                        (["fig03", "fig04", "fig05"][k], n.to_string())
                    };
                    push_costs(&mut rows, key, costs);
                }
            }
        }
    }
    // figs 8–10: cost vs λ at n = 200.
    let n = 200usize.min(p.exemplary_n(200));
    for (k, kind) in kinds.into_iter().enumerate() {
        for lambda in p.lambdas() {
            for seed in p.seeds(10) {
                let env = memo.env(rec, parent, false, n, seed);
                let key = TraceKey {
                    env: (false, n, seed),
                    kind,
                    t: paper_t_for(n),
                    lambda,
                    requests: 50,
                    seed: seed ^ 0xF00D,
                    rounds: p.rounds(900),
                };
                let trace = memo.trace(rec, parent, &env, key);
                let ctx = env.context(CostParams::default(), LoadModel::Linear);
                let costs = ONLINE_ALGS
                    .iter()
                    .map(|&alg| timed_run(rec, parent, &ctx, &trace, alg, stats))
                    .collect();
                let fig = ["fig08", "fig09", "fig10"][k];
                push_costs(&mut rows, (fig, lambda.to_string()), costs);
            }
        }
    }
    check_rows(&rows)
}

/// Renders each row as its pipeline does (`{:.2}` seed means; fig 6 the
/// ONBR-fixed breakdown) and looks for it in the figure's CSV.
fn check_rows(rows: &RowCosts) -> (usize, Vec<String>) {
    let mut figures: BTreeMap<&str, bool> = BTreeMap::new();
    for ((fig, label), summaries) in rows {
        let row = if *fig == "fig06" {
            let m = summaries[0].mean();
            format!(
                "{label},{:.2},{:.2},{:.2},{:.2},{:.2}",
                m.access,
                m.running,
                m.migration,
                m.creation,
                m.total()
            )
        } else {
            let cells: Vec<String> = summaries
                .iter()
                .map(|s| format!("{:.2}", s.mean_total()))
                .collect();
            format!("{label},{}", cells.join(","))
        };
        let csv =
            std::fs::read_to_string(results_dir().join(format!("{fig}.csv"))).unwrap_or_default();
        let found = csv.lines().any(|line| line == row);
        *figures.entry(fig).or_insert(true) &= found;
    }
    let bad = figures
        .iter()
        .filter(|(_, ok)| !**ok)
        .map(|(fig, _)| fig.to_string())
        .collect();
    (figures.len(), bad)
}

/// The offline cells of figs 11 and 13–19, as the pipelines run them:
/// OPT, and except for fig 11's ONTH/OPT ratio OFFSTAT, on the five-node
/// line, T = 4 λ sweeps and λ = 10 T sweeps, per cost regime. Figures that
/// share a cell each solve it again, as the pipelines do; only substrates
/// and traces are shared.
pub fn drive_offline_cells(rec: &mut Recorder, parent: u64) {
    use ScenarioKind::*;
    let p = Profile::Standard;
    let mut memo = Memo {
        envs: HashMap::new(),
        traces: HashMap::new(),
    };
    // (kind, T, λ, flipped, with OFFSTAT)
    let mut cells = Vec::new();
    for kind in [CommuterDynamic, CommuterStatic, TimeZones] {
        for lambda in p.lambdas() {
            cells.push((kind, 4, lambda, false, false)); // fig 11
        }
    }
    for flipped in [false, true] {
        for lambda in p.lambdas() {
            cells.push((CommuterDynamic, 4, lambda, flipped, true)); // figs 13–14
        }
    }
    for kind in [CommuterDynamic, CommuterStatic, TimeZones] {
        for lambda in p.lambdas() {
            for flipped in [false, true] {
                cells.push((kind, 4, lambda, flipped, true)); // figs 15–17
            }
        }
    }
    for kind in [CommuterDynamic, CommuterStatic] {
        for t in p.t_values() {
            for flipped in [false, true] {
                cells.push((kind, t, 10, flipped, true)); // figs 18–19
            }
        }
    }
    for (kind, t, lambda, flipped, with_offstat) in cells {
        let base = if flipped {
            CostParams::flipped()
        } else {
            CostParams::default()
        };
        let params = base.with_max_servers(4);
        for seed in p.seeds(10) {
            let env = memo.env(rec, parent, true, 5, seed);
            let key = TraceKey {
                env: (true, 5, seed),
                kind,
                t,
                lambda,
                requests: 3,
                seed,
                rounds: p.rounds(200),
            };
            let trace = memo.trace(rec, parent, &env, key);
            let ctx = env.context(params, LoadModel::Linear);
            if with_offstat {
                let id = rec.begin("core.offstat", parent, 0);
                std::hint::black_box(offstat(&ctx, &trace));
                rec.end(id);
            }
            let initial = initial_center(&ctx);
            let id = rec.begin("core.opt", parent, 0);
            std::hint::black_box(optimal_plan(&ctx, &trace, &initial));
            rec.end(id);
        }
    }
}

/// Every registry pipeline at the standard profile, in registry order,
/// one `experiments.figures.<name>` span each (cold caches first).
pub fn run_figures(rec: &mut Recorder, parent: u64) {
    flexserve_experiments::clear_global_caches();
    for entry in registry::FIGURES {
        let id = rec.begin(&format!("experiments.figures.{}", entry.name), parent, 0);
        std::hint::black_box((entry.run)(Profile::Standard));
        rec.end(id);
    }
}

/// Parallel efficiency of the seed-parallel runner on fig 5's largest
/// cell: summed per-seed closure time over (wall time × threads).
pub fn runner_efficiency(rec: &mut Recorder, parent: u64) -> f64 {
    let p = Profile::Standard;
    let n = *p.network_sizes().last().expect("non-empty sizes");
    let seeds = p.seeds(5);
    let busy = AtomicU64::new(0);
    let id = rec.begin("experiments.runner", parent, 0);
    let t0 = Instant::now();
    let out = average_multi(&seeds, ONLINE_ALGS.len(), |seed| {
        let c0 = Instant::now();
        let env = ExperimentEnv::erdos_renyi(n, seed);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let trace = record_shared(
            ScenarioKind::TimeZones,
            &env,
            paper_t_for(n),
            10,
            50,
            seed ^ 0xABCD,
            p.rounds(500),
        );
        let costs = run_algorithms(&ctx, &trace, &ONLINE_ALGS);
        busy.fetch_add(c0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        costs
    });
    let wall = t0.elapsed().as_nanos() as f64;
    rec.end(id);
    std::hint::black_box(out);
    busy.load(Ordering::Relaxed) as f64 / (wall * rayon::current_num_threads() as f64)
}

/// Tracing overhead of the decide wrapper: the fig 3 cells at n = 200
/// played plainly and wrapped, as a percentage of the plain time.
pub fn decide_overhead_pct(rec: &mut Recorder, parent: u64) -> f64 {
    let p = Profile::Standard;
    let id = rec.begin("untraced.overhead_probe", parent, 0);
    let mut plain = 0u128;
    let mut timed = 0u128;
    for seed in p.seeds(5) {
        let env = ExperimentEnv::erdos_renyi(200, seed);
        let ctx = env.context(CostParams::default(), LoadModel::Linear);
        let trace = record_shared(
            ScenarioKind::CommuterDynamic,
            &env,
            paper_t_for(200),
            10,
            50,
            seed ^ 0xABCD,
            p.rounds(500),
        );
        let initial = initial_center(&ctx);
        // Alternating which goes first; the fastest of each kind, so that
        // neither a warm-up nor a burst of noise lands on one side only.
        let (mut best_plain, mut best_timed) = (u128::MAX, u128::MAX);
        for rep in 0..4 {
            for wrapped in [rep % 2 == 1, rep % 2 == 0] {
                let t0 = Instant::now();
                if wrapped {
                    let mut s = Timed::new(OnTh::new());
                    std::hint::black_box(run_online(&ctx, &trace, &mut s, initial.clone()));
                    best_timed = best_timed.min(t0.elapsed().as_nanos());
                } else {
                    let mut s = OnTh::new();
                    std::hint::black_box(run_online(&ctx, &trace, &mut s, initial.clone()));
                    best_plain = best_plain.min(t0.elapsed().as_nanos());
                }
            }
        }
        plain += best_plain;
        timed += best_timed;
    }
    rec.end(id);
    (timed as f64 - plain as f64) / plain as f64 * 100.0
}

/// Drives one serve session's cell in process: substrate, `rounds` rounds
/// of its demand, and `SimSession::step` per round with the strategy's
/// decisions timed. Returns each step's duration in nanoseconds.
pub fn drive_session_cell(
    rec: &mut Recorder,
    parent: u64,
    args: &[String],
    rounds: u64,
    stats: &mut DecideStats,
) -> Vec<u64> {
    let mut b = CellBuilder::new();
    for a in args {
        let (k, v) = a.split_once('=').expect("key=value session args");
        b.apply(k, v).expect("valid session cell key");
    }
    let cell: CellSpec = b.build().expect("valid session cell");
    let seed = cell.seeds[0];
    let env = build_env(rec, parent, &cell.topology, seed);
    let id = rec.begin("workload.record", parent, 0);
    let mut scenario =
        cell.workload
            .instantiate(&env.graph, &env.matrix, cell.t_periods, cell.lambda, seed);
    let trace = Trace::record(scenario.as_mut(), rounds);
    rec.end(id);
    count_trace(&trace);
    let ctx = env.context(cell.params, cell.load);
    let strategy = cell
        .strategy
        .instantiate_online(&ctx, seed)
        .expect("servable strategy");
    let label = strategy.name();
    let mut timed = Timed::new(strategy);
    let start = rec.now();
    let mut steps = Vec::with_capacity(trace.len());
    {
        let mut session = SimSession::new(ctx, &mut timed, initial_center(&ctx));
        for batch in trace.iter() {
            let t0 = Instant::now();
            std::hint::black_box(session.step(batch));
            steps.push(t0.elapsed().as_nanos() as u64);
        }
    }
    let end = rec.now();
    let id = rec.record("sim.run_online", parent, 0, start, end);
    rec.aggregate("core.decide", id, start, end, timed.calls, timed.busy_ns);
    stats.add(&label, &timed);
    steps
}

/// Adds the batch-layer metrics read off the spans and counters.
pub fn batch_metrics(m: &mut Metrics, all: &[spans::Span], stats: &DecideStats) {
    let (calls, s) = spans::busy(all, "graph.gen");
    m.count("graph.gen.calls", calls);
    m.secs("graph.gen.busy_s", s);
    let (calls, s) = spans::busy(all, "graph.apsp");
    m.count("graph.apsp.calls", calls);
    m.secs("graph.apsp.busy_s", s);
    let (calls, s) = spans::busy(all, "workload.record");
    m.count("workload.record.calls", calls);
    m.secs("workload.record.busy_s", s);
    let (_, run_s) = spans::busy(all, "sim.run_online");
    let (calls, decide_s) = spans::busy(all, "core.decide");
    let reconfigs: u64 = stats.0.values().map(|v| v.2).sum();
    m.count("core.decide.calls", calls);
    m.secs("core.decide.busy_s", decide_s);
    m.ratio(
        "core.decide.reconfig_ratio",
        reconfigs as f64 / calls.max(1) as f64,
    );
    for label in LABELS {
        let (c, ns, r) = stats.0.get(label).copied().unwrap_or_default();
        m.count(&format!("core.decide.{label}.calls"), c);
        m.secs(&format!("core.decide.{label}.busy_s"), ns as f64 / 1e9);
        m.ratio(
            &format!("core.decide.{label}.reconfig_ratio"),
            r as f64 / c.max(1) as f64,
        );
    }
    m.count("sim.step_self.rounds", calls);
    m.secs("sim.step_self.busy_s", (run_s - decide_s).max(0.0));
    let (calls, s) = spans::busy(all, "core.opt");
    m.count("core.opt.calls", calls);
    m.secs("core.opt.busy_s", s);
    let (calls, s) = spans::busy(all, "core.offstat");
    m.count("core.offstat.calls", calls);
    m.secs("core.offstat.busy_s", s);

    m.count("graph.apsp.rows", APSP_ROWS.load(Ordering::Relaxed));
    m.count(
        "workload.record.rounds",
        RECORDED_ROUNDS.load(Ordering::Relaxed),
    );
    m.count(
        "workload.record.requests",
        RECORDED_REQUESTS.load(Ordering::Relaxed),
    );
}
