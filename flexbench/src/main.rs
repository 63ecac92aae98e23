//! `flexbench`: the serving half of every workload and the traced
//! per-layer run. `run.py` builds this binary and the `flexserve` binary,
//! runs `flexserve run all` itself for the `figures` workload, and merges
//! the results.
//!
//! ```text
//! flexbench <figures|serve_direct|serve_routed> --flexserve <bin>
//!           --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"attempted": n, "failed": n, "metrics": {...}, "info": {...}}`.

mod http;
mod layers;
mod loadgen;
mod metrics;
mod serve;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use flexserve_experiments::{registry, DistCache, TraceCache};

use metrics::Metrics;
use serve::{Mode, Opts, Outcomes};
use spans::Recorder;

/// The layer spans' self times must sum to within this share of the
/// traced wall time.
const COVERAGE_TOLERANCE: f64 = 0.10;

fn cell_of(workload: &str) -> Option<(Mode, Vec<String>)> {
    let cell = |wl: &str, strat: &str| {
        vec![
            "topo=er:100".to_string(),
            format!("wl={wl}"),
            format!("strat={strat}"),
        ]
    };
    match workload {
        // ONBR, the strategy most figure cells evaluate, on the commuter
        // demand of figs 3 and 8 (ONBR on time-zones demand saturates the
        // daemon near the 2000 req/s rate, which makes it unsteady).
        "figures" => Some((Mode::Direct, cell("commuter-dynamic", "onbr-fixed"))),
        "serve_direct" => Some((Mode::Direct, cell("commuter-dynamic", "onth"))),
        "serve_routed" => Some((Mode::Routed, cell("commuter-dynamic", "onth"))),
        _ => None,
    }
}

fn parse() -> Result<(String, Opts, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args
        .first()
        .cloned()
        .ok_or("usage: flexbench <workload> --flexserve <bin> ...")?;
    let (mode, cell) =
        cell_of(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let mut opts = Opts {
        flexserve: PathBuf::new(),
        mode,
        cell,
        seed: 1,
        seconds: 30.0,
        dir: PathBuf::from("."),
    };
    let mut trace = false;
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--flexserve" => opts.flexserve = PathBuf::from(v),
            "--seed" => opts.seed = v.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = v.parse().map_err(|_| bad())?,
            "--trace" => trace = v == "1",
            "--dir" => opts.dir = PathBuf::from(v),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !opts.flexserve.is_file() {
        return Err(format!(
            "--flexserve {} is not a file",
            opts.flexserve.display()
        ));
    }
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("--dir: {e}"))?;
    Ok((workload, opts, trace))
}

fn info_json(info: &[(String, String)]) -> String {
    let fields: Vec<String> = info
        .iter()
        .map(|(k, v)| format!("{}: {}", serve::json_str(k), serve::json_str(v)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The traced run: per-layer metrics from spans recorded around calls
/// into each crate.
fn traced(workload: &str, opts: &Opts) -> Result<Outcomes, String> {
    let mut rec = Recorder::new(Instant::now());
    let mut stats = layers::DecideStats::default();
    let root = rec.begin("bench.run", 0, 0);
    let mut batch = Metrics::default();
    let figures = workload == "figures";
    let mut cell_check = None;
    if figures {
        let id = rec.begin("experiments.figures", root, 0);
        layers::run_figures(&mut rec, id);
        rec.end(id);
        cache_metrics(&mut batch);
        batch.ratio(
            "experiments.runner.par_eff",
            layers::runner_efficiency(&mut rec, root),
        );
        let id = rec.begin("bench.online_cells", root, 0);
        cell_check = Some(layers::drive_online_cells(&mut rec, id, &mut stats));
        rec.end(id);
        let id = rec.begin("bench.offline_cells", root, 0);
        layers::drive_offline_cells(&mut rec, id);
        rec.end(id);
    }
    let mut out = serve::traced(opts, &mut rec, root, &mut stats)?;
    let m = &mut out.metrics;
    m.merge(batch);
    if figures {
        // The serving part's tracing is per request; the batch layers'
        // is the decide wrapper, the bulk of this run's spans.
        m.set(
            "trace.overhead_pct",
            layers::decide_overhead_pct(&mut rec, root),
            "%",
        );
    } else {
        cache_metrics(m);
        m.ratio("experiments.runner.par_eff", 0.0);
        out.info.push((
            "batch_layers".into(),
            "figure pipelines, OPT/OFFSTAT and the seed runner run on the figures \
             workload only; they read 0 here"
                .into(),
        ));
    }
    rec.end(root);
    for f in registry::FIGURES {
        let name = format!("experiments.figures.{}", f.name);
        m.secs(&format!("{name}_s"), spans::busy(&rec.spans, &name).1);
    }
    layers::batch_metrics(m, &rec.spans, &stats);
    let ratio = spans::layer_coverage(&rec.spans, root);
    m.ratio("trace.self_sum_ratio", ratio);
    m.count("trace.spans", rec.spans.len() as u64);
    let path = opts.dir.join("spans.jsonl");
    spans::write_jsonl(&rec.spans, &path).map_err(|e| format!("writing spans: {e}"))?;
    // The online drive's copy of the pipelines' cells: one checked
    // output per figure.
    if let Some((checked, bad)) = cell_check {
        out.attempted += checked as u64;
        out.failed += bad.len() as u64;
        if !bad.is_empty() {
            out.info.push((
                "online_cells_check".into(),
                format!("the online drive does not reproduce {}", bad.join(", ")),
            ));
        }
    }
    // The span bookkeeping is one more checked output.
    out.attempted += 1;
    if (ratio - 1.0).abs() > COVERAGE_TOLERANCE {
        out.failed += 1;
        out.info.push((
            "trace_check".into(),
            format!("layer self times sum to {ratio:.3} of the traced wall time"),
        ));
    }
    Ok(out)
}

/// The distance-matrix and trace cache counters of this process.
fn cache_metrics(m: &mut Metrics) {
    let cache = DistCache::global().stats();
    let traces = TraceCache::global().stats();
    m.count("experiments.cache.hits", cache.hits);
    m.count("experiments.cache.misses", cache.misses);
    m.ratio("experiments.cache.hit_ratio", cache.hit_rate());
    m.count("experiments.traces.hits", traces.hits);
    m.count("experiments.traces.misses", traces.misses);
    m.ratio("experiments.traces.hit_ratio", traces.hit_rate());
}

fn main() -> std::process::ExitCode {
    let result = parse().and_then(|(workload, opts, trace)| {
        if trace {
            traced(&workload, &opts)
        } else {
            serve::run(&opts)
        }
    });
    match result {
        Ok(out) => {
            println!(
                "{{\"attempted\": {}, \"failed\": {}, \"metrics\": {}, \"info\": {}}}",
                out.attempted,
                out.failed,
                out.metrics.to_json(),
                info_json(&out.info)
            );
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("flexbench: {e}");
            std::process::ExitCode::from(1)
        }
    }
}
