#!/usr/bin/env python3
"""The flexserve benchmark: one command, every metric with its unit.

    python3 flexbench/run.py --workload <figures|serve_direct|serve_routed>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 flexbench/run.py --steadiness <runs> [--workloads a,b] [--seed <first>]
                             [--seconds <s>] [--trace <0|1>]

Run from the repository root. The first form builds `flexserve` and the
`flexbench` helper from source (into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload and prints, as the last line of standard
output, one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`, its
per-layer metrics with `--trace 1`. Provenance (git rev, nproc, rustc,
RAYON_NUM_THREADS, seed, rates, ladder) goes to standard error and, with
the full result, to `<target>/flexbench-results/`.

Workloads (see BENCHMARK.json for why each was chosen):

* figures      -- `flexserve run all` at the standard profile in one cold
                  process; every CSV is checked against the digests recorded
                  in digests.json. run_cpu_s is the process's user plus
                  system time (its wall time, run_s, is reported unbounded:
                  it moves with the host's load). The paper's registry fixes
                  its inputs (seeds 1000...), so `--seed` does not reach
                  them; it seeds the serving part, which serves ONBR-fixed
                  commuter-dynamic sessions directly so that every workload
                  reports every end-to-end metric.
* serve_direct -- four ONTH commuter-dynamic sessions on one `flexserve serve`.
* serve_routed -- the same sessions and schedule through `flexserve route`.

The second form is the steadiness report: it repeats each workload with
seeds <first>, <first>+1, ... and prints the median, quartiles, min/max and
quartile spread per metric against the metric's bound, and whether the
direct and routed step-body digests agree per seed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("figures", "serve_direct", "serve_routed")
FIGURES = 20
# Reported with every result but not bounded, because they move with the
# host's load more than a bound can allow (see src/serve.rs): latencies at
# the fixed rates and wall time (run_cpu_s is the bounded figure).
UNBOUNDED = ("req_p50_us.light", "req_p50_us.heavy", "req_p99_us.light", "req_p99_us.heavy",
             "run_s")
# Wall-clock caps per child process, so a hung daemon cannot hang a run.
RUN_ALL_TIMEOUT = 150
HELPER_TIMEOUT = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log(f"flexbench: {msg}")
    sys.exit(1)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds `flexserve` (root workspace) and the helper (its own package)."""
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("run from the repository root: Cargo.toml and crates/ are missing here")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "flexserve-experiments", "--bin", "flexserve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "flexserve"), os.path.join(release, "flexbench")


def provenance(args):
    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=10)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"

    return {
        "git_rev": out(["git", "rev-parse", "HEAD"]),
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "--version"]),
        "RAYON_NUM_THREADS": os.environ.get("RAYON_NUM_THREADS", "unset"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rates_rps": {"light": 500, "heavy": 2000},
        "ladder": "from 1000 rps, x1.25 per 0.3 s rung, pass while no request fails and "
                  "p50 latency from due time <= 1 ms; limit interpolated between the last "
                  "pass and the first fail; median of 4 passes, the later three starting "
                  "3 rungs below the first pass's last passing rung",
    }


def check_csvs(results):
    """Failed figures: a CSV that is missing or differs from its digest."""
    with open(os.path.join(HERE, "digests.json")) as f:
        expected = json.load(f)
    bad = []
    for name, digest in sorted(expected.items()):
        path = os.path.join(results, name)
        try:
            with open(path, "rb") as f:
                got = hashlib.sha256(f.read()).hexdigest()
        except OSError:
            got = None
        if got != digest:
            bad.append(name)
    return bad


def run_all(flexserve, results):
    """`flexserve run all` in one cold process: (wall s, CPU s, peak RSS MB, ok).

    CPU time is user plus system time of the process and its threads; unlike
    wall time it leaves out the time the host keeps a virtual CPU from
    running."""
    env = dict(os.environ, FLEXSERVE_RESULTS_DIR=results)
    with open(os.path.join(results, "..", "run_all.log"), "w") as errlog:
        t0 = time.perf_counter()
        p = subprocess.Popen([flexserve, "run", "all"], cwd=ROOT, env=env,
                             stdout=subprocess.DEVNULL, stderr=errlog)
        watchdog = threading.Timer(RUN_ALL_TIMEOUT, p.kill)
        watchdog.start()
        _, status, usage = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, p.returncode == 0


def helper(flexbench, flexserve, args, rundir, results):
    cmd = [flexbench, args.workload, "--flexserve", flexserve, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--dir", rundir]
    env = dict(os.environ, FLEXSERVE_RESULTS_DIR=results)
    # Its own process group, so a timeout also takes down the daemons it
    # started.
    p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         text=True, start_new_session=True)
    try:
        stdout, stderr = p.communicate(timeout=HELPER_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        fail(f"{args.workload}: helper timed out")
    if p.returncode != 0:
        sys.stderr.write(stderr)
        fail(f"{args.workload}: helper exited with {p.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{args.workload}: helper printed no result")
    return json.loads(lines[-1])


def one_run(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    flexserve, flexbench = build()
    prov = provenance(args)
    log("flexbench provenance: " + json.dumps(prov, sort_keys=True))

    rundir = os.path.join(target_dir(), "flexbench-runs", f"{args.workload}-{args.seed}-{os.getpid()}")
    results = os.path.join(rundir, "results")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(results)
    try:
        attempted = failed = 0
        figure_metrics = {}
        figure_info = {}
        if args.workload == "figures" and not args.trace:
            wall, cpu, rss, ok = run_all(flexserve, results)
            bad = check_csvs(results) if ok else ["all"]
            attempted += FIGURES
            failed += FIGURES if not ok else len(bad)
            if bad:
                log(f"figures: CSV digest mismatch or missing: {', '.join(bad)}")
            figure_metrics = {"run_cpu_s": (cpu, "s"), "peak_rss_mb": (rss, "MB")}
            figure_info = {"run_s": f"{wall:.6f}"}
        out = helper(flexbench, flexserve, args, rundir, results)
        if args.workload == "figures" and args.trace:
            # the traced run plays every pipeline in process
            bad = check_csvs(results)
            attempted += FIGURES
            failed += len(bad)
            if bad:
                log(f"figures (traced): CSV digest mismatch or missing: {', '.join(bad)}")
        attempted += out["attempted"]
        failed += out["failed"]
        metrics = {k: (v["value"], v["unit"]) for k, v in out["metrics"].items()}
        metrics.update(figure_metrics)
        out.setdefault("info", {}).update(figure_info)
        spans = os.path.join(rundir, "spans.jsonl")
        keep = os.path.join(target_dir(), "flexbench-results")
        os.makedirs(keep, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if os.path.exists(spans):
            shutil.copy(spans, os.path.join(keep, f"{tag}.spans.jsonl"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    result_metrics = {}
    for spec in wanted:
        name = spec["name"]
        if name not in metrics or metrics[name][0] is None:
            fail(f"{args.workload}: metric {name} was not measured")
        value, unit = metrics[name]
        if unit != spec["unit"]:
            fail(f"{args.workload}: metric {name} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        result_metrics[name] = {"value": value, "unit": unit}
    with open(os.path.join(keep, f"{tag}.json"), "w") as f:
        json.dump({"provenance": prov, "info": out.get("info", {}), "attempted": attempted,
                   "failed": failed, "metrics": result_metrics}, f, indent=1, sort_keys=True)
    for name, m in result_metrics.items():
        log(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    units = {"run_s": "s"}
    for name in UNBOUNDED:
        if name in out.get("info", {}):
            log(f"  {name:44s} {float(out['info'][name]):>16.6g} {units.get(name, 'us')} (unbounded)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    digests = {}
    for w in workloads:
        values = {}
        failures = 0
        for k in range(args.steadiness):
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if r.returncode != 0:
                print(f"{w} seed {seed}: exit {r.returncode}", flush=True)
                failures += 1
                continue
            res = json.loads(r.stdout.strip().splitlines()[-1])
            failures += res["failed"] > 0
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            with open(os.path.join(target_dir(), "flexbench-results", f"{w}-seed{seed}-trace{args.trace}.json")) as f:
                info = json.load(f)["info"]
            digests[(w, seed)] = info.get("prefix_digest")
            for name in UNBOUNDED:
                if name in info:
                    values.setdefault(name, []).append(float(info[name]))
            print(f"{w} seed {seed}: {time.perf_counter() - t0:.1f}s, failed {res['failed']}/{res['attempted']}",
                  flush=True)
        print(f"\n{w}: {args.steadiness} runs, {failures} with failures")
        print(f"  {'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'min':>12s} {'max':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for spec in specs + [{"name": name} for name in UNBOUNDED]:
            v = values.get(spec["name"], [])
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = spec.get("bound")
            flag = "" if bound is None or spread <= bound / 3 else "  <-- above bound/3"
            print(f"  {spec['name']:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(v):12.6g} {max(v):12.6g} "
                  f"{spread:7.3f} {bound if bound is not None else '-':>6}{flag}")
    for k in range(args.steadiness):
        seed = args.seed + k
        d, r = digests.get(("serve_direct", seed)), digests.get(("serve_routed", seed))
        if d and r:
            print(f"seed {seed}: light-phase step digests direct {d} routed {r} "
                  f"{'agree' if d == r else 'DIFFER'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS")
    ap.add_argument("--workloads", help="comma-separated, for --steadiness (default: all)")
    args = ap.parse_args()
    if args.steadiness:
        steadiness(args)
    elif args.workload:
        one_run(args)
    else:
        ap.error("give --workload or --steadiness")


if __name__ == "__main__":
    main()
