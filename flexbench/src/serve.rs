//! The serving workloads: `flexserve serve` (and `flexserve route` in front
//! of it) as subprocesses, four sessions, and a seeded request schedule
//! played open-loop at fixed rates and up a rate ladder.
//!
//! Schedule: op `i` is a pure function of `(seed, i)` — 75% single-round
//! source-driven steps, 20% placement reads, 5% `{"n":16}` batched steps,
//! each on one of the four sessions. Session `s` rides connection
//! `s % 2`, so each session's op order is the schedule's order. Phases
//! consume consecutive blocks of the schedule, and every op of a block is
//! sent, so the ops a run issued are always a prefix of the schedule: the
//! in-process replay of that prefix through a `SessionManager` must give
//! the same step bodies, byte for byte.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use flexserve_experiments::serve::{SessionConfig, SessionManager};
use flexserve_workload::JsonValue;

use crate::http::{call, Conn};
use crate::layers::{self, DecideStats};
use crate::loadgen::{run_phase, Outcome, PhaseResult, Warm, CONNECTIONS};
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{median, percentile, Fnv, SplitMix};

const SESSIONS: usize = 4;
/// Closed-loop blocks per window; `run_cpu_s` is the daemons' median CPU
/// time per block.
const CLOSED_BLOCKS: usize = 2;
const CLOSED_OPS: usize = 2000;
/// Set-up samples per window; `setup_s` is the median of all of them.
const SETUPS_PER_WINDOW: usize = 3;
const LIGHT_RPS: f64 = 500.0;
const HEAVY_RPS: f64 = 2000.0;
/// Light and heavy windows per run, interleaved with the closed-loop
/// blocks, the ladder passes and more set-up samples, so that one
/// burst of host noise moves no metric much. The p50s are taken over all
/// windows' requests, as are the p99s (4000 light requests at
/// `--seconds 30`, so 40 beyond it); both are reported unbounded.
const WINDOWS: usize = 8;
/// The rate ladder: rungs `LADDER_START × LADDER_STEP^k` lasting
/// `RUNG_SECS` each (at least `RUNG_MIN_OPS` requests), passing while
/// no request fails and the median latency stays within `P50_LIMIT_US`.
/// Latency counts from each request's due time, so it includes the
/// generator's backlog: a backlog that grows through the rung lifts the
/// median past the limit. A pass over the ladder stops at its first
/// failing rung. `LADDER_PASSES` passes are spread through the run;
/// `max_rate_rps` is the median of their limits. The first pass climbs
/// from `LADDER_START`; the later ones start `LADDER_BACKOFF` rungs below
/// the first pass's last passing rung, skipping rungs that pass anyway.
///
/// The limit is on the median, not on p99: on the 2-vCPU shared virtual
/// machine this benchmark was calibrated on, the machine's own scheduling
/// stalls put p99 near 2 ms with no load at all (a bare thread sleeping to
/// a deadline woke 1.3–2.1 ms late at p99), so a p99 limit would measure
/// the host rather than the daemon. The median rises sharply only once
/// the daemon saturates.
const LADDER_START: f64 = 1000.0;
const LADDER_STEP: f64 = 1.25;
const RUNG_SECS: f64 = 0.3;
const RUNG_MIN_OPS: usize = 250;
const LADDER_PASSES: usize = 4;
const LADDER_BACKOFF: i32 = 3;
const P50_LIMIT_US: f64 = 1000.0;
const BATCH_ROUNDS: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Direct,
    Routed,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Step,
    Placement,
    Batch,
}

/// Op `i` of the schedule: (session, kind).
fn op(seed: u64, i: usize) -> (usize, Kind) {
    let x = SplitMix::new(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ i as u64).next_u64();
    let kind = match (x >> 32) % 100 {
        0..=74 => Kind::Step,
        75..=94 => Kind::Placement,
        _ => Kind::Batch,
    };
    ((x % SESSIONS as u64) as usize, kind)
}

fn request_of(s: usize, kind: Kind) -> (&'static str, String, &'static str) {
    match kind {
        Kind::Step => ("POST", format!("/sessions/s{s}/step"), ""),
        Kind::Batch => ("POST", format!("/sessions/s{s}/step"), "{\"n\":16}"),
        Kind::Placement => ("GET", format!("/sessions/s{s}/placement"), ""),
    }
}

pub struct Opts {
    pub flexserve: PathBuf,
    pub mode: Mode,
    /// `topo=`, `wl=` and `strat=` of every session.
    pub cell: Vec<String>,
    pub seed: u64,
    pub seconds: f64,
    pub dir: PathBuf,
}

impl Opts {
    /// Session `i`'s arguments; its seed derives from the benchmark seed.
    fn session_args(&self, i: usize, checkpoint: &Path) -> Vec<String> {
        let seed = SplitMix::new(self.seed ^ (0x5e55 + i as u64)).next_u64() % 1_000_000 + 1;
        let mut args = self.cell.clone();
        args.push(format!("seed={seed}"));
        // a scenario source that never runs out within a run
        args.push("rounds=1000000000".into());
        args.push(format!("checkpoint={}", checkpoint.display()));
        args
    }

    /// Requests per light window: 1 s at `--seconds 30`, at least 500.
    fn light_ops(&self) -> usize {
        ((LIGHT_RPS * self.seconds / 30.0) as usize).max(500)
    }

    /// Requests per heavy window: 0.5 s at `--seconds 30`, at least 1000.
    fn heavy_ops(&self) -> usize {
        ((HEAVY_RPS * self.seconds / 60.0) as usize).max(1000)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

struct Daemon {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn spawn(bin: &Path, args: &[String], dir: &Path, log: &str) -> Result<Daemon, String> {
        let log = std::fs::File::create(dir.join(log)).map_err(|e| format!("log file: {e}"))?;
        let mut child = Command::new(bin)
            .args(args)
            .env("FLEXSERVE_RESULTS_DIR", dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!(
                        "{} {} exited before listening",
                        bin.display(),
                        args[0]
                    ));
                }
                Ok(_) => {
                    if let Some(rest) = line.split("listening on http://").nth(1) {
                        break rest
                            .split_whitespace()
                            .next()
                            .unwrap_or_default()
                            .to_string();
                    }
                }
            }
        };
        // Keep draining stdout so a late print never meets a closed pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while out.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
                sink.clear();
            }
        });
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    fn proc_status(&self, key: &str) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// CPU time the daemon has used so far, over all its threads, in
    /// nanoseconds: its process CPU-time clock, which does not count the
    /// time the host keeps a virtual CPU from running.
    fn cpu_ns(&self) -> u64 {
        // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) of the Linux kernel
        let clock = (!(self.child.id() as i32) << 3) | 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    fn fds(&self) -> u64 {
        std::fs::read_dir(format!("/proc/{}/fd", self.child.id()))
            .map(|d| d.count() as u64)
            .unwrap_or(0)
    }

    /// `POST /shutdown`, then waits up to 10 s for the exit (the drop
    /// kills a daemon that is still running).
    fn shutdown(mut self) {
        let _ = call(&self.addr, "POST", "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    /// Kills and reaps the daemon if it is still running, so no process
    /// outlives the benchmark, even when an error cuts a run short.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// A worker, and in routed mode a router in front of it.
struct Cluster {
    worker: Daemon,
    router: Option<Daemon>,
}

impl Cluster {
    fn target(&self) -> &str {
        self.router.as_ref().map_or(&self.worker.addr, |r| &r.addr)
    }

    fn daemons(&self) -> impl Iterator<Item = &Daemon> {
        std::iter::once(&self.worker).chain(self.router.as_ref())
    }

    fn cpu_ns(&self) -> u64 {
        self.daemons().map(Daemon::cpu_ns).sum()
    }

    fn shutdown(self) {
        if let Some(r) = self.router {
            r.shutdown();
        }
        self.worker.shutdown();
    }
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Spawns the daemon(s), creates the sessions and checks each is
/// stepable (its placement reads `t = 0`). Returns the cluster and the
/// seconds this took.
fn setup(opts: &Opts, k: usize) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let dir = opts.dir.join(format!("setup{k}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("run dir: {e}"))?;
    let mut args = vec!["serve".to_string()];
    args.extend(opts.session_args(SESSIONS, &dir.join("default.json")));
    args.push("port=0".into());
    let worker = Daemon::spawn(&opts.flexserve, &args, &dir, "worker.log")?;
    let router = match opts.mode {
        Mode::Direct => None,
        Mode::Routed => {
            let args = vec![
                "route".to_string(),
                format!("workers={}", worker.addr),
                "port=0".into(),
            ];
            Some(Daemon::spawn(&opts.flexserve, &args, &dir, "router.log")?)
        }
    };
    let cluster = Cluster { worker, router };
    let ready = (|| {
        for i in 0..SESSIONS {
            let args: Vec<String> = opts
                .session_args(i, &dir.join(format!("s{i}.json")))
                .iter()
                .map(|a| json_str(a))
                .collect();
            let body = format!("{{\"name\": \"s{i}\", \"args\": [{}]}}", args.join(", "));
            let (status, resp) =
                call(cluster.target(), "POST", "/sessions", &body).map_err(|e| e.to_string())?;
            if !(200..300).contains(&status) {
                return Err(format!("create s{i}: {status} {resp}"));
            }
        }
        for i in 0..SESSIONS {
            let (status, resp) = call(
                cluster.target(),
                "GET",
                &format!("/sessions/s{i}/placement"),
                "",
            )
            .map_err(|e| e.to_string())?;
            let t = JsonValue::parse(&resp)
                .ok()
                .and_then(|v| v.get("t").and_then(JsonValue::as_u64));
            if status != 200 || t != Some(0) {
                return Err(format!("session s{i} not stepable: {status} {resp}"));
            }
        }
        Ok(())
    })();
    ready.map(|()| (cluster, t0.elapsed().as_secs_f64()))
}

/// One connection's generator state: the sessions pinned to it, each
/// with the `t` its next step must report and the digest of its step
/// bodies so far.
struct ConnState {
    addr: String,
    conn: Option<Conn>,
    next_t: [u64; SESSIONS],
    digest: [Fnv; SESSIONS],
    /// Single-step bodies kept for the JSON layer probe.
    bodies: Vec<Vec<u8>>,
    keep_bodies: bool,
}

impl ConnState {
    fn new(addr: &str) -> ConnState {
        ConnState {
            addr: addr.to_string(),
            conn: Conn::connect(addr).ok(),
            next_t: [0; SESSIONS],
            digest: [Fnv::default(); SESSIONS],
            bodies: Vec::new(),
            keep_bodies: false,
        }
    }

    /// Sends op `(s, kind)` and verifies the reply.
    fn issue(&mut self, s: usize, kind: Kind) -> (Outcome, Instant) {
        let (method, path, body) = request_of(s, kind);
        if self.conn.is_none() {
            self.conn = Conn::connect(&self.addr).ok();
        }
        let Some(conn) = self.conn.as_mut() else {
            return (Outcome::Io, Instant::now());
        };
        let reply = conn.request(method, &path, body.as_bytes());
        let received = Instant::now();
        let (status, body) = match reply {
            Ok(r) => r,
            Err(_) => {
                self.conn = None; // the stream is no longer framed
                return (Outcome::Io, received);
            }
        };
        let outcome = match status {
            200..=299 => {
                if self.verify(s, kind, &body) {
                    Outcome::Ok
                } else {
                    Outcome::Invalid
                }
            }
            500..=599 => Outcome::Status5xx,
            _ => Outcome::Status4xx,
        };
        (outcome, received)
    }

    /// Every body must parse (the daemon ends each with a newline, which the
    /// digest leaves out); a step must report the session's next `t`,
    /// a batch the next 16, a placement the current one.
    fn verify(&mut self, s: usize, kind: Kind, body: &[u8]) -> bool {
        let Some(v) = std::str::from_utf8(body)
            .ok()
            .and_then(|b| JsonValue::parse(b).ok())
        else {
            return false;
        };
        let t_of = |v: &JsonValue| v.get("t").and_then(JsonValue::as_u64);
        let expected = self.next_t[s];
        let ok = match kind {
            Kind::Placement => return t_of(&v) == Some(expected),
            Kind::Step => {
                let t = t_of(&v);
                self.next_t[s] = t.map_or(expected + 1, |t| t + 1);
                if self.keep_bodies {
                    self.bodies.push(body.to_vec());
                }
                t == Some(expected)
            }
            Kind::Batch => {
                let ts: Vec<Option<u64>> = v.as_array().unwrap_or(&[]).iter().map(t_of).collect();
                self.next_t[s] = expected + BATCH_ROUNDS;
                ts.len() as u64 == BATCH_ROUNDS
                    && ts
                        .iter()
                        .enumerate()
                        .all(|(k, t)| *t == Some(expected + k as u64))
            }
        };
        self.digest[s].push(body.trim_ascii_end());
        ok
    }
}

/// Everything a run issued, and how it went.
struct Schedule {
    seed: u64,
    /// Ops issued so far (the schedule prefix).
    issued: usize,
    failed: u64,
}

impl Schedule {
    fn phase(
        &mut self,
        conns: &mut [ConnState],
        n: usize,
        rate: Option<f64>,
        trace: Option<(&Recorder, u64)>,
    ) -> (PhaseResult, Vec<Recorder>) {
        let base = self.issued;
        let seed = self.seed;
        self.issued += n;
        let (res, recs) = run_phase(
            conns,
            n,
            |i| op(seed, base + i).0 % CONNECTIONS,
            rate,
            |st: &mut ConnState, i| {
                let (s, kind) = op(seed, base + i);
                st.issue(s, kind)
            },
            trace.map(|(r, parent)| (r, parent, base as u64 + 1)),
        );
        self.failed += res.failed();
        (res, recs)
    }

    /// One pass up the ladder from rung `from` (rate `LADDER_START ×
    /// LADDER_STEP^from`). Returns the highest sustainable rate and the
    /// last passing rung: between the last passing rung and the first
    /// failing one the rate is interpolated where log p50 crosses the limit
    /// (log-log linear), so the estimate is not quantized to whole rungs.
    /// If the first rung fails, the pass walks down the ladder instead.
    fn ladder_pass(
        &mut self,
        conns: &mut [ConnState],
        from: i32,
        log: &mut Vec<String>,
    ) -> (f64, i32) {
        let rate_of = |k: i32| LADDER_START * LADDER_STEP.powi(k);
        let mut rung = |sched: &mut Self, k: i32| -> (bool, f64) {
            let rate = rate_of(k);
            let ops = ((rate * RUNG_SECS) as usize).max(RUNG_MIN_OPS);
            let (res, _) = sched.phase(conns, ops, Some(rate), None);
            let p50 = res.latency_us(0.5);
            let late = res.end_late_ns as f64 / 1e3;
            let pass = res.failed() == 0 && p50 <= P50_LIMIT_US;
            log.push(format!(
                "{rate:.0}:{p50:.0}/{:.0}/{late:.0}us{}",
                res.latency_us(0.99),
                if pass { "" } else { "!" }
            ));
            (pass, p50)
        };
        let (ok, p50) = rung(self, from);
        let ((k0, p0), (k1, p1)) = if ok {
            let mut lo = (from, p50);
            let mut k = from;
            loop {
                k += 1;
                let (ok, p50) = rung(self, k);
                if !ok {
                    break (lo, (k, p50));
                }
                lo = (k, p50);
                if rate_of(k) > 1e6 {
                    // (unreachable in practice: the generator falls behind first)
                    return (rate_of(k), k);
                }
            }
        } else {
            let mut hi = (from, p50);
            let mut k = from;
            loop {
                k -= 1;
                let (ok, p50) = rung(self, k);
                if ok || rate_of(k) < 100.0 {
                    break ((k, p50), hi);
                }
                hi = (k, p50);
            }
        };
        let (r0, r1) = (rate_of(k0), rate_of(k1));
        let limit = if p1 > P50_LIMIT_US && p0 > 0.0 && p0 < P50_LIMIT_US && p1.is_finite() {
            let f = (P50_LIMIT_US.ln() - p0.ln()) / (p1.ln() - p0.ln());
            (r0.ln() + f * (r1.ln() - r0.ln())).exp()
        } else {
            r0
        };
        (limit, k0)
    }
}

/// Replays the first `issued` ops of the schedule through an in-process
/// `SessionManager` on identical sessions: each session's final `t` and
/// step-body digest, and each op's in-process duration.
struct Replay {
    next_t: [u64; SESSIONS],
    digest: [Fnv; SESSIONS],
    op_ns: Vec<(Kind, u64)>,
}

fn replay(opts: &Opts, issued: usize) -> Result<Replay, String> {
    let dir = opts.dir.join("replay");
    std::fs::create_dir_all(&dir).map_err(|e| format!("replay dir: {e}"))?;
    let mgr = SessionManager::new(SESSIONS + 1);
    for i in 0..SESSIONS {
        let cfg = SessionConfig::parse(
            &opts.session_args(i, &dir.join(format!("s{i}.json"))),
            &format!("s{i}"),
        )?;
        mgr.create(&format!("s{i}"), cfg)
            .map_err(|e| format!("replay create s{i}: {e}"))?;
    }
    let mut out = Replay {
        next_t: [0; SESSIONS],
        digest: [Fnv::default(); SESSIONS],
        op_ns: Vec::with_capacity(issued),
    };
    let names: Vec<String> = (0..SESSIONS).map(|i| format!("s{i}")).collect();
    for gi in 0..issued {
        let (s, kind) = op(opts.seed, gi);
        let t0 = Instant::now();
        let value = match kind {
            Kind::Step => mgr.step(&names[s], ""),
            Kind::Batch => mgr.step(&names[s], "{\"n\":16}"),
            Kind::Placement => mgr.placement(&names[s]),
        }
        .map_err(|e| format!("replay op {gi}: {e}"))?;
        let body = value.render();
        out.op_ns.push((kind, t0.elapsed().as_nanos() as u64));
        match kind {
            Kind::Step => out.next_t[s] += 1,
            Kind::Batch => out.next_t[s] += BATCH_ROUNDS,
            Kind::Placement => continue,
        }
        out.digest[s].push(body.as_bytes());
    }
    mgr.shutdown_all();
    Ok(out)
}

fn hex(d: &[Fnv]) -> String {
    let mut all = Fnv::default();
    for x in d {
        all.push(&x.0.to_le_bytes());
    }
    format!("{:016x}", all.0)
}

/// What a serve run reports.
pub struct Outcomes {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    pub info: Vec<(String, String)>,
}

/// Compares the run against the in-process replay; every op of a session
/// whose digest or final `t` differs counts as failed.
fn check_replay(
    opts: &Opts,
    sched: &Schedule,
    conns: &[ConnState],
    info: &mut Vec<(String, String)>,
) -> (u64, Option<Replay>) {
    match replay(opts, sched.issued) {
        Ok(rep) => {
            let mut bad_ops = 0u64;
            let mut served = [Fnv::default(); SESSIONS];
            for s in 0..SESSIONS {
                let st = &conns[s % CONNECTIONS];
                served[s] = st.digest[s];
                if st.digest[s] != rep.digest[s] || st.next_t[s] != rep.next_t[s] {
                    bad_ops += (0..sched.issued)
                        .filter(|&i| op(opts.seed, i).0 == s)
                        .count() as u64;
                }
            }
            info.push(("served_digest".into(), hex(&served)));
            info.push(("replay_digest".into(), hex(&rep.digest)));
            (bad_ops, Some(rep))
        }
        Err(e) => {
            info.push(("replay_error".into(), e));
            (sched.issued as u64, None)
        }
    }
}

fn fresh_conns(addr: &str) -> Vec<ConnState> {
    (0..CONNECTIONS).map(|_| ConnState::new(addr)).collect()
}

fn carry(from: &[ConnState], to: &mut [ConnState]) {
    for (f, t) in from.iter().zip(to.iter_mut()) {
        t.next_t = f.next_t;
        t.digest = f.digest;
    }
}

/// The untraced run: end-to-end metrics. `WINDOWS` rounds of (set-up
/// samples, closed-loop blocks, light window, heavy window), every second
/// round ending with a ladder pass. Everything but the set-up samples
/// runs with the cores kept [`Warm`].
pub fn run(opts: &Opts) -> Result<Outcomes, String> {
    let mut setups = Vec::new();
    let (cluster, secs) = setup(opts, 0)?;
    setups.push(secs);
    let mut conns = fresh_conns(cluster.target());
    let mut sched = Schedule {
        seed: opts.seed,
        issued: 0,
        failed: 0,
    };
    let mut info = Vec::new();
    let (mut blocks, mut block_cpu) = (Vec::new(), Vec::new());
    let mut light = PhaseResult::default();
    let mut heavy = PhaseResult::default();
    let (mut light_p50, mut heavy_p50, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut prefix_digest = String::new();
    let mut ladder_log = Vec::new();
    let mut first_top = None;
    for w in 0..WINDOWS {
        for k in 0..SETUPS_PER_WINDOW {
            let (extra, secs) = setup(opts, 1 + w * SETUPS_PER_WINDOW + k)?;
            setups.push(secs);
            drop(extra); // killed: a graceful shutdown takes ~0.1 s
        }
        let _warm = Warm::start();
        for _ in 0..CLOSED_BLOCKS {
            let cpu0 = cluster.cpu_ns();
            let (res, _) = sched.phase(&mut conns, CLOSED_OPS, None, None);
            block_cpu.push(cluster.cpu_ns().saturating_sub(cpu0) as f64 / 1e9);
            blocks.push(res.wall_ns as f64 / 1e9);
        }
        let (res, _) = sched.phase(&mut conns, opts.light_ops(), Some(LIGHT_RPS), None);
        light_p50.push(res.latency_us(0.5));
        light.absorb(&res);
        let (res, _) = sched.phase(&mut conns, opts.heavy_ops(), Some(HEAVY_RPS), None);
        heavy_p50.push(res.latency_us(0.5));
        heavy.absorb(&res);
        if w == 0 {
            // Everything so far has a fixed length, so this digest is the
            // same for serve_direct and serve_routed at one seed.
            prefix_digest = hex(&std::array::from_fn::<Fnv, SESSIONS, _>(|s| {
                conns[s % CONNECTIONS].digest[s]
            }));
        }
        if w % 2 == 1 && rates.len() < LADDER_PASSES {
            let mut log = Vec::new();
            let from = first_top.map_or(0, |k: i32| (k - LADDER_BACKOFF).max(0));
            let (limit, top) = sched.ladder_pass(&mut conns, from, &mut log);
            first_top.get_or_insert(top);
            rates.push(limit);
            ladder_log.push(format!(
                "{:.0} [{}]",
                rates.last().expect("pushed"),
                log.join(" ")
            ));
        }
    }
    let rss_kb: u64 = cluster.daemons().map(|d| d.proc_status("VmHWM:")).sum();
    for c in conns.iter_mut() {
        c.conn = None;
    }
    cluster.shutdown();
    let (bad, _) = check_replay(opts, &sched, &conns, &mut info);
    info.push(("prefix_digest".into(), prefix_digest));
    info.push(("ladder".into(), ladder_log.join("; ")));
    info.push((
        "late_us_p99".into(),
        format!(
            "light {:.0}, heavy {:.0}",
            light.late_us(0.99),
            heavy.late_us(0.99)
        ),
    ));
    info.push((
        "late_us_p50".into(),
        format!(
            "light {:.1}, heavy {:.1}",
            light.late_us(0.5),
            heavy.late_us(0.5)
        ),
    ));
    // Latency at the fixed rates, reported but not bounded: on the 2-vCPU
    // shared virtual machine the benchmark was calibrated on, the host's
    // wake-up latency spread these medians over ten runs by up to 0.27 of
    // their value (quartile distance over median; a loopback echo round
    // trip measured alongside ranged 14–74 µs from one 0.5 s window to the
    // next), past the bound a regression check needs. The tail moves more
    // still (see `P50_LIMIT_US`).
    info.push((
        "req_p50_us.light".into(),
        format!("{:.3}", light.latency_us(0.5)),
    ));
    info.push((
        "req_p50_us.heavy".into(),
        format!("{:.3}", heavy.latency_us(0.5)),
    ));
    info.push((
        "req_p99_us.light".into(),
        format!("{:.1}", light.latency_us(0.99)),
    ));
    info.push((
        "req_p99_us.heavy".into(),
        format!("{:.1}", heavy.latency_us(0.99)),
    ));
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.6}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    info.push(("window_p50_us.light".into(), list(&light_p50)));
    info.push(("window_p50_us.heavy".into(), list(&heavy_p50)));
    // Wall time of the closed-loop blocks, reported but not bounded: it
    // moves with the host's load (see `run_cpu_s`).
    info.push(("run_s".into(), format!("{:.6}", median(&blocks))));
    info.push(("closed_block_s".into(), list(&blocks)));
    info.push(("closed_block_cpu_s".into(), list(&block_cpu)));
    info.push(("ladder_limits_rps".into(), list(&rates)));
    info.push(("setup_samples_s".into(), list(&setups)));

    let mut m = Metrics::default();
    m.secs("setup_s", median(&setups));
    m.secs("run_cpu_s", median(&block_cpu));
    m.set("peak_rss_mb", rss_kb as f64 / 1024.0, "MB");
    m.set("max_rate_rps", median(&rates), "1/s");
    Ok(Outcomes {
        attempted: sched.issued as u64,
        failed: (sched.failed + bad).min(sched.issued as u64),
        metrics: m,
        info,
    })
}

/// The traced run: one set-up, the light phase untraced and with
/// per-request spans, the heavy phase (plus, routed, the light rate
/// straight to the worker),
/// the in-process replay, the session cell driven through `SimSession`,
/// and the JSON layer timed on the recorded step bodies. Returns the serve
/// layers' metrics.
pub fn traced(
    opts: &Opts,
    rec: &mut Recorder,
    root: u64,
    stats: &mut DecideStats,
) -> Result<Outcomes, String> {
    let mut info = Vec::new();
    let mut m = Metrics::default();
    let m = &mut m;
    let id = rec.begin("daemon.setup", root, 0);
    let (cluster, _) = setup(opts, 0)?;
    rec.end(id);
    let warm = Warm::start();
    let mut conns = fresh_conns(cluster.target());
    let mut sched = Schedule {
        seed: opts.seed,
        issued: 0,
        failed: 0,
    };
    // The light phase untraced, traced, traced and untraced again (routed,
    // with a pass straight to the worker inside each untraced one), so that
    // a drift through the run (caches warming, the host's load) cancels out
    // of the tracing overhead and the router hop.
    #[derive(Clone, Copy, PartialEq)]
    enum Pass {
        Plain,
        Traced,
        Direct,
    }
    let order: &[Pass] = match opts.mode {
        Mode::Direct => &[Pass::Plain, Pass::Traced, Pass::Traced, Pass::Plain],
        Mode::Routed => &[
            Pass::Plain,
            Pass::Direct,
            Pass::Traced,
            Pass::Traced,
            Pass::Direct,
            Pass::Plain,
        ],
    };
    let mut plain = PhaseResult::default();
    let mut light = PhaseResult::default();
    let mut direct = PhaseResult::default();
    // the ops of the passes the front end is measured on
    let mut base_ops = Vec::new();
    let base = if opts.mode == Mode::Routed {
        Pass::Direct
    } else {
        Pass::Plain
    };
    for &pass in order {
        for c in conns.iter_mut() {
            c.keep_bodies = pass == Pass::Traced;
        }
        let first = sched.issued;
        match pass {
            Pass::Traced => {
                let id = rec.begin("loadgen.phase", root, 0);
                let (res, recs) = sched.phase(
                    &mut conns,
                    opts.light_ops(),
                    Some(LIGHT_RPS),
                    Some((rec, id)),
                );
                rec.end(id);
                for r in recs {
                    rec.merge(r);
                }
                light.absorb(&res);
            }
            Pass::Plain => {
                let id = rec.begin("untraced.light", root, 0);
                let (res, _) = sched.phase(&mut conns, opts.light_ops(), Some(LIGHT_RPS), None);
                rec.end(id);
                plain.absorb(&res);
            }
            Pass::Direct => {
                let id = rec.begin("untraced.light_direct", root, 0);
                let mut direct_conns = fresh_conns(&cluster.worker.addr);
                carry(&conns, &mut direct_conns);
                let (res, _) =
                    sched.phase(&mut direct_conns, opts.light_ops(), Some(LIGHT_RPS), None);
                carry(&direct_conns, &mut conns);
                rec.end(id);
                direct.absorb(&res);
            }
        }
        if pass == base {
            base_ops.extend(first..sched.issued);
        }
    }
    let direct = (opts.mode == Mode::Routed).then_some(direct);
    let id = rec.begin("untraced.heavy", root, 0);
    let (heavy, _) = sched.phase(&mut conns, opts.heavy_ops(), Some(HEAVY_RPS), None);
    rec.end(id);
    m.us("serve.req_p50_us.light", plain.latency_us(0.5));
    m.us("serve.req_p50_us.heavy", heavy.latency_us(0.5));
    m.us("serve.req_p99_us.light", plain.latency_us(0.99));
    m.us("serve.req_p99_us.heavy", heavy.latency_us(0.99));
    m.count(
        "daemon.threads",
        cluster.daemons().map(|d| d.proc_status("Threads:")).sum(),
    );
    m.count("daemon.fds", cluster.daemons().map(|d| d.fds()).sum());
    drop(warm);
    let id = rec.begin("daemon.shutdown", root, 0);
    for c in conns.iter_mut() {
        c.conn = None;
    }
    cluster.shutdown();
    rec.end(id);

    let id = rec.begin("serve.sessions.replay", root, 0);
    let (bad, rep) = check_replay(opts, &sched, &conns, &mut info);
    rec.end(id);
    // In-process op latencies over the ops of the untraced light passes
    // the daemon served itself, set against those passes' HTTP latencies.
    let us = |mut v: Vec<u64>, q: f64| {
        v.sort_unstable();
        percentile(&v, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    };
    if let Some(rep) = &rep {
        let of = |k: Option<Kind>| -> Vec<u64> {
            base_ops
                .iter()
                .map(|&i| rep.op_ns[i])
                .filter(|(kind, _)| k.is_none_or(|k| *kind == k))
                .map(|(_, ns)| ns)
                .collect()
        };
        m.us("serve.sessions.step_us_p50", us(of(Some(Kind::Step)), 0.5));
        m.us("serve.sessions.step_us_p99", us(of(Some(Kind::Step)), 0.99));
        m.us(
            "serve.sessions.placement_us_p50",
            us(of(Some(Kind::Placement)), 0.5),
        );
        let base_p50 = match &direct {
            Some(d) => d.latency_us(0.5),
            None => plain.latency_us(0.5),
        };
        m.us("serve.frontend_us_p50", base_p50 - us(of(None), 0.5));
    }
    match &direct {
        Some(d) => {
            m.us(
                "serve.route.hop_us_p50",
                plain.latency_us(0.5) - d.latency_us(0.5),
            );
            m.us(
                "serve.route.hop_us_p99",
                plain.latency_us(0.99) - d.latency_us(0.99),
            );
        }
        None => {
            info.push((
                "serve.route.hop".into(),
                "0: no router on this workload".into(),
            ));
            m.us("serve.route.hop_us_p50", 0.0);
            m.us("serve.route.hop_us_p99", 0.0);
        }
    }
    m.set(
        "trace.overhead_pct",
        (light.latency_us(0.5) - plain.latency_us(0.5)) / plain.latency_us(0.5) * 100.0,
        "%",
    );
    m.count("loadgen.sent", light.sent());
    m.count("loadgen.ok", light.ok);
    m.count("loadgen.failed_4xx", light.failed_4xx);
    m.count("loadgen.failed_5xx", light.failed_5xx);
    m.count("loadgen.failed_io", light.failed_io + light.invalid);
    m.us("loadgen.late_us_p99", light.late_us(0.99));
    m.count("loadgen.backlog_max", light.backlog_max);

    // SimSession::step on session 0's cell for as many rounds as it played.
    let id = rec.begin("bench.session_cell", root, 0);
    let rounds = conns[0].next_t[0].max(1);
    let args = opts.session_args(0, &opts.dir.join("unused.json"));
    let cell_args: Vec<String> = args
        .into_iter()
        .filter(|a| !a.starts_with("checkpoint="))
        .collect();
    let steps = layers::drive_session_cell(rec, id, &cell_args, rounds, stats);
    rec.end(id);
    m.us("sim.serve_step_us_p50", us(steps, 0.5));

    // The JSON layer on the recorded single-step bodies.
    let id = rec.begin("workload.json", root, 0);
    let bodies: Vec<&Vec<u8>> = conns.iter().flat_map(|c| c.bodies.iter()).collect();
    let mut parse = Vec::with_capacity(bodies.len());
    let mut render = Vec::with_capacity(bodies.len());
    let mut bytes = 0usize;
    for b in &bodies {
        let text = std::str::from_utf8(b).unwrap_or_default();
        bytes += b.len();
        let t0 = Instant::now();
        let v = JsonValue::parse(text);
        parse.push(t0.elapsed().as_nanos() as u64);
        if let Ok(v) = v {
            let t0 = Instant::now();
            std::hint::black_box(v.render());
            render.push(t0.elapsed().as_nanos() as u64);
        }
    }
    rec.end(id);
    m.us("workload.json.parse_us", us(parse, 0.5));
    m.us("workload.json.render_us", us(render, 0.5));
    m.set(
        "workload.json.bytes_per_step",
        bytes as f64 / bodies.len().max(1) as f64,
        "B",
    );
    Ok(Outcomes {
        attempted: sched.issued as u64,
        failed: (sched.failed + bad).min(sched.issued as u64),
        metrics: std::mem::take(m),
        info,
    })
}
