//! Open-loop load generator, free of coordinated omission.
//!
//! Request `i` of a phase is *due* at `start + i / rate` whatever happened
//! to earlier requests, and its latency is timed from that due time, not
//! from when it was sent: a stall that holds up the requests queued behind
//! it is charged to every one of them. How late the generator ran (send
//! time minus due time) and how many due requests it had not yet sent
//! (its backlog) are reported too.
//!
//! Each op is pinned to one of the two connections, so the per-session
//! order the server sees is the schedule's order. One thread drives each
//! connection, one request in flight at a time (HTTP/1.1 without
//! pipelining).

use std::time::{Duration, Instant};

use crate::spans::Recorder;
use crate::stats::percentile;

/// Keeps every core busy with lowest-priority spinning threads while it
/// lives, so that no core halts: on a virtual machine a halted core wakes
/// only after the hypervisor reschedules it, which costs tens to hundreds
/// of microseconds and varies with the host's load. Spinners under
/// `SCHED_IDLE` give way at once to any normal thread that wakes (the
/// user-space counterpart of booting with `idle=poll`).
pub struct Warm {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

const SCHED_IDLE: i32 = 5;

impl Warm {
    pub fn start() -> Warm {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cores)
            .map(|_| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::spawn(move || {
                    let param = SchedParam { priority: 0 };
                    // SAFETY: `param` is a valid, initialized struct that
                    // outlives the call; pid 0 names the calling thread.
                    if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                        return; // no idle policy: do not compete with the daemon
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Warm { stop, threads }
    }
}

impl Drop for Warm {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Connections, and generator threads, the load comes from.
pub const CONNECTIONS: usize = 2;

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Status4xx,
    Status5xx,
    /// Connection error or timeout.
    Io,
    /// 2xx whose body failed verification.
    Invalid,
}

/// What one phase measured.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Due-time latency of every request, ascending; a failed request
    /// counts as `u64::MAX` (it misses any latency limit).
    pub latency_ns: Vec<u64>,
    /// Send time minus due time, ascending.
    pub late_ns: Vec<u64>,
    /// Largest number of due-but-unsent requests on one connection.
    pub backlog_max: u64,
    /// How late the generator ran at the end of the phase: the median
    /// lateness of each connection's last tenth of requests (the larger
    /// of the two). It stays near zero unless the backlog grew.
    pub end_late_ns: u64,
    pub ok: u64,
    pub failed_4xx: u64,
    pub failed_5xx: u64,
    pub failed_io: u64,
    pub invalid: u64,
    pub wall_ns: u64,
}

impl PhaseResult {
    pub fn sent(&self) -> u64 {
        self.latency_ns.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed_4xx + self.failed_5xx + self.failed_io + self.invalid
    }

    /// Latency percentile in microseconds (failed requests rank last).
    pub fn latency_us(&self, q: f64) -> f64 {
        match percentile(&self.latency_ns, q) {
            Some(u64::MAX) => f64::INFINITY,
            Some(ns) => ns as f64 / 1e3,
            None => f64::NAN,
        }
    }

    pub fn late_us(&self, q: f64) -> f64 {
        percentile(&self.late_ns, q).map_or(f64::NAN, |ns| ns as f64 / 1e3)
    }

    /// Folds another phase's counts and samples into this one.
    pub fn absorb(&mut self, other: &PhaseResult) {
        self.latency_ns.extend_from_slice(&other.latency_ns);
        self.latency_ns.sort_unstable();
        self.late_ns.extend_from_slice(&other.late_ns);
        self.late_ns.sort_unstable();
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.end_late_ns = self.end_late_ns.max(other.end_late_ns);
        self.ok += other.ok;
        self.failed_4xx += other.failed_4xx;
        self.failed_5xx += other.failed_5xx;
        self.failed_io += other.failed_io;
        self.invalid += other.invalid;
        self.wall_ns += other.wall_ns;
    }
}

/// Sleeps until `t`, spinning for the last stretch: the OS oversleeps by
/// tens of microseconds, which would show up as latency. The spin is kept
/// short because the generator shares the machine's cores with the
/// daemon it measures.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(80));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Issues ops `0..n` of a phase. `conn_of(i)` pins op `i` to a connection
/// (`< CONNECTIONS`); `issue(state, i)` sends it over that connection's
/// `state`, verifies the reply and returns how it ended plus when the
/// response arrived. `rate` is in requests per second; `None` sends each
/// connection's next op as soon as its previous one completed (a closed
/// loop). With `trace`, every request leaves a `loadgen.request` span
/// (parent `parent`) with `loadgen.wait`, `http.roundtrip` and
/// `bench.verify` children sharing its request id `req_base + i`. The
/// span starts at the due time, or when the connection's previous request
/// ended if that was later, so that the spans of one connection never
/// overlap and their self times add up to the time they cover; the
/// due-time latency itself is in the phase's result.
#[allow(clippy::too_many_arguments)]
pub fn run_phase<C: Send>(
    conns: &mut [C],
    n: usize,
    conn_of: impl Fn(usize) -> usize + Sync,
    rate: Option<f64>,
    issue: impl Fn(&mut C, usize) -> (Outcome, Instant) + Sync,
    trace: Option<(&Recorder, u64, u64)>,
) -> (PhaseResult, Vec<Recorder>) {
    assert_eq!(conns.len(), CONNECTIONS);
    // Start a little in the future so both threads see the same origin.
    let start = Instant::now() + Duration::from_millis(2);
    let due_of = |i: usize| match rate {
        Some(r) => start + Duration::from_secs_f64(i as f64 / r),
        None => start,
    };
    let per_thread: Vec<(PhaseResult, Option<Recorder>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, state)| {
                let conn_of = &conn_of;
                let issue = &issue;
                let due_of = &due_of;
                scope.spawn(move || {
                    let mine: Vec<usize> = (0..n).filter(|&i| conn_of(i) == k).collect();
                    let dues: Vec<Instant> = mine.iter().map(|&i| due_of(i)).collect();
                    let mut rec = trace.map(|(r, _, _)| r.fork());
                    let mut res = PhaseResult::default();
                    let mut lates = Vec::with_capacity(mine.len());
                    let mut prev_done = start;
                    wait_until(start);
                    for (j, &i) in mine.iter().enumerate() {
                        let due = match rate {
                            Some(_) => {
                                wait_until(dues[j]);
                                dues[j]
                            }
                            None => Instant::now(),
                        };
                        let sent = Instant::now();
                        if rate.is_some() {
                            let due_now = dues.partition_point(|d| *d <= sent);
                            res.backlog_max = res.backlog_max.max((due_now - j) as u64);
                        }
                        let (outcome, received) = issue(state, i);
                        let done = Instant::now();
                        let late = (sent - due).as_nanos() as u64;
                        lates.push(late);
                        res.latency_ns.push(match outcome {
                            Outcome::Ok => (received - due).as_nanos() as u64,
                            _ => u64::MAX,
                        });
                        match outcome {
                            Outcome::Ok => res.ok += 1,
                            Outcome::Status4xx => res.failed_4xx += 1,
                            Outcome::Status5xx => res.failed_5xx += 1,
                            Outcome::Io => res.failed_io += 1,
                            Outcome::Invalid => res.invalid += 1,
                        }
                        if let (Some(rec), Some((_, parent, req_base))) = (rec.as_mut(), trace) {
                            let req = req_base + i as u64;
                            let (d, s, r, e) = (
                                rec.at(due.max(prev_done)),
                                rec.at(sent),
                                rec.at(received),
                                rec.at(done),
                            );
                            let id = rec.record("loadgen.request", parent, req, d, e);
                            rec.record("loadgen.wait", id, req, d, s);
                            rec.record("http.roundtrip", id, req, s, r);
                            rec.record("bench.verify", id, req, r, e);
                        }
                        prev_done = done;
                    }
                    let mut tail = lates[lates.len() - lates.len() / 10..].to_vec();
                    tail.sort_unstable();
                    res.end_late_ns = tail.get(tail.len() / 2).copied().unwrap_or(0);
                    res.late_ns = lates;
                    (res, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let mut total = PhaseResult::default();
    let mut recorders = Vec::new();
    for (res, rec) in per_thread {
        total.absorb(&res);
        recorders.extend(rec);
    }
    total.wall_ns = start.elapsed().as_nanos() as u64;
    (total, recorders)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Conn;
    use std::io::{Read, Write};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// A keep-alive stub server answering every request with `200 {}`,
    /// except that the first request it sees stalls for `stall`.
    fn stub_server(stall: Duration) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stalled = Arc::new(AtomicBool::new(false));
        let handle = std::thread::spawn(move || {
            let mut workers = Vec::new();
            for _ in 0..CONNECTIONS {
                let (mut s, _) = listener.accept().expect("accept");
                let stalled = Arc::clone(&stalled);
                workers.push(std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    loop {
                        while let Some(i) = buf.windows(4).position(|w: &[u8]| w == b"\r\n\r\n") {
                            buf.drain(..i + 4); // requests carry no body
                            if !stalled.swap(true, Ordering::SeqCst) {
                                std::thread::sleep(stall);
                            }
                            let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
                            if s.write_all(resp).is_err() {
                                return;
                            }
                        }
                        match s.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                }));
            }
            for w in workers {
                w.join().expect("stub worker");
            }
        });
        (addr, handle)
    }

    #[test]
    fn a_single_stall_reaches_the_tail_and_the_lateness() {
        let (addr, server) = stub_server(Duration::from_millis(50));
        let mut conns: Vec<Conn> = (0..CONNECTIONS)
            .map(|_| Conn::connect(&addr).expect("connect stub"))
            .collect();
        // 1000 req/s for 0.2 s, 2 ms apart on each connection: the ~24
        // requests due on the stalled connection during the 50 ms stall are
        // charged the rest of it from their due times, so the 1% tail is
        // stall-sized. A generator timing from send times (coordinated
        // omission) would see one slow request out of 200, and a fast p99.
        let (res, _) = run_phase(
            &mut conns,
            200,
            |i| i % CONNECTIONS,
            Some(1000.0),
            |c: &mut Conn, _| {
                let out = match c.request("GET", "/", b"") {
                    Ok((200, _)) => Outcome::Ok,
                    Ok(_) => Outcome::Status5xx,
                    Err(_) => Outcome::Io,
                };
                (out, Instant::now())
            },
            None,
        );
        drop(conns);
        server.join().expect("stub server");
        assert_eq!(res.ok, 200);
        assert!(
            res.latency_us(1.0) > 50_000.0,
            "max {} us",
            res.latency_us(1.0)
        );
        assert!(
            res.latency_us(0.99) > 40_000.0,
            "p99 {} us",
            res.latency_us(0.99)
        );
        // the request due 2 ms after the stalled one went out ~48 ms late
        assert!(
            res.late_us(0.99) > 40_000.0,
            "late p99 {} us",
            res.late_us(0.99)
        );
        assert!(res.backlog_max > 10, "backlog {}", res.backlog_max);
        // the median request was unaffected
        assert!(
            res.latency_us(0.5) < 10_000.0,
            "p50 {} us",
            res.latency_us(0.5)
        );
    }
}
