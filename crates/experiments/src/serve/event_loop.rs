//! The nonblocking epoll front end of both daemons: a small fixed pool of
//! reactor threads owns every client connection, parses requests
//! incrementally off readiness events, and hands complete requests to a
//! worker pool that runs the daemon's handler on them. `flexserve serve`
//! passes its session dispatch (`handlers::process_request`),
//! `flexserve route` its proxy dispatch; everything else — framing,
//! keep-alive, deadlines, draining, SIGTERM — lives here once.
//!
//! The point is the cost model. A front end that parks one thread per
//! connection turns 10k idle keep-alive clients into 10k blocked threads
//! (or, with a bounded pool, a starved daemon: as few idle clients as
//! the pool has threads stall everyone else for the whole keep-alive
//! window). Under the reactor an idle connection costs one file
//! descriptor and ~100 bytes of table state: the reactor threads
//! multiplex *all* connections through `epoll_wait`, and only
//! connections with a complete request in hand occupy a worker.
//!
//! Like the mmap shim in `flexserve_workload::packed`, the epoll plumbing
//! is a hand-rolled `extern "C"` shim over raw syscalls
//! (`epoll_create1` / `epoll_ctl` / `epoll_wait`, `pipe2` for cross-thread
//! wakeups, `setrlimit` to lift the fd soft cap, `signal` for SIGTERM) —
//! no new dependencies. The daemons are Linux-only: elsewhere
//! [`run_front_end`] refuses to start.
//!
//! Division of labor per connection:
//!
//! ```text
//!  accept loop ──round robin──▶ reactor: epoll_wait ──▶ read, buffer,
//!                                        try_parse_request (incremental)
//!                                │ complete request
//!                                ▼
//!                        worker pool: handler (serve or route dispatch),
//!                        render_response, write on the connection
//!                                │ Done / Flush{rest}
//!                                ▼
//!                        reactor: finish partial writes (EPOLLOUT),
//!                        re-arm EPOLLIN, sweep idle/stalled deadlines
//! ```
//!
//! A connection is in exactly one of three states: `Reading` (reactor
//! owns it, EPOLLIN armed), `Busy` (a worker owns it, nothing armed so
//! a flooding client cannot buffer unboundedly), or `Writing` (reactor
//! drains a response the worker could not finish, EPOLLOUT armed).
//! Registrations are one-shot, so the readiness event that completes a
//! request also parks its connection; a worker that writes a keep-alive
//! response in full re-arms it itself and tells the reactor without
//! waking it. A request therefore costs the reactor one wakeup.
//! A connection that has never completed a request gets the daemon's
//! `request-timeout=`, an idle keep-alive connection gets
//! `KEEP_ALIVE_IDLE`; expiry with a half-read request answers 408 and
//! closes, expiry with an empty buffer closes quietly. A handler that
//! panics answers 500 and closes its connection; its worker survives.

use std::sync::atomic::AtomicBool;
use std::time::Duration;

#[cfg(target_os = "linux")]
pub use linux::raise_nofile_limit;
#[cfg(target_os = "linux")]
pub(crate) use linux::run_front_end;

/// What a daemon hands its front end besides the listener and the
/// handler.
pub(crate) struct FrontEnd<'a> {
    /// The daemon's name (`serve`, `route`): names threads and prefixes
    /// log lines.
    pub(crate) daemon: &'static str,
    /// Threads running the handler on complete requests.
    pub(crate) workers: usize,
    /// Reactor threads multiplexing the connections.
    pub(crate) reactors: usize,
    /// How long a client may take to deliver its first request (a
    /// stalled one gets 408) or to drain a response.
    pub(crate) request_timeout: Duration,
    /// The daemon's shutdown flag: set by a handler's shutdown outcome
    /// or by SIGTERM, watched by the daemon's own background threads.
    pub(crate) shutdown: &'a AtomicBool,
}

#[cfg(target_os = "linux")]
mod linux {
    use std::collections::HashMap;
    use std::io::{Read, Write};
    use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc, Mutex};
    use std::time::{Duration, Instant};

    use super::super::http::{
        error_json, render_response, try_parse_request, HttpError, HttpRequest, Outcome,
    };
    use super::FrontEnd;

    /// Raw syscall shims (same vendoring philosophy as the mmap shim in
    /// `flexserve_workload::packed`): just the epoll, pipe, rlimit and
    /// signal surface the front end needs, against the platform libc the
    /// binary already links.
    mod sys {
        use std::ffi::c_void;

        pub const EPOLLIN: u32 = 0x1;
        pub const EPOLLOUT: u32 = 0x4;
        pub const EPOLLERR: u32 = 0x8;
        pub const EPOLLHUP: u32 = 0x10;
        pub const EPOLLONESHOT: u32 = 1 << 30;
        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;
        const EPOLL_CLOEXEC: i32 = 0o2000000;
        const O_NONBLOCK: i32 = 0o4000;
        const O_CLOEXEC: i32 = 0o2000000;
        const RLIMIT_NOFILE: i32 = 7;
        const SIGTERM: i32 = 15;

        /// The kernel's `struct epoll_event`; packed on x86 so the
        /// 64-bit data member sits at offset 4, matching the ABI.
        #[repr(C)]
        #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(packed))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn pipe2(fds: *mut i32, flags: i32) -> i32;
            fn read(fd: i32, buf: *mut c_void, count: usize) -> isize;
            fn write(fd: i32, buf: *const c_void, count: usize) -> isize;
            fn close(fd: i32) -> i32;
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }

        pub fn create() -> std::io::Result<i32> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(fd)
        }

        pub fn ctl(epfd: i32, op: i32, fd: i32, events: u32, data: u64) -> std::io::Result<()> {
            let mut ev = EpollEvent { events, data };
            let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(())
        }

        pub fn wait(
            epfd: i32,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> std::io::Result<usize> {
            let n =
                unsafe { epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms) };
            if n < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok(n as usize)
        }

        /// A nonblocking self-pipe: `(read_end, write_end)`.
        pub fn wake_pipe() -> std::io::Result<(i32, i32)> {
            let mut fds = [0i32; 2];
            let rc = unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) };
            if rc < 0 {
                return Err(std::io::Error::last_os_error());
            }
            Ok((fds[0], fds[1]))
        }

        /// One byte down the wake pipe; a full pipe means a wakeup is
        /// already pending, so failures are ignored.
        pub fn poke(fd: i32) {
            let byte = [1u8];
            let _ = unsafe { write(fd, byte.as_ptr() as *const c_void, 1) };
        }

        /// Drains every pending wake byte.
        pub fn drain(fd: i32) {
            let mut buf = [0u8; 256];
            while unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, buf.len()) } > 0 {}
        }

        pub fn close_fd(fd: i32) {
            let _ = unsafe { close(fd) };
        }

        /// Lifts the `RLIMIT_NOFILE` soft limit to the hard limit and
        /// returns the resulting soft limit (connections cost fds under
        /// the reactor, so the default 1024 would cap the daemon long
        /// before memory does).
        pub fn raise_nofile() -> u64 {
            let mut lim = RLimit { cur: 0, max: 0 };
            if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
                return 0;
            }
            if lim.cur < lim.max {
                let want = RLimit {
                    cur: lim.max,
                    max: lim.max,
                };
                if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
                    return want.cur;
                }
            }
            lim.cur
        }

        /// Routes SIGTERM to `handler`.
        pub fn on_sigterm(handler: extern "C" fn(i32)) {
            // SAFETY: `handler` only stores to an atomic, which is
            // async-signal-safe.
            unsafe {
                signal(SIGTERM, handler);
            }
        }
    }

    /// SIGTERM handling: the signal handler only flips a flag (the whole
    /// async-signal-safe budget); the front end's watcher thread turns
    /// the flag into the same graceful shutdown as `POST /shutdown`.
    mod sigterm {
        use std::sync::atomic::{AtomicBool, Ordering};

        static TERM: AtomicBool = AtomicBool::new(false);

        extern "C" fn on_term(_signum: i32) {
            TERM.store(true, Ordering::SeqCst);
        }

        /// Installs the handler and clears any flag left by a previous
        /// daemon in this process (tests run several daemon lifecycles
        /// per binary).
        pub(super) fn install() {
            TERM.store(false, Ordering::SeqCst);
            super::sys::on_sigterm(on_term);
        }

        /// True once SIGTERM has been received.
        pub(super) fn pending() -> bool {
            TERM.load(Ordering::SeqCst)
        }
    }

    /// Lifts this process's fd soft limit (`RLIMIT_NOFILE`) to its hard
    /// limit and returns the new soft limit. Exposed for the soak tests
    /// and benches whose *clients* also hold 10k sockets.
    pub fn raise_nofile_limit() -> u64 {
        sys::raise_nofile()
    }

    /// How long a persistent connection may sit idle between requests
    /// before the front end closes it. Short on purpose: an idle
    /// connection still costs a file descriptor and a reactor-table slot.
    const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(10);
    /// The epoll token of the wake pipe (connection ids start at 0 and
    /// count up, so the maximum is free).
    const WAKE_TOKEN: u64 = u64::MAX;
    /// How long `epoll_wait` may sleep between deadline sweeps.
    const TICK_MS: i32 = 100;
    /// Stop pulling bytes off a connection once this much is buffered
    /// unparsed; the re-armed entry resumes the read (the HTTP caps bound
    /// any *single* request much earlier — this bounds a pipelined
    /// flood, which stays parked while its first request is served).
    const READ_HIGH_WATER: usize = 1024 * 1024;
    /// How long a shutting-down reactor waits for in-flight responses
    /// before force-closing what's left.
    const SHUTDOWN_GRACE: Duration = Duration::from_secs(30);

    /// A complete request handed from a reactor to the worker pool. The
    /// worker computes and writes the response on its own dup of the
    /// stream, then posts [`Msg::Done`] (or [`Msg::Flush`] with the
    /// unwritten tail) back to the owning reactor — or, in the common
    /// keep-alive case, re-arms the connection itself and posts
    /// [`Msg::Rearmed`].
    struct Job {
        reactor: usize,
        conn: u64,
        /// The reactor's fd for the connection: its epoll registration.
        fd: i32,
        stream: TcpStream,
        request: HttpRequest,
        /// Bytes past this request are buffered, or the peer half-closed:
        /// the reactor has work the moment the response is out, so it
        /// must be woken rather than wait for the next readiness event.
        wake: bool,
    }

    /// Cross-thread mail for one reactor: new connections from the
    /// accept loop, completions from the workers.
    enum Msg {
        Conn(TcpStream),
        /// The response is out; close the connection or read on.
        Done {
            conn: u64,
            keep_alive: bool,
        },
        /// The response is out and the worker re-armed EPOLLIN itself.
        /// Posted without a wake: the reactor takes its mailbox before
        /// every event batch, so the connection's next readiness event
        /// (or the next tick) brings it in — one wakeup per request
        /// instead of two.
        Rearmed {
            conn: u64,
        },
        /// The worker could not write `rest` without blocking.
        Flush {
            conn: u64,
            rest: Vec<u8>,
            keep_alive: bool,
        },
    }

    /// The half of a reactor other threads may touch: the mailbox, the
    /// write end of its wake pipe and its epoll instance (both closed
    /// when the last clone drops, i.e. after the workers are joined).
    struct ReactorHandle {
        inbox: Mutex<Vec<Msg>>,
        wake_w: i32,
        epfd: i32,
    }

    impl ReactorHandle {
        fn send(&self, msg: Msg) {
            self.inbox.lock().unwrap().push(msg);
            sys::poke(self.wake_w);
        }

        fn wake(&self) {
            sys::poke(self.wake_w);
        }

        /// Hands a written-out keep-alive connection back for reading:
        /// mail first, then the re-arm, so the readiness event the re-arm
        /// allows always finds the mail already there.
        fn rearm(&self, conn: u64, fd: i32) {
            self.inbox
                .lock()
                .expect("reactor mailbox poisoned")
                .push(Msg::Rearmed { conn });
            // A failure (the reactor dropped the fd on a hangup) is
            // repaired when the reactor takes the mail.
            let events = sys::EPOLLIN | sys::EPOLLONESHOT;
            let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_MOD, fd, events, conn);
        }
    }

    impl Drop for ReactorHandle {
        fn drop(&mut self) {
            sys::close_fd(self.wake_w);
            sys::close_fd(self.epfd);
        }
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum State {
        /// The reactor is accumulating request bytes (EPOLLIN armed).
        Reading,
        /// A worker owns the connection; nothing armed.
        Busy,
        /// The reactor is draining response bytes (EPOLLOUT armed).
        Writing,
    }

    /// Per-connection state: ~100 bytes plus whatever is buffered, which
    /// is the whole cost of an idle keep-alive client.
    struct Conn {
        stream: TcpStream,
        /// Received-but-unparsed bytes.
        buf: Vec<u8>,
        /// Response bytes the worker could not write without blocking.
        out: Vec<u8>,
        out_pos: usize,
        state: State,
        /// Whether any request has completed on this connection — picks
        /// between the first-request timeout and the keep-alive window.
        served_any: bool,
        /// The peer half-closed; serve what is buffered, then close.
        peer_eof: bool,
        close_after_write: bool,
        /// Whether the fd is currently in the epoll set.
        registered: bool,
        /// Last byte received or response finished; deadlines key off it.
        last: Instant,
    }

    struct Reactor<'a> {
        daemon: &'static str,
        index: usize,
        epfd: i32,
        wake_r: i32,
        handle: Arc<ReactorHandle>,
        conns: HashMap<u64, Conn>,
        next_id: u64,
        job_tx: mpsc::Sender<Job>,
        request_timeout: Duration,
        shutdown: &'a AtomicBool,
        /// Last deadline sweep; the sweep walks every connection, so it
        /// runs at most once per tick rather than on every wakeup (a busy
        /// reactor holding 10k idle connections would otherwise pay an
        /// O(connections) scan per request).
        last_sweep: Instant,
    }

    impl Drop for Reactor<'_> {
        fn drop(&mut self) {
            sys::close_fd(self.wake_r);
        }
    }

    /// The 408/413/400 response the reactor itself originates; it always
    /// closes the connection.
    fn error_response(e: &HttpError) -> Vec<u8> {
        render_response(e.status(), &error_json(&e.message()), false)
    }

    impl<'a> Reactor<'a> {
        fn new(
            index: usize,
            job_tx: mpsc::Sender<Job>,
            front_end: &FrontEnd<'a>,
        ) -> Result<(Arc<ReactorHandle>, Reactor<'a>), String> {
            let daemon = front_end.daemon;
            let epfd = sys::create().map_err(|e| format!("{daemon}: epoll_create1: {e}"))?;
            let (wake_r, wake_w) = match sys::wake_pipe() {
                Ok(p) => p,
                Err(e) => {
                    sys::close_fd(epfd);
                    return Err(format!("{daemon}: pipe2: {e}"));
                }
            };
            if let Err(e) = sys::ctl(epfd, sys::EPOLL_CTL_ADD, wake_r, sys::EPOLLIN, WAKE_TOKEN) {
                sys::close_fd(epfd);
                sys::close_fd(wake_r);
                sys::close_fd(wake_w);
                return Err(format!("{daemon}: epoll_ctl(wake): {e}"));
            }
            let handle = Arc::new(ReactorHandle {
                inbox: Mutex::new(Vec::new()),
                wake_w,
                epfd,
            });
            Ok((
                Arc::clone(&handle),
                Reactor {
                    daemon,
                    index,
                    epfd,
                    wake_r,
                    handle,
                    conns: HashMap::new(),
                    next_id: 0,
                    job_tx,
                    request_timeout: front_end.request_timeout,
                    shutdown: front_end.shutdown,
                    last_sweep: Instant::now(),
                },
            ))
        }

        fn run(mut self) {
            let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 1024];
            let mut shutdown_seen: Option<Instant> = None;
            loop {
                let n = match sys::wait(self.epfd, &mut events, TICK_MS) {
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => 0,
                    Err(e) => {
                        eprintln!("{}: epoll_wait: {e}", self.daemon);
                        break;
                    }
                };
                // Mail first: a re-armed connection's readiness event must
                // find it Reading (see `Msg::Rearmed`).
                self.take_mail();
                for ev in events.iter().take(n) {
                    let ev = *ev; // copy out of the (possibly packed) slot
                    self.handle_event(ev.events, ev.data);
                }
                let now = Instant::now();
                if now.duration_since(self.last_sweep).as_millis() >= TICK_MS as u128 {
                    self.last_sweep = now;
                    self.sweep(now);
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    let started = *shutdown_seen.get_or_insert(now);
                    // Close idle connections outright; in-flight requests
                    // finish (their responses carry `Connection: close`).
                    let idle: Vec<u64> = self
                        .conns
                        .iter()
                        .filter(|(_, c)| c.state == State::Reading)
                        .map(|(&id, _)| id)
                        .collect();
                    for id in idle {
                        self.close(id);
                    }
                    if self.conns.is_empty() || now.duration_since(started) > SHUTDOWN_GRACE {
                        break;
                    }
                }
            }
        }

        fn take_mail(&mut self) {
            let msgs: Vec<Msg> =
                std::mem::take(&mut *self.handle.inbox.lock().expect("reactor mailbox poisoned"));
            for msg in msgs {
                match msg {
                    Msg::Conn(stream) => self.add_conn(stream),
                    Msg::Done { conn, keep_alive } => self.finish_response(conn, keep_alive, false),
                    Msg::Rearmed { conn } => self.finish_response(conn, true, true),
                    Msg::Flush {
                        conn,
                        rest,
                        keep_alive,
                    } => self.start_write(conn, rest, keep_alive),
                }
            }
        }

        fn add_conn(&mut self, stream: TcpStream) {
            let id = self.next_id;
            self.next_id += 1;
            self.conns.insert(
                id,
                Conn {
                    stream,
                    buf: Vec::new(),
                    out: Vec::new(),
                    out_pos: 0,
                    state: State::Reading,
                    served_any: false,
                    peer_eof: false,
                    close_after_write: false,
                    registered: false,
                    last: Instant::now(),
                },
            );
            if !self.set_interest(id, sys::EPOLLIN) {
                self.close(id);
            }
        }

        /// Arms the epoll entry for `id` for one `events` notification.
        /// Every registration is one-shot: the event that hands a request
        /// to a worker also parks the connection, with no syscall of its
        /// own. Returns false when the kernel refuses — the connection is
        /// unusable then.
        fn set_interest(&mut self, id: u64, events: u32) -> bool {
            let Some(conn) = self.conns.get_mut(&id) else {
                return false;
            };
            let fd = conn.stream.as_raw_fd();
            let op = if conn.registered {
                sys::EPOLL_CTL_MOD
            } else {
                sys::EPOLL_CTL_ADD
            };
            match sys::ctl(self.epfd, op, fd, events | sys::EPOLLONESHOT, id) {
                Ok(()) => {
                    conn.registered = true;
                    true
                }
                Err(_) => false,
            }
        }

        fn handle_event(&mut self, bits: u32, token: u64) {
            if token == WAKE_TOKEN {
                // Pipe first, then mailbox: a message posted after the
                // take leaves its wake byte behind for the next
                // `epoll_wait`, so none is ever stranded.
                sys::drain(self.wake_r);
                self.take_mail();
                return;
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // closed earlier in this batch
            };
            if bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                match conn.state {
                    // The worker's write will surface the error; drop the
                    // fd from the set so a repeated HUP can't spin.
                    State::Busy => {
                        let fd = conn.stream.as_raw_fd();
                        let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
                        conn.registered = false;
                    }
                    _ => self.close(token),
                }
                return;
            }
            if bits & sys::EPOLLIN != 0 {
                self.on_readable(token);
            }
            if bits & sys::EPOLLOUT != 0 {
                self.on_writable(token);
            }
        }

        fn on_readable(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.state != State::Reading || conn.peer_eof {
                return;
            }
            let mut chunk = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.buf.extend_from_slice(&chunk[..n]);
                        conn.last = Instant::now();
                        // A short read drained the socket (the re-armed
                        // entry reports anything that arrives later).
                        if n < chunk.len() || conn.buf.len() >= READ_HIGH_WATER {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(id);
                        return;
                    }
                }
            }
            self.read_on(id, false);
        }

        /// Hands a complete buffered request to the workers, or keeps
        /// listening for the rest (re-arming the one-shot entry unless
        /// `armed` says a worker already did).
        fn read_on(&mut self, id: u64, armed: bool) {
            self.try_dispatch(id);
            let Some(conn) = self.conns.get(&id) else {
                return;
            };
            if conn.state != State::Reading {
                return; // dispatched, or answering a framing error
            }
            let armed = armed && conn.registered;
            // Half a request (or none) and a half-closed peer can never
            // complete.
            if conn.peer_eof || (!armed && !self.set_interest(id, sys::EPOLLIN)) {
                self.close(id);
            }
        }

        /// Attempts to cut one complete request off the buffer and hand
        /// it to the workers; on a framing error, queues the error
        /// response (which always closes).
        fn try_dispatch(&mut self, id: u64) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.state != State::Reading {
                return;
            }
            match try_parse_request(&conn.buf) {
                Ok(None) => {}
                Ok(Some((request, consumed))) => {
                    conn.buf.drain(..consumed);
                    let wake = !conn.buf.is_empty() || conn.peer_eof;
                    let fd = conn.stream.as_raw_fd();
                    let stream = match conn.stream.try_clone() {
                        Ok(s) => s,
                        Err(_) => {
                            self.close(id);
                            return;
                        }
                    };
                    conn.state = State::Busy;
                    let job = Job {
                        reactor: self.index,
                        conn: id,
                        fd,
                        stream,
                        request,
                        wake,
                    };
                    // The one-shot event that got us here left the fd
                    // parked until the worker re-arms it.
                    if self.job_tx.send(job).is_err() {
                        // workers are gone: tearing down
                        self.close(id);
                    }
                }
                Err(e) => self.start_write(id, error_response(&e), false),
            }
        }

        /// A response is on the wire in full: close, or go back to
        /// reading (`armed`: a worker already re-armed EPOLLIN).
        fn finish_response(&mut self, id: u64, keep_alive: bool, armed: bool) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.served_any = true;
            if !keep_alive {
                self.close(id);
                return;
            }
            conn.state = State::Reading;
            conn.last = Instant::now();
            // Pipelined bytes may already hold the next request.
            self.read_on(id, armed);
        }

        /// Takes over a response the worker could not finish (or an
        /// error/408 response originated by the reactor itself).
        fn start_write(&mut self, id: u64, bytes: Vec<u8>, keep_alive: bool) {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.out = bytes;
            conn.out_pos = 0;
            conn.state = State::Writing;
            conn.close_after_write = !keep_alive;
            conn.last = Instant::now();
            self.on_writable(id); // the common case completes immediately
        }

        fn on_writable(&mut self, id: u64) {
            loop {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.state != State::Writing {
                    return;
                }
                if conn.out_pos >= conn.out.len() {
                    conn.out = Vec::new();
                    conn.out_pos = 0;
                    let keep_alive = !conn.close_after_write;
                    self.finish_response(id, keep_alive, false);
                    return;
                }
                let pos = conn.out_pos;
                match conn.stream.write(&conn.out[pos..]) {
                    Ok(0) => {
                        self.close(id);
                        return;
                    }
                    Ok(n) => {
                        if let Some(conn) = self.conns.get_mut(&id) {
                            conn.out_pos += n;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.last = Instant::now();
                        if !self.set_interest(id, sys::EPOLLOUT) {
                            self.close(id);
                        }
                        return;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.close(id);
                        return;
                    }
                }
            }
        }

        /// Expires deadlines: stalled mid-request → 408 and close; idle
        /// with nothing buffered → quiet close; a response the peer won't
        /// drain → close.
        fn sweep(&mut self, now: Instant) {
            let mut expired: Vec<(u64, bool)> = Vec::new();
            for (&id, conn) in &self.conns {
                let (limit, stalled_request) = match conn.state {
                    State::Busy => continue, // the worker owns the clock
                    State::Writing => (self.request_timeout, false),
                    State::Reading => {
                        let limit = if conn.served_any {
                            KEEP_ALIVE_IDLE
                        } else {
                            self.request_timeout
                        };
                        (limit, !conn.buf.is_empty())
                    }
                };
                if now.duration_since(conn.last) > limit {
                    expired.push((id, stalled_request));
                }
            }
            for (id, stalled_request) in expired {
                if stalled_request {
                    self.start_write(id, error_response(&HttpError::Timeout), false);
                } else {
                    self.close(id);
                }
            }
        }

        fn close(&mut self, id: u64) {
            if let Some(conn) = self.conns.remove(&id) {
                if conn.registered {
                    let fd = conn.stream.as_raw_fd();
                    let _ = sys::ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, 0, 0);
                }
                // dropping the stream closes the fd
            }
        }
    }

    /// Flags the daemon down and pokes the accept loop awake with a dummy
    /// connection so it observes the flag without waiting for a real
    /// client.
    fn begin_shutdown(shutdown: &AtomicBool, mut addr: SocketAddr) {
        shutdown.store(true, Ordering::SeqCst);
        // A wildcard bind (0.0.0.0 / ::) is not a connectable address.
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
    }

    /// The worker half: pull a complete request, run the daemon's handler
    /// on it, write the response on the worker's dup of the stream, and
    /// post the outcome back to the owning reactor. The response write
    /// happens *here* so a request's client-visible latency never pays a
    /// second reactor hop. A panicking handler is contained: its request
    /// answers 500 and closes, and the worker takes the next job.
    fn worker_loop<H>(
        job_rx: &Mutex<mpsc::Receiver<Job>>,
        handler: &H,
        reactors: &[Arc<ReactorHandle>],
        front_end: &FrontEnd<'_>,
        addr: SocketAddr,
    ) where
        H: Fn(&HttpRequest) -> Outcome + Sync,
    {
        loop {
            let job = { job_rx.lock().unwrap().recv() };
            let Ok(job) = job else {
                break; // reactors are gone
            };
            let handled = catch_unwind(AssertUnwindSafe(|| handler(&job.request)));
            let panicked = handled.is_err();
            let outcome = handled.unwrap_or_else(|_| {
                Outcome::reply(
                    500,
                    error_json("internal error: the request handler panicked"),
                )
            });
            // A daemon going down closes as it answers, so the reactors
            // drain instead of waiting out every keep-alive window; a
            // panicked handler's connection closes too.
            let keep_alive = job.request.keep_alive
                && !panicked
                && !outcome.shutdown
                && !front_end.shutdown.load(Ordering::SeqCst);
            let bytes = render_response(outcome.status, &outcome.body, keep_alive);
            let reactor = &reactors[job.reactor];
            match write_nonblocking(&job.stream, &bytes) {
                WriteOutcome::Complete if keep_alive && !job.wake => {
                    reactor.rearm(job.conn, job.fd)
                }
                WriteOutcome::Complete => reactor.send(Msg::Done {
                    conn: job.conn,
                    keep_alive,
                }),
                WriteOutcome::Partial(rest) => reactor.send(Msg::Flush {
                    conn: job.conn,
                    rest,
                    keep_alive,
                }),
                WriteOutcome::Failed => reactor.send(Msg::Done {
                    conn: job.conn,
                    keep_alive: false,
                }),
            }
            // After the response: the shutdown answer reaches the client
            // before the teardown.
            if outcome.shutdown {
                begin_shutdown(front_end.shutdown, addr);
            }
        }
    }

    enum WriteOutcome {
        Complete,
        Partial(Vec<u8>),
        Failed,
    }

    /// Writes as much of `bytes` as the socket accepts without blocking;
    /// the tail (if any) goes back to the reactor for EPOLLOUT draining.
    fn write_nonblocking(mut stream: &TcpStream, bytes: &[u8]) -> WriteOutcome {
        let mut pos = 0usize;
        while pos < bytes.len() {
            match stream.write(&bytes[pos..]) {
                Ok(0) => return WriteOutcome::Failed,
                Ok(n) => pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return WriteOutcome::Partial(bytes[pos..].to_vec())
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return WriteOutcome::Failed,
            }
        }
        WriteOutcome::Complete
    }

    /// Runs the front end until shutdown: spawns the reactor pool, the
    /// worker pool running `handler`, and the SIGTERM watcher, then
    /// accepts connections on the caller's thread, handing each to a
    /// reactor round-robin. Returns once every connection is drained and
    /// every thread joined — with the shutdown flag set, also when it
    /// fails to start, so the daemon's own background threads stop too.
    pub(crate) fn run_front_end<H>(
        listener: TcpListener,
        front_end: &FrontEnd<'_>,
        handler: &H,
    ) -> Result<(), String>
    where
        H: Fn(&HttpRequest) -> Outcome + Sync,
    {
        let result = serve_connections(listener, front_end, handler);
        front_end.shutdown.store(true, Ordering::SeqCst);
        result
    }

    fn serve_connections<H>(
        listener: TcpListener,
        front_end: &FrontEnd<'_>,
        handler: &H,
    ) -> Result<(), String>
    where
        H: Fn(&HttpRequest) -> Outcome + Sync,
    {
        let daemon = front_end.daemon;
        let shutdown = front_end.shutdown;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("{daemon}: local_addr: {e}"))?;
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Mutex::new(job_rx);
        let mut handles = Vec::with_capacity(front_end.reactors);
        let mut reactors = Vec::with_capacity(front_end.reactors);
        for i in 0..front_end.reactors {
            let (handle, reactor) = Reactor::new(i, job_tx.clone(), front_end)?;
            handles.push(handle);
            reactors.push(reactor);
        }
        // The reactors hold the only job senders now, so the workers
        // unblock exactly when the last reactor exits.
        drop(job_tx);
        raise_nofile_limit();
        sigterm::install();

        std::thread::scope(|s| {
            let spawned = (|| -> std::io::Result<()> {
                for (i, reactor) in reactors.into_iter().enumerate() {
                    std::thread::Builder::new()
                        .name(format!("{daemon}-reactor-{i}"))
                        .spawn_scoped(s, move || reactor.run())?;
                }
                for i in 0..front_end.workers {
                    let (job_rx, handles) = (&job_rx, &handles);
                    std::thread::Builder::new()
                        .name(format!("{daemon}-worker-{i}"))
                        .spawn_scoped(s, move || {
                            worker_loop(job_rx, handler, handles, front_end, addr)
                        })?;
                }
                // The SIGTERM watcher: the same graceful shutdown as a
                // handler's shutdown outcome; exits within a tick once
                // the flag is set by any path.
                std::thread::Builder::new()
                    .name(format!("{daemon}-sigterm"))
                    .spawn_scoped(s, move || {
                        while !shutdown.load(Ordering::SeqCst) {
                            if sigterm::pending() {
                                eprintln!("flexserve {daemon}: SIGTERM — shutting down");
                                begin_shutdown(shutdown, addr);
                                break;
                            }
                            std::thread::sleep(Duration::from_millis(100));
                        }
                    })?;
                Ok(())
            })();
            if let Err(e) = spawned {
                // Flag the daemon down and wake what already runs, so the
                // scope can join it.
                shutdown.store(true, Ordering::SeqCst);
                handles.iter().for_each(|h| h.wake());
                return Err(format!("{daemon}: cannot spawn thread: {e}"));
            }

            let mut next = 0usize;
            for stream in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(s) => {
                        // O_NONBLOCK before the reactor ever sees the fd;
                        // the worker's dup shares the flag. NODELAY
                        // because every exchange is a small
                        // request/response pair.
                        let _ = s.set_nonblocking(true);
                        let _ = s.set_nodelay(true);
                        handles[next % handles.len()].send(Msg::Conn(s));
                        next += 1;
                    }
                    Err(e) => eprintln!("{daemon}: accept error: {e}"),
                }
            }
            for handle in &handles {
                handle.wake();
            }
            Ok(())
        })
    }
}

/// Off Linux there is no epoll: the daemons refuse to start.
#[cfg(not(target_os = "linux"))]
pub(crate) fn run_front_end<H>(
    _listener: std::net::TcpListener,
    front_end: &FrontEnd<'_>,
    _handler: &H,
) -> Result<(), String>
where
    H: Fn(&super::http::HttpRequest) -> super::http::Outcome + Sync,
{
    front_end
        .shutdown
        .store(true, std::sync::atomic::Ordering::SeqCst);
    Err("flexserve serve/route need Linux (epoll)".into())
}

/// No rlimit shim off Linux; reports 0 ("unknown").
#[cfg(not(target_os = "linux"))]
pub fn raise_nofile_limit() -> u64 {
    0
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream};
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    use super::super::http::{HttpRequest, Outcome};
    use super::{run_front_end, FrontEnd};

    /// Sends one request and reads until the server closes the
    /// connection; a read timeout (a connection left open) fails the test.
    fn exchange(addr: SocketAddr, head: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        write!(stream, "{head}\r\nHost: t\r\n\r\n").unwrap();
        let mut response = String::new();
        if let Err(e) = stream.read_to_string(&mut response) {
            panic!("{head}: connection not closed after {response:?}: {e}");
        }
        response
    }

    #[test]
    fn a_panicking_handler_answers_500_and_its_worker_survives() {
        // a detached server thread, so a failing assertion fails the
        // test instead of waiting on a front end that never stops
        static SHUTDOWN: AtomicBool = AtomicBool::new(false);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // one worker: if the panic killed it, nothing would answer again
            let front_end = FrontEnd {
                daemon: "test",
                workers: 1,
                reactors: 1,
                request_timeout: Duration::from_secs(5),
                shutdown: &SHUTDOWN,
            };
            let handler = |request: &HttpRequest| match request.path.as_str() {
                "/boom" => panic!("handler bug"),
                "/shutdown" => Outcome::shutdown(),
                _ => Outcome::reply(200, "{\"ok\":true}".into()),
            };
            run_front_end(listener, &front_end, &handler)
        });
        // the panic answers 500 and closes the (keep-alive) connection
        let response = exchange(addr, "GET /boom HTTP/1.1");
        assert!(response.starts_with("HTTP/1.1 500"), "{response}");
        assert!(response.contains("Connection: close"), "{response}");
        assert!(response.contains("panicked"), "{response}");
        // the lone worker still serves, on a fresh connection
        for _ in 0..2 {
            let response = exchange(addr, "GET /ok HTTP/1.1\r\nConnection: close");
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        }
        let response = exchange(addr, "POST /shutdown HTTP/1.1");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        server.join().unwrap().unwrap();
    }
}
