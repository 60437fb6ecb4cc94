//! The connection plane: N loop threads (default = core count,
//! floored at two) multiplex every connection over raw `epoll`.
//!
//! Each loop owns a set of nonblocking sockets. A readable connection
//! has its buffered burst drained, parsed, and driven through its
//! per-session middleware chain, whose innermost service *defers* the
//! final ack barrier (see `DeferCell` in `server.rs`): the burst's
//! mutations are enqueued to the shard queues and the loop moves
//! straight on to the next readable connection instead of blocking. Bursts from *different* connections
//! therefore pile into the same shard sweep and are acknowledged as
//! one group — **cross-connection group commit** — which the
//! `MutationMsg` envelope and `ShardAck::Many` reassembly already
//! support. Shard owners wake the loop through an `eventfd` carried on
//! the envelope; the loop patches the late replies into their
//! positional slots and flushes.
//!
//! Replies are rendered as **per-reply chunks** and written with
//! `write_vectored`, so a burst's responses go out in one syscall
//! without first concatenating into a burst-sized `String`.
//!
//! The kernel interface is four raw syscalls (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) declared `extern "C"` against
//! glibc — the workspace is offline and already declares `signal(2)`
//! the same way in the server binary.
//!
//! **Replies are identical to sequential execution**: a pipelined
//! burst answers byte for byte what the same lines sent one at a time
//! answer (the equivalence suite in `tests/integration_batch.rs` pins
//! it against a lockstep client). Blank lines are keepalives, parse
//! errors keep their positional slot, `QUIT` discards the rest of its
//! burst, non-UTF-8 input gets a structured error and a close, an ack
//! timeout poisons the session, and a drain flushes in-flight bursts
//! but never acknowledges buffered input.

use crate::protocol::{Command, Reply};
use crate::server::{
    build_chain, Chain, DeferCell, ExecService, PendingSlot, ACK_TIMEOUT_MSG, LINE_TOO_LONG_MSG,
    MAX_LINE_BYTES,
};
use crate::stats::ServerStats;
use crate::store::{ShardAck, Store};
use dego_middleware::{Request, Service, Session, Stack};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Raw epoll/eventfd bindings. The workspace builds offline with no
/// libc crate; glibc's symbols are declared directly, following the
/// `signal(2)` precedent in `bin/dego-server.rs`.
mod sys {
    /// Kernel `struct epoll_event`. Packed on x86_64 (the kernel ABI
    /// packs it there so 32- and 64-bit layouts agree); natural
    /// alignment everywhere else.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
        pub fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        pub fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        pub fn close(fd: i32) -> i32;
    }
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0x80000;
const EFD_CLOEXEC: i32 = 0x80000;
const EFD_NONBLOCK: i32 = 0x800;

/// Events fetched per `epoll_wait` call.
const MAX_EVENTS: usize = 256;
/// The waker eventfd's token in the loop's epoll set (connection
/// tokens are the global connection counter, which starts at 0 — so
/// the waker lives at the top of the space).
const WAKER_TOKEN: u64 = u64::MAX;
/// Per-read-sweep scratch buffer.
const READ_CHUNK: usize = 16 * 1024;
/// Most lines dispatched as one burst; the remainder stays buffered
/// for the next pass. Bounds the per-burst allocation and keeps one
/// flooding client from parking the loop in a single giant
/// `call_batch` (burst boundaries are not client-visible — the
/// equivalence suite pins that).
const MAX_BURST_LINES: usize = 512;
/// `IoSlice`s handed to one `write_vectored` call (the kernel caps a
/// vectored write at `UIO_MAXIOV` = 1024 anyway).
const MAX_IOV: usize = 64;
/// Idle epoll timeout when nothing is pending: a defensive upper
/// bound so a lost wakeup degrades to latency, never to a hang.
const IDLE_WAIT: Duration = Duration::from_millis(500);
/// Epoll timeout while draining (the loop is polling its own
/// connections dry).
const DRAIN_WAIT: Duration = Duration::from_millis(10);

/// A level-triggered epoll instance owning its fd.
pub(crate) struct Epoll {
    fd: i32,
}

impl Epoll {
    pub(crate) fn new() -> std::io::Result<Epoll> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        let rc = unsafe { sys::epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    fn modify(&self, fd: i32, token: u64, events: u32) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    fn del(&self, fd: i32) {
        // Best-effort: closing the fd deregisters it anyway when no
        // other description references it.
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Wait for readiness, returning the number of events filled in.
    /// `EINTR` (and any other wait failure) reports as zero events.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout: Duration) -> usize {
        let ms = timeout.as_millis().min(i32::MAX as u128) as i32;
        // SAFETY: `events` is a valid, writable buffer of its length.
        let n = unsafe { sys::epoll_wait(self.fd, events.as_mut_ptr(), events.len() as i32, ms) };
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed once.
        unsafe { sys::close(self.fd) };
    }
}

/// An `eventfd` that unblocks a loop's `epoll_wait` from another
/// thread. Shard owners wake the loop after flushing a group ack;
/// the accept thread wakes it after handing off a new connection;
/// shutdown wakes it so it observes the flag.
pub(crate) struct LoopWaker {
    fd: i32,
}

impl LoopWaker {
    pub(crate) fn new() -> std::io::Result<LoopWaker> {
        // SAFETY: plain syscall, no pointers.
        let fd = unsafe { sys::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(LoopWaker { fd })
    }

    /// Make the owning loop's next (or current) `epoll_wait` return.
    /// Nonblocking: a saturated counter is already a pending wakeup.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a live stack value.
        unsafe { sys::write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the counter so level-triggered epoll stops reporting it.
    fn drain(&self) {
        let mut buf: u64 = 0;
        // SAFETY: reads 8 bytes into a live stack value.
        unsafe { sys::read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }

    fn fd(&self) -> i32 {
        self.fd
    }
}

impl Drop for LoopWaker {
    fn drop(&mut self) {
        // SAFETY: `fd` is owned by this instance and closed once.
        unsafe { sys::close(self.fd) };
    }
}

/// Everything a loop thread needs, built in `spawn()` so fd-creation
/// errors surface as bind-time `io::Error`s instead of thread panics.
pub(crate) struct LoopCtx {
    pub(crate) epoll: Epoll,
    pub(crate) waker: Arc<LoopWaker>,
    /// New connections from the accept thread (socket, global conn id).
    pub(crate) inbox: Receiver<(TcpStream, u64)>,
    pub(crate) store: Arc<Store>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) stack: Arc<Stack>,
    pub(crate) shutdown: Arc<AtomicBool>,
    pub(crate) ready: Arc<AtomicBool>,
    /// Overall shard-ack deadline per deferred burst (and per drain).
    pub(crate) ack_timeout: Duration,
    /// Close connections idle past this deadline (`--idle-timeout-ms`;
    /// `None` = never).
    pub(crate) idle_timeout: Option<Duration>,
}

/// What one reply slot of a dispatched burst is: already rendered, or
/// waiting on shard acknowledgements the loop collects asynchronously.
enum Emit {
    Ready(String),
    Pending(PendingSlot),
}

/// A burst whose final ack barrier was deferred: the loop completes it
/// when the acks arrive (or poisons the session at the deadline, as a
/// synchronous barrier's overall burst deadline does).
struct Awaiting {
    emits: Vec<Emit>,
    received: HashMap<u64, Reply>,
    deadline: Instant,
    /// The dispatch already decided to close after these replies
    /// (QUIT in the burst).
    closing: bool,
}

/// One multiplexed connection's state.
struct Conn {
    socket: TcpStream,
    chain: Chain,
    defer: Rc<DeferCell>,
    ack_rx: Rc<Receiver<ShardAck>>,
    /// Bytes read but not yet parsed (at most one partial line after
    /// a drive pass, unless a burst is in flight).
    rbuf: Vec<u8>,
    /// A line longer than [`MAX_LINE_BYTES`] arrived: reading stopped,
    /// `rbuf` holds only the lines before it, and once those are
    /// answered the connection gets `-ERR line too long` and closes.
    overlong: bool,
    /// Rendered replies waiting to flush, one chunk per reply —
    /// `write_vectored` sends them without concatenating.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written (partial-write resume).
    out_off: usize,
    awaiting: Option<Awaiting>,
    /// Events currently registered with epoll.
    interest: u32,
    last_read: Instant,
    eof: bool,
    /// Close once `out` drains and nothing is awaited.
    closing: bool,
    /// Hard I/O failure: tear down immediately.
    dead: bool,
}

/// One event-loop thread: multiplexes its share of the connections
/// until shutdown drains them all.
pub(crate) fn run_loop(ctx: LoopCtx) {
    let LoopCtx {
        epoll,
        waker,
        inbox,
        store,
        stats,
        stack,
        shutdown,
        ready,
        ack_timeout,
        idle_timeout,
    } = ctx;
    epoll
        .add(waker.fd(), WAKER_TOKEN, EPOLLIN)
        .expect("register loop waker");
    let mut el = EventLoop {
        epoll,
        waker,
        inbox,
        store,
        stats,
        stack,
        shutdown,
        ready,
        ack_timeout,
        idle_timeout,
        conns: HashMap::new(),
        awaiting: HashSet::new(),
        draining: false,
        drain_deadline: None,
        last_idle_sweep: Instant::now(),
    };
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    loop {
        el.accept_new();
        if !el.draining && el.shutdown.load(Ordering::Acquire) {
            el.begin_drain();
        }
        if el.draining {
            if el.conns.is_empty() {
                return;
            }
            // A peer that stops reading must not wedge the drain
            // forever: bound it by the ack deadline and cut.
            if el
                .drain_deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
            {
                el.conns.clear();
                el.awaiting.clear();
                return;
            }
        }
        let n = el.epoll.wait(&mut events, el.wait_timeout());
        let mut woke = false;
        let mut fired: Vec<(u64, u32)> = Vec::with_capacity(n);
        for ev in &events[..n] {
            // Copy out of the (possibly packed) kernel struct.
            let token = ev.data;
            let bits = ev.events;
            if token == WAKER_TOKEN {
                woke = true;
            } else {
                fired.push((token, bits));
            }
        }
        if woke {
            el.waker.drain();
            el.accept_new();
        }
        for (token, bits) in fired {
            el.handle_event(token, bits);
        }
        // Deferred bursts: collect acks (the waker fired, or the
        // deadline may have lapsed) for every awaiting connection.
        el.sweep_awaiting();
        el.sweep_idle();
    }
}

struct EventLoop {
    epoll: Epoll,
    waker: Arc<LoopWaker>,
    inbox: Receiver<(TcpStream, u64)>,
    store: Arc<Store>,
    stats: Arc<ServerStats>,
    stack: Arc<Stack>,
    shutdown: Arc<AtomicBool>,
    ready: Arc<AtomicBool>,
    ack_timeout: Duration,
    idle_timeout: Option<Duration>,
    conns: HashMap<u64, Conn>,
    /// Tokens with a deferred burst outstanding (kept separately so an
    /// ack wakeup sweeps only the waiters, not every connection).
    awaiting: HashSet<u64>,
    draining: bool,
    drain_deadline: Option<Instant>,
    last_idle_sweep: Instant,
}

impl EventLoop {
    /// Register connections handed off by the accept thread.
    fn accept_new(&mut self) {
        while let Ok((socket, token)) = self.inbox.try_recv() {
            if self.draining || self.shutdown.load(Ordering::Acquire) {
                continue; // Dropped: the listener is already closed to new work.
            }
            self.register(socket, token);
        }
    }

    /// Wire one socket into the loop: nonblocking, its own middleware
    /// chain (built here, on the owning thread — chains are
    /// thread-local), and an epoll registration under its token.
    fn register(&mut self, socket: TcpStream, token: u64) {
        if socket.set_nonblocking(true).is_err() || socket.set_nodelay(true).is_err() {
            return;
        }
        let session = Session {
            client: socket
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        };
        let (ack_tx, ack_rx) = channel::<ShardAck>();
        let ack_rx = Rc::new(ack_rx);
        let defer = Rc::new(DeferCell::new());
        let exec = ExecService::new(
            Arc::clone(&self.store),
            Arc::clone(&self.stats),
            Arc::clone(&self.ready),
            token,
            self.ack_timeout,
            ack_tx,
            Rc::clone(&ack_rx),
            Rc::clone(&defer),
            Arc::clone(&self.waker),
        );
        let chain = build_chain(&self.stack, &session, exec);
        let fd = socket.as_raw_fd();
        if self.epoll.add(fd, token, EPOLLIN | EPOLLRDHUP).is_err() {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                socket,
                chain,
                defer,
                ack_rx,
                rbuf: Vec::new(),
                overlong: false,
                out: VecDeque::new(),
                out_off: 0,
                awaiting: None,
                interest: EPOLLIN | EPOLLRDHUP,
                last_read: Instant::now(),
                eof: false,
                closing: false,
                dead: false,
            },
        );
    }

    /// Shutdown observed: stop reading everywhere, flush what is owed,
    /// and let in-flight deferred bursts complete. Buffered input is
    /// never acknowledged.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.ack_timeout);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            conn.rbuf.clear();
            if conn.awaiting.is_none() {
                conn.closing = true;
            }
            self.flush(&mut conn);
            self.settle(token, conn);
        }
    }

    /// The epoll timeout: tight while draining, bounded by the nearest
    /// ack deadline while bursts are deferred, bounded by the idle
    /// sweep cadence when an idle timeout is armed.
    fn wait_timeout(&self) -> Duration {
        let mut wait = if self.draining { DRAIN_WAIT } else { IDLE_WAIT };
        let now = Instant::now();
        for token in &self.awaiting {
            if let Some(aw) = self.conns.get(token).and_then(|c| c.awaiting.as_ref()) {
                wait = wait.min(aw.deadline.saturating_duration_since(now));
            }
        }
        if self.idle_timeout.is_some() && !self.draining {
            wait = wait.min(Duration::from_millis(50));
        }
        wait
    }

    fn handle_event(&mut self, token: u64, bits: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // Already torn down this iteration.
        };
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            conn.dead = true;
        } else {
            if bits & EPOLLOUT != 0 {
                self.flush(&mut conn);
                if !conn.dead && conn.out.is_empty() && conn.awaiting.is_none() {
                    self.drive(&mut conn);
                }
            }
            if bits & (EPOLLIN | EPOLLRDHUP) != 0 && conn.interest & EPOLLIN != 0 && !conn.dead {
                self.read_socket(&mut conn);
                if !conn.dead {
                    self.drive(&mut conn);
                }
            }
        }
        self.settle(token, conn);
    }

    /// Drain the socket until it would block (or EOF). Level-triggered
    /// epoll re-reports anything a short read left behind, but reading
    /// the whole burst now is what feeds cross-connection group
    /// commit: every readable connection's mutations hit the shard
    /// queues before any of them waits for an ack.
    fn read_socket(&mut self, conn: &mut Conn) {
        let mut buf = [0u8; READ_CHUNK];
        while !conn.overlong {
            match conn.socket.read(&mut buf) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&buf[..n]);
                    conn.last_read = Instant::now();
                    if let Some(at) = overlong_line_at(&conn.rbuf, n) {
                        conn.rbuf.truncate(at);
                        conn.overlong = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }

    /// Parse and dispatch bursts until the connection blocks on
    /// something: acks (deferred burst), backpressure (unflushed
    /// replies), or input (no complete line left).
    fn drive(&mut self, conn: &mut Conn) {
        loop {
            if conn.closing || conn.dead || conn.awaiting.is_some() || !conn.out.is_empty() {
                break;
            }
            let (lines, bad_utf8) = split_burst(&mut conn.rbuf, conn.eof);
            if lines.is_empty() && !bad_utf8 {
                if conn.overlong {
                    // Every line before the long one is answered.
                    self.stats.note_error();
                    self.stats.note_line_too_long();
                    let mut rendered = String::new();
                    Reply::Error(LINE_TOO_LONG_MSG.into()).render(&mut rendered);
                    push_out(conn, rendered);
                    conn.closing = true;
                } else if conn.eof {
                    conn.closing = true;
                }
                break;
            }
            self.dispatch(conn, lines, bad_utf8);
            self.flush(conn);
        }
        self.flush(conn);
    }

    /// Drive one burst through the middleware chain: parse, dispatch,
    /// and emit one reply per line in order. Slots whose acks were
    /// deferred become `Emit::Pending` placeholders instead of blocking
    /// here.
    fn dispatch(&mut self, conn: &mut Conn, lines: Vec<String>, bad_utf8: bool) {
        /// What one request line turned into (parse errors keep their
        /// positional slot).
        enum LineSlot {
            Cmd,
            Err(String),
        }
        let mut requests: Vec<Request> = Vec::new();
        let mut line_slots: Vec<LineSlot> = Vec::new();
        for raw in &lines {
            let text = raw.trim_end_matches('\n');
            // Blank lines are keepalives: no command, no error, no
            // token — skip before any accounting.
            if text.trim().is_empty() {
                continue;
            }
            self.stats.note_command();
            match Command::parse(text) {
                Ok(cmd) => {
                    let quit = matches!(cmd, Command::Quit);
                    requests.push(Request::new(cmd));
                    line_slots.push(LineSlot::Cmd);
                    if quit {
                        // Input after QUIT is discarded; the session is
                        // closing anyway.
                        conn.rbuf.clear();
                        break;
                    }
                }
                Err(e) => line_slots.push(LineSlot::Err(e.0)),
            }
        }
        let responses = match requests.len() {
            0 => Vec::new(),
            // Singletons keep the unamortized path (and its per-command
            // metrics); nothing to group-commit in a burst of one.
            1 => vec![conn.chain.call_one(requests.pop().expect("one request"))],
            _ => {
                // Arm the deferral for exactly this call: the innermost
                // service skips its final barrier and parks unresolved
                // slots in the cell instead.
                conn.defer.arm();
                let responses = conn.chain.call_batch(requests);
                conn.defer.disarm();
                responses
            }
        };
        let (pending, received) = conn.defer.take_output();
        let mut pending = pending.into_iter();
        let mut responses = responses.into_iter();
        let mut emits: Vec<Emit> = Vec::with_capacity(line_slots.len());
        let mut closing = false;
        for slot in line_slots {
            let (reply, close) = match slot {
                LineSlot::Cmd => {
                    let resp = responses.next().expect("one response per command");
                    (resp.reply, resp.close)
                }
                LineSlot::Err(e) => (Reply::Error(e), false),
            };
            if crate::server::is_pending_marker(&reply) {
                emits.push(Emit::Pending(
                    pending.next().expect("a deferred slot per marker"),
                ));
            } else {
                if matches!(reply, Reply::Error(_)) {
                    self.stats.note_error();
                }
                let mut rendered = String::new();
                reply.render(&mut rendered);
                emits.push(Emit::Ready(rendered));
            }
            if close {
                closing = true;
                break;
            }
        }
        if bad_utf8 && !closing {
            // Positioned after the burst's replies: non-UTF-8 input
            // gets its structured error, and the byte stream is
            // unrecoverable — hang up.
            self.stats.note_error();
            let mut rendered = String::new();
            Reply::Error("protocol requires UTF-8 input".into()).render(&mut rendered);
            emits.push(Emit::Ready(rendered));
            closing = true;
        }
        if emits.iter().any(|e| matches!(e, Emit::Pending(_))) {
            conn.awaiting = Some(Awaiting {
                emits,
                received,
                deadline: Instant::now() + self.ack_timeout,
                closing,
            });
        } else {
            for emit in emits {
                if let Emit::Ready(rendered) = emit {
                    push_out(conn, rendered);
                }
            }
            conn.closing |= closing;
        }
    }

    /// Collect any acks that arrived for `conn`'s deferred burst; when
    /// the burst is complete (or its deadline lapsed), render the late
    /// replies into their slots. Returns whether the wait is over.
    fn try_complete(&mut self, conn: &mut Conn) -> bool {
        let Some(aw) = conn.awaiting.as_mut() else {
            return true;
        };
        while let Ok(ack) = conn.ack_rx.try_recv() {
            match ack {
                ShardAck::One(item) => {
                    aw.received.insert(item.seq, item.reply);
                }
                ShardAck::Many(items) => {
                    for item in items {
                        aw.received.insert(item.seq, item.reply);
                    }
                }
            }
        }
        let satisfied = aw.emits.iter().all(|emit| match emit {
            Emit::Ready(_) => true,
            Emit::Pending(PendingSlot::Single(seq)) => aw.received.contains_key(seq),
            Emit::Pending(PendingSlot::Fanout(seqs)) => {
                seqs.iter().all(|seq| aw.received.contains_key(seq))
            }
        });
        let timed_out = !satisfied && Instant::now() >= aw.deadline;
        if !satisfied && !timed_out {
            return false;
        }
        let aw = conn.awaiting.take().expect("awaiting checked above");
        self.resolve(conn, aw, timed_out);
        true
    }

    /// Render a completed (or deadline-poisoned) deferred burst into
    /// the out queue. On timeout the missing slots answer the same
    /// `ACK_TIMEOUT_MSG` a synchronous barrier produces, and the
    /// session closes — a late ack could otherwise desync every later
    /// request/reply pairing.
    fn resolve(&mut self, conn: &mut Conn, aw: Awaiting, timed_out: bool) {
        let Awaiting {
            emits,
            mut received,
            closing,
            ..
        } = aw;
        for emit in emits {
            let rendered = match emit {
                Emit::Ready(rendered) => rendered,
                Emit::Pending(slot) => {
                    let reply = match slot {
                        PendingSlot::Single(seq) => received
                            .remove(&seq)
                            .unwrap_or_else(|| Reply::Error(ACK_TIMEOUT_MSG.into())),
                        PendingSlot::Fanout(seqs) => {
                            ExecService::fanout_reply(&mut received, &seqs, ACK_TIMEOUT_MSG)
                        }
                    };
                    if matches!(reply, Reply::Error(_)) {
                        self.stats.note_error();
                    }
                    let mut rendered = String::new();
                    reply.render(&mut rendered);
                    rendered
                }
            };
            push_out(conn, rendered);
        }
        conn.closing |= closing || timed_out || self.draining;
    }

    /// Check every connection with a deferred burst outstanding.
    fn sweep_awaiting(&mut self) {
        if self.awaiting.is_empty() {
            return;
        }
        let tokens: Vec<u64> = self.awaiting.iter().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                self.awaiting.remove(&token);
                continue;
            };
            if self.try_complete(&mut conn) {
                self.awaiting.remove(&token);
                self.drive(&mut conn);
            }
            self.settle(token, conn);
        }
    }

    /// Close connections idle past `--idle-timeout-ms` (nothing read,
    /// nothing owed): the classic slow fd leak of event-loop servers.
    fn sweep_idle(&mut self) {
        let Some(limit) = self.idle_timeout else {
            return;
        };
        if self.draining || self.last_idle_sweep.elapsed() < Duration::from_millis(50) {
            return;
        }
        self.last_idle_sweep = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.awaiting.is_none()
                    && c.out.is_empty()
                    && !c.closing
                    && c.last_read.elapsed() >= limit
            })
            .map(|(token, _)| *token)
            .collect();
        for token in stale {
            if let Some(conn) = self.conns.remove(&token) {
                self.stats.note_idle_closed();
                self.teardown(conn);
            }
        }
    }

    /// Flush the out queue with vectored writes: one syscall covers up
    /// to [`MAX_IOV`] reply chunks, resuming mid-chunk after a partial
    /// write.
    fn flush(&mut self, conn: &mut Conn) {
        while !conn.out.is_empty() && !conn.dead {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(conn.out.len().min(MAX_IOV));
            for (i, chunk) in conn.out.iter().take(MAX_IOV).enumerate() {
                let from = if i == 0 { conn.out_off } else { 0 };
                slices.push(IoSlice::new(&chunk[from..]));
            }
            match (&conn.socket).write_vectored(&slices) {
                Ok(0) => {
                    conn.dead = true;
                }
                Ok(mut n) => {
                    while n > 0 {
                        let front = conn.out.front().expect("bytes written from a chunk");
                        let left = front.len() - conn.out_off;
                        if n >= left {
                            conn.out.pop_front();
                            conn.out_off = 0;
                            n -= left;
                        } else {
                            conn.out_off += n;
                            n = 0;
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                }
            }
        }
    }

    /// Post-work bookkeeping for a connection pulled out of the map:
    /// tear it down if finished, otherwise reconcile its epoll
    /// interest and put it back.
    fn settle(&mut self, token: u64, mut conn: Conn) {
        if conn.dead || (conn.closing && conn.out.is_empty() && conn.awaiting.is_none()) {
            self.awaiting.remove(&token);
            self.teardown(conn);
            return;
        }
        let mut want = 0u32;
        if !conn.out.is_empty() {
            want |= EPOLLOUT;
        }
        // Reading stops while a burst awaits acks or backpressure is
        // owed (level-triggered epoll would spin otherwise, and new
        // bursts must not start ahead of this one's replies).
        if conn.awaiting.is_none()
            && conn.out.is_empty()
            && !conn.eof
            && !conn.overlong
            && !conn.closing
            && !self.draining
        {
            want |= EPOLLIN | EPOLLRDHUP;
        }
        if want != conn.interest {
            if self
                .epoll
                .modify(conn.socket.as_raw_fd(), token, want)
                .is_err()
            {
                self.awaiting.remove(&token);
                self.teardown(conn);
                return;
            }
            conn.interest = want;
        }
        if conn.awaiting.is_some() {
            self.awaiting.insert(token);
        }
        self.conns.insert(token, conn);
    }

    /// Deregister and drop: closing the socket returns the fd.
    fn teardown(&mut self, conn: Conn) {
        self.epoll.del(conn.socket.as_raw_fd());
        drop(conn);
    }
}

fn push_out(conn: &mut Conn, rendered: String) {
    if !rendered.is_empty() {
        conn.out.push_back(rendered.into_bytes());
    }
}

/// Where the first line longer than [`MAX_LINE_BYTES`] starts, among
/// the lines the last `fresh` bytes of `rbuf` end or extend (a
/// partial last line counts with the bytes it has so far).
fn overlong_line_at(rbuf: &[u8], fresh: usize) -> Option<usize> {
    if rbuf.len() <= MAX_LINE_BYTES {
        return None; // no line can be longer than the whole buffer
    }
    let mut start = rbuf[..rbuf.len() - fresh]
        .iter()
        .rposition(|b| *b == b'\n')
        .map_or(0, |nl| nl + 1);
    for line in rbuf[start..].split(|b| *b == b'\n') {
        if line.len() > MAX_LINE_BYTES {
            return Some(start);
        }
        start += line.len() + 1;
    }
    None
}

/// Extract the next burst from `rbuf`: up to [`MAX_BURST_LINES`]
/// complete lines (plus, at EOF, the final unterminated line, which is
/// served like any other). A line that is not valid UTF-8 ends the
/// burst with `bad_utf8` set; everything consumed is removed from the
/// buffer, and the caller discards the rest by closing. Burst
/// boundaries are invisible to the client: replies are identical to
/// sending the lines one at a time.
fn split_burst(rbuf: &mut Vec<u8>, eof: bool) -> (Vec<String>, bool) {
    let mut consumed = 0usize;
    let mut lines = Vec::new();
    let mut bad_utf8 = false;
    while lines.len() < MAX_BURST_LINES {
        let rest = &rbuf[consumed..];
        if rest.is_empty() {
            break;
        }
        let take = match rest.iter().position(|b| *b == b'\n') {
            Some(nl) => nl + 1,
            None if eof => rest.len(),
            None => break,
        };
        match std::str::from_utf8(&rest[..take]) {
            Ok(line) => lines.push(line.to_string()),
            Err(_) => {
                consumed += take;
                bad_utf8 = true;
                break;
            }
        }
        consumed += take;
    }
    rbuf.drain(..consumed);
    (lines, bad_utf8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waker_unblocks_epoll_and_drains() {
        let epoll = Epoll::new().expect("epoll");
        let waker = LoopWaker::new().expect("eventfd");
        epoll
            .add(waker.fd(), WAKER_TOKEN, EPOLLIN)
            .expect("register");
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 4];
        // Nothing pending: a short wait returns empty.
        assert_eq!(epoll.wait(&mut events, Duration::from_millis(0)), 0);
        waker.wake();
        let n = epoll.wait(&mut events, Duration::from_millis(1000));
        assert_eq!(n, 1);
        let token = events[0].data;
        assert_eq!(token, WAKER_TOKEN);
        waker.drain();
        // Drained: level-triggered epoll stops reporting it.
        assert_eq!(epoll.wait(&mut events, Duration::from_millis(0)), 0);
    }

    #[test]
    fn split_burst_takes_complete_lines_only() {
        let mut buf = b"GET a\nSET b 1\npartial".to_vec();
        let (lines, bad) = split_burst(&mut buf, false);
        assert_eq!(lines, vec!["GET a\n".to_string(), "SET b 1\n".to_string()]);
        assert!(!bad);
        assert_eq!(buf, b"partial");
    }

    #[test]
    fn split_burst_serves_unterminated_line_at_eof() {
        let mut buf = b"PING".to_vec();
        let (lines, bad) = split_burst(&mut buf, true);
        assert_eq!(lines, vec!["PING".to_string()]);
        assert!(!bad);
        assert!(buf.is_empty());
    }

    #[test]
    fn split_burst_flags_non_utf8_and_keeps_prior_lines() {
        let mut buf = b"PING\n\xff\xfe garbage\nPING\n".to_vec();
        let (lines, bad) = split_burst(&mut buf, false);
        assert_eq!(lines, vec!["PING\n".to_string()]);
        assert!(bad);
        // The poisoned line is consumed; the tail stays (discarded by
        // the caller when it hangs up).
        assert_eq!(buf, b"PING\n");
    }

    #[test]
    fn overlong_lines_are_found_where_they_start() {
        let mut buf = b"PING\n".to_vec();
        buf.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES));
        // At the limit: not yet too long, newline or not.
        assert_eq!(overlong_line_at(&buf, buf.len()), None);
        buf.push(b'\n');
        assert_eq!(overlong_line_at(&buf, 1), None);
        buf.pop();
        // One byte past it, partial: too long, starting after PING.
        buf.push(b'x');
        assert_eq!(overlong_line_at(&buf, 1), Some(5));
        // A completed long line counts too, in any later chunk.
        buf.extend_from_slice(b"\nPING\n");
        assert_eq!(overlong_line_at(&buf, 7), Some(5));
        // Fresh bytes that only start new short lines are fine.
        assert_eq!(overlong_line_at(b"PING\nPI", 2), None);
    }

    #[test]
    fn split_burst_respects_burst_cap() {
        let mut buf = Vec::new();
        for _ in 0..(MAX_BURST_LINES + 10) {
            buf.extend_from_slice(b"PING\n");
        }
        let (lines, bad) = split_burst(&mut buf, false);
        assert_eq!(lines.len(), MAX_BURST_LINES);
        assert!(!bad);
        assert_eq!(buf.len(), 10 * 5);
    }
}
