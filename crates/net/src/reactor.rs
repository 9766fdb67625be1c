//! Event-driven multi-reactor connection engine.
//!
//! PR 5's thread-per-connection server spent its budget on context
//! switches: every request woke a dedicated blocking thread for one frame,
//! so wire throughput *fell* as workers grew (`wire_node_w1..w8` inverted,
//! 84k → 70k ops/s) while the in-process node did 5M GETs/s. This module
//! replaces that with N **reactor threads**, each owning a disjoint slice
//! of connections handed off round-robin by the acceptor:
//!
//! * **Nonblocking sockets, level sampling.** Each sweep, a reactor polls
//!   every owned connection with a nonblocking `read` into that
//!   connection's reused [`FrameAssembler`] buffer. (The workspace bans
//!   `unsafe`, so there is no raw `epoll`; an idle reactor backs off
//!   adaptively — spin, then `yield_now`, then bounded `park_timeout` —
//!   and the acceptor unparks it when it hands off a connection.)
//! * **Request pipelining.** Every complete frame that arrived is decoded
//!   and executed back-to-back against the shared `ShardedNode`; the
//!   responses accumulate in the connection's write queue and are flushed
//!   with a *single* gathered `write` per sweep. One wakeup can retire an
//!   entire burst — syscalls amortize across the pipeline depth instead
//!   of costing two context switches per request.
//! * **Connection ownership.** A connection lives on exactly one reactor
//!   for its whole life, so per-connection state (assembler, write queue)
//!   is plain mutable data — no locks, no cross-reactor work stealing,
//!   nothing for the lock-order auditor to even see.
//! * **Backpressure.** A connection whose peer stops draining responses
//!   accumulates at most [`WRITE_HIGH_WATER`] queued bytes; past that the
//!   reactor parks its read side until the queue drains, mirroring the
//!   old blocking server's natural backpressure.
//!
//! Observability: `reactor_dispatch_us` histograms wakeup-with-data →
//! responses fully flushed (the queueing+execution slice of wire RTT), and
//! `reactor_frames_per_wake` histograms the burst size each wakeup
//! retired — the direct measure of how well pipelining amortizes.

use std::io::{self, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel;
use ecc_core::ShardedNode;
use ecc_obs::{ObsEvent, ObsRegistry};

use crate::protocol::{
    append_frame, decode_with_trace, FrameAssembler, Request, Response, Status, TraceContext,
};
use crate::server::{handle, op_hist_name, ConnSlot};

/// Default reactor-thread count: one per core up to 4. Cache serving is
/// memory-bound long before 4 reactors saturate; more threads on few cores
/// just reintroduces the context-switch tax this module removes.
pub const DEFAULT_REACTOR_THREADS: usize = 4;

/// Pending-response bytes above which a connection's read side is parked
/// until the peer drains (slow-consumer backpressure).
const WRITE_HIGH_WATER: usize = 4 * 1024 * 1024;

/// Unproductive sweeps a reactor tolerates before it starts parking
/// (below this it only yields, keeping closed-loop RTT tight).
const HOT_SWEEPS: u32 = 64;

/// Longest a reactor parks between idle sweeps. Bounds both the latency
/// penalty of a request arriving into a cold reactor and the time for a
/// reactor to notice `halt`/`shutdown`.
const MAX_PARK: Duration = Duration::from_millis(1);

/// Pick the spawn-time reactor count: the configured override, else
/// [`DEFAULT_REACTOR_THREADS`] capped by available parallelism.
pub(crate) fn effective_reactors(requested: Option<usize>) -> usize {
    match requested {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .clamp(1, DEFAULT_REACTOR_THREADS),
    }
}

/// One connection owned by a reactor thread.
struct Conn {
    stream: TcpStream,
    asm: FrameAssembler,
    /// Encoded-but-unflushed response frames.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wpos: usize,
    /// Peer sent EOF: serve what already arrived, flush, then close.
    got_eof: bool,
    /// Close once `wbuf` drains (the connection that requested Shutdown).
    close_after_flush: bool,
    /// Frees this connection's slot under the accept bound on drop.
    _slot: ConnSlot,
}

impl Conn {
    fn new(stream: TcpStream, slot: ConnSlot) -> Conn {
        Conn {
            stream,
            asm: FrameAssembler::new(),
            wbuf: Vec::new(), // xtask: allow(no-global-alloc-in-hot-path) — once per accept
            wpos: 0,
            got_eof: false,
            close_after_flush: false,
            _slot: slot,
        }
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Write as much of the queue as the socket accepts right now.
    /// Returns whether any bytes moved.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(progressed)
    }
}

/// What everything on a reactor's request path shares.
pub(crate) struct ReactorShared {
    /// The node every request executes against.
    pub node: Arc<ShardedNode>,
    /// Shared histogram/event registry (the `ObsDump` store).
    pub obs: ObsRegistry,
    /// Wire-visible shutdown flag (set by the `Shutdown` op and `stop()`).
    pub shutdown: Arc<AtomicBool>,
    /// `stop()`-only flag: drain pending writes and exit now.
    pub halt: Arc<AtomicBool>,
}

/// The acceptor's handle to the reactor fleet: round-robin handoff of
/// admitted connections, waking the target reactor.
pub(crate) struct Handoff {
    senders: Vec<channel::Sender<(TcpStream, ConnSlot)>>,
    threads: Vec<std::thread::Thread>,
    next: usize,
}

impl Handoff {
    /// Assign one admitted connection to the next reactor in rotation.
    pub fn dispatch(&mut self, stream: TcpStream, slot: ConnSlot) {
        let i = self.next;
        self.next = (self.next + 1) % self.senders.len();
        // A send can only fail if the reactor already exited (post-
        // shutdown race); dropping the stream then reads as EOF to the
        // client, matching the old accept loop's post-shutdown behavior.
        if self.senders[i].send((stream, slot)).is_ok() {
            self.threads[i].unpark();
        }
    }
}

/// The server's handle: join the fleet on `stop()`.
pub(crate) struct ReactorPool {
    threads: Vec<std::thread::Thread>,
    handles: Vec<JoinHandle<()>>,
}

impl ReactorPool {
    /// Wake every reactor (so parked threads notice `halt`) and join.
    pub fn join(&mut self) {
        for t in &self.threads {
            t.unpark();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Spawn `n` reactor threads sharing `shared`; returns the acceptor-side
/// handoff and the join handle set.
pub(crate) fn spawn_reactors(
    n: usize,
    port: u16,
    shared: &ReactorShared,
) -> io::Result<(Handoff, ReactorPool)> {
    let mut senders = Vec::with_capacity(n);
    let mut handles = Vec::with_capacity(n);
    let mut threads = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = channel::unbounded::<(TcpStream, ConnSlot)>();
        let shared = ReactorShared {
            node: Arc::clone(&shared.node),
            obs: shared.obs.clone(),
            shutdown: Arc::clone(&shared.shutdown),
            halt: Arc::clone(&shared.halt),
        };
        let handle = std::thread::Builder::new()
            .name(format!("ecc-reactor-{port}-{i}"))
            .spawn(move || reactor_loop(rx, shared))?;
        threads.push(handle.thread().clone());
        senders.push(tx);
        handles.push(handle);
    }
    Ok((
        Handoff {
            senders,
            threads: threads.clone(),
            next: 0,
        },
        ReactorPool { threads, handles },
    ))
}

/// One reactor thread: adopt handed-off connections, sweep owned
/// connections (read → decode/execute every arrived frame → one flush),
/// and back off adaptively when a sweep makes no progress.
fn reactor_loop(rx: channel::Receiver<(TcpStream, ConnSlot)>, shared: ReactorShared) {
    let mut conns: Vec<Conn> = Vec::new(); // xtask: allow(no-global-alloc-in-hot-path) — startup
    let mut idle_sweeps: u32 = 0;
    loop {
        let mut progress = false;
        while let Some((stream, slot)) = rx.try_recv() {
            if stream.set_nonblocking(true).is_ok() {
                conns.push(Conn::new(stream, slot));
            }
            progress = true;
        }

        let mut i = 0;
        while i < conns.len() {
            match sweep_conn(&mut conns[i], &shared) {
                Ok(Sweep::Progress(p)) => {
                    progress |= p;
                    i += 1;
                }
                Ok(Sweep::Close) | Err(_) => {
                    // Closing is progress: the freed slot readmits a
                    // waiting client at the accept bound.
                    progress = true;
                    drop(conns.swap_remove(i));
                }
            }
        }

        // Acquire pairs with the Release stores of the flags' writers.
        if shared.halt.load(Ordering::Acquire) {
            for conn in &mut conns {
                let _ = conn.flush();
            }
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) && conns.is_empty() {
            // Wire-initiated shutdown: exit once the served connections
            // drain (the acceptor stops admitting; `stop()` may never be
            // called, so the reactor must wind down on its own).
            return;
        }

        if progress {
            idle_sweeps = 0;
            continue;
        }
        idle_sweeps = idle_sweeps.saturating_add(1);
        if idle_sweeps < HOT_SWEEPS {
            // Hot window: give peers the core (essential on small hosts
            // where client and reactor share it) but stay runnable.
            std::thread::yield_now();
        } else {
            // Cold: park with exponential backoff, 30µs doubling to
            // MAX_PARK. The acceptor unparks on handoff; data arriving on
            // an owned socket is discovered at the next timed wake.
            let exp = (idle_sweeps - HOT_SWEEPS).min(5);
            let park = Duration::from_micros(30u64 << exp).min(MAX_PARK);
            std::thread::park_timeout(park);
        }
    }
}

/// Execute one decoded frame, opening the server-side span triplet when
/// the frame carried a sampled trace context: `srv` (back-dated to the
/// sweep wakeup `t_wake`, parented under the client's wire span), a
/// `srv_queue` child covering wakeup → execute (per-frame arrival is not
/// individually timestamped, so queueing is attributed from the sweep
/// wakeup), and `srv_exec` around `handle()` — whose own descendants
/// (`lock_wait` in the sharded node) attach through the thread-local span
/// stack. `srv` closes when the response is produced; the flush that
/// follows is charged to the client's network share.
fn serve_traced(
    ctx: Option<TraceContext>,
    req: Request,
    shared: &ReactorShared,
    t_wake: u64,
) -> Response {
    let srv = ctx.filter(|c| c.sampled).map(|c| {
        let srv = shared
            .obs
            .span_start_at("srv", c.trace_id, c.span_id, t_wake);
        drop(
            shared
                .obs
                .span_start_at("srv_queue", c.trace_id, srv.id(), t_wake),
        );
        srv
    });
    let exec = srv
        .as_ref()
        .map(|s| shared.obs.span_start("srv_exec", s.trace_id(), s.id()));
    let resp = handle(req, &shared.node, &shared.shutdown, &shared.obs);
    drop(exec);
    drop(srv);
    resp
}

/// Per-sweep verdict for one connection.
enum Sweep {
    /// Keep the connection; `true` if any bytes or frames moved.
    Progress(bool),
    /// Close the connection (clean EOF or explicit shutdown).
    Close,
}

/// One sweep over one connection: ingest whatever the socket has, retire
/// every complete frame against the node, flush the response queue.
fn sweep_conn(conn: &mut Conn, shared: &ReactorShared) -> io::Result<Sweep> {
    let mut progress = false;

    // Read until the socket runs dry — skipped while the peer is a slow
    // consumer with a full write queue (backpressure).
    if !conn.got_eof && !conn.close_after_flush && conn.pending_write() < WRITE_HIGH_WATER {
        loop {
            match conn.asm.fill_from_hinted(&mut conn.stream) {
                Ok((0, _)) => {
                    conn.got_eof = true;
                    break;
                }
                Ok((_, drained)) => {
                    progress = true;
                    // A short read means the socket ran dry: skip the
                    // would-block probe (level polling catches any bytes
                    // that arrive after this instant on the next sweep).
                    if drained {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
    }

    // Decode and execute every frame that fully arrived. `t_wake` to
    // flush-complete is the `reactor_dispatch_us` sample.
    let t_wake = if conn.asm.buffered() > 0 {
        Some(shared.obs.now_us())
    } else {
        None
    };
    let mut dispatched: u64 = 0;
    let mut shutdown_requested = false;
    let mut framing_error: Option<io::Error> = None;
    let Conn { asm, wbuf, .. } = conn;
    loop {
        let frame = match asm.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            // Framing lost (oversized length prefix): fall through to a
            // best-effort flush of responses already owed, then drop the
            // connection — exactly what the blocking server's
            // per-connection error exit did.
            Err(e) => {
                framing_error = Some(e);
                break;
            }
        };
        let op_byte = frame.first().copied().unwrap_or(0);
        shared.obs.emit(ObsEvent::FrameRx {
            at_us: shared.obs.now_us(),
            op: op_byte,
            bytes: frame.len() as u64,
        });
        let t0 = shared.obs.now_us();
        let (resp, is_shutdown, hist) = match decode_with_trace(frame) {
            Some((ctx, req)) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                let hist = op_hist_name(Some(req.op()));
                let resp = serve_traced(ctx, req, shared, t_wake.unwrap_or(t0));
                (resp, is_shutdown, hist)
            }
            None => (
                Response::status(Status::BadRequest),
                false,
                op_hist_name(None),
            ),
        };
        // Request boundary: every `handle()` must return with all
        // ShardedNode guards released — a guard surviving into the next
        // pipelined frame would block every connection on that stripe.
        // Debug-build check, compiled out in release.
        ecc_core::lockorder::assert_quiescent();
        shared.obs.record(hist, shared.obs.now_us() - t0);
        append_frame(wbuf, |b| resp.encode_into(b))?;
        shared.obs.emit(ObsEvent::FrameTx {
            at_us: shared.obs.now_us(),
            op: op_byte,
            bytes: resp.body.len() as u64 + 1,
        });
        dispatched += 1;
        if is_shutdown {
            shutdown_requested = true;
            break;
        }
    }
    conn.close_after_flush |= shutdown_requested;
    if dispatched > 0 {
        progress = true;
        shared.obs.record("reactor_frames_per_wake", dispatched);
    }

    // One gathered write for every response this sweep produced (plus any
    // residue a previous partial write left behind).
    progress |= conn.flush()?;
    if let Some(e) = framing_error {
        return Err(e);
    }

    if dispatched > 0 && conn.pending_write() == 0 {
        if let Some(t_wake) = t_wake {
            shared
                .obs
                .record("reactor_dispatch_us", shared.obs.now_us() - t_wake);
        }
    }

    if conn.pending_write() == 0 && conn.close_after_flush {
        return Ok(Sweep::Close);
    }
    if conn.got_eof && !conn.asm.has_frame().unwrap_or(false) && conn.pending_write() == 0 {
        // Peer closed and everything decodable has been served and
        // flushed. A trailing partial frame at EOF — a bare length prefix
        // or a prefix plus part of its body — can never complete, so it
        // is discarded and the slot freed (the blocking server's
        // UnexpectedEof exit).
        return Ok(Sweep::Close);
    }
    Ok(Sweep::Progress(progress))
}
