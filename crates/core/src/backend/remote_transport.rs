//! Multi-process shard transport: child-process workers behind framed
//! sockets, with respawn-and-replay failover.
//!
//! [`super::remote`] defines the shard protocol ([`ShardCmd`] /
//! [`ShardReply`] / stripe exchanges) and runs it, by default, over cmpi
//! mailboxes between threads. This module carries the *identical* protocol
//! across real OS boundaries: each shard worker is a child process (the
//! `qworker` binary) speaking length-prefixed [`cmpi::transport`] frames
//! over a Unix domain socket or TCP loopback connection back to the
//! controller. The controller's end, `ProcessLink`, is one of the two shapes
//! of [`super::pool`]'s worker link; spawning, leasing and shutting worlds
//! down is that module's business, not this one's.
//!
//! ## Topology: one socket per worker, relayed exchanges
//!
//! Every worker holds exactly one connection, to the controller. The
//! controller runs one *router thread* per worker that drains the worker's
//! socket continuously:
//!
//! * `REPLY`/`ACK` frames become `RouterEvent`s on a channel the
//!   controller thread consumes;
//! * worker↔worker `XCHG` frames (cross-shard stripe pairing) are relayed
//!   to the destination worker's socket, with the header's `peer` field
//!   rewritten from destination to source.
//!
//! Because a dedicated router always reads each socket, a worker's writes
//! always drain — and a relay write blocks only while its destination
//! computes, never cyclically. That is the deadlock-freedom argument the
//! mailbox transport gets from unbounded queues.
//!
//! ## Handshake
//!
//! The controller binds a listener, spawns each `qworker <addr> <rank>
//! <epoch> <watchdog_ms>` child, accepts its connection, and reads one
//! `HELLO` frame whose `peer` field authenticates the worker's rank and
//! whose body is its build's wire-format version: a missing or different
//! one fails the spawn, naming both, instead of the first decode.
//!
//! ## Failover: epochs, abort, replay
//!
//! A dead worker surfaces as an `Eof` router event (its socket closed) or
//! a reply timeout (the deadlock watchdog mapped onto a bounded event
//! wait). *Any* worker's EOF fails the controller's current reply wait,
//! whichever shard it was waiting on: a survivor blocked in a stripe
//! exchange with the dead worker would otherwise hold the controller
//! until the watchdog expired. Recovery bumps the *epoch*: the dead worker's process is killed
//! and respawned at the new epoch, survivors receive an `ABORT` frame
//! (which makes a worker blocked mid-exchange abandon its batch) and
//! answer `ACK`, and every frame stamped with an older epoch is discarded
//! by whoever reads it. The engine's controller then re-scatters its
//! checkpoint and replays the committed command log — see
//! `super::remote::failover`. Stale commands a survivor processed
//! before seeing the abort are harmless: the checkpoint `Load` overwrites
//! whole stripes.
//!
//! ## Watchdog mapping
//!
//! The in-process engine's deadlock watchdog becomes, out here: a socket
//! read timeout on worker-side exchange waits (expiry exits the process,
//! which the controller sees as EOF), and a bounded event wait on
//! controller-side reply waits (expiry kills and respawns the worker).

use super::remote::{
    rank_of, shard_of, worker_loop, DeadWorker, ShardChannel, ShardCmd, ShardReply, WireAmps,
    WorkerHalt, WIRE_VERSION,
};
use bytes::Bytes;
use cmpi::transport::{
    read_frame, write_frame, FrameHeader, TransportKind, WireListener, WireStream, FRAME_OVERHEAD,
};
use cmpi::{from_bytes, to_bytes};
use parking_lot::Mutex;
use qsim::Complex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Frame tags multiplexing the shard protocol over one stream per worker.
const TAG_HELLO: u8 = 1;
const TAG_CMD: u8 = 2;
const TAG_REPLY: u8 = 3;
const TAG_XCHG: u8 = 4;
const TAG_ABORT: u8 = 5;
const TAG_ACK: u8 = 6;

/// How long a spawned child gets to connect and say HELLO before the
/// spawn is declared failed (an environmental error, not a protocol one).
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// Locates the `qworker` binary: `QMPI_QWORKER_BIN` wins, then the
/// directory of the current executable and its parent (which covers
/// `target/<profile>/deps/<test>` binaries finding `target/<profile>/qworker`).
fn qworker_bin() -> io::Result<PathBuf> {
    if let Ok(p) = std::env::var("QMPI_QWORKER_BIN") {
        return Ok(PathBuf::from(p));
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut candidates = Vec::new();
        if let Some(dir) = exe.parent() {
            candidates.push(dir.join("qworker"));
            if let Some(parent) = dir.parent() {
                candidates.push(parent.join("qworker"));
            }
        }
        if let Some(found) = candidates.into_iter().find(|c| c.is_file()) {
            return Ok(found);
        }
    }
    Err(io::Error::new(
        io::ErrorKind::NotFound,
        "cannot locate the qworker binary for the socket shard transport; build it \
         (`cargo build --bin qworker`) and/or set QMPI_QWORKER_BIN to its path",
    ))
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// The worker-process end of the transport: one framed socket to the
/// controller, implementing [`ShardChannel`] for the shared
/// [`worker_loop`]. Exchange frames from out-of-order partners and
/// commands that arrive while awaiting an exchange are buffered; frames
/// from an older epoch are discarded.
struct SockChannel {
    stream: WireStream,
    rank: usize,
    epoch: u32,
    watchdog_ms: u64,
    pending_cmds: VecDeque<ShardCmd>,
    pending_xchg: Vec<(usize, Vec<Complex>)>,
}

impl SockChannel {
    fn new(stream: WireStream, rank: usize, epoch: u32, watchdog_ms: u64) -> Self {
        SockChannel {
            stream,
            rank,
            epoch,
            watchdog_ms,
            pending_cmds: VecDeque::new(),
            pending_xchg: Vec::new(),
        }
    }

    /// Enters the `epoch` the abort announces: drop everything buffered
    /// from the old generation and acknowledge.
    fn handle_abort(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.pending_cmds.clear();
        self.pending_xchg.clear();
        let _ = self.send(TAG_ACK, self.rank, &[]);
    }

    /// Writes one frame of this epoch; `peer` is this worker's rank, or the
    /// rank an exchange is for.
    fn send(&mut self, tag: u8, peer: usize, body: &[u8]) -> Result<(), WorkerHalt> {
        let hdr = FrameHeader {
            tag,
            epoch: self.epoch,
            peer: peer as u32,
        };
        write_frame(&mut self.stream, &hdr, body).map_err(|_| WorkerHalt::Exit)?;
        Ok(())
    }

    /// Takes the exchange `partner` sent, if it has come.
    fn take_xchg(&mut self, partner: usize) -> Option<Vec<Complex>> {
        let i = self.pending_xchg.iter().position(|(p, _)| *p == partner)?;
        Some(self.pending_xchg.remove(i).1)
    }

    /// Reads one frame: drops it if stale, buffers a command or an exchange
    /// (the controller pipelines rounds, so commands for later ops can
    /// overtake a relayed exchange), and enters the epoch an abort
    /// announces. `Ok(true)` for an abort; `Err` when the read fails or a
    /// frame does not decode.
    fn pump(&mut self) -> io::Result<bool> {
        let (hdr, body) = read_frame(&mut self.stream)?;
        let garbled = || io::Error::from(io::ErrorKind::InvalidData);
        if hdr.epoch < self.epoch {
            return Ok(false);
        }
        match hdr.tag {
            TAG_CMD => {
                let cmd = from_bytes::<ShardCmd>(&Bytes::from(body)).ok_or_else(garbled)?;
                self.pending_cmds.push_back(cmd);
            }
            TAG_XCHG => {
                let w = from_bytes::<WireAmps>(&Bytes::from(body)).ok_or_else(garbled)?;
                self.pending_xchg.push((hdr.peer as usize, w.0));
            }
            TAG_ABORT => {
                self.handle_abort(hdr.epoch);
                return Ok(true);
            }
            _ => {}
        }
        Ok(false)
    }
}

impl ShardChannel for SockChannel {
    fn recv_cmd(&mut self) -> Option<ShardCmd> {
        if self.pending_cmds.is_empty() {
            let _ = self.stream.set_read_timeout(None);
        }
        while self.pending_cmds.is_empty() {
            self.pump().ok()?;
        }
        self.pending_cmds.pop_front()
    }

    fn send_reply(&mut self, reply: &ShardReply) -> Result<(), WorkerHalt> {
        self.send(TAG_REPLY, self.rank, &to_bytes(reply))
    }

    fn send_xchg(&mut self, partner: usize, amps: Vec<Complex>) -> Result<(), WorkerHalt> {
        self.send(TAG_XCHG, partner, &to_bytes(&WireAmps(amps)))
    }

    fn recv_xchg(&mut self, partner: usize, what: &str) -> Result<Vec<Complex>, WorkerHalt> {
        if let Some(amps) = self.take_xchg(partner) {
            return Ok(amps);
        }
        let wd = Duration::from_millis(self.watchdog_ms.max(1));
        let _ = self.stream.set_read_timeout(Some(wd));
        let result = loop {
            match self.pump() {
                Ok(true) => break Err(WorkerHalt::Aborted),
                Ok(false) => {
                    if let Some(amps) = self.take_xchg(partner) {
                        break Ok(amps);
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    // The watchdog mapped onto the socket: diagnose and die;
                    // the controller sees EOF and fails over.
                    eprintln!(
                        "remote-shard watchdog: worker {} waited {wd:?} for {what} from \
                         partner {partner}; the partner is presumed dead or deadlocked",
                        self.rank
                    );
                    break Err(WorkerHalt::Exit);
                }
                Err(_) => break Err(WorkerHalt::Exit),
            }
        };
        let _ = self.stream.set_read_timeout(None);
        result
    }
}

/// Entry point of the `qworker` binary: connect back to the controller,
/// authenticate with a HELLO frame, run the shard event loop until the
/// controller hangs up or shuts the worker down.
///
/// Invocation (by `ProcessLink`, not humans):
/// `qworker <addr> <rank> <epoch> <watchdog_ms>`; a malformed one prints
/// the usage line and exits 2.
pub fn qworker_main() {
    let args: Vec<String> = std::env::args().collect();
    let (addr, rank, epoch, watchdog_ms) = parse_worker_args(&args).unwrap_or_else(|why| {
        eprintln!("qworker: {why}");
        eprintln!("usage: qworker <addr> <rank> <epoch> <watchdog_ms>");
        std::process::exit(2);
    });
    let mut stream = WireStream::connect(addr).unwrap_or_else(|e| {
        eprintln!("qworker: cannot connect to controller at {addr}: {e}");
        std::process::exit(1);
    });
    let hello = FrameHeader {
        tag: TAG_HELLO,
        epoch,
        peer: rank as u32,
    };
    if write_frame(&mut stream, &hello, &WIRE_VERSION.to_le_bytes()).is_err() {
        std::process::exit(1);
    }
    let mut chan = SockChannel::new(stream, rank, epoch, watchdog_ms);
    worker_loop(&mut chan);
}

/// The address, rank, epoch and watchdog milliseconds of a `qworker`
/// command line (`args[0]` is the program), or why it is malformed.
fn parse_worker_args(args: &[String]) -> Result<(&str, usize, u32, u64), String> {
    fn field<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{what} must be a non-negative integer, got {value:?}"))
    }
    let [_, addr, rank, epoch, watchdog_ms] = args else {
        return Err(format!(
            "expected 4 arguments, got {}",
            args.len().saturating_sub(1)
        ));
    };
    Ok((
        addr,
        field("rank", rank)?,
        field("epoch", epoch)?,
        field("watchdog_ms", watchdog_ms)?,
    ))
}

// ---------------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------------

/// Checks the `HELLO` of the worker spawned as `rank`: its tag, its rank,
/// and this build's [`WIRE_VERSION`] as its body.
fn check_hello(rank: usize, hello: &FrameHeader, body: &[u8]) -> io::Result<()> {
    let version = <[u8; 4]>::try_from(body).ok().map(u32::from_le_bytes);
    if hello.tag == TAG_HELLO && hello.peer as usize == rank && version == Some(WIRE_VERSION) {
        return Ok(());
    }
    let theirs = version.map_or("none".into(), |v| v.to_string());
    let why = format!(
        "worker handshake: expected HELLO from rank {rank} at wire format {WIRE_VERSION}, \
         got tag {} peer {} at wire format {theirs}",
        hello.tag, hello.peer
    );
    Err(io::Error::new(io::ErrorKind::InvalidData, why))
}

/// What a worker's router thread feeds the controller.
enum RouterEvent {
    /// A decoded reply frame (epoch-stamped; stale ones are discarded).
    Reply {
        from: usize,
        epoch: u32,
        reply: ShardReply,
    },
    /// The worker acknowledged an abort into `epoch`.
    Ack { from: usize, epoch: u32 },
    /// The worker's socket closed (or sent garbage): it is dead.
    /// `router_id` guards against a stale router of an already-respawned
    /// worker condemning its successor.
    Eof { from: usize, router_id: u64 },
}

struct WorkerSlot {
    child: Child,
    /// Identity of the router generation currently reading this worker.
    router_id: u64,
}

/// The controller's half of the multi-process transport: child processes,
/// their shared writers (command path + relay path), router threads, and
/// the failover bookkeeping (epoch, dead set, respawn count).
pub(crate) struct ProcessLink {
    listener: WireListener,
    addr: String,
    bin: PathBuf,
    shards: usize,
    epoch: u32,
    watchdog: Arc<AtomicU64>,
    /// Write halves, indexed by shard. Stable `Arc` so router threads can
    /// relay into them across respawns (the `Option` is replaced, not the
    /// slot). `None` = currently no live connection.
    writers: Arc<Vec<Mutex<Option<WireStream>>>>,
    slots: Vec<WorkerSlot>,
    events_tx: mpsc::Sender<RouterEvent>,
    events_rx: mpsc::Receiver<RouterEvent>,
    next_router_id: u64,
    dead: HashSet<usize>,
    /// Current-epoch replies that arrived while awaiting another shard's.
    pending: HashMap<usize, VecDeque<ShardReply>>,
    respawns: u64,
    wire_bytes: Arc<AtomicU64>,
}

impl ProcessLink {
    /// Binds the listener and spawns `shards` worker processes, each
    /// connected and authenticated. `watchdog` (milliseconds) is passed to
    /// every worker at spawn time.
    pub(crate) fn spawn(
        kind: TransportKind,
        shards: usize,
        watchdog: Arc<AtomicU64>,
    ) -> io::Result<ProcessLink> {
        let listener = WireListener::bind(kind)?;
        let addr = listener.addr()?;
        let bin = qworker_bin()?;
        let (events_tx, events_rx) = mpsc::channel();
        let writers = Arc::new(
            (0..shards)
                .map(|_| Mutex::new(None))
                .collect::<Vec<Mutex<Option<WireStream>>>>(),
        );
        let mut link = ProcessLink {
            listener,
            addr,
            bin,
            shards,
            epoch: 0,
            watchdog,
            writers,
            slots: Vec::with_capacity(shards),
            events_tx,
            events_rx,
            next_router_id: 0,
            dead: HashSet::new(),
            pending: HashMap::new(),
            respawns: 0,
            wire_bytes: Arc::new(AtomicU64::new(0)),
        };
        for s in 0..shards {
            link.spawn_worker(s)?;
        }
        Ok(link)
    }

    /// Shard (worker process) count.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Total bytes put on the wire so far (frames in both directions,
    /// including relayed exchanges).
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.wire_bytes.load(Ordering::Relaxed)
    }

    /// Worker processes respawned by failover so far.
    pub(crate) fn respawns(&self) -> u64 {
        self.respawns
    }

    /// The watchdog (milliseconds) handed to every worker at (re)spawn
    /// time; the controller-side waits read the same value.
    pub(crate) fn watchdog(&self) -> &AtomicU64 {
        &self.watchdog
    }

    /// Spawns (or respawns) shard `shard`'s worker process: launch the
    /// child at the current epoch, accept its connection, verify its
    /// HELLO, start its router.
    fn spawn_worker(&mut self, shard: usize) -> io::Result<()> {
        let rank = rank_of(shard);
        let child = Command::new(&self.bin)
            .arg(&self.addr)
            .arg(rank.to_string())
            .arg(self.epoch.to_string())
            .arg(self.watchdog.load(Ordering::Relaxed).to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                io::Error::new(e.kind(), format!("cannot run {}: {e}", self.bin.display()))
            })?;
        let stream = self.listener.accept_timeout(SPAWN_TIMEOUT)?;
        stream.set_read_timeout(Some(SPAWN_TIMEOUT))?;
        let mut reader = stream.try_clone()?;
        let (hello, body) = read_frame(&mut reader)?;
        check_hello(rank, &hello, &body)?;
        stream.set_read_timeout(None)?;
        *self.writers[shard].lock() = Some(stream);
        let router_id = self.next_router_id;
        self.next_router_id += 1;
        let slot = WorkerSlot { child, router_id };
        if shard < self.slots.len() {
            self.slots[shard] = slot;
        } else {
            self.slots.push(slot);
        }
        self.spawn_router(shard, reader, router_id);
        Ok(())
    }

    /// Starts the router thread that drains worker `shard`'s socket:
    /// replies and acks become events, exchange frames are relayed to
    /// their destination worker with `peer` rewritten to name the source.
    fn spawn_router(&self, shard: usize, mut reader: WireStream, router_id: u64) {
        let writers = Arc::clone(&self.writers);
        let events = self.events_tx.clone();
        let bytes = Arc::clone(&self.wire_bytes);
        let from_rank = rank_of(shard) as u32;
        std::thread::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok((hdr, body)) => {
                    bytes.fetch_add((FRAME_OVERHEAD + body.len()) as u64, Ordering::Relaxed);
                    match hdr.tag {
                        TAG_REPLY => match from_bytes::<ShardReply>(&Bytes::from(body)) {
                            Some(reply) => {
                                let _ = events.send(RouterEvent::Reply {
                                    from: shard,
                                    epoch: hdr.epoch,
                                    reply,
                                });
                            }
                            None => {
                                // A worker speaking garbage is as dead as
                                // one speaking nothing.
                                let _ = events.send(RouterEvent::Eof {
                                    from: shard,
                                    router_id,
                                });
                                return;
                            }
                        },
                        TAG_XCHG => {
                            let dest = shard_of(hdr.peer as usize);
                            if let Some(slot) = dest.and_then(|d| writers.get(d)) {
                                let mut guard = slot.lock();
                                if let Some(stream) = guard.as_mut() {
                                    let out = FrameHeader {
                                        tag: TAG_XCHG,
                                        epoch: hdr.epoch,
                                        peer: from_rank,
                                    };
                                    // A failed relay means the destination
                                    // died; its own EOF surfaces that.
                                    if let Ok(n) = write_frame(stream, &out, &body) {
                                        bytes.fetch_add(n as u64, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        TAG_ACK => {
                            let _ = events.send(RouterEvent::Ack {
                                from: shard,
                                epoch: hdr.epoch,
                            });
                        }
                        _ => {}
                    }
                }
                Err(_) => {
                    let _ = events.send(RouterEvent::Eof {
                        from: shard,
                        router_id,
                    });
                    return;
                }
            }
        });
    }

    /// Writes one frame to shard `shard`'s socket, accounting its bytes.
    fn write_to(&mut self, shard: usize, tag: u8, body: &[u8]) -> Result<(), DeadWorker> {
        if self.dead.contains(&shard) {
            return Err(DeadWorker);
        }
        let hdr = FrameHeader {
            tag,
            epoch: self.epoch,
            peer: 0,
        };
        let mut guard = self.writers[shard].lock();
        let Some(stream) = guard.as_mut() else {
            drop(guard);
            self.dead.insert(shard);
            return Err(DeadWorker);
        };
        match write_frame(stream, &hdr, body) {
            Ok(n) => {
                drop(guard);
                self.wire_bytes.fetch_add(n as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(_) => {
                *guard = None;
                drop(guard);
                self.dead.insert(shard);
                Err(DeadWorker)
            }
        }
    }

    /// Sends one protocol command to shard `shard`.
    pub(crate) fn send_cmd(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        self.write_to(shard, TAG_CMD, &to_bytes(cmd))
    }

    /// The next router event before `deadline`, or `None` once it passes.
    /// The EOF of a worker's current router (a stale router of an
    /// already-respawned worker condemns nobody) marks the worker dead and
    /// comes back as `Err`.
    fn next_event(&mut self, deadline: Instant) -> Option<Result<RouterEvent, DeadWorker>> {
        loop {
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match self.events_rx.recv_timeout(deadline - now) {
                Ok(RouterEvent::Eof { from, router_id })
                    if router_id == self.slots[from].router_id =>
                {
                    *self.writers[from].lock() = None;
                    self.dead.insert(from);
                    return Some(Err(DeadWorker));
                }
                Ok(event) => return Some(Ok(event)),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("the link holds an event sender")
                }
            }
        }
    }

    /// Awaits shard `shard`'s next current-epoch reply, up to `wd`, failing
    /// at once while any worker is known dead, and on *any* worker's EOF:
    /// the awaited shard may be blocked in a stripe exchange with the dead
    /// one, so its reply would arrive only at watchdog expiry. Expiry means
    /// the worker is dead *or* deadlocked — either way it is killed and
    /// reported dead, and failover respawns it.
    pub(crate) fn reply_from(
        &mut self,
        shard: usize,
        wd: Duration,
    ) -> Result<ShardReply, DeadWorker> {
        if !self.dead.is_empty() {
            return Err(DeadWorker);
        }
        if let Some(r) = self.pending.get_mut(&shard).and_then(|q| q.pop_front()) {
            return Ok(r);
        }
        let deadline = Instant::now() + wd;
        while let Some(event) = self.next_event(deadline) {
            match event? {
                RouterEvent::Reply { from, epoch, reply } if epoch == self.epoch => {
                    if from == shard {
                        return Ok(reply);
                    }
                    self.pending.entry(from).or_default().push_back(reply);
                }
                // Stale replies, stale EOFs, out-of-protocol acks.
                _ => {}
            }
        }
        let _ = self.slots[shard].child.kill();
        self.dead.insert(shard);
        Err(DeadWorker)
    }

    /// Restarts the worker generation after deaths: bump the epoch, kill
    /// and respawn every dead worker at it, abort the survivors into it
    /// and collect their acks. `Err` means further workers died during the
    /// restart; the caller loops (with a budget).
    pub(crate) fn restart_generation(&mut self, wd: Duration) -> Result<(), DeadWorker> {
        self.epoch += 1;
        self.pending.clear();
        let dead: Vec<usize> = self.dead.drain().collect();
        for &s in &dead {
            // A "dead" entry may be a live-but-deadlocked process (reply
            // timeout); make it properly dead before replacing it.
            let _ = self.slots[s].child.kill();
            let _ = self.slots[s].child.wait();
            if let Some(stale) = self.writers[s].lock().take() {
                stale.shutdown();
            }
        }
        for &s in &dead {
            self.spawn_worker(s).unwrap_or_else(|e| {
                panic!("remote-shard failover: cannot respawn shard {s}'s worker: {e}")
            });
            self.respawns += 1;
        }
        let live: Vec<usize> = (0..self.shards).filter(|s| !dead.contains(s)).collect();
        for &s in &live {
            if self.write_to(s, TAG_ABORT, &[]).is_err() {
                return Err(DeadWorker);
            }
        }
        let mut acked: HashSet<usize> = HashSet::new();
        let deadline = Instant::now() + wd;
        while acked.len() < live.len() {
            let Some(event) = self.next_event(deadline) else {
                for &s in live.iter().filter(|s| !acked.contains(s)) {
                    let _ = self.slots[s].child.kill();
                    self.dead.insert(s);
                }
                return Err(DeadWorker);
            };
            if let RouterEvent::Ack { from, epoch } = event? {
                if epoch == self.epoch {
                    acked.insert(from);
                }
            }
        }
        Ok(())
    }

    /// SIGKILLs shard `shard`'s worker process (test hook for failover).
    pub(crate) fn kill_child(&mut self, shard: usize) {
        let _ = self.slots[shard].child.kill();
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        // Best-effort clean shutdown, then close every connection (which
        // unblocks any worker still reading) and reap the children.
        for s in 0..self.shards {
            let _ = self.write_to(s, TAG_CMD, &to_bytes(&ShardCmd::Shutdown));
        }
        for w in self.writers.iter() {
            if let Some(stream) = w.lock().take() {
                stream.shutdown();
            }
        }
        for slot in &mut self.slots {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                match slot.child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = slot.child.kill();
                            let _ = slot.child.wait();
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_refuses_a_worker_of_another_wire_format() {
        let hello = FrameHeader {
            tag: TAG_HELLO,
            epoch: 0,
            peer: 3,
        };
        assert!(check_hello(3, &hello, &WIRE_VERSION.to_le_bytes()).is_ok());
        // Another build's version, and a build from before the version was
        // sent, are refused at spawn, naming both sides' versions.
        for (body, theirs) in [
            (
                &(WIRE_VERSION + 1).to_le_bytes()[..],
                (WIRE_VERSION + 1).to_string(),
            ),
            (&[][..], "none".to_string()),
        ] {
            let err = check_hello(3, &hello, body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("at wire format {WIRE_VERSION},")),
                "{msg}"
            );
            assert!(msg.ends_with(&format!("at wire format {theirs}")), "{msg}");
        }
        // The rank still authenticates.
        assert!(check_hello(2, &hello, &WIRE_VERSION.to_le_bytes()).is_err());
    }

    /// A worker of wire format 2 (`f64` partial sums, a renormalisation
    /// count in every reshape) is refused at spawn.
    #[test]
    fn handshake_refuses_a_wire_format_2_worker() {
        let hello = FrameHeader {
            tag: TAG_HELLO,
            epoch: 0,
            peer: 1,
        };
        let err = check_hello(1, &hello, &2u32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().ends_with("at wire format 2"), "{err}");
    }

    #[test]
    fn worker_argv_parses_or_says_what_is_wrong() {
        let argv = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = argv(&["qworker", "/tmp/s.sock", "3", "7", "30000"]);
        assert_eq!(parse_worker_args(&ok), Ok(("/tmp/s.sock", 3, 7, 30000)));
        for (args, why) in [
            (
                &["qworker", "a", "3", "7"][..],
                "expected 4 arguments, got 3",
            ),
            (&["qworker"][..], "expected 4 arguments, got 0"),
            (&[][..], "expected 4 arguments, got 0"),
            (&["qworker", "a", "x", "7", "1"][..], "rank must be"),
            (&["qworker", "a", "-1", "7", "1"][..], "rank must be"),
            (
                &["qworker", "a", "3", "4294967296", "1"][..],
                "epoch must be",
            ),
            (
                &["qworker", "a", "3", "7", "1.5"][..],
                "watchdog_ms must be",
            ),
        ] {
            let err = parse_worker_args(&argv(args)).unwrap_err();
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }
}
