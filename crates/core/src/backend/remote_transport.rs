//! The shard transport: one worker link, whether the workers are threads
//! or processes, and the generation replacement failover runs on.
//!
//! [`super::remote`] defines the shard protocol ([`ShardCmd`] /
//! [`ShardReply`] / stripe exchanges); this module carries it as
//! [`cmpi::transport`] frames on one [`WireStream`] per worker (`CMD`
//! down, `REPLY` up) and one per worker pair (`XCHG`). A world's workers
//! are threads of this process linked by in-process pipes
//! ([`WireStream::pair`], which hand a frame's body over whole), or
//! `qworker` child processes linked by Unix domain sockets (length-prefixed
//! frames). Both run `worker_loop` over a `SockChannel`, and the
//! controller's end, `WorkerLink`, treats them alike except in how a
//! worker is started, killed and reaped. No thread relays anything: a
//! stripe crosses one link, as a message between two QMPI nodes pays one
//! network latency. A socket write blocks on a full buffer until its reader
//! reads (a pipe's never does), and every exchange is ordered so that no
//! blocked write waits on a cycle (docs/ARCHITECTURE.md, "Deadlock
//! freedom"). Spawning, leasing and shutting worlds down is
//! [`super::pool`]'s business.
//!
//! ## Start-up
//!
//! Worker threads are handed their links when they start; no foreign
//! binary can join an in-process world, so it has no handshake. A process
//! world binds a listener and spawns one `qworker <addr> <rank>
//! <watchdog_ms>` child per shard. Each worker binds a listener of its own
//! (a Unix socket path under `TMPDIR`), connects back, and sends a `HELLO`
//! frame whose `peer` field is its rank and whose body is its build's
//! wire-format version, then its listener's address: a missing or different
//! version fails the spawn, naming both, instead of the first decode. Once
//! every worker has said HELLO, the controller sends each one the `PEERS`
//! table of addresses; a worker connects to every lower rank (saying HELLO
//! with its rank) and accepts every higher one, drops its listener and
//! answers `READY`.
//!
//! ## The end of a worker, and failover
//!
//! No command ends a worker. Closing its controller link does: the worker
//! reads EOF and exits, which is how a world ends (`WorkerLink`'s drop
//! shuts every link, then reaps, giving the processes of a sound
//! generation 5 s) and how a test kills a thread.
//!
//! A dead worker surfaces where the controller next touches it: a failed
//! write, EOF on a reply read, a reply that does not decode or is not the
//! shape the protocol calls for, or a reply read that outlasts the
//! watchdog (the worker is then killed: SIGKILL for a process, its
//! controller link shut for a thread). A worker that exits, thread or process, drops its
//! links, so a survivor blocked on it reads EOF and exits too, and the
//! controller sees the death within milliseconds whichever worker died.
//! A worker's peer links carry the watchdog as a read timeout, so a worker
//! stuck on a live but deadlocked peer halts too.
//!
//! Every world fails over alike: the generation is replaced whole, and the
//! engine's controller re-scatters its checkpoint and replays its log of
//! sent frames (`super::remote::failover`). `TransportStats::respawns`
//! counts every worker replaced, by failover or by a pooled world's reset.

use super::remote::{
    decode_reply_frame, decode_stripe_into, encode_reply_frame, normalize_shards, rank_of,
    shard_of, worker_loop, DeadWorker, ShardCmd, ShardReply, WireAmps, WorkerHalt,
    DEFAULT_WATCHDOG_MS, WIRE_VERSION,
};
use bytes::Bytes;
use cmpi::transport::{FrameHeader, TransportKind, WireListener, WireStream, FRAME_OVERHEAD};
use cmpi::{from_bytes, to_bytes};
use qsim::Complex;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Frame tags multiplexing the shard protocol over each stream. 5 and 6
/// were a retired failover abort and its acknowledgement.
const TAG_HELLO: u8 = 1;
const TAG_CMD: u8 = 2;
const TAG_REPLY: u8 = 3;
const TAG_XCHG: u8 = 4;
const TAG_PEERS: u8 = 7;
const TAG_READY: u8 = 8;

/// How long a spawned world gets to connect, say HELLO and link up before
/// the spawn is declared failed (an environmental error, not a protocol
/// one).
const SPAWN_TIMEOUT: Duration = Duration::from_secs(30);

/// A frame header of `tag` from `rank`.
fn header(tag: u8, rank: usize) -> FrameHeader {
    FrameHeader {
        tag,
        epoch: 0,
        peer: rank as u32,
    }
}

fn garbled(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

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

/// A worker's end of the transport, which [`worker_loop`] runs over:
/// commands and replies on the controller's link, exchanges on the direct
/// link to each peer. A socket write may block until its reader reads, so
/// every exchange orders its writes (see the module docs).
pub(crate) struct SockChannel {
    ctl: WireStream,
    /// The links to the other workers, by world rank (`None` at the
    /// controller's rank and this worker's own).
    peers: Vec<Option<WireStream>>,
    rank: usize,
    /// The read and write timeout of every peer link.
    watchdog: Duration,
    /// Bytes of the exchange frames written since the last reply.
    xchg_bytes: u64,
}

impl SockChannel {
    /// World rank `rank`'s channel over `ctl` and `peers`, each peer link
    /// bounded by `watchdog` both ways.
    pub(crate) fn new(
        ctl: WireStream,
        peers: Vec<Option<WireStream>>,
        rank: usize,
        watchdog: Duration,
    ) -> io::Result<SockChannel> {
        let watchdog = watchdog.max(Duration::from_millis(1));
        for link in peers.iter().flatten() {
            link.set_read_timeout(Some(watchdog))?;
            link.set_write_timeout(Some(watchdog))?;
        }
        Ok(SockChannel {
            ctl,
            peers,
            rank,
            watchdog,
            xchg_bytes: 0,
        })
    }

    fn peer(&mut self, rank: usize) -> Result<&mut WireStream, WorkerHalt> {
        self.peers
            .get_mut(rank)
            .and_then(Option::as_mut)
            .ok_or(WorkerHalt)
    }

    /// Why a link to `partner` failed, as a halt. The watchdog mapped onto
    /// the link expired: diagnose (`what` names the stripe, `dir` the way
    /// it goes), then halt; the controller and the peers see EOF and fail
    /// over. Anything else (EOF: the partner died, or the world is shutting
    /// down) halts quietly.
    fn halt(&self, e: io::Error, what: &str, dir: &str, partner: usize) -> WorkerHalt {
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            eprintln!(
                "remote-shard watchdog: worker {} waited {:?} for {what} {dir} partner \
                 {partner}; the partner is presumed dead or deadlocked",
                self.rank, self.watchdog
            );
        }
        WorkerHalt
    }

    /// Next command from the controller; `None` means the controller hung
    /// up and the worker should exit.
    pub(crate) fn recv_cmd(&mut self) -> Option<ShardCmd> {
        let (hdr, body) = self.ctl.recv().ok()?;
        (hdr.tag == TAG_CMD).then_some(())?;
        from_bytes(&body)
    }

    /// Ships a reply to the controller, with the exchange bytes written
    /// since the last one.
    pub(crate) fn send_reply(&mut self, reply: &ShardReply) -> Result<(), WorkerHalt> {
        let body = encode_reply_frame(std::mem::take(&mut self.xchg_bytes), reply);
        let hdr = header(TAG_REPLY, self.rank);
        self.ctl.send(&hdr, body).map_err(|_| WorkerHalt)?;
        Ok(())
    }

    /// Ships stripe amplitudes to the exchange partner (a world rank).
    pub(crate) fn send_xchg(&mut self, partner: usize, amps: &[Complex]) -> Result<(), WorkerHalt> {
        let hdr = header(TAG_XCHG, self.rank);
        let body = to_bytes(&WireAmps(amps));
        match self.peer(partner)?.send(&hdr, body) {
            Ok(n) => {
                self.xchg_bytes += n as u64;
                Ok(())
            }
            Err(e) => Err(self.halt(e, "its stripe", "to reach", partner)),
        }
    }

    /// Awaits stripe amplitudes from the exchange partner, bounded by the
    /// watchdog, and decodes them into `into`, which keeps its capacity.
    /// `what` names the awaited payload for diagnostics.
    pub(crate) fn recv_xchg(
        &mut self,
        partner: usize,
        what: &str,
        into: &mut Vec<Complex>,
    ) -> Result<(), WorkerHalt> {
        match self.peer(partner)?.recv() {
            Ok((hdr, body)) if hdr.tag == TAG_XCHG => {
                decode_stripe_into(body, into).ok_or(WorkerHalt)
            }
            Ok(_) => Err(WorkerHalt),
            Err(e) => Err(self.halt(e, what, "from", partner)),
        }
    }
}

/// Entry point of the `qworker` binary: join the controller's world (see
/// the module docs' handshake), then run the shard event loop until the
/// controller hangs up.
///
/// Invocation (by `WorkerLink`, not humans):
/// `qworker <addr> <rank> <watchdog_ms>`; a malformed one prints the usage
/// line and exits 2, and a world it cannot join exits 1.
pub fn qworker_main() {
    let args: Vec<String> = std::env::args().collect();
    let (addr, rank, watchdog_ms) = parse_worker_args(&args).unwrap_or_else(|why| {
        eprintln!("qworker: {why}");
        eprintln!("usage: qworker <addr> <rank> <watchdog_ms>");
        std::process::exit(2);
    });
    let mut chan = join_world(addr, rank, watchdog_ms).unwrap_or_else(|e| {
        eprintln!("qworker {rank}: cannot join the worker world at {addr}: {e}");
        std::process::exit(1);
    });
    worker_loop(&mut chan);
}

/// The address, rank and watchdog milliseconds of a `qworker` command line
/// (`args[0]` is the program), or why it is malformed.
fn parse_worker_args(args: &[String]) -> Result<(&str, usize, u64), String> {
    fn field<T: std::str::FromStr>(what: &str, value: &str) -> Result<T, String> {
        value
            .parse()
            .map_err(|_| format!("{what} must be a non-negative integer, got {value:?}"))
    }
    let [_, addr, rank, watchdog_ms] = args else {
        return Err(format!(
            "expected 3 arguments, got {}",
            args.len().saturating_sub(1)
        ));
    };
    Ok((
        addr,
        field("rank", rank)?,
        field("watchdog_ms", watchdog_ms)?,
    ))
}

/// The worker's half of the handshake: listen, say HELLO to the controller
/// at `addr`, link to every peer of the `PEERS` table that comes back
/// (connect to the lower ranks, accept the higher), answer `READY`.
fn join_world(addr: &str, rank: usize, watchdog_ms: u64) -> io::Result<SockChannel> {
    let listener = WireListener::bind(TransportKind::UnixSocket)?;
    let mut ctl = WireStream::connect(addr)?;
    let mut hello = WIRE_VERSION.to_le_bytes().to_vec();
    hello.extend_from_slice(listener.addr()?.as_bytes());
    ctl.send(&header(TAG_HELLO, rank), Bytes::from(hello))?;
    let (hdr, table) = ctl.recv()?;
    let addrs: Vec<String> = (hdr.tag == TAG_PEERS)
        .then(|| from_bytes(&table))
        .flatten()
        .ok_or_else(|| garbled("expected the PEERS table"))?;
    let workers = addrs.len();
    let mut peers: Vec<Option<WireStream>> = (0..=workers).map(|_| None).collect();
    for (s, peer_addr) in addrs.iter().enumerate() {
        if rank_of(s) < rank {
            let mut link = WireStream::connect(peer_addr)?;
            link.send(&header(TAG_HELLO, rank), Bytes::new())?;
            peers[rank_of(s)] = Some(link);
        }
    }
    // One connection from each higher rank, `rank + 1 ..= workers`.
    for _ in rank..workers {
        let mut link = listener.accept_timeout(SPAWN_TIMEOUT)?;
        link.set_read_timeout(Some(SPAWN_TIMEOUT))?;
        let (hdr, _) = link.recv()?;
        let from = hdr.peer as usize;
        if hdr.tag != TAG_HELLO || from <= rank || from > workers || peers[from].is_some() {
            return Err(garbled("a peer link without a HELLO from a higher rank"));
        }
        peers[from] = Some(link);
    }
    // Gone before READY: a worker killed once its world is up leaves no
    // socket file behind.
    drop(listener);
    let mut chan = SockChannel::new(ctl, peers, rank, Duration::from_millis(watchdog_ms))?;
    chan.ctl.send(&header(TAG_READY, rank), Bytes::new())?;
    Ok(chan)
}

// ---------------------------------------------------------------------------
// Controller side
// ---------------------------------------------------------------------------

/// Checks the `HELLO` of a worker of a `shards`-worker world: its tag, a
/// rank in the world, and this build's [`WIRE_VERSION`] at the head of its
/// body. Returns the worker's shard and the listener address the body goes
/// on with.
fn check_hello(shards: usize, hello: &FrameHeader, body: &[u8]) -> io::Result<(usize, String)> {
    let version = body.first_chunk::<4>().map(|v| u32::from_le_bytes(*v));
    let shard = shard_of(hello.peer as usize).filter(|&s| s < shards);
    if let (TAG_HELLO, Some(shard), Some(WIRE_VERSION)) = (hello.tag, shard, version) {
        let addr = std::str::from_utf8(&body[4..]).ok();
        return addr
            .filter(|a| a.starts_with("unix:"))
            .map(|a| (shard, a.to_string()))
            .ok_or_else(|| garbled("worker handshake: HELLO without a listener address"));
    }
    let theirs = version.map_or("none".into(), |v| v.to_string());
    let why = format!(
        "worker handshake: expected HELLO from a rank in 1..={shards} at wire format \
         {WIRE_VERSION}, got tag {} peer {} at wire format {theirs}",
        hello.tag, hello.peer
    );
    Err(io::Error::new(io::ErrorKind::InvalidData, why))
}

/// One worker of a generation, as it is stopped and reaped.
enum Worker {
    Thread(JoinHandle<()>),
    Process(Child),
}

impl Worker {
    /// Waits for the worker to end: a thread until it returns (its links
    /// are shut, so it reads EOF), a process until `deadline`, past which
    /// it is killed.
    fn reap(self, deadline: Instant) {
        match self {
            // A worker's panic has already been reported as EOF on its link.
            Worker::Thread(handle) => {
                let _ = handle.join();
            }
            Worker::Process(mut child) => loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                }
            },
        }
    }
}

/// The controller's end of a worker world: one generation of workers, the
/// controller's link to each, and the failover bookkeeping. Shard `s` is
/// world rank [`rank_of`]`(s)`.
pub(crate) struct WorkerLink {
    /// For a process world, the listener its `qworker`s connect back to
    /// and the binary they run; `None` for threads handed their pipes.
    processes: Option<(WireListener, PathBuf)>,
    shards: usize,
    /// Bounds every reply wait of the controller, and is handed to each
    /// worker at its start for its exchange waits.
    watchdog: Duration,
    /// The current generation's workers and links, by shard.
    workers: Vec<Worker>,
    streams: Vec<WireStream>,
    /// Replies owed for the commands sent and not yet read.
    owed: usize,
    /// The shard whose write, read or reply wait failed first: the
    /// generation is spent, and nothing is sent to it until it is replaced.
    broken: Option<usize>,
    respawns: u64,
    /// Bytes of the frames the controller wrote and read, and of the
    /// exchanges the workers report.
    frame_bytes: u64,
    xchg_bytes: u64,
}

impl WorkerLink {
    /// Spawns a world of `shards` workers (rounded by [`normalize_shards`])
    /// over `kind`, with the default watchdog ([`DEFAULT_WATCHDOG_MS`]):
    /// threads in-process, `qworker` processes linked to each other and
    /// authenticated otherwise.
    pub(crate) fn spawn(kind: TransportKind, shards: usize) -> io::Result<WorkerLink> {
        let processes = if kind.is_multiprocess() {
            Some((WireListener::bind(kind)?, qworker_bin()?))
        } else {
            None
        };
        let shards = normalize_shards(shards);
        let mut link = WorkerLink {
            processes,
            shards,
            watchdog: Duration::from_millis(DEFAULT_WATCHDOG_MS),
            workers: Vec::with_capacity(shards),
            streams: Vec::with_capacity(shards),
            owed: 0,
            broken: None,
            respawns: 0,
            frame_bytes: 0,
            xchg_bytes: 0,
        };
        link.spawn_generation()?;
        Ok(link)
    }

    /// Shard (worker) count.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Bytes of the protocol's frames so far, each counted once on the
    /// link it crossed: the commands the controller wrote, the replies it
    /// read, and the exchanges the workers report in their replies.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.frame_bytes + self.xchg_bytes
    }

    /// [`WorkerLink::wire_bytes`] without the workers' exchanges.
    pub(crate) fn frame_bytes(&self) -> u64 {
        self.frame_bytes
    }

    /// Workers replaced so far, by failover or by a reset.
    pub(crate) fn respawns(&self) -> u64 {
        self.respawns
    }

    /// Sets the watchdog: the controller's reply waits from now on, and
    /// the exchange waits of every worker spawned after.
    pub(crate) fn set_watchdog(&mut self, watchdog: Duration) -> io::Result<()> {
        self.watchdog = watchdog.max(Duration::from_millis(1));
        let wd = Some(self.watchdog);
        self.streams.iter().try_for_each(|s| s.set_read_timeout(wd))
    }

    /// Starts one worker per shard and links them into a world (see the
    /// module docs' start-up). A failure ends whatever it started.
    fn spawn_generation(&mut self) -> io::Result<()> {
        self.broken = None;
        let started = match &self.processes {
            None => self.start_threads(),
            Some((listener, bin)) => {
                let (shards, wd, workers) = (self.shards, self.watchdog, &mut self.workers);
                start_processes(listener, bin, shards, wd, workers).map(|s| self.streams = s)
            }
        };
        started
            .and_then(|()| self.set_watchdog(self.watchdog))
            .inspect_err(|_| self.end_generation(Instant::now()))
    }

    /// One thread per shard, handed its pipe to the controller and one to
    /// each peer.
    fn start_threads(&mut self) -> io::Result<()> {
        let n = self.shards;
        let mut links: Vec<Vec<Option<WireStream>>> =
            (0..=n).map(|_| (0..=n).map(|_| None).collect()).collect();
        for a in 1..=n {
            let (low, high) = links.split_at_mut(a + 1);
            for (b, row) in (a + 1..).zip(high) {
                let (x, y) = WireStream::pair();
                (low[a][b], row[a]) = (Some(x), Some(y));
            }
        }
        for s in 0..n {
            let rank = rank_of(s);
            let (ctl, theirs) = WireStream::pair();
            let peers = std::mem::take(&mut links[rank]);
            let mut chan = SockChannel::new(theirs, peers, rank, self.watchdog)?;
            let handle = std::thread::Builder::new()
                .name(format!("qmpi-shard-{s}"))
                .stack_size(8 << 20)
                .spawn(move || worker_loop(&mut chan))?;
            self.workers.push(Worker::Thread(handle));
            self.streams.push(ctl);
        }
        Ok(())
    }

    /// Closes every link of the current generation and reaps its workers
    /// (a process still running at `deadline` is killed).
    fn end_generation(&mut self, deadline: Instant) {
        for stream in self.streams.drain(..) {
            stream.shutdown();
        }
        for worker in self.workers.drain(..) {
            worker.reap(deadline);
        }
    }

    /// Marks the generation spent, by shard `shard` unless an earlier
    /// failure did: what a write that fails, a reply that does not decode
    /// or one of the wrong shape finds.
    pub(crate) fn fail<T>(&mut self, shard: usize) -> Result<T, DeadWorker> {
        let shard = *self.broken.get_or_insert(shard);
        Err(DeadWorker { shard })
    }

    /// Sends one protocol command to shard `shard`.
    pub(crate) fn send_cmd(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        self.send_frame(shard, to_bytes(cmd), cmd.replies())
    }

    /// Sends shard `shard` the command frame `body`, which provokes
    /// `replies` replies.
    pub(crate) fn send_frame(
        &mut self,
        shard: usize,
        body: Bytes,
        replies: usize,
    ) -> Result<(), DeadWorker> {
        if let Some(shard) = self.broken {
            return Err(DeadWorker { shard });
        }
        match self.streams[shard].send(&header(TAG_CMD, 0), body) {
            Ok(n) => {
                self.frame_bytes += n as u64;
                self.owed += replies;
                Ok(())
            }
            Err(_) => self.fail(shard),
        }
    }

    /// Reads shard `shard`'s next reply, waiting up to the watchdog for
    /// each read. Expiry means the worker is dead *or* deadlocked — either
    /// way it is killed, and the generation is spent.
    pub(crate) fn reply_from(&mut self, shard: usize) -> Result<ShardReply, DeadWorker> {
        if let Some(shard) = self.broken {
            return Err(DeadWorker { shard });
        }
        match self.streams[shard].recv() {
            Ok((hdr, body)) if hdr.tag == TAG_REPLY => {
                let frame = (FRAME_OVERHEAD + body.len()) as u64;
                let Some((xchg_bytes, reply)) = decode_reply_frame(&body) else {
                    return self.fail(shard);
                };
                self.frame_bytes += frame;
                self.xchg_bytes += xchg_bytes;
                self.owed = self.owed.saturating_sub(1);
                Ok(reply)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                self.kill(shard);
                self.fail(shard)
            }
            // EOF, a reset, or a worker speaking garbage: as dead as silent.
            _ => self.fail(shard),
        }
    }

    /// Readies the world for its next user: a generation that is spent,
    /// or that still owes replies its last user left unread, is replaced
    /// whole (see the module docs' failover).
    pub(crate) fn reset(&mut self) {
        if self.broken.is_none() && self.owed == 0 {
            return;
        }
        self.end_generation(Instant::now());
        self.owed = 0;
        self.spawn_generation().unwrap_or_else(|e| {
            panic!("remote-shard failover: cannot respawn the shard workers: {e}")
        });
        self.respawns += self.shards as u64;
    }

    /// Stops shard `shard`'s worker outright, with no protocol: SIGKILL for
    /// a process; for a thread, its controller link is shut, so it reads
    /// EOF and exits, and its peers then read EOF from it.
    pub(crate) fn kill(&mut self, shard: usize) {
        match &mut self.workers[shard] {
            Worker::Process(child) => {
                let _ = child.kill();
            }
            Worker::Thread(_) => self.streams[shard].shutdown(),
        }
    }
}

/// One `qworker` process per shard of a `shards`-worker world, each
/// pushed onto `workers` as it starts and told to connect back to
/// `listener`, and the controller's links to them once the handshake is
/// through.
fn start_processes(
    listener: &WireListener,
    bin: &Path,
    shards: usize,
    watchdog: Duration,
    workers: &mut Vec<Worker>,
) -> io::Result<Vec<WireStream>> {
    let addr = listener.addr()?;
    for s in 0..shards {
        let child = Command::new(bin)
            .arg(&addr)
            .arg(rank_of(s).to_string())
            .arg(watchdog.as_millis().to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot run {}: {e}", bin.display())))?;
        workers.push(Worker::Process(child));
    }
    handshake(listener, workers, shards)
}

/// The controller's half of a process world's handshake (see the module
/// docs): the controller's link to each of `shards` workers, by shard,
/// once every one is ready.
fn handshake(
    listener: &WireListener,
    workers: &mut [Worker],
    shards: usize,
) -> io::Result<Vec<WireStream>> {
    let mut streams: Vec<Option<WireStream>> = (0..shards).map(|_| None).collect();
    let mut addrs = vec![String::new(); shards];
    for _ in 0..shards {
        let mut stream = accept_worker(listener, workers)?;
        stream.set_read_timeout(Some(SPAWN_TIMEOUT))?;
        let (hello, body) = stream.recv()?;
        let (s, addr) = check_hello(shards, &hello, &body)?;
        if streams[s].is_some() {
            return Err(garbled("worker handshake: two workers of one rank"));
        }
        (streams[s], addrs[s]) = (Some(stream), addr);
    }
    let mut streams: Vec<WireStream> = streams.into_iter().flatten().collect();
    let table = to_bytes(&addrs);
    for stream in &mut streams {
        stream.send(&header(TAG_PEERS, 0), table.clone())?;
    }
    for stream in &mut streams {
        if stream.recv()?.0.tag != TAG_READY {
            return Err(garbled("worker handshake: expected READY"));
        }
    }
    Ok(streams)
}

/// The next worker connection, failing early when a child exits before
/// it connects (a `qworker` of another build exits at its usage line).
fn accept_worker(listener: &WireListener, workers: &mut [Worker]) -> io::Result<WireStream> {
    let deadline = Instant::now() + SPAWN_TIMEOUT;
    loop {
        match listener.accept_timeout(Duration::from_millis(50)) {
            Err(e) if e.kind() == io::ErrorKind::TimedOut && Instant::now() < deadline => {
                for (s, worker) in workers.iter_mut().enumerate() {
                    if let Worker::Process(child) = worker {
                        if let Ok(Some(status)) = child.try_wait() {
                            let why = format!("the worker of shard {s} exited at spawn: {status}");
                            return Err(io::Error::other(why));
                        }
                    }
                }
            }
            accepted => return accepted,
        }
    }
}

impl Drop for WorkerLink {
    fn drop(&mut self) {
        // Close every link, so each worker reads EOF and exits, and reap the
        // workers, giving the processes of a sound generation a grace
        // period.
        let grace = match self.broken {
            None => Duration::from_secs(5),
            Some(_) => Duration::ZERO,
        };
        self.end_generation(Instant::now() + grace);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A HELLO body: `version`, then `addr`.
    fn hello_body(version: u32, addr: &str) -> Vec<u8> {
        let mut body = version.to_le_bytes().to_vec();
        body.extend_from_slice(addr.as_bytes());
        body
    }

    #[test]
    fn handshake_refuses_a_worker_of_another_wire_format() {
        let hello = header(TAG_HELLO, 3);
        let ours = hello_body(WIRE_VERSION, "unix:w.sock");
        assert_eq!(
            check_hello(4, &hello, &ours).unwrap(),
            (2, "unix:w.sock".to_string())
        );
        // Another build's version, and a build from before the version was
        // sent, are refused at spawn, naming both sides' versions.
        for (body, theirs) in [
            (
                hello_body(WIRE_VERSION + 1, "unix:w.sock"),
                (WIRE_VERSION + 1).to_string(),
            ),
            (Vec::new(), "none".to_string()),
        ] {
            let err = check_hello(4, &hello, &body).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("at wire format {WIRE_VERSION},")),
                "{msg}"
            );
            assert!(msg.ends_with(&format!("at wire format {theirs}")), "{msg}");
        }
        // The rank must be one of the world's, and the address a transport's.
        assert!(check_hello(2, &hello, &ours).is_err());
        assert!(check_hello(4, &header(TAG_HELLO, 0), &ours).is_err());
        let no_addr = hello_body(WIRE_VERSION, "");
        assert!(check_hello(4, &hello, &no_addr).is_err());
    }

    /// A worker of wire format 3 (replies without the exchange bytes the
    /// worker wrote, exchanges relayed through the controller) is refused at
    /// spawn.
    #[test]
    fn handshake_refuses_a_wire_format_3_worker() {
        let hello = header(TAG_HELLO, 1);
        let err = check_hello(1, &hello, &3u32.to_le_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().ends_with("at wire format 3"), "{err}");
    }

    #[test]
    fn worker_argv_parses_or_says_what_is_wrong() {
        let argv = |args: &[&str]| args.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        let ok = argv(&["qworker", "unix:s.sock", "3", "30000"]);
        assert_eq!(parse_worker_args(&ok), Ok(("unix:s.sock", 3, 30000)));
        for (args, why) in [
            (&["qworker", "a", "3"][..], "expected 3 arguments, got 2"),
            (
                &["qworker", "a", "3", "7", "1"][..],
                "expected 3 arguments, got 4",
            ),
            (&["qworker"][..], "expected 3 arguments, got 0"),
            (&[][..], "expected 3 arguments, got 0"),
            (&["qworker", "a", "x", "1"][..], "rank must be"),
            (&["qworker", "a", "-1", "1"][..], "rank must be"),
            (&["qworker", "a", "3", "1.5"][..], "watchdog_ms must be"),
        ] {
            let err = parse_worker_args(&argv(args)).unwrap_err();
            assert!(err.contains(why), "{args:?}: {err}");
        }
    }
}
