//! Multi-process shard transport: child-process workers behind framed
//! sockets, with respawn-and-replay failover.
//!
//! [`super::remote`] defines the shard protocol ([`ShardCmd`] /
//! [`ShardReply`] / stripe exchanges) and runs it, by default, over cmpi
//! mailboxes between threads. This module carries the *identical* protocol
//! across real OS boundaries: each shard worker is a child process (the
//! `qworker` binary) speaking length-prefixed [`cmpi::transport`] frames
//! over Unix domain sockets or TCP loopback connections. The controller's
//! end, `ProcessLink`, is one of the two shapes of [`super::pool`]'s worker
//! link; spawning, leasing and shutting worlds down is that module's
//! business, not this one's.
//!
//! ## Topology: a socket per worker, and one per worker pair
//!
//! Every worker holds one connection to the controller, which carries
//! `CMD` frames down and `REPLY` frames up, and one direct connection to
//! every other worker of its world, which carries the `XCHG` frames of
//! cross-shard pairings, expectations and reshapes. All of them are of the
//! kind the controller listens on. No thread relays anything: the
//! controller writes each command and reads each reply itself, on its own
//! thread, and a stripe crosses one socket, as a message between two QMPI
//! nodes pays one network latency.
//!
//! ## No deadlock for any payload size
//!
//! No one drains a socket on anyone's behalf any more, so a write blocks
//! once the socket buffer is full until its reader reads. Three facts keep
//! every blocked write finite:
//!
//! * Every exchange is ordered. A pairing's low member receives first and
//!   its high member sends first; an expectation's high member only sends;
//!   a reshape walks its peers in rank order, and with each the lower rank
//!   writes first. So every worker meets its transfers in one global order
//!   (command order, then rank pair, lower writer first), and the earliest
//!   unfinished transfer always has both of its ends at it.
//! * The controller writes a round's frames to every worker before it reads
//!   any reply, and writes the next round only once every reply is read. A
//!   worker reads its whole frame before it runs any of it, so a write of
//!   the controller waits at most for work the earlier rounds set off.
//! * A reply is the last thing a frame does, so a worker blocked writing it
//!   owes no peer anything.
//!
//! ## Handshake
//!
//! The controller binds a listener and spawns one `qworker <addr> <rank>
//! <watchdog_ms>` child per shard. Each worker binds a listener of the same
//! kind (a Unix path under `TMPDIR`, or an ephemeral loopback port),
//! connects back, and sends a `HELLO` frame whose `peer` field is its rank
//! and whose body is its build's wire-format version, then its listener's
//! address: a missing or different version fails the spawn, naming both,
//! instead of the first decode. Once every worker has said HELLO, the
//! controller sends each one the `PEERS` table of addresses; a worker
//! connects to every lower rank (saying HELLO with its rank) and accepts
//! every higher one, drops its listener and answers `READY`. A spawn
//! returns when every worker is ready.
//!
//! ## Failover: a new generation
//!
//! A dead worker surfaces where the controller next touches it: a failed
//! write, EOF on a reply read, or a reply read that outlasts the watchdog
//! (the worker is then killed: dead or deadlocked, it is replaced). Death
//! travels between workers the same way: a survivor blocked on a dead
//! peer's link reads EOF and exits, so the controller's read of that
//! survivor fails at once, and detection takes milliseconds whichever
//! worker died. Recovery replaces the whole generation: every worker
//! process is killed and a fresh world spawned and linked, and the engine's
//! controller re-scatters its checkpoint and replays the committed command
//! log (see `super::remote::failover`). A survivor's stripe would be
//! overwritten by that scatter anyway, and no survivor has links to mend.
//! `TransportStats::respawns` counts every process replaced.
//!
//! ## Watchdog mapping
//!
//! The in-process engine's deadlock watchdog becomes, out here: a read and
//! write timeout on each worker's peer links (expiry exits the process,
//! which its peers and the controller see as EOF), and a read timeout on
//! the controller's worker sockets (expiry kills the worker and fails
//! over).

use super::remote::{
    decode_reply_frame, decode_stripe_into, encode_reply_frame, rank_of, shard_of, worker_loop,
    DeadWorker, ShardChannel, ShardCmd, ShardReply, WireAmps, WorkerHalt, WIRE_VERSION,
};
use bytes::Bytes;
use cmpi::transport::{
    read_frame, write_frame, FrameHeader, TransportKind, WireListener, WireStream, FRAME_OVERHEAD,
};
use cmpi::{from_bytes, to_bytes};
use qsim::Complex;
use std::io;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
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

/// The worker-process end of the transport, implementing [`ShardChannel`]
/// for the shared [`worker_loop`]: commands and replies on the controller's
/// socket, exchanges on the direct link to the partner.
struct SockChannel {
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
}

impl ShardChannel for SockChannel {
    fn recv_cmd(&mut self) -> Option<ShardCmd> {
        let (hdr, body) = read_frame(&mut self.ctl).ok()?;
        (hdr.tag == TAG_CMD).then_some(())?;
        from_bytes(&Bytes::from(body))
    }

    fn send_reply(&mut self, reply: &ShardReply) -> Result<(), WorkerHalt> {
        let body = encode_reply_frame(std::mem::take(&mut self.xchg_bytes), reply);
        let hdr = header(TAG_REPLY, self.rank);
        write_frame(&mut self.ctl, &hdr, body.as_slice()).map_err(|_| WorkerHalt)?;
        Ok(())
    }

    fn send_xchg(&mut self, partner: usize, amps: &[Complex]) -> Result<(), WorkerHalt> {
        let hdr = header(TAG_XCHG, self.rank);
        let body = to_bytes(&WireAmps(amps));
        match write_frame(self.peer(partner)?, &hdr, body.as_slice()) {
            Ok(n) => {
                self.xchg_bytes += n as u64;
                Ok(())
            }
            Err(e) => Err(self.halt(e, "its stripe", "to reach", partner)),
        }
    }

    fn recv_xchg(
        &mut self,
        partner: usize,
        what: &str,
        into: &mut Vec<Complex>,
    ) -> Result<(), WorkerHalt> {
        match read_frame(self.peer(partner)?) {
            Ok((hdr, body)) if hdr.tag == TAG_XCHG => {
                decode_stripe_into(Bytes::from(body), into).ok_or(WorkerHalt)
            }
            Ok(_) => Err(WorkerHalt),
            Err(e) => Err(self.halt(e, what, "from", partner)),
        }
    }
}

/// Entry point of the `qworker` binary: join the controller's world (see
/// the module docs' handshake), then run the shard event loop until the
/// controller hangs up or shuts the worker down.
///
/// Invocation (by `ProcessLink`, not humans):
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
    let kind = TransportKind::of_addr(addr).ok_or_else(|| garbled("no transport address"))?;
    let listener = WireListener::bind(kind)?;
    let mut ctl = WireStream::connect(addr)?;
    let mut hello = WIRE_VERSION.to_le_bytes().to_vec();
    hello.extend_from_slice(listener.addr()?.as_bytes());
    write_frame(&mut ctl, &header(TAG_HELLO, rank), &hello)?;
    let (hdr, table) = read_frame(&mut ctl)?;
    let addrs: Vec<String> = (hdr.tag == TAG_PEERS)
        .then(|| from_bytes(&Bytes::from(table)))
        .flatten()
        .ok_or_else(|| garbled("expected the PEERS table"))?;
    let workers = addrs.len();
    let mut peers: Vec<Option<WireStream>> = (0..=workers).map(|_| None).collect();
    for (s, peer_addr) in addrs.iter().enumerate() {
        if rank_of(s) < rank {
            let mut link = WireStream::connect(peer_addr)?;
            write_frame(&mut link, &header(TAG_HELLO, rank), &[])?;
            peers[rank_of(s)] = Some(link);
        }
    }
    // One connection from each higher rank, `rank + 1 ..= workers`.
    for _ in rank..workers {
        let mut link = listener.accept_timeout(SPAWN_TIMEOUT)?;
        link.set_read_timeout(Some(SPAWN_TIMEOUT))?;
        let (hdr, _) = read_frame(&mut link)?;
        let from = hdr.peer as usize;
        if hdr.tag != TAG_HELLO || from <= rank || from > workers || peers[from].is_some() {
            return Err(garbled("a peer link without a HELLO from a higher rank"));
        }
        peers[from] = Some(link);
    }
    // Gone before READY: a worker killed once its world is up leaves no
    // socket file behind.
    drop(listener);
    let watchdog = Duration::from_millis(watchdog_ms.max(1));
    for link in peers.iter().flatten() {
        link.set_read_timeout(Some(watchdog))?;
        link.set_write_timeout(Some(watchdog))?;
    }
    write_frame(&mut ctl, &header(TAG_READY, rank), &[])?;
    Ok(SockChannel {
        ctl,
        peers,
        rank,
        watchdog,
        xchg_bytes: 0,
    })
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
            .filter(|a| TransportKind::of_addr(a).is_some())
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

/// The controller's half of the multi-process transport: one generation of
/// child processes, the controller's socket to each, and the failover
/// bookkeeping.
pub(crate) struct ProcessLink {
    listener: WireListener,
    addr: String,
    bin: PathBuf,
    shards: usize,
    watchdog: Arc<AtomicU64>,
    /// The current generation's processes and sockets, by shard.
    children: Vec<Child>,
    streams: Vec<WireStream>,
    /// The read timeout the sockets carry (the watchdog when it was set).
    read_timeout: Duration,
    /// Replies owed for the commands sent and not yet read.
    owed: usize,
    /// A write, read or reply wait failed: the generation is spent, and
    /// nothing is sent to it until it is replaced.
    broken: bool,
    respawns: u64,
    wire_bytes: u64,
}

impl ProcessLink {
    /// Binds the listener and spawns a world of `shards` worker processes,
    /// linked to each other and authenticated. `watchdog` (milliseconds) is
    /// passed to every worker at spawn time.
    pub(crate) fn spawn(
        kind: TransportKind,
        shards: usize,
        watchdog: Arc<AtomicU64>,
    ) -> io::Result<ProcessLink> {
        let listener = WireListener::bind(kind)?;
        let addr = listener.addr()?;
        let mut link = ProcessLink {
            listener,
            addr,
            bin: qworker_bin()?,
            shards,
            watchdog,
            children: Vec::with_capacity(shards),
            streams: Vec::with_capacity(shards),
            read_timeout: Duration::ZERO,
            owed: 0,
            broken: false,
            respawns: 0,
            wire_bytes: 0,
        };
        link.spawn_generation()?;
        Ok(link)
    }

    /// Shard (worker process) count.
    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Bytes of the protocol's frames so far, each counted once on the
    /// socket it crossed: the commands the controller wrote, the replies it
    /// read, and the exchanges the workers report in their replies.
    pub(crate) fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    /// Worker processes replaced by failover so far.
    pub(crate) fn respawns(&self) -> u64 {
        self.respawns
    }

    /// The watchdog (milliseconds) handed to every worker at (re)spawn
    /// time; the controller-side waits read the same value.
    pub(crate) fn watchdog(&self) -> &AtomicU64 {
        &self.watchdog
    }

    /// Spawns one worker process per shard and links them into a world
    /// (see the module docs' handshake). A failure leaves the link broken,
    /// its processes to be killed.
    fn spawn_generation(&mut self) -> io::Result<()> {
        let result = self.link_up();
        self.broken = result.is_err();
        result
    }

    fn link_up(&mut self) -> io::Result<()> {
        let watchdog_ms = self.watchdog.load(Ordering::Relaxed);
        for s in 0..self.shards {
            let child = Command::new(&self.bin)
                .arg(&self.addr)
                .arg(rank_of(s).to_string())
                .arg(watchdog_ms.to_string())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| {
                    io::Error::new(e.kind(), format!("cannot run {}: {e}", self.bin.display()))
                })?;
            self.children.push(child);
        }
        let mut streams: Vec<Option<WireStream>> = (0..self.shards).map(|_| None).collect();
        let mut addrs = vec![String::new(); self.shards];
        for _ in 0..self.shards {
            let mut stream = self.accept_worker()?;
            stream.set_read_timeout(Some(SPAWN_TIMEOUT))?;
            let (hello, body) = read_frame(&mut stream)?;
            let (s, addr) = check_hello(self.shards, &hello, &body)?;
            if streams[s].is_some() {
                return Err(garbled("worker handshake: two workers of one rank"));
            }
            (streams[s], addrs[s]) = (Some(stream), addr);
        }
        let mut streams: Vec<WireStream> = streams.into_iter().flatten().collect();
        let table = to_bytes(&addrs);
        for stream in &mut streams {
            write_frame(stream, &header(TAG_PEERS, 0), table.as_slice())?;
        }
        for stream in &mut streams {
            if read_frame(stream)?.0.tag != TAG_READY {
                return Err(garbled("worker handshake: expected READY"));
            }
        }
        self.read_timeout = Duration::from_millis(watchdog_ms.max(1));
        for stream in &streams {
            stream.set_read_timeout(Some(self.read_timeout))?;
        }
        self.streams = streams;
        Ok(())
    }

    /// The next worker connection, failing early when a child exits before
    /// it connects (a `qworker` of another build exits at its usage line).
    fn accept_worker(&mut self) -> io::Result<WireStream> {
        let deadline = Instant::now() + SPAWN_TIMEOUT;
        loop {
            match self.listener.accept_timeout(Duration::from_millis(50)) {
                Err(e) if e.kind() == io::ErrorKind::TimedOut && Instant::now() < deadline => {
                    for (s, child) in self.children.iter_mut().enumerate() {
                        if let Ok(Some(status)) = child.try_wait() {
                            let why = format!("the worker of shard {s} exited at spawn: {status}");
                            return Err(io::Error::other(why));
                        }
                    }
                }
                accepted => return accepted,
            }
        }
    }

    /// Kills every process of the current generation and closes its sockets.
    fn end_generation(&mut self) {
        for stream in self.streams.drain(..) {
            stream.shutdown();
        }
        for mut child in self.children.drain(..) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Marks the generation spent.
    fn fail<T>(&mut self) -> Result<T, DeadWorker> {
        self.broken = true;
        Err(DeadWorker)
    }

    /// Sends one protocol command to shard `shard`.
    pub(crate) fn send_cmd(&mut self, shard: usize, cmd: &ShardCmd) -> Result<(), DeadWorker> {
        if self.broken {
            return Err(DeadWorker);
        }
        let body = to_bytes(cmd);
        match write_frame(
            &mut self.streams[shard],
            &header(TAG_CMD, 0),
            body.as_slice(),
        ) {
            Ok(n) => {
                self.wire_bytes += n as u64;
                self.owed += cmd.replies();
                Ok(())
            }
            Err(_) => self.fail(),
        }
    }

    /// Reads shard `shard`'s next reply from its socket, waiting up to `wd`
    /// for each read. Expiry means the worker is dead *or* deadlocked —
    /// either way it is killed, and the generation is spent.
    pub(crate) fn reply_from(
        &mut self,
        shard: usize,
        wd: Duration,
    ) -> Result<ShardReply, DeadWorker> {
        if self.broken {
            return Err(DeadWorker);
        }
        let wd = wd.max(Duration::from_millis(1));
        if wd != self.read_timeout {
            for stream in &self.streams {
                let _ = stream.set_read_timeout(Some(wd));
            }
            self.read_timeout = wd;
        }
        match read_frame(&mut self.streams[shard]) {
            Ok((hdr, body)) if hdr.tag == TAG_REPLY => {
                let frame = (FRAME_OVERHEAD + body.len()) as u64;
                let Some((xchg_bytes, reply)) = decode_reply_frame(&Bytes::from(body)) else {
                    return self.fail();
                };
                self.wire_bytes += frame + xchg_bytes;
                self.owed = self.owed.saturating_sub(1);
                Ok(reply)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                let _ = self.children[shard].kill();
                self.fail()
            }
            // EOF, a reset, or a worker speaking garbage: as dead as silent.
            _ => self.fail(),
        }
    }

    /// Readies the world for its next user: a generation that is spent,
    /// or that still owes replies its last user left unread, is replaced
    /// whole (see the module docs' failover).
    pub(crate) fn reset(&mut self) {
        if !self.broken && self.owed == 0 {
            return;
        }
        self.end_generation();
        self.owed = 0;
        self.spawn_generation().unwrap_or_else(|e| {
            panic!("remote-shard failover: cannot respawn the worker processes: {e}")
        });
        self.respawns += self.shards as u64;
    }

    /// SIGKILLs shard `shard`'s worker process (test hook for failover).
    pub(crate) fn kill_child(&mut self, shard: usize) {
        let _ = self.children[shard].kill();
    }
}

impl Drop for ProcessLink {
    fn drop(&mut self) {
        // Best-effort clean shutdown of a sound generation, then close every
        // connection (which unblocks any worker still reading) and reap the
        // children.
        if !self.broken {
            let body = to_bytes(&ShardCmd::Shutdown);
            for stream in &mut self.streams {
                let _ = write_frame(stream, &header(TAG_CMD, 0), body.as_slice());
            }
        }
        for stream in &self.streams {
            stream.shutdown();
        }
        let grace = if self.broken { 0 } else { 5 };
        let deadline = Instant::now() + Duration::from_secs(grace);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) => {
                        if Instant::now() >= deadline {
                            let _ = child.kill();
                            let _ = child.wait();
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
