//! Wire transports: the OS-boundary substrate under remote shard workers.
//!
//! The in-process substrate ([`crate::comm`]) moves already-encoded frames
//! between threads through mailboxes. This module carries the *same* framed
//! payloads across real OS boundaries — a controller process talking to
//! worker child processes over Unix domain sockets (or TCP loopback) — so
//! the protocol layered on top ([`crate::Encode`]/[`crate::Decode`] command
//! frames) does not change when workers stop sharing an address space.
//!
//! ## Frame layout
//!
//! Every message on a stream is one length-prefixed frame:
//!
//! ```text
//! [ len: u32 LE ][ tag: u8 ][ epoch: u32 LE ][ peer: u32 LE ][ body... ]
//!   `len` counts everything after itself: HEADER_LEN + body.len()
//! ```
//!
//! * `tag` multiplexes logical channels over one stream (commands, replies,
//!   stripe exchanges, handshake) — the socket analogue of the mailbox
//!   `(source, tag)` match key.
//! * `epoch` is a generation stamp for the protocol above to use; the
//!   shard transport writes 0, since it replaces a whole generation of
//!   workers (and every socket between them) at once.
//! * `peer` names the sending rank where the stream alone does not.
//!
//! A reader that hits EOF mid-frame gets [`std::io::ErrorKind::UnexpectedEof`];
//! a length over `MAX_FRAME_LEN` (1 GiB) or under the header size is
//! [`std::io::ErrorKind::InvalidData`] — corruption is diagnosed, never
//! trusted. The body grows only as its bytes arrive, so a corrupt length
//! cannot force a giant up-front allocation.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Which wire substrate carries controller↔worker shard traffic.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum TransportKind {
    /// Workers are threads in this process; frames travel through
    /// [`crate::comm`] mailboxes. The default, and the only kind with no
    /// spawn/serialization overhead.
    #[default]
    InProcess,
    /// Workers are child processes connected over Unix domain sockets in
    /// the system temp directory.
    UnixSocket,
    /// Workers are child processes connected over TCP loopback
    /// (`127.0.0.1`, ephemeral port). Functionally identical to
    /// [`TransportKind::UnixSocket`]; exists so the same code path is
    /// provably address-family agnostic.
    Tcp,
}

impl TransportKind {
    /// The kind of a connect string produced by [`WireListener::addr`].
    pub fn of_addr(addr: &str) -> Option<TransportKind> {
        if addr.starts_with("unix:") {
            Some(TransportKind::UnixSocket)
        } else if addr.starts_with("tcp:") {
            Some(TransportKind::Tcp)
        } else {
            None
        }
    }

    /// Stable lowercase name (used in CI matrix entries and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProcess => "in-process",
            TransportKind::UnixSocket => "unix-socket",
            TransportKind::Tcp => "tcp",
        }
    }

    /// Whether workers run as separate OS processes under this kind.
    pub fn is_multiprocess(self) -> bool {
        self != TransportKind::InProcess
    }

    /// Parses the names accepted by the `QMPI_TEST_TRANSPORT`-style knobs
    /// (`in-process`, `unix-socket`/`unix`, `tcp`, underscores tolerated).
    pub fn parse(s: &str) -> Option<TransportKind> {
        match s.to_lowercase().replace('_', "-").as_str() {
            "in-process" | "inprocess" | "thread" => Some(TransportKind::InProcess),
            "unix-socket" | "unix" | "uds" => Some(TransportKind::UnixSocket),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fixed per-frame header bytes following the length prefix.
const HEADER_LEN: usize = 1 + 4 + 4;

/// Total wire overhead of one frame: length prefix plus header.
pub const FRAME_OVERHEAD: usize = 4 + HEADER_LEN;

/// Upper bound on `len` a reader will honor. Generous (a 26-qubit stripe
/// gather is ~1 GiB) but finite: a corrupt length prefix fails fast as
/// `InvalidData` instead of hanging the stream waiting for garbage bytes.
const MAX_FRAME_LEN: usize = 1 << 30;

/// Body bytes reserved before any arrive — bounds the allocation a lying
/// length prefix can trigger before EOF surfaces; beyond it the body grows
/// as bytes come in.
const READ_CHUNK: usize = 64 * 1024;

/// The routing header carried by every frame; see the [module docs](self)
/// for field semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Logical channel (command/reply/exchange/control).
    pub tag: u8,
    /// Generation stamp; 0 where unused.
    pub epoch: u32,
    /// Sending rank; 0 where unused.
    pub peer: u32,
}

/// Writes one frame (header + body) as a single buffered write, returning
/// the bytes put on the wire. One `write_all` per frame keeps concurrent
/// writers (behind a lock) from interleaving partial frames.
pub fn write_frame(w: &mut impl Write, hdr: &FrameHeader, body: &[u8]) -> io::Result<usize> {
    let len = HEADER_LEN + body.len();
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame body of {} bytes exceeds MAX_FRAME_LEN", body.len()),
        ));
    }
    let mut frame = Vec::with_capacity(4 + len);
    frame.extend_from_slice(&(len as u32).to_le_bytes());
    frame.push(hdr.tag);
    frame.extend_from_slice(&hdr.epoch.to_le_bytes());
    frame.extend_from_slice(&hdr.peer.to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(frame.len())
}

/// Reads one frame. EOF *before* the length prefix surfaces as
/// `UnexpectedEof` with an empty message (clean peer shutdown); EOF
/// anywhere later is a mid-frame truncation, also `UnexpectedEof`. A length
/// outside `[HEADER_LEN, MAX_FRAME_LEN]` is `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> io::Result<(FrameHeader, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len < HEADER_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} shorter than the {HEADER_LEN}-byte header"),
        ));
    }
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN ({MAX_FRAME_LEN})"),
        ));
    }
    let mut hdr_buf = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr_buf)?;
    let hdr = FrameHeader {
        tag: hdr_buf[0],
        epoch: u32::from_le_bytes(hdr_buf[1..5].try_into().expect("4 bytes")),
        peer: u32::from_le_bytes(hdr_buf[5..9].try_into().expect("4 bytes")),
    };
    // Straight into the body, which grows only as bytes arrive.
    let want = len - HEADER_LEN;
    let mut body = Vec::with_capacity(want.min(READ_CHUNK));
    r.by_ref().take(want as u64).read_to_end(&mut body)?;
    if body.len() < want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame body cut at {} of {want} bytes", body.len()),
        ));
    }
    Ok((hdr, body))
}

/// Monotonic per-process counter for socket path uniqueness.
fn next_socket_serial() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SERIAL: AtomicU64 = AtomicU64::new(0);
    SERIAL.fetch_add(1, Ordering::Relaxed)
}

/// A bound, listening endpoint workers connect back to. Unix listeners own
/// their socket file and remove it on drop.
#[derive(Debug)]
pub enum WireListener {
    /// Unix domain socket in the system temp directory.
    Unix {
        /// The listening socket.
        listener: UnixListener,
        /// Path of the socket file (removed on drop).
        path: PathBuf,
    },
    /// TCP on loopback, ephemeral port.
    Tcp(TcpListener),
}

impl WireListener {
    /// Binds a listener for `kind`. [`TransportKind::InProcess`] has no
    /// wire endpoint and is rejected with `InvalidInput`.
    pub fn bind(kind: TransportKind) -> io::Result<WireListener> {
        match kind {
            TransportKind::InProcess => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the in-process transport has no socket listener",
            )),
            TransportKind::UnixSocket => {
                let path = std::env::temp_dir().join(format!(
                    "cmpi-{}-{}.sock",
                    std::process::id(),
                    next_socket_serial()
                ));
                // A stale file from a crashed previous process with a
                // recycled pid would fail the bind; it is ours to reclaim.
                if path.exists() {
                    let _ = std::fs::remove_file(&path);
                }
                let listener = UnixListener::bind(&path)?;
                Ok(WireListener::Unix { listener, path })
            }
            TransportKind::Tcp => Ok(WireListener::Tcp(TcpListener::bind("127.0.0.1:0")?)),
        }
    }

    /// The connect string workers are handed (`unix:<path>` or
    /// `tcp:<ip>:<port>`), parseable by [`WireStream::connect`].
    pub fn addr(&self) -> io::Result<String> {
        match self {
            WireListener::Unix { path, .. } => Ok(format!("unix:{}", path.display())),
            WireListener::Tcp(l) => Ok(format!("tcp:{}", l.local_addr()?)),
        }
    }

    /// Accepts one connection, waiting at most `timeout`. Uses a
    /// non-blocking accept poll (neither listener type has a native accept
    /// deadline); the accepted stream is returned in blocking mode.
    pub fn accept_timeout(&self, timeout: Duration) -> io::Result<WireStream> {
        let deadline = std::time::Instant::now() + timeout;
        self.set_nonblocking(true)?;
        let result = loop {
            match self.accept_once() {
                Ok(stream) => break Ok(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if std::time::Instant::now() >= deadline {
                        break Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no worker connected within {timeout:?}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => break Err(e),
            }
        };
        self.set_nonblocking(false)?;
        let stream = result?;
        stream.set_nonblocking(false)?;
        Ok(stream)
    }

    fn accept_once(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Unix { listener, .. } => {
                listener.accept().map(|(s, _)| WireStream::Unix(s))
            }
            WireListener::Tcp(l) => l.accept().and_then(|(s, _)| WireStream::tcp(s)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            WireListener::Unix { listener, .. } => listener.set_nonblocking(nb),
            WireListener::Tcp(l) => l.set_nonblocking(nb),
        }
    }
}

impl Drop for WireListener {
    fn drop(&mut self) {
        if let WireListener::Unix { path, .. } = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One connected wire endpoint; `Read`/`Write` pass straight through to
/// the underlying socket.
#[derive(Debug)]
pub enum WireStream {
    /// Unix domain socket stream.
    Unix(UnixStream),
    /// TCP loopback stream.
    Tcp(TcpStream),
}

impl WireStream {
    /// Frames are small and pipelined; with Nagle on, each one after the
    /// first waits out the peer's delayed ACK (~40 ms).
    fn tcp(s: TcpStream) -> io::Result<WireStream> {
        s.set_nodelay(true)?;
        Ok(WireStream::Tcp(s))
    }

    /// Connects to an address produced by [`WireListener::addr`].
    pub fn connect(addr: &str) -> io::Result<WireStream> {
        if let Some(path) = addr.strip_prefix("unix:") {
            Ok(WireStream::Unix(UnixStream::connect(path)?))
        } else if let Some(sock) = addr.strip_prefix("tcp:") {
            WireStream::tcp(TcpStream::connect(sock)?)
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("wire address '{addr}' must start with unix: or tcp:"),
            ))
        }
    }

    /// Read deadline for subsequent reads (`None` blocks forever) — the
    /// hook the remote engine's deadlock watchdog maps onto.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_read_timeout(t),
            WireStream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Write deadline for subsequent writes (`None` blocks forever): a
    /// write that makes no progress for that long fails.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_write_timeout(t),
            WireStream::Tcp(s) => s.set_write_timeout(t),
        }
    }

    /// Shuts down both directions, unblocking any reader on the peer side.
    pub fn shutdown(&self) {
        let _ = match self {
            WireStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            WireStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.set_nonblocking(nb),
            WireStream::Tcp(s) => s.set_nonblocking(nb),
        }
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Unix(s) => s.read(buf),
            WireStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Unix(s) => s.write(buf),
            WireStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Unix(s) => s.flush(),
            WireStream::Tcp(s) => s.flush(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(hdr: &FrameHeader, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, hdr, body).unwrap();
        buf
    }

    #[test]
    fn transport_kind_names_roundtrip_through_parse() {
        for kind in [
            TransportKind::InProcess,
            TransportKind::UnixSocket,
            TransportKind::Tcp,
        ] {
            assert_eq!(TransportKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(
            TransportKind::parse("unix_socket"),
            Some(TransportKind::UnixSocket)
        );
        assert_eq!(TransportKind::parse("shared-memory"), None);
        assert!(!TransportKind::InProcess.is_multiprocess());
        assert!(TransportKind::UnixSocket.is_multiprocess());
    }

    #[test]
    fn listener_addresses_name_their_kind() {
        for kind in [TransportKind::UnixSocket, TransportKind::Tcp] {
            let addr = WireListener::bind(kind).unwrap().addr().unwrap();
            assert_eq!(TransportKind::of_addr(&addr), Some(kind), "{addr}");
        }
        assert_eq!(TransportKind::of_addr("shm:/x"), None);
    }

    #[test]
    fn frame_roundtrips_and_reports_wire_size() {
        let hdr = FrameHeader {
            tag: 3,
            epoch: 7,
            peer: 2,
        };
        let body = vec![0xABu8; 300];
        let buf = frame_bytes(&hdr, &body);
        assert_eq!(buf.len(), FRAME_OVERHEAD + body.len());
        let (got_hdr, got_body) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got_hdr, hdr);
        assert_eq!(got_body, body);
    }

    #[test]
    fn clean_eof_before_any_frame_is_unexpected_eof() {
        let empty: &[u8] = &[];
        let err = read_frame(&mut &*empty).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_is_invalid_data_not_a_hang() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; HEADER_LEN]);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn body_cut_after_its_first_64_kib_is_unexpected_eof() {
        let hdr = FrameHeader {
            tag: 4,
            epoch: 0,
            peer: 2,
        };
        let mut buf = frame_bytes(&hdr, &vec![0x5Au8; 1 << 20]);
        buf.truncate(FRAME_OVERHEAD + READ_CHUNK);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("65536 of 1048576"), "{err}");
    }

    #[test]
    fn undersized_length_is_invalid_data() {
        let buf = (HEADER_LEN as u32 - 1).to_le_bytes();
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unix_socket_carries_frames_both_ways() {
        let listener = WireListener::bind(TransportKind::UnixSocket).unwrap();
        let addr = listener.addr().unwrap();
        assert!(addr.starts_with("unix:"));
        let client = std::thread::spawn(move || {
            let mut s = WireStream::connect(&addr).unwrap();
            let hdr = FrameHeader {
                tag: 1,
                epoch: 0,
                peer: 0,
            };
            write_frame(&mut s, &hdr, b"ping").unwrap();
            read_frame(&mut s).unwrap()
        });
        let mut server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let (hdr, body) = read_frame(&mut server).unwrap();
        assert_eq!((hdr.tag, body.as_slice()), (1, &b"ping"[..]));
        write_frame(
            &mut server,
            &FrameHeader {
                tag: 2,
                epoch: 9,
                peer: 1,
            },
            b"pong",
        )
        .unwrap();
        let (hdr, body) = client.join().unwrap();
        assert_eq!((hdr.tag, hdr.epoch, body.as_slice()), (2, 9, &b"pong"[..]));
    }

    #[test]
    fn unix_listener_removes_socket_file_on_drop() {
        let listener = WireListener::bind(TransportKind::UnixSocket).unwrap();
        let path = match &listener {
            WireListener::Unix { path, .. } => path.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(listener);
        assert!(!path.exists());
    }

    #[test]
    fn tcp_transport_carries_frames() {
        let listener = WireListener::bind(TransportKind::Tcp).unwrap();
        let addr = listener.addr().unwrap();
        assert!(addr.starts_with("tcp:127.0.0.1:"));
        let client = std::thread::spawn(move || {
            let mut s = WireStream::connect(&addr).unwrap();
            write_frame(
                &mut s,
                &FrameHeader {
                    tag: 0,
                    epoch: 0,
                    peer: 0,
                },
                &[1, 2, 3],
            )
            .unwrap();
        });
        let mut server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let (_, body) = read_frame(&mut server).unwrap();
        assert_eq!(body, [1, 2, 3]);
        client.join().unwrap();
    }

    #[test]
    fn accept_timeout_expires_without_a_connection() {
        let listener = WireListener::bind(TransportKind::UnixSocket).unwrap();
        let err = listener
            .accept_timeout(Duration::from_millis(30))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn read_timeout_surfaces_as_would_block_or_timed_out() {
        let listener = WireListener::bind(TransportKind::UnixSocket).unwrap();
        let addr = listener.addr().unwrap();
        let _client = WireStream::connect(&addr).unwrap();
        let mut server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        server
            .set_read_timeout(Some(Duration::from_millis(25)))
            .unwrap();
        let err = read_frame(&mut server).unwrap_err();
        // Platform-dependent: sockets report an expired read deadline as
        // either WouldBlock or TimedOut.
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
    }

    #[test]
    fn in_process_kind_has_no_listener() {
        let err = WireListener::bind(TransportKind::InProcess).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}

/// Property pass over the length-prefixed framing: the stress lane reruns
/// these at `PROPTEST_CASES=320` alongside the corrupt-payload properties
/// of the command codec.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn frames_roundtrip(tag in any::<u8>(), epoch in any::<u32>(), peer in any::<u32>(),
                            body in proptest::collection::vec(any::<u8>(), 0..2048)) {
            let hdr = FrameHeader { tag, epoch, peer };
            let mut buf = Vec::new();
            let written = write_frame(&mut buf, &hdr, &body).unwrap();
            prop_assert_eq!(written, FRAME_OVERHEAD + body.len());
            let (got_hdr, got_body) = read_frame(&mut buf.as_slice()).unwrap();
            prop_assert_eq!(got_hdr, hdr);
            prop_assert_eq!(got_body, body);
        }

        #[test]
        fn truncation_at_every_split_is_unexpected_eof(cut_sel in any::<usize>(),
                                                       body in proptest::collection::vec(any::<u8>(), 0..256)) {
            let hdr = FrameHeader { tag: 2, epoch: 1, peer: 3 };
            let mut buf = Vec::new();
            write_frame(&mut buf, &hdr, &body).unwrap();
            // Any strict prefix of a valid frame is a mid-frame EOF.
            let cut = cut_sel % buf.len();
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        }

        #[test]
        fn oversized_or_undersized_lengths_are_invalid_data(len_sel in any::<u32>(), junk in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Map the selector onto the invalid ranges: below HEADER_LEN or
            // above MAX_FRAME_LEN.
            let len = if len_sel.is_multiple_of(2) {
                len_sel % HEADER_LEN as u32
            } else {
                (MAX_FRAME_LEN as u32 + 1).saturating_add(len_sel / 2)
            };
            let mut buf = Vec::new();
            buf.extend_from_slice(&len.to_le_bytes());
            buf.extend_from_slice(&junk);
            let err = read_frame(&mut buf.as_slice()).unwrap_err();
            prop_assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_reader(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            // Decode garbage: must return Ok or a clean io::Error, never
            // panic or over-allocate.
            let _ = read_frame(&mut bytes.as_slice());
        }
    }
}
