//! `cmpi.transport`: frame round trips over a real Unix-socket pair (this
//! thread and an echo thread), and the framing itself into memory.

use super::{median_ns, Metrics};
use cmpi::transport::{read_frame, write_frame, FrameHeader};
use cmpi::{TransportKind, WireListener, WireStream};
use std::time::Duration;

const ECHO: u8 = 1;
const QUIT: u8 = 2;
const MIB: usize = 1 << 20;

fn header(tag: u8) -> FrameHeader {
    FrameHeader {
        tag,
        epoch: 0,
        peer: 0,
    }
}

pub fn probe(samples: usize, m: &mut Metrics) {
    let listener = WireListener::bind(TransportKind::UnixSocket).expect("bind a unix socket");
    let addr = listener.addr().expect("listener address");
    let echo = std::thread::spawn(move || {
        let mut stream = WireStream::connect(&addr).expect("connect to the listener");
        loop {
            let (hdr, body) = read_frame(&mut stream).expect("echo read");
            if hdr.tag == QUIT {
                return;
            }
            write_frame(&mut stream, &hdr, &body).expect("echo write");
        }
    });
    let mut stream = listener
        .accept_timeout(Duration::from_secs(10))
        .expect("the echo thread connects");

    let payload = vec![0xA5u8; MIB];
    for (name, body) in [
        ("cmpi.transport.unix_rtt_us_p50.empty", &payload[..0]),
        ("cmpi.transport.unix_rtt_us_p50.1mib", &payload[..]),
    ] {
        let ns = median_ns(samples, || {
            write_frame(&mut stream, &header(ECHO), body).expect("write");
            read_frame(&mut stream).expect("read").1.len()
        });
        m.push(name, ns / 1e3, "us");
    }
    write_frame(&mut stream, &header(QUIT), &[]).expect("quit frame");
    echo.join().expect("echo thread");

    let mut wire = Vec::with_capacity(MIB + 64);
    let ns = median_ns(samples, || {
        wire.clear();
        write_frame(&mut wire, &header(ECHO), &payload).expect("frame into memory");
        read_frame(&mut wire.as_slice())
            .expect("frame out of memory")
            .1
            .len()
    });
    m.push("cmpi.transport.frame_mib_per_s", 1.0 / (ns * 1e-9), "MiB/s");
}
