//! Shard worker process for the socket shard transports.
//!
//! Spawned by the controller (`qmpi::backend::remote_transport`), never by
//! hand: `qworker <addr> <rank> <watchdog_ms>`. It connects back to the
//! controller's listener, authenticates with a HELLO frame, links to every
//! other worker of its world, and runs the shard event loop until shut
//! down.

fn main() {
    qmpi::qworker_main();
}
