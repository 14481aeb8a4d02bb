//! Shard worker process for the `*_remote_unix` workloads and probes;
//! spawned by the controller, never by hand.

fn main() {
    qmpi::qworker_main();
}
