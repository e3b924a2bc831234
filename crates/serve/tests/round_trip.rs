//! Request latency floor over loopback TCP: a `LIST` round trip must not pay a
//! Nagle/delayed-ACK stall (tens of milliseconds) on either side of the socket.

use std::time::{Duration, Instant};

use huffdec_serve::client::Connection;
use huffdec_serve::net::ListenAddr;
use huffdec_serve::{BackendKind, Daemon};

/// Far above a loopback round trip (well under 1 ms), far below the ~40 ms a
/// stalled frame costs.
const CEILING: Duration = Duration::from_millis(10);

#[test]
fn list_round_trip_median_is_under_ceiling() {
    let handle = Daemon::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
        .cache_bytes(1 << 20)
        .backend(BackendKind::Cpu)
        .host_threads(1)
        .spawn()
        .unwrap();
    let mut client = Connection::connect(handle.local_addr()).unwrap();
    let mut times: Vec<Duration> = (0..20)
        .map(|_| {
            let start = Instant::now();
            client.list().unwrap();
            start.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    assert!(
        median < CEILING,
        "median LIST round trip {:?} is over {:?} (all: {:?})",
        median,
        CEILING,
        times
    );
    client.shutdown().unwrap();
    handle.join().unwrap();
}
