//! Shutdown contract shared by `hfzd` and `hfzr`: a `SHUTDOWN` from one client ends
//! the server promptly even while another client holds an idle connection open, or
//! has stopped reading a reply.

use std::sync::mpsc;
use std::time::Duration;

use datasets::{dataset_by_name, generate};
use huffdec_router::Router;
use huffdec_serve::client::Connection;
use huffdec_serve::net::{connect, Handle, ListenAddr, Service};
use huffdec_serve::protocol::{write_frame, GetKind, Request, MAX_REQUEST_BYTES};
use huffdec_serve::{BackendKind, Codec, Daemon, HfzError};

/// How long `join` may take once `SHUTDOWN` was acknowledged.
const JOIN_DEADLINE: Duration = Duration::from_secs(5);

fn ephemeral() -> ListenAddr {
    ListenAddr::parse("tcp:127.0.0.1:0").unwrap()
}

/// Shuts the server down from a fresh connection and requires `join` to return
/// within the deadline.
fn shutdown_within_deadline<S: Service>(handle: Handle<S>) {
    let addr = handle.local_addr().clone();
    Connection::connect(&addr).unwrap().shutdown().unwrap();
    let (done, joined) = mpsc::channel::<Result<(), HfzError>>();
    std::thread::spawn(move || {
        let _ = done.send(handle.join());
    });
    match joined.recv_timeout(JOIN_DEADLINE) {
        Ok(result) => result.unwrap(),
        Err(_) => panic!(
            "{}: join still blocked {:?} after SHUTDOWN",
            addr, JOIN_DEADLINE
        ),
    }
}

/// Opens an idle connection, then shuts the server down from a second one.
fn shutdown_with_idle_client<S: Service>(handle: Handle<S>) {
    let mut idle = Connection::connect(handle.local_addr()).unwrap();
    // One round trip proves the idle connection is being served before it goes quiet.
    idle.list().unwrap();
    shutdown_within_deadline(handle);
}

fn daemon() -> huffdec_serve::ServerHandle {
    Daemon::builder()
        .listen(ephemeral())
        .cache_bytes(1 << 20)
        .backend(BackendKind::Cpu)
        .host_threads(1)
        .spawn()
        .unwrap()
}

#[test]
fn idle_connection_does_not_hold_shutdown() {
    // hfzd.
    shutdown_with_idle_client(daemon());

    // hfzr, in front of one attached daemon.
    let shard = daemon();
    let router = Router::builder()
        .listen(ephemeral())
        .attach(shard.local_addr().clone())
        .spawn()
        .unwrap();
    shutdown_with_idle_client(router);
    shard.shutdown();
    shard.join().unwrap();
}

#[test]
fn stalled_reader_does_not_hold_shutdown() {
    let codec = Codec::builder()
        .backend(BackendKind::Cpu)
        .host_threads(1)
        .build()
        .unwrap();
    let field = generate(&dataset_by_name("HACC").unwrap(), 16_384, 3);
    let archive = codec.compress_archive(&field).unwrap();
    let path = std::env::temp_dir().join(format!("hfzr-stalled-{}.hfz", std::process::id()));
    std::fs::write(&path, codec.snapshot_to_bytes(&[("f", &archive)]).unwrap()).unwrap();
    let handle = Daemon::builder()
        .listen(ephemeral())
        .cache_bytes(1 << 20)
        .backend(BackendKind::Cpu)
        .host_threads(1)
        .preload("a", path.to_str().unwrap())
        .spawn()
        .unwrap();

    // One GETBATCH whose 16 MiB reply far exceeds the socket buffers, never read:
    // the connection thread stays blocked writing it.
    let mut stalled = connect(handle.local_addr()).unwrap();
    let batch = Request::GetBatch {
        archive: "a".to_string(),
        kind: GetKind::Data,
        fields: vec![0; 256],
    };
    write_frame(&mut stalled, &batch.encode(), MAX_REQUEST_BYTES).unwrap();
    let state = handle.state();
    while state.metrics_snapshot().batch_gets == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown_within_deadline(handle);
    drop(stalled);
    let _ = std::fs::remove_file(&path);
}
