//! Transport and the serving loop `hfzd` and `hfzr` share.
//!
//! The daemon listens on either a TCP socket or (on Unix) a Unix-domain socket; both
//! sides of the protocol speak over a [`Conn`]. Addresses are spelled `tcp:HOST:PORT`
//! or `unix:PATH`; a bare `HOST:PORT` means TCP. `tcp:HOST:0` binds an ephemeral port —
//! [`Listener::local_addr`] reports the resolved one, which is how tests and the smoke
//! jobs avoid port collisions. Every TCP connection runs with `TCP_NODELAY`: a request
//! or reply is one frame in one write, and Nagle's algorithm would only hold it back.
//!
//! Serving: anything that implements [`Service`] (the daemon's
//! [`ServerState`](crate::ServerState), the router's state) is served by an
//! [`Endpoint`] — one blocking thread per connection, frames in and frames out in
//! order — and run in the background behind a [`Handle`], which also owns the optional
//! HTTP sidecar and the addr-file. [`Lifecycle`] is the shutdown flag the protocol
//! listener and the sidecar share.

use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use huffdec_codec::HfzError;

use crate::http::HttpServer;
use crate::protocol::{
    read_frame, write_frame, Request, Response, MAX_REQUEST_BYTES, MAX_RESPONSE_BYTES,
};
use crate::server::Health;

#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};

/// A parsed listen/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ListenAddr {
    /// `tcp:HOST:PORT`.
    Tcp(String),
    /// `unix:PATH`.
    Unix(PathBuf),
}

impl ListenAddr {
    /// Parses an address: `tcp:HOST:PORT`, `unix:PATH`, or bare `HOST:PORT` (TCP).
    pub fn parse(spec: &str) -> Result<ListenAddr, String> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            if rest.is_empty() {
                return Err("empty TCP address".to_string());
            }
            Ok(ListenAddr::Tcp(rest.to_string()))
        } else if let Some(rest) = spec.strip_prefix("unix:") {
            if rest.is_empty() {
                return Err("empty Unix socket path".to_string());
            }
            Ok(ListenAddr::Unix(PathBuf::from(rest)))
        } else if spec.contains(':') {
            Ok(ListenAddr::Tcp(spec.to_string()))
        } else {
            Err(format!(
                "address '{}' is neither tcp:HOST:PORT nor unix:PATH",
                spec
            ))
        }
    }
}

impl fmt::Display for ListenAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ListenAddr::Tcp(addr) => write!(f, "tcp:{}", addr),
            ListenAddr::Unix(path) => write!(f, "unix:{}", path.display()),
        }
    }
}

/// One accepted or dialed connection.
#[derive(Debug)]
pub enum Conn {
    /// A TCP stream.
    Tcp(TcpStream),
    /// A Unix-domain stream.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn tcp(stream: TcpStream) -> std::io::Result<Conn> {
        stream.set_nodelay(true)?;
        Ok(Conn::Tcp(stream))
    }

    /// Waits until the peer's first bytes have arrived, at most `grace`, without
    /// consuming them. Only TCP can peek; a Unix stream returns at once.
    fn await_first_bytes(&self, grace: Duration) {
        if let Conn::Tcp(s) = self {
            let _ = s.set_read_timeout(Some(grace));
            let _ = s.peek(&mut [0u8; 1]);
            let _ = s.set_read_timeout(None);
        }
    }

    /// Shuts down the read half, the write half, or both.
    pub(crate) fn shutdown(&self, how: Shutdown) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(how),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(how),
        }
    }

    /// Sets the read and write timeouts (`None` means block forever). Clients use
    /// this so a dead peer surfaces as `TimedOut` instead of hanging a blocking read.
    pub fn set_timeouts(
        &self,
        read: Option<std::time::Duration>,
        write: Option<std::time::Duration>,
    ) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }
}

// Reads and writes go through `&Conn`, as they do for `&TcpStream`: a connection
// thread reads and writes while the accept loop keeps a handle it can shut down.
impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&mut &*s).read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for &Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => (&mut &*s).write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => (&mut &*s).write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => (&mut &*s).flush(),
            #[cfg(unix)]
            Conn::Unix(s) => (&mut &*s).flush(),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        (&*self).flush()
    }
}

/// Dials `addr`.
pub fn connect(addr: &ListenAddr) -> std::io::Result<Conn> {
    match addr {
        ListenAddr::Tcp(a) => Conn::tcp(TcpStream::connect(a)?),
        #[cfg(unix)]
        ListenAddr::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        ListenAddr::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

/// The daemon's bound listening socket.
#[derive(Debug)]
pub enum Listener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (the file is removed when the listener is dropped).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Binds `addr`. A stale Unix socket file from a previous run is removed first
    /// (binding over it would otherwise fail forever).
    pub fn bind(addr: &ListenAddr) -> std::io::Result<Listener> {
        match addr {
            ListenAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a)?)),
            #[cfg(unix)]
            ListenAddr::Unix(path) => {
                if path.exists() {
                    std::fs::remove_file(path)?;
                }
                Ok(Listener::Unix(UnixListener::bind(path)?, path.clone()))
            }
            #[cfg(not(unix))]
            ListenAddr::Unix(_) => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "unix sockets are not available on this platform",
            )),
        }
    }

    /// The resolved address (for TCP this reports the actual port, so binding port 0
    /// yields a dialable address).
    pub fn local_addr(&self) -> std::io::Result<ListenAddr> {
        match self {
            Listener::Tcp(l) => Ok(ListenAddr::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            Listener::Unix(_, path) => Ok(ListenAddr::Unix(path.clone())),
        }
    }

    /// Blocks until the next connection.
    pub fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => Conn::tcp(l.accept()?.0),
            #[cfg(unix)]
            Listener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        #[cfg(unix)]
        if let Listener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// --- Serving ---------------------------------------------------------------------------

/// A protocol endpoint: `hfzd`'s [`ServerState`](crate::ServerState) and `hfzr`'s
/// router state. [`Endpoint`] serves the protocol from it and the HTTP sidecar serves
/// `/metrics` and `/healthz`.
pub trait Service: Send + Sync + 'static {
    /// Answers one request, blocking until the answer is ready.
    fn handle(&self, request: &Request) -> Response;
    /// The `/metrics` body: a Prometheus text exposition document.
    fn metrics_text(&self) -> String;
    /// The `/healthz` verdict.
    fn health(&self) -> Health;
    /// The shutdown flag, and the listeners shutdown wakes.
    fn lifecycle(&self) -> &Lifecycle;
    /// Requests shutdown (idempotent; does not wait).
    fn request_shutdown(&self) {
        self.lifecycle().request_shutdown();
    }
    /// Runs once serving has ended: the accept loop is gone and every connection
    /// thread has been joined.
    fn stopped(&self);
}

/// The shutdown flag a service's protocol listener and HTTP sidecar share, the
/// bound addresses shutdown dials to wake their blocking `accept`, and how recently
/// connections arrived (the daemon's decode scheduler holds a wave open while they
/// still are).
#[derive(Debug, Default)]
pub struct Lifecycle {
    shutdown: AtomicBool,
    /// Accepted connections whose first bytes have not arrived yet.
    intake: Arc<AtomicUsize>,
    last_accept: Mutex<Option<Instant>>,
    listener: Mutex<Option<ListenAddr>>,
    sidecar: Mutex<Option<ListenAddr>>,
}

impl Lifecycle {
    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Whether connections are still arriving: one was accepted within `within`, or
    /// one accepted less than [`FIRST_REQUEST_GRACE`] ago has not sent its first bytes
    /// yet. The daemon's scheduler holds a decode wave open while this is true, so the
    /// first requests of clients that connect together share a wave even when their
    /// threads are scheduled late.
    pub(crate) fn accepting(&self, within: Duration) -> bool {
        if self.intake.load(Ordering::SeqCst) > 0 {
            return true;
        }
        let last = *self.last_accept.lock().unwrap_or_else(|p| p.into_inner());
        last.is_some_and(|at| at.elapsed() < within)
    }

    /// Sets the flag and wakes both accept loops with throwaway connections.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for slot in [&self.listener, &self.sidecar] {
            let addr = slot.lock().unwrap_or_else(|p| p.into_inner()).clone();
            if let Some(addr) = addr {
                let _ = connect(&addr);
            }
        }
    }

    fn bound(slot: &Mutex<Option<ListenAddr>>, addr: ListenAddr) {
        *slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(addr);
    }

    pub(crate) fn sidecar_bound(&self, addr: ListenAddr) {
        Lifecycle::bound(&self.sidecar, addr);
    }
}

/// How long a connection may hold the exit once shutdown is requested: the shutdown
/// poke, a client racing it, or a reply still being written.
const EXIT_BUDGET: Duration = Duration::from_millis(200);

/// How long a freshly accepted connection counts as still arriving (see
/// [`Lifecycle::accepting`]) while its first bytes have not arrived.
pub(crate) const FIRST_REQUEST_GRACE: Duration = Duration::from_millis(10);

/// How long the accept loop backs off after an accept error that is not the peer's
/// doing (the open-file limit, memory), instead of spinning on it.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// The accept loop of the protocol endpoint and of the HTTP sidecar: one thread per
/// connection until shutdown. An accept error costs one connection, never the server:
/// the loop backs off briefly (a full file table frees up as connections close) and
/// keeps accepting.
///
/// At exit the read half of every live connection is shut, so a thread blocked on its
/// next request sees EOF while the replies it owes (the `SHUTDOWN` acknowledgement
/// among them) still get written; after [`EXIT_BUDGET`] the write half is shut as well,
/// and every thread is joined.
pub(crate) fn accept_loop<F>(listener: &Listener, lifecycle: &Lifecycle, serve: F)
where
    F: Fn(&Conn) + Clone + Send + 'static,
{
    // The loop holds only a weak handle, so a finished connection's socket closes
    // with its thread rather than when the loop next reaps it.
    let mut live: Vec<(Weak<Conn>, JoinHandle<()>)> = Vec::new();
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(_) if lifecycle.is_shutting_down() => break,
            Err(e) => {
                if !matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionAborted | std::io::ErrorKind::Interrupted
                ) {
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
                continue;
            }
        };
        if lifecycle.is_shutting_down() {
            let _ = conn.set_timeouts(Some(EXIT_BUDGET), Some(EXIT_BUDGET));
            serve(&conn);
            break;
        }
        *lifecycle
            .last_accept
            .lock()
            .unwrap_or_else(|p| p.into_inner()) = Some(Instant::now());
        live.retain(|(_, thread)| !thread.is_finished());
        let conn = Arc::new(conn);
        let watch = Arc::downgrade(&conn);
        let intake = Arc::clone(&lifecycle.intake);
        intake.fetch_add(1, Ordering::SeqCst);
        let serve = serve.clone();
        let spawned = std::thread::Builder::new().spawn(move || {
            conn.await_first_bytes(FIRST_REQUEST_GRACE);
            intake.fetch_sub(1, Ordering::SeqCst);
            serve(&conn);
        });
        match spawned {
            Ok(thread) => live.push((watch, thread)),
            // A thread that cannot be spawned drops its connection, not the server.
            Err(_) => {
                lifecycle.intake.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
    let shut = |conn: &Weak<Conn>, how: Shutdown| {
        if let Some(conn) = conn.upgrade() {
            let _ = conn.shutdown(how);
        }
    };
    for (conn, _) in &live {
        shut(conn, Shutdown::Read);
    }
    // A peer that stops reading blocks the write of its reply for good: once the
    // budget is spent, the write half is cut too.
    let deadline = Instant::now() + EXIT_BUDGET;
    while Instant::now() < deadline && live.iter().any(|(_, thread)| !thread.is_finished()) {
        std::thread::sleep(Duration::from_millis(1));
    }
    for (conn, thread) in live {
        shut(&conn, Shutdown::Both);
        let _ = thread.join();
    }
}

/// One protocol connection: frames in, frames out, in request order, until EOF or a
/// protocol violation (an oversized or truncated frame drops the connection).
fn serve_frames<S: Service>(service: &S, mut conn: &Conn) {
    while let Ok(Some(body)) = read_frame(&mut conn, MAX_REQUEST_BYTES) {
        // Once SHUTDOWN has been accepted, other connections are dropped at their next
        // frame rather than served.
        if service.lifecycle().is_shutting_down() {
            return;
        }
        let response = match Request::decode(&body) {
            Ok(request) => service.handle(&request),
            Err(e) => Response::Error(format!("bad request: {}", e)),
        };
        let last = matches!(response, Response::ShuttingDown);
        let mut reply = response.encode();
        if reply.len() as u64 > MAX_RESPONSE_BYTES as u64 {
            // A reply that cannot fit a frame (a field or merged batch past the 1 GiB
            // ceiling) degrades to a typed error instead of desyncing the stream.
            reply = Response::Error(format!(
                "response of {} bytes exceeds the {} frame limit; request a range",
                reply.len(),
                MAX_RESPONSE_BYTES
            ))
            .encode();
        }
        if write_frame(&mut conn, &reply, MAX_RESPONSE_BYTES).is_err() || last {
            return;
        }
    }
}

/// A bound protocol listener in front of a [`Service`]. Requests are not accepted
/// until [`Endpoint::run`].
#[derive(Debug)]
pub struct Endpoint<S> {
    listener: Listener,
    addr: ListenAddr,
    state: Arc<S>,
}

impl<S: Service> Endpoint<S> {
    /// Binds `addr` for `state`.
    pub fn bind(addr: &ListenAddr, state: Arc<S>) -> std::io::Result<Endpoint<S>> {
        let listener = Listener::bind(addr)?;
        let addr = listener.local_addr()?;
        Lifecycle::bound(&state.lifecycle().listener, addr.clone());
        Ok(Endpoint {
            listener,
            addr,
            state,
        })
    }

    /// The resolved listen address (for `tcp:...:0` it carries the actual port).
    pub fn local_addr(&self) -> ListenAddr {
        self.addr.clone()
    }

    /// The shared state.
    pub fn state(&self) -> Arc<S> {
        Arc::clone(&self.state)
    }

    /// Serves until shutdown, one thread per connection, then joins them all.
    pub fn run(self) -> std::io::Result<()> {
        let service = Arc::clone(&self.state);
        accept_loop(&self.listener, self.state.lifecycle(), move |conn| {
            serve_frames(&*service, conn)
        });
        self.state.stopped();
        Ok(())
    }
}

/// Writes `addr` to `path` atomically (sibling temp file + rename), so a reader
/// polling the file never observes a partial address.
fn write_addr_file(path: &Path, addr: &ListenAddr) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, format!("{}\n", addr))?;
    std::fs::rename(&tmp, path)
}

/// A service running in the background: the serving thread, the optional HTTP
/// sidecar, the shared state, and the resolved addresses.
///
/// Dropping the handle *detaches* (the threads keep serving); stopping is explicit —
/// [`Handle::shutdown`], or a client's `SHUTDOWN`, then [`Handle::join`].
#[derive(Debug)]
pub struct Handle<S> {
    state: Arc<S>,
    addr: ListenAddr,
    metrics_addr: Option<ListenAddr>,
    server: JoinHandle<std::io::Result<()>>,
    sidecar: Option<JoinHandle<std::io::Result<()>>>,
}

impl<S: Service> Handle<S> {
    /// Binds the HTTP sidecar on `metrics` (when given), writes the resolved listen
    /// address to `addr_file` (when given), and starts serving `endpoint`. The sidecar
    /// binds before the addr-file is written, so anything that waited on the file can
    /// already scrape.
    pub fn start(
        endpoint: Endpoint<S>,
        metrics: Option<&ListenAddr>,
        addr_file: Option<&Path>,
    ) -> Result<Handle<S>, HfzError> {
        let state = endpoint.state();
        let addr = endpoint.local_addr();
        let mut metrics_addr = None;
        let mut sidecar = None;
        if let Some(at) = metrics {
            let http = HttpServer::bind(at, Arc::clone(&state))
                .map_err(|e| HfzError::io(format!("cannot bind metrics sidecar {}", at), e))?;
            metrics_addr = Some(
                http.local_addr()
                    .map_err(|e| HfzError::io("metrics sidecar address", e))?,
            );
            sidecar = Some(std::thread::spawn(move || http.run()));
        }
        if let Some(path) = addr_file {
            write_addr_file(path, &addr)
                .map_err(|e| HfzError::io(format!("cannot write {}", path.display()), e))?;
        }
        Ok(Handle {
            state,
            addr,
            metrics_addr,
            server: std::thread::spawn(move || endpoint.run()),
            sidecar,
        })
    }

    /// The resolved listen address (for `tcp:...:0` it carries the actual port).
    pub fn local_addr(&self) -> &ListenAddr {
        &self.addr
    }

    /// The metrics sidecar's resolved address, when one was bound.
    pub fn metrics_addr(&self) -> Option<&ListenAddr> {
        self.metrics_addr.as_ref()
    }

    /// Handle to the shared state.
    pub fn state(&self) -> Arc<S> {
        Arc::clone(&self.state)
    }

    /// Requests shutdown (idempotent; does not wait — follow with [`Handle::join`]).
    pub fn shutdown(&self) {
        self.state.request_shutdown();
    }

    /// Waits for the serving threads to exit and surfaces how serving ended.
    pub fn join(self) -> Result<(), HfzError> {
        let result = match self.server.join() {
            Ok(result) => result.map_err(|e| HfzError::io("server failed", e)),
            Err(_) => Err(HfzError::Protocol("server thread panicked".to_string())),
        };
        if let Some(sidecar) = self.sidecar {
            // Shutdown wakes the sidecar's accept loop too; join so its socket is gone
            // before the entry point reports the service stopped.
            let _ = sidecar.join();
        }
        result
    }

    /// The foreground tail of `hfzd` and `hfzr`: prints `<name>: metrics on <addr>`
    /// (when a sidecar is bound), then `<name>: listening on <addr> (<detail>)`, on
    /// stdout and flushed — start-up scripts wait for that line — and blocks until
    /// shutdown.
    pub fn announce_and_join(self, name: &str, detail: &str) -> Result<(), HfzError> {
        let mut out = std::io::stdout();
        if let Some(addr) = self.metrics_addr() {
            let _ = writeln!(out, "{}: metrics on {}", name, addr);
        }
        let _ = writeln!(
            out,
            "{}: listening on {} ({})",
            name,
            self.local_addr(),
            detail
        );
        let _ = out.flush();
        self.join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_parsing() {
        assert_eq!(
            ListenAddr::parse("tcp:127.0.0.1:4806").unwrap(),
            ListenAddr::Tcp("127.0.0.1:4806".into())
        );
        assert_eq!(
            ListenAddr::parse("127.0.0.1:0").unwrap(),
            ListenAddr::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            ListenAddr::parse("unix:/tmp/hfzd.sock").unwrap(),
            ListenAddr::Unix(PathBuf::from("/tmp/hfzd.sock"))
        );
        assert!(ListenAddr::parse("nonsense").is_err());
        assert!(ListenAddr::parse("tcp:").is_err());
        assert!(ListenAddr::parse("unix:").is_err());
        assert_eq!(ListenAddr::parse("tcp:h:1").unwrap().to_string(), "tcp:h:1");
    }

    #[test]
    fn tcp_ephemeral_port_resolves() {
        let listener = Listener::bind(&ListenAddr::parse("tcp:127.0.0.1:0").unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        match &addr {
            ListenAddr::Tcp(a) => assert!(!a.ends_with(":0"), "port must be resolved: {}", a),
            _ => panic!("expected tcp"),
        }
        // The resolved address is dialable.
        let handle = std::thread::spawn(move || listener.accept().map(|_| ()));
        connect(&addr).unwrap();
        handle.join().unwrap().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_binds_and_cleans_up() {
        let dir = std::env::temp_dir().join("hfzd-net-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.sock");
        // A stale socket file is replaced, and dropping the listener removes it.
        std::fs::write(&path, b"stale").unwrap();
        let addr = ListenAddr::Unix(path.clone());
        let listener = Listener::bind(&addr).unwrap();
        let handle = std::thread::spawn(move || listener.accept().map(|_| ()));
        connect(&addr).unwrap();
        handle.join().unwrap().unwrap();
        assert!(!path.exists(), "socket file removed on drop");
    }
}
