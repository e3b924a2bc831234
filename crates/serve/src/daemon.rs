//! Daemon entry point shared by the `hfzd` binary and `hfz serve`, and the spawnable
//! [`Daemon`] builder API for embedding a daemon in-process.
//!
//! ```text
//! hfzd --listen tcp:127.0.0.1:4806 --cache-bytes 268435456 --load hacc=/data/hacc.hfz
//! ```
//!
//! Flags:
//! * `--listen ADDR` — `tcp:HOST:PORT` (port 0 = ephemeral, resolved address printed)
//!   or `unix:PATH`; default `tcp:127.0.0.1:4806`;
//! * `--cache-bytes N` — decoded-field LRU budget; default 256 MiB;
//! * `--load NAME=PATH` — preload an archive file (repeatable); more can be loaded at
//!   runtime via the `LOAD` command (`hfz load`);
//! * `--host-threads N` — host threads backing the simulated device;
//! * `--backend sim|cpu` — execution backend requests decode on (default: the
//!   `HFZ_BACKEND` environment variable, falling back to the simulated device);
//! * `--metrics ADDR` — bind an HTTP observability sidecar on `ADDR` serving
//!   `GET /metrics` (Prometheus text exposition) and `GET /healthz`;
//! * `--addr-file PATH` — write the resolved listen address to `PATH` (atomically:
//!   temp file + rename) once the daemon is accepting. This is how scripts and
//!   supervisors learn an ephemeral port without scraping stdout.
//!
//! The daemon prints one `listening on <addr>` line once it is accepting, then serves
//! until a `SHUTDOWN` request. With `--metrics`, a `metrics on <addr>` line is printed
//! *before* it, so anything that waited for `listening on` can already scrape.
//!
//! ## Embedding
//!
//! In-process consumers (tests, the router's test fleets, anything that wants a
//! daemon without a child process) use the builder instead of the blocking entry
//! point:
//!
//! ```no_run
//! use huffdec_serve::daemon::Daemon;
//! use huffdec_serve::net::ListenAddr;
//!
//! let handle = Daemon::builder()
//!     .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
//!     .cache_bytes(64 << 20)
//!     .spawn()
//!     .unwrap();
//! println!("serving on {}", handle.local_addr());
//! handle.shutdown();
//! handle.join().unwrap();
//! ```

use std::path::PathBuf;
use std::time::Duration;

use gpu_sim::GpuConfig;
use huffdec_backend::BackendKind;
use huffdec_codec::HfzError;

use crate::net::{Handle, ListenAddr};
use crate::server::{Server, ServerConfig, ServerState};

/// Default listen address when `--listen` is absent.
pub const DEFAULT_LISTEN: &str = "tcp:127.0.0.1:4806";

/// Default decoded-field cache budget (256 MiB).
pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Parsed daemon options.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Where to listen.
    pub listen: ListenAddr,
    /// Cache budget in bytes.
    pub cache_bytes: u64,
    /// `(name, path)` archives to preload.
    pub preload: Vec<(String, String)>,
    /// Host threads for the simulated device.
    pub host_threads: usize,
    /// Execution backend requests decode on.
    pub backend: BackendKind,
    /// Where to bind the HTTP metrics/health sidecar, when requested.
    pub metrics: Option<ListenAddr>,
    /// Where to write the resolved listen address, when requested.
    pub addr_file: Option<PathBuf>,
}

impl DaemonOptions {
    /// Parses `--listen/--cache-bytes/--load/--host-threads/--backend/--metrics/
    /// --addr-file` flags.
    pub fn parse(args: &[String]) -> Result<DaemonOptions, String> {
        let mut listen = ListenAddr::parse(DEFAULT_LISTEN).expect("default parses");
        let mut cache_bytes = DEFAULT_CACHE_BYTES;
        let mut preload = Vec::new();
        let mut metrics = None;
        let mut addr_file = None;
        let mut backend = BackendKind::from_env();
        let mut host_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {} expects a value", name))
            };
            match arg.as_str() {
                "--listen" => listen = ListenAddr::parse(&value("--listen")?)?,
                "--metrics" => metrics = Some(ListenAddr::parse(&value("--metrics")?)?),
                "--addr-file" => addr_file = Some(PathBuf::from(value("--addr-file")?)),
                "--cache-bytes" => {
                    cache_bytes = value("--cache-bytes")?
                        .parse()
                        .map_err(|_| "bad --cache-bytes value".to_string())?
                }
                "--backend" => {
                    let name = value("--backend")?;
                    backend = name
                        .parse()
                        .map_err(|_| format!("--backend '{}' is not sim|cpu", name))?;
                }
                "--host-threads" => {
                    host_threads = value("--host-threads")?
                        .parse()
                        .map_err(|_| "bad --host-threads value".to_string())?;
                    if host_threads == 0 {
                        return Err("--host-threads must be positive".to_string());
                    }
                }
                "--load" => {
                    let spec = value("--load")?;
                    let (name, path) = spec
                        .split_once('=')
                        .ok_or_else(|| format!("--load '{}' is not NAME=PATH", spec))?;
                    if name.is_empty() || path.is_empty() {
                        return Err("--load needs a non-empty NAME=PATH".to_string());
                    }
                    preload.push((name.to_string(), path.to_string()));
                }
                other => return Err(format!("unknown daemon flag '{}'", other)),
            }
        }
        Ok(DaemonOptions {
            listen,
            cache_bytes,
            preload,
            host_threads,
            backend,
            metrics,
            addr_file,
        })
    }
}

/// Namespace for [`Daemon::builder`].
#[derive(Debug)]
pub struct Daemon;

impl Daemon {
    /// Starts configuring an in-process daemon. See [`DaemonBuilder`].
    pub fn builder() -> DaemonBuilder {
        DaemonBuilder::default()
    }
}

/// Configures and spawns an in-process daemon; [`DaemonBuilder::spawn`] returns a
/// [`ServerHandle`].
///
/// Everything the CLI flags express is available programmatically, plus the scheduler
/// knobs ([`DaemonBuilder::queue_bound`], [`DaemonBuilder::wave_tick`]) the
/// contention tests and benches pin down.
#[derive(Debug, Clone)]
pub struct DaemonBuilder {
    listen: ListenAddr,
    cache_bytes: u64,
    preload: Vec<(String, String)>,
    host_threads: usize,
    backend: BackendKind,
    metrics: Option<ListenAddr>,
    addr_file: Option<PathBuf>,
    queue_bound: usize,
    wave_tick: Duration,
}

impl Default for DaemonBuilder {
    fn default() -> Self {
        let defaults = ServerConfig::default();
        DaemonBuilder {
            listen: ListenAddr::parse(DEFAULT_LISTEN).expect("default parses"),
            cache_bytes: DEFAULT_CACHE_BYTES,
            preload: Vec::new(),
            host_threads: defaults.host_threads,
            backend: defaults.backend,
            metrics: None,
            addr_file: None,
            queue_bound: defaults.queue_bound,
            wave_tick: defaults.wave_tick,
        }
    }
}

impl DaemonBuilder {
    /// A builder carrying everything a parsed flag set expresses.
    pub fn from_options(options: &DaemonOptions) -> DaemonBuilder {
        let mut builder = Daemon::builder()
            .listen(options.listen.clone())
            .cache_bytes(options.cache_bytes)
            .backend(options.backend)
            .host_threads(options.host_threads);
        for (name, path) in &options.preload {
            builder = builder.preload(name, path);
        }
        if let Some(addr) = &options.metrics {
            builder = builder.metrics(addr.clone());
        }
        if let Some(path) = &options.addr_file {
            builder = builder.addr_file(path.clone());
        }
        builder
    }

    /// Where to listen (default `tcp:127.0.0.1:4806`; use port 0 for ephemeral).
    pub fn listen(mut self, addr: ListenAddr) -> Self {
        self.listen = addr;
        self
    }

    /// Decoded-field LRU budget in bytes (default 256 MiB).
    pub fn cache_bytes(mut self, bytes: u64) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Execution backend requests decode on.
    pub fn backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Host threads backing the simulated device.
    pub fn host_threads(mut self, threads: usize) -> Self {
        self.host_threads = threads;
        self
    }

    /// Preloads an archive before the daemon starts serving (repeatable). A preload
    /// failure surfaces from [`DaemonBuilder::spawn`], before any thread starts.
    pub fn preload(mut self, name: &str, path: &str) -> Self {
        self.preload.push((name.to_string(), path.to_string()));
        self
    }

    /// Binds the HTTP metrics/health sidecar on `addr`.
    pub fn metrics(mut self, addr: ListenAddr) -> Self {
        self.metrics = Some(addr);
        self
    }

    /// Writes the resolved listen address to `path` (atomically) once bound.
    pub fn addr_file(mut self, path: PathBuf) -> Self {
        self.addr_file = Some(path);
        self
    }

    /// Admission bound on not-yet-started decodes (the `BUSY` threshold).
    pub fn queue_bound(mut self, bound: usize) -> Self {
        self.queue_bound = bound;
        self
    }

    /// How long the wave worker holds a decode wave open for merging.
    pub fn wave_tick(mut self, tick: Duration) -> Self {
        self.wave_tick = tick;
        self
    }

    /// Binds, preloads, writes the addr-file, and spawns the serving threads.
    ///
    /// Everything that can fail does so *here*, synchronously, with its class kept
    /// through [`HfzError`] — a bind failure is I/O, an unreadable preload is I/O, a
    /// corrupt preload is a container error — so both entry points (`hfzd` and
    /// `hfz serve`) exit with the same stable codes, and embedders never have to fish
    /// an error out of a thread.
    pub fn spawn(self) -> Result<ServerHandle, HfzError> {
        let config = ServerConfig {
            cache_bytes: self.cache_bytes,
            gpu: GpuConfig::v100(),
            backend: self.backend,
            host_threads: self.host_threads,
            queue_bound: self.queue_bound,
            wave_tick: self.wave_tick,
        };
        let server = Server::bind(&self.listen, &config)
            .map_err(|e| HfzError::io(format!("cannot bind {}", self.listen), e))?;
        let state = server.state();
        for (name, path) in &self.preload {
            state.load_archive(name, path).map_err(|e| match e {
                HfzError::Io { context, source } => HfzError::Io {
                    context: format!("cannot load '{}': {}", name, context),
                    source,
                },
                other => other,
            })?;
        }
        Handle::start(server.0, self.metrics.as_ref(), self.addr_file.as_deref())
    }
}

/// A running in-process daemon (see [`Handle`]).
pub type ServerHandle = Handle<ServerState>;

/// The blocking entry point `hfzd` and `hfz serve` wrap: spawns via the builder,
/// prints the start-up lines, and waits until shutdown.
pub fn run_foreground(options: &DaemonOptions) -> Result<(), HfzError> {
    let handle = DaemonBuilder::from_options(options).spawn()?;
    for loaded in handle.state().store().list().iter() {
        eprintln!(
            "hfzd: loaded '{}' from {} ({} fields)",
            loaded.name,
            loaded.path,
            loaded.fields().len()
        );
    }
    let budget = format!("cache budget {} bytes", options.cache_bytes);
    handle.announce_and_join("hfzd", &budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_all_flags() {
        let opts = DaemonOptions::parse(&s(&[
            "--listen",
            "tcp:127.0.0.1:9000",
            "--cache-bytes",
            "1024",
            "--load",
            "a=/tmp/a.hfz",
            "--load",
            "b=/tmp/b.hfz",
            "--host-threads",
            "3",
            "--backend",
            "cpu",
            "--metrics",
            "tcp:127.0.0.1:9100",
            "--addr-file",
            "/tmp/hfzd.addr",
        ]))
        .unwrap();
        assert_eq!(opts.listen, ListenAddr::Tcp("127.0.0.1:9000".into()));
        assert_eq!(opts.cache_bytes, 1024);
        assert_eq!(opts.host_threads, 3);
        assert_eq!(opts.backend, BackendKind::Cpu);
        assert_eq!(opts.metrics, Some(ListenAddr::Tcp("127.0.0.1:9100".into())));
        assert_eq!(opts.addr_file, Some(PathBuf::from("/tmp/hfzd.addr")));
        assert_eq!(
            opts.preload,
            vec![
                ("a".to_string(), "/tmp/a.hfz".to_string()),
                ("b".to_string(), "/tmp/b.hfz".to_string())
            ]
        );
    }

    #[test]
    fn defaults_and_bad_flags() {
        let opts = DaemonOptions::parse(&[]).unwrap();
        assert_eq!(opts.cache_bytes, DEFAULT_CACHE_BYTES);
        assert_eq!(opts.listen, ListenAddr::parse(DEFAULT_LISTEN).unwrap());
        assert_eq!(opts.metrics, None);
        assert_eq!(opts.addr_file, None);
        assert!(DaemonOptions::parse(&s(&["--metrics"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--addr-file"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--load", "nopath"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--cache-bytes", "x"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--host-threads", "0"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--backend", "cuda"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--backend"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--bogus"])).is_err());
        assert!(DaemonOptions::parse(&s(&["--listen"])).is_err());
    }

    #[test]
    fn addr_file_is_written_atomically_on_spawn() {
        let dir = std::env::temp_dir().join(format!("hfzd-addrfile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("daemon.addr");
        let handle = Daemon::builder()
            .listen(ListenAddr::parse("tcp:127.0.0.1:0").unwrap())
            .cache_bytes(1 << 20)
            .addr_file(addr_file.clone())
            .spawn()
            .unwrap();
        let written = std::fs::read_to_string(&addr_file).unwrap();
        assert_eq!(written.trim(), handle.local_addr().to_string());
        // The advertised address is dialable, and shutdown/join tears everything down.
        let parsed = ListenAddr::parse(written.trim()).unwrap();
        assert_eq!(&parsed, handle.local_addr());
        handle.shutdown();
        handle.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
