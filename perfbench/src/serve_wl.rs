//! The serving phases: in-process `hfzd` daemons on loopback TCP, driven by
//! closed-loop client threads (each sends its next request only after the previous
//! reply).
//!
//! * hot: 64 small fields and one 1M-element field, cache far above the working
//!   set and warmed before timing, so the timed traffic performs no decodes; small
//!   `GET`s also go through an in-process `hfzr` attached to the daemon.
//! * cold: eight 256K-element HACC fields behind a cache of about a quarter of
//!   their decoded size, requested in seeded order so most `GET`s miss.

use std::path::Path;
use std::time::Instant;

use datasets::{dataset_by_name, generate, Field};
use huffdec_codec::{BackendKind, Codec, MetricsSnapshot};
use huffdec_core::DecoderKind;
use huffdec_router::{Router, RouterHandle};
use huffdec_serve::{Connection, Daemon, GetKind, ListenAddr, Request, Response, ServerHandle};

use crate::codec_wl::cpu_codec;
use crate::rec::{expect, msg, Rng, Samples, Tally, Tracer};

const ARCHIVE: &str = "bench";
const SMALL_FIELDS: usize = 64;
const SMALL_ELEMENTS: usize = 1024;
/// The large field's index in the hot snapshot (after the small ones).
const LARGE: usize = SMALL_FIELDS;
const LARGE_ELEMENTS: usize = 1_000_000;
const COLD_FIELDS: usize = 8;
const COLD_ELEMENTS: usize = 256 * 1024;

fn f32_le(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn get_request(field: usize) -> Request {
    Request::Get {
        archive: ARCHIVE.to_string(),
        field: field as u32,
        kind: GetKind::Data,
        range: None,
    }
}

fn generate_named(dataset: &str, elements: usize, seed: u64) -> Result<Field, String> {
    let spec = dataset_by_name(dataset).ok_or_else(|| format!("unknown dataset {}", dataset))?;
    Ok(generate(&spec, elements, seed))
}

/// Compresses `fields` into one snapshot file at `path`. Returns the snapshot bytes
/// and the direct decompress of every field as wire bytes (the reference every
/// reply must equal).
fn write_snapshot(
    codec: &Codec,
    fields: &[(String, Field)],
    path: &Path,
) -> Result<(Vec<u8>, Vec<Vec<u8>>), String> {
    let archives = fields
        .iter()
        .map(|(_, f)| codec.compress_archive(f))
        .collect::<Result<Vec<_>, _>>()
        .map_err(msg)?;
    let named: Vec<(&str, &sz::Compressed)> = fields
        .iter()
        .zip(&archives)
        .map(|((name, _), c)| (name.as_str(), c))
        .collect();
    let bytes = codec.snapshot_to_bytes(&named).map_err(msg)?;
    std::fs::write(path, &bytes).map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
    let handle = codec.open_snapshot_bytes(&bytes).map_err(msg)?;
    let refs = handle
        .fields()
        .iter()
        .map(|f| codec.decompress_field(f).map(|d| f32_le(&d.data)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(msg)?;
    Ok((bytes, refs))
}

/// Spawns a measured daemon serving the snapshot at `archive`; refuses a modeled
/// backend.
fn spawn_daemon(
    listen: &str,
    cache_bytes: u64,
    host_threads: usize,
    archive: &Path,
) -> Result<ServerHandle, String> {
    let daemon = Daemon::builder()
        .listen(ListenAddr::parse(listen)?)
        .cache_bytes(cache_bytes)
        .backend(BackendKind::Cpu)
        .host_threads(host_threads)
        .preload(ARCHIVE, &archive.to_string_lossy())
        .spawn()
        .map_err(msg)?;
    if daemon.state().backend().is_modeled() {
        stop_daemon(daemon)?;
        return Err("the daemon runs a modeled backend; refusing to record".to_string());
    }
    Ok(daemon)
}

fn stop_daemon(daemon: ServerHandle) -> Result<(), String> {
    daemon.shutdown();
    daemon.join().map_err(msg)
}

/// Checks an in-process reply against the reference bytes; returns `from_cache`.
fn check_reply(response: &Response, reference: &[u8]) -> Result<bool, String> {
    match response {
        Response::Get {
            from_cache, bytes, ..
        } => {
            expect(bytes.as_slice() == reference, || {
                "reply differs from the direct decompress".to_string()
            })?;
            Ok(*from_cache)
        }
        other => Err(format!("unexpected reply {:?}", other)),
    }
}

/// One `GET` over a connection: the check (`from_cache` on success) and the
/// latency in ms.
fn client_get(
    conn: &mut Connection,
    field: usize,
    reference: &[u8],
) -> (Result<bool, String>, f64) {
    let t0 = Instant::now();
    let reply = conn.get(ARCHIVE, field as u32, GetKind::Data, None);
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let check = match reply {
        Ok(r) if r.bytes == reference => Ok(r.from_cache),
        Ok(_) => Err(format!("GET {} differs from the direct decompress", field)),
        Err(e) => Err(format!("GET {} failed: {}", field, e)),
    };
    (check, ms)
}

fn must_hit(check: Result<bool, String>) -> Result<(), String> {
    check.and_then(|cached| expect(cached, || "a hot GET missed the cache".to_string()))
}

pub struct HotSetup {
    daemon: ServerHandle,
    router: RouterHandle,
    unix: ServerHandle,
    refs: Vec<Vec<u8>>,
    list_ref: String,
}

/// Builds the hot snapshot, spawns the TCP daemon, the router in front of it and a
/// second daemon on a unix socket, and warms both caches in-process.
pub fn setup_hot(
    seed: u64,
    host_threads: usize,
    dir: &Path,
    tally: &mut Tally,
) -> Result<HotSetup, String> {
    let codec = cpu_codec(host_threads, DecoderKind::OptimizedGapArray)?;
    let kinds = ["HACC", "CESM", "Nyx", "QMCPack"];
    let mut fields = Vec::new();
    for i in 0..SMALL_FIELDS {
        let field_seed = seed.wrapping_mul(7919).wrapping_add(i as u64);
        let field = generate_named(kinds[i % kinds.len()], SMALL_ELEMENTS, field_seed)?;
        fields.push((format!("small{:02}", i), field));
    }
    let large = generate_named("HACC", LARGE_ELEMENTS, seed.wrapping_add(77))?;
    fields.push(("large".to_string(), large));
    let path = dir.join("hot.hfz");
    let (_, refs) = write_snapshot(&codec, &fields, &path)?;

    let daemon = spawn_daemon("tcp:127.0.0.1:0", 1 << 30, host_threads, &path)?;
    let router = Router::builder()
        .listen(ListenAddr::parse("tcp:127.0.0.1:0")?)
        .attach(daemon.local_addr().clone())
        .preload(ARCHIVE, &path.to_string_lossy())
        .spawn()
        .map_err(msg)?;
    let sock = dir.join("hot.sock");
    let unix = spawn_daemon(
        &format!("unix:{}", sock.display()),
        1 << 30,
        host_threads,
        &path,
    )?;

    for state in [daemon.state(), unix.state()] {
        for (i, reference) in refs.iter().enumerate() {
            tally.record(check_reply(&state.handle(&get_request(i)), reference).map(|_| ()));
        }
    }
    let list_ref = Connection::connect(daemon.local_addr())
        .and_then(|mut conn| conn.list())
        .map_err(msg)?;
    tally.record(expect(list_ref.contains(ARCHIVE), || {
        "LIST does not name the loaded archive".to_string()
    }));
    Ok(HotSetup {
        daemon,
        router,
        unix,
        refs,
        list_ref,
    })
}

pub fn teardown_hot(h: HotSetup) -> Result<(), String> {
    h.router.shutdown();
    h.router.join().map_err(msg)?;
    stop_daemon(h.daemon)?;
    stop_daemon(h.unix)
}

pub struct ColdSetup {
    daemon: ServerHandle,
    refs: Vec<Vec<u8>>,
    codec: Codec,
    snapshot: Vec<u8>,
}

pub fn setup_cold(
    seed: u64,
    host_threads: usize,
    dir: &Path,
    tally: &mut Tally,
) -> Result<ColdSetup, String> {
    let codec = cpu_codec(host_threads, DecoderKind::OptimizedGapArray)?;
    let fields = (0..COLD_FIELDS)
        .map(|i| {
            let field_seed = seed.wrapping_mul(104_729).wrapping_add(i as u64);
            Ok((
                format!("cold{}", i),
                generate_named("HACC", COLD_ELEMENTS, field_seed)?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let path = dir.join("cold.hfz");
    let (snapshot, refs) = write_snapshot(&codec, &fields, &path)?;
    let working_set: u64 = refs.iter().map(|r| r.len() as u64).sum();
    let daemon = spawn_daemon("tcp:127.0.0.1:0", working_set / 4, host_threads, &path)?;
    let state = daemon.state();
    for (i, reference) in refs.iter().enumerate() {
        tally.record(check_reply(&state.handle(&get_request(i)), reference).map(|_| ()));
    }
    Ok(ColdSetup {
        daemon,
        refs,
        codec,
        snapshot,
    })
}

pub fn teardown_cold(c: ColdSetup) -> Result<(), String> {
    stop_daemon(c.daemon)
}

/// The timed traffic of one phase: merged client samples and checks, and the
/// daemon's metrics snapshot before and after it.
pub struct Traffic {
    pub samples: Samples,
    pub tally: Tally,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

/// One client op: its sample name, latency (ms) and check.
type Step = (&'static str, f64, Result<(), String>);

/// Runs `clients` closed-loop threads for `seconds`. `make(k)` builds client `k`'s
/// step function, called with whether to trace the op; a traced op reports its
/// span's duration as its latency. A passing op's latency is recorded under its
/// name, and in a traced run also under `traced.`/`untraced.`.
fn run_clients<S: FnMut(bool) -> Step>(
    daemon: &ServerHandle,
    clients: usize,
    seconds: f64,
    tr: &Tracer,
    make: impl Fn(usize) -> S + Sync,
) -> Traffic {
    let state = daemon.state();
    let before = state.metrics_snapshot();
    let make = &make;
    let outs: Vec<(Samples, Tally)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || {
                    let (mut samples, mut tally) = (Samples::default(), Tally::default());
                    let mut step = make(k);
                    let start = Instant::now();
                    let mut n = 0u64;
                    while start.elapsed().as_secs_f64() < seconds {
                        let traced = tr.enabled() && n % 2 == 1;
                        n += 1;
                        let (name, ms, check) = step(traced);
                        if check.is_ok() {
                            samples.push(name, ms);
                            if tr.enabled() {
                                let tag = if traced { "traced." } else { "untraced." };
                                samples.push(&format!("{}{}", tag, name), ms);
                            }
                        }
                        tally.record(check);
                    }
                    (samples, tally)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut traffic = Traffic {
        samples: Samples::default(),
        tally: Tally::default(),
        before,
        after: state.metrics_snapshot(),
    };
    for (samples, tally) in outs {
        traffic.samples.extend(samples);
        traffic.tally.merge(tally);
    }
    traffic
}

/// The hot mix: small `GET`, 4 MB `GET`, `LIST` and small `GET` through the
/// router, a quarter each, drawn with the fields from each client's seeded
/// generator. Equal shares are an assumption, not observed traffic.
pub fn measure_hot(h: &HotSetup, seed: u64, clients: usize, seconds: f64, tr: &Tracer) -> Traffic {
    run_clients(&h.daemon, clients, seconds, tr, |k| {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(k as u64));
        let mut direct = Connection::new(h.daemon.local_addr().clone());
        let mut routed = Connection::new(h.router.local_addr().clone());
        move |traced| {
            let kind = rng.below(4);
            let small = rng.below(SMALL_FIELDS);
            let (name, field, conn) = match kind {
                0 => ("get_small", Some(small), &mut direct),
                1 => ("get_large", Some(LARGE), &mut direct),
                2 => ("list", None, &mut direct),
                _ => ("get_small_routed", Some(small), &mut routed),
            };
            let open = traced.then(|| tr.begin(&format!("serve.{}", name), None, tr.new_op()));
            let (check, ms) = match field {
                Some(f) => {
                    let (check, ms) = client_get(conn, f, &h.refs[f]);
                    (must_hit(check), ms)
                }
                None => {
                    let t0 = Instant::now();
                    let reply = conn.list();
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let check = match reply {
                        Ok(doc) => expect(doc == h.list_ref, || "LIST reply changed".to_string()),
                        Err(e) => Err(format!("LIST failed: {}", e)),
                    };
                    (check, ms)
                }
            };
            let ms = open.map_or(ms, |open| tr.end(open));
            (name, ms, check)
        }
    })
}

/// Each client cycles through the cold fields in its own seeded order. Latencies
/// are split by the reply's `from_cache` flag.
pub fn measure_cold(
    c: &ColdSetup,
    seed: u64,
    clients: usize,
    seconds: f64,
    tr: &Tracer,
) -> Traffic {
    run_clients(&c.daemon, clients, seconds, tr, |k| {
        let mut rng = Rng::new(seed.wrapping_mul(131).wrapping_add(k as u64));
        let mut conn = Connection::new(c.daemon.local_addr().clone());
        let mut order = Vec::new();
        move |traced| {
            if order.is_empty() {
                order = rng.permutation(COLD_FIELDS);
            }
            let field = order.pop().expect("refilled above");
            let open = traced.then(|| tr.begin("serve.get_cold", None, tr.new_op()));
            let (check, ms) = client_get(&mut conn, field, &c.refs[field]);
            let ms = open.map_or(ms, |open| tr.end(open));
            let name = if check == Ok(true) {
                "get_cold_hit"
            } else {
                "get_cold_miss"
            };
            (name, ms, check.map(|_| ()))
        }
    })
}

/// In-process and single-connection probes of the hot daemon's layers.
pub fn probe_hot(h: &HotSetup, seed: u64, tr: &Tracer, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    let state = h.daemon.state();
    let mut rng = Rng::new(seed ^ 0x5eed);
    for _ in 0..200 {
        let f = rng.below(SMALL_FIELDS);
        let (reply, ms) = tr.span("serve.handle_small", None, tr.new_op(), || {
            state.handle(&get_request(f))
        });
        let check = must_hit(check_reply(&reply, &h.refs[f]));
        if check.is_ok() {
            s.push("serve.handle_small_us", ms * 1e3);
        }
        tally.record(check);
    }
    for _ in 0..20 {
        let op = tr.new_op();
        let (reply, ms) = tr.span("serve.handle_large", None, op, || {
            state.handle(&get_request(LARGE))
        });
        let check = must_hit(check_reply(&reply, &h.refs[LARGE]));
        let (body, encode_ms) = tr.span("serve.protocol.encode", None, op, || reply.encode());
        let (decoded, decode_ms) = tr.span("serve.protocol.decode", None, op, || {
            Response::decode(&body)
        });
        let check = check.and_then(|_| match decoded {
            Ok(r) => expect(r == reply, || {
                "protocol round trip changed the reply".to_string()
            }),
            Err(e) => Err(format!("protocol decode failed: {}", e)),
        });
        if check.is_ok() {
            s.push("serve.handle_large_ms", ms);
            s.push("serve.protocol.large_reply_encode_ms", encode_ms);
            s.push("serve.protocol.large_reply_decode_ms", decode_ms);
        }
        tally.record(check);
    }
    for (name, addr) in [
        ("net.tcp_small", h.daemon.local_addr()),
        ("net.unix_small", h.unix.local_addr()),
    ] {
        let mut conn = Connection::new(addr.clone());
        for _ in 0..40 {
            let f = rng.below(SMALL_FIELDS);
            let open = tr.begin(name, None, tr.new_op());
            let (check, ms) = client_get(&mut conn, f, &h.refs[f]);
            tr.end(open);
            let check = must_hit(check);
            if check.is_ok() {
                s.push(&format!("{}_ms", name), ms);
            }
            tally.record(check);
        }
    }
    s
}

/// In-process misses on the cold daemon beside the same decode with no daemon.
/// Cycling through all fields keeps the in-process requests misses (the cache
/// holds about two of the eight).
pub fn probe_cold(c: &ColdSetup, tr: &Tracer, tally: &mut Tally) -> Samples {
    let mut s = Samples::default();
    let state = c.daemon.state();
    for i in 0..2 * COLD_FIELDS {
        let f = i % COLD_FIELDS;
        let (reply, ms) = tr.span("serve.handle_cold", None, tr.new_op(), || {
            state.handle(&get_request(f))
        });
        let check = check_reply(&reply, &c.refs[f]);
        if check == Ok(false) {
            s.push("serve.handle_cold_ms", ms);
        }
        tally.record(check.map(|_| ()));
    }
    let handle = match c.codec.open_snapshot_bytes(&c.snapshot) {
        Ok(handle) => handle,
        Err(e) => {
            tally.record(Err(e.to_string()));
            return s;
        }
    };
    for i in 0..2 * COLD_FIELDS {
        let f = i % COLD_FIELDS;
        let (out, ms) = tr.span("codec.decompress_field", None, tr.new_op(), || {
            c.codec.decompress_field(&handle.fields()[f])
        });
        let check = match out {
            Ok(d) => expect(f32_le(&d.data) == c.refs[f], || {
                "direct decompress differs from the reference".to_string()
            }),
            Err(e) => Err(e.to_string()),
        };
        if check.is_ok() {
            s.push("codec.decompress_field_ms", ms);
        }
        tally.record(check);
    }
    s
}
