//! perfbench — the measured wall-clock benchmark of the huffdec workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload codec|serve-hot|serve-cold --seed N --seconds S --trace 0|1
//! ```
//!
//! Every run executes three phases on the `cpu` backend — codec (in-process round
//! trips), serve-hot (cache hits over loopback and through a router) and
//! serve-cold (cache misses) — so that each run reports the full metric set; the
//! workload decides how `--seconds` is shared between them. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` wraps every call into a layer in a
//! benchmark-side span and prints the per-layer metrics, writing the spans to
//! `.perfbench/` when the run ends. The last line of stdout is the result object.

mod codec_wl;
mod rec;
mod serve_wl;
mod yardstick;

use std::path::{Path, PathBuf};
use std::time::Instant;

use rec::{percentile, Samples, Tally, Tracer};

const WORKLOADS: [&str; 3] = ["codec", "serve-hot", "serve-cold"];
/// Share of `--seconds` each phase (codec, serve-hot, serve-cold) gets, per
/// workload: the workload's own phase half, the other two a quarter each.
const SHARES: [[f64; 3]; 3] = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]];
/// Set-up is repeated this many times per run and reported as the median.
const SETUP_REPS: usize = 3;
const SCRATCH: &str = ".perfbench";

struct Args {
    workload: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 25.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{} needs a value", flag))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().position(|w| w == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload '{}'", value))?);
            }
            "--seed" => seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds takes a number")?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {}", other)),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Time the hypervisor took the vCPUs away (the `steal` column of `/proc/stat`,
/// in clock ticks), when the host reports it. Steal bursts are what make
/// run-to-run CPU timings drift on a shared machine.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The metrics of a run in print order: name, value, unit, sample count.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, String, Option<usize>)>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string(), None));
    }

    /// A timing: percentile `q` of the samples named `sample`, with their count.
    fn timing(
        &mut self,
        s: &Samples,
        name: &str,
        sample: &str,
        q: f64,
        unit: &str,
    ) -> Result<(), String> {
        let values = s.get(sample);
        let v = percentile(values, q).ok_or_else(|| format!("no samples for {}", name))?;
        self.metrics
            .push((name.to_string(), v, unit.to_string(), Some(values.len())));
        Ok(())
    }

    /// A median in ms of the samples of the same name.
    fn ms(&mut self, s: &Samples, name: &str) -> Result<(), String> {
        self.timing(s, name, name, 0.5, "ms")
    }
}

fn median(s: &Samples, name: &str) -> Result<f64, String> {
    s.median(name)
        .ok_or_else(|| format!("no samples for {}", name))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {}", e);
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {}", e);
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<i32, String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clients = nproc.min(2);
    let tr = Tracer::new(args.trace);
    // Per-run scratch for the archive files the daemons load and the unix socket.
    let dir = PathBuf::from(SCRATCH).join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {}", dir.display(), e))?;

    println!("workload      {}", WORKLOADS[args.workload]);
    println!("seed          {}", args.seed);
    println!("backend       cpu (measured)");
    println!("host threads  {}", nproc);
    println!("clients       {} closed-loop", clients);
    println!("nproc         {}", nproc);
    println!("cpu           {}", cpu_model());
    println!("rustc         {}", env!("PERFBENCH_RUSTC"));
    println!("tracing       {}", if args.trace { "on" } else { "off" });

    let steal_before = steal_ticks();
    let mut tally = Tally::default();
    let result = phases(args, &tr, &dir, nproc, clients, &mut tally);
    if let (Some(a), Some(b)) = (steal_before, steal_ticks()) {
        println!("steal         {} ticks during the run", b.saturating_sub(a));
    }
    let _ = std::fs::remove_dir_all(&dir);
    // An error that stopped the run counts as one more failed op; the result line
    // is still printed.
    let report = result.unwrap_or_else(|e| {
        tally.record(Err(e));
        Report::default()
    });

    if args.trace {
        let name = format!("trace-{}-seed{}.jsonl", WORKLOADS[args.workload], args.seed);
        let path = Path::new(SCRATCH).join(name);
        let spans = tr.take();
        rec::write_spans(&path, &spans)
            .map_err(|e| format!("cannot write {}: {}", path.display(), e))?;
        println!(
            "spans         {} written to {}",
            spans.len(),
            path.display()
        );
    }

    println!();
    for (name, value, unit, n) in &report.metrics {
        match n {
            Some(n) => println!("{:<44} {:>14.4} {:<6} n={}", name, value, unit, n),
            None => println!("{:<44} {:>14.4} {}", name, value, unit),
        }
    }
    if let Some(reason) = &tally.first_failure {
        println!(
            "FAILED        {} of {} ops; first: {}",
            tally.failed, tally.attempted, reason
        );
    }
    let correct = tally.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                name, value, unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    );
    Ok(if correct { 0 } else { 1 })
}

/// Sets up and measures the three phases in turn; only one phase's daemons run at
/// a time. Returns the metrics of the run's mode; every op is counted in `tally`.
fn phases(
    args: &Args,
    tr: &Tracer,
    dir: &Path,
    host_threads: usize,
    clients: usize,
    tally: &mut Tally,
) -> Result<Report, String> {
    let budget = |phase: usize| args.seconds * SHARES[args.workload][phase];
    let mut setup_s = [0.0f64; SETUP_REPS];
    let mut s = Samples::default();
    let mut layer = Report::default();

    // ----- codec -----
    let mut cs = None;
    for t in setup_s.iter_mut() {
        drop(cs.take());
        let t0 = Instant::now();
        cs = Some(codec_wl::setup(args.seed, host_threads, tally)?);
        *t += t0.elapsed().as_secs_f64();
    }
    let cs = cs.expect("set up at least once");
    // Traced runs alternate untraced and traced passes; keep three of each.
    let min_passes = if args.trace { 6 } else { 3 };
    s.extend(codec_wl::measure(&cs, budget(0), min_passes, tr, tally));
    let compression_ratio = codec_wl::compression_ratio(&cs);
    let counts = codec_wl::counts(&cs);
    drop(cs);

    // ----- serve-hot -----
    let mut hot = None;
    for t in setup_s.iter_mut() {
        if let Some(h) = hot.take() {
            serve_wl::teardown_hot(h)?;
        }
        let t0 = Instant::now();
        hot = Some(serve_wl::setup_hot(args.seed, host_threads, dir, tally)?);
        *t += t0.elapsed().as_secs_f64();
    }
    let hot = hot.expect("set up at least once");
    let traffic = serve_wl::measure_hot(&hot, args.seed, clients, budget(1), tr);
    if args.trace {
        s.extend(serve_wl::probe_hot(&hot, args.seed, tr, tally));
    }
    serve_wl::teardown_hot(hot)?;
    let (before, after) = (&traffic.before, &traffic.after);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    layer.put(
        "serve.hot.cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    let decodes = after.total_decodes() - before.total_decodes();
    layer.put("serve.hot.decodes", decodes as f64, "count");
    tally.merge(traffic.tally);
    s.extend(traffic.samples);

    // ----- serve-cold -----
    let mut cold = None;
    for t in setup_s.iter_mut() {
        if let Some(c) = cold.take() {
            serve_wl::teardown_cold(c)?;
        }
        let t0 = Instant::now();
        cold = Some(serve_wl::setup_cold(args.seed, host_threads, dir, tally)?);
        *t += t0.elapsed().as_secs_f64();
    }
    let cold = cold.expect("set up at least once");
    let traffic = serve_wl::measure_cold(&cold, args.seed, clients, budget(2), tr);
    if args.trace {
        s.extend(serve_wl::probe_cold(&cold, tr, tally));
    }
    serve_wl::teardown_cold(cold)?;
    let (before, after) = (&traffic.before, &traffic.after);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let decodes = (after.total_decodes() - before.total_decodes()) as f64;
    layer.put(
        "serve.cold.cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    );
    layer.put("serve.cold.cache.hits", hits, "count");
    layer.put("serve.cold.cache.misses", misses, "count");
    let sched = [
        (
            "serve.sched.coalesced",
            after.sched_coalesced - before.sched_coalesced,
        ),
        ("serve.sched.waves", after.sched_waves - before.sched_waves),
        (
            "serve.sched.multi_field_waves",
            after.sched_multi_field_waves - before.sched_multi_field_waves,
        ),
        ("serve.sched.shed", after.sched_shed - before.sched_shed),
    ];
    for (name, count) in sched {
        layer.put(name, count as f64, "count");
    }
    layer.put("serve.decodes_per_miss", ratio(decodes, misses), "ratio");
    tally.merge(traffic.tally);
    s.extend(traffic.samples);

    let mut report = Report::default();
    if !args.trace {
        setup_s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        report.metrics.push((
            "setup_s".to_string(),
            setup_s[SETUP_REPS / 2],
            "s".to_string(),
            Some(SETUP_REPS),
        ));
        // Codec speed relative to the yardstick timed in the same pass.
        for (_, slug) in codec_wl::DECODERS {
            let name = format!("decompress_vs_ref.{}", slug);
            report.timing(&s, &name, &format!("vs_ref.{}", slug), 0.5, "x")?;
        }
        let name = "decompress_vs_ref.rle_hybrid";
        report.timing(&s, name, "vs_ref.rle_hybrid", 0.5, "x")?;
        report.timing(&s, "compress_vs_ref", "vs_ref.compress", 0.5, "x")?;
        report.put("compression_ratio", compression_ratio, "ratio");
        report.timing(&s, "get_small_p50_ms", "get_small", 0.5, "ms")?;
        report.timing(&s, "get_small_p95_ms", "get_small", 0.95, "ms")?;
        report.timing(&s, "get_large_p50_ms", "get_large", 0.5, "ms")?;
        report.timing(&s, "list_p50_ms", "list", 0.5, "ms")?;
        report.timing(&s, "get_small_routed_p50_ms", "get_small_routed", 0.5, "ms")?;
        report.timing(&s, "get_cold_p50_ms", "get_cold_miss", 0.5, "ms")?;
        report.timing(&s, "get_cold_p95_ms", "get_cold_miss", 0.95, "ms")?;
        return Ok(report);
    }

    // ----- per-layer (traced run) -----
    // Absolute codec speeds, from the untraced half of the passes.
    for (_, slug) in codec_wl::DECODERS {
        let name = format!("decompress_gbps.{}", slug);
        report.timing(&s, &name, &format!("untraced.{}", name), 0.5, "GB/s")?;
    }
    let name = "decompress_gbps.rle_hybrid";
    report.timing(&s, name, &format!("untraced.{}", name), 0.5, "GB/s")?;
    report.timing(&s, "compress_gbps", "untraced.compress_gbps", 0.5, "GB/s")?;
    report.timing(&s, "yardstick.decode_ms", "untraced.ref_ms", 0.5, "ms")?;
    report.ms(&s, "container.open_ms")?;
    report.ms(&s, "container.serialize_ms")?;
    for (_, slug) in codec_wl::DECODERS {
        report.ms(&s, &format!("core.{}.decode_ms", slug))?;
        for p in codec_wl::phases_of(slug) {
            report.ms(&s, &format!("core.{}.{}_ms", slug, p))?;
        }
        report.ms(&s, &format!("codec.{}.op_ms", slug))?;
        report.ms(&s, &format!("codec.{}.uncovered_ms", slug))?;
    }
    report.ms(&s, "hybrid.decode_ms")?;
    for p in codec_wl::phases_of("rle_hybrid") {
        report.ms(&s, &format!("hybrid.{}_ms", p))?;
    }
    report.ms(&s, "codec.rle_hybrid.op_ms")?;
    report.ms(&s, "codec.rle_hybrid.uncovered_ms")?;
    report.ms(&s, "core.encode_ms")?;
    for p in ["histogram", "codebook", "offsets", "scatter"] {
        report.ms(&s, &format!("core.encode.{}_ms", p))?;
    }
    report.ms(&s, "sz.quantize_ms")?;
    report.ms(&s, "sz.dequantize_ms")?;
    report.ms(&s, "huffman.decode_flat_ms")?;
    let vs_serial =
        median(&s, "core.opt_gap_array.decode_ms")? / median(&s, "huffman.decode_flat_ms")?;
    report.put("core.opt_gap_array.vs_serial", vs_serial, "ratio");
    // Launch counts repeat exactly from pass to pass.
    for (_, slug) in codec_wl::DECODERS {
        let name = format!("core.{}.kernel_launches", slug);
        report.put(&name, median(&s, &name)?, "count");
    }
    report.put(
        "hybrid.kernel_launches",
        median(&s, "hybrid.kernel_launches")?,
        "count",
    );
    let name = "core.encode.kernel_launches";
    report.put(name, median(&s, name)?, "count");
    for (name, value, unit) in &counts {
        report.put(name, *value, unit);
    }

    report.timing(
        &s,
        "serve.handle_small_us",
        "serve.handle_small_us",
        0.5,
        "us",
    )?;
    report.ms(&s, "serve.handle_large_ms")?;
    report.ms(&s, "serve.protocol.large_reply_encode_ms")?;
    report.ms(&s, "serve.protocol.large_reply_decode_ms")?;
    report.timing(&s, "net.tcp_small_p50_ms", "net.tcp_small_ms", 0.5, "ms")?;
    report.timing(&s, "net.unix_small_p50_ms", "net.unix_small_ms", 0.5, "ms")?;
    let tcp_extra = median(&s, "net.tcp_small_ms")? - median(&s, "net.unix_small_ms")?;
    report.put("net.tcp_extra_ms", tcp_extra, "ms");
    let hop = median(&s, "get_small_routed")? - median(&s, "get_small")?;
    report.put("router.hop_p50_ms", hop, "ms");
    report.ms(&s, "serve.handle_cold_ms")?;
    report.ms(&s, "codec.decompress_field_ms")?;
    let overhead = median(&s, "serve.handle_cold_ms")? - median(&s, "codec.decompress_field_ms")?;
    report.put("serve.sched_overhead_ms", overhead, "ms");
    report.metrics.extend(layer.metrics);

    // Tracing overhead: traced against untraced codec ops, same run. Only codec ops
    // open spans inside the timed interval; a traced serving op is one span around
    // one client call, so its cost lies outside what it times.
    let (mut traced, mut untraced) = (0.0, 0.0);
    let kinds = [
        "op.cusz_baseline",
        "op.opt_self_sync",
        "op.opt_gap_array",
        "op.rle_hybrid",
        "op.compress",
    ];
    for kind in kinds {
        let t = s.median(&format!("traced.{}", kind));
        let u = s.median(&format!("untraced.{}", kind));
        if let (Some(t), Some(u)) = (t, u) {
            traced += t;
            untraced += u;
        }
    }
    report.put(
        "trace_overhead_frac",
        ratio(traced - untraced, untraced),
        "ratio",
    );
    let failed_share = ratio(tally.failed as f64, tally.attempted as f64);
    report.put("failed_share", failed_share, "ratio");
    Ok(report)
}
