//! Recording: benchmark-side spans, named samples, and the summary statistics the
//! metrics are computed from.
//!
//! Spans are taken around calls into the library's public API; nothing inside the
//! library is instrumented. They live in memory and are written out once, when the
//! run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a named interval, the span that caused it, and the operation it
/// belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// The in-memory span recorder. Disabled recorders hand out no ids and keep nothing,
/// so untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    op: u64,
    name: String,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh operation id (spans of one operation share it).
    pub fn new_op(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn begin(&self, name: &str, parent: Option<u64>, op: u64) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            op,
            name: name.to_string(),
            start: Instant::now(),
        }
    }

    /// Closes `open`, keeps it, and returns its duration in milliseconds.
    pub fn end(&self, open: Open) -> f64 {
        let end = Instant::now();
        let span = Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_us: open.start.duration_since(self.epoch).as_secs_f64() * 1e6,
            end_us: end.duration_since(self.epoch).as_secs_f64() * 1e6,
        };
        let ms = span.ms();
        self.spans.lock().expect("span list poisoned").push(span);
        ms
    }

    /// Runs `f` inside a span named `name` and returns its result and duration (ms).
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        op: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let open = self.begin(name, parent, op);
        let out = f();
        (out, self.end(open))
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list poisoned"))
    }
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.id, parent, s.op, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

/// Named sample lists (milliseconds unless the name says otherwise).
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<String, Vec<f64>>,
}

impl Samples {
    pub fn push(&mut self, name: &str, value: f64) {
        self.by_name
            .entry(name.to_string())
            .or_default()
            .push(value);
    }

    pub fn extend(&mut self, other: Samples) {
        for (name, values) in other.by_name {
            self.by_name.entry(name).or_default().extend(values);
        }
    }

    pub fn get(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |v| v.as_slice())
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        percentile(self.get(name), 0.5)
    }
}

/// Nearest-rank-with-interpolation percentile (`q` in `[0, 1]`); `None` when empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// `Ok` when `ok` holds, else the error `what` describes.
pub fn expect(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what())
    }
}

/// Converts a library error into the benchmark's error message.
pub fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Operation accounting for the result line: every op attempted, and every op that
/// failed or did not pass its correctness check.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one op; `check` is its outcome (an error message on failure).
    pub fn record(&mut self, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = check {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(reason);
            }
        }
    }

    /// Counts an op that stopped with an error as attempted and failed; `Ok` means
    /// its ops were already counted one by one, and adds nothing.
    pub fn record_error<T>(&mut self, outcome: Result<T, String>) {
        if let Err(reason) = outcome {
            self.record(Err(reason));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// A small deterministic generator (splitmix64) for workload choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}
