//! The host-speed yardstick the codec end-to-end metrics are expressed against.
//!
//! On a shared machine the host's speed drifts by 20% and more over minutes, so
//! absolute codec throughputs differ between runs by more than any useful bound.
//! Each pass therefore also times this fixed Huffman decode, and the codec metrics
//! report op speed relative to it. Everything here — the symbol streams, the code
//! lengths, the canonical codes, the bit packing and the decode loop — is
//! benchmark code that calls nothing in the library, so a library change moves
//! the op and never the yardstick.
//!
//! The yardstick decodes one stream per host thread, in parallel, because the
//! measured decoders use every host thread as well: a neighbour that takes one
//! vCPU away slows both alike.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rec::Rng;

const ALPHABET: usize = 1024;
const CENTER: usize = ALPHABET / 2;
/// Long enough (about 35 ms per stream) that one scheduler tick moves a timing
/// by little.
const SYMBOLS_PER_STREAM: usize = 1 << 21;
/// Scale of the two-sided geometric spread of the symbols around the center, as
/// prediction residuals are spread: about 3.4 bits per symbol.
const SPREAD: f64 = 2.0;

/// One stream: its symbols, their packed codewords and the decode lookup.
struct Stream {
    symbols: Vec<u16>,
    /// Codewords packed most significant bit first.
    units: Vec<u32>,
    bit_len: u64,
    /// Per code length, the `(code bits, symbol)` pairs of that length, sorted.
    by_len: Vec<Vec<(u32, u16)>>,
}

pub struct Yardstick {
    streams: Vec<Stream>,
}

impl Yardstick {
    /// `threads` streams of symbols drawn from `seed`, each Huffman-coded with its
    /// own canonical codebook.
    pub fn new(seed: u64, threads: usize) -> Result<Yardstick, String> {
        let streams = (0..threads.max(1))
            .map(|k| Stream::new(seed.wrapping_mul(0x2545_f491).wrapping_add(k as u64)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Yardstick { streams })
    }

    /// Decodes every stream, one thread each; callers time this call and check its
    /// output with [`Yardstick::matches`] afterwards.
    pub fn decode(&self) -> Vec<Vec<u16>> {
        std::thread::scope(|scope| {
            let workers: Vec<_> = self
                .streams
                .iter()
                .map(|s| scope.spawn(move || s.decode()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("yardstick thread panicked"))
                .collect()
        })
    }

    /// Whether `decoded` (from [`Yardstick::decode`]) equals the streams' symbols.
    pub fn matches(&self, decoded: &[Vec<u16>]) -> bool {
        decoded.len() == self.streams.len()
            && self
                .streams
                .iter()
                .zip(decoded)
                .all(|(s, d)| s.symbols == *d)
    }
}

impl Stream {
    fn new(seed: u64) -> Result<Stream, String> {
        let mut rng = Rng::new(seed);
        let symbols: Vec<u16> = (0..SYMBOLS_PER_STREAM)
            .map(|_| {
                let magnitude = (-(1.0 - rng.unit()).ln() * SPREAD) as usize;
                let magnitude = magnitude.min(CENTER - 1);
                let symbol = if rng.next_u64() & 1 == 0 {
                    CENTER + magnitude
                } else {
                    CENTER - magnitude
                };
                symbol as u16
            })
            .collect();
        let mut counts = vec![0u64; ALPHABET];
        for &s in &symbols {
            counts[s as usize] += 1;
        }
        let lengths = code_lengths(&counts);
        if lengths.iter().any(|&l| l > 32) {
            return Err("yardstick codebook has a codeword over 32 bits".to_string());
        }
        let codes = canonical_codes(&lengths);

        let mut by_len = vec![Vec::new(); 33];
        for (symbol, (&len, &code)) in lengths.iter().zip(&codes).enumerate() {
            if len > 0 {
                by_len[len as usize].push((code, symbol as u16));
            }
        }
        for pairs in &mut by_len {
            pairs.sort_unstable();
        }

        let mut units = Vec::new();
        let (mut acc, mut pending, mut bit_len) = (0u64, 0u32, 0u64);
        for &s in &symbols {
            let len = lengths[s as usize];
            acc = acc << len | codes[s as usize] as u64;
            pending += len;
            bit_len += len as u64;
            while pending >= 32 {
                pending -= 32;
                units.push((acc >> pending) as u32);
            }
            acc &= (1u64 << pending) - 1;
        }
        if pending > 0 {
            units.push((acc << (32 - pending)) as u32);
        }
        Ok(Stream {
            symbols,
            units,
            bit_len,
            by_len,
        })
    }

    /// Decodes the stream bit by bit, searching each length's codes. Stops early
    /// (returning fewer symbols) on a stream it cannot decode.
    fn decode(&self) -> Vec<u16> {
        let mut out = Vec::with_capacity(self.symbols.len());
        let mut pos = 0u64;
        while out.len() < self.symbols.len() {
            let mut code = 0u32;
            let mut len = 0usize;
            let symbol = loop {
                if pos >= self.bit_len || len == 32 {
                    return out;
                }
                let bit = (self.units[(pos / 32) as usize] >> (31 - pos % 32)) & 1;
                pos += 1;
                code = code << 1 | bit;
                len += 1;
                let pairs = &self.by_len[len];
                if let Ok(i) = pairs.binary_search_by_key(&code, |&(bits, _)| bits) {
                    break pairs[i].1;
                }
            };
            out.push(symbol);
        }
        out
    }
}

/// Huffman code lengths for symbol counts (0 for unused symbols; a lone used
/// symbol gets length 1).
fn code_lengths(counts: &[u64]) -> Vec<u32> {
    let mut lengths = vec![0u32; counts.len()];
    let used: Vec<usize> = (0..counts.len()).filter(|&s| counts[s] > 0).collect();
    if used.len() == 1 {
        lengths[used[0]] = 1;
        return lengths;
    }
    // Nodes 0..used.len() are the leaves; merged nodes are appended.
    let mut parent = vec![usize::MAX; used.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = used
        .iter()
        .enumerate()
        .map(|(node, &s)| Reverse((counts[s], node)))
        .collect();
    while heap.len() > 1 {
        let Reverse((wa, a)) = heap.pop().expect("two nodes left");
        let Reverse((wb, b)) = heap.pop().expect("two nodes left");
        let node = parent.len();
        parent.push(usize::MAX);
        parent[a] = node;
        parent[b] = node;
        heap.push(Reverse((wa + wb, node)));
    }
    for (leaf, &s) in used.iter().enumerate() {
        let mut depth = 0;
        let mut node = leaf;
        while parent[node] != usize::MAX {
            node = parent[node];
            depth += 1;
        }
        lengths[s] = depth;
    }
    lengths
}

/// Canonical codes for code lengths: shorter codes first, ties by symbol.
fn canonical_codes(lengths: &[u32]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..lengths.len()).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut codes = vec![0u32; lengths.len()];
    let (mut code, mut prev_len) = (0u64, 0u32);
    for s in order {
        code <<= lengths[s] - prev_len;
        codes[s] = code as u32;
        code += 1;
        prev_len = lengths[s];
    }
    codes
}
