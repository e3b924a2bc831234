//! The codec phase: in-process `Codec` round trips, no sockets.
//!
//! Two dense 1M-element fields (HACC: 1-D, long codewords; Nyx: 3-D, ~1-bit
//! codewords) are decompressed by each dense decoder, a sparse GAMESS field goes
//! through format v2 auto-hybrid, and the dense fields are compressed with the
//! default decoder. One *pass* runs every op once; metrics are medians over passes,
//! and the dense timings of a pass are summed over the two fields.
//!
//! Set-up checks each archive's decoded codes against its decoded-CRC and ties
//! them to a reference output: `dequantize` of those codes must equal the op's
//! values bit for bit. Every timed op is then checked against its source within
//! the error bound and against that reference, bit for bit. The decoded-CRC
//! itself is checked again on every decode of a traced run only: an untraced op
//! returns values, not codes, and a second decode per op would make each pass
//! about a third longer.

use std::time::Instant;

use datasets::{dataset_by_name, generate, Field};
use huffdec_codec::{BackendKind, Codec, FormatVersion, AUTO_HYBRID_ZERO_FRACTION};
use huffdec_core::{CompressedPayload, DecoderKind, PhaseBreakdown};
use huffman::{Codebook, FlatEncoded};
use sz::{Compressed, ErrorBound, Quantized};

use crate::rec::{expect, msg, Samples, Tally, Tracer};
use crate::yardstick::Yardstick;

const ELEMENTS: usize = 1_000_000;
/// Timed hybrid decompresses per untraced pass.
const HYBRID_REPS: usize = 2;

/// The dense decoders measured, with their metric-name slugs.
pub const DECODERS: [(DecoderKind, &str); 3] = [
    (DecoderKind::CuszBaseline, "cusz_baseline"),
    (DecoderKind::OptimizedSelfSync, "opt_self_sync"),
    (DecoderKind::OptimizedGapArray, "opt_gap_array"),
];

/// The default decoder's index in [`DECODERS`] (compress is timed for it).
const DEFAULT: usize = 2;

/// Huffman phases each decoder reports, as metric slugs. The hybrid decoder runs
/// the optimized self-synchronization decoder on its substreams, so it has the
/// same phases as `opt_self_sync`.
pub fn phases_of(slug: &str) -> &'static [&'static str] {
    match slug {
        "cusz_baseline" => &["decode_write"],
        "opt_gap_array" => &["output_index", "tune", "decode_write"],
        _ => &[
            "intra_sync",
            "inter_sync",
            "output_index",
            "tune",
            "decode_write",
        ],
    }
}

fn phase_ms(timings: &PhaseBreakdown, slug: &str) -> f64 {
    let phase = match slug {
        "intra_sync" => &timings.intra_sync,
        "inter_sync" => &timings.inter_sync,
        "output_index" => &timings.output_index,
        "tune" => &timings.tune,
        _ => &timings.decode_write,
    };
    phase.as_ref().map_or(0.0, |p| p.seconds * 1e3)
}

/// A measured (`cpu` backend) session with explicit host threads.
pub fn cpu_codec(host_threads: usize, decoder: DecoderKind) -> Result<Codec, String> {
    Codec::builder()
        .backend(BackendKind::Cpu)
        .host_threads(host_threads)
        .decoder(decoder)
        .error_bound(ErrorBound::Relative(1e-3))
        .build()
        .map_err(msg)
}

/// One compressed field: its serialized archive and the parsed form the layer
/// probes decode directly.
struct Stored {
    bytes: Vec<u8>,
    archive: Compressed,
}

/// A field's codes flat-encoded with the library's codebook, for the serial
/// reference decoder (`huffman::decode_flat`) of the traced run.
struct Serial {
    codes: Vec<u16>,
    codebook: Codebook,
    encoded: FlatEncoded,
}

struct Dense {
    field: Field,
    /// One archive per entry of [`DECODERS`].
    stored: Vec<Stored>,
    /// The checked decompress output every decoder must reproduce bit for bit.
    reference: Vec<f32>,
    serial: Serial,
}

pub struct CodecSetup {
    codecs: Vec<Codec>,
    hybrid_codec: Codec,
    dense: Vec<Dense>,
    sparse: Field,
    sparse_stored: Stored,
    sparse_reference: Vec<f32>,
    yardstick: Yardstick,
}

fn check_bound(field: &Field, data: &[f32], c: &Compressed) -> Result<(), String> {
    expect(data.len() == field.data.len(), || {
        format!("{}: reconstructed {} values", field.name, data.len())
    })?;
    match sz::verify_error_bound(&field.data, data, c.step / 2.0) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{} ({}): value {} outside the error bound",
            field.name,
            c.decoder().name(),
            i
        )),
    }
}

fn check_crc(c: &Compressed, symbols: &[u16]) -> Result<(), String> {
    expect(c.matches_decoded_crc(symbols) == Some(true), || {
        format!("{}: decoded codes fail the decoded-CRC", c.decoder().name())
    })
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The check of every timed decompress: within the error bound of the source, and
/// bit for bit the set-up reference.
fn check_op(field: &Field, data: &[f32], c: &Compressed, reference: &[f32]) -> Result<(), String> {
    check_bound(field, data, c)?;
    expect(same_bits(data, reference), || {
        format!(
            "{} ({}): output differs from the reference",
            field.name,
            c.decoder().name()
        )
    })
}

fn quantized(c: &Compressed, codes: Vec<u16>) -> Quantized {
    Quantized {
        codes,
        outliers: c.outliers.clone(),
        alphabet_size: c.alphabet_size(),
        step: c.step,
        dims: c.dims,
    }
}

/// Set-up check of one archive: its decoded codes pass the decoded-CRC, its op
/// output is within the error bound, and that output is `dequantize` of the codes.
/// Returns the output (the reference) and the codes.
fn check_archive(
    codec: &Codec,
    field: &Field,
    s: &Stored,
    tally: &mut Tally,
) -> Result<(Vec<f32>, Vec<u16>), String> {
    let codes = codec.decode_codes(&s.archive).map_err(msg)?.symbols;
    tally.record(check_crc(&s.archive, &codes));
    let (data, _) = decompress_op(codec, &s.bytes)?;
    tally.record(check_bound(field, &data, &s.archive));
    let values = sz::dequantize(&quantized(&s.archive, codes.clone()));
    tally.record(expect(same_bits(&values, &data), || {
        format!(
            "{}: output is not dequantize of the checked codes",
            field.name
        )
    }));
    Ok((data, codes))
}

/// Generates the fields and the yardstick, compresses and serializes every
/// archive, and runs one checked warm-up op per archive.
pub fn setup(seed: u64, host_threads: usize, tally: &mut Tally) -> Result<CodecSetup, String> {
    let codecs = DECODERS
        .iter()
        .map(|&(kind, _)| cpu_codec(host_threads, kind))
        .collect::<Result<Vec<_>, _>>()?;
    let hybrid_codec = Codec::builder()
        .backend(BackendKind::Cpu)
        .host_threads(host_threads)
        .error_bound(ErrorBound::Relative(1e-3))
        .format(FormatVersion::V2)
        .auto_hybrid(Some(AUTO_HYBRID_ZERO_FRACTION))
        .build()
        .map_err(msg)?;

    let gen = |name: &str, salt: u64| {
        let spec = dataset_by_name(name).ok_or_else(|| format!("unknown dataset {}", name))?;
        let field_seed = seed.wrapping_mul(1000).wrapping_add(salt);
        Ok::<Field, String>(generate(&spec, ELEMENTS, field_seed))
    };
    // The host encoder writes the same archive as `Codec::compress`, bit for bit;
    // every timed compress checks that against these bytes.
    let store = |codec: &Codec, field: &Field| -> Result<Stored, String> {
        let archive = codec.compress_archive(field).map_err(msg)?;
        let bytes = codec.archive_to_bytes(&archive).map_err(msg)?;
        Ok(Stored { bytes, archive })
    };

    let mut dense = Vec::new();
    for (salt, name) in ["HACC", "Nyx"].iter().enumerate() {
        let field = gen(name, salt as u64)?;
        let stored = codecs
            .iter()
            .map(|codec| store(codec, &field))
            .collect::<Result<Vec<_>, _>>()?;
        let (reference, codes) = warm_up(&codecs, &field, &stored, tally)?;
        let codebook = Codebook::from_symbols(&codes, stored[0].archive.alphabet_size());
        let encoded = huffman::encode_flat(&codebook, &codes);
        dense.push(Dense {
            field,
            stored,
            reference,
            serial: Serial {
                codes,
                codebook,
                encoded,
            },
        });
    }
    let sparse = gen("GAMESS", 2)?;
    let sparse_stored = store(&hybrid_codec, &sparse)?;
    if !sparse_stored.archive.decoder().is_hybrid() {
        return Err("GAMESS did not select the RLE+Huffman hybrid".to_string());
    }
    let (sparse_reference, _) = check_archive(&hybrid_codec, &sparse, &sparse_stored, tally)?;
    let yardstick = Yardstick::new(seed, host_threads)?;
    tally.record(expect(yardstick.matches(&yardstick.decode()), || {
        "the yardstick does not decode".to_string()
    }));

    Ok(CodecSetup {
        codecs,
        hybrid_codec,
        dense,
        sparse,
        sparse_stored,
        sparse_reference,
        yardstick,
    })
}

/// Warm-up of one dense field: every archive passes [`check_archive`], and the
/// decoders agree bit for bit. Returns the reference output and the field's codes.
fn warm_up(
    codecs: &[Codec],
    field: &Field,
    stored: &[Stored],
    tally: &mut Tally,
) -> Result<(Vec<f32>, Vec<u16>), String> {
    let (reference, codes) = check_archive(&codecs[0], field, &stored[0], tally)?;
    for (codec, s) in codecs.iter().zip(stored).skip(1) {
        let (data, _) = check_archive(codec, field, s, tally)?;
        tally.record(expect(same_bits(&reference, &data), || {
            format!("{}: decoders disagree", field.name)
        }));
    }
    Ok((reference, codes))
}

/// The timed decompress op: serialized archive bytes in memory to reconstructed f32
/// values. Returns the values and the wall time in ms.
fn decompress_op(codec: &Codec, bytes: &[u8]) -> Result<(Vec<f32>, f64), String> {
    let t0 = Instant::now();
    let handle = codec.open_archive_bytes(bytes).map_err(msg)?;
    let out = codec
        .decompress_field(handle.field(0).map_err(msg)?)
        .map_err(msg)?;
    Ok((out.data, t0.elapsed().as_secs_f64() * 1e3))
}

/// The same op in spans: `container.open` and `codec.decompress_field` under one
/// op span. Returns the values, the op time and the open time (ms).
fn decompress_op_traced(
    tr: &Tracer,
    name: &str,
    op: u64,
    codec: &Codec,
    bytes: &[u8],
) -> Result<(Vec<f32>, f64, f64), String> {
    let root = tr.begin(name, None, op);
    let (handle, open_ms) = tr.span("container.open", Some(root.id()), op, || {
        codec.open_archive_bytes(bytes)
    });
    let handle = handle.map_err(msg)?;
    let field = handle.field(0).map_err(msg)?;
    let (out, _) = tr.span("codec.decompress_field", Some(root.id()), op, || {
        codec.decompress_field(field)
    });
    let out = out.map_err(msg)?;
    Ok((out.data, tr.end(root), open_ms))
}

/// `sz::lorenzo::dequantize` on decoded codes, in a span; checked against the
/// op's output.
fn dequantize_probe(
    tr: &Tracer,
    parent: u64,
    op: u64,
    c: &Compressed,
    codes: Vec<u16>,
    expected: &[f32],
) -> (Result<(), String>, f64) {
    let q = quantized(c, codes);
    let (values, ms) = tr.span("sz.dequantize", Some(parent), op, || sz::dequantize(&q));
    let check = expect(same_bits(&values, expected), || {
        "dequantize differs from decompress_field".to_string()
    });
    (check, ms)
}

fn gbps(bytes: u64, ms: f64) -> f64 {
    bytes as f64 / (ms / 1e3) / 1e9
}

/// Runs passes for `seconds` (at least `min_passes`). Untraced passes feed the
/// end-to-end samples; in a traced run every other pass is traced and feeds the
/// per-layer samples. An op that returns an error counts as one failed op and
/// ends its pass; the next pass starts over.
pub fn measure(
    cs: &CodecSetup,
    seconds: f64,
    min_passes: usize,
    tr: &Tracer,
    tally: &mut Tally,
) -> Samples {
    let mut s = Samples::default();
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let done = if tr.enabled() && pass % 2 == 1 {
            traced_pass(cs, tr, tally, &mut s)
        } else {
            plain_pass(cs, tr.enabled(), tally, &mut s)
        };
        tally.record_error(done);
        pass += 1;
    }
    s
}

fn plain_pass(
    cs: &CodecSetup,
    traced_run: bool,
    tally: &mut Tally,
    s: &mut Samples,
) -> Result<(), String> {
    let tag = if traced_run { "untraced." } else { "" };
    let dense_bytes: u64 = cs.dense.iter().map(|d| d.field.bytes()).sum();
    // The yardstick first; each op's speed relative to it is one sample per pass.
    let t0 = Instant::now();
    let out = cs.yardstick.decode();
    let ref_ms = t0.elapsed().as_secs_f64() * 1e3;
    tally.record(expect(cs.yardstick.matches(&out), || {
        "yardstick decode differs".to_string()
    }));
    s.push(&format!("{}ref_ms", tag), ref_ms);
    // Samples of one op kind: throughput, time, and speed relative to the yardstick.
    let op_sample = |s: &mut Samples, gbps_name: &str, op: &str, gb_per_s: f64, ms: f64| {
        s.push(&format!("{}{}", tag, gbps_name), gb_per_s);
        s.push(&format!("{}op.{}", tag, op), ms);
        s.push(&format!("{}vs_ref.{}", tag, op), ref_ms / ms);
    };
    for (j, &(_, slug)) in DECODERS.iter().enumerate() {
        let mut total = 0.0;
        for d in &cs.dense {
            let (data, ms) = decompress_op(&cs.codecs[j], &d.stored[j].bytes)?;
            tally.record(check_op(
                &d.field,
                &data,
                &d.stored[j].archive,
                &d.reference,
            ));
            total += ms;
        }
        let name = format!("decompress_gbps.{}", slug);
        op_sample(s, &name, slug, gbps(dense_bytes, total), total);
    }
    // The hybrid op is the shortest, so a pass times it twice and takes the mean.
    let (field, archive) = (&cs.sparse, &cs.sparse_stored.archive);
    let mut total = 0.0;
    for _ in 0..HYBRID_REPS {
        let (data, ms) = decompress_op(&cs.hybrid_codec, &cs.sparse_stored.bytes)?;
        tally.record(check_op(field, &data, archive, &cs.sparse_reference));
        total += ms;
    }
    let ms = total / HYBRID_REPS as f64;
    let gb_per_s = gbps(cs.sparse.bytes(), ms);
    op_sample(s, "decompress_gbps.rle_hybrid", "rle_hybrid", gb_per_s, ms);

    let codec = &cs.codecs[DEFAULT];
    let mut total = 0.0;
    for d in &cs.dense {
        let t0 = Instant::now();
        let enc = codec.compress(&d.field).map_err(msg)?;
        let bytes = codec.archive_to_bytes(&enc.archive).map_err(msg)?;
        total += t0.elapsed().as_secs_f64() * 1e3;
        tally.record(expect(bytes == d.stored[DEFAULT].bytes, || {
            format!("{}: compress differs from the set-up archive", d.field.name)
        }));
    }
    op_sample(
        s,
        "compress_gbps",
        "compress",
        gbps(dense_bytes, total),
        total,
    );
    Ok(())
}

fn traced_pass(
    cs: &CodecSetup,
    tr: &Tracer,
    tally: &mut Tally,
    s: &mut Samples,
) -> Result<(), String> {
    let mut dequantize_ms = 0.0;
    for (j, &(kind, slug)) in DECODERS.iter().enumerate() {
        let codec = &cs.codecs[j];
        let (mut op_ms, mut open_ms, mut decode_ms, mut deq_ms) = (0.0, 0.0, 0.0, 0.0);
        let mut launches = 0usize;
        let mut phase_totals = vec![0.0; phases_of(slug).len()];
        for d in &cs.dense {
            let stored = &d.stored[j];
            let op = tr.new_op();
            let name = format!("codec.{}.decompress", slug);
            let (data, ms, open) = decompress_op_traced(tr, &name, op, codec, &stored.bytes)?;
            tally.record(check_op(&d.field, &data, &stored.archive, &d.reference));
            op_ms += ms;
            open_ms += open;

            // The op's layers on their own, beside it: Huffman decode, dequantize.
            let layers = tr.begin(&format!("layers.{}", slug), None, op);
            let decode_span = format!("core.{}.decode", slug);
            let (result, ms) = tr.span(&decode_span, Some(layers.id()), op, || {
                huffdec_core::decode(codec.backend(), kind, &stored.archive.payload)
            });
            let result = result.map_err(msg)?;
            decode_ms += ms;
            launches += result.timings.kernel_launches();
            for (total, p) in phase_totals.iter_mut().zip(phases_of(slug)) {
                *total += phase_ms(&result.timings, p);
            }
            tally.record(check_crc(&stored.archive, &result.symbols));
            let (check, ms) =
                dequantize_probe(tr, layers.id(), op, &stored.archive, result.symbols, &data);
            tally.record(check);
            deq_ms += ms;
            tr.end(layers);
        }
        s.push(&format!("traced.op.{}", slug), op_ms);
        s.push(&format!("codec.{}.op_ms", slug), op_ms);
        s.push(&format!("core.{}.decode_ms", slug), decode_ms);
        s.push(
            &format!("codec.{}.uncovered_ms", slug),
            op_ms - open_ms - decode_ms - deq_ms,
        );
        for (total, p) in phase_totals.iter().zip(phases_of(slug)) {
            s.push(&format!("core.{}.{}_ms", slug, p), *total);
        }
        s.push(&format!("core.{}.kernel_launches", slug), launches as f64);
        s.push("container.open_ms", open_ms);
        dequantize_ms += deq_ms / DECODERS.len() as f64;
    }
    s.push("sz.dequantize_ms", dequantize_ms);

    // The serial reference: the same codes through the single-threaded decoder.
    let mut flat_ms = 0.0;
    for d in &cs.dense {
        let serial = &d.serial;
        let (out, ms) = tr.span("huffman.decode_flat", None, tr.new_op(), || {
            huffman::decode_flat(&serial.codebook, &serial.encoded)
        });
        tally.record(expect(out.as_ref() == Some(&serial.codes), || {
            format!("{}: flat reference decode differs", d.field.name)
        }));
        flat_ms += ms;
    }
    s.push("huffman.decode_flat_ms", flat_ms);

    // Hybrid: the op, then its Huffman decode and dequantize on their own.
    let stored = &cs.sparse_stored;
    let op = tr.new_op();
    let name = "codec.rle_hybrid.decompress";
    let (data, op_ms, open_ms) =
        decompress_op_traced(tr, name, op, &cs.hybrid_codec, &stored.bytes)?;
    tally.record(check_op(
        &cs.sparse,
        &data,
        &stored.archive,
        &cs.sparse_reference,
    ));
    let CompressedPayload::Hybrid(stream) = &stored.archive.payload else {
        return Err("GAMESS archive lost its hybrid payload".to_string());
    };
    let layers = tr.begin("layers.rle_hybrid", None, op);
    let (result, decode_ms) = tr.span("hybrid.decode", Some(layers.id()), op, || {
        huffdec_hybrid::decode_hybrid(cs.hybrid_codec.backend(), stream)
    });
    let result = result.map_err(msg)?;
    for p in phases_of("rle_hybrid") {
        s.push(&format!("hybrid.{}_ms", p), phase_ms(&result.timings, p));
    }
    s.push(
        "hybrid.kernel_launches",
        result.timings.kernel_launches() as f64,
    );
    tally.record(check_crc(&stored.archive, &result.symbols));
    let (check, deq_ms) =
        dequantize_probe(tr, layers.id(), op, &stored.archive, result.symbols, &data);
    tally.record(check);
    tr.end(layers);
    s.push("traced.op.rle_hybrid", op_ms);
    s.push("codec.rle_hybrid.op_ms", op_ms);
    s.push("hybrid.decode_ms", decode_ms);
    s.push(
        "codec.rle_hybrid.uncovered_ms",
        op_ms - open_ms - decode_ms - deq_ms,
    );

    // Compress: the op in spans, then quantize and the encode pipeline on their own.
    let codec = &cs.codecs[DEFAULT];
    let (kind, _) = DECODERS[DEFAULT];
    let mut t = [0.0f64; 9];
    for d in &cs.dense {
        let stored = &d.stored[DEFAULT];
        let op = tr.new_op();
        let root = tr.begin("codec.compress", None, op);
        let (enc, _) = tr.span("codec.compress_field", Some(root.id()), op, || {
            codec.compress(&d.field)
        });
        let enc = enc.map_err(msg)?;
        let (bytes, serialize_ms) = tr.span("container.serialize", Some(root.id()), op, || {
            codec.archive_to_bytes(&enc.archive)
        });
        let bytes = bytes.map_err(msg)?;
        let op_ms = tr.end(root);
        tally.record(expect(bytes == stored.bytes, || {
            format!("{}: compress differs from the set-up archive", d.field.name)
        }));

        let layers = tr.begin("layers.compress", None, op);
        let (step, alphabet) = (stored.archive.step, stored.archive.alphabet_size());
        let (q, quantize_ms) = tr.span("sz.quantize", Some(layers.id()), op, || {
            sz::quantize(&d.field.data, d.field.dims, step, alphabet)
        });
        let ((payload, encode), encode_ms) = tr.span("core.encode", Some(layers.id()), op, || {
            huffdec_core::compress_on(codec.backend(), kind, &q.codes, alphabet)
        });
        tr.end(layers);
        tally.record(expect(payload == stored.archive.payload, || {
            format!("{}: encode pipeline differs from the archive", d.field.name)
        }));
        let parts = [
            op_ms,
            serialize_ms,
            quantize_ms,
            encode_ms,
            encode.histogram.seconds * 1e3,
            encode.codebook.seconds * 1e3,
            encode.offsets.seconds * 1e3,
            encode.scatter.seconds * 1e3,
            encode.kernel_launches() as f64,
        ];
        for (total, part) in t.iter_mut().zip(parts) {
            *total += part;
        }
    }
    let names = [
        "traced.op.compress",
        "container.serialize_ms",
        "sz.quantize_ms",
        "core.encode_ms",
        "core.encode.histogram_ms",
        "core.encode.codebook_ms",
        "core.encode.offsets_ms",
        "core.encode.scatter_ms",
        "core.encode.kernel_launches",
    ];
    for (name, total) in names.iter().zip(t) {
        s.push(name, total);
    }
    Ok(())
}

/// Counts taken from the archives' array sizes; they repeat exactly for a seed.
pub fn counts(cs: &CodecSetup) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    for (j, &(_, slug)) in DECODERS.iter().enumerate() {
        let (mut bytes, mut symbols, mut moved) = (0u64, 0u64, 0u64);
        for d in &cs.dense {
            let c = &d.stored[j].archive;
            bytes += c.payload.compressed_bytes();
            symbols += c.payload.num_symbols() as u64;
            // A decode reads the payload and writes 2 bytes per code.
            moved += c.payload.compressed_bytes() + c.quant_code_bytes();
        }
        let bits = bytes as f64 * 8.0 / symbols as f64;
        out.push((format!("core.{}.bits_per_symbol", slug), bits, "bit"));
        let mb = moved as f64 / 1e6;
        out.push((format!("core.{}.bytes_moved_computed", slug), mb, "MB"));
    }
    let c = &cs.sparse_stored.archive;
    let bits = c.payload.compressed_bytes() as f64 * 8.0 / c.payload.num_symbols() as f64;
    out.push(("hybrid.bits_per_symbol".to_string(), bits, "bit"));
    let dense_outliers: usize = cs
        .dense
        .iter()
        .map(|d| d.stored[DEFAULT].archive.outliers.len())
        .sum();
    let outliers = (dense_outliers + c.outliers.len()) as f64;
    out.push(("sz.outliers".to_string(), outliers, "count"));
    out
}

/// Original bytes over archive bytes for the three fields as the sessions store
/// them (dense fields under the default decoder, GAMESS as hybrid).
pub fn compression_ratio(cs: &CodecSetup) -> f64 {
    let dense = cs
        .dense
        .iter()
        .map(|d| (d.field.bytes(), &d.stored[DEFAULT]));
    let all = dense.chain(std::iter::once((cs.sparse.bytes(), &cs.sparse_stored)));
    let (original, stored) = all.fold((0u64, 0u64), |(o, s), (bytes, st)| {
        (o + bytes, s + st.bytes.len() as u64)
    });
    original as f64 / stored as f64
}
