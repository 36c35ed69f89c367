//! Wire format for batches travelling between edge layers.
//!
//! The paper's prototype serialises sampled sub-streams plus their weight
//! metadata into Kafka topics. We do the same with a compact little-endian
//! binary frame, so the network layer can meter *real* bytes on the wire
//! for the bandwidth-saving experiment (Figure 7).
//!
//! Two frame versions share the magic number (all integers
//! little-endian): **v2** carries items, **v3** carries per-stratum
//! summaries. Every decoder refuses the other version, an unknown one and
//! the retired v1 item layout with a named [`MqError::Codec`], so a
//! misrouted frame fails loudly instead of misparsing.
//!
//! **v2 — columnar items**: the weights section, then four
//! length-prefixed column runs, one per [`approxiot_core::ColumnarBatch`]
//! column, in declaration order:
//!
//! ```text
//! magic     u16  = 0xA107
//! version   u8   = 2
//! weights   u32  count, then per entry: stratum u32, weight f64
//! strata    u32  count n, then n × u32
//! values    u32  count n, then n × f64
//! seqs      u32  count n, then n × u64
//! source_ts u32  count n, then n × u64
//! ```
//!
//! All four counts must agree. Because each run is contiguous and
//! little-endian, encode and decode on little-endian hosts are a handful
//! of bulk `extend_from_slice`/`copy_from_slice` calls per frame instead
//! of 28 bytes of per-item field writes (big-endian hosts fall back to
//! per-element conversion).
//!
//! [`encoded_len`] is not a v2 size: it is the size of the retired v1
//! layout (the same header and weights, then a `u32` item count and
//! 28-byte interleaved items), 12 bytes under the v2 frame. `SimEngine`
//! still bills item hops at that size, so its byte columns stay
//! comparable with earlier runs until both engines are re-billed at the
//! v2 size (ROADMAP item 15).
//!
//! **v3 — per-stratum summaries** (the sketch strategy's wire format):
//! no items at all — the body is a sequence of windows, each holding
//! length-prefixed per-stratum summary sections (exact moments + the
//! KLL-style sketch entries) plus the shared heavy-hitter counters:
//!
//! ```text
//! magic       u16  = 0xA107
//! version     u8   = 3
//! kll_k       u32  \  SketchConfig — lets a decoder rebuild summaries
//! heavy_cap   u32  /  without out-of-band state
//! seed        u64  topology-wide sketch seed
//! windows     u32  count, then per window:
//!   window    u64  window index
//!   strata    u32  count, then per stratum a length-prefixed section:
//!     len     u32  section bytes after this prefix
//!     stratum u32
//!     moments count u64, sum f64, sum_sq f64
//!     sketch  level u32, observed u64, entries u32 × (hash u64, value f64)
//!   heavy     u32  count, then per entry: stratum u32, weight f64, err f64
//! ```
//!
//! A v3 frame's size is independent of the item count — that is the
//! whole point: inner hops of a sketch topology ship `O(strata · k)`
//! bytes per window however fast the sources run.

use crate::error::MqError;
use approxiot_core::summary::stratum_sketch_seed;
use approxiot_core::{
    Batch, ColumnarBatch, HeavyEntry, KllSketch, Moments, SketchConfig, SpaceSaving, StratumId,
    StratumSummaries, StratumSummary, StreamItem,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};

const MAGIC: u16 = 0xA107;
/// The retired AoS item layout: never encoded, refused by name.
const VERSION_RETIRED: u8 = 1;
const VERSION_COLUMNAR: u8 = 2;
const VERSION_SUMMARY: u8 = 3;

/// Bytes per encoded weight entry.
const WEIGHT_ENTRY: usize = 4 + 8;
/// Bytes per encoded item.
const ITEM_ENTRY: usize = 4 + 8 + 8 + 8;
/// Fixed header size.
const HEADER: usize = 2 + 1;

/// Returns the size `batch` would take in the retired v1 item layout —
/// 12 bytes under its v2 frame ([`encoded_len_v2`]) — without encoding
/// anything. This is what `SimEngine` bills an item hop (see the module
/// docs).
pub fn encoded_len(batch: &Batch) -> usize {
    HEADER + 4 + batch.weights.len() * WEIGHT_ENTRY + 4 + batch.items.len() * ITEM_ENTRY
}

/// Takes a frame header off the front of `buf`: the magic number, then a
/// version byte that must be `want`. Any other version is refused with an
/// error naming it.
fn take_header(buf: &mut &[u8], want: u8) -> Result<(), MqError> {
    if buf.remaining() < HEADER {
        return Err(MqError::Codec("frame shorter than header".into()));
    }
    let magic = buf.get_u16_le();
    if magic != MAGIC {
        return Err(MqError::Codec(format!("bad magic 0x{magic:04X}")));
    }
    let version = buf.get_u8();
    if version == want {
        return Ok(());
    }
    let decoder = if want == VERSION_SUMMARY {
        "summary"
    } else {
        "item"
    };
    Err(MqError::Codec(match version {
        VERSION_RETIRED => {
            format!("retired AoS v1 frame in the {decoder} decoder (items travel as v2 frames)")
        }
        VERSION_COLUMNAR => {
            format!("columnar v2 frame in the {decoder} decoder (use decode_columns)")
        }
        VERSION_SUMMARY => {
            format!("summary v3 frame in the {decoder} decoder (use decode_summaries)")
        }
        version => format!("unsupported version {version}"),
    }))
}

/// Takes the weights section (count + entries) off the front of `buf`,
/// validating each weight and handing every valid entry to `weight`.
fn take_weights(buf: &mut &[u8], mut weight: impl FnMut(StratumId, f64)) -> Result<(), MqError> {
    if buf.remaining() < 4 {
        return Err(MqError::Codec("truncated weight count".into()));
    }
    let weight_count = buf.get_u32_le() as usize;
    if buf.remaining() < weight_count * WEIGHT_ENTRY {
        return Err(MqError::Codec("truncated weight entries".into()));
    }
    for _ in 0..weight_count {
        let stratum = StratumId::new(buf.get_u32_le());
        let w = buf.get_f64_le();
        if !w.is_finite() || w < 1.0 - 1e-9 {
            return Err(MqError::Codec(format!("invalid weight {w} for {stratum}")));
        }
        weight(stratum, w);
    }
    Ok(())
}

/// A column element type the v2 codec moves in bulk. All three
/// implementors (`u32`, `u64`, `f64`) are plain-old-data with every bit
/// pattern valid, which is what makes the byte-view casts in the
/// little-endian fast paths sound.
trait ColumnElem: Copy {
    /// Encoded bytes per element.
    const SIZE: usize;
    #[cfg(not(target_endian = "little"))]
    fn put_le(buf: &mut BytesMut, v: Self);
    /// Reads one element from a little-endian byte run (big-endian hosts
    /// and the strided v2 → `Batch` path).
    fn read_le(bytes: &[u8]) -> Self;
}

impl ColumnElem for u32 {
    const SIZE: usize = 4;
    #[cfg(not(target_endian = "little"))]
    fn put_le(buf: &mut BytesMut, v: Self) {
        buf.put_u32_le(v);
    }
    fn read_le(bytes: &[u8]) -> Self {
        // analysis: allow(P1, reason = "slice is exactly SIZE bytes; the [..N] index above already checks it")
        u32::from_le_bytes(bytes[..4].try_into().expect("length checked"))
    }
}

impl ColumnElem for u64 {
    const SIZE: usize = 8;
    #[cfg(not(target_endian = "little"))]
    fn put_le(buf: &mut BytesMut, v: Self) {
        buf.put_u64_le(v);
    }
    fn read_le(bytes: &[u8]) -> Self {
        // analysis: allow(P1, reason = "slice is exactly SIZE bytes; the [..N] index above already checks it")
        u64::from_le_bytes(bytes[..8].try_into().expect("length checked"))
    }
}

impl ColumnElem for f64 {
    const SIZE: usize = 8;
    #[cfg(not(target_endian = "little"))]
    fn put_le(buf: &mut BytesMut, v: Self) {
        buf.put_f64_le(v);
    }
    fn read_le(bytes: &[u8]) -> Self {
        // analysis: allow(P1, reason = "slice is exactly SIZE bytes; the [..N] index above already checks it")
        f64::from_le_bytes(bytes[..8].try_into().expect("length checked"))
    }
}

/// Appends one length-prefixed column run: `u32` element count, then the
/// raw little-endian elements — a single `extend_from_slice` on
/// little-endian hosts.
fn put_column<T: ColumnElem>(buf: &mut BytesMut, col: &[T]) {
    buf.put_u32_le(col.len() as u32);
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `T: ColumnElem` is plain-old-data without padding, so
        // viewing the slice as bytes is sound, and on a little-endian
        // host the in-memory bytes are exactly the wire encoding.
        let bytes = unsafe {
            std::slice::from_raw_parts(col.as_ptr().cast::<u8>(), std::mem::size_of_val(col))
        };
        buf.put_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &v in col {
        T::put_le(buf, v);
    }
}

/// Takes one length-prefixed column run off the front of `buf`, returning
/// its raw byte region and element count after bounds checks.
fn take_column_bytes<'a>(
    buf: &mut &'a [u8],
    elem_size: usize,
    name: &str,
) -> Result<(&'a [u8], usize), MqError> {
    if buf.remaining() < 4 {
        return Err(MqError::Codec(format!("truncated {name} column count")));
    }
    let n = buf.get_u32_le() as usize;
    let nbytes = n
        .checked_mul(elem_size)
        .ok_or_else(|| MqError::Codec(format!("{name} column count overflows")))?;
    if buf.remaining() < nbytes {
        return Err(MqError::Codec(format!("truncated {name} column")));
    }
    let (bytes, tail) = buf.split_at(nbytes);
    *buf = tail;
    Ok((bytes, n))
}

/// Refills `out` from a column's little-endian byte run — one bulk
/// `copy_nonoverlapping` on little-endian hosts, per-element conversion
/// otherwise.
fn fill_column<T: ColumnElem>(out: &mut Vec<T>, bytes: &[u8], n: usize) {
    out.clear();
    out.reserve(n);
    #[cfg(target_endian = "little")]
    // SAFETY: `T` is plain-old-data admitting every bit pattern, `bytes`
    // holds exactly `n * T::SIZE` bytes (checked by the caller through
    // `take_column_bytes`), and `reserve` guaranteed capacity for `n`
    // elements before `set_len`.
    unsafe {
        std::ptr::copy_nonoverlapping(bytes.as_ptr(), out.as_mut_ptr().cast::<u8>(), bytes.len());
        out.set_len(n);
    }
    #[cfg(not(target_endian = "little"))]
    for i in 0..n {
        out.push(T::read_le(&bytes[i * T::SIZE..]));
    }
}

/// Returns the exact encoded size of a columnar batch as a v2 frame,
/// without encoding it.
pub fn encoded_len_columns(batch: &ColumnarBatch) -> usize {
    HEADER + 4 + batch.weights.len() * WEIGHT_ENTRY + 4 * 4 + batch.len() * ITEM_ENTRY
}

/// Returns the exact encoded size of an AoS batch as a v2 columnar frame
/// (see [`encode_batch_v2_into`]).
pub fn encoded_len_v2(batch: &Batch) -> usize {
    HEADER + 4 + batch.weights.len() * WEIGHT_ENTRY + 4 * 4 + batch.items.len() * ITEM_ENTRY
}

/// Encodes a columnar batch into a v2 wire frame.
///
/// # Examples
///
/// ```
/// use approxiot_core::{ColumnarBatch, StratumId, StreamItem};
/// use approxiot_mq::codec::{decode_columns, encode_columns};
///
/// let mut batch = ColumnarBatch::new();
/// batch.push(StreamItem::new(StratumId::new(0), 1.5));
/// let frame = encode_columns(&batch);
/// assert_eq!(decode_columns(&frame)?, batch);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
pub fn encode_columns(batch: &ColumnarBatch) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len_columns(batch));
    encode_columns_into(batch, &mut buf);
    buf.freeze()
}

/// Encodes a columnar batch into a caller-owned buffer, replacing its
/// contents — the steady-state entry point, zero allocations per frame
/// once the buffer has warmed up. The body is four bulk column copies.
pub fn encode_columns_into(batch: &ColumnarBatch, buf: &mut BytesMut) {
    buf.clear();
    buf.reserve(encoded_len_columns(batch));
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION_COLUMNAR);
    buf.put_u32_le(batch.weights.len() as u32);
    for (stratum, weight) in batch.weights.iter() {
        buf.put_u32_le(stratum.index());
        buf.put_f64_le(weight);
    }
    put_column(buf, &batch.strata);
    put_column(buf, &batch.values);
    put_column(buf, &batch.seqs);
    put_column(buf, &batch.source_ts);
}

/// Encodes an **AoS** batch into a v2 columnar frame, for producers that
/// hold a [`Batch`] but feed columnar consumers. Byte-identical to
/// converting to a [`ColumnarBatch`] first and calling
/// [`encode_columns_into`].
pub fn encode_batch_v2_into(batch: &Batch, buf: &mut BytesMut) {
    encode_v2_with(batch, buf, |item| item.source_ts);
}

/// [`encode_batch_v2_into`] with every item's `source_ts` written as
/// `source_ts` instead of its own — the wall-clock source path, which
/// stamps items with their send time. Byte-identical to cloning the
/// batch, overwriting each item's `source_ts` and encoding the clone,
/// without the clone or the second walk over the items.
pub fn encode_batch_v2_stamped_into(batch: &Batch, source_ts: u64, buf: &mut BytesMut) {
    encode_v2_with(batch, buf, |_| source_ts);
}

/// Writes `batch` as a v2 frame in one pass over its items, each item's
/// four fields going straight to their place in the four column runs.
fn encode_v2_with(batch: &Batch, buf: &mut BytesMut, source_ts: impl Fn(&StreamItem) -> u64) {
    let n = batch.items.len();
    // Sized, not cleared: every byte is overwritten below, so a reused
    // buffer that last held a frame this long is not zero-filled again.
    buf.resize(encoded_len_v2(batch), 0);
    let (head, body) = buf.split_at_mut(HEADER + 4 + batch.weights.len() * WEIGHT_ENTRY);
    head[..2].copy_from_slice(&MAGIC.to_le_bytes());
    head[2] = VERSION_COLUMNAR;
    head[HEADER..HEADER + 4].copy_from_slice(&(batch.weights.len() as u32).to_le_bytes());
    for ((stratum, weight), entry) in batch
        .weights
        .iter()
        .zip(head[HEADER + 4..].chunks_exact_mut(WEIGHT_ENTRY))
    {
        entry[..4].copy_from_slice(&stratum.index().to_le_bytes());
        entry[4..].copy_from_slice(&weight.to_le_bytes());
    }
    let (strata, body) = column_run(body, n, 4);
    let (values, body) = column_run(body, n, 8);
    let (seqs, body) = column_run(body, n, 8);
    let (stamps, _) = column_run(body, n, 8);
    for ((((item, stratum), value), seq), stamp) in batch
        .items
        .iter()
        .zip(strata.chunks_exact_mut(4))
        .zip(values.chunks_exact_mut(8))
        .zip(seqs.chunks_exact_mut(8))
        .zip(stamps.chunks_exact_mut(8))
    {
        stratum.copy_from_slice(&item.stratum.index().to_le_bytes());
        value.copy_from_slice(&item.value.to_le_bytes());
        seq.copy_from_slice(&item.seq.to_le_bytes());
        stamp.copy_from_slice(&source_ts(item).to_le_bytes());
    }
}

/// Splits one length-prefixed run of `n` `size`-byte elements off the
/// front of `body`, writes its count prefix, and returns the element
/// bytes and what follows the run.
fn column_run(body: &mut [u8], n: usize, size: usize) -> (&mut [u8], &mut [u8]) {
    let (run, rest) = body.split_at_mut(4 + n * size);
    let (count, elems) = run.split_at_mut(4);
    count.copy_from_slice(&(n as u32).to_le_bytes());
    (elems, rest)
}

/// Decodes a v2 wire frame into a columnar batch.
///
/// # Errors
///
/// Returns [`MqError::Codec`] on a bad magic number, wrong or unsupported
/// version, truncated/corrupted frame or trailing bytes.
pub fn decode_columns(frame: &[u8]) -> Result<ColumnarBatch, MqError> {
    let mut batch = ColumnarBatch::new();
    decode_columns_into(frame, &mut batch)?;
    Ok(batch)
}

/// Decodes a v2 wire frame into a caller-owned (typically recycled)
/// columnar batch, replacing its contents, with each column landing as
/// one bulk copy. On error the batch is left cleared, never partially
/// decoded.
///
/// # Errors
///
/// Returns [`MqError::Codec`] on a bad magic number, wrong or unsupported
/// version, truncated/corrupted frame, column length mismatch or trailing
/// bytes; never panics, whatever the input bytes.
pub fn decode_columns_into(frame: &[u8], batch: &mut ColumnarBatch) -> Result<(), MqError> {
    let result = decode_columns_inner(frame, batch);
    if result.is_err() {
        batch.clear();
    }
    result
}

fn decode_columns_inner(frame: &[u8], batch: &mut ColumnarBatch) -> Result<(), MqError> {
    batch.clear();
    let mut buf = frame;
    take_header(&mut buf, VERSION_COLUMNAR)?;
    let runs = take_v2_body(&mut buf, |s, w| {
        batch.weights.set(s, w);
    })?;
    fill_column(&mut batch.strata, runs.strata, runs.n);
    fill_column(&mut batch.values, runs.values, runs.n);
    fill_column(&mut batch.seqs, runs.seqs, runs.n);
    fill_column(&mut batch.source_ts, runs.source_ts, runs.n);
    Ok(())
}

/// Counts the items of a v2 frame without decoding it: every structural
/// check [`decode_columns_into`] makes — magic, version, the weights
/// section, four equal column counts, exact length — and no column copy.
/// This is how a relay that forwards frames untouched still refuses a
/// poisoned stream.
///
/// # Examples
///
/// ```
/// use approxiot_core::{ColumnarBatch, StratumId, StreamItem};
/// use approxiot_mq::codec::{encode_columns, frame_items};
///
/// let mut batch = ColumnarBatch::new();
/// batch.push(StreamItem::new(StratumId::new(0), 1.5));
/// batch.push(StreamItem::new(StratumId::new(1), 2.5));
/// let frame = encode_columns(&batch);
/// assert_eq!(frame_items(&frame)?, 2);
/// assert!(frame_items(&frame[..frame.len() - 1]).is_err());
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
///
/// # Errors
///
/// Exactly when [`decode_columns_into`] fails on the same bytes, with the
/// same [`MqError::Codec`] message; never panics, whatever the input.
pub fn frame_items(frame: &[u8]) -> Result<usize, MqError> {
    let mut buf = frame;
    take_header(&mut buf, VERSION_COLUMNAR)?;
    Ok(take_v2_body(&mut buf, |_, _| {})?.n)
}

/// The four column runs of a structurally valid v2 body, borrowed from
/// the frame.
struct ColumnRuns<'a> {
    strata: &'a [u8],
    values: &'a [u8],
    seqs: &'a [u8],
    source_ts: &'a [u8],
    /// Every run's element count: the frame's items.
    n: usize,
}

/// Walks a v2 body: the weights section (each entry handed to `weight`),
/// then the four column runs, checking that their counts agree and that
/// nothing trails them. Copies no column.
fn take_v2_body<'a>(
    buf: &mut &'a [u8],
    weight: impl FnMut(StratumId, f64),
) -> Result<ColumnRuns<'a>, MqError> {
    take_weights(buf, weight)?;
    let (strata, n) = take_column_bytes(buf, u32::SIZE, "strata")?;
    let (values, n_values) = take_column_bytes(buf, f64::SIZE, "values")?;
    let (seqs, n_seqs) = take_column_bytes(buf, u64::SIZE, "seqs")?;
    let (source_ts, n_ts) = take_column_bytes(buf, u64::SIZE, "source_ts")?;
    if n_values != n || n_seqs != n || n_ts != n {
        return Err(MqError::Codec(format!(
            "column length mismatch: strata {n}, values {n_values}, seqs {n_seqs}, source_ts {n_ts}"
        )));
    }
    if buf.remaining() != 0 {
        return Err(MqError::Codec(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(ColumnRuns {
        strata,
        values,
        seqs,
        source_ts,
        n,
    })
}

/// Decodes a v2 wire frame into an AoS batch, replacing its contents:
/// the column runs are read with strided per-item reconstruction (no
/// intermediate columnar allocation). For consumers that want a
/// [`Batch`]; the name dates from when it also accepted the retired v1
/// layout, which it now refuses by name like every decoder.
///
/// # Errors
///
/// Returns [`MqError::Codec`] exactly when [`decode_columns_into`] would
/// on the same bytes; on error the batch is left cleared.
pub fn decode_batch_any_into(frame: &[u8], batch: &mut Batch) -> Result<(), MqError> {
    let result = decode_v2_into_batch(frame, batch);
    if result.is_err() {
        batch.clear();
    }
    result
}

fn decode_v2_into_batch(frame: &[u8], batch: &mut Batch) -> Result<(), MqError> {
    batch.clear();
    let mut buf = frame;
    take_header(&mut buf, VERSION_COLUMNAR)?;
    let runs = take_v2_body(&mut buf, |s, w| {
        batch.weights.set(s, w);
    })?;
    batch.items.reserve(runs.n);
    for i in 0..runs.n {
        batch.items.push(StreamItem::with_meta(
            StratumId::new(u32::read_le(&runs.strata[i * u32::SIZE..])),
            f64::read_le(&runs.values[i * f64::SIZE..]),
            u64::read_le(&runs.seqs[i * u64::SIZE..]),
            u64::read_le(&runs.source_ts[i * u64::SIZE..]),
        ));
    }
    Ok(())
}

/// Bytes per encoded heavy-hitter counter.
const HEAVY_ENTRY: usize = 4 + 8 + 8;
/// Bytes per encoded sketch entry.
const SKETCH_ENTRY: usize = 8 + 8;
/// Fixed bytes of one per-stratum section body: stratum id, the three
/// moment fields, and the sketch header (level, observed, entry count).
const SECTION_FIXED: usize = 4 + (8 + 8 + 8) + (4 + 8 + 4);
/// Fixed bytes of the v3 frame header past the shared magic/version:
/// config (kll_k, heavy_capacity), seed, window count.
const SUMMARY_FIXED: usize = 4 + 4 + 8 + 4;
/// Fixed bytes of one window: window index, stratum count, heavy count.
const WINDOW_FIXED: usize = 8 + 4 + 4;

/// The encoded size of one per-stratum section body (past its `u32`
/// length prefix).
fn summary_section_len(section: &StratumSummary) -> usize {
    SECTION_FIXED + section.sketch.len() * SKETCH_ENTRY
}

/// Returns the exact encoded size of a set of window summaries as a v3
/// frame, without encoding it — how the engines bill `HopBytes` for a
/// sketch hop. Note there is no per-item term anywhere: the size depends
/// only on strata counts and sketch/heavy occupancy.
pub fn encoded_len_summaries(windows: &[(u64, StratumSummaries)]) -> usize {
    let mut len = HEADER + SUMMARY_FIXED;
    for (_, summaries) in windows {
        len += WINDOW_FIXED;
        for section in summaries.strata().values() {
            len += 4 + summary_section_len(section);
        }
        len += summaries.heavy().entries().len() * HEAVY_ENTRY;
    }
    len
}

/// Encodes per-window summaries into a v3 wire frame in a caller-owned
/// buffer, replacing its contents — zero allocations per frame once the
/// buffer has warmed up. `config` and `seed` are frame-wide (they are
/// topology-wide in practice); every window's summaries must carry the
/// same pair.
///
/// # Examples
///
/// ```
/// use approxiot_core::{SketchConfig, StratumId, StratumSummaries};
/// use approxiot_mq::codec::{decode_summaries, encode_summaries_into};
///
/// let config = SketchConfig::default();
/// let mut summaries = StratumSummaries::new(config, 42);
/// summaries.observe(StratumId::new(0), 1, 2.5);
/// let mut frame = bytes::BytesMut::new();
/// encode_summaries_into(config, 42, &[(0, summaries.clone())], &mut frame);
/// assert_eq!(decode_summaries(&frame)?, vec![(0, summaries)]);
/// # Ok::<(), approxiot_mq::MqError>(())
/// ```
pub fn encode_summaries_into(
    config: SketchConfig,
    seed: u64,
    windows: &[(u64, StratumSummaries)],
    buf: &mut BytesMut,
) {
    buf.clear();
    buf.reserve(encoded_len_summaries(windows));
    buf.put_u16_le(MAGIC);
    buf.put_u8(VERSION_SUMMARY);
    buf.put_u32_le(config.kll_k);
    buf.put_u32_le(config.heavy_capacity);
    buf.put_u64_le(seed);
    buf.put_u32_le(windows.len() as u32);
    for (window, summaries) in windows {
        debug_assert_eq!(summaries.config(), config, "config is frame-wide");
        debug_assert_eq!(summaries.seed(), seed, "seed is frame-wide");
        buf.put_u64_le(*window);
        buf.put_u32_le(summaries.strata().len() as u32);
        for (stratum, section) in summaries.strata() {
            buf.put_u32_le(summary_section_len(section) as u32);
            buf.put_u32_le(stratum.index());
            buf.put_u64_le(section.moments.count);
            buf.put_f64_le(section.moments.sum);
            buf.put_f64_le(section.moments.sum_sq);
            buf.put_u32_le(section.sketch.level());
            buf.put_u64_le(section.sketch.observed());
            buf.put_u32_le(section.sketch.len() as u32);
            for &(hash, value) in section.sketch.entries() {
                buf.put_u64_le(hash);
                buf.put_f64_le(value);
            }
        }
        buf.put_u32_le(summaries.heavy().entries().len() as u32);
        for (stratum, entry) in summaries.heavy().entries() {
            buf.put_u32_le(stratum.index());
            buf.put_f64_le(entry.weight);
            buf.put_f64_le(entry.err);
        }
    }
}

/// Decodes a v3 wire frame back into its per-window summaries.
///
/// # Errors
///
/// Returns [`MqError::Codec`] on a bad magic number, wrong or
/// unsupported version (an item frame is refused by name),
/// truncated/corrupted frame, non-finite summary statistics or trailing
/// bytes; never panics, whatever the input bytes.
pub fn decode_summaries(frame: &[u8]) -> Result<Vec<(u64, StratumSummaries)>, MqError> {
    let mut windows = Vec::new();
    decode_summaries_into(frame, &mut windows)?;
    Ok(windows)
}

/// Decodes a v3 wire frame into `out`, replacing its contents. On error
/// the vector is left cleared — never partially decoded.
fn decode_summaries_into(
    frame: &[u8],
    out: &mut Vec<(u64, StratumSummaries)>,
) -> Result<(), MqError> {
    let result = decode_summaries_inner(frame, out);
    if result.is_err() {
        out.clear();
    }
    result
}

fn decode_summaries_inner(
    frame: &[u8],
    out: &mut Vec<(u64, StratumSummaries)>,
) -> Result<(), MqError> {
    out.clear();
    let mut buf = frame;
    take_header(&mut buf, VERSION_SUMMARY)?;
    if buf.remaining() < SUMMARY_FIXED {
        return Err(MqError::Codec("truncated summary header".into()));
    }
    let kll_k = buf.get_u32_le();
    let heavy_capacity = buf.get_u32_le();
    let config = SketchConfig::new(kll_k, heavy_capacity);
    let seed = buf.get_u64_le();
    let window_count = buf.get_u32_le() as usize;
    for _ in 0..window_count {
        if buf.remaining() < 8 + 4 {
            return Err(MqError::Codec("truncated window header".into()));
        }
        let window = buf.get_u64_le();
        let strata_count = buf.get_u32_le() as usize;
        let mut strata = Vec::new();
        for _ in 0..strata_count {
            if buf.remaining() < 4 {
                return Err(MqError::Codec("truncated section length".into()));
            }
            let len = buf.get_u32_le() as usize;
            if buf.remaining() < len {
                return Err(MqError::Codec("truncated stratum section".into()));
            }
            let (mut section, tail) = buf.split_at(len);
            buf = tail;
            if section.remaining() < SECTION_FIXED {
                return Err(MqError::Codec(
                    "stratum section shorter than its fixed part".into(),
                ));
            }
            let stratum = StratumId::new(section.get_u32_le());
            let count = section.get_u64_le();
            let sum = section.get_f64_le();
            let sum_sq = section.get_f64_le();
            if !sum.is_finite() || !sum_sq.is_finite() {
                return Err(MqError::Codec(format!("non-finite moments for {stratum}")));
            }
            let level = section.get_u32_le();
            let observed = section.get_u64_le();
            let entry_count = section.get_u32_le() as usize;
            let nbytes = entry_count
                .checked_mul(SKETCH_ENTRY)
                .ok_or_else(|| MqError::Codec("sketch entry count overflows".into()))?;
            if section.remaining() != nbytes {
                return Err(MqError::Codec(format!(
                    "stratum section length mismatch: {} bytes for {entry_count} sketch entries",
                    section.remaining()
                )));
            }
            let mut entries = Vec::with_capacity(entry_count);
            for _ in 0..entry_count {
                let hash = section.get_u64_le();
                let value = section.get_f64_le();
                entries.push((hash, value));
            }
            strata.push((
                stratum,
                StratumSummary {
                    moments: Moments { count, sum, sum_sq },
                    sketch: KllSketch::from_parts(
                        kll_k,
                        stratum_sketch_seed(seed, stratum),
                        level,
                        observed,
                        entries,
                    ),
                },
            ));
        }
        if buf.remaining() < 4 {
            return Err(MqError::Codec("truncated heavy count".into()));
        }
        let heavy_count = buf.get_u32_le() as usize;
        let nbytes = heavy_count
            .checked_mul(HEAVY_ENTRY)
            .ok_or_else(|| MqError::Codec("heavy entry count overflows".into()))?;
        if buf.remaining() < nbytes {
            return Err(MqError::Codec("truncated heavy entries".into()));
        }
        let mut heavy = Vec::with_capacity(heavy_count);
        for _ in 0..heavy_count {
            let stratum = StratumId::new(buf.get_u32_le());
            let weight = buf.get_f64_le();
            let err = buf.get_f64_le();
            // Reject counters the query path could not build estimates
            // from (Estimate::new refuses NaN values and variances).
            // Negative values are legitimate: a stratum of negative item
            // values carries a negative mass and floor.
            if !weight.is_finite() || !err.is_finite() {
                return Err(MqError::Codec(format!(
                    "invalid heavy counter ({weight}, {err}) for {stratum}"
                )));
            }
            heavy.push((stratum, HeavyEntry { weight, err }));
        }
        out.push((
            window,
            StratumSummaries::from_parts(
                config,
                seed,
                strata,
                SpaceSaving::from_parts(heavy_capacity, heavy),
            ),
        ));
    }
    if buf.remaining() != 0 {
        return Err(MqError::Codec(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxiot_core::WeightMap;

    fn sample_batch() -> Batch {
        let mut weights = WeightMap::new();
        weights.set(StratumId::new(0), 1.5);
        weights.set(StratumId::new(3), 12.25);
        Batch::with_weights(
            weights,
            vec![
                StreamItem::with_meta(StratumId::new(0), 1.0, 1, 10),
                StreamItem::with_meta(StratumId::new(3), -2.5, 2, 20),
                StreamItem::with_meta(StratumId::new(0), 1e9, 3, 30),
            ],
        )
    }

    /// `batch` as a v2 frame, through the AoS entry point.
    fn v2_frame(batch: &Batch) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_batch_v2_into(batch, &mut buf);
        buf.to_vec()
    }

    /// `batch` in the retired v1 layout, as an old sender wrote it:
    /// header, weights, then a `u32` count and 28-byte interleaved items.
    fn retired_v1_frame(batch: &Batch) -> Vec<u8> {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION_RETIRED);
        buf.put_u32_le(batch.weights.len() as u32);
        for (stratum, weight) in batch.weights.iter() {
            buf.put_u32_le(stratum.index());
            buf.put_f64_le(weight);
        }
        buf.put_u32_le(batch.items.len() as u32);
        for item in &batch.items {
            buf.put_u32_le(item.stratum.index());
            buf.put_f64_le(item.value);
            buf.put_u64_le(item.seq);
            buf.put_u64_le(item.source_ts);
        }
        buf.to_vec()
    }

    /// Every item decoder's error on `frame`, all of which must agree.
    fn item_decode_error(frame: &[u8]) -> MqError {
        let mut batch = sample_batch();
        let any = decode_batch_any_into(frame, &mut batch).unwrap_err();
        assert!(batch.is_empty(), "failed decode leaves the batch cleared");
        let columns = decode_columns(frame).unwrap_err();
        assert_eq!(any, columns);
        assert_eq!(frame_items(frame).unwrap_err(), columns);
        columns
    }

    #[test]
    fn frame_items_counts_without_decoding() {
        let cols = ColumnarBatch::from_batch(&sample_batch());
        let frame = encode_columns(&cols);
        assert_eq!(frame_items(&frame).expect("v2 frame"), 3);
        assert_eq!(frame_items(&encode_columns(&ColumnarBatch::new())), Ok(0));
        // Same refusals, same messages, as the decoder.
        for bad in [
            &retired_v1_frame(&sample_batch())[..],
            &summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &sample_summaries())[..],
            &frame[..frame.len() - 8],
            &[0xFF, 0xFF, 2][..],
        ] {
            assert_eq!(
                frame_items(bad).unwrap_err(),
                decode_columns(bad).unwrap_err()
            );
        }
    }

    #[test]
    fn roundtrip_preserves_batch() {
        let batch = sample_batch();
        let frame = v2_frame(&batch);
        assert_eq!(frame.len(), encoded_len_v2(&batch));
        let mut decoded = Batch::new();
        decode_batch_any_into(&frame, &mut decoded).expect("decodes");
        assert_eq!(decoded, batch);
    }

    #[test]
    fn roundtrip_empty_batch() {
        let batch = Batch::new();
        let mut decoded = sample_batch();
        decode_batch_any_into(&v2_frame(&batch), &mut decoded).expect("decodes");
        assert_eq!(decoded, batch);
        assert_eq!(encoded_len_v2(&batch), HEADER + 4 + 16);
        assert_eq!(encoded_len(&batch), HEADER + 8);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut frame = v2_frame(&sample_batch());
        frame[0] ^= 0xFF;
        assert!(item_decode_error(&frame).to_string().contains("bad magic"));
        assert!(matches!(decode_summaries(&frame), Err(MqError::Codec(_))));
    }

    #[test]
    fn rejects_bad_version() {
        let mut frame = v2_frame(&sample_batch());
        frame[2] = 99;
        let err = item_decode_error(&frame);
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
        let err = decode_summaries(&frame).unwrap_err();
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let frame = v2_frame(&sample_batch());
        for len in 0..frame.len() {
            item_decode_error(&frame[..len]);
        }
    }

    #[test]
    fn rejects_trailing_bytes() {
        let mut frame = v2_frame(&sample_batch());
        frame.push(0);
        assert!(item_decode_error(&frame).to_string().contains("trailing"));
    }

    #[test]
    fn rejects_invalid_weight() {
        let mut frame = v2_frame(&sample_batch());
        // The first weight entry's value sits after the header, the
        // weight count and its stratum id.
        let at = HEADER + 4 + 4;
        frame[at..at + 8].copy_from_slice(&0.5f64.to_le_bytes());
        let err = item_decode_error(&frame);
        assert!(err.to_string().contains("invalid weight"), "{err}");
    }

    #[test]
    fn encode_into_reuses_buffer_without_growth() {
        let batch = sample_batch();
        let cols = ColumnarBatch::from_batch(&batch);
        let mut buf = BytesMut::new();
        encode_batch_v2_into(&batch, &mut buf);
        let warm = buf.capacity();
        for _ in 0..100 {
            encode_batch_v2_into(&batch, &mut buf);
            assert_eq!(
                &buf[..],
                &encode_columns(&cols)[..],
                "same bytes as one-shot"
            );
            encode_columns_into(&cols, &mut buf);
        }
        assert_eq!(buf.capacity(), warm, "steady state: no per-frame growth");
        assert_eq!(buf.len(), encoded_len_columns(&cols));
    }

    #[test]
    fn decode_into_refills_recycled_batch_without_growth() {
        let batch = sample_batch();
        let frame = v2_frame(&batch);
        let mut recycled = Batch::new();
        decode_batch_any_into(&frame, &mut recycled).expect("decodes");
        assert_eq!(recycled, batch);
        let warm = recycled.items.capacity();
        for _ in 0..100 {
            decode_batch_any_into(&frame, &mut recycled).expect("decodes");
        }
        assert_eq!(recycled, batch);
        assert_eq!(recycled.items.capacity(), warm, "item storage reused");
    }

    #[test]
    fn decode_into_clears_stale_contents_on_error() {
        let mut stale = sample_batch();
        let err = decode_batch_any_into(&[0xFF, 0xFF, 2], &mut stale).unwrap_err();
        assert!(matches!(err, MqError::Codec(_)));
        assert!(stale.is_empty(), "failed decode must not leave stale items");
        assert!(stale.weights.is_empty());
    }

    #[test]
    fn encoded_len_is_linear_in_items() {
        let one = Batch::from_items(vec![StreamItem::new(StratumId::new(0), 0.0)]);
        let two = Batch::from_items(vec![
            StreamItem::new(StratumId::new(0), 0.0),
            StreamItem::new(StratumId::new(0), 0.0),
        ]);
        assert_eq!(encoded_len(&two) - encoded_len(&one), ITEM_ENTRY);
    }

    #[test]
    fn v2_roundtrip_preserves_columns() {
        let cols = ColumnarBatch::from_batch(&sample_batch());
        let frame = encode_columns(&cols);
        assert_eq!(frame.len(), encoded_len_columns(&cols));
        assert_eq!(frame[2], VERSION_COLUMNAR);
        let decoded = decode_columns(&frame).expect("decodes");
        assert_eq!(decoded, cols);
    }

    #[test]
    fn v2_roundtrip_empty_batch() {
        let cols = ColumnarBatch::new();
        let decoded = decode_columns(&encode_columns(&cols)).expect("decodes");
        assert_eq!(decoded, cols);
        assert_eq!(encoded_len_columns(&cols), HEADER + 4 + 16);
    }

    #[test]
    fn encode_batch_v2_matches_columnar_encode() {
        let batch = sample_batch();
        let from_cols = encode_columns(&ColumnarBatch::from_batch(&batch));
        assert_eq!(
            &v2_frame(&batch)[..],
            &from_cols[..],
            "byte-identical encodings"
        );
        assert_eq!(from_cols.len(), encoded_len_v2(&batch));
    }

    #[test]
    fn v2_decoder_rejects_v1_frame_with_named_error() {
        let err = item_decode_error(&retired_v1_frame(&sample_batch()));
        assert!(
            err.to_string().contains("retired AoS v1 frame"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn v2_rejects_truncation_at_every_length() {
        let frame = encode_columns(&ColumnarBatch::from_batch(&sample_batch()));
        for len in 0..frame.len() {
            assert!(
                decode_columns(&frame[..len]).is_err(),
                "truncated frame of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn v2_rejects_trailing_bytes() {
        let mut frame = encode_columns(&ColumnarBatch::from_batch(&sample_batch())).to_vec();
        frame.push(0);
        let err = decode_columns(&frame).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn v2_rejects_column_length_mismatch() {
        // Hand-craft a frame whose values column is one element short.
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION_COLUMNAR);
        buf.put_u32_le(0); // no weights
        buf.put_u32_le(2); // strata: 2 elements
        buf.put_u32_le(0);
        buf.put_u32_le(1);
        buf.put_u32_le(1); // values: 1 element
        buf.put_f64_le(4.5);
        buf.put_u32_le(2); // seqs
        buf.put_u64_le(1);
        buf.put_u64_le(2);
        buf.put_u32_le(2); // source_ts
        buf.put_u64_le(0);
        buf.put_u64_le(0);
        let err = decode_columns(&buf).unwrap_err();
        assert!(err.to_string().contains("column length mismatch"));
    }

    #[test]
    fn v2_rejects_invalid_weight() {
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION_COLUMNAR);
        buf.put_u32_le(1);
        buf.put_u32_le(7);
        buf.put_f64_le(0.5);
        for _ in 0..4 {
            buf.put_u32_le(0); // four empty columns
        }
        let err = decode_columns(&buf).unwrap_err();
        assert!(err.to_string().contains("invalid weight"));
    }

    #[test]
    fn v2_decode_into_clears_stale_contents_on_error() {
        let mut stale = ColumnarBatch::from_batch(&sample_batch());
        let err = decode_columns_into(&[0xFF, 0xFF, 2], &mut stale).unwrap_err();
        assert!(matches!(err, MqError::Codec(_)));
        assert!(stale.is_empty(), "failed decode must not leave stale items");
        assert!(stale.weights.is_empty());
    }

    #[test]
    fn v2_decode_into_refills_recycled_columns_without_growth() {
        let cols = ColumnarBatch::from_batch(&sample_batch());
        let frame = encode_columns(&cols);
        let mut recycled = ColumnarBatch::new();
        decode_columns_into(&frame, &mut recycled).expect("decodes");
        assert_eq!(recycled, cols);
        let warm = recycled.values.capacity();
        for _ in 0..100 {
            decode_columns_into(&frame, &mut recycled).expect("decodes");
        }
        assert_eq!(recycled, cols);
        assert_eq!(recycled.values.capacity(), warm, "column storage reused");
    }

    #[test]
    fn decode_any_accepts_only_v2() {
        let batch = sample_batch();
        let mut out = Batch::new();
        decode_batch_any_into(&v2_frame(&batch), &mut out).expect("v2 decodes");
        assert_eq!(out, batch);
        let err = decode_batch_any_into(&retired_v1_frame(&batch), &mut out).unwrap_err();
        assert!(err.to_string().contains("retired AoS v1 frame"), "{err}");
        assert!(out.is_empty(), "failed decode leaves the batch cleared");
        let err = decode_batch_any_into(&[0xA1], &mut out).unwrap_err();
        assert!(err.to_string().contains("shorter than header"));
    }

    #[test]
    fn v2_costs_twelve_extra_bytes_over_v1() {
        let batch = sample_batch();
        assert_eq!(retired_v1_frame(&batch).len(), encoded_len(&batch));
        assert_eq!(encoded_len_v2(&batch), encoded_len(&batch) + 12);
        assert_eq!(
            encoded_len_columns(&ColumnarBatch::from_batch(&batch)),
            encoded_len_v2(&batch)
        );
    }

    const SAMPLE_CONFIG: SketchConfig = SketchConfig::new(16, 4);
    const SAMPLE_SEED: u64 = 0xFEED;

    fn sample_summaries() -> Vec<(u64, StratumSummaries)> {
        let mut w0 = StratumSummaries::new(SAMPLE_CONFIG, SAMPLE_SEED);
        for i in 0..120u64 {
            w0.observe(StratumId::new((i % 3) as u32), i, (i % 17) as f64);
        }
        let mut w1 = StratumSummaries::new(SAMPLE_CONFIG, SAMPLE_SEED);
        for i in 0..40u64 {
            w1.observe(StratumId::new(7), 1000 + i, -1.5 * i as f64);
        }
        vec![(0, w0), (3, w1)]
    }

    fn summary_frame(
        config: SketchConfig,
        seed: u64,
        windows: &[(u64, StratumSummaries)],
    ) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_summaries_into(config, seed, windows, &mut buf);
        buf.to_vec()
    }

    #[test]
    fn v3_roundtrip_preserves_summaries() {
        let windows = sample_summaries();
        let frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &windows);
        assert_eq!(frame.len(), encoded_len_summaries(&windows));
        assert_eq!(frame[2], VERSION_SUMMARY);
        assert_eq!(decode_summaries(&frame).expect("decodes"), windows);
    }

    #[test]
    fn v3_roundtrip_empty_frame() {
        let frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &[]);
        assert_eq!(frame.len(), HEADER + SUMMARY_FIXED);
        assert_eq!(decode_summaries(&frame).expect("decodes"), vec![]);
    }

    #[test]
    fn v3_roundtrip_counts_only_config() {
        let config = SketchConfig::counts_only();
        let mut summaries = StratumSummaries::new(config, 1);
        for i in 0..50u64 {
            summaries.observe(StratumId::new(0), i, 2.0);
        }
        let windows = vec![(9, summaries)];
        let frame = summary_frame(config, 1, &windows);
        let decoded = decode_summaries(&frame).expect("decodes");
        assert_eq!(decoded, windows);
        assert_eq!(decoded[0].1.count(), 50);
    }

    #[test]
    fn v3_rejects_truncation_at_every_length() {
        let frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &sample_summaries());
        for len in 0..frame.len() {
            assert!(
                decode_summaries(&frame[..len]).is_err(),
                "truncated frame of {len} bytes must not decode"
            );
        }
    }

    #[test]
    fn v3_rejects_trailing_bytes() {
        let mut frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &sample_summaries());
        frame.push(0);
        let err = decode_summaries(&frame).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn v3_rejects_invalid_heavy_counter() {
        // Hand-craft a frame with a NaN heavy weight: one window, no
        // strata, one heavy entry.
        let mut buf = BytesMut::new();
        buf.put_u16_le(MAGIC);
        buf.put_u8(VERSION_SUMMARY);
        buf.put_u32_le(16);
        buf.put_u32_le(4);
        buf.put_u64_le(0);
        buf.put_u32_le(1); // one window
        buf.put_u64_le(0); // window index
        buf.put_u32_le(0); // no strata
        buf.put_u32_le(1); // one heavy entry
        buf.put_u32_le(5);
        buf.put_f64_le(f64::NAN);
        buf.put_f64_le(0.0);
        let err = decode_summaries(&buf).unwrap_err();
        assert!(err.to_string().contains("invalid heavy counter"));
    }

    #[test]
    fn v3_rejects_section_length_mismatch() {
        // A section that claims more sketch entries than its length holds.
        let mut frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &sample_summaries());
        // The first section's sketch entry count sits after the length
        // prefix (4) + stratum (4) + moments (24) + level (4) + observed
        // (8); window header starts after HEADER + SUMMARY_FIXED.
        let entry_count_at = HEADER + SUMMARY_FIXED + 8 + 4 + 4 + 4 + 24 + 4 + 8;
        frame[entry_count_at] = frame[entry_count_at].wrapping_add(1);
        let err = decode_summaries(&frame).unwrap_err();
        assert!(
            err.to_string().contains("section length mismatch"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn v3_decoder_rejects_v1_and_v2_frames_with_named_errors() {
        let err = decode_summaries(&retired_v1_frame(&sample_batch())).unwrap_err();
        assert!(
            err.to_string().contains("retired AoS v1 frame"),
            "unexpected error: {err}"
        );
        let frame = encode_columns(&ColumnarBatch::from_batch(&sample_batch()));
        let err = decode_summaries(&frame).unwrap_err();
        assert!(
            err.to_string().contains("columnar v2 frame"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn item_decoders_reject_v3_frame_with_named_errors() {
        let frame = summary_frame(SAMPLE_CONFIG, SAMPLE_SEED, &sample_summaries());
        let err = item_decode_error(&frame);
        assert!(
            err.to_string().contains("summary v3 frame"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn v3_decode_into_clears_stale_contents_on_error() {
        let mut stale = sample_summaries();
        let err = decode_summaries_into(&[0xFF, 0xFF, 3], &mut stale).unwrap_err();
        assert!(matches!(err, MqError::Codec(_)));
        assert!(
            stale.is_empty(),
            "failed decode must not leave stale windows"
        );
    }

    #[test]
    fn v3_size_is_independent_of_item_count() {
        let mut small = StratumSummaries::new(SAMPLE_CONFIG, SAMPLE_SEED);
        let mut large = StratumSummaries::new(SAMPLE_CONFIG, SAMPLE_SEED);
        for i in 0..200u64 {
            small.observe(StratumId::new((i % 3) as u32), i, (i % 13) as f64);
        }
        for i in 0..20_000u64 {
            large.observe(StratumId::new((i % 3) as u32), i, (i % 13) as f64);
        }
        let small_len = encoded_len_summaries(&[(0, small)]);
        let large_len = encoded_len_summaries(&[(0, large)]);
        // The frame is bounded by strata count and configured capacities
        // alone: 100× the items cannot push it past the cap.
        let cap = HEADER
            + SUMMARY_FIXED
            + WINDOW_FIXED
            + 3 * (4 + SECTION_FIXED + 16 * SKETCH_ENTRY)
            + 4 * HEAVY_ENTRY;
        assert!(small_len <= cap, "{small_len} > {cap}");
        assert!(large_len <= cap, "{large_len} > {cap}");
    }
}
