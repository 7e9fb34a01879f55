//! Binary persistence for the generated data tables — the versioned wire
//! format behind every backend's `export`, the one replay
//! [`crate::RepositoryExport::ingest_into`] that loads it back, and the
//! `Vita::save_to` / `load_from` convenience in `vita-core`.
//!
//! ## Wire format (version 2, current)
//!
//! A compact little-endian framing built on `bytes`, **run-segmented** so
//! a multi-run repository round-trips without flattening its [`RunId`]
//! dimension:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "VITA"
//! 4       1     version (2)
//! 5       1     record-type tag (1=trajectory 2=rssi 3=fix 4=proximity)
//! 6       4     run-section count (u32)
//! 10      …     sections, strictly ascending by run id:
//!                 run_id     u32
//!                 row_count  u64
//!                 rows       row_count × fixed row width
//! end-8   8     FNV-1a 64 checksum of every preceding byte
//! ```
//!
//! Rows are fixed-width (trajectory/fix 37 bytes, RSSI/proximity 24), so a
//! section's extent is known from its header and a run-0-only export costs
//! 16 bytes over the v1 framing (30 bytes of framing vs 14: the section
//! header and checksum, minus the absorbed v1 count). Empty sections are
//! never written. The trailing checksum is an integrity check (not
//! cryptographic): random corruption of a valid file decodes to a
//! [`CodecError`], never to silently wrong data. [`encode_runs`] and
//! [`decode_runs`] write and read table files of every row type
//! ([`WireRecord`]).
//!
//! ## Segment files (spill tier)
//!
//! A sealed segment spilled to disk by the segmented backend uses the
//! same envelope with the record-type tag's high bit set
//! (`tag | 0x80`), marking a **segment** file: each run section carries
//! `row_count` rows followed by `row_count` little-endian `u64` arrival
//! stamps (seqs). Sealed sections are physically `(t, seq)`-sorted, so
//! the seqs are neither contiguous nor monotone and must travel with the
//! rows for page-in to reproduce bit-identical answers. The flag bit
//! keeps the two shapes mutually unreadable: feeding a segment file to a
//! table decoder (or vice versa) is [`CodecError::WrongRecordType`],
//! never a silent misparse. [`encode_segment`] / [`decode_segment`] are
//! the public entry points, and [`decode_segment`] verifies the whole
//! file, trailing checksum included.
//!
//! The spill tier reads its own files one section at a time instead.
//! When it spills a segment, the encoder also reports each section's
//! extent: byte offset, byte length, and the word checksum (below) of
//! exactly those bytes — the section's run/count header, rows and seqs.
//! The segmented backend keeps these extents in memory as the file's
//! section directory, so a query that needs one run reads that run's
//! extent alone and verifies it against its own checksum, without
//! reading or hashing the rest of the file; export and compaction read
//! every section the same way. Whole-repository export then writes every
//! table file with [`encode_runs`].
//!
//! The trailing checksum of a segment file is not FNV-1a but a
//! word-at-a-time 64-bit checksum: the body is read as little-endian
//! `u64` words in four independent xor-multiply lanes (the tail bytes
//! zero-padded into one last word), and the lanes are folded together
//! with the body length. Every step is a bijection of the running state,
//! so any change confined to one word — every single-bit flip included —
//! always changes the checksum. Segment files never outlive the
//! repository instance that wrote them (its spill directory is removed on
//! drop), so their checksum can change between builds without breaking
//! anything on disk. Table files are unchanged: their trailer is FNV-1a,
//! byte for byte as before.
//!
//! ## Version 1 (legacy, read-only)
//!
//! `magic | version=1 | tag | row_count u64 | rows` — no run sections, no
//! checksum. v1 files still decode behind the version dispatch; every row
//! lands in [`RunId::DEFAULT`] (run 0), which is exactly what the v1
//! exporter had flattened them to. The v2 writer is the only writer; the
//! `codec_roundtrip` golden-fixture test pins v1 decoding in CI.
//!
//! ## Decode guarantees
//!
//! Rows are decoded in one presized pass over exact-size row chunks of a
//! section's byte block. Decoders accept exactly the documented framing
//! and fail loudly otherwise: unknown location-kind tags are
//! [`CodecError::BadLocKind`] (not silently coerced), bytes past the last
//! declared row are [`CodecError::TrailingBytes`] (concatenated or padded
//! files do not pass as one table), header-claimed counts are
//! cross-checked against the remaining byte budget up front
//! ([`CodecError::CountOverflow`] / [`CodecError::Truncated`]) instead of
//! looping per-row on absurd counts.

use bytes::{BufMut, Bytes, BytesMut};

use vita_geometry::Point;
use vita_indoor::{
    BuildingId, DeviceId, FloorId, Loc, LocKind, ObjectId, PartitionId, RunId, Timestamp,
};
use vita_mobility::TrajectorySample;
use vita_positioning::{Fix, ProximityRecord};
use vita_rssi::RssiMeasurement;

const MAGIC: &[u8; 4] = b"VITA";
/// Current wire-format version: run-segmented framing + checksum.
const VERSION: u8 = 2;
/// Legacy single-run framing, still decoded (into run 0).
const VERSION_V1: u8 = 1;

const TAG_TRAJECTORY: u8 = 1;
const TAG_RSSI: u8 = 2;
const TAG_FIX: u8 = 3;
const TAG_PROXIMITY: u8 = 4;
/// High bit of the tag byte: the file is a *segment* (rows + seqs per
/// section), not a plain table.
const SEQ_FLAG: u8 = 0x80;

/// Fixed row widths (bytes) per record type. A `Loc` is 25 bytes for both
/// kinds (partition payloads are padded), keeping every row fixed-width.
const LOC_SIZE: usize = 25;
const TRAJECTORY_ROW: usize = 4 + LOC_SIZE + 8;
const RSSI_ROW: usize = 4 + 4 + 8 + 8;
const FIX_ROW: usize = 4 + LOC_SIZE + 8;
const PROXIMITY_ROW: usize = 4 + 4 + 8 + 8;

/// `magic + version + tag + row count` — the whole v1 header.
const V1_HEADER: usize = 4 + 1 + 1 + 8;
/// `magic + version + tag + section count` — the fixed v2 header.
const V2_HEADER: usize = 4 + 1 + 1 + 4;
/// `run_id + row_count` — the fixed per-section header.
const SECTION_HEADER: usize = 4 + 8;
const CHECKSUM_SIZE: usize = 8;

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the `VITA` magic.
    BadMagic,
    /// A version this build cannot decode (neither 1 nor 2).
    UnsupportedVersion(u8),
    /// The file holds a different table's rows.
    WrongRecordType { expected: u8, got: u8 },
    /// The buffer ends before the declared rows/sections do.
    Truncated,
    /// A location row carries an unknown kind tag (not point/partition).
    BadLocKind(u8),
    /// Bytes remain after the last declared row — a concatenated, padded
    /// or otherwise corrupt file.
    TrailingBytes,
    /// A header-declared count does not fit the address space (the
    /// `count × row width` budget overflows).
    CountOverflow,
    /// The trailing checksum does not match the framed bytes.
    ChecksumMismatch,
    /// v2 run sections must be strictly ascending by run id.
    UnsortedRuns { prev: u32, next: u32 },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a Vita data file"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::WrongRecordType { expected, got } => {
                write!(f, "wrong record type: expected {expected}, got {got}")
            }
            CodecError::Truncated => write!(f, "file truncated"),
            CodecError::BadLocKind(k) => write!(f, "unknown location kind tag {k}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after the last declared row"),
            CodecError::CountOverflow => write!(f, "declared row count overflows the file budget"),
            CodecError::ChecksumMismatch => write!(f, "checksum mismatch (corrupt file)"),
            CodecError::UnsortedRuns { prev, next } => {
                write!(
                    f,
                    "run sections not strictly ascending ({prev} then {next})"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// FNV-1a 64-bit over the framed bytes — fast, dependency-free integrity
/// hashing (not cryptographic). The checksum of every table file.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum of every segment file: little-endian 64-bit words
/// xor-multiplied into four independent lanes (a zero-padded word takes
/// the tail), then folded together with the byte length. Each step is a
/// bijection of the state — xor by a word, multiplication by an odd
/// constant, an xor-shift — so changing any one word always changes the
/// result: every single-bit flip is caught, not just most. It does one
/// multiply per eight bytes, in four independent chains, where FNV-1a
/// does one per byte in a single chain — the difference matters on
/// page-in's multi-megabyte files. Not cryptographic.
fn word_checksum(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lanes: [u64; 4] = [
        0x243f_6a88_85a3_08d3,
        0x1319_8a2e_0370_7344,
        0xa409_3822_299f_31d0,
        0x082e_fa98_ec4e_6c89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = (*lane ^ u64_at(word, 0)).wrapping_mul(K);
        }
    }
    for (lane, tail) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        *lane = (*lane ^ u64::from_le_bytes(word)).wrapping_mul(K);
    }
    lanes.iter().fold(bytes.len() as u64, |h, &lane| {
        let h = (h ^ lane).wrapping_mul(K);
        h ^ (h >> 32)
    })
}

/// The trailing checksum of a v2-framed body with record-type byte `tag`:
/// FNV-1a for table files, [`word_checksum`] for segment files.
fn checksum(tag: u8, body: &[u8]) -> u64 {
    if tag & SEQ_FLAG == 0 {
        fnv1a(body)
    } else {
        word_checksum(body)
    }
}

/// The `N` bytes of a fixed-width record at offset `at`.
fn bytes_at<const N: usize>(record: &[u8], at: usize) -> [u8; N] {
    let mut b = [0u8; N];
    b.copy_from_slice(&record[at..at + N]);
    b
}

fn u32_at(record: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes_at(record, at))
}

fn u64_at(record: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes_at(record, at))
}

fn f64_at(record: &[u8], at: usize) -> f64 {
    f64::from_le_bytes(bytes_at(record, at))
}

fn put_loc(loc: &Loc, buf: &mut BytesMut) {
    buf.put_u32_le(loc.building.0);
    buf.put_u32_le(loc.floor.0);
    match loc.kind {
        LocKind::Point(p) => {
            buf.put_u8(0);
            buf.put_f64_le(p.x);
            buf.put_f64_le(p.y);
        }
        LocKind::Partition(pid) => {
            buf.put_u8(1);
            buf.put_u32_le(pid.0);
            buf.put_u32_le(0); // pad to keep rows fixed-width
            buf.put_u64_le(0);
        }
    }
}

/// Decode the [`LOC_SIZE`] location bytes at `at` of a row.
fn loc_at(row: &[u8], at: usize) -> Result<Loc, CodecError> {
    let building = BuildingId(u32_at(row, at));
    let floor = FloorId(u32_at(row, at + 4));
    match row[at + 8] {
        0 => {
            let p = Point::new(f64_at(row, at + 9), f64_at(row, at + 17));
            Ok(Loc::point(building, floor, p))
        }
        1 => Ok(Loc::partition(
            building,
            floor,
            PartitionId(u32_at(row, at + 9)),
        )),
        k => Err(CodecError::BadLocKind(k)),
    }
}

fn put_trajectory(s: &TrajectorySample, buf: &mut BytesMut) {
    buf.put_u32_le(s.object.0);
    put_loc(&s.loc, buf);
    buf.put_u64_le(s.t.0);
}

fn put_rssi(m: &RssiMeasurement, buf: &mut BytesMut) {
    buf.put_u32_le(m.object.0);
    buf.put_u32_le(m.device.0);
    buf.put_f64_le(m.rssi);
    buf.put_u64_le(m.t.0);
}

fn put_fix(fx: &Fix, buf: &mut BytesMut) {
    buf.put_u32_le(fx.object.0);
    put_loc(&fx.loc, buf);
    buf.put_u64_le(fx.t.0);
}

fn put_proximity(r: &ProximityRecord, buf: &mut BytesMut) {
    buf.put_u32_le(r.object.0);
    buf.put_u32_le(r.device.0);
    buf.put_u64_le(r.ts.0);
    buf.put_u64_le(r.te.0);
}

/// Fixed-width wire encoding for one record type — the capability the
/// generic table and segment codecs are written against. `TAG` is the
/// record-type byte in the file header, `ROW` the fixed row width.
pub trait WireRecord: Copy + Send + Sync + 'static {
    /// Record-type tag byte for this row type's files.
    const TAG: u8;
    /// Fixed encoded row width in bytes.
    const ROW: usize;
    /// Append exactly [`Self::ROW`] bytes for this row.
    fn put_row(&self, buf: &mut BytesMut);
    /// Decode one row from exactly [`Self::ROW`] bytes (decoders hand it
    /// exact-size chunks of a section's verified row block).
    fn decode_row(row: &[u8]) -> Result<Self, CodecError>;
}

impl WireRecord for TrajectorySample {
    const TAG: u8 = TAG_TRAJECTORY;
    const ROW: usize = TRAJECTORY_ROW;
    fn put_row(&self, buf: &mut BytesMut) {
        put_trajectory(self, buf)
    }
    fn decode_row(row: &[u8]) -> Result<Self, CodecError> {
        Ok(TrajectorySample {
            object: ObjectId(u32_at(row, 0)),
            loc: loc_at(row, 4)?,
            t: Timestamp(u64_at(row, 4 + LOC_SIZE)),
        })
    }
}

impl WireRecord for RssiMeasurement {
    const TAG: u8 = TAG_RSSI;
    const ROW: usize = RSSI_ROW;
    fn put_row(&self, buf: &mut BytesMut) {
        put_rssi(self, buf)
    }
    fn decode_row(row: &[u8]) -> Result<Self, CodecError> {
        Ok(RssiMeasurement {
            object: ObjectId(u32_at(row, 0)),
            device: DeviceId(u32_at(row, 4)),
            rssi: f64_at(row, 8),
            t: Timestamp(u64_at(row, 16)),
        })
    }
}

impl WireRecord for Fix {
    const TAG: u8 = TAG_FIX;
    const ROW: usize = FIX_ROW;
    fn put_row(&self, buf: &mut BytesMut) {
        put_fix(self, buf)
    }
    fn decode_row(row: &[u8]) -> Result<Self, CodecError> {
        Ok(Fix {
            object: ObjectId(u32_at(row, 0)),
            loc: loc_at(row, 4)?,
            t: Timestamp(u64_at(row, 4 + LOC_SIZE)),
        })
    }
}

impl WireRecord for ProximityRecord {
    const TAG: u8 = TAG_PROXIMITY;
    const ROW: usize = PROXIMITY_ROW;
    fn put_row(&self, buf: &mut BytesMut) {
        put_proximity(self, buf)
    }
    fn decode_row(row: &[u8]) -> Result<Self, CodecError> {
        Ok(ProximityRecord {
            object: ObjectId(u32_at(row, 0)),
            device: DeviceId(u32_at(row, 4)),
            ts: Timestamp(u64_at(row, 8)),
            te: Timestamp(u64_at(row, 16)),
        })
    }
}

/// Write the fixed v2 header for `tag` into a buffer sized for
/// `sections` sections of `payload` total payload bytes.
fn v2_header(tag: u8, sections: usize, payload: usize) -> BytesMut {
    let mut buf =
        BytesMut::with_capacity(V2_HEADER + sections * SECTION_HEADER + payload + CHECKSUM_SIZE);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u8(tag);
    buf.put_u32_le(sections as u32);
    buf
}

/// Seal a framed body with its trailing checksum (FNV-1a for tables, the
/// word checksum for segments — see [`checksum`]).
fn v2_finish(tag: u8, mut buf: BytesMut) -> Bytes {
    let checksum = checksum(tag, buf.as_ref());
    buf.put_u64_le(checksum);
    buf.freeze()
}

/// Encode one table's run sections as a v2 table file. The writer is
/// total — it emits a canonical file for *any* input: empty sections are
/// skipped, and sections are written in ascending run-id order with
/// same-run sections concatenated (repository exporters already pass
/// ascending unique ids, so this is a no-op rearrangement on the hot
/// path).
pub fn encode_runs<T: WireRecord>(sections: &[(RunId, &[T])]) -> Bytes {
    let mut by_run: std::collections::BTreeMap<u32, Vec<&[T]>> = std::collections::BTreeMap::new();
    for (run, rows) in sections {
        if !rows.is_empty() {
            by_run.entry(run.0).or_default().push(rows);
        }
    }
    let rows_total: usize = by_run
        .values()
        .flat_map(|parts| parts.iter().map(|rows| rows.len()))
        .sum();
    let mut buf = v2_header(T::TAG, by_run.len(), rows_total * T::ROW);
    for (run, parts) in by_run {
        buf.put_u32_le(run);
        buf.put_u64_le(parts.iter().map(|rows| rows.len() as u64).sum());
        for rows in parts {
            for r in rows {
                r.put_row(&mut buf);
            }
        }
    }
    v2_finish(T::TAG, buf)
}

/// One run section of a segment file: rows plus their per-table arrival
/// stamps, parallel arrays in the stored `(t, seq)` order.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentSection<T> {
    /// Run the rows belong to.
    pub run: RunId,
    /// Rows in stored order.
    pub rows: Vec<T>,
    /// Arrival stamp of each row, parallel to `rows`.
    pub seqs: Vec<u64>,
}

/// Encode one sealed segment as a self-describing spill file: the v2
/// envelope with the tag's segment bit set, each section carrying its
/// rows followed by their seqs. Canonicalized like `encode_runs`
/// (ascending run ids, same-run parts merged, empty parts dropped).
///
/// # Panics
/// If any section's `rows` and `seqs` lengths differ.
pub fn encode_segment<T: WireRecord>(sections: &[(RunId, &[T], &[u64])]) -> Bytes {
    encode_segment_extents(sections).0
}

/// Where one run section of a segment file lies: the byte range of its
/// header, rows and seqs, and the [`word_checksum`] of exactly those
/// bytes. The spill tier keeps one per section in memory — the file's
/// section directory — so a page-in reads and verifies a section alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SectionExtent {
    pub(crate) offset: u64,
    pub(crate) len: u64,
    pub(crate) checksum: u64,
}

/// [`encode_segment`], plus one [`SectionExtent`] per section written, in
/// file order — taken from the bytes the encoder wrote.
///
/// # Panics
/// If any section's `rows` and `seqs` lengths differ.
pub(crate) fn encode_segment_extents<T: WireRecord>(
    sections: &[(RunId, &[T], &[u64])],
) -> (Bytes, Vec<SectionExtent>) {
    type Parts<'a, T> = Vec<(&'a [T], &'a [u64])>;
    let mut by_run: std::collections::BTreeMap<u32, Parts<'_, T>> =
        std::collections::BTreeMap::new();
    for (run, rows, seqs) in sections {
        assert_eq!(rows.len(), seqs.len(), "rows and seqs must be parallel");
        if !rows.is_empty() {
            by_run.entry(run.0).or_default().push((rows, seqs));
        }
    }
    let rows_total: usize = by_run
        .values()
        .flat_map(|parts| parts.iter().map(|(rows, _)| rows.len()))
        .sum();
    let mut buf = v2_header(T::TAG | SEQ_FLAG, by_run.len(), rows_total * (T::ROW + 8));
    let mut extents = Vec::with_capacity(by_run.len());
    for (run, parts) in by_run {
        let start = buf.len();
        buf.put_u32_le(run);
        buf.put_u64_le(parts.iter().map(|(rows, _)| rows.len() as u64).sum());
        for (rows, _) in &parts {
            for r in *rows {
                r.put_row(&mut buf);
            }
        }
        for (_, seqs) in &parts {
            for &s in *seqs {
                buf.put_u64_le(s);
            }
        }
        extents.push(SectionExtent {
            offset: start as u64,
            len: (buf.len() - start) as u64,
            checksum: word_checksum(&buf.as_ref()[start..]),
        });
    }
    (v2_finish(T::TAG | SEQ_FLAG, buf), extents)
}

/// Byte length of a segment file's fixed header, which
/// [`segment_section_count`] reads.
pub(crate) const SEGMENT_HEADER: usize = V2_HEADER;

/// The section count a segment file of `T` declares, from its first
/// [`SEGMENT_HEADER`] bytes (magic, version and segment tag checked).
pub(crate) fn segment_section_count<T: WireRecord>(header: &[u8]) -> Result<u32, CodecError> {
    let version = check_magic(header)?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    check_tag(header, T::TAG | SEQ_FLAG)?;
    if header.len() < V2_HEADER {
        return Err(CodecError::Truncated);
    }
    Ok(u32_at(header, 6))
}

/// The run and row count a segment section's leading bytes declare;
/// `None` when fewer than a section header's bytes are given.
pub(crate) fn section_header(section: &[u8]) -> Option<(RunId, u64)> {
    (section.len() >= SECTION_HEADER).then(|| (RunId(u32_at(section, 0)), u64_at(section, 4)))
}

/// Decode one segment section from exactly the bytes its
/// [`SectionExtent`] covers: the bytes must match the extent's checksum
/// first, then hold the header, its rows and its seqs, and nothing more.
pub(crate) fn decode_segment_section<T: WireRecord>(
    section: &[u8],
    checksum: u64,
) -> Result<SegmentSection<T>, CodecError> {
    if word_checksum(section) != checksum {
        return Err(CodecError::ChecksumMismatch);
    }
    let (run, count) = section_header(section).ok_or(CodecError::Truncated)?;
    let mut buf = &section[SECTION_HEADER..];
    let rows = read_rows(&mut buf, count)?;
    let seqs = read_seqs(&mut buf, count)?;
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    Ok(SegmentSection { run, rows, seqs })
}

/// Decode a segment file produced by [`encode_segment`]. Fails with
/// [`CodecError::WrongRecordType`] on a plain table file (and table
/// decoders fail the same way on segment files) — the two framings are
/// mutually unreadable by construction.
pub fn decode_segment<T: WireRecord>(data: &[u8]) -> Result<Vec<SegmentSection<T>>, CodecError> {
    walk_v2(T::TAG | SEQ_FLAG, data, |buf, run, count| {
        let rows = read_rows(buf, count)?;
        let seqs = read_seqs(buf, count)?;
        Ok((!rows.is_empty()).then_some(SegmentSection { run, rows, seqs }))
    })
}

/// Split the next `count` fixed-width records off `buf`, with the byte
/// budget cross-checked up front: an absurd header-claimed count fails in
/// O(1) instead of allocating or looping per record.
fn take_block<'a>(buf: &mut &'a [u8], count: u64, width: usize) -> Result<&'a [u8], CodecError> {
    let needed = count
        .checked_mul(width as u64)
        .ok_or(CodecError::CountOverflow)?;
    if count > usize::MAX as u64 {
        return Err(CodecError::CountOverflow);
    }
    if needed > buf.len() as u64 {
        return Err(CodecError::Truncated);
    }
    let (block, rest) = buf.split_at(needed as usize);
    *buf = rest;
    Ok(block)
}

/// Read one section's rows: one presized pass over exact-size row chunks.
fn read_rows<T: WireRecord>(buf: &mut &[u8], count: u64) -> Result<Vec<T>, CodecError> {
    let block = take_block(buf, count, T::ROW)?;
    let mut rows = Vec::with_capacity(count as usize);
    for row in block.chunks_exact(T::ROW) {
        rows.push(T::decode_row(row)?);
    }
    Ok(rows)
}

/// Read one section's seq block (`count` little-endian u64s).
fn read_seqs(buf: &mut &[u8], count: u64) -> Result<Vec<u64>, CodecError> {
    let block = take_block(buf, count, 8)?;
    Ok(block.chunks_exact(8).map(|s| u64_at(s, 0)).collect())
}

/// Check the magic, then hand back the version byte.
fn check_magic(data: &[u8]) -> Result<u8, CodecError> {
    if data.len() < 6 {
        return Err(CodecError::Truncated);
    }
    if &data[..4] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Ok(data[4])
}

/// Check the record-type byte against `expected`.
fn check_tag(data: &[u8], expected: u8) -> Result<(), CodecError> {
    match data[5] {
        got if got == expected => Ok(()),
        got => Err(CodecError::WrongRecordType { expected, got }),
    }
}

/// Walk the v2 envelope shared by table and segment files: validate
/// magic/version/tag, split off the trailing checksum, hand each
/// strictly-ascending run section's payload to `read` (which returns
/// `None` for sections the caller drops), reject trailing bytes, and
/// verify the checksum last — structural errors are more precise, and a
/// file that parses but hashes wrong is plain corruption.
fn walk_v2<S>(
    expected_tag: u8,
    data: &[u8],
    mut read: impl FnMut(&mut &[u8], RunId, u64) -> Result<Option<S>, CodecError>,
) -> Result<Vec<S>, CodecError> {
    let version = check_magic(data)?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    check_tag(data, expected_tag)?;
    if data.len() < V2_HEADER + CHECKSUM_SIZE {
        return Err(CodecError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - CHECKSUM_SIZE);
    let section_count = u32_at(body, 6);
    let mut buf = &body[V2_HEADER..];
    // Fast-fail: each section needs at least its header.
    if u64::from(section_count) * SECTION_HEADER as u64 > buf.len() as u64 {
        return Err(CodecError::Truncated);
    }
    let mut out: Vec<S> = Vec::with_capacity(section_count as usize);
    let mut prev: Option<u32> = None;
    for _ in 0..section_count {
        if buf.len() < SECTION_HEADER {
            return Err(CodecError::Truncated);
        }
        let run = u32_at(buf, 0);
        if let Some(p) = prev {
            if run <= p {
                return Err(CodecError::UnsortedRuns { prev: p, next: run });
            }
        }
        prev = Some(run);
        let count = u64_at(buf, 4);
        buf = &buf[SECTION_HEADER..];
        if let Some(section) = read(&mut buf, RunId(run), count)? {
            out.push(section);
        }
    }
    if !buf.is_empty() {
        return Err(CodecError::TrailingBytes);
    }
    if checksum(expected_tag, body) != u64_at(trailer, 0) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(out)
}

/// Decode a table file of either version into its run sections, ascending
/// by run id. v1 files decode as one [`RunId::DEFAULT`] section (or none,
/// when empty). Sections with zero rows are never produced.
pub fn decode_runs<T: WireRecord>(data: &[u8]) -> Result<Vec<(RunId, Vec<T>)>, CodecError> {
    if check_magic(data)? == VERSION_V1 {
        check_tag(data, T::TAG)?;
        if data.len() < V1_HEADER {
            return Err(CodecError::Truncated);
        }
        let mut buf = &data[V1_HEADER..];
        let rows = read_rows(&mut buf, u64_at(data, 6))?;
        if !buf.is_empty() {
            return Err(CodecError::TrailingBytes);
        }
        return Ok(if rows.is_empty() {
            Vec::new()
        } else {
            vec![(RunId::DEFAULT, rows)]
        });
    }
    walk_v2(T::TAG, data, |buf, run, count| {
        let rows = read_rows(buf, count)?;
        Ok((!rows.is_empty()).then_some((run, rows)))
    })
}

/// Filesystem half of [`crate::RepositoryExport::write_dir`]: disk I/O
/// stays confined to the persistence modules (`clippy::disallowed_methods`
/// elsewhere), so the facade in `lib.rs` delegates the actual `fs` calls
/// here. Each file is written crash-atomically via
/// [`crate::segment::write_atomic`].
#[expect(
    clippy::disallowed_methods,
    reason = "R2: the export directory is created here"
)]
pub(crate) fn write_export_dir(
    export: &crate::RepositoryExport,
    dir: &std::path::Path,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let tables: [&Bytes; 4] = [
        &export.trajectories,
        &export.rssi,
        &export.fixes,
        &export.proximity,
    ];
    for (name, data) in crate::RepositoryExport::FILE_NAMES.iter().zip(tables) {
        crate::segment::write_atomic(&dir.join(name), data.as_ref())?;
    }
    Ok(())
}

/// Filesystem half of [`crate::RepositoryExport::read_dir`]: purely file
/// I/O — decode errors surface when the export is imported.
#[expect(
    clippy::disallowed_methods,
    reason = "R2: the export directory's table files are read here"
)]
pub(crate) fn read_export_dir(dir: &std::path::Path) -> std::io::Result<crate::RepositoryExport> {
    let read = |name: &str| std::fs::read(dir.join(name)).map(Bytes::from);
    let [t, r, f, p] = crate::RepositoryExport::FILE_NAMES;
    Ok(crate::RepositoryExport {
        trajectories: read(t)?,
        rssi: read(r)?,
        fixes: read(f)?,
        proximity: read(p)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trajectories() -> Vec<TrajectorySample> {
        vec![
            TrajectorySample::new(
                ObjectId(1),
                BuildingId(0),
                FloorId(0),
                Point::new(1.5, 2.5),
                Timestamp(1000),
            ),
            TrajectorySample {
                object: ObjectId(2),
                loc: Loc::partition(BuildingId(0), FloorId(1), PartitionId(7)),
                t: Timestamp(2000),
            },
        ]
    }

    /// One [`RunId::DEFAULT`] table file of `rows`.
    fn encode_one<T: WireRecord>(rows: &[T]) -> Bytes {
        encode_runs(&[(RunId::DEFAULT, rows)])
    }

    /// A table file's rows, every run concatenated in section order.
    fn decode_flat<T: WireRecord>(data: Bytes) -> Result<Vec<T>, CodecError> {
        Ok(decode_runs(&data)?
            .into_iter()
            .flat_map(|(_, rows)| rows)
            .collect())
    }

    /// Hand-encode a v1 trajectory file (the legacy writer no longer
    /// exists, so tests produce its output byte-for-byte).
    fn encode_trajectories_v1(samples: &[TrajectorySample]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u8(VERSION_V1);
        buf.put_u8(TAG_TRAJECTORY);
        buf.put_u64_le(samples.len() as u64);
        for s in samples {
            put_trajectory(s, &mut buf);
        }
        buf.freeze()
    }

    #[test]
    fn trajectory_round_trip() {
        let original = sample_trajectories();
        let encoded = encode_one(&original);
        let decoded = decode_flat::<TrajectorySample>(encoded).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn rssi_round_trip() {
        let original = vec![
            RssiMeasurement {
                object: ObjectId(0),
                device: DeviceId(3),
                rssi: -62.25,
                t: Timestamp(500),
            },
            RssiMeasurement {
                object: ObjectId(9),
                device: DeviceId(0),
                rssi: -40.0,
                t: Timestamp(999),
            },
        ];
        let decoded = decode_flat::<RssiMeasurement>(encode_one(&original)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn fix_round_trip() {
        let original = vec![Fix {
            object: ObjectId(4),
            loc: Loc::point(BuildingId(0), FloorId(2), Point::new(-3.25, 8.0)),
            t: Timestamp(12345),
        }];
        let decoded = decode_flat::<Fix>(encode_one(&original)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn proximity_round_trip() {
        let original = vec![ProximityRecord {
            object: ObjectId(5),
            device: DeviceId(6),
            ts: Timestamp(100),
            te: Timestamp(5000),
        }];
        let decoded = decode_flat::<ProximityRecord>(encode_one(&original)).unwrap();
        assert_eq!(decoded, original);
    }

    #[test]
    fn multi_run_sections_round_trip() {
        let run0 = sample_trajectories();
        let run3: Vec<TrajectorySample> = (0..5)
            .map(|i| {
                TrajectorySample::new(
                    ObjectId(i),
                    BuildingId(1),
                    FloorId(0),
                    Point::new(i as f64, -1.0),
                    Timestamp(i as u64 * 10),
                )
            })
            .collect();
        let sections = [
            (RunId(0), run0.as_slice()),
            (RunId(3), run3.as_slice()),
            (RunId(7), run0.as_slice()),
        ];
        let decoded = decode_runs::<TrajectorySample>(&encode_runs(&sections)).unwrap();
        assert_eq!(decoded.len(), 3);
        for ((run, rows), (want_run, want_rows)) in decoded.iter().zip(&sections) {
            assert_eq!(run, want_run);
            assert_eq!(rows.as_slice(), *want_rows);
        }
        // The flattening reader concatenates sections in run order.
        let flat = decode_flat::<TrajectorySample>(encode_runs(&sections)).unwrap();
        assert_eq!(flat.len(), run0.len() * 2 + run3.len());
    }

    #[test]
    fn encoder_canonicalizes_unsorted_and_duplicate_sections() {
        // The writer is total: out-of-order and repeated run ids encode
        // to the canonical ascending-merged file instead of a file the
        // decoder would reject.
        let rows = sample_trajectories();
        let extra = vec![rows[0]];
        let messy = [
            (RunId(5), rows.as_slice()),
            (RunId(1), extra.as_slice()),
            (RunId(5), extra.as_slice()),
        ];
        let decoded = decode_runs::<TrajectorySample>(&encode_runs(&messy)).unwrap();
        let mut run5 = rows.clone();
        run5.extend_from_slice(&extra);
        assert_eq!(decoded, vec![(RunId(1), extra), (RunId(5), run5)]);
    }

    #[test]
    fn empty_sections_are_skipped() {
        let rows = sample_trajectories();
        let sections = [
            (RunId(1), [].as_slice()),
            (RunId(2), rows.as_slice()),
            (RunId(5), [].as_slice()),
        ];
        let decoded = decode_runs::<TrajectorySample>(&encode_runs(&sections)).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].0, RunId(2));
    }

    #[test]
    fn empty_tables_round_trip() {
        assert!(
            decode_flat::<TrajectorySample>(encode_one::<TrajectorySample>(&[]))
                .unwrap()
                .is_empty()
        );
        assert!(
            decode_flat::<RssiMeasurement>(encode_one::<RssiMeasurement>(&[]))
                .unwrap()
                .is_empty()
        );
        assert!(decode_flat::<Fix>(encode_one::<Fix>(&[]))
            .unwrap()
            .is_empty());
        assert!(
            decode_flat::<ProximityRecord>(encode_one::<ProximityRecord>(&[]))
                .unwrap()
                .is_empty()
        );
        assert!(
            decode_runs::<TrajectorySample>(&encode_one::<TrajectorySample>(&[]))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn v1_files_decode_into_run_zero() {
        let original = sample_trajectories();
        let v1 = encode_trajectories_v1(&original);
        assert_eq!(
            decode_flat::<TrajectorySample>(v1.clone()).unwrap(),
            original
        );
        let sections = decode_runs::<TrajectorySample>(&v1).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(sections[0].0, RunId::DEFAULT);
        assert_eq!(sections[0].1, original);
        // An empty v1 file has no sections at all.
        assert!(
            decode_runs::<TrajectorySample>(&encode_trajectories_v1(&[]))
                .unwrap()
                .is_empty()
        );
    }

    #[test]
    fn wrong_type_rejected() {
        let data = encode_one::<RssiMeasurement>(&[]);
        match decode_flat::<TrajectorySample>(data).unwrap_err() {
            CodecError::WrongRecordType { expected, got } => {
                assert_eq!(expected, TAG_TRAJECTORY);
                assert_eq!(got, TAG_RSSI);
            }
            e => panic!("wrong error {e:?}"),
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let data = Bytes::from_static(b"NOPE\x01\x01\x00\x00\x00\x00\x00\x00\x00\x00");
        assert_eq!(
            decode_flat::<TrajectorySample>(data).unwrap_err(),
            CodecError::BadMagic
        );
    }

    #[test]
    fn truncation_detected() {
        let full = encode_one(&sample_trajectories());
        let cut = full.slice(0..full.len() - 5);
        assert_eq!(
            decode_flat::<TrajectorySample>(cut).unwrap_err(),
            CodecError::Truncated
        );
        let tiny = full.slice(0..6);
        assert_eq!(
            decode_flat::<TrajectorySample>(tiny).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn version_checked() {
        let mut raw = BytesMut::new();
        raw.put_slice(MAGIC);
        raw.put_u8(99);
        raw.put_u8(TAG_TRAJECTORY);
        raw.put_u64_le(0);
        assert_eq!(
            decode_flat::<TrajectorySample>(raw.freeze()).unwrap_err(),
            CodecError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn bad_loc_kind_rejected() {
        // v1 framing so no checksum shields the corrupt kind byte: one
        // point-trajectory row whose loc kind tag is 9.
        let mut raw = BytesMut::new();
        raw.put_slice(MAGIC);
        raw.put_u8(VERSION_V1);
        raw.put_u8(TAG_TRAJECTORY);
        raw.put_u64_le(1);
        raw.put_u32_le(1); // object
        raw.put_u32_le(0); // building
        raw.put_u32_le(0); // floor
        raw.put_u8(9); // unknown kind tag
        raw.put_slice(&[0u8; 16]); // payload
        raw.put_u64_le(1000); // t
        assert_eq!(
            decode_flat::<TrajectorySample>(raw.freeze()).unwrap_err(),
            CodecError::BadLocKind(9)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A valid v2 file with junk appended after the checksum.
        let valid = encode_one(&sample_trajectories());
        let mut raw = BytesMut::with_capacity(valid.len() + 3);
        raw.put_slice(valid.as_ref());
        raw.put_slice(b"xyz");
        assert_eq!(
            decode_flat::<TrajectorySample>(raw.freeze()).unwrap_err(),
            CodecError::TrailingBytes
        );
        // Same for v1: two empty files concatenated.
        let v1 = encode_trajectories_v1(&[]);
        let mut cat = BytesMut::new();
        cat.put_slice(v1.as_ref());
        cat.put_slice(v1.as_ref());
        assert_eq!(
            decode_flat::<TrajectorySample>(cat.freeze()).unwrap_err(),
            CodecError::TrailingBytes
        );
    }

    #[test]
    fn absurd_counts_fail_fast() {
        // v1 header claiming u64::MAX rows: the count × row-width budget
        // overflows → CountOverflow, before any row loop.
        let mut raw = BytesMut::new();
        raw.put_slice(MAGIC);
        raw.put_u8(VERSION_V1);
        raw.put_u8(TAG_TRAJECTORY);
        raw.put_u64_le(u64::MAX);
        assert_eq!(
            decode_flat::<TrajectorySample>(raw.freeze()).unwrap_err(),
            CodecError::CountOverflow
        );
        // A large-but-representable claim with no bytes behind it fails
        // the up-front budget check as Truncated.
        let mut raw = BytesMut::new();
        raw.put_slice(MAGIC);
        raw.put_u8(VERSION_V1);
        raw.put_u8(TAG_TRAJECTORY);
        raw.put_u64_le(1 << 40);
        assert_eq!(
            decode_flat::<TrajectorySample>(raw.freeze()).unwrap_err(),
            CodecError::Truncated
        );
    }

    #[test]
    fn checksum_mismatch_detected() {
        let valid = encode_one(&sample_trajectories());
        // Flip one payload byte (an x coordinate) — structure still
        // parses, the checksum does not.
        let mut bytes = valid.as_ref().to_vec();
        let payload = V2_HEADER + SECTION_HEADER + 14;
        bytes[payload] ^= 0x40;
        assert_eq!(
            decode_flat::<TrajectorySample>(Bytes::from(bytes)).unwrap_err(),
            CodecError::ChecksumMismatch
        );
        // Flip a checksum byte itself.
        let mut bytes = valid.as_ref().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert_eq!(
            decode_flat::<TrajectorySample>(Bytes::from(bytes)).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    #[test]
    fn unsorted_run_sections_rejected() {
        // Hand-build a v2 file with sections (3, 3): duplicates and
        // descending ids are both "not strictly ascending".
        for (first, second) in [(3u32, 3u32), (5, 2)] {
            let mut body = BytesMut::new();
            body.put_slice(MAGIC);
            body.put_u8(VERSION);
            body.put_u8(TAG_PROXIMITY);
            body.put_u32_le(2);
            for run in [first, second] {
                body.put_u32_le(run);
                body.put_u64_le(0);
            }
            let checksum = fnv1a(body.as_ref());
            body.put_u64_le(checksum);
            assert_eq!(
                decode_flat::<ProximityRecord>(body.freeze()).unwrap_err(),
                CodecError::UnsortedRuns {
                    prev: first,
                    next: second
                }
            );
        }
    }

    #[test]
    fn segment_round_trip_preserves_rows_and_seqs() {
        let rows = sample_trajectories();
        let seqs_a = [7u64, 3];
        let seqs_b = [11u64, 2];
        let sections = [
            (RunId(1), rows.as_slice(), seqs_a.as_slice()),
            (RunId(4), rows.as_slice(), seqs_b.as_slice()),
        ];
        let decoded = decode_segment::<TrajectorySample>(&encode_segment(&sections)).unwrap();
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].run, RunId(1));
        assert_eq!(decoded[0].rows, rows);
        assert_eq!(decoded[0].seqs, seqs_a);
        assert_eq!(decoded[1].run, RunId(4));
        assert_eq!(decoded[1].seqs, seqs_b);
    }

    #[test]
    fn segment_and_table_files_are_mutually_unreadable() {
        let rows = sample_trajectories();
        let seqs = [0u64, 1];
        let seg = encode_segment(&[(RunId(0), rows.as_slice(), seqs.as_slice())]);
        match decode_flat::<TrajectorySample>(seg.clone()).unwrap_err() {
            CodecError::WrongRecordType { expected, got } => {
                assert_eq!(expected, TAG_TRAJECTORY);
                assert_eq!(got, TAG_TRAJECTORY | SEQ_FLAG);
            }
            e => panic!("wrong error {e:?}"),
        }
        let table = encode_one(&rows);
        match decode_segment::<TrajectorySample>(&table).unwrap_err() {
            CodecError::WrongRecordType { expected, got } => {
                assert_eq!(expected, TAG_TRAJECTORY | SEQ_FLAG);
                assert_eq!(got, TAG_TRAJECTORY);
            }
            e => panic!("wrong error {e:?}"),
        }
        // Cross-table segment mismatch is caught the same way.
        match decode_segment::<RssiMeasurement>(&seg).unwrap_err() {
            CodecError::WrongRecordType { expected, got } => {
                assert_eq!(expected, TAG_RSSI | SEQ_FLAG);
                assert_eq!(got, TAG_TRAJECTORY | SEQ_FLAG);
            }
            e => panic!("wrong error {e:?}"),
        }
    }

    #[test]
    fn segment_truncation_and_corruption_detected() {
        let rows = sample_trajectories();
        let seqs = [5u64, 9];
        let seg = encode_segment(&[(RunId(2), rows.as_slice(), seqs.as_slice())]);
        for cut in [seg.len() - 1, seg.len() - 9, V2_HEADER + 3, 5] {
            assert!(
                decode_segment::<TrajectorySample>(&seg[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
        // Flip a seq byte: the structure still parses, the checksum does
        // not.
        let mut bytes = seg.as_ref().to_vec();
        let seq_off = V2_HEADER + SECTION_HEADER + 2 * TRAJECTORY_ROW + 3;
        bytes[seq_off] ^= 0x10;
        assert_eq!(
            decode_segment::<TrajectorySample>(&bytes).unwrap_err(),
            CodecError::ChecksumMismatch
        );
    }

    /// A small two-section segment file: every single-bit flip and every
    /// truncation must fail the segment decoder. Flips the framing cannot
    /// notice — row and seq payload, the checksum itself — must be caught
    /// by the checksum alone: the flipped body no longer hashes to the
    /// stored trailer, whatever a row field parse would have said first.
    #[test]
    fn segment_checksum_catches_every_bit_flip_and_truncation() {
        let rows = sample_trajectories();
        let seg = encode_segment(&[
            (RunId(0), rows.as_slice(), [4u64, 1].as_slice()),
            (RunId(5), &rows[..1], [7u64].as_slice()),
        ]);
        assert_eq!(decode_segment::<TrajectorySample>(&seg).unwrap().len(), 2);
        let payload0 = V2_HEADER + SECTION_HEADER;
        let payload1 = payload0 + 2 * (TRAJECTORY_ROW + 8) + SECTION_HEADER;
        let payload = |at: usize| {
            (payload0..payload0 + 2 * (TRAJECTORY_ROW + 8)).contains(&at)
                || (payload1..payload1 + TRAJECTORY_ROW + 8).contains(&at)
                || at >= seg.len() - CHECKSUM_SIZE
        };
        for at in 0..seg.len() {
            for bit in 0..8 {
                let mut bytes = seg.to_vec();
                bytes[at] ^= 1 << bit;
                let decoded = decode_segment::<TrajectorySample>(&bytes);
                assert!(decoded.is_err(), "flip of bit {bit} at byte {at} decoded");
                if payload(at) {
                    let (body, trailer) = bytes.split_at(bytes.len() - CHECKSUM_SIZE);
                    assert_ne!(
                        word_checksum(body),
                        u64_at(trailer, 0),
                        "flip of bit {bit} at byte {at} kept the checksum"
                    );
                }
            }
        }
        for cut in 0..seg.len() {
            assert!(decode_segment::<TrajectorySample>(&seg[..cut]).is_err());
        }
    }

    /// Table files keep their FNV-1a trailer byte for byte; only segment
    /// files carry the word checksum.
    #[test]
    fn table_and_segment_files_carry_their_own_checksums() {
        let rows = sample_trajectories();
        let trailer = |file: &Bytes| {
            let body = &file[..file.len() - CHECKSUM_SIZE];
            (body.to_vec(), u64_at(file, file.len() - CHECKSUM_SIZE))
        };
        let (body, sum) = trailer(&encode_one(&rows));
        assert_eq!(sum, fnv1a(&body));
        let (body, sum) = trailer(&encode_segment(&[(
            RunId(0),
            rows.as_slice(),
            [0u64, 1].as_slice(),
        )]));
        assert_eq!(sum, word_checksum(&body));
        assert_ne!(sum, fnv1a(&body));
    }

    #[test]
    fn empty_segment_round_trips() {
        let seg = encode_segment::<TrajectorySample>(&[]);
        assert!(decode_segment::<TrajectorySample>(&seg).unwrap().is_empty());
    }

    #[test]
    fn section_count_cross_checked() {
        // Header claims 1000 sections over an empty body: fail fast.
        let mut body = BytesMut::new();
        body.put_slice(MAGIC);
        body.put_u8(VERSION);
        body.put_u8(TAG_FIX);
        body.put_u32_le(1000);
        let checksum = fnv1a(body.as_ref());
        body.put_u64_le(checksum);
        assert_eq!(
            decode_flat::<Fix>(body.freeze()).unwrap_err(),
            CodecError::Truncated
        );
    }
}
