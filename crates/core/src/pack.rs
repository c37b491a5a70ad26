//! `phocus-pack` v1: a versioned, checksummed binary instance format.
//!
//! Every `phocus` entry point used to cold-start through text parse →
//! builder → validate → representation. This module serializes the
//! represented instance — photo/subset tables, per-subset
//! [`DenseSim`]/[`SparseSim`] stores, and the component shard labels that
//! save the solver its union-find — into a section file:
//!
//! * [`pack_instance`] takes an already-validated [`Instance`] (the builder
//!   or the representation pipeline has normalized and checked everything),
//!   derives the shard labels once, and writes every arena verbatim. It
//!   also writes two sections of data derived from the instance, the
//!   membership reverse index (MEMBERSHIP) and the fused `W(q)·R(q,j)`
//!   weights (WR); the reader checksums both but never decodes them.
//! * [`unpack_instance`] parses a fixed-size header and an O(1) section
//!   table, verifies one FNV-1a checksum per section, bulk-copies the
//!   primary sections and builds the [`Instance`] with the constructor the
//!   builder uses, which derives the reverse index and cost totals in
//!   memory. Nothing that constructor would otherwise trust is taken on
//!   faith: costs are non-zero and their sum fits `u64`, `S₀` ids are
//!   strictly ascending, META's cost totals match the photos, the budget
//!   covers `S₀`, and the persisted [`ShardLabels`] keep every interacting
//!   pair inside one non-pool shard. Together with the container checks
//!   (monotone offsets, in-range indices, UTF-8 names), a corrupted file is
//!   a typed [`PackError`] instead of a later panic or a wrong answer.
//! * [`unpack_instance_checked`] is the same reader for a caller that also
//!   knows the whole file's [`fnv1a64`] (the catalog index records it). It
//!   makes one pass over the bytes for both checks: the whole-file chain
//!   covers the header and table, then runs beside each section's own
//!   chain in the same loop. A whole-file mismatch is
//!   [`PackError::FileChecksum`] and takes precedence over every other
//!   error, as when the file was hashed in full before being read.
//!
//! # File layout (all integers little-endian)
//!
//! ```text
//! header    magic "PHOCPAK1" (8 bytes) · version u32 (= 1) · section_count u32
//! table     section_count × { kind u32 · reserved u32 · offset u64 · len u64 · fnv1a64 u64 }
//! payloads  concatenated section bytes, ascending offsets, no gaps/overlap
//! ```
//!
//! The nine mandatory sections are listed in [`kind`]; the full field-level
//! spec lives in `DESIGN.md` §15. Section lengths are validated against the
//! file size *before* any allocation, and every element count inside a
//! section is validated against the section's remaining bytes before its
//! vector is allocated — byte-soup inputs cannot OOM the reader (the
//! `no_panic.rs` fuzz gate pins this).
//!
//! Determinism: packing the same instance twice yields byte-identical
//! files. Every array is written in storage order and the writer performs no
//! hashing or map iteration, so the bytes are a pure function of the
//! instance — `ci.sh` packs a corpus twice and `cmp`s the files.

use crate::ids::{PhotoId, SubsetId};
use crate::instance::Instance;
use crate::sim::{ContextSim, DenseSim, SparseSim};
use crate::{shard_labels, Photo, ShardLabels, Subset};
use std::fmt;
use std::sync::Arc;

/// File magic: `PHOCPAK1`.
pub const MAGIC: [u8; 8] = *b"PHOCPAK1";
/// Format version this module reads and writes.
pub const VERSION: u32 = 1;
/// Size of one section-table entry in bytes.
const TABLE_ENTRY: usize = 32;
/// Size of the fixed header in bytes.
const HEADER: usize = 16;
/// Hard cap on the declared section count — v1 defines 9 sections; a table
/// claiming more than this is corrupt, and rejecting it here bounds the
/// table allocation before it happens.
const MAX_SECTIONS: u32 = 64;

/// Section kind identifiers (the `kind` field of a table entry).
pub mod kind {
    /// Scalar counts and totals; bounds every other section.
    pub const META: u32 = 1;
    /// Photo costs + name string table.
    pub const PHOTOS: u32 = 2;
    /// Required photo ids (`S₀`), in stored order.
    pub const REQUIRED: u32 = 3;
    /// Subset weights + label string table.
    pub const SUBSETS: u32 = 4;
    /// Subset member CSR + raw normalized relevance bits.
    pub const MEMBERS: u32 = 5;
    /// Photo → (subset, local) reverse-index CSR. Derived data: checksummed
    /// on load, never decoded.
    pub const MEMBERSHIP: u32 = 6;
    /// Per-subset similarity stores (unit / dense triangle / sparse CSR).
    pub const SIMS: u32 = 7;
    /// Evaluator offset table + fused `W(q)·R(q,j)` weights. Derived data:
    /// checksummed on load, never decoded.
    pub const WR: u32 = 8;
    /// Component shard labels.
    pub const LABELS: u32 = 9;
}

/// All mandatory sections, in the order the writer emits them.
const ALL_KINDS: [u32; 9] = [
    kind::META,
    kind::PHOTOS,
    kind::REQUIRED,
    kind::SUBSETS,
    kind::MEMBERS,
    kind::MEMBERSHIP,
    kind::SIMS,
    kind::WR,
    kind::LABELS,
];

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a, 64-bit: the dependency-free per-section checksum (same algorithm
/// the determinism suite uses for transcript hashing).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a chain `h` over `bytes`: `fnv1a64(a ++ b)` equals
/// `fnv1a64_extend(fnv1a64(a), b)`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Continues the whole-file chain `file` over one section payload and, in
/// the same loop, hashes the payload on its own. Returns `(file, section)`.
/// The two multiply chains do not depend on each other, so the CPU overlaps
/// them and the pair costs about as much as one [`fnv1a64`] pass.
// phocus-lint: hot-kernel — the pack load path's only per-byte loop
fn fnv1a64_pair(mut file: u64, bytes: &[u8]) -> (u64, u64) {
    let mut section = FNV_OFFSET;
    for &b in bytes {
        file = (file ^ b as u64).wrapping_mul(FNV_PRIME);
        section = (section ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    (file, section)
}

/// Why a pack file failed to load. Every variant is a *typed* refusal — the
/// reader never panics and never allocates proportionally to untrusted
/// counts (the fuzz gate in `no_panic.rs` corrupts packs every way listed
/// here and asserts exactly this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PackError {
    /// The buffer ends before the header or a table entry it promises.
    Truncated {
        /// Bytes the structure needs.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The first 8 bytes are not `PHOCPAK1`.
    BadMagic,
    /// The header's version field is not [`VERSION`].
    VersionSkew {
        /// The version the file claims.
        found: u32,
    },
    /// The header claims an absurd section count (> `MAX_SECTIONS`).
    SectionCount {
        /// The count the file claims.
        found: u32,
    },
    /// A required section kind is absent from the table.
    MissingSection {
        /// The absent [`kind`].
        kind: u32,
    },
    /// The same section kind appears twice in the table.
    DuplicateSection {
        /// The repeated [`kind`].
        kind: u32,
    },
    /// A section's `offset + len` overflows or lands past end-of-file.
    SectionBounds {
        /// The offending section's [`kind`].
        kind: u32,
    },
    /// Two sections' byte ranges overlap (or a section precedes the table).
    SectionOverlap {
        /// The later-offset section's [`kind`].
        kind: u32,
    },
    /// A section's payload does not hash to its table checksum.
    Checksum {
        /// The failing section's [`kind`].
        kind: u32,
    },
    /// The whole image does not hash to the checksum the caller expected
    /// (see [`unpack_instance_checked`]). Takes precedence over every other
    /// error: the file is not the one the caller recorded.
    FileChecksum,
    /// An element count inside a section exceeds what its remaining bytes
    /// can hold — the allocation cap that keeps byte soup from OOMing.
    TooLarge {
        /// The offending section's [`kind`].
        kind: u32,
    },
    /// A section decoded but its contents are internally inconsistent
    /// (non-monotone offsets, out-of-range index, invalid UTF-8, …).
    Malformed {
        /// The offending section's [`kind`].
        kind: u32,
        /// What was inconsistent.
        what: &'static str,
    },
    /// The instance cannot be represented in the v1 format: a count or a
    /// string-table byte total exceeds the format's u32 fields. Returned by
    /// the writer only, before any bytes are produced.
    Unrepresentable {
        /// Which count overflowed.
        what: &'static str,
    },
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Truncated { need, have } => {
                write!(f, "pack truncated: need {need} bytes, have {have}")
            }
            PackError::BadMagic => write!(f, "not a phocus-pack file (bad magic)"),
            PackError::VersionSkew { found } => {
                write!(f, "unsupported pack version {found} (reader supports {VERSION})")
            }
            PackError::SectionCount { found } => {
                write!(f, "implausible section count {found} (max {MAX_SECTIONS})")
            }
            PackError::MissingSection { kind } => write!(f, "missing section kind {kind}"),
            PackError::DuplicateSection { kind } => write!(f, "duplicate section kind {kind}"),
            PackError::SectionBounds { kind } => {
                write!(f, "section kind {kind} extends past end of file")
            }
            PackError::SectionOverlap { kind } => {
                write!(f, "section kind {kind} overlaps another section")
            }
            PackError::Checksum { kind } => {
                write!(f, "section kind {kind} failed its checksum")
            }
            PackError::FileChecksum => {
                write!(f, "pack does not match its expected whole-file checksum")
            }
            PackError::TooLarge { kind } => {
                write!(f, "section kind {kind} declares more elements than it holds")
            }
            PackError::Malformed { kind, what } => {
                write!(f, "section kind {kind} is malformed: {what}")
            }
            PackError::Unrepresentable { what } => {
                write!(f, "instance not representable in pack v1: {what}")
            }
        }
    }
}

impl std::error::Error for PackError {}

/// Everything a pack load reconstructs: the instance plus the shard labels
/// the solver would otherwise recompute by union-find on every cold start.
#[derive(Debug, Clone)]
pub struct PackedInstance {
    /// The instance, built from the primary sections.
    pub instance: Instance,
    /// Component shard labels: `shard_labels(&instance)` at write time, and
    /// checked on load to keep every interacting pair inside one non-pool
    /// shard.
    pub labels: ShardLabels,
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

/// Little-endian append helpers over the output buffer.
struct W {
    buf: Vec<u8>,
}

impl W {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32s(&mut self, vs: &[u32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn f32s(&mut self, vs: &[f32]) {
        self.buf.reserve(vs.len() * 4);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    fn f64s(&mut self, vs: &[f64]) {
        self.buf.reserve(vs.len() * 8);
        for &v in vs {
            self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    /// A string table: `count + 1` cumulative u32 byte offsets, then the
    /// concatenated UTF-8 bytes. Fails (without writing the byte payload)
    /// when the cumulative length overflows the format's u32 offsets.
    fn strings<'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a str> + Clone,
    ) -> Result<(), PackError> {
        let mut off = 0u64;
        self.u32(0);
        for s in items.clone() {
            off += s.len() as u64;
            let v = u32::try_from(off).map_err(|_| PackError::Unrepresentable {
                what: "string table exceeds u32 offsets",
            })?;
            self.u32(v);
        }
        for s in items {
            self.buf.extend_from_slice(s.as_bytes());
        }
        Ok(())
    }
}

/// Serializes `inst` into a `phocus-pack` v1 byte image.
///
/// Derives the shard labels here — once, at write time — so loads skip the
/// union-find. The MEMBERSHIP and WR sections hold the reverse index and
/// the fused `w * r` weights of the instance; the reader verifies their
/// checksums and derives both in memory instead.
///
/// Fails with [`PackError::Unrepresentable`] — before producing any bytes —
/// when a count or string-table total exceeds the format's u32 fields; no
/// silent truncation can reach the file.
pub fn pack_instance(inst: &Instance) -> Result<Vec<u8>, PackError> {
    let labels = shard_labels(inst);
    let n = inst.num_photos();
    let m = inst.num_subsets();
    let member_total: usize = inst.subsets().iter().map(|q| q.members.len()).sum();

    // v1 stores counts and CSR offsets in u32 fields: reject anything the
    // format cannot hold up front, so every `as u32` below is in-range by
    // this check.
    let cap = u32::MAX as u64;
    for (v, what) in [
        (n as u64, "photo count exceeds u32"),
        (m as u64, "subset count exceeds u32"),
        (member_total as u64, "member total exceeds u32"),
        (inst.required().len() as u64, "required count exceeds u32"),
    ] {
        if v > cap {
            return Err(PackError::Unrepresentable { what });
        }
    }

    // Build each section's payload.
    let mut sections: Vec<(u32, Vec<u8>)> = Vec::with_capacity(ALL_KINDS.len());

    // META
    {
        let mut w = W { buf: Vec::with_capacity(72) };
        w.u64(inst.budget());
        w.u64(n as u64);
        w.u64(m as u64);
        w.u64(member_total as u64);
        w.u64(inst.required().len() as u64);
        w.u64(inst.required_cost());
        w.u64(inst.total_cost());
        w.u64(labels.num_shards() as u64);
        w.u64(labels.singleton_pool().map_or(u64::MAX, |p| p as u64));
        sections.push((kind::META, w.buf));
    }

    // PHOTOS: costs, then the name string table.
    {
        let mut w = W { buf: Vec::new() };
        for p in inst.photos() {
            w.u64(p.cost);
        }
        w.strings(inst.photos().iter().map(|p| &*p.name))?;
        sections.push((kind::PHOTOS, w.buf));
    }

    // REQUIRED: ids in stored order.
    {
        let mut w = W { buf: Vec::new() };
        for &r in inst.required() {
            w.u32(r.0);
        }
        sections.push((kind::REQUIRED, w.buf));
    }

    // SUBSETS: weights (raw f64 bits), then the label string table.
    {
        let mut w = W { buf: Vec::new() };
        for q in inst.subsets() {
            w.buf.extend_from_slice(&q.weight.to_bits().to_le_bytes());
        }
        w.strings(inst.subsets().iter().map(|q| &*q.label))?;
        sections.push((kind::SUBSETS, w.buf));
    }

    // MEMBERS: member CSR offsets, member ids, raw relevance bits.
    {
        let mut w = W { buf: Vec::new() };
        let mut off = 0u32;
        w.u32(0);
        for q in inst.subsets() {
            // phocus-lint: allow(cast-bounds) — member_total ≤ u32::MAX was
            // checked up front, and off never exceeds member_total.
            off += q.members.len() as u32;
            w.u32(off);
        }
        for q in inst.subsets() {
            for &p in &q.members {
                w.u32(p.0);
            }
        }
        for q in inst.subsets() {
            w.f64s(&q.relevance);
        }
        sections.push((kind::MEMBERS, w.buf));
    }

    // MEMBERSHIP: the photo → (subset, local) reverse-index CSR.
    {
        let (offsets, data) = inst.membership_csr();
        let mut w = W { buf: Vec::new() };
        w.u32s(offsets);
        for e in data {
            w.u32(e.subset.0);
            w.u32(e.local);
        }
        sections.push((kind::MEMBERSHIP, w.buf));
    }

    // SIMS: one tagged record per subset.
    {
        let mut w = W { buf: Vec::new() };
        for s in inst.sims() {
            match &**s {
                ContextSim::Unit(len) => {
                    w.u32(0);
                    w.u64(*len as u64);
                }
                ContextSim::Dense(d) => {
                    w.u32(1);
                    w.u64(d.len() as u64);
                    w.f32s(d.raw_tri());
                }
                ContextSim::Sparse(sp) => {
                    let (offsets, neighbor_idx, sim) = sp.raw_csr();
                    w.u32(2);
                    w.u64(sp.len() as u64);
                    w.u64(neighbor_idx.len() as u64);
                    w.u32s(offsets);
                    w.u32s(neighbor_idx);
                    w.f32s(sim);
                }
            }
        }
        sections.push((kind::SIMS, w.buf));
    }

    // WR: the evaluator offset table and the left-associated `w * r`
    // products `Evaluator::new` derives.
    {
        let mut w = W { buf: Vec::new() };
        let mut off = Vec::with_capacity(m + 1);
        let mut wr = Vec::with_capacity(member_total);
        off.push(0u32);
        for q in inst.subsets() {
            let weight = q.weight;
            for &r in q.relevance.iter() {
                wr.push(weight * r);
            }
            // phocus-lint: allow(cast-bounds) — wr.len() ≤ member_total,
            // which was checked against u32::MAX up front.
            off.push(wr.len() as u32);
        }
        w.u32s(&off);
        w.f64s(&wr);
        sections.push((kind::WR, w.buf));
    }

    // LABELS: per-photo shard indices (scalars live in META).
    {
        let mut w = W { buf: Vec::new() };
        w.u32s(labels.photo_shards());
        sections.push((kind::LABELS, w.buf));
    }

    // Header + table + payloads.
    let table_len = sections.len() * TABLE_ENTRY;
    let total: usize = HEADER + table_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>();
    let mut out = W { buf: Vec::with_capacity(total) };
    out.buf.extend_from_slice(&MAGIC);
    out.u32(VERSION);
    out.u32(sections.len() as u32); // phocus-lint: allow(cast-bounds) — exactly ALL_KINDS.len() == 9 sections
    let mut offset = (HEADER + table_len) as u64;
    for (k, payload) in &sections {
        out.u32(*k);
        out.u32(0);
        out.u64(offset);
        out.u64(payload.len() as u64);
        out.u64(fnv1a64(payload));
        offset += payload.len() as u64;
    }
    for (_, payload) in &sections {
        out.buf.extend_from_slice(payload);
    }
    Ok(out.buf)
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian cursor over one section's payload. Every
/// bulk read validates the element count against the remaining bytes
/// *before* allocating, so a corrupt count is a [`PackError::TooLarge`]
/// instead of an OOM.
struct R<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u32,
}

impl<'a> R<'a> {
    fn new(kind: u32, buf: &'a [u8]) -> Self {
        R { buf, pos: 0, kind }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PackError> {
        if self.remaining() < n {
            return Err(PackError::TooLarge { kind: self.kind });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, PackError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, PackError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A u64 element count narrowed to `usize` with a checked conversion —
    /// on 32-bit targets a hostile 2⁶⁴-scale count must become a typed
    /// error, not a truncated (and possibly plausible) small one.
    fn usize(&mut self) -> Result<usize, PackError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| PackError::TooLarge { kind: self.kind })
    }

    /// Validates `count * size` fits the remaining bytes (overflow-safe).
    fn cap(&self, count: usize, size: usize) -> Result<usize, PackError> {
        match count.checked_mul(size) {
            Some(bytes) if bytes <= self.remaining() => Ok(bytes),
            _ => Err(PackError::TooLarge { kind: self.kind }),
        }
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_u32(&mut self, count: usize) -> Result<Vec<u32>, PackError> {
        self.cap(count, 4)?;
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_u64(&mut self, count: usize) -> Result<Vec<u64>, PackError> {
        self.cap(count, 8)?;
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_f32(&mut self, count: usize) -> Result<Vec<f32>, PackError> {
        self.cap(count, 4)?;
        let bytes = self.take(count * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    // phocus-lint: hot-kernel — bulk section loader; dominates unpack time
    fn vec_f64(&mut self, count: usize) -> Result<Vec<f64>, PackError> {
        self.cap(count, 8)?;
        let bytes = self.take(count * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect()) // phocus-lint: allow(alloc-hot) — single sized allocation after the cap check
    }

    fn malformed(&self, what: &'static str) -> PackError {
        PackError::Malformed { kind: self.kind, what }
    }

    /// Reads a string table of `count` entries: cumulative offsets, then the
    /// concatenated bytes. Returns one `Arc<str>` per entry.
    fn strings(&mut self, count: usize) -> Result<Vec<Arc<str>>, PackError> {
        let offsets = self.vec_u32(count + 1)?;
        if offsets[0] != 0 {
            return Err(self.malformed("string table does not start at 0"));
        }
        if !offsets.windows(2).all(|w| w[0] <= w[1]) {
            return Err(self.malformed("string table offsets decrease"));
        }
        let total = offsets[count] as usize;
        let bytes = self.take(total)?;
        let mut out = Vec::with_capacity(count);
        for w in offsets.windows(2) {
            let s = &bytes[w[0] as usize..w[1] as usize];
            let s = std::str::from_utf8(s).map_err(|_| self.malformed("string is not UTF-8"))?;
            out.push(Arc::from(s));
        }
        Ok(out)
    }

    /// The section must be fully consumed — trailing garbage is corruption.
    fn finish(self) -> Result<(), PackError> {
        if self.remaining() != 0 {
            return Err(self.malformed("trailing bytes after section payload"));
        }
        Ok(())
    }
}

/// A monotone CSR offset read: `count + 1` u32s starting at 0, ending at
/// `expected_end`.
fn read_csr_offsets(
    r: &mut R<'_>,
    count: usize,
    expected_end: usize,
) -> Result<Vec<u32>, PackError> {
    let offsets = r.vec_u32(count + 1)?;
    if offsets[0] != 0 {
        return Err(r.malformed("CSR offsets do not start at 0"));
    }
    if !offsets.windows(2).all(|w| w[0] <= w[1]) {
        return Err(r.malformed("CSR offsets decrease"));
    }
    if offsets[count] as usize != expected_end {
        return Err(r.malformed("CSR offsets end at the wrong total"));
    }
    Ok(offsets)
}

/// The parsed scalar header section, bounding everything else.
struct Meta {
    budget: u64,
    num_photos: usize,
    num_subsets: usize,
    member_total: usize,
    num_required: usize,
    required_cost: u64,
    total_cost: u64,
    num_shards: usize,
    singleton_pool: Option<usize>,
}

/// Deserializes a `phocus-pack` v1 byte image produced by
/// [`pack_instance`], returning the reconstructed instance plus the
/// persisted shard labels.
pub fn unpack_instance(bytes: &[u8]) -> Result<PackedInstance, PackError> {
    decode(read_table(bytes, None)?)
}

/// [`unpack_instance`] for an image whose whole-file [`fnv1a64`] is already
/// known, as a catalog index records it: the whole-file hash rides along in
/// the pass that verifies the section checksums, so every byte is hashed
/// once and both checks still run.
///
/// A whole-file mismatch is [`PackError::FileChecksum`], and it wins over
/// every other error. When the table walk stops early, the bytes it did not
/// reach are hashed before the error is chosen, so a file that is not the
/// recorded one is reported as such however it is damaged.
pub fn unpack_instance_checked(
    bytes: &[u8],
    file_checksum: u64,
) -> Result<PackedInstance, PackError> {
    let mut file = FileHash {
        h: FNV_OFFSET,
        upto: 0,
    };
    let sections = read_table(bytes, Some(&mut file));
    if fnv1a64_extend(file.h, &bytes[file.upto..]) != file_checksum {
        return Err(PackError::FileChecksum);
    }
    decode(sections?)
}

/// A whole-file FNV-1a chain in progress: `h` covers `bytes[..upto]`.
struct FileHash {
    h: u64,
    upto: usize,
}

/// Section payloads by kind, as the table walk found them.
type Sections<'a> = [Option<&'a [u8]>; 16];

/// Validates the header and walks the section table: bounds, order,
/// duplicates and one checksum per section. With `file` set, also carries
/// the whole-file chain: header and table first, then each payload in the
/// same loop as its section hash. Payloads must sit back to back in table
/// order, so when the walk succeeds the chain has covered every byte.
fn read_table<'a>(
    bytes: &'a [u8],
    mut file: Option<&mut FileHash>,
) -> Result<Sections<'a>, PackError> {
    // --- header ---
    if bytes.len() < HEADER {
        return Err(PackError::Truncated { need: HEADER, have: bytes.len() });
    }
    if bytes[..8] != MAGIC {
        return Err(PackError::BadMagic);
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != VERSION {
        return Err(PackError::VersionSkew { found: version });
    }
    let count = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if count > MAX_SECTIONS {
        return Err(PackError::SectionCount { found: count });
    }
    let table_end = HEADER + count as usize * TABLE_ENTRY;
    if bytes.len() < table_end {
        return Err(PackError::Truncated { need: table_end, have: bytes.len() });
    }
    if let Some(f) = file.as_deref_mut() {
        f.h = fnv1a64_extend(f.h, &bytes[..table_end]);
        f.upto = table_end;
    }

    // --- section table: O(1) per-kind lookup, bounds, overlap, checksums ---
    let mut by_kind: Sections<'a> = [None; 16];
    let mut prev_end = table_end as u64;
    for i in 0..count as usize {
        let e = &bytes[HEADER + i * TABLE_ENTRY..HEADER + (i + 1) * TABLE_ENTRY];
        let k = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        let offset = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
        let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
        let sum = u64::from_le_bytes([e[24], e[25], e[26], e[27], e[28], e[29], e[30], e[31]]);
        let end = offset.checked_add(len).ok_or(PackError::SectionBounds { kind: k })?;
        if end > bytes.len() as u64 {
            return Err(PackError::SectionBounds { kind: k });
        }
        // The writer emits sections back-to-back in table order; requiring
        // exactly that makes overlap, gaps, and out-of-order tables all
        // detectable with one comparison (and is why packing is canonical:
        // one instance, one byte image).
        if offset != prev_end {
            return Err(PackError::SectionOverlap { kind: k });
        }
        prev_end = end;
        let slot = by_kind
            .get_mut(k as usize)
            .ok_or(PackError::Malformed { kind: k, what: "unknown section kind" })?;
        if slot.is_some() {
            return Err(PackError::DuplicateSection { kind: k });
        }
        // phocus-lint: allow(cast-bounds) — offset ≤ end ≤ bytes.len() was
        // just checked, and a slice length always fits usize.
        let payload = &bytes[offset as usize..end as usize];
        // The payload starts where the previous one ended, so it extends the
        // whole-file chain exactly.
        let found = match file.as_deref_mut() {
            Some(f) => {
                let (h, section) = fnv1a64_pair(f.h, payload);
                f.h = h;
                f.upto += payload.len();
                section
            }
            None => fnv1a64(payload),
        };
        if found != sum {
            return Err(PackError::Checksum { kind: k });
        }
        *slot = Some(payload);
    }
    if prev_end != bytes.len() as u64 {
        return Err(PackError::Truncated {
            // phocus-lint: allow(cast-bounds) — diagnostic value only; every
            // section's end was bounds-checked ≤ bytes.len() above, so
            // prev_end fits the buffer's own length type.
            need: prev_end as usize,
            have: bytes.len(),
        });
    }
    for k in ALL_KINDS {
        if by_kind[k as usize].is_none() {
            return Err(PackError::MissingSection { kind: k });
        }
    }
    Ok(by_kind)
}

/// Decodes the primary sections of a walked table into the instance and
/// its shard labels. MEMBERSHIP and WR passed their checksums in the table
/// walk and are not read: `Instance::assemble` derives the reverse index in
/// memory, and the evaluator derives the fused weights.
fn decode(by_kind: Sections<'_>) -> Result<PackedInstance, PackError> {
    let section = |k: u32| by_kind[k as usize].ok_or(PackError::MissingSection { kind: k });
    let malformed = |kind: u32, what: &'static str| PackError::Malformed { kind, what };

    // --- META ---
    let meta = {
        let mut r = R::new(kind::META, section(kind::META)?);
        let budget = r.u64()?;
        let num_photos = r.u64()?;
        let num_subsets = r.u64()?;
        let member_total = r.u64()?;
        let num_required = r.u64()?;
        let required_cost = r.u64()?;
        let total_cost = r.u64()?;
        let num_shards = r.u64()?;
        let singleton_pool = r.u64()?;
        r.finish()?;
        // Counts bound every per-element allocation below; anything the
        // remaining sections cannot physically hold dies at their `cap`
        // checks, but reject the obviously hostile values here so the error
        // points at the right section.
        let max = u32::MAX as u64;
        if num_photos > max
            || num_subsets > max
            || member_total > max
            || num_required > max
            || num_shards > max
        {
            return Err(malformed(kind::META, "count exceeds u32 range"));
        }
        // `u64::MAX` marks "no pool"; anything else names a shard.
        let singleton_pool = (singleton_pool != u64::MAX).then_some(singleton_pool);
        if singleton_pool.is_some_and(|pool| pool >= num_shards) {
            return Err(malformed(kind::LABELS, "singleton pool index out of range"));
        }
        Meta {
            budget,
            num_photos: num_photos as usize,
            num_subsets: num_subsets as usize,
            member_total: member_total as usize,
            num_required: num_required as usize,
            required_cost,
            total_cost,
            num_shards: num_shards as usize,
            // phocus-lint: allow(cast-bounds) — below num_shards ≤
            // u32::MAX, both checked above.
            singleton_pool: singleton_pool.map(|pool| pool as usize),
        }
    };
    let n = meta.num_photos;
    let m = meta.num_subsets;

    // --- PHOTOS ---
    // As in the builder: every later cost sum (C(S₀), a solution's C(S),
    // the solvers' budget tests) is a sub-sum of the total over distinct
    // photos, so a total that fits u64 keeps all of them from wrapping.
    let (photos, total_cost) = {
        let mut r = R::new(kind::PHOTOS, section(kind::PHOTOS)?);
        let costs = r.vec_u64(n)?;
        let names = r.strings(n)?;
        r.finish()?;
        let mut total = 0u64;
        for &cost in &costs {
            if cost == 0 {
                return Err(malformed(kind::PHOTOS, "photo cost is zero"));
            }
            total = total
                .checked_add(cost)
                .ok_or(malformed(kind::PHOTOS, "photo costs overflow u64"))?;
        }
        let photos = costs
            .into_iter()
            .zip(names)
            .enumerate()
            .map(|(i, (cost, name))| Photo { id: PhotoId(i as u32), name, cost })
            .collect::<Vec<_>>();
        (photos, total)
    };

    // --- REQUIRED ---
    let (required_ids, required_cost) = {
        let mut r = R::new(kind::REQUIRED, section(kind::REQUIRED)?);
        let ids = r.vec_u32(meta.num_required)?;
        r.finish()?;
        // The builder sorts and dedups S₀; the instance relies on it.
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(malformed(kind::REQUIRED, "required photo ids not strictly ascending"));
        }
        if ids.last().is_some_and(|&p| p as usize >= n) {
            return Err(malformed(kind::REQUIRED, "required photo id out of range"));
        }
        let cost = ids.iter().map(|&p| photos[p as usize].cost).sum::<u64>();
        (ids.into_iter().map(PhotoId).collect::<Vec<_>>(), cost)
    };
    if meta.total_cost != total_cost || meta.required_cost != required_cost {
        return Err(malformed(kind::META, "cost totals differ from the photo costs"));
    }
    if meta.budget < required_cost {
        return Err(malformed(kind::META, "budget below the required set's cost"));
    }

    // --- SUBSETS + MEMBERS ---
    let (weights, labels_tab) = {
        let mut r = R::new(kind::SUBSETS, section(kind::SUBSETS)?);
        let weights = r.vec_f64(m)?;
        let labels = r.strings(m)?;
        r.finish()?;
        (weights, labels)
    };
    let subsets = {
        let mut r = R::new(kind::MEMBERS, section(kind::MEMBERS)?);
        let offsets = read_csr_offsets(&mut r, m, meta.member_total)?;
        let members = r.vec_u32(meta.member_total)?;
        let relevance = r.vec_f64(meta.member_total)?;
        r.finish()?;
        if members.iter().any(|&p| p as usize >= n) {
            return Err(malformed(kind::MEMBERS, "member photo id out of range"));
        }
        let mut subsets = Vec::with_capacity(m);
        for (s, (weight, label)) in weights.into_iter().zip(labels_tab).enumerate() {
            let lo = offsets[s] as usize;
            let hi = offsets[s + 1] as usize;
            subsets.push(Subset {
                id: SubsetId(s as u32),
                label,
                weight,
                members: members[lo..hi].iter().map(|&p| PhotoId(p)).collect(),
                relevance: Arc::from(&relevance[lo..hi]),
            });
        }
        subsets
    };

    // --- LABELS ---
    // Decoded before SIMS, whose loop checks them store by store while each
    // store's indices are in cache.
    let photo_shard = {
        let mut r = R::new(kind::LABELS, section(kind::LABELS)?);
        let photo_shard = r.vec_u32(n)?;
        r.finish()?;
        if photo_shard.iter().any(|&s| s as usize >= meta.num_shards) {
            return Err(malformed(kind::LABELS, "shard label out of range"));
        }
        if n > 0 && meta.num_shards == 0 {
            return Err(malformed(kind::LABELS, "photos present but zero shards"));
        }
        photo_shard
    };

    // --- SIMS ---
    let sims = {
        let mut r = R::new(kind::SIMS, section(kind::SIMS)?);
        let mut sims = Vec::with_capacity(m);
        // Shard of each member of the current subset.
        let mut member_shard = Vec::new();
        for q in &subsets {
            let tag = r.u32()?;
            let len = r.usize()?;
            if len != q.members.len() {
                return Err(malformed(
                    kind::SIMS,
                    "similarity store length differs from subset size",
                ));
            }
            member_shard.clear();
            member_shard.extend(q.members.iter().map(|p| photo_shard[p.index()]));
            let store = match tag {
                0 => {
                    check_clique(&member_shard, meta.singleton_pool)?;
                    ContextSim::Unit(len)
                }
                1 => {
                    check_clique(&member_shard, meta.singleton_pool)?;
                    let tri = r.vec_f32(len * len.saturating_sub(1) / 2)?;
                    ContextSim::Dense(DenseSim::from_raw_tri(len, tri))
                }
                2 => {
                    let edges = r.usize()?;
                    let offsets = read_csr_offsets(&mut r, len, edges)?;
                    let neighbor_idx = r.vec_u32(edges)?;
                    let sim = r.vec_f32(edges)?;
                    check_csr(&offsets, &neighbor_idx, &member_shard, meta.singleton_pool)?;
                    ContextSim::Sparse(SparseSim::from_raw_csr(offsets, neighbor_idx, sim))
                }
                _ => return Err(malformed(kind::SIMS, "unknown similarity store tag")),
            };
            sims.push(Arc::new(store));
        }
        r.finish()?;
        sims
    };

    let labels = ShardLabels::from_parts(photo_shard, meta.num_shards, meta.singleton_pool);
    let instance = Instance::assemble(photos, required_ids, subsets, meta.budget, sims);
    Ok(PackedInstance { instance, labels })
}

/// The refusal of a labeling that splits or pools an interacting pair.
const SPLIT_LABELS: PackError = PackError::Malformed {
    kind: kind::LABELS,
    what: "shard labels split or pool an interacting pair",
};

/// The label check for a dense or unit store, which couples every pair of
/// its members: with two or more members, all lie in one non-pool shard.
/// `member_shard` holds the members' shards. See [`check_csr`].
fn check_clique(member_shard: &[u32], pool: Option<usize>) -> Result<(), PackError> {
    match member_shard {
        [first, rest @ ..] if !rest.is_empty() => {
            if Some(*first as usize) == pool || rest.iter().any(|s| s != first) {
                return Err(SPLIT_LABELS);
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Checks a sparse store's CSR against its subset: every neighbour index is
/// a member (a SIMS error otherwise), and every stored neighbour shares its
/// row's shard, which is not the singleton pool (a LABELS error otherwise).
///
/// This and [`check_clique`] stand in for the union-find the persisted
/// labels save, at one comparison per stored entry. They require what the
/// sharded solver's bit-identity rests on (`par-algo`'s `sharded.rs`): no
/// interaction crosses shards, and pooled photos share no stored pair, so
/// their frozen seed keys stay exact. A labeling that also merges
/// components passes, and is safe.
fn check_csr(
    offsets: &[u32],
    neighbor_idx: &[u32],
    member_shard: &[u32],
    pool: Option<usize>,
) -> Result<(), PackError> {
    for (w, &s) in offsets.windows(2).zip(member_shard) {
        let row = &neighbor_idx[w[0] as usize..w[1] as usize];
        if !row.is_empty() && Some(s as usize) == pool {
            return Err(SPLIT_LABELS);
        }
        for &j in row {
            match member_shard.get(j as usize) {
                None => {
                    return Err(PackError::Malformed {
                        kind: kind::SIMS,
                        what: "sparse neighbor index out of range",
                    })
                }
                Some(&t) if t != s => return Err(SPLIT_LABELS),
                Some(_) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{figure1_instance, random_instance, RandomInstanceConfig, MB};
    use crate::exact_score;
    use proptest::prelude::*;

    /// SplitMix64: one generated seed drives a whole byte string.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A v1 header and table around one payload per mandatory kind, each
    /// table checksum set to `fnv1a64` of its payload.
    fn container(sections: &[&[u8]]) -> Vec<u8> {
        let mut out = W { buf: Vec::new() };
        out.buf.extend_from_slice(&MAGIC);
        out.u32(VERSION);
        out.u32(sections.len() as u32);
        let mut offset = (HEADER + sections.len() * TABLE_ENTRY) as u64;
        for (&k, payload) in ALL_KINDS.iter().zip(sections) {
            out.u32(k);
            out.u32(0);
            out.u64(offset);
            out.u64(payload.len() as u64);
            out.u64(fnv1a64(payload));
            offset += payload.len() as u64;
        }
        for payload in sections {
            out.buf.extend_from_slice(payload);
        }
        out.buf
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The fused walk hashes each byte once into two chains. Its
        /// whole-file chain must equal `fnv1a64` of the whole input and
        /// each section chain `fnv1a64` of that section, for any bytes and
        /// any split (empty sections included).
        #[test]
        fn fused_hashes_equal_separate_passes(seed in any::<u64>(), len in 0usize..3000, pieces in 1usize..24) {
            let mut s = seed;
            let body: Vec<u8> = (0..len).map(|_| splitmix(&mut s) as u8).collect();
            let split = |s: &mut u64, count: usize| {
                let mut cuts: Vec<usize> =
                    (1..count).map(|_| (splitmix(s) % (len as u64 + 1)) as usize).collect();
                cuts.push(0);
                cuts.push(len);
                cuts.sort_unstable();
                cuts
            };

            // The pair kernel over a random number of sections.
            let cuts = split(&mut s, pieces);
            let mut file = FNV_OFFSET;
            for w in cuts.windows(2) {
                let (h, section) = fnv1a64_pair(file, &body[w[0]..w[1]]);
                prop_assert_eq!(section, fnv1a64(&body[w[0]..w[1]]));
                file = h;
            }
            prop_assert_eq!(file, fnv1a64(&body));

            // The table walk over the same bytes cut into the nine v1
            // sections: every section checksum matches, and the chain
            // covers the whole image.
            let cuts = split(&mut s, ALL_KINDS.len());
            let sections: Vec<&[u8]> = cuts.windows(2).map(|w| &body[w[0]..w[1]]).collect();
            let image = container(&sections);
            let mut file = FileHash { h: FNV_OFFSET, upto: 0 };
            let walked = read_table(&image, Some(&mut file));
            prop_assert!(walked.is_ok(), "{:?}", walked.err());
            prop_assert_eq!(file.upto, image.len());
            prop_assert_eq!(file.h, fnv1a64(&image));
        }
    }

    #[test]
    fn checked_load_gives_the_whole_file_mismatch_precedence() {
        let inst = figure1_instance(4 * MB);
        let good = pack_instance(&inst).expect("packable");
        let sum = fnv1a64(&good);
        let loaded = unpack_instance_checked(&good, sum).expect("matching image loads");
        assert_eq!(loaded.instance.photos(), inst.photos());
        assert_eq!(
            unpack_instance_checked(&good, sum ^ 1).unwrap_err(),
            PackError::FileChecksum
        );
        // A damaged file that is not the recorded one reports the mismatch,
        // not whatever stopped the walk.
        for cut in [0, 5, HEADER, HEADER + TABLE_ENTRY + 3, good.len() - 1] {
            assert_eq!(
                unpack_instance_checked(&good[..cut], sum).unwrap_err(),
                PackError::FileChecksum,
                "cut at {cut}"
            );
        }
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            unpack_instance_checked(&flipped, sum).unwrap_err(),
            PackError::FileChecksum
        );
        // Recorded over the damaged bytes, the section checksum still runs.
        assert_eq!(
            unpack_instance_checked(&flipped, fnv1a64(&flipped)).unwrap_err(),
            PackError::Checksum { kind: kind::LABELS }
        );
        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(
            unpack_instance_checked(&magic, fnv1a64(&magic)).unwrap_err(),
            PackError::BadMagic
        );
    }

    fn fixtures() -> Vec<Instance> {
        let mut v = vec![figure1_instance(4 * MB)];
        for seed in [3u64, 11, 29] {
            v.push(random_instance(seed, &RandomInstanceConfig::default()));
        }
        v
    }

    #[test]
    fn round_trip_preserves_structure() {
        for inst in fixtures() {
            let bytes = pack_instance(&inst).expect("packable");
            let packed = unpack_instance(&bytes).expect("round trip");
            let got = &packed.instance;
            assert_eq!(got.num_photos(), inst.num_photos());
            assert_eq!(got.num_subsets(), inst.num_subsets());
            assert_eq!(got.budget(), inst.budget());
            assert_eq!(got.required(), inst.required());
            assert_eq!(got.required_cost(), inst.required_cost());
            assert_eq!(got.total_cost(), inst.total_cost());
            assert_eq!(got.photos(), inst.photos());
            assert_eq!(got.subsets(), inst.subsets());
            for (a, b) in got.sims().iter().zip(inst.sims()) {
                assert_eq!(**a, **b);
            }
            assert_eq!(got.membership_csr().0, inst.membership_csr().0);
            assert_eq!(got.membership_csr().1, inst.membership_csr().1);
            assert_eq!(packed.labels, shard_labels(&inst));
        }
    }

    #[test]
    fn loaded_instance_scores_identically() {
        for inst in fixtures() {
            let packed = unpack_instance(&pack_instance(&inst).expect("packable")).expect("round trip");
            let all: Vec<PhotoId> = (0..inst.num_photos() as u32).map(PhotoId).collect();
            assert_eq!(
                exact_score(&inst, &all).to_bits(),
                exact_score(&packed.instance, &all).to_bits()
            );
        }
    }

    #[test]
    fn packing_is_deterministic() {
        for inst in fixtures() {
            assert_eq!(
                pack_instance(&inst).expect("packable"),
                pack_instance(&inst).expect("packable")
            );
        }
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let inst = figure1_instance(4 * MB);
        let good = pack_instance(&inst).expect("packable");
        assert!(unpack_instance(&good).is_ok());

        // Truncations at every prefix length must fail (never panic).
        for cut in 0..good.len().min(64) {
            assert!(unpack_instance(&good[..cut]).is_err());
        }
        // Any single flipped payload byte fails its section checksum (or a
        // structural check before it).
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0xff;
        assert!(unpack_instance(&flipped).is_err());

        // Version skew.
        let mut skew = good.clone();
        skew[8] = 0xfe;
        assert_eq!(
            unpack_instance(&skew).unwrap_err(),
            PackError::VersionSkew { found: u32::from_le_bytes([0xfe, 0, 0, 0]) }
        );

        // Bad magic.
        let mut magic = good.clone();
        magic[0] = b'X';
        assert_eq!(unpack_instance(&magic).unwrap_err(), PackError::BadMagic);

        // Hostile section count cannot force a big allocation.
        let mut huge = good.clone();
        huge[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            unpack_instance(&huge).unwrap_err(),
            PackError::SectionCount { found: u32::MAX }
        );
    }
}
