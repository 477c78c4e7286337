//! Crash-safe checkpoint snapshots for every kernel.
//!
//! PR 2 made the kernels *anytime*: a tripped budget returns a sound
//! partial result — and then throws it away. This module makes that
//! partial progress durable. Each kernel's `*_with` entry point accepts
//! an optional [`Snapshot`] through its [`crate::exec::ExecutionContext`],
//! periodically checkpoints through the existing
//! [`crate::budget::BudgetTicker`] poll sites (the budget trips with
//! [`Completion::CheckpointDue`], the kernel unwinds exactly as for a
//! real trip, and the drive loop persists the state and re-enters), and
//! — on a real trip — returns a final snapshot the caller can persist
//! for a later resume.
//!
//! # Wire format
//!
//! A snapshot is a single self-validating byte string:
//!
//! | field | size | meaning |
//! |---|---|---|
//! | magic | 4 | `b"NSKY"` |
//! | container version | 4 (u32 LE) | [`CONTAINER_VERSION`] |
//! | kernel id | 1 | [`KernelId`] wire code |
//! | graph fingerprint | 8 (u64 LE) | [`nsky_graph::Graph::fingerprint`] of the input |
//! | payload length | 8 (u64 LE) | byte length of the payload |
//! | payload | var | the kernel state, starting with its own format version |
//! | checksum | 4 (u32 LE) | CRC-32 (IEEE) over every preceding byte |
//!
//! All integers are little-endian; `f64` values travel as
//! [`f64::to_bits`] so resume is bit-exact.
//!
//! # Recovery contract
//!
//! Recovery never trusts the disk. [`Snapshot::from_bytes`] rejects any
//! torn, flipped or foreign input with a typed [`RecoveryError`]
//! (truncation outranks checksum, checksum outranks version, so a bit
//! flip in the version field reports [`RecoveryError::ChecksumMismatch`]
//! rather than masquerading as a future format). The `*_with` entry
//! points degrade every unusable snapshot to a clean from-scratch run
//! and surface the error in [`ResumableRun::recovery`] — never a panic,
//! never a wrong answer. The acceptance bar is equivalence: trip →
//! snapshot → resume produces byte-identical results to the
//! uninterrupted run (see `tests/tests/snapshot_faults.rs`).

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::budget::{Completion, ExecutionBudget};

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"NSKY";

/// Version of the snapshot container layout (not of any kernel payload).
pub const CONTAINER_VERSION: u32 = 1;

/// Identifies which kernel produced a snapshot, so resume refuses to
/// feed one kernel's state to another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelId {
    /// `base_sky` (Algorithm 1).
    BaseSky,
    /// `filter_refine_sky` (Algorithm 3).
    FilterRefine,
    /// `filter_refine_sky_par` (multi-threaded refine).
    ParallelRefine,
    /// `max_clique_bnb` (branch and bound).
    CliqueBnb,
    /// `mc_brb` (vertex-anchored BnB).
    CliqueMcBrb,
    /// `nei_sky_mc` (skyline-seeded clique search).
    CliqueNeiSky,
    /// `top_k_cliques` in `Base` mode.
    TopkBase,
    /// `top_k_cliques` in `NeiSky` mode.
    TopkNeiSky,
    /// `greedy_group` (plain or CELF greedy centrality group).
    GreedyGroup,
    /// `nei_sky_group` (skyline-filtered greedy group).
    NeiSkyGroup,
    /// `MutableSkyline::apply_batch` (incremental edge-delta maintenance).
    DynamicMaintain,
}

impl KernelId {
    /// Stable wire code.
    fn code(self) -> u8 {
        match self {
            KernelId::BaseSky => 1,
            KernelId::FilterRefine => 2,
            KernelId::ParallelRefine => 3,
            KernelId::CliqueBnb => 4,
            KernelId::CliqueMcBrb => 5,
            KernelId::CliqueNeiSky => 6,
            KernelId::TopkBase => 7,
            KernelId::TopkNeiSky => 8,
            KernelId::GreedyGroup => 9,
            KernelId::NeiSkyGroup => 10,
            KernelId::DynamicMaintain => 11,
        }
    }

    fn from_code(code: u8) -> Option<KernelId> {
        Some(match code {
            1 => KernelId::BaseSky,
            2 => KernelId::FilterRefine,
            3 => KernelId::ParallelRefine,
            4 => KernelId::CliqueBnb,
            5 => KernelId::CliqueMcBrb,
            6 => KernelId::CliqueNeiSky,
            7 => KernelId::TopkBase,
            8 => KernelId::TopkNeiSky,
            9 => KernelId::GreedyGroup,
            10 => KernelId::NeiSkyGroup,
            11 => KernelId::DynamicMaintain,
            _ => return None,
        })
    }
}

impl std::fmt::Display for KernelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            KernelId::BaseSky => "base-sky",
            KernelId::FilterRefine => "filter-refine",
            KernelId::ParallelRefine => "parallel-refine",
            KernelId::CliqueBnb => "clique-bnb",
            KernelId::CliqueMcBrb => "clique-mcbrb",
            KernelId::CliqueNeiSky => "clique-neisky",
            KernelId::TopkBase => "topk-base",
            KernelId::TopkNeiSky => "topk-neisky",
            KernelId::GreedyGroup => "greedy-group",
            KernelId::NeiSkyGroup => "neisky-group",
            KernelId::DynamicMaintain => "dynamic-maintain",
        };
        f.write_str(s)
    }
}

/// Why a snapshot could not be used. Every variant degrades to a clean
/// from-scratch run; none of them is ever a panic.
#[derive(Debug)]
pub enum RecoveryError {
    /// The snapshot file could not be read or written.
    Io(std::io::Error),
    /// The file does not open with the `NSKY` magic (not a snapshot).
    BadMagic,
    /// The container (or a kernel payload) carries a version this build
    /// does not understand.
    UnsupportedVersion {
        /// The version found in the snapshot.
        found: u32,
        /// The version this build writes and reads.
        expected: u32,
    },
    /// The CRC-32 over the snapshot bytes does not match (bit rot,
    /// a flipped byte, or an interrupted write that passed the length
    /// checks).
    ChecksumMismatch,
    /// The byte string ends before the declared length (torn tail or
    /// short write).
    Truncated,
    /// The snapshot was produced by a different kernel.
    KernelMismatch {
        /// The kernel recorded in the snapshot.
        found: KernelId,
        /// The kernel attempting to resume.
        expected: KernelId,
    },
    /// The snapshot was taken against a different input graph.
    GraphMismatch,
    /// The payload parsed but violates a structural invariant of the
    /// kernel state.
    Malformed(&'static str),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            RecoveryError::BadMagic => f.write_str("not a snapshot (bad magic)"),
            RecoveryError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            RecoveryError::ChecksumMismatch => f.write_str("snapshot checksum mismatch"),
            RecoveryError::Truncated => f.write_str("snapshot truncated"),
            RecoveryError::KernelMismatch { found, expected } => {
                write!(f, "snapshot belongs to kernel `{found}`, not `{expected}`")
            }
            RecoveryError::GraphMismatch => {
                f.write_str("snapshot was taken against a different input graph")
            }
            RecoveryError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for RecoveryError {
    fn from(e: std::io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`), table-driven.
fn crc32(bytes: &[u8]) -> u32 {
    // One 256-entry table, built on first use.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        let mut i = 0u32;
        while i < 256 {
            let mut c = i;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[i as usize] = c;
            i += 1;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = table[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Append-only encoder for snapshot payloads: length-prefixed,
/// little-endian, `f64` as bits.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bits, so decode is bit-exact.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed `u32` slice.
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Appends an `Option<u32>` as a tag byte plus the value.
    pub fn put_opt_u32(&mut self, v: Option<u32>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_u32(x);
            }
            None => self.put_u8(0),
        }
    }
}

/// Cursor-based decoder over a CRC-validated payload. Every read is
/// bounds-checked and returns a typed [`RecoveryError`], so decoding is
/// total even over hostile bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the payload is fully consumed (trailing garbage is
    /// a malformed state, not padding).
    pub fn finish(&self) -> Result<(), RecoveryError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(RecoveryError::Malformed("trailing bytes after payload"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], RecoveryError> {
        let end = self.pos.checked_add(n).ok_or(RecoveryError::Truncated)?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(RecoveryError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, RecoveryError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, RecoveryError> {
        let s = self.take(4)?;
        let mut b = [0u8; 4];
        b.copy_from_slice(s);
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, RecoveryError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn take_usize(&mut self) -> Result<usize, RecoveryError> {
        usize::try_from(self.take_u64()?)
            .map_err(|_| RecoveryError::Malformed("length exceeds usize"))
    }

    /// Reads an `f64` from its IEEE-754 bits.
    pub fn take_f64(&mut self) -> Result<f64, RecoveryError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool` byte (`0` or `1`; anything else is malformed).
    pub fn take_bool(&mut self) -> Result<bool, RecoveryError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(RecoveryError::Malformed("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed `u32` vector. The length is validated
    /// against the remaining bytes before allocating.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, RecoveryError> {
        let len = self.take_usize()?;
        if len.checked_mul(4).map_or(true, |b| b > self.remaining()) {
            return Err(RecoveryError::Truncated);
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.take_u32()?);
        }
        Ok(out)
    }

    /// Reads an `Option<u32>` written by [`Writer::put_opt_u32`].
    pub fn take_opt_u32(&mut self) -> Result<Option<u32>, RecoveryError> {
        if self.take_bool()? {
            Ok(Some(self.take_u32()?))
        } else {
            Ok(None)
        }
    }

    /// Reads the payload's format-version `u32` and errors with
    /// [`RecoveryError::UnsupportedVersion`] unless it equals
    /// `expected`. Every [`KernelState::decode`] implementation calls
    /// this first (enforced by xtask rule R8 `snapshot-versioned`).
    pub fn expect_version(&mut self, expected: u32) -> Result<(), RecoveryError> {
        let found = self.take_u32()?;
        if found == expected {
            Ok(())
        } else {
            Err(RecoveryError::UnsupportedVersion { found, expected })
        }
    }
}

/// A kernel's serializable partial state.
///
/// Implementations declare a payload format version and a kernel
/// identity; `decode` must begin by calling
/// [`Reader::expect_version`]`(Self::FORMAT_VERSION)` (xtask rule R8
/// `snapshot-versioned` enforces the convention), and is only ever
/// invoked on CRC-validated bytes.
pub trait KernelState: Sized {
    /// Version of this state's payload encoding. Bump on any layout
    /// change.
    const FORMAT_VERSION: u32;
    /// The kernel this state belongs to.
    const KERNEL: KernelId;
    /// Serializes the state. Infallible: states are always encodable.
    fn encode(&self, w: &mut Writer);
    /// Deserializes a state from a CRC-validated payload.
    fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError>;
}

/// One serialized kernel checkpoint: kernel identity, input-graph
/// fingerprint and the opaque state payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    kernel: KernelId,
    graph_fingerprint: u64,
    payload: Vec<u8>,
}

impl Snapshot {
    /// Packs a kernel state into a snapshot bound to the input graph
    /// with fingerprint `graph_fingerprint`.
    pub fn pack<S: KernelState>(graph_fingerprint: u64, state: &S) -> Snapshot {
        let mut w = Writer::new();
        w.put_u32(S::FORMAT_VERSION);
        state.encode(&mut w);
        Snapshot {
            kernel: S::KERNEL,
            graph_fingerprint,
            payload: w.into_bytes(),
        }
    }

    /// Unpacks the kernel state, refusing a snapshot from a different
    /// kernel or a different input graph.
    pub fn unpack<S: KernelState>(&self, graph_fingerprint: u64) -> Result<S, RecoveryError> {
        if self.kernel != S::KERNEL {
            return Err(RecoveryError::KernelMismatch {
                found: self.kernel,
                expected: S::KERNEL,
            });
        }
        if self.graph_fingerprint != graph_fingerprint {
            return Err(RecoveryError::GraphMismatch);
        }
        let mut r = Reader::new(&self.payload);
        let state = S::decode(&mut r)?;
        r.finish()?;
        Ok(state)
    }

    /// The kernel that produced this snapshot.
    pub fn kernel(&self) -> KernelId {
        self.kernel
    }

    /// The fingerprint of the graph the snapshot was taken against.
    pub fn graph_fingerprint(&self) -> u64 {
        self.graph_fingerprint
    }

    /// Serializes the snapshot to its self-validating byte form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 4 + 1 + 8 + 8 + self.payload.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&CONTAINER_VERSION.to_le_bytes());
        out.push(self.kernel.code());
        out.extend_from_slice(&self.graph_fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a snapshot byte string.
    ///
    /// Rejection priority: truncation, then checksum, then version and
    /// kernel validity — so a bit flip in the version field reports
    /// [`RecoveryError::ChecksumMismatch`] rather than pretending to be
    /// a future format.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, RecoveryError> {
        const HEADER: usize = 4 + 4 + 1 + 8 + 8;
        if bytes.len() < 4 {
            return Err(RecoveryError::Truncated);
        }
        if bytes[..4] != MAGIC {
            return Err(RecoveryError::BadMagic);
        }
        if bytes.len() < HEADER + 4 {
            return Err(RecoveryError::Truncated);
        }
        let mut r = Reader::new(&bytes[4..HEADER]);
        // The reads below cannot fail: the slice is exactly HEADER-4
        // bytes. Map errors defensively anyway (decoding must be total).
        let version = r.take_u32()?;
        let kernel_code = r.take_u8()?;
        let graph_fingerprint = r.take_u64()?;
        let payload_len = r.take_usize()?;
        let total = HEADER
            .checked_add(payload_len)
            .and_then(|t| t.checked_add(4))
            .ok_or(RecoveryError::Truncated)?;
        if bytes.len() < total {
            return Err(RecoveryError::Truncated);
        }
        if bytes.len() > total {
            return Err(RecoveryError::Malformed("trailing bytes after checksum"));
        }
        let body = &bytes[..total - 4];
        let mut crc_bytes = [0u8; 4];
        crc_bytes.copy_from_slice(&bytes[total - 4..]);
        if crc32(body) != u32::from_le_bytes(crc_bytes) {
            return Err(RecoveryError::ChecksumMismatch);
        }
        if version != CONTAINER_VERSION {
            return Err(RecoveryError::UnsupportedVersion {
                found: version,
                expected: CONTAINER_VERSION,
            });
        }
        let kernel = KernelId::from_code(kernel_code)
            .ok_or(RecoveryError::Malformed("unknown kernel id"))?;
        Ok(Snapshot {
            kernel,
            graph_fingerprint,
            payload: bytes[HEADER..HEADER + payload_len].to_vec(),
        })
    }

    /// Writes the serialized snapshot to `w` (used by [`Snapshot::save`]
    /// and by the fault-injection tests through [`FaultFile`]).
    pub fn write_to(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())?;
        w.flush()
    }

    /// Atomically persists the snapshot to `path`: the bytes are written
    /// to a sibling temp file, synced, and renamed over the target, so a
    /// crash mid-save leaves either the old snapshot or the new one —
    /// never a torn file. On any error the temp file is removed and the
    /// previous snapshot (if any) is untouched.
    pub fn save(&self, path: &Path) -> Result<(), RecoveryError> {
        let tmp = sibling_tmp(path);
        let result = (|| -> std::io::Result<()> {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result.map_err(RecoveryError::Io)
    }

    /// Loads and validates a snapshot from `path`.
    pub fn load(path: &Path) -> Result<Snapshot, RecoveryError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }
}

/// The temp-file path used by [`Snapshot::save`]: the target's file name
/// with a `.tmp` suffix, in the same directory (rename across
/// filesystems is not atomic).
fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(
        || std::ffi::OsString::from("snapshot"),
        std::ffi::OsStr::to_os_string,
    );
    name.push(".tmp");
    path.with_file_name(name)
}

/// A checkpoint sink for the resumable drivers: called once per due
/// checkpoint with the freshly packed snapshot. Sinks may fail (disk
/// full, unwritable path); the driver skips that checkpoint and keeps
/// computing — durability is best-effort, correctness is not.
pub trait Checkpointer {
    /// Persists one snapshot.
    fn save(&mut self, snapshot: &Snapshot) -> Result<(), RecoveryError>;
}

/// A [`Checkpointer`] that atomically rewrites one file per checkpoint.
#[derive(Debug)]
pub struct FileCheckpointer {
    path: PathBuf,
}

impl FileCheckpointer {
    /// A checkpointer writing to `path` via [`Snapshot::save`].
    pub fn new(path: impl Into<PathBuf>) -> FileCheckpointer {
        FileCheckpointer { path: path.into() }
    }
}

impl Checkpointer for FileCheckpointer {
    fn save(&mut self, snapshot: &Snapshot) -> Result<(), RecoveryError> {
        snapshot.save(&self.path)
    }
}

/// What a `*_with` entry point returns: the kernel outcome, the
/// final snapshot when the run ended on a real trip (resume it later),
/// and the recovery error when a provided snapshot was unusable and the
/// run degraded to a clean from-scratch start.
#[derive(Debug)]
pub struct ResumableRun<T> {
    /// The kernel's (possibly partial) outcome.
    pub outcome: T,
    /// The state at the final trip; `None` when the run completed.
    pub snapshot: Option<Snapshot>,
    /// Why the provided snapshot was rejected, if it was.
    pub recovery: Option<RecoveryError>,
}

/// FNV-1a over a byte string: the driver's cheap progress fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Runs a kernel to completion (or a real trip) through its
/// checkpoint-aware leg function, persisting a snapshot at every due
/// checkpoint.
///
/// `leg` runs the kernel from a state and returns the outcome, the state
/// at the stop point, and how the leg ended. On
/// [`Completion::CheckpointDue`] the driver packs and persists the
/// state, re-arms the budget and re-enters; on any real trip it returns
/// the outcome plus a final snapshot; on [`Completion::Complete`] it
/// returns the outcome alone.
///
/// Checkpointing is epoch-granular: a leg stops at the *next poll site*
/// after the period elapses. If a leg makes no serialized progress
/// between two checkpoints (one step of the kernel costs more polls than
/// the period), the driver doubles the effective period before
/// re-entering — so any finite step eventually completes and the loop
/// cannot livelock — and restores it after the next real progress.
///
/// `graph_fingerprint` yields the fingerprint that binds snapshots to
/// the input graph. Hashing a graph is a pass over it, and only
/// unpacking `resume` or packing a snapshot needs the value, so the
/// driver calls it at most once, on first need: a run with no resume
/// image that completes without a checkpoint never calls it.
pub fn drive<S: KernelState, T>(
    budget: &ExecutionBudget,
    graph_fingerprint: impl Fn() -> u64,
    resume: Option<&Snapshot>,
    initial: impl FnOnce() -> S,
    mut leg: impl FnMut(S) -> (T, S, Completion),
    mut sink: Option<&mut (dyn Checkpointer + '_)>,
) -> ResumableRun<T> {
    let mut memo = None;
    let mut fingerprint = || *memo.get_or_insert_with(&graph_fingerprint);
    let mut recovery = None;
    let mut state = match resume {
        Some(snap) => match snap.unpack::<S>(fingerprint()) {
            Ok(s) => s,
            Err(e) => {
                recovery = Some(e);
                initial()
            }
        },
        None => initial(),
    };
    let base_period = budget.checkpoint_period();
    let mut period = base_period;
    let mut last_progress: Option<u64> = None;
    loop {
        let (outcome, stopped, completion) = leg(state);
        match completion {
            Completion::Complete => {
                return ResumableRun {
                    outcome,
                    snapshot: None,
                    recovery,
                }
            }
            Completion::CheckpointDue => {
                let snap = Snapshot::pack(fingerprint(), &stopped);
                let progress = fnv1a(&snap.payload);
                if last_progress == Some(progress) {
                    // No serialized progress since the last checkpoint:
                    // back off so the stuck step gets more polls.
                    period = period.saturating_mul(2).max(1);
                    budget.set_checkpoint_period(period);
                } else {
                    last_progress = Some(progress);
                    if period != base_period {
                        period = base_period;
                        budget.set_checkpoint_period(period);
                    }
                    if let Some(s) = sink.as_mut() {
                        // A failed save skips this checkpoint; the run
                        // continues and the previous snapshot survives.
                        let _ = s.save(&snap);
                    }
                }
                if !budget.rearm_after_checkpoint() {
                    // A real trip raced the checkpoint; surface it.
                    return ResumableRun {
                        outcome,
                        snapshot: Some(snap),
                        recovery,
                    };
                }
                state = stopped;
            }
            _ => {
                return ResumableRun {
                    outcome,
                    snapshot: Some(Snapshot::pack(fingerprint(), &stopped)),
                    recovery,
                }
            }
        }
    }
}

/// An `std::io::Write` shim that injects storage faults, for the
/// recovery tests: accepts `budget` bytes, then fails every further
/// write according to `fault`. The accepted prefix is exactly what a
/// crashed or out-of-space writer would have left on disk.
#[derive(Debug)]
pub struct FaultFile {
    written: Vec<u8>,
    budget: usize,
    fault: FaultKind,
}

/// How a [`FaultFile`] fails once its byte budget is exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Writes report success but bytes past the budget are dropped — a
    /// short write that the writer never notices (crash before flush).
    ShortWrite,
    /// Writes past the budget fail with an out-of-space I/O error.
    Enospc,
}

impl FaultFile {
    /// A fault file accepting `budget` bytes before injecting `fault`.
    pub fn new(budget: usize, fault: FaultKind) -> FaultFile {
        FaultFile {
            written: Vec::new(),
            budget,
            fault,
        }
    }

    /// The bytes that actually reached "disk".
    pub fn written(&self) -> &[u8] {
        &self.written
    }
}

impl std::io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let room = self.budget - self.written.len().min(self.budget);
        let accept = buf.len().min(room);
        self.written.extend_from_slice(&buf[..accept]);
        if accept == buf.len() {
            return Ok(buf.len());
        }
        match self.fault {
            // Lie about success: the caller believes the write landed.
            FaultKind::ShortWrite => Ok(buf.len()),
            FaultKind::Enospc => Err(std::io::Error::other("injected ENOSPC")),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Demo {
        xs: Vec<u32>,
        cursor: Option<u32>,
        score: f64,
    }

    impl KernelState for Demo {
        const FORMAT_VERSION: u32 = 7;
        const KERNEL: KernelId = KernelId::BaseSky;
        fn encode(&self, w: &mut Writer) {
            w.put_u32_slice(&self.xs);
            w.put_opt_u32(self.cursor);
            w.put_f64(self.score);
        }
        fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
            r.expect_version(Self::FORMAT_VERSION)?;
            Ok(Demo {
                xs: r.take_u32_vec()?,
                cursor: r.take_opt_u32()?,
                score: r.take_f64()?,
            })
        }
    }

    fn demo() -> Demo {
        Demo {
            xs: vec![3, 1, 4, 1, 5],
            cursor: Some(42),
            score: -0.125,
        }
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"NSKY"), crc32(b"NSKY"));
    }

    #[test]
    fn drive_hashes_the_graph_at_most_once_and_only_for_snapshots() {
        let calls = std::cell::Cell::new(0);
        let fingerprint = || {
            calls.set(calls.get() + 1);
            0xfeed
        };
        // No resume image and no snapshot: the graph is never hashed.
        let run = drive(
            &ExecutionBudget::unlimited(),
            fingerprint,
            None,
            demo,
            |s| ((), s, Completion::Complete),
            None,
        );
        assert!(run.snapshot.is_none());
        assert_eq!(calls.get(), 0);

        // A resume image, a checkpoint and a final trip share one hash.
        let image = Snapshot::pack(0xfeed, &demo());
        let budget = ExecutionBudget::unlimited().check_interval(1);
        budget.set_checkpoint_period(1);
        let mut legs = 0;
        let run = drive(
            &budget,
            fingerprint,
            Some(&image),
            demo,
            |s| {
                legs += 1;
                let status = if legs == 1 {
                    budget.ticker().check().unwrap_or(Completion::Complete)
                } else {
                    Completion::DeadlineExceeded
                };
                ((), s, status)
            },
            None,
        );
        assert!(run.recovery.is_none());
        assert!(run.snapshot.is_some());
        assert_eq!(legs, 2, "the first leg stops for a checkpoint");
        assert_eq!(calls.get(), 1);
    }

    #[test]
    fn snapshot_round_trips_through_bytes() {
        let snap = Snapshot::pack(0xDEAD_BEEF, &demo());
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.kernel(), KernelId::BaseSky);
        assert_eq!(back.graph_fingerprint(), 0xDEAD_BEEF);
        assert_eq!(back.unpack::<Demo>(0xDEAD_BEEF).unwrap(), demo());
    }

    #[test]
    fn every_truncation_is_rejected_without_panic() {
        let bytes = Snapshot::pack(1, &demo()).to_bytes();
        for cut in 0..bytes.len() {
            let torn = &bytes[..cut];
            assert!(
                matches!(
                    Snapshot::from_bytes(torn),
                    Err(RecoveryError::Truncated | RecoveryError::BadMagic)
                ),
                "cut at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn every_bit_flip_is_rejected_or_harmless() {
        let snap = Snapshot::pack(1, &demo());
        let bytes = snap.to_bytes();
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0x01;
            match Snapshot::from_bytes(&mutated) {
                // Flips in the magic or the length field may surface as
                // those specific rejections before the CRC runs.
                Err(
                    RecoveryError::ChecksumMismatch
                    | RecoveryError::BadMagic
                    | RecoveryError::Truncated
                    | RecoveryError::Malformed(_),
                ) => {}
                other => panic!("flip at byte {i} produced {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_kernel_graph_and_version_are_typed() {
        let snap = Snapshot::pack(1, &demo());
        assert!(matches!(
            snap.unpack::<Demo>(2),
            Err(RecoveryError::GraphMismatch)
        ));

        struct Other;
        impl KernelState for Other {
            const FORMAT_VERSION: u32 = 1;
            const KERNEL: KernelId = KernelId::CliqueBnb;
            fn encode(&self, _w: &mut Writer) {}
            fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
                r.expect_version(Self::FORMAT_VERSION)?;
                Ok(Other)
            }
        }
        assert!(matches!(
            snap.unpack::<Other>(1),
            Err(RecoveryError::KernelMismatch { .. })
        ));

        // A payload claiming a future payload version.
        struct DemoV8(Demo);
        impl KernelState for DemoV8 {
            const FORMAT_VERSION: u32 = 8;
            const KERNEL: KernelId = KernelId::BaseSky;
            fn encode(&self, w: &mut Writer) {
                self.0.encode(w);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, RecoveryError> {
                r.expect_version(Self::FORMAT_VERSION)?;
                Demo::decode(r).map(DemoV8)
            }
        }
        assert!(matches!(
            snap.unpack::<DemoV8>(1),
            Err(RecoveryError::UnsupportedVersion {
                found: 7,
                expected: 8
            })
        ));
    }

    #[test]
    fn fault_file_short_write_yields_truncated_snapshot() {
        let snap = Snapshot::pack(1, &demo());
        let full = snap.to_bytes();
        let mut ff = FaultFile::new(full.len() / 2, FaultKind::ShortWrite);
        // The short-write fault reports success, like a crash after a
        // partial flush.
        snap.write_to(&mut ff).unwrap();
        assert_eq!(ff.written(), &full[..full.len() / 2]);
        assert!(matches!(
            Snapshot::from_bytes(ff.written()),
            Err(RecoveryError::Truncated)
        ));
    }

    #[test]
    fn fault_file_enospc_errors_out() {
        let snap = Snapshot::pack(1, &demo());
        let mut ff = FaultFile::new(3, FaultKind::Enospc);
        let err = snap.write_to(&mut ff).unwrap_err();
        assert!(err.to_string().contains("ENOSPC"), "{err}");
        assert!(ff.written().len() <= 3);
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir = std::env::temp_dir().join(format!("nsky-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.nsky");
        let snap = Snapshot::pack(9, &demo());
        snap.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        // Overwrite with a different state: still atomic, no temp left.
        let snap2 = Snapshot::pack(
            9,
            &Demo {
                xs: vec![],
                cursor: None,
                score: 1.0,
            },
        );
        snap2.save(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap2);
        assert!(!sibling_tmp(&path).exists());
        // Corrupt the file on disk: load reports the checksum.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::load(&path),
            Err(RecoveryError::ChecksumMismatch)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn writer_reader_primitives_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xAABB_CCDD);
        w.put_u64(u64::MAX);
        w.put_usize(12);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_u32_slice(&[1, 2, 3]);
        w.put_opt_u32(None);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xAABB_CCDD);
        assert_eq!(r.take_u64().unwrap(), u64::MAX);
        assert_eq!(r.take_usize().unwrap(), 12);
        assert!(r.take_f64().unwrap().is_nan());
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.take_opt_u32().unwrap(), None);
        r.finish().unwrap();
        // Reading past the end is a typed error, not a panic.
        assert!(matches!(
            Reader::new(&bytes).take_u32_vec(),
            Err(RecoveryError::Truncated | RecoveryError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_vec_length_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd length prefix
        let bytes = w.into_bytes();
        assert!(matches!(
            Reader::new(&bytes).take_u32_vec(),
            Err(RecoveryError::Truncated | RecoveryError::Malformed(_))
        ));
    }
}
