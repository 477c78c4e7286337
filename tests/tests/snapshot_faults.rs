//! Storage-corruption tests for the snapshot/resume layer: every
//! injected corruption — torn tails, bit flips, short writes,
//! out-of-space writers, damaged files on disk — must be rejected with a
//! typed [`RecoveryError`], never a panic or a loadable lie.
//!
//! Resume equivalence (trip at every poll point, round-trip the
//! snapshot, resume to the uninterrupted answer), disk-checkpoint
//! convergence and the degradation of wrong-graph / wrong-kernel
//! snapshots to clean fresh runs are asserted per kernel by
//! `fault_matrix.rs`.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use nsky_graph::generators::chung_lu_power_law;
use nsky_graph::Graph;
use nsky_skyline::budget::{ExecutionBudget, TripClock};
use nsky_skyline::snapshot::{FaultFile, FaultKind, RecoveryError, Snapshot};
use nsky_skyline::{base_sky_with, ExecutionContext};

/// A budget with a deterministic clock tripping on poll `k`, polling on
/// every tick, plus the clock handle for poll counting.
fn trip_budget(k: u64) -> (ExecutionBudget, Arc<TripClock>) {
    let clock = Arc::new(TripClock::at_poll(k));
    let budget = ExecutionBudget::unlimited()
        .deadline(Arc::clone(&clock))
        .check_interval(1);
    (budget, clock)
}

/// A scratch path unique to this test process and `label`.
fn scratch_path(label: &str) -> std::path::PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nsky-snapshot-faults-{}-{label}-{seq}.ck",
        std::process::id()
    ))
}

/// A genuine mid-run snapshot of `base_sky` on `g`, as wire bytes.
fn genuine_snapshot(g: &Graph) -> Vec<u8> {
    let (budget, clock) = trip_budget(u64::MAX);
    let _ = base_sky_with(g, &mut ExecutionContext::new().budget(&budget));
    let (budget, _clock) = trip_budget(clock.polls() / 2);
    let tripped = base_sky_with(g, &mut ExecutionContext::new().budget(&budget));
    tripped.snapshot.expect("mid-run trip").to_bytes()
}

#[test]
fn every_torn_tail_is_rejected_with_a_typed_error() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 14);
    let bytes = genuine_snapshot(&g);
    for len in 0..bytes.len() {
        let err = Snapshot::from_bytes(&bytes[..len])
            .err()
            .unwrap_or_else(|| panic!("torn tail at {len} accepted"));
        assert!(
            matches!(
                err,
                RecoveryError::Truncated
                    | RecoveryError::ChecksumMismatch
                    | RecoveryError::BadMagic
            ),
            "torn tail at {len}: unexpected {err:?}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_with_a_typed_error() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 15);
    let bytes = genuine_snapshot(&g);
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "bit flip at byte {i} bit {bit} accepted"
            );
        }
    }
}

#[test]
fn short_writes_and_enospc_never_yield_a_loadable_lie() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 16);
    let bytes = genuine_snapshot(&g);
    let snap = Snapshot::from_bytes(&bytes).expect("genuine");
    for budget in 0..bytes.len() {
        // A writer that silently drops the tail (crash before flush):
        // the surviving prefix must never parse as a valid snapshot.
        let mut disk = FaultFile::new(budget, FaultKind::ShortWrite);
        snap.write_to(&mut disk).expect("short writes lie with Ok");
        assert!(
            Snapshot::from_bytes(disk.written()).is_err(),
            "short write at {budget} bytes produced a loadable snapshot"
        );
        // An out-of-space writer must surface a typed I/O error.
        let mut disk = FaultFile::new(budget, FaultKind::Enospc);
        assert!(
            snap.write_to(&mut disk).is_err(),
            "ENOSPC at {budget} bytes went unnoticed"
        );
    }
}

#[test]
fn on_disk_corruption_is_caught_by_load() {
    let g = chung_lu_power_law(90, 2.8, 5.0, 19);
    let bytes = genuine_snapshot(&g);
    let snap = Snapshot::from_bytes(&bytes).expect("genuine");

    // Trailing garbage appended after a valid image.
    let path = scratch_path("trailing");
    snap.save(&path).expect("save");
    let mut on_disk = std::fs::read(&path).expect("read");
    on_disk.extend_from_slice(b"garbage");
    std::fs::write(&path, &on_disk).expect("write");
    assert!(matches!(
        Snapshot::load(&path),
        Err(RecoveryError::Malformed(_))
    ));
    let _ = std::fs::remove_file(&path);

    // A torn file (half the image) fails closed.
    let path = scratch_path("torn");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
    assert!(Snapshot::load(&path).is_err());
    let _ = std::fs::remove_file(&path);

    // A missing file is a typed I/O error, not a panic.
    let path = scratch_path("missing");
    assert!(matches!(Snapshot::load(&path), Err(RecoveryError::Io(_))));
}
