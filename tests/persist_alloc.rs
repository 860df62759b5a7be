//! Loading a `.sbrl` artifact allocates in proportion to its length. The
//! `BCFG` section's dimensions are only capped (at 2^20 per width), so a
//! crafted artifact of a few kilobytes with a valid checksum can describe a
//! model of gigabytes; the reader must refuse it before building it.
//!
//! This is its own test binary so that the counting allocator sees the
//! loads of its one test and little else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use sbrl_hap::core::persist::crc32;
use sbrl_hap::core::{FittedModel, PersistError, SbrlError};

/// Bytes requested from the allocator since process start.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// System-allocator wrapper adding up the bytes each `alloc`,
/// `alloc_zeroed` and `realloc` asks for. Frees are not subtracted.
struct CountingAllocator;

// SAFETY: delegates every operation verbatim to `System`; the counter
// update has no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    /// # Safety
    /// Same contract as [`System::alloc`], to which this delegates.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc(layout) }
    }

    /// # Safety
    /// Same contract as [`System::dealloc`], to which this delegates.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, which only ever
        // hands out `System` pointers.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// # Safety
    /// Same contract as [`System::alloc_zeroed`], to which this delegates.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        REQUESTED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged to `System`.
        unsafe { System.alloc_zeroed(layout) }
    }

    /// # Safety
    /// Same contract as [`System::realloc`], to which this delegates.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REQUESTED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout`/`new_size` are forwarded unchanged; `ptr`
        // originates from this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Bytes a load may request per byte of artifact.
const BYTES_PER_ARTIFACT_BYTE: usize = 16;

/// Absolute offset of the `rep_width` `u64` in `BCFG`: 12 header bytes, the
/// 24-byte `META` section, `BCFG`'s 12-byte frame, its backbone byte, then
/// `in_dim` and `rep_layers`.
const REP_WIDTH_OFFSET: usize = 65;

/// Loads `bytes`, returning the result and the bytes requested meanwhile.
fn load_counting(
    bytes: &[u8],
) -> (Result<FittedModel<Box<dyn sbrl_hap::models::Backbone>>, SbrlError>, usize) {
    let before = REQUESTED.load(Ordering::Relaxed);
    let result = FittedModel::from_sbrl_bytes(bytes);
    (result, REQUESTED.load(Ordering::Relaxed) - before)
}

#[test]
fn a_load_allocates_in_proportion_to_the_artifact() {
    let golden =
        fs::read(Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_v2.sbrl"))
            .expect("committed golden fixture readable");
    let bound = BYTES_PER_ARTIFACT_BYTE * golden.len();

    // The committed golden (a CFR with `rep_width` 8) loads within the bound.
    let (loaded, requested) = load_counting(&golden);
    assert!(loaded.is_ok(), "the golden loads");
    assert!(requested <= bound, "the golden load requested {requested} bytes, bound {bound}");

    // The same bytes with `rep_width` 2^16, checksum restamped: the
    // architecture would hold about a million scalars (8 MiB), 2 300 times
    // the artifact's length.
    let mut crafted = golden.clone();
    let width = &mut crafted[REP_WIDTH_OFFSET..REP_WIDTH_OFFSET + 8];
    assert_eq!(u64::from_le_bytes(width.try_into().unwrap()), 8, "offset of rep_width");
    width.copy_from_slice(&(1u64 << 16).to_le_bytes());
    let n = crafted.len();
    let crc = crc32(&crafted[..n - 4]);
    crafted[n - 4..].copy_from_slice(&crc.to_le_bytes());

    let (result, requested) = load_counting(&crafted);
    assert!(requested <= bound, "the crafted load requested {requested} bytes, bound {bound}");
    match result {
        Err(SbrlError::Persist(PersistError::Truncated { section: "PARM", needed, available })) => {
            assert!(needed > 8 << 20 && available < golden.len(), "{needed} vs {available}");
        }
        Err(other) => panic!("expected PARM to be too short, got: {other}"),
        Ok(_) => panic!("the crafted artifact loaded"),
    }
}
