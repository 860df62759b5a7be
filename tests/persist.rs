//! The `.sbrl` persistence battery: golden round trips, byte-surgery and
//! proptest corruption suites, version skew against committed fixtures, and
//! a many-threads hammer on one loaded model.
//!
//! The committed fixtures under `tests/fixtures/` were written by
//! `cargo run --release -p sbrl-core --bin serve -- make-fixtures tests/fixtures`
//! from the recipe in `sbrl_core::persist::fixture`; regenerating them is a
//! deliberate, reviewed act (it re-pins the golden prediction bits).

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;
use sbrl_hap::core::persist::{crc32, fixture, FORMAT_VERSION, MIN_SUPPORTED_VERSION};
use sbrl_hap::core::{
    FitReport, FittedModel, InferenceService, ModelRegistry, PersistError, SbrlError, ServeConfig,
};
use sbrl_hap::models::Backbone;

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

fn golden_bytes() -> Vec<u8> {
    fs::read(fixture_path("golden_v2.sbrl")).expect("committed golden fixture readable")
}

/// Recomputes and rewrites the trailing checksum after byte surgery, so a
/// test reaches the validation *behind* the checksum gate.
fn repatch_crc(bytes: &mut [u8]) {
    let n = bytes.len();
    let fresh = crc32(&bytes[..n - 4]);
    bytes[n - 4..].copy_from_slice(&fresh.to_le_bytes());
}

#[track_caller]
fn expect_persist_err(result: Result<FittedModel<Box<dyn Backbone>>, SbrlError>) -> PersistError {
    match result {
        Err(SbrlError::Persist(e)) => e,
        Err(other) => panic!("expected a Persist error, got: {other}"),
        Ok(_) => panic!("expected a Persist error, got a loaded model"),
    }
}

/// A process-unique scratch directory (created fresh, best-effort cleaned).
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sbrl_persist_{tag}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir creatable");
    dir
}

fn assert_bit_identical(
    a: &sbrl_hap::metrics::EffectEstimate,
    b: &sbrl_hap::metrics::EffectEstimate,
    what: &str,
) {
    assert_eq!(a.y0_hat.len(), b.y0_hat.len(), "{what}: y0 lengths differ");
    assert_eq!(a.y1_hat.len(), b.y1_hat.len(), "{what}: y1 lengths differ");
    let pairs = a.y0_hat.iter().zip(&b.y0_hat).chain(a.y1_hat.iter().zip(&b.y1_hat));
    for (i, (x, y)) in pairs.enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: value {i} differs: {x} vs {y}");
    }
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

/// save -> load -> predict is bit-identical for both fixture recipes. The
/// name dates from a second, since retired, numerics tier.
#[test]
fn round_trip_is_bit_identical_in_the_ambient_numerics_mode() {
    let dir = scratch_dir("round_trip");
    let recipes = [("golden", fixture::train_golden()), ("second", fixture::train_second())];
    for (recipe, fitted) in recipes {
        let fitted = fitted.expect("fixture fit succeeds");
        let path = dir.join(format!("{recipe}.sbrl"));
        fitted.save(&path).expect("save succeeds");
        let loaded = FittedModel::load(&path).expect("load succeeds");

        assert_eq!(loaded.seed(), fitted.seed(), "{recipe}");
        assert_eq!(loaded.framework(), fitted.framework(), "{recipe}");
        assert_eq!(loaded.method_spec().name(), fitted.method_spec().name(), "{recipe}");

        let probe = fixture::probe_matrix(fitted.model().export_config().in_dim());
        let what = format!("{recipe} round trip");
        assert_bit_identical(&fitted.predict(&probe), &loaded.predict(&probe), &what);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The fit provenance — `TrainReport` and the fault-tolerance `FitReport`
/// with its `RecoveryEvent`s — survives the on-disk round trip intact.
#[test]
fn fit_and_recovery_reports_survive_the_on_disk_round_trip() {
    let fitted = fixture::train_second().expect("fixture fit succeeds");
    let dir = scratch_dir("reports");
    let path = dir.join("model.sbrl");
    fitted.save(&path).expect("save succeeds");
    let loaded = FittedModel::load(&path).expect("load succeeds");

    assert_eq!(loaded.report(), fitted.report(), "TrainReport must round-trip");
    assert_eq!(loaded.fit_report(), fitted.fit_report(), "FitReport must round-trip");
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Golden fixtures and version skew
// ---------------------------------------------------------------------------

fn committed_probe_bits() -> (Vec<u64>, Vec<u64>) {
    let text = fs::read_to_string(fixture_path("golden_expected_bits.txt"))
        .expect("committed bits fixture readable");
    let (mut y0, mut y1) = (Vec::new(), Vec::new());
    for line in text.lines() {
        if let Some(hex) = line.strip_prefix("y0 ") {
            y0.push(u64::from_str_radix(hex.trim(), 16).expect("valid y0 hex"));
        } else if let Some(hex) = line.strip_prefix("y1 ") {
            y1.push(u64::from_str_radix(hex.trim(), 16).expect("valid y1 hex"));
        }
    }
    (y0, y1)
}

/// The committed `golden_v2.sbrl` still predicts the committed bits — any
/// accidental format or numerics drift breaks this, and fixing it requires
/// deliberately regenerating fixtures.
#[test]
fn golden_v2_fixture_predicts_the_committed_bits() {
    let loaded = FittedModel::load(&fixture_path("golden_v2.sbrl")).expect("golden v2 loads");
    let (y0_expected, y1_expected) = committed_probe_bits();
    assert_eq!(y0_expected.len(), fixture::PROBE_ROWS);
    assert_eq!(y1_expected.len(), fixture::PROBE_ROWS);

    let probe = fixture::probe_matrix(loaded.model().export_config().in_dim());
    let est = loaded.predict(&probe);

    let y0: Vec<u64> = est.y0_hat.iter().map(|v| v.to_bits()).collect();
    let y1: Vec<u64> = est.y1_hat.iter().map(|v| v.to_bits()).collect();
    assert_eq!(y0, y0_expected, "y0 bits drifted from the committed golden fixture");
    assert_eq!(y1, y1_expected, "y1 bits drifted from the committed golden fixture");
}

/// Each committed fixture re-encodes to its own bytes at its own format
/// version, and the `persist::fixture` recipes, fitted afresh, encode to
/// those same bytes. A round trip alone would still pass if the encoder and
/// decoder drifted together; this pins the on-disk layout itself, and shows
/// that `serve make-fixtures` reproduces every committed file.
#[test]
fn committed_fixtures_re_encode_byte_for_byte() {
    let golden = fixture::train_golden().expect("fixture fit succeeds");
    let second = fixture::train_second().expect("fixture fit succeeds");
    for (name, version, recipe) in [
        ("golden_v1.sbrl", 1, &golden),
        ("golden_v2.sbrl", 2, &golden),
        ("registry/cfr-sbrl-hap.sbrl", 2, &golden),
        ("registry/tarnet.sbrl", 2, &second),
    ] {
        let bytes = fs::read(fixture_path(name)).expect("committed fixture readable");
        let loaded = FittedModel::from_sbrl_bytes(&bytes).expect("committed fixture loads");
        assert!(
            loaded.to_sbrl_bytes_versioned(version) == bytes,
            "{name} does not re-encode byte for byte at format version {version}"
        );
        assert!(
            recipe.to_sbrl_bytes_versioned(version) == bytes,
            "the fixture recipe no longer encodes to {name} at format version {version}"
        );
    }
}

/// Version skew, old reader side: a committed format-v1 artifact (no `FITR`
/// section) still loads, with the fault-tolerance provenance defaulted, and
/// predicts the same bits as its v2 sibling (same weights).
#[test]
fn golden_v1_fixture_loads_with_defaulted_fit_report_and_identical_bits() {
    let v1 = FittedModel::load(&fixture_path("golden_v1.sbrl")).expect("golden v1 loads");
    let v2 = FittedModel::load(&fixture_path("golden_v2.sbrl")).expect("golden v2 loads");
    assert_eq!(v1.fit_report(), &FitReport::default());

    let probe = fixture::probe_matrix(v1.model().export_config().in_dim());
    assert_bit_identical(&v1.predict(&probe), &v2.predict(&probe), "v1 vs v2 golden");
}

/// Version skew, future side: an artifact stamped with a not-yet-invented
/// format version is rejected with a typed error, never guessed at.
#[test]
fn future_format_versions_are_rejected_not_guessed() {
    let mut bytes = golden_bytes();
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    repatch_crc(&mut bytes);
    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes));
    assert_eq!(
        err,
        PersistError::UnsupportedVersion {
            found: 99,
            min: MIN_SUPPORTED_VERSION,
            max: FORMAT_VERSION,
        }
    );
}

// ---------------------------------------------------------------------------
// Byte surgery: every corruption mode yields its typed error
// ---------------------------------------------------------------------------

#[test]
fn a_wrong_magic_is_reported_as_bad_magic() {
    let mut bytes = golden_bytes();
    bytes[0] ^= 0xff;
    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes));
    assert!(matches!(err, PersistError::BadMagic { .. }), "got: {err}");
}

#[test]
fn a_flipped_payload_byte_fails_the_checksum() {
    let mut bytes = golden_bytes();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes));
    assert!(matches!(err, PersistError::ChecksumMismatch { .. }), "got: {err}");
}

/// Corrupting a byte *and* re-stamping the checksum reaches the structural
/// validation behind the CRC gate: a provenance byte flipped to another
/// valid value must be caught by the cross-check, not silently accepted.
#[test]
fn a_relabelled_backbone_kind_is_a_provenance_conflict() {
    let mut bytes = golden_bytes();
    // Absolute offset 24 = first META payload byte = the backbone kind.
    bytes[24] = (bytes[24] + 1) % 3;
    repatch_crc(&mut bytes);
    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes));
    assert!(
        matches!(err, PersistError::ProvenanceConflict { .. } | PersistError::Malformed { .. }),
        "got: {err}"
    );
}

/// The `META` numerics byte (absolute offset 26, after the backbone kind and
/// the framework). The writer stores `0`; `1` is what the retired FMA tier
/// wrote, and such an artifact loads, predicts the bits of its byte-`0`
/// original and re-encodes to it. Any other byte is a typed error.
#[test]
fn a_retired_numerics_byte_loads_and_an_unknown_one_is_malformed() {
    let original = golden_bytes();
    assert_eq!(original[26], 0, "the committed golden carries numerics byte 0");
    let with_numerics_byte = |b: u8| {
        let mut bytes = original.clone();
        bytes[26] = b;
        repatch_crc(&mut bytes);
        bytes
    };

    let v0 = FittedModel::from_sbrl_bytes(&original).expect("golden v2 loads");
    let v1 = FittedModel::from_sbrl_bytes(&with_numerics_byte(1)).expect("byte 1 loads");
    let probe = fixture::probe_matrix(v0.model().export_config().in_dim());
    assert_bit_identical(&v0.predict(&probe), &v1.predict(&probe), "numerics byte 1 vs 0");
    assert!(v1.to_sbrl_bytes() == original, "a byte-1 model must re-encode with byte 0");

    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&with_numerics_byte(2)));
    assert!(matches!(err, PersistError::Malformed { .. }), "got: {err}");
}

#[test]
fn truncation_at_structural_boundaries_is_a_typed_error() {
    let bytes = golden_bytes();
    // Before the magic, inside it, inside the version word, inside the first
    // section header, mid-payload, and just before the checksum.
    for cut in [0, 5, 10, 20, bytes.len() / 2, bytes.len() - 3] {
        let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes[..cut]));
        assert!(
            matches!(
                err,
                PersistError::Truncated { .. }
                    | PersistError::ChecksumMismatch { .. }
                    | PersistError::BadMagic { .. }
            ),
            "cut at {cut}: got {err}"
        );
    }
}

/// An artifact cut inside its checksum trailer (valid magic and version, 2
/// of the 4 trailer bytes present) reports the bytes it actually has.
#[test]
fn a_cut_checksum_trailer_reports_true_byte_counts() {
    let bytes = golden_bytes();
    let err = expect_persist_err(FittedModel::from_sbrl_bytes(&bytes[..14]));
    assert_eq!(
        err,
        PersistError::Truncated { section: "checksum trailer", needed: 4, available: 2 }
    );
}

// ---------------------------------------------------------------------------
// Proptest corruption suite: >= 128 mutated artifacts, typed errors only
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single corrupted byte yields `Err(SbrlError::Persist(_))` —
    /// never a panic, never a silently-wrong model.
    #[test]
    fn corrupting_any_byte_is_a_typed_error(pos in 0usize..1_000_000, val in 0usize..1_000_000) {
        let mut bytes = golden_bytes();
        let pos = pos % bytes.len();
        let flip = (val % 255) as u8 + 1; // never a no-op xor
        bytes[pos] ^= flip;
        match FittedModel::from_sbrl_bytes(&bytes) {
            Err(SbrlError::Persist(_)) => {}
            Err(other) => prop_assert!(false, "pos {}: non-persist error {}", pos, other),
            Ok(_) => prop_assert!(false, "pos {} xor {:#04x}: corrupt artifact loaded", pos, flip),
        }
    }

    /// Any strict prefix of a valid artifact yields a typed error — length
    /// framing means truncation can never read past the buffer or panic.
    #[test]
    fn truncating_anywhere_is_a_typed_error(cut in 0usize..1_000_000) {
        let bytes = golden_bytes();
        let cut = cut % bytes.len();
        match FittedModel::from_sbrl_bytes(&bytes[..cut]) {
            Err(SbrlError::Persist(_)) => {}
            Err(other) => prop_assert!(false, "cut {}: non-persist error {}", cut, other),
            Ok(_) => prop_assert!(false, "cut {}: truncated artifact loaded", cut),
        }
    }
}

// ---------------------------------------------------------------------------
// Registry startup: fail fast, no partial registry
// ---------------------------------------------------------------------------

#[test]
fn the_committed_registry_fixture_loads_and_resolves_names() {
    let registry = ModelRegistry::load_dir(&fixture_path("registry")).expect("fixture registry");
    assert_eq!(registry.len(), 2);
    let names = registry.names();
    assert!(names.iter().any(|n| n == "CFR+SBRL-HAP"), "names: {names:?}");
    assert!(names.iter().any(|n| n == "TARNet"), "names: {names:?}");
    // Lookup is case-insensitive; misses are typed and name the known set.
    assert!(registry.get("cfr+sbrl-hap").is_some());
    match registry.require("BART") {
        Err(SbrlError::Persist(PersistError::UnknownModel { name, known })) => {
            assert_eq!(name, "BART");
            assert_eq!(known.len(), 2);
        }
        other => panic!("expected UnknownModel, got: {other:?}"),
    }
}

#[test]
fn a_corrupt_artifact_fails_registry_startup() {
    let dir = scratch_dir("corrupt_registry");
    fs::copy(fixture_path("registry/cfr-sbrl-hap.sbrl"), dir.join("good.sbrl")).unwrap();
    fs::write(dir.join("rotten.sbrl"), b"not an sbrl artifact").unwrap();
    match ModelRegistry::load_dir(&dir) {
        Err(SbrlError::Persist(e)) => {
            assert!(matches!(e, PersistError::BadMagic { .. }), "got: {e}")
        }
        other => panic!("expected a Persist error, got: {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_method_names_fail_registry_startup() {
    let dir = scratch_dir("dup_registry");
    fs::copy(fixture_path("registry/cfr-sbrl-hap.sbrl"), dir.join("a.sbrl")).unwrap();
    fs::copy(fixture_path("registry/cfr-sbrl-hap.sbrl"), dir.join("b.sbrl")).unwrap();
    match ModelRegistry::load_dir(&dir) {
        Err(SbrlError::Persist(PersistError::DuplicateModel { name, .. })) => {
            assert_eq!(name, "CFR+SBRL-HAP");
        }
        other => panic!("expected DuplicateModel, got: {other:?}"),
    }
    let _ = fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Concurrency: many threads hammer one loaded model
// ---------------------------------------------------------------------------

/// 8 client threads x 25 requests against one loaded model through the
/// inference service: every response is bit-identical to a direct,
/// single-threaded `predict` on the same loaded artifact.
#[test]
fn many_threads_hammer_one_loaded_model_bit_identically() {
    let registry = ModelRegistry::load_dir(&fixture_path("registry")).expect("fixture registry");
    let name = "CFR+SBRL-HAP";
    let direct = registry.require(name).expect("golden model present");
    let probe = fixture::probe_matrix(direct.model().export_config().in_dim());
    let baseline = direct.predict(&probe);

    let service = InferenceService::start(registry, ServeConfig::default()).expect("service boots");
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _client in 0..8 {
            let service = &service;
            let probe = &probe;
            let baseline = &baseline;
            handles.push(scope.spawn(move || {
                for _req in 0..25 {
                    let est = service.predict(name, probe.clone()).expect("served predict");
                    assert_bit_identical(&est, baseline, "served vs direct");
                }
            }));
        }
        for handle in handles {
            handle.join().expect("client thread");
        }
    });
}
