//! Model persistence: the versioned, dependency-free `.sbrl` binary format.
//!
//! A fitted model ([`FittedModel`]) serialises to a single self-describing
//! artifact that captures everything inference needs **and** everything
//! provenance wants:
//!
//! ```text
//! ┌────────────┬─────────────┬──────────────────────────────┬───────────┐
//! │ magic (8B) │ version u32 │ sections …                   │ crc32 u32 │
//! └────────────┴─────────────┴──────────────────────────────┴───────────┘
//! section = [4-byte ASCII tag][u64 LE payload length][payload]
//! order   = META  BCFG  PARM  XTRA  SCAL  WGHT  TREP  FITR
//! ```
//!
//! | section | contents |
//! |---------|----------|
//! | `META`  | backbone kind, framework, numerics byte, loss kind, seed |
//! | `BCFG`  | the full [`BackboneConfig`] (architecture + penalty knobs) |
//! | `PARM`  | every parameter: name, shape, row-major `f64` data |
//! | `XTRA`  | non-parameter state (batch-norm running statistics) |
//! | `SCAL`  | covariate [`Scaler`] statistics + the outcome transform |
//! | `WGHT`  | final per-training-sample weights |
//! | `TREP`  | the [`TrainReport`] (val curve, timings, weight stats) |
//! | `FITR`  | the [`FitReport`] (recovery policy + events, watchdog) |
//!
//! Loading rebuilds the architecture from `BCFG` with the *same* seeded RNG
//! the fit used (`seed ^ INIT_SEED_SALT`), then overwrites every parameter —
//! so a loaded model is structurally identical to the fitted one and
//! [`FittedModel::predict`] is **bit-identical** across the round trip.
//!
//! Every failure mode is a typed [`PersistError`] (surfaced as
//! [`SbrlError::Persist`]); the reader never panics and never trusts a
//! length field before bounds-checking it against the remaining bytes.
//! Integrity is belt-and-braces: a trailing CRC-32 over the whole prefix
//! rejects random corruption before section parsing even starts, and the
//! section parsers re-validate structure for crafted inputs that keep the
//! checksum valid.
//!
//! **Version policy** (see `docs/SERVING.md`): the writer always emits
//! [`FORMAT_VERSION`]; the reader accepts [`MIN_SUPPORTED_VERSION`]`..=`
//! [`FORMAT_VERSION`]. Version 1 artifacts lack the `FITR` section and load
//! with a default (empty) [`FitReport`]. Newer-than-supported versions are
//! rejected with [`PersistError::UnsupportedVersion`] — never best-effort
//! parsed.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use sbrl_data::Scaler;
use sbrl_models::{Backbone, BackboneConfig, BackboneKind, CfrConfig, DerCfrConfig, TarnetConfig};
use sbrl_nn::OutcomeLoss;
use sbrl_stats::IpmKind;
use sbrl_tensor::rng::rng_from_seed;

pub use crate::codec::crc32;
use crate::codec::{
    put_f64, put_f64s, put_str, put_u32, put_u64, put_u8, put_usize, CodecError, Prefix, Reader,
};
use crate::config::Framework;
use crate::error::{NonFiniteTerm, SbrlError};
use crate::estimator::INIT_SEED_SALT;
use crate::recovery::{FitReport, RecoveryEvent, RecoveryPolicy};
use crate::trainer::{FittedModel, TrainReport};

/// File magic, PNG-style: a high-bit byte (catches 7-bit transports), the
/// format name, a CR/LF pair (catches newline translation), and a DOS EOF.
pub const MAGIC: [u8; 8] = [0x89, b'S', b'B', b'R', b'L', b'\r', b'\n', 0x1a];

/// The format version this build writes.
pub const FORMAT_VERSION: u32 = 2;

/// The oldest format version this build still reads.
pub const MIN_SUPPORTED_VERSION: u32 = 1;

/// The artifact file extension (without the dot).
pub const EXTENSION: &str = "sbrl";

/// Plausibility cap on architecture dimensions decoded from `BCFG`. A
/// crafted artifact with a valid checksum must not be able to trigger a
/// multi-gigabyte allocation before parameter data is even read.
const MAX_DIM: usize = 1 << 20;

/// Plausibility cap on layer counts decoded from `BCFG`.
const MAX_LAYERS: usize = 1 << 10;

/// Typed failure of `.sbrl` reading, writing or registry assembly.
///
/// Surfaced to callers as [`SbrlError::Persist`].
#[derive(Clone, Debug, PartialEq)]
pub enum PersistError {
    /// The underlying filesystem operation failed.
    Io {
        /// Path being read or written.
        path: PathBuf,
        /// Stringified OS error.
        message: String,
    },
    /// The first 8 bytes are not the `.sbrl` magic — not an artifact.
    BadMagic {
        /// The bytes actually found (zero-padded when the file is shorter).
        found: [u8; 8],
    },
    /// The artifact's format version is outside the supported window.
    UnsupportedVersion {
        /// Version stored in the artifact.
        found: u32,
        /// Oldest version this build reads ([`MIN_SUPPORTED_VERSION`]).
        min: u32,
        /// Newest version this build reads ([`FORMAT_VERSION`]).
        max: u32,
    },
    /// The artifact ends before a declared structure is complete.
    Truncated {
        /// Section (or header region) being parsed when bytes ran out.
        section: &'static str,
        /// Bytes the structure still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing CRC-32 does not match the stored bytes.
    ChecksumMismatch {
        /// Checksum stored in the artifact's trailer.
        stored: u32,
        /// Checksum computed over the artifact's bytes.
        computed: u32,
    },
    /// A structure decoded but its contents are invalid (unknown enum byte,
    /// non-UTF-8 name, invalid statistics, trailing bytes, …).
    Malformed {
        /// What was malformed, spelled out.
        what: String,
    },
    /// Two sections of the artifact disagree with each other (e.g. the
    /// `META` backbone kind vs the `BCFG` architecture, or stored parameter
    /// names/shapes vs the architecture they claim to belong to).
    ProvenanceConflict {
        /// The disagreement, spelled out.
        what: String,
    },
    /// Two artifacts in one registry resolve to the same method name.
    DuplicateModel {
        /// The clashing method name.
        name: String,
        /// Path of the artifact that clashed (empty for in-memory inserts).
        path: PathBuf,
    },
    /// A requested method name is not in the registry.
    UnknownModel {
        /// The requested name.
        name: String,
        /// Names the registry does hold.
        known: Vec<String>,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io { path, message } => {
                write!(f, "io error at {}: {message}", path.display())
            }
            PersistError::BadMagic { found } => {
                write!(f, "bad magic {found:02x?}: not an .sbrl model artifact")
            }
            PersistError::UnsupportedVersion { found, min, max } => {
                write!(
                    f,
                    "unsupported .sbrl format version {found} \
                     (this build reads {min}..={max})"
                )
            }
            PersistError::Truncated { section, needed, available } => {
                write!(
                    f,
                    "truncated artifact in {section}: needed {needed} more \
                     bytes, only {available} available"
                )
            }
            PersistError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: artifact stores {stored:#010x} but its \
                     bytes hash to {computed:#010x}"
                )
            }
            PersistError::Malformed { what } => write!(f, "malformed artifact: {what}"),
            PersistError::ProvenanceConflict { what } => {
                write!(f, "provenance conflict: {what}")
            }
            PersistError::DuplicateModel { name, path } => {
                write!(f, "duplicate model '{name}' in registry (from {})", path.display())
            }
            PersistError::UnknownModel { name, known } => {
                write!(f, "unknown model '{name}' (registry has: {})", known.join(", "))
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated { what, needed, available } => {
                PersistError::Truncated { section: what, needed, available }
            }
            CodecError::Malformed(what) => PersistError::Malformed { what },
        }
    }
}

// ---------------------------------------------------------------------------
// Enum byte codecs
// ---------------------------------------------------------------------------

fn malformed(what: impl Into<String>) -> PersistError {
    PersistError::Malformed { what: what.into() }
}

fn conflict(what: impl Into<String>) -> PersistError {
    PersistError::ProvenanceConflict { what: what.into() }
}

fn kind_byte(k: BackboneKind) -> u8 {
    match k {
        BackboneKind::Tarnet => 0,
        BackboneKind::Cfr => 1,
        BackboneKind::DerCfr => 2,
    }
}

fn kind_from_byte(b: u8) -> Result<BackboneKind, PersistError> {
    match b {
        0 => Ok(BackboneKind::Tarnet),
        1 => Ok(BackboneKind::Cfr),
        2 => Ok(BackboneKind::DerCfr),
        _ => Err(malformed(format!("unknown backbone kind byte {b}"))),
    }
}

fn framework_byte(fw: Framework) -> u8 {
    match fw {
        Framework::Vanilla => 0,
        Framework::Sbrl => 1,
        Framework::SbrlHap => 2,
    }
}

fn framework_from_byte(b: u8) -> Result<Framework, PersistError> {
    match b {
        0 => Ok(Framework::Vanilla),
        1 => Ok(Framework::Sbrl),
        2 => Ok(Framework::SbrlHap),
        _ => Err(malformed(format!("unknown framework byte {b}"))),
    }
}

/// The `META` numerics byte the writer stores: `0`, bit-exact arithmetic,
/// the only one there is.
const NUMERICS_BYTE: u8 = 0;

/// Checks a `META` numerics byte. `1` is what a retired FMA tier wrote; such
/// a model's parameters are plain `f64`s, so it loads and predicts under the
/// one arithmetic like any other.
fn check_numerics_byte(b: u8) -> Result<(), PersistError> {
    match b {
        0 | 1 => Ok(()),
        _ => Err(malformed(format!("unknown numerics mode byte {b}"))),
    }
}

fn loss_byte(l: OutcomeLoss) -> u8 {
    match l {
        OutcomeLoss::Mse => 0,
        OutcomeLoss::BceWithLogits => 1,
    }
}

fn loss_from_byte(b: u8) -> Result<OutcomeLoss, PersistError> {
    match b {
        0 => Ok(OutcomeLoss::Mse),
        1 => Ok(OutcomeLoss::BceWithLogits),
        _ => Err(malformed(format!("unknown outcome loss byte {b}"))),
    }
}

fn term_byte(t: NonFiniteTerm) -> u8 {
    match t {
        NonFiniteTerm::FactualLoss => 0,
        NonFiniteTerm::Regularizer => 1,
        NonFiniteTerm::WeightObjective => 2,
        NonFiniteTerm::Gradient => 3,
    }
}

fn term_from_byte(b: u8) -> Result<NonFiniteTerm, PersistError> {
    match b {
        0 => Ok(NonFiniteTerm::FactualLoss),
        1 => Ok(NonFiniteTerm::Regularizer),
        2 => Ok(NonFiniteTerm::WeightObjective),
        3 => Ok(NonFiniteTerm::Gradient),
        _ => Err(malformed(format!("unknown non-finite term byte {b}"))),
    }
}

fn bool_from_byte(b: u8, what: &str) -> Result<bool, PersistError> {
    match b {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(malformed(format!("{what}: boolean byte must be 0 or 1, got {b}"))),
    }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn encode_section(out: &mut Vec<u8>, tag: &[u8; 4], payload: &[u8]) {
    out.extend_from_slice(tag);
    put_usize(out, payload.len());
    out.extend_from_slice(payload);
}

/// Writes a `u64`-prefixed string, which holds any length: cannot fail.
fn encode_str(buf: &mut Vec<u8>, s: &str) {
    let _ = put_str(buf, Prefix::U64, s);
}

fn encode_ipm(buf: &mut Vec<u8>, ipm: IpmKind) {
    match ipm {
        IpmKind::MmdLin => put_u8(buf, 0),
        IpmKind::MmdRbf { sigma } => {
            put_u8(buf, 1);
            put_f64(buf, sigma);
        }
        IpmKind::Wasserstein { lambda, iterations } => {
            put_u8(buf, 2);
            put_f64(buf, lambda);
            put_usize(buf, iterations);
        }
    }
}

fn encode_arch(buf: &mut Vec<u8>, arch: &TarnetConfig) {
    put_usize(buf, arch.in_dim);
    put_usize(buf, arch.rep_layers);
    put_usize(buf, arch.rep_width);
    put_usize(buf, arch.head_layers);
    put_usize(buf, arch.head_width);
    put_u8(buf, u8::from(arch.batch_norm));
    put_u8(buf, u8::from(arch.rep_normalization));
}

fn encode_backbone_config(buf: &mut Vec<u8>, cfg: &BackboneConfig) {
    match cfg {
        BackboneConfig::Tarnet(c) => {
            put_u8(buf, 0);
            encode_arch(buf, c);
        }
        BackboneConfig::Cfr(c) => {
            put_u8(buf, 1);
            encode_arch(buf, &c.arch);
            put_f64(buf, c.alpha);
            encode_ipm(buf, c.ipm);
        }
        BackboneConfig::DerCfr(c) => {
            put_u8(buf, 2);
            encode_arch(buf, &c.arch);
            put_f64(buf, c.alpha);
            put_f64(buf, c.beta);
            put_f64(buf, c.gamma);
            put_f64(buf, c.mu);
            encode_ipm(buf, c.ipm);
        }
    }
}

fn encode<B: Backbone>(m: &FittedModel<B>, version: u32) -> Vec<u8> {
    let config = m.model().export_config();

    let mut meta = Vec::new();
    put_u8(&mut meta, kind_byte(config.kind()));
    put_u8(&mut meta, framework_byte(m.framework()));
    put_u8(&mut meta, NUMERICS_BYTE);
    put_u8(&mut meta, loss_byte(m.loss_kind()));
    put_u64(&mut meta, m.seed());

    let mut bcfg = Vec::new();
    encode_backbone_config(&mut bcfg, &config);

    let mut parm = Vec::new();
    put_usize(&mut parm, m.model().store().len());
    for (_, name, value) in m.model().store().iter() {
        encode_str(&mut parm, name);
        let (rows, cols) = value.shape();
        put_usize(&mut parm, rows);
        put_usize(&mut parm, cols);
        put_f64s(&mut parm, value.as_slice());
    }

    let extra = m.model().export_extra_state();
    let mut xtra = Vec::new();
    put_usize(&mut xtra, extra.len());
    for (name, values) in &extra {
        encode_str(&mut xtra, name);
        put_usize(&mut xtra, values.len());
        put_f64s(&mut xtra, values);
    }

    let mut scal = Vec::new();
    match m.scaler() {
        Some(s) => {
            put_u8(&mut scal, 1);
            put_usize(&mut scal, s.means().len());
            put_f64s(&mut scal, s.means());
            put_f64s(&mut scal, s.stds());
        }
        None => put_u8(&mut scal, 0),
    }
    let (y_shift, y_scale) = m.y_transform();
    put_f64(&mut scal, y_shift);
    put_f64(&mut scal, y_scale);

    let mut wght = Vec::new();
    put_usize(&mut wght, m.weights().len());
    put_f64s(&mut wght, m.weights());

    let report = m.report();
    let mut trep = Vec::new();
    put_usize(&mut trep, report.iterations_run);
    put_f64(&mut trep, report.best_val_loss);
    put_usize(&mut trep, report.best_iteration);
    put_f64(&mut trep, report.train_seconds);
    let (w_min, w_mean, w_max) = report.weight_stats;
    put_f64(&mut trep, w_min);
    put_f64(&mut trep, w_mean);
    put_f64(&mut trep, w_max);
    put_usize(&mut trep, report.val_curve.len());
    for &(iter, loss) in &report.val_curve {
        put_usize(&mut trep, iter);
        put_f64(&mut trep, loss);
    }

    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, version);
    encode_section(&mut out, b"META", &meta);
    encode_section(&mut out, b"BCFG", &bcfg);
    encode_section(&mut out, b"PARM", &parm);
    encode_section(&mut out, b"XTRA", &xtra);
    encode_section(&mut out, b"SCAL", &scal);
    encode_section(&mut out, b"WGHT", &wght);

    if version >= 2 {
        let fit = m.fit_report();
        let mut fitr = Vec::new();
        put_usize(&mut fitr, fit.policy.max_retries);
        put_f64(&mut fitr, fit.policy.lr_backoff);
        put_f64(&mut fitr, fit.policy.grad_clip_escalation);
        match fit.time_budget {
            Some(budget) => {
                put_u8(&mut fitr, 1);
                put_u64(&mut fitr, budget.as_secs());
                put_u32(&mut fitr, budget.subsec_nanos());
            }
            None => put_u8(&mut fitr, 0),
        }
        put_usize(&mut fitr, fit.recoveries.len());
        for ev in &fit.recoveries {
            put_usize(&mut fitr, ev.iteration);
            put_u8(&mut fitr, term_byte(ev.term));
            put_usize(&mut fitr, ev.retry);
            put_usize(&mut fitr, ev.rolled_back_to);
            put_f64(&mut fitr, ev.lr);
            put_f64(&mut fitr, ev.clip_norm);
        }
        encode_section(&mut out, b"TREP", &trep);
        encode_section(&mut out, b"FITR", &fitr);
    } else {
        encode_section(&mut out, b"TREP", &trep);
    }

    let checksum = crc32(&out);
    put_u32(&mut out, checksum);
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Reads the `[tag][u64 len]` frame of the next section, validates the tag,
/// and returns a reader confined to exactly that payload.
fn open_section<'a>(
    body: &mut Reader<'a>,
    tag: &[u8; 4],
    name: &'static str,
) -> Result<Reader<'a>, PersistError> {
    let found = body.take(4)?;
    if found != tag {
        return Err(malformed(format!("expected section {name}, found tag {found:02x?}")));
    }
    let len = body.count(Prefix::U64, 1)?;
    Ok(Reader::new(body.take(len)?, name))
}

fn decode_ipm(r: &mut Reader<'_>) -> Result<IpmKind, PersistError> {
    match r.u8()? {
        0 => Ok(IpmKind::MmdLin),
        1 => Ok(IpmKind::MmdRbf { sigma: r.f64()? }),
        2 => {
            let lambda = r.f64()?;
            let iterations = r.usize()?;
            Ok(IpmKind::Wasserstein { lambda, iterations })
        }
        b => Err(malformed(format!("unknown IPM kind byte {b}"))),
    }
}

fn decode_arch(r: &mut Reader<'_>) -> Result<TarnetConfig, PersistError> {
    let dims = [r.u64()?, r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let mut it = dims.iter().map(|&v| usize::try_from(v).unwrap_or(usize::MAX));
    let mut next_dim = |what: &str, cap: usize| -> Result<usize, PersistError> {
        let v = it.next().unwrap_or(usize::MAX);
        if v > cap {
            return Err(malformed(format!("architecture {what} = {v} exceeds cap {cap}")));
        }
        Ok(v)
    };
    let in_dim = next_dim("in_dim", MAX_DIM)?;
    let rep_layers = next_dim("rep_layers", MAX_LAYERS)?;
    let rep_width = next_dim("rep_width", MAX_DIM)?;
    let head_layers = next_dim("head_layers", MAX_LAYERS)?;
    let head_width = next_dim("head_width", MAX_DIM)?;
    if in_dim == 0 {
        return Err(malformed("architecture in_dim must be at least 1"));
    }
    let batch_norm = bool_from_byte(r.u8()?, "arch.batch_norm")?;
    let rep_normalization = bool_from_byte(r.u8()?, "arch.rep_normalization")?;
    Ok(TarnetConfig {
        in_dim,
        rep_layers,
        rep_width,
        head_layers,
        head_width,
        batch_norm,
        rep_normalization,
    })
}

fn decode_backbone_config(r: &mut Reader<'_>) -> Result<BackboneConfig, PersistError> {
    match r.u8()? {
        0 => Ok(BackboneConfig::Tarnet(decode_arch(r)?)),
        1 => {
            let arch = decode_arch(r)?;
            let alpha = r.f64()?;
            let ipm = decode_ipm(r)?;
            Ok(BackboneConfig::Cfr(CfrConfig { arch, alpha, ipm }))
        }
        2 => {
            let arch = decode_arch(r)?;
            let alpha = r.f64()?;
            let beta = r.f64()?;
            let gamma = r.f64()?;
            let mu = r.f64()?;
            let ipm = decode_ipm(r)?;
            Ok(BackboneConfig::DerCfr(DerCfrConfig { arch, alpha, beta, gamma, mu, ipm }))
        }
        b => Err(malformed(format!("unknown backbone config byte {b}"))),
    }
}

/// The fewest `PARM` bytes that can hold the parameters of the architecture
/// `config` builds: the `u64` tensor count, then per tensor a `u64` name
/// length, `u64` rows and cols, and 8 bytes per scalar (the names' own bytes
/// are not counted). `None` when the count overflows `usize`.
fn min_parm_bytes(config: &BackboneConfig) -> Option<usize> {
    // A dense layer `a -> b`: a weight and a bias tensor, `a*b + b` scalars.
    let dense = |a: usize, b: usize| -> Option<usize> {
        a.checked_mul(b)?.checked_add(b)?.checked_mul(8)?.checked_add(2 * 24)
    };
    // `layers.max(1)` dense layers of `width` outputs after an `input`.
    let stack = |input: usize, width: usize, layers: usize| -> Option<usize> {
        dense(width, width)?.checked_mul(layers.max(1) - 1)?.checked_add(dense(input, width)?)
    };
    let (arch, reps, head_in) = match config {
        BackboneConfig::Tarnet(arch) => (arch, 1, arch.rep_width),
        BackboneConfig::Cfr(c) => (&c.arch, 1, c.arch.rep_width),
        BackboneConfig::DerCfr(c) => (&c.arch, 3, c.arch.rep_width.checked_mul(2)?),
    };
    // A head: `layers` hidden layers of `head_width`, then one output.
    let head = |layers: usize| -> Option<usize> {
        stack(head_in, arch.head_width, layers)?.checked_add(dense(arch.head_width, 1)?)
    };
    let batch_norm =
        if arch.batch_norm { arch.in_dim.checked_mul(16)?.checked_add(2 * 24)? } else { 0 };
    // DeR-CFR's treatment head is a one-hidden-layer head on `[I | C]`.
    let treatment_head = if reps == 3 { head(1)? } else { 0 };
    stack(arch.in_dim, arch.rep_width, arch.rep_layers)?
        .checked_mul(reps)?
        .checked_add(head(arch.head_layers)?.checked_mul(2)?)?
        .checked_add(treatment_head)?
        .checked_add(batch_norm)?
        .checked_add(8)
}

fn decode(bytes: &[u8]) -> Result<FittedModel<Box<dyn Backbone>>, PersistError> {
    // --- Magic -------------------------------------------------------------
    let head = bytes.get(..8).unwrap_or(bytes);
    if head != MAGIC {
        let mut found = [0u8; 8];
        for (dst, src) in found.iter_mut().zip(head.iter()) {
            *dst = *src;
        }
        return Err(PersistError::BadMagic { found });
    }

    // --- Version gate ------------------------------------------------------
    let mut header = Reader::new(bytes, "header");
    header.take(MAGIC.len())?;
    let version = header.u32()?;
    if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
        return Err(PersistError::UnsupportedVersion {
            found: version,
            min: MIN_SUPPORTED_VERSION,
            max: FORMAT_VERSION,
        });
    }

    // --- Checksum: reject random corruption before parsing anything --------
    // The trailer is the last 4 bytes; the 12 header bytes precede it.
    let mut framed = Reader::new(bytes, "checksum trailer");
    let signed = framed.take(bytes.len().saturating_sub(4).max(12))?;
    let stored = framed.u32()?;
    let computed = crc32(signed);
    if stored != computed {
        return Err(PersistError::ChecksumMismatch { stored, computed });
    }

    let mut body = Reader::new(signed.get(12..).unwrap_or_default(), "body");

    // --- META --------------------------------------------------------------
    let mut meta = open_section(&mut body, b"META", "META")?;
    let meta_kind = kind_from_byte(meta.u8()?)?;
    let framework = framework_from_byte(meta.u8()?)?;
    check_numerics_byte(meta.u8()?)?;
    let loss_kind = loss_from_byte(meta.u8()?)?;
    let seed = meta.u64()?;
    meta.finish()?;

    // --- BCFG + provenance cross-check -------------------------------------
    let mut bcfg = open_section(&mut body, b"BCFG", "BCFG")?;
    let config = decode_backbone_config(&mut bcfg)?;
    bcfg.finish()?;
    if config.kind() != meta_kind {
        return Err(conflict(format!(
            "META says backbone {} but BCFG holds a {} configuration",
            meta_kind.name(),
            config.kind().name()
        )));
    }

    // --- PARM --------------------------------------------------------------
    // `BCFG`'s dimensions are only capped, so a short artifact can describe
    // a huge model: size it against `PARM` before building it.
    let mut parm = open_section(&mut body, b"PARM", "PARM")?;
    let available = parm.remaining();
    let needed = min_parm_bytes(&config)
        .ok_or_else(|| malformed("the BCFG architecture's parameter count overflows"))?;
    if needed > available {
        return Err(PersistError::Truncated { section: "PARM", needed, available });
    }

    // Rebuild the architecture with the fit's own init RNG, then overwrite
    // every parameter below — shapes and names must line up exactly.
    let mut init_rng = rng_from_seed(seed ^ INIT_SEED_SALT);
    let mut model = config.build(&mut init_rng);

    let expected: Vec<(sbrl_nn::ParamHandle, String, (usize, usize))> =
        model.store().iter().map(|(h, name, value)| (h, name.to_string(), value.shape())).collect();
    let stored_params = parm.count(Prefix::U64, 8)?;
    if stored_params != expected.len() {
        return Err(conflict(format!(
            "artifact stores {stored_params} parameters but the rebuilt {} \
             architecture has {}",
            config.kind().name(),
            expected.len()
        )));
    }
    for (handle, exp_name, (exp_rows, exp_cols)) in expected {
        let name = parm.string(Prefix::U64)?;
        let rows = parm.count(Prefix::U64, 1)?;
        let cols = parm.count(Prefix::U64, 1)?;
        if name != exp_name || rows != exp_rows || cols != exp_cols {
            return Err(conflict(format!(
                "parameter mismatch: artifact has '{name}' ({rows}x{cols}), \
                 rebuilt architecture expects '{exp_name}' ({exp_rows}x{exp_cols})"
            )));
        }
        let scalars = rows.checked_mul(cols).ok_or_else(|| {
            malformed(format!("parameter '{name}' shape {rows}x{cols} overflows"))
        })?;
        let data = parm.f64s(scalars)?;
        model.store_mut().get_mut(handle).as_mut_slice().copy_from_slice(&data);
    }
    parm.finish()?;

    // --- XTRA --------------------------------------------------------------
    let mut xtra = open_section(&mut body, b"XTRA", "XTRA")?;
    let extra_entries = xtra.count(Prefix::U64, 16)?;
    let mut extra: Vec<(String, Vec<f64>)> = Vec::with_capacity(extra_entries);
    for _ in 0..extra_entries {
        let name = xtra.string(Prefix::U64)?;
        let values_len = xtra.count(Prefix::U64, 8)?;
        let values = xtra.f64s(values_len)?;
        extra.push((name, values));
    }
    xtra.finish()?;
    model.import_extra_state(&extra).map_err(conflict)?;

    // --- SCAL --------------------------------------------------------------
    let mut scal = open_section(&mut body, b"SCAL", "SCAL")?;
    let scaler = match scal.u8()? {
        0 => None,
        1 => {
            let dim = scal.count(Prefix::U64, 16)?;
            let means = scal.f64s(dim)?;
            let stds = scal.f64s(dim)?;
            Some(Scaler::from_stats(means, stds).ok_or_else(|| {
                malformed(
                    "scaler statistics invalid: means/stds must be non-empty, \
                     equal-length, finite, with strictly positive stds",
                )
            })?)
        }
        b => return Err(malformed(format!("SCAL presence byte must be 0 or 1, got {b}"))),
    };
    let y_shift = scal.f64()?;
    let y_scale = scal.f64()?;
    scal.finish()?;
    if !y_shift.is_finite() || !y_scale.is_finite() || y_scale == 0.0 {
        return Err(malformed(format!(
            "outcome transform must be finite with a non-zero scale, \
             got shift {y_shift}, scale {y_scale}"
        )));
    }
    if let Some(s) = &scaler {
        if s.means().len() != config.in_dim() {
            return Err(conflict(format!(
                "scaler covers {} columns but the architecture expects {}",
                s.means().len(),
                config.in_dim()
            )));
        }
    }

    // --- WGHT --------------------------------------------------------------
    let mut wght = open_section(&mut body, b"WGHT", "WGHT")?;
    let n_weights = wght.count(Prefix::U64, 8)?;
    let weights = wght.f64s(n_weights)?;
    wght.finish()?;

    // --- TREP --------------------------------------------------------------
    let mut trep = open_section(&mut body, b"TREP", "TREP")?;
    let iterations_run = trep.usize()?;
    let best_val_loss = trep.f64()?;
    let best_iteration = trep.usize()?;
    let train_seconds = trep.f64()?;
    let weight_stats = (trep.f64()?, trep.f64()?, trep.f64()?);
    let curve_len = trep.count(Prefix::U64, 16)?;
    let mut val_curve = Vec::with_capacity(curve_len);
    for _ in 0..curve_len {
        let iter = trep.usize()?;
        let loss = trep.f64()?;
        val_curve.push((iter, loss));
    }
    trep.finish()?;
    let report = TrainReport {
        iterations_run,
        best_val_loss,
        best_iteration,
        train_seconds,
        weight_stats,
        val_curve,
    };

    // --- FITR (format version 2+) -------------------------------------------
    let fit_report = if version >= 2 {
        let mut fitr = open_section(&mut body, b"FITR", "FITR")?;
        let max_retries = fitr.usize()?;
        let lr_backoff = fitr.f64()?;
        let grad_clip_escalation = fitr.f64()?;
        let policy = RecoveryPolicy { max_retries, lr_backoff, grad_clip_escalation };
        let time_budget = match fitr.u8()? {
            0 => None,
            1 => {
                let secs = fitr.u64()?;
                let nanos = fitr.u32()?;
                if nanos >= 1_000_000_000 {
                    return Err(malformed(format!(
                        "time budget subsecond nanos {nanos} out of range"
                    )));
                }
                Some(Duration::new(secs, nanos))
            }
            b => {
                return Err(malformed(format!(
                    "FITR time-budget presence byte must be 0 or 1, got {b}"
                )))
            }
        };
        let n_events = fitr.count(Prefix::U64, 41)?;
        let mut recoveries = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            let iteration = fitr.usize()?;
            let term = term_from_byte(fitr.u8()?)?;
            let retry = fitr.usize()?;
            let rolled_back_to = fitr.usize()?;
            let lr = fitr.f64()?;
            let clip_norm = fitr.f64()?;
            recoveries.push(RecoveryEvent {
                iteration,
                term,
                retry,
                rolled_back_to,
                lr,
                clip_norm,
            });
        }
        fitr.finish()?;
        FitReport { recoveries, policy, time_budget }
    } else {
        // Version 1 predates fault-tolerance provenance: a default (empty)
        // report, exactly what a clean default-policy fit carries.
        FitReport::default()
    };

    body.finish()?;

    Ok(FittedModel {
        model,
        scaler,
        loss_kind,
        y_transform: (y_shift, y_scale),
        weights,
        report,
        fit_report,
        framework,
        seed,
    })
}

// ---------------------------------------------------------------------------
// FittedModel entry points
// ---------------------------------------------------------------------------

impl<B: Backbone> FittedModel<B> {
    /// Serialises this model to `.sbrl` bytes at the current
    /// [`FORMAT_VERSION`].
    pub fn to_sbrl_bytes(&self) -> Vec<u8> {
        encode(self, FORMAT_VERSION)
    }

    /// Serialises at an explicit historical format version — exists solely
    /// so `serve make-fixtures` can regenerate the committed version-skew
    /// fixtures. Versions outside the supported window are clamped into it.
    #[doc(hidden)]
    pub fn to_sbrl_bytes_versioned(&self, version: u32) -> Vec<u8> {
        encode(self, version.clamp(MIN_SUPPORTED_VERSION, FORMAT_VERSION))
    }

    /// Writes this model to `path` as an `.sbrl` artifact.
    pub fn save(&self, path: &Path) -> Result<(), SbrlError> {
        fs::write(path, self.to_sbrl_bytes()).map_err(|e| {
            SbrlError::Persist(PersistError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            })
        })
    }

    /// The covariate scaler fitted on the training fold. Every fit sets
    /// one; `None` only for a model loaded from a file whose `SCAL` section
    /// carries none, which the format still admits.
    pub fn scaler(&self) -> Option<&Scaler> {
        self.scaler.as_ref()
    }

    /// The outcome transform `(shift, scale)`: training used
    /// `(y - shift) / scale` and prediction inverts it.
    pub fn y_transform(&self) -> (f64, f64) {
        self.y_transform
    }
}

impl FittedModel<Box<dyn Backbone>> {
    /// Deserialises a model from `.sbrl` bytes, validating magic, version,
    /// checksum, section structure and cross-section provenance; every
    /// failure mode is a typed [`SbrlError::Persist`].
    pub fn from_sbrl_bytes(bytes: &[u8]) -> Result<Self, SbrlError> {
        decode(bytes).map_err(SbrlError::Persist)
    }

    /// Reads an `.sbrl` artifact from disk. See
    /// [`from_sbrl_bytes`](Self::from_sbrl_bytes) for the validation
    /// pipeline.
    pub fn load(path: &Path) -> Result<Self, SbrlError> {
        let bytes = fs::read(path).map_err(|e| {
            SbrlError::Persist(PersistError::Io {
                path: path.to_path_buf(),
                message: e.to_string(),
            })
        })?;
        Self::from_sbrl_bytes(&bytes)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// A set of loaded models keyed by their method name (the PR 2 grid
/// registry's labels: `"CFR+SBRL-HAP"`, `"TARNet"`, …), assembled fail-fast:
/// one corrupt or duplicate-named artifact rejects the whole directory, so a
/// serving process can never come up with a partial registry.
pub struct ModelRegistry {
    entries: Vec<(String, FittedModel<Box<dyn Backbone>>)>,
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry { entries: Vec::new() }
    }

    /// Loads every `*.sbrl` artifact in `dir` (sorted by file name for a
    /// deterministic registry order), failing on the first unreadable,
    /// corrupt, or duplicate-named artifact.
    pub fn load_dir(dir: &Path) -> Result<Self, SbrlError> {
        let io_err = |e: std::io::Error| {
            SbrlError::Persist(PersistError::Io { path: dir.to_path_buf(), message: e.to_string() })
        };
        let mut paths: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(dir).map_err(io_err)? {
            let path = entry.map_err(io_err)?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXTENSION) {
                paths.push(path);
            }
        }
        paths.sort();
        let mut registry = ModelRegistry::new();
        for path in paths {
            let model = FittedModel::load(&path)?;
            registry.insert_from(model, path)?;
        }
        Ok(registry)
    }

    /// Inserts an in-memory model under its method name, rejecting
    /// duplicates (names are compared case-insensitively, matching
    /// [`get`](Self::get)).
    pub fn insert(&mut self, model: FittedModel<Box<dyn Backbone>>) -> Result<(), SbrlError> {
        self.insert_from(model, PathBuf::new())
    }

    fn insert_from(
        &mut self,
        model: FittedModel<Box<dyn Backbone>>,
        path: PathBuf,
    ) -> Result<(), SbrlError> {
        let name = model.method_spec().name();
        if self.entries.iter().any(|(n, _)| n.eq_ignore_ascii_case(&name)) {
            return Err(SbrlError::Persist(PersistError::DuplicateModel { name, path }));
        }
        self.entries.push((name, model));
        Ok(())
    }

    /// Looks a model up by method name, case-insensitively.
    pub fn get(&self, name: &str) -> Option<&FittedModel<Box<dyn Backbone>>> {
        self.entries.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, m)| m)
    }

    /// Like [`get`](Self::get) but a typed
    /// [`UnknownModel`](PersistError::UnknownModel) on a miss, naming the
    /// models the registry does hold.
    pub fn require(&self, name: &str) -> Result<&FittedModel<Box<dyn Backbone>>, SbrlError> {
        self.get(name).ok_or_else(|| {
            SbrlError::Persist(PersistError::UnknownModel {
                name: name.to_string(),
                known: self.names(),
            })
        })
    }

    /// Method names in registry order.
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no models are loaded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry").field("names", &self.names()).finish()
    }
}

// ---------------------------------------------------------------------------
// Fixture recipe (shared by `serve make-fixtures` and the golden tests)
// ---------------------------------------------------------------------------

/// The deterministic recipe behind the committed `tests/fixtures/` artifacts.
///
/// Both the `serve make-fixtures` generator and the golden-fixture tests
/// call these functions, so the recipe cannot silently drift between the
/// two; regenerating the committed bytes is a deliberate act (run
/// `serve make-fixtures` and review the diff).
#[doc(hidden)]
pub mod fixture {
    use sbrl_data::{CausalDataset, SyntheticConfig, SyntheticProcess};
    use sbrl_models::{Backbone, CfrConfig, TarnetConfig};
    use sbrl_tensor::Matrix;

    use crate::config::SbrlConfig;
    use crate::error::SbrlError;
    use crate::estimator::Estimator;
    use crate::trainer::{FittedModel, TrainConfig};

    /// Rows in the golden probe matrix.
    pub const PROBE_ROWS: usize = 8;

    /// The two synthetic folds every fixture model trains on.
    pub fn dataset() -> (CausalDataset, CausalDataset) {
        let cfg = SyntheticConfig {
            m_instrument: 2,
            m_confounder: 2,
            m_adjustment: 2,
            m_unstable: 1,
            pool_factor: 4,
            threshold_pool: 800,
        };
        let proc = SyntheticProcess::new(cfg, 7);
        (proc.generate(2.5, 160, 0), proc.generate(2.5, 80, 1))
    }

    /// The fixture architecture: tiny on purpose (the committed artifact
    /// stays a few kilobytes) with batch-norm enabled so the `XTRA`
    /// running-statistics section is exercised.
    pub fn arch(in_dim: usize) -> TarnetConfig {
        TarnetConfig {
            in_dim,
            rep_layers: 1,
            rep_width: 8,
            head_layers: 1,
            head_width: 4,
            batch_norm: true,
            rep_normalization: false,
        }
    }

    /// The training budget shared by every fixture fit.
    fn budget(seed: u64) -> TrainConfig {
        TrainConfig { iterations: 40, eval_every: 10, seed, ..TrainConfig::smoke() }
    }

    /// The golden model: `CFR+SBRL-HAP` on the fixture dataset, bit-exact.
    pub fn train_golden() -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
        let (train, val) = dataset();
        Estimator::builder()
            .backbone(CfrConfig { arch: arch(train.dim()), ..CfrConfig::small(train.dim()) })
            .sbrl(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01))
            .train(budget(11))
            .fit(&train, &val)
            .map(without_wall_clock)
    }

    /// The registry's second model: a vanilla `TARNet` on the same data, so
    /// the fixture registry holds two *distinct* method names.
    pub fn train_second() -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
        let (train, val) = dataset();
        Estimator::builder()
            .backbone(arch(train.dim()))
            .train(budget(13))
            .fit(&train, &val)
            .map(without_wall_clock)
    }

    /// Zeroes the fit's wall-clock `train_seconds`, the one field of a
    /// fixture that differs between two runs of the same recipe, so a
    /// regenerated fixture is byte-identical to the committed one.
    fn without_wall_clock(
        mut fitted: FittedModel<Box<dyn Backbone>>,
    ) -> FittedModel<Box<dyn Backbone>> {
        fitted.report.train_seconds = 0.0;
        fitted
    }

    /// The deterministic probe matrix the golden prediction bits are pinned
    /// on: a fixed integer lattice mapped into roughly `[-1, 1]` — no RNG,
    /// so the probe can never drift with an RNG implementation change.
    pub fn probe_matrix(in_dim: usize) -> Matrix {
        let mut data = Vec::with_capacity(PROBE_ROWS * in_dim);
        for row in 0..PROBE_ROWS {
            for col in 0..in_dim {
                let lattice = (row * 31 + col * 17 + 5) % 23;
                data.push(lattice as f64 / 11.0 - 1.0);
            }
        }
        Matrix::from_vec(PROBE_ROWS, in_dim, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `min_parm_bytes` counts exactly the tensors and scalars of the store
    /// each backbone builds, over depths 0, 1 and 3 and with and without
    /// batch normalisation.
    #[test]
    fn min_parm_bytes_matches_the_built_store() {
        for kind in BackboneKind::ALL {
            for (layers, batch_norm) in [(0, false), (1, true), (3, false), (3, true)] {
                let mut config = kind.small_config(5);
                let arch = match &mut config {
                    BackboneConfig::Tarnet(arch) => arch,
                    BackboneConfig::Cfr(c) => &mut c.arch,
                    BackboneConfig::DerCfr(c) => &mut c.arch,
                };
                arch.rep_layers = layers;
                arch.head_layers = 3 - layers.min(3);
                arch.batch_norm = batch_norm;
                let model = config.build(&mut rng_from_seed(0));
                let stored: usize =
                    8 + model.store().iter().map(|(_, _, m)| 24 + 8 * m.len()).sum::<usize>();
                let case = format!("{} layers={layers} batch_norm={batch_norm}", kind.name());
                assert_eq!(min_parm_bytes(&config), Some(stored), "{case}");
            }
        }
        let mut huge = BackboneKind::DerCfr.small_config(MAX_DIM);
        if let BackboneConfig::DerCfr(c) = &mut huge {
            (c.arch.rep_width, c.arch.rep_layers) = (MAX_DIM, MAX_LAYERS);
        }
        assert!(min_parm_bytes(&huge).is_some_and(|b| b > 1 << 50), "8 TiB and more, no overflow");
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The canonical CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn enum_bytes_round_trip() {
        for kind in BackboneKind::ALL {
            assert_eq!(kind_from_byte(kind_byte(kind)).unwrap(), kind);
        }
        for fw in Framework::ALL {
            assert_eq!(framework_from_byte(framework_byte(fw)).unwrap(), fw);
        }
        assert!(check_numerics_byte(NUMERICS_BYTE).is_ok());
        for loss in [OutcomeLoss::Mse, OutcomeLoss::BceWithLogits] {
            assert_eq!(loss_from_byte(loss_byte(loss)).unwrap(), loss);
        }
        for term in [
            NonFiniteTerm::FactualLoss,
            NonFiniteTerm::Regularizer,
            NonFiniteTerm::WeightObjective,
            NonFiniteTerm::Gradient,
        ] {
            assert_eq!(term_from_byte(term_byte(term)).unwrap(), term);
        }
        assert!(kind_from_byte(9).is_err());
        assert!(framework_from_byte(9).is_err());
        assert!(check_numerics_byte(9).is_err());
        assert!(loss_from_byte(9).is_err());
        assert!(term_from_byte(9).is_err());
    }

    #[test]
    fn reader_reports_truncation_with_counts() {
        let mut r = Reader::new(&[1, 2, 3], "unit");
        assert_eq!(r.take(2).unwrap(), &[1, 2]);
        let err = PersistError::from(r.take(5).unwrap_err());
        assert_eq!(err, PersistError::Truncated { section: "unit", needed: 5, available: 1 });
    }

    #[test]
    fn reader_count_guards_allocation_against_absurd_lengths() {
        // A 1 GiB element count inside an 8-byte buffer must become a typed
        // Truncated error before any allocation happens.
        let mut buf = Vec::new();
        put_u64(&mut buf, 1 << 30);
        let mut r = Reader::new(&buf, "unit");
        let err = PersistError::from(r.count(Prefix::U64, 8).unwrap_err());
        assert!(matches!(err, PersistError::Truncated { section: "unit", .. }));
    }

    #[test]
    fn ipm_kinds_round_trip_through_bytes() {
        for ipm in [
            IpmKind::MmdLin,
            IpmKind::MmdRbf { sigma: 1.5 },
            IpmKind::Wasserstein { lambda: 10.0, iterations: 10 },
        ] {
            let mut buf = Vec::new();
            encode_ipm(&mut buf, ipm);
            let mut r = Reader::new(&buf, "unit");
            assert_eq!(decode_ipm(&mut r).unwrap(), ipm);
            r.finish().unwrap();
        }
    }

    fn tiny_fitted() -> FittedModel<Box<dyn Backbone>> {
        let (train, val) = fixture::dataset();
        crate::estimator::Estimator::builder()
            .backbone(CfrConfig {
                arch: fixture::arch(train.dim()),
                ..CfrConfig::small(train.dim())
            })
            .method("CFR+SBRL-HAP".parse().expect("a grid method name"))
            .train(crate::trainer::TrainConfig {
                iterations: 25,
                eval_every: 10,
                seed: 3,
                ..crate::trainer::TrainConfig::smoke()
            })
            .fit(&train, &val)
            .expect("fixture fit")
    }

    #[test]
    fn round_trip_preserves_provenance_and_predictions() {
        let fitted = tiny_fitted();
        let bytes = fitted.to_sbrl_bytes();
        let loaded = FittedModel::from_sbrl_bytes(&bytes).expect("round trip");
        assert_eq!(loaded.seed(), fitted.seed());
        assert_eq!(loaded.framework(), fitted.framework());
        assert_eq!(loaded.loss_kind(), fitted.loss_kind());
        assert_eq!(loaded.weights(), fitted.weights());
        assert_eq!(loaded.fit_report(), fitted.fit_report());
        assert_eq!(loaded.report().val_curve, fitted.report().val_curve);
        assert_eq!(loaded.method_spec(), fitted.method_spec());

        let probe = fixture::probe_matrix(fixture::dataset().0.dim());
        let a = fitted.predict(&probe);
        let b = loaded.predict(&probe);
        let bits = |xs: &[f64]| xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.y0_hat), bits(&b.y0_hat), "y0 must be bit-identical");
        assert_eq!(bits(&a.y1_hat), bits(&b.y1_hat), "y1 must be bit-identical");
    }

    #[test]
    fn fit_report_with_recoveries_survives_the_round_trip() {
        let mut fitted = tiny_fitted();
        // Inject a synthetic recovery history: divergence is hard to provoke
        // on the tiny fixture surface, and the codec must not care how the
        // events came to be.
        fitted.fit_report = FitReport {
            recoveries: vec![
                RecoveryEvent {
                    iteration: 12,
                    term: NonFiniteTerm::Gradient,
                    retry: 1,
                    rolled_back_to: 10,
                    lr: 5e-4,
                    clip_norm: 2.5,
                },
                RecoveryEvent {
                    iteration: 19,
                    term: NonFiniteTerm::WeightObjective,
                    retry: 2,
                    rolled_back_to: 10,
                    lr: 2.5e-4,
                    clip_norm: 1.25,
                },
            ],
            policy: RecoveryPolicy { max_retries: 3, lr_backoff: 0.5, grad_clip_escalation: 0.5 },
            time_budget: Some(Duration::new(90, 250_000_000)),
        };
        let loaded = FittedModel::from_sbrl_bytes(&fitted.to_sbrl_bytes()).expect("round trip");
        assert_eq!(loaded.fit_report(), fitted.fit_report());
        assert!(loaded.fit_report().recovered());
    }

    #[test]
    fn version_1_bytes_load_with_a_default_fit_report() {
        let fitted = tiny_fitted();
        let v1 = fitted.to_sbrl_bytes_versioned(1);
        let loaded = FittedModel::from_sbrl_bytes(&v1).expect("v1 load");
        assert_eq!(loaded.fit_report(), &FitReport::default());
        // Everything else still round-trips.
        assert_eq!(loaded.seed(), fitted.seed());
        assert_eq!(loaded.weights(), fitted.weights());
    }

    #[test]
    fn future_versions_are_rejected_not_guessed() {
        let fitted = tiny_fitted();
        let mut bytes = fitted.to_sbrl_bytes();
        // Patch the version field to 99 and fix the checksum so only the
        // version gate can reject it.
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = FittedModel::from_sbrl_bytes(&bytes).unwrap_err();
        assert!(matches!(
            err,
            SbrlError::Persist(PersistError::UnsupportedVersion { found: 99, min: 1, max: 2 })
        ));
    }

    #[test]
    fn registry_rejects_duplicates_and_resolves_case_insensitively() {
        let mut registry = ModelRegistry::new();
        let fitted = tiny_fitted();
        let name = fitted.method_spec().name();
        registry.insert(fitted).expect("first insert");
        assert_eq!(registry.names(), vec![name.clone()]);
        assert!(registry.get(&name.to_lowercase()).is_some());
        assert!(registry.require("JUNK").is_err());

        let err = registry.insert(tiny_fitted()).unwrap_err();
        assert!(matches!(err, SbrlError::Persist(PersistError::DuplicateModel { .. })));
        // The failed insert did not corrupt the registry.
        assert_eq!(registry.len(), 1);
    }
}
