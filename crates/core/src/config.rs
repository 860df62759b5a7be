//! Framework configuration: which regularizers are active and with what
//! coefficients (Eq. 11).

use std::fmt;
use std::str::FromStr;

use sbrl_stats::{DecorrelationConfig, IpmKind};

use crate::error::{ParseError, SbrlError};

/// Which framework wraps the backbone (Sec. V-A's `Vanilla` / `+SBRL` /
/// `+SBRL-HAP` columns).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Framework {
    /// The backbone alone.
    Vanilla,
    /// Balancing + Independence Regularizers, last-layer decorrelation only.
    Sbrl,
    /// Full framework with the Hierarchical-Attention Paradigm.
    SbrlHap,
}

impl Framework {
    /// All frameworks, in the paper's column order.
    pub const ALL: [Framework; 3] = [Framework::Vanilla, Framework::Sbrl, Framework::SbrlHap];

    /// Table label used in results (`""`, `"+SBRL"`, `"+SBRL-HAP"`).
    pub fn suffix(self) -> &'static str {
        match self {
            Framework::Vanilla => "",
            Framework::Sbrl => "+SBRL",
            Framework::SbrlHap => "+SBRL-HAP",
        }
    }

    /// Canonical standalone name (`"Vanilla"`, `"SBRL"`, `"SBRL-HAP"`).
    pub fn name(self) -> &'static str {
        match self {
            Framework::Vanilla => "Vanilla",
            Framework::Sbrl => "SBRL",
            Framework::SbrlHap => "SBRL-HAP",
        }
    }
}

impl fmt::Display for Framework {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Framework {
    type Err = ParseError;

    /// Case-insensitive, separator-insensitive parse; the empty string (a
    /// method name with no `+SUFFIX`) resolves to [`Framework::Vanilla`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String =
            s.chars().filter(|c| *c != '-' && *c != '_').collect::<String>().to_ascii_lowercase();
        match norm.as_str() {
            "" | "vanilla" => Ok(Framework::Vanilla),
            "sbrl" => Ok(Framework::Sbrl),
            "sbrlhap" => Ok(Framework::SbrlHap),
            _ => Err(ParseError::Framework { input: s.to_string() }),
        }
    }
}

/// Full configuration of the sample-weight objective `L_w` (Eq. 11):
/// `L_w = α·L_B + γ1·L_I + γ2·L_D(Z_r, w) + γ3·Σ_i L_D(Z_o^i, w) + R_w`.
///
/// The three `use_*` flags exist for the paper's Table II ablation; the
/// [`SbrlConfig::vanilla`] / [`SbrlConfig::sbrl`] / [`SbrlConfig::sbrl_hap`]
/// constructors cover the standard frameworks.
#[derive(Clone, Copy, Debug)]
pub struct SbrlConfig {
    /// Balancing Regularizer `L_B` active (weighted IPM, Eq. 4).
    pub use_br: bool,
    /// Independence Regularizer `L_I = L_D(Z_p, w)` active (Eq. 10).
    pub use_ir: bool,
    /// Hierarchical-Attention terms `L_D(Z_r, w)` and `Σ L_D(Z_o^i, w)`
    /// active.
    pub use_hap: bool,
    /// Weight `α` of the balance loss.
    pub alpha: f64,
    /// Weight `γ1` of the last-layer independence loss.
    pub gamma1: f64,
    /// Weight `γ2` of the representation-layer decorrelation.
    pub gamma2: f64,
    /// Weight `γ3` of the remaining hidden-layer decorrelation.
    pub gamma3: f64,
    /// IPM used by the Balancing Regularizer.
    pub ipm: IpmKind,
    /// HSIC-RFF options (function count is
    /// [`sbrl_stats::Rff::DEFAULT_NUM_FUNCTIONS`] unless overridden).
    pub decor: DecorrelationConfig,
    /// Number of random Fourier functions per feature (paper default: 5).
    pub rff_functions: usize,
}

impl SbrlConfig {
    /// No weight learning at all — the backbone alone.
    pub fn vanilla() -> Self {
        Self {
            use_br: false,
            use_ir: false,
            use_hap: false,
            alpha: 0.0,
            gamma1: 0.0,
            gamma2: 0.0,
            gamma3: 0.0,
            ipm: IpmKind::MmdLin,
            decor: DecorrelationConfig::default(),
            rff_functions: 5,
        }
    }

    /// `+SBRL`: Balancing + Independence Regularizers (Sec. IV-B).
    pub fn sbrl(alpha: f64, gamma1: f64) -> Self {
        Self { use_br: true, use_ir: true, alpha, gamma1, ..Self::vanilla() }
    }

    /// `+SBRL-HAP`: the full hierarchical framework (Sec. IV-C).
    pub fn sbrl_hap(alpha: f64, gamma1: f64, gamma2: f64, gamma3: f64) -> Self {
        Self {
            use_br: true,
            use_ir: true,
            use_hap: true,
            alpha,
            gamma1,
            gamma2,
            gamma3,
            ..Self::vanilla()
        }
    }

    /// Which framework the flag combination corresponds to (ablation rows
    /// map to the nearest label).
    pub fn framework(&self) -> Framework {
        match (self.use_br || self.use_ir, self.use_hap) {
            (false, false) => Framework::Vanilla,
            (_, true) => Framework::SbrlHap,
            (true, false) => Framework::Sbrl,
        }
    }

    /// Whether any weight-learning objective is active.
    pub fn weights_enabled(&self) -> bool {
        self.use_br || self.use_ir || self.use_hap
    }

    /// Builder-style IPM override.
    pub fn with_ipm(mut self, ipm: IpmKind) -> Self {
        self.ipm = ipm;
        self
    }

    /// Builder-style decorrelation override.
    pub fn with_decor(mut self, decor: DecorrelationConfig) -> Self {
        self.decor = decor;
        self
    }

    /// Validates the coefficients: every weight must be finite and
    /// non-negative, and the RFF bank non-empty.
    pub fn validate(&self) -> Result<(), SbrlError> {
        check_non_negative(&[
            ("sbrl.alpha", self.alpha),
            ("sbrl.gamma1", self.gamma1),
            ("sbrl.gamma2", self.gamma2),
            ("sbrl.gamma3", self.gamma3),
        ])?;
        check_ipm("sbrl.ipm", self.ipm)?;
        if self.rff_functions == 0 {
            return Err(SbrlError::InvalidConfig {
                what: "sbrl.rff_functions",
                message: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Rejects the first `(name, value)` pair whose value is NaN, infinite or
/// negative, naming it in the typed error.
pub(crate) fn check_non_negative(values: &[(&'static str, f64)]) -> Result<(), SbrlError> {
    for &(what, v) in values {
        if !v.is_finite() || v < 0.0 {
            return Err(SbrlError::InvalidConfig {
                what,
                message: format!("must be finite and non-negative, got {v}"),
            });
        }
    }
    Ok(())
}

/// Rejects a Wasserstein IPM whose inverse-temperature `lambda` is NaN,
/// infinite or negative; `what` names the IPM's place in the configuration.
pub(crate) fn check_ipm(what: &'static str, ipm: IpmKind) -> Result<(), SbrlError> {
    match ipm {
        IpmKind::Wasserstein { lambda, .. } if !lambda.is_finite() || lambda < 0.0 => {
            Err(SbrlError::InvalidConfig {
                what,
                message: format!(
                    "Wasserstein lambda must be finite and non-negative, got {lambda}"
                ),
            })
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_flags() {
        let v = SbrlConfig::vanilla();
        assert!(!v.weights_enabled());
        assert_eq!(v.framework(), Framework::Vanilla);

        let s = SbrlConfig::sbrl(1.0, 1.0);
        assert!(s.use_br && s.use_ir && !s.use_hap);
        assert_eq!(s.framework(), Framework::Sbrl);

        let h = SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01);
        assert!(h.use_br && h.use_ir && h.use_hap);
        assert_eq!(h.framework(), Framework::SbrlHap);
        assert!(h.weights_enabled());
    }

    #[test]
    fn suffixes_match_paper_tables() {
        assert_eq!(Framework::Vanilla.suffix(), "");
        assert_eq!(Framework::Sbrl.suffix(), "+SBRL");
        assert_eq!(Framework::SbrlHap.suffix(), "+SBRL-HAP");
    }

    #[test]
    fn framework_names_round_trip() {
        for fw in Framework::ALL {
            assert_eq!(fw.name().parse::<Framework>().unwrap(), fw);
            assert_eq!(fw.to_string().parse::<Framework>().unwrap(), fw);
        }
        assert_eq!("".parse::<Framework>().unwrap(), Framework::Vanilla);
        assert_eq!("sbrl_hap".parse::<Framework>().unwrap(), Framework::SbrlHap);
        assert!("JUNK".parse::<Framework>().is_err());
    }

    #[test]
    fn validate_rejects_bad_coefficients() {
        let mut bad = SbrlConfig::sbrl(1.0, 1.0);
        bad.alpha = f64::NAN;
        assert!(bad.validate().is_err());
        let mut zero_rff = SbrlConfig::vanilla();
        zero_rff.rff_functions = 0;
        assert!(zero_rff.validate().is_err());
        assert!(SbrlConfig::sbrl_hap(1.0, 1.0, 0.1, 0.01).validate().is_ok());
    }

    #[test]
    fn ablation_rows_are_expressible() {
        // Table II: IR+HAP (no BR), BR+HAP (no IR), BR+IR (no HAP), full.
        let no_br = SbrlConfig { use_br: false, ..SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 1.0) };
        assert!(!no_br.use_br && no_br.use_ir && no_br.use_hap);
        assert!(no_br.weights_enabled());
    }
}
