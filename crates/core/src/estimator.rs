//! The fluent estimator pipeline — the workspace's primary fit/predict
//! surface.
//!
//! ```no_run
//! use sbrl_core::Estimator;
//! use sbrl_data::{SyntheticConfig, SyntheticProcess};
//!
//! let process = SyntheticProcess::new(SyntheticConfig::syn_8_8_8_2(), 0);
//! let train_data = process.generate(2.5, 1000, 0);
//! let val_data = process.generate(2.5, 300, 1);
//!
//! let fitted = Estimator::builder()
//!     .method("CFR+SBRL-HAP".parse()?)
//!     .seed(7)
//!     .fit(&train_data, &val_data)?;
//! let ood = process.generate(-3.0, 500, 2);
//! println!("OOD PEHE = {:.3}", fitted.evaluate(&ood).unwrap().pehe);
//! # Ok::<(), sbrl_core::SbrlError>(())
//! ```
//!
//! An [`Estimator`] is a validated, immutable recipe: `fit` can be called
//! repeatedly (different splits, different replications) and each call
//! builds a fresh backbone from the configured seed.

use sbrl_data::CausalDataset;
use sbrl_models::{Backbone, BackboneConfig, BackboneKind};
use sbrl_tensor::rng::rng_from_seed;

use crate::config::{check_ipm, check_non_negative, Framework, SbrlConfig};
use crate::error::SbrlError;
use crate::method::MethodSpec;
use crate::trainer::{fit_backbone, FittedModel, TrainConfig};

/// Salt mixed into the training seed to derive the model-initialisation RNG
/// (kept identical to the historical experiment runner, so results
/// reproduce across the API migration). `pub(crate)` so model loading
/// (`crate::persist`) rebuilds the architecture from the same derivation.
pub(crate) const INIT_SEED_SALT: u64 = 0x00f1_77ed;

/// How the builder selects the backbone architecture.
#[derive(Clone, Copy, Debug)]
enum BackboneChoice {
    /// A fully specified configuration.
    Config(BackboneConfig),
    /// A kind only; the `small()` architecture is instantiated at fit time
    /// with the training data's covariate dimension.
    Kind(BackboneKind),
}

/// A validated, reusable estimator configuration produced by
/// [`Estimator::builder`].
#[derive(Clone, Copy, Debug)]
pub struct Estimator {
    backbone: BackboneChoice,
    sbrl: SbrlConfig,
    train_cfg: TrainConfig,
}

impl Estimator {
    /// Starts the fluent builder.
    pub fn builder() -> EstimatorBuilder {
        EstimatorBuilder::default()
    }

    /// The resolved framework configuration.
    pub fn sbrl(&self) -> &SbrlConfig {
        &self.sbrl
    }

    /// The resolved optimisation budget.
    pub fn train_config(&self) -> &TrainConfig {
        &self.train_cfg
    }

    /// Builds the backbone (seeded from the training seed) and fits it on
    /// `train`, early-stopping on `val`.
    pub fn fit(
        &self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
        let config = match self.backbone {
            BackboneChoice::Config(cfg) => {
                if cfg.in_dim() != train.dim() {
                    return Err(SbrlError::InvalidConfig {
                        what: "backbone.in_dim",
                        message: format!(
                            "backbone expects {} covariates but the training data has {}",
                            cfg.in_dim(),
                            train.dim()
                        ),
                    });
                }
                cfg
            }
            BackboneChoice::Kind(kind) => kind.small_config(train.dim()),
        };
        let mut rng = rng_from_seed(self.train_cfg.seed ^ INIT_SEED_SALT);
        let model = config.build(&mut rng);
        fit_backbone(model, train, val, &self.sbrl, &self.train_cfg)
    }
}

/// Fluent builder for [`Estimator`]; every setter returns `self`.
#[derive(Clone, Copy, Debug, Default)]
pub struct EstimatorBuilder {
    backbone: Option<BackboneConfig>,
    method: Option<MethodSpec>,
    sbrl: Option<SbrlConfig>,
    train_cfg: Option<TrainConfig>,
    seed: Option<u64>,
}

impl EstimatorBuilder {
    /// Selects the backbone by full configuration ([`sbrl_models::TarnetConfig`],
    /// [`sbrl_models::CfrConfig`] and [`sbrl_models::DerCfrConfig`] convert
    /// implicitly).
    pub fn backbone(mut self, cfg: impl Into<BackboneConfig>) -> Self {
        self.backbone = Some(cfg.into());
        self
    }

    /// Selects a whole grid cell by [`MethodSpec`] — backbone kind plus
    /// framework — enabling `"CFR+SBRL-HAP".parse()`-driven configuration.
    /// Without `.backbone(..)` the kind's default (`small()`) architecture
    /// is sized to the training data at fit time; without `.sbrl(..)` the
    /// framework runs with its default coefficients.
    ///
    /// An explicitly configured `.backbone(..)` supplies the architecture
    /// hyper-parameters, but its kind must agree with the spec, and an
    /// explicit `.sbrl(..)` must encode the spec's framework; a mismatch is
    /// rejected at build time so a name-selected method can never run a
    /// different method than its name says.
    pub fn method(mut self, spec: MethodSpec) -> Self {
        self.method = Some(spec);
        self
    }

    /// Full control over the weight-objective coefficients (Eq. 11).
    pub fn sbrl(mut self, cfg: SbrlConfig) -> Self {
        self.sbrl = Some(cfg);
        self
    }

    /// Optimisation budget (iterations, batch size, learning rates, the
    /// divergence-recovery policy and the wall-clock watchdog, ...).
    pub fn train(mut self, cfg: TrainConfig) -> Self {
        self.train_cfg = Some(cfg);
        self
    }

    /// Master seed: drives backbone initialisation, batching, RFF sampling
    /// — overrides `TrainConfig::seed`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Validates the configuration into a reusable [`Estimator`].
    pub fn build(self) -> Result<Estimator, SbrlError> {
        let backbone = match (self.backbone, self.method) {
            (Some(cfg), Some(spec)) if cfg.kind() != spec.backbone => {
                return Err(SbrlError::InvalidConfig {
                    what: "backbone",
                    message: format!(
                        ".method(..) names a {} backbone but .backbone(..) configures {}",
                        spec.backbone,
                        cfg.kind()
                    ),
                });
            }
            (Some(cfg), _) => {
                validate_backbone(&cfg)?;
                BackboneChoice::Config(cfg)
            }
            (None, Some(spec)) => BackboneChoice::Kind(spec.backbone),
            (None, None) => {
                return Err(SbrlError::InvalidConfig {
                    what: "backbone",
                    message: "no backbone selected: call .backbone(config) or .method(spec)".into(),
                })
            }
        };
        let sbrl = match (self.sbrl, self.method.map(|spec| spec.framework)) {
            (Some(cfg), Some(fw)) if cfg.framework() != fw => {
                return Err(SbrlError::InvalidConfig {
                    what: "framework",
                    message: format!(
                        ".method(..) names the {fw} framework but the .sbrl(..) configuration \
                         encodes {}",
                        cfg.framework()
                    ),
                });
            }
            (Some(cfg), _) => cfg,
            (None, fw) => default_sbrl_for(fw.unwrap_or(Framework::Vanilla)),
        };
        let mut train_cfg = self.train_cfg.unwrap_or_default();
        if let Some(seed) = self.seed {
            train_cfg.seed = seed;
        }
        sbrl.validate()?;
        train_cfg.validate()?;
        Ok(Estimator { backbone, sbrl, train_cfg })
    }

    /// Builds the estimator and fits it in one call.
    pub fn fit(
        self,
        train: &CausalDataset,
        val: &CausalDataset,
    ) -> Result<FittedModel<Box<dyn Backbone>>, SbrlError> {
        self.build()?.fit(train, val)
    }
}

/// Validates an explicit backbone configuration's penalty weights and IPM:
/// a NaN or negative value would otherwise surface only at fit time, as a
/// non-finite loss a sweep would retry as transient.
fn validate_backbone(cfg: &BackboneConfig) -> Result<(), SbrlError> {
    match cfg {
        BackboneConfig::Tarnet(_) => Ok(()),
        BackboneConfig::Cfr(c) => {
            check_non_negative(&[("backbone.alpha", c.alpha)])?;
            check_ipm("backbone.ipm", c.ipm)
        }
        BackboneConfig::DerCfr(c) => {
            check_non_negative(&[
                ("backbone.alpha", c.alpha),
                ("backbone.beta", c.beta),
                ("backbone.gamma", c.gamma),
                ("backbone.mu", c.mu),
            ])?;
            check_ipm("backbone.ipm", c.ipm)
        }
    }
}

/// The framework's textbook coefficients, used when only a method name (not
/// a full [`SbrlConfig`]) selects the weight objective.
fn default_sbrl_for(framework: Framework) -> SbrlConfig {
    match framework {
        Framework::Vanilla => SbrlConfig::vanilla(),
        Framework::Sbrl => SbrlConfig::sbrl(1.0, 1.0),
        Framework::SbrlHap => SbrlConfig::sbrl_hap(1.0, 1.0, 1.0, 0.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbrl_data::{SyntheticConfig, SyntheticProcess};
    use sbrl_models::CfrConfig;

    fn tiny_data() -> (CausalDataset, CausalDataset) {
        let cfg = SyntheticConfig {
            m_instrument: 3,
            m_confounder: 3,
            m_adjustment: 3,
            m_unstable: 2,
            pool_factor: 4,
            threshold_pool: 1500,
        };
        let proc = SyntheticProcess::new(cfg, 42);
        (proc.generate(2.5, 300, 0), proc.generate(2.5, 120, 1))
    }

    #[test]
    fn builder_requires_a_backbone() {
        let err = Estimator::builder().build().unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "backbone", .. }));
    }

    #[test]
    fn framework_conflicting_with_sbrl_is_rejected() {
        let err = Estimator::builder()
            .method("CFR".parse().unwrap())
            .sbrl(SbrlConfig::sbrl(1.0, 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "framework", .. }));
    }

    #[test]
    fn invalid_train_config_is_a_typed_error() {
        let err = Estimator::builder()
            .method("TARNet".parse().unwrap())
            .train(TrainConfig { iterations: 0, ..TrainConfig::default() })
            .build()
            .unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "train.iterations", .. }));
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let (train, val) = tiny_data();
        let err = Estimator::builder()
            .backbone(CfrConfig::small(train.dim() + 3))
            .train(TrainConfig::smoke())
            .fit(&train, &val)
            .unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "backbone.in_dim", .. }));
    }

    #[test]
    fn seed_overrides_the_train_config_seed() {
        let est = Estimator::builder()
            .method("TARNet".parse().unwrap())
            .train(TrainConfig { seed: 1, ..TrainConfig::smoke() })
            .seed(99)
            .build()
            .unwrap();
        assert_eq!(est.train_config().seed, 99);
    }

    #[test]
    fn method_spec_configures_backbone_and_framework() {
        for spec in MethodSpec::grid() {
            let est = Estimator::builder()
                .method(spec.name().parse().unwrap())
                .train(TrainConfig::smoke())
                .build()
                .unwrap();
            assert!(
                matches!(est.backbone, BackboneChoice::Kind(k) if k == spec.backbone),
                "{spec}"
            );
            assert_eq!(est.sbrl().framework(), spec.framework, "{spec}");
        }
    }

    #[test]
    fn method_spec_conflicting_with_backbone_config_is_rejected() {
        // A name-selected grid cell must never silently run a different
        // architecture than its name says.
        let err = Estimator::builder()
            .backbone(sbrl_models::TarnetConfig::small(5))
            .method("CFR+SBRL-HAP".parse().unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, SbrlError::InvalidConfig { what: "backbone", .. }));
        // An agreeing explicit config supplies the architecture.
        let est = Estimator::builder()
            .backbone(CfrConfig::small(5))
            .method("CFR+SBRL-HAP".parse().unwrap())
            .build()
            .unwrap();
        assert_eq!(est.sbrl().framework(), Framework::SbrlHap);
    }

    #[test]
    fn builder_fit_produces_a_working_model() {
        let (train, val) = tiny_data();
        let fitted = Estimator::builder()
            .backbone(CfrConfig::small(train.dim()))
            .method("CFR+SBRL-HAP".parse().unwrap())
            .train(TrainConfig::smoke())
            .seed(3)
            .fit(&train, &val)
            .expect("training succeeds");
        let est = fitted.predict(&val.x);
        assert_eq!(est.y0_hat.len(), val.n());
        assert!(est.y0_hat.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn same_seed_same_model_different_seed_different_model() {
        let (train, val) = tiny_data();
        let fit_with = |seed: u64| {
            Estimator::builder()
                .method("CFR".parse().unwrap())
                .train(TrainConfig::smoke())
                .seed(seed)
                .fit(&train, &val)
                .expect("training succeeds")
                .predict(&val.x)
                .ite_hat()
        };
        assert_eq!(fit_with(5), fit_with(5));
        assert_ne!(fit_with(5), fit_with(6));
    }
}
