//! The backbone abstraction the SBRL / SBRL-HAP frameworks wrap.
//!
//! A backbone is any balanced-representation architecture with a shared
//! representation network and two-head outcome prediction (Sec. IV-D). To be
//! wrappable it must expose its *layer taps* — the per-priority activations
//! the Hierarchical-Attention Paradigm decorrelates:
//!
//! * `z_p` (first priority) — the model's last hidden layer;
//! * `z_r` (second priority) — the balanced-representation layer `Φ`;
//! * `z_o` (third priority) — every other hidden layer.

use sbrl_nn::{BatchNorm, Binding, OutcomeLoss, ParamHandle, ParamStore};
use sbrl_tensor::{Graph, Matrix, TensorId};

use crate::kind::BackboneConfig;

/// Batch-level context shared by all backbones: the treatment column, its
/// complement `1 - t`, and the within-batch treated/control index sets.
#[derive(Clone, Debug, Default)]
pub struct BatchContext {
    /// Treatments of the batch as an `n x 1` column.
    pub t: Vec<f64>,
    /// Complement column `1 - t` (used by the factual head mix).
    pub one_minus_t: Vec<f64>,
    /// Indices (within the batch) of treated units.
    pub treated_idx: Vec<usize>,
    /// Indices (within the batch) of control units.
    pub control_idx: Vec<usize>,
}

impl BatchContext {
    /// Builds the context from a treatment slice.
    pub fn new(t: &[f64]) -> Self {
        let mut ctx = Self::default();
        ctx.rebuild(t);
        ctx
    }

    /// Refills the context from a treatment slice, reusing the existing
    /// buffers' capacity — the allocation-free per-step path of the trainer.
    pub fn rebuild(&mut self, t: &[f64]) {
        self.t.clear();
        self.t.extend_from_slice(t);
        self.one_minus_t.clear();
        self.one_minus_t.extend(t.iter().map(|&ti| 1.0 - ti));
        self.treated_idx.clear();
        self.control_idx.clear();
        for (i, &ti) in t.iter().enumerate() {
            if ti > 0.5 {
                self.treated_idx.push(i);
            } else {
                self.control_idx.push(i);
            }
        }
    }

    /// Batch size.
    pub fn len(&self) -> usize {
        self.t.len()
    }

    /// True when the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.t.is_empty()
    }

    /// The treatment column as a graph constant (pooled).
    pub fn t_const(&self, g: &mut Graph) -> TensorId {
        g.constant_col(&self.t)
    }
}

/// Per-priority layer activations (Sec. IV-C).
pub struct LayerTaps {
    /// Third priority: all other hidden layers `Z_o^i`.
    pub z_o: Vec<TensorId>,
    /// Second priority: the balanced-representation layer `Z_r` (Φ).
    pub z_r: TensorId,
    /// First priority: the model's last hidden layer `Z_p`.
    pub z_p: TensorId,
}

/// Result of one backbone forward pass over a batch.
pub struct ForwardPass {
    /// Raw control-head outputs (`n x 1`; logits for binary outcomes).
    pub y0_raw: TensorId,
    /// Raw treated-head outputs.
    pub y1_raw: TensorId,
    /// Layer taps for the regularizers.
    pub taps: LayerTaps,
    /// Backbone-specific regularisation (scalar node; e.g. CFR's `α·IPM`,
    /// DeR-CFR's decomposition losses; zero for TARNet).
    pub reg_loss: TensorId,
}

/// A wrappable balanced-representation backbone.
///
/// The trait separates the two forward paths by mutability:
///
/// * [`Backbone::forward`] is the **inference** path. It takes `&self`, never
///   touches training-only state (batch-norm running statistics), and never
///   emits regularisation terms, so a fitted model is an immutable artifact
///   that can fan out across threads (the trait requires `Send + Sync`).
/// * The **training** path lives behind the explicit [`TrainStep`] handle
///   obtained from [`Backbone::train_step`]; it may update training-only
///   state and attaches the backbone's own regularisation losses.
pub trait Backbone: Send + Sync {
    /// Human-readable name used in result tables ("TARNet", "CFR", ...).
    fn name(&self) -> String;

    /// Inference-mode forward pass over a batch of covariates `x` (graph
    /// node, `n x d`). `reg_loss` is always the zero scalar.
    fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass;

    /// Training-mode forward pass. Implementors put batch-statistic updates
    /// here, and the backbone's regularisation terms when `with_reg` is set
    /// (otherwise `reg_loss` is the zero scalar); callers should reach it
    /// through [`Backbone::train_step`] so the mutable path stays explicit.
    fn forward_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        with_reg: bool,
    ) -> ForwardPass;

    /// The parameter store holding all trainable parameters.
    fn store(&self) -> &ParamStore;

    /// Mutable parameter store (for the optimiser).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Weight (not bias) handles for L2 regularisation.
    fn l2_handles(&self) -> Vec<ParamHandle>;

    /// The configuration that rebuilds an architecturally identical backbone
    /// (model persistence: the config plus the parameter store plus
    /// [`Backbone::export_extra_state`] fully determine inference output).
    fn export_config(&self) -> BackboneConfig;

    /// Non-parameter state a serialized model must carry: named `f64`
    /// vectors (today: batch-norm running statistics). The default is the
    /// empty set for backbones with no such state.
    fn export_extra_state(&self) -> Vec<(String, Vec<f64>)> {
        Vec::new()
    }

    /// Restores state exported by [`Backbone::export_extra_state`]. Errors
    /// (with a human-readable reason) on unknown names or mismatched
    /// lengths; the default accepts only the empty set.
    fn import_extra_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        if let Some((name, _)) = state.first() {
            return Err(format!("backbone has no extra state, got '{name}'"));
        }
        Ok(())
    }

    /// The explicit handle to the mutable training-mode forward path.
    fn train_step(&mut self) -> TrainStep<'_, Self>
    where
        Self: Sized,
    {
        TrainStep { model: self }
    }
}

/// Exports an optional input batch-norm's running statistics in the named
/// form [`Backbone::export_extra_state`] requires. Shared by every backbone
/// whose only extra state is the `input_bn` layer.
pub(crate) fn export_bn_state(bn: &Option<BatchNorm>) -> Vec<(String, Vec<f64>)> {
    match bn {
        Some(bn) => {
            let (mean, var) = bn.running_stats();
            vec![
                ("input_bn.running_mean".to_string(), mean.to_vec()),
                ("input_bn.running_var".to_string(), var.to_vec()),
            ]
        }
        None => Vec::new(),
    }
}

/// Restores running statistics exported by [`export_bn_state`]:
/// order-insensitive by name, rejecting unknown names, missing halves and
/// width mismatches so a corrupted artifact cannot half-apply.
pub(crate) fn import_bn_state(
    bn: &mut Option<BatchNorm>,
    state: &[(String, Vec<f64>)],
) -> Result<(), String> {
    let Some(bn) = bn else {
        if let Some((name, _)) = state.first() {
            return Err(format!("backbone has no batch norm, got state '{name}'"));
        }
        return Ok(());
    };
    let mut mean: Option<&[f64]> = None;
    let mut var: Option<&[f64]> = None;
    for (name, values) in state {
        match name.as_str() {
            "input_bn.running_mean" => mean = Some(values),
            "input_bn.running_var" => var = Some(values),
            other => return Err(format!("unknown extra state '{other}'")),
        }
    }
    match (mean, var) {
        (Some(mean), Some(var)) => {
            if !bn.set_running_stats(mean, var) {
                return Err(format!(
                    "batch-norm state widths ({}, {}) do not match the layer width {}",
                    mean.len(),
                    var.len(),
                    bn.dim()
                ));
            }
            Ok(())
        }
        _ => Err("batch-norm state needs both running_mean and running_var".to_string()),
    }
}

/// Explicit train-step handle: the only sanctioned route to the
/// training-mode forward pass, which may mutate training-only state such as
/// batch-norm running statistics (Algorithm 1's per-iteration phases).
pub struct TrainStep<'a, B: Backbone + ?Sized> {
    model: &'a mut B,
}

impl<B: Backbone + ?Sized> TrainStep<'_, B> {
    /// Training-mode forward pass through the wrapped backbone, with its
    /// regularisation terms in `reg_loss`.
    pub fn forward(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        self.model.forward_train(g, binding, x, ctx, true)
    }

    /// Training-mode forward pass that builds no backbone regularizer:
    /// batch-norm running statistics update exactly as in
    /// [`TrainStep::forward`], and `reg_loss` is the zero scalar. The weight
    /// phase (Eq. 11) reads only the outputs and layer taps, so it takes
    /// this path and skips, e.g., CFR's Sinkhorn IPM.
    pub fn forward_without_reg(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        self.model.forward_train(g, binding, x, ctx, false)
    }

    /// Shared view of the wrapped backbone.
    pub fn model(&self) -> &B {
        self.model
    }
}

impl Backbone for Box<dyn Backbone> {
    fn name(&self) -> String {
        self.as_ref().name()
    }

    fn forward(
        &self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
    ) -> ForwardPass {
        self.as_ref().forward(g, binding, x, ctx)
    }

    fn forward_train(
        &mut self,
        g: &mut Graph,
        binding: &mut Binding,
        x: TensorId,
        ctx: &BatchContext,
        with_reg: bool,
    ) -> ForwardPass {
        self.as_mut().forward_train(g, binding, x, ctx, with_reg)
    }

    fn store(&self) -> &ParamStore {
        self.as_ref().store()
    }

    fn store_mut(&mut self) -> &mut ParamStore {
        self.as_mut().store_mut()
    }

    fn l2_handles(&self) -> Vec<ParamHandle> {
        self.as_ref().l2_handles()
    }

    fn export_config(&self) -> BackboneConfig {
        self.as_ref().export_config()
    }

    fn export_extra_state(&self) -> Vec<(String, Vec<f64>)> {
        self.as_ref().export_extra_state()
    }

    fn import_extra_state(&mut self, state: &[(String, Vec<f64>)]) -> Result<(), String> {
        self.as_mut().import_extra_state(state)
    }
}

/// Mixes two same-shape head tensors by the factual treatment:
/// `out = t .* on_treated + (1 - t) .* on_control` (differentiable row mix).
pub fn select_by_treatment(
    g: &mut Graph,
    ctx: &BatchContext,
    on_treated: TensorId,
    on_control: TensorId,
) -> TensorId {
    let t = ctx.t_const(g);
    let omt = g.constant_col(&ctx.one_minus_t);
    let a = g.mul_col(on_treated, t);
    let b = g.mul_col(on_control, omt);
    g.add(a, b)
}

/// Runs a backbone in inference mode over a full covariate matrix and maps
/// raw head outputs to outcome space (sigmoid for binary outcomes). Takes
/// `&dyn Backbone`, so callers can share one fitted backbone across threads.
pub fn predict_potential_outcomes(
    model: &dyn Backbone,
    x: &Matrix,
    t: &[f64],
    loss_kind: OutcomeLoss,
) -> (Vec<f64>, Vec<f64>) {
    let mut g = Graph::new();
    let mut binding = Binding::new_frozen(model.store());
    let xc = g.constant(x.clone());
    let ctx = BatchContext::new(t);
    let pass = model.forward(&mut g, &mut binding, xc, &ctx);
    let y0 = loss_kind.predict(&mut g, pass.y0_raw);
    let y1 = loss_kind.predict(&mut g, pass.y1_raw);
    (g.value(y0).as_slice().to_vec(), g.value(y1).as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_context_partitions_indices() {
        let ctx = BatchContext::new(&[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(ctx.treated_idx, vec![0, 3]);
        assert_eq!(ctx.control_idx, vec![1, 2]);
        assert_eq!(ctx.len(), 4);
        assert!(!ctx.is_empty());
    }

    #[test]
    fn select_by_treatment_mixes_rows() {
        let mut g = Graph::new();
        let ctx = BatchContext::new(&[1.0, 0.0]);
        let a = g.constant(Matrix::from_vec(2, 2, vec![1.0, 1.0, 1.0, 1.0]));
        let b = g.constant(Matrix::from_vec(2, 2, vec![9.0, 9.0, 9.0, 9.0]));
        let out = select_by_treatment(&mut g, &ctx, a, b);
        assert_eq!(g.value(out).row(0), &[1.0, 1.0]); // treated row from a
        assert_eq!(g.value(out).row(1), &[9.0, 9.0]); // control row from b
    }

    #[test]
    fn select_by_treatment_is_differentiable() {
        let mut g = Graph::new();
        let ctx = BatchContext::new(&[1.0, 0.0]);
        let a = g.param(Matrix::ones(2, 2));
        let b = g.param(Matrix::ones(2, 2));
        let out = select_by_treatment(&mut g, &ctx, a, b);
        let loss = g.sumsq(out);
        g.backward(loss);
        // Row 0 of `a` and row 1 of `b` receive gradient; the others are zero.
        let ga = g.grad(a).unwrap();
        let gb = g.grad(b).unwrap();
        assert!(ga.row(0).iter().all(|&v| v != 0.0));
        assert!(ga.row(1).iter().all(|&v| v == 0.0));
        assert!(gb.row(0).iter().all(|&v| v == 0.0));
        assert!(gb.row(1).iter().all(|&v| v != 0.0));
    }
}
