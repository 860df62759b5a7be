//! Parameter storage decoupled from the autodiff tape.
//!
//! Because every optimisation step builds a fresh [`Graph`], trainable
//! parameters live outside the tape in a [`ParamStore`]. A [`Binding`]
//! memoises the store-handle → graph-node mapping for one step so that a
//! parameter used by several layers is inserted into the tape exactly once
//! (and therefore accumulates a single, correct gradient).

use sbrl_tensor::{Graph, Matrix, TensorId};

/// Stable handle to a parameter in a [`ParamStore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct ParamHandle(pub(crate) usize);

/// Named collection of trainable matrices.
#[derive(Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Matrix>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn register(&mut self, name: impl Into<String>, init: Matrix) -> ParamHandle {
        self.names.push(name.into());
        self.values.push(init);
        ParamHandle(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total number of scalar parameters (for model-size reporting).
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(Matrix::len).sum()
    }

    /// Current value of a parameter.
    pub fn get(&self, h: ParamHandle) -> &Matrix {
        &self.values[h.0]
    }

    /// Mutable value of a parameter.
    pub fn get_mut(&mut self, h: ParamHandle) -> &mut Matrix {
        &mut self.values[h.0]
    }

    /// Name of a parameter.
    pub fn name(&self, h: ParamHandle) -> &str {
        &self.names[h.0]
    }

    /// Iterates over `(handle, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamHandle, &str, &Matrix)> {
        self.values.iter().enumerate().map(|(i, v)| (ParamHandle(i), self.names[i].as_str(), v))
    }

    /// True when every parameter is finite — cheap NaN tripwire for trainers.
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(Matrix::all_finite)
    }

    /// Snapshot of every parameter value (for best-iterate early stopping).
    pub fn snapshot(&self) -> Vec<Matrix> {
        self.values.clone()
    }

    /// Restores a snapshot taken with [`ParamStore::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot does not match the store layout.
    #[track_caller]
    pub fn restore(&mut self, snapshot: &[Matrix]) {
        assert_eq!(snapshot.len(), self.values.len(), "snapshot length mismatch");
        for (v, s) in self.values.iter_mut().zip(snapshot) {
            assert_eq!(v.shape(), s.shape(), "snapshot shape mismatch");
            v.clone_from(s);
        }
    }
}

/// Per-step memoisation of parameter graph nodes.
pub struct Binding {
    ids: Vec<Option<TensorId>>,
    frozen: bool,
}

impl Binding {
    /// Creates a binding sized for `store`.
    pub fn new(store: &ParamStore) -> Self {
        Self { ids: vec![None; store.len()], frozen: false }
    }

    /// Creates a *frozen* binding: parameters enter the graph as constants,
    /// so backward sweeps skip them entirely. Used by alternating schemes
    /// that optimise something else (e.g. sample weights) with the network
    /// held fixed (Algorithm 1, line 7).
    pub fn new_frozen(store: &ParamStore) -> Self {
        Self { ids: vec![None; store.len()], frozen: true }
    }

    /// Clears the memoised node ids so the binding can serve another step on
    /// a reused [`Graph`] without reallocating (the id table's capacity is
    /// retained).
    pub fn reset(&mut self, store: &ParamStore) {
        self.ids.clear();
        self.ids.resize(store.len(), None);
    }

    /// Inserts the parameter into the graph (once) and returns its node id.
    ///
    /// Parameter values are copied into the graph through its buffer pool,
    /// so binding on a warmed-up reused tape performs no heap allocation.
    pub fn bind(&mut self, store: &ParamStore, g: &mut Graph, h: ParamHandle) -> TensorId {
        if let Some(id) = self.ids[h.0] {
            return id;
        }
        let id = if self.frozen {
            g.constant_copied(store.get(h))
        } else {
            g.param_copied(store.get(h))
        };
        self.ids[h.0] = Some(id);
        id
    }

    /// Iterates over `(handle, tensor_id)` for all parameters bound this step.
    pub fn bound(&self) -> impl Iterator<Item = (ParamHandle, TensorId)> + '_ {
        self.ids.iter().enumerate().filter_map(|(i, id)| id.map(|id| (ParamHandle(i), id)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let a = store.register("w", Matrix::ones(2, 3));
        let b = store.register("b", Matrix::zeros(1, 3));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 9);
        assert_eq!(store.name(a), "w");
        assert_eq!(store.get(b).shape(), (1, 3));
        store.get_mut(a)[(0, 0)] = 5.0;
        assert_eq!(store.get(a)[(0, 0)], 5.0);
    }

    #[test]
    fn binding_memoises_graph_nodes() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let id1 = binding.bind(&store, &mut g, w);
        let id2 = binding.bind(&store, &mut g, w);
        assert_eq!(id1, id2);
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(binding.bound().collect::<Vec<_>>(), vec![(w, id1)]);
    }

    #[test]
    fn shared_param_accumulates_one_gradient() {
        // loss = sum(w) + sum(w*w): single node, both contributions add up.
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::full(1, 2, 3.0));
        let mut g = Graph::new();
        let mut binding = Binding::new(&store);
        let id = binding.bind(&store, &mut g, w);
        let id_again = binding.bind(&store, &mut g, w);
        let s1 = g.sum(id);
        let sq = g.square(id_again);
        let s2 = g.sum(sq);
        let loss = g.add(s1, s2);
        g.backward(loss);
        // d/dw (w + w^2) = 1 + 2*3 = 7 per element
        assert!(g.grad(id).unwrap().approx_eq(&Matrix::full(1, 2, 7.0), 1e-12));
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(2, 2));
        let snap = store.snapshot();
        store.get_mut(w)[(0, 0)] = 99.0;
        store.restore(&snap);
        assert_eq!(store.get(w)[(0, 0)], 1.0);
    }

    #[test]
    fn finiteness_tripwire() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::ones(1, 1));
        assert!(store.all_finite());
        store.get_mut(w)[(0, 0)] = f64::INFINITY;
        assert!(!store.all_finite());
    }
}
