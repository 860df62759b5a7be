//! Deterministic fault injection for recovery testing (the `fault-inject`
//! cargo feature).
//!
//! A `FaultPlan` names exactly *which* objective term goes non-finite at
//! *which* iteration (or which pool task panics / stalls), so every
//! recovery test is reproducible bit for bit: same seed + same plan →
//! identical recovered model. Plans come from two places:
//!
//! * programmatically — `FaultPlan::parse` + `inject`, the test path
//!   (the items only exist when the feature is on);
//! * the `SBRL_FAULTS` environment variable — read once per process at the
//!   first fit, the "break a real run" path for manual experiments.
//!
//! The grammar is `kind@iteration` (or `kind@index[:millis]` for pool
//! faults), `;`- or `,`-separated:
//!
//! ```text
//! SBRL_FAULTS="nan-loss@10"            # factual loss → NaN at iteration 10
//! SBRL_FAULTS="nan-grad@5;nan-reg@20"  # two one-shot faults
//! SBRL_FAULTS="stall-iter@3:250"       # sleep 250 ms before iteration 3
//! SBRL_FAULTS="panic-task@1"           # catching-path pool task 1 panics
//! SBRL_FAULTS="stall-task@0:50"        # pool task 0 sleeps 50 ms
//! SBRL_FAULTS="batcher-panic@0"        # serving batcher panics at batch 0
//! SBRL_FAULTS="net-drop@2"             # close the conn instead of reply 2
//! SBRL_FAULTS="net-delay@1:100"        # delay server reply 1 by 100 ms
//! SBRL_FAULTS="net-trunc@0"            # send half of reply 0, then close
//! SBRL_FAULTS="net-garbage@3"          # flip a byte of reply 3 (CRC trips)
//! ```
//!
//! Network faults index the server's *response frames* in the order they
//! are written (process-global counter, reset when a plan is armed).
//!
//! Every fault is **one-shot**: it disarms as it fires, so a recovered fit
//! does not re-diverge at the same point after rollback.
//!
//! **Zero overhead when off.** Without the feature this module compiles to
//! empty `#[inline(always)]` shims — no atomics, no branches beyond what
//! the optimiser deletes, and no `SBRL_FAULTS` string in the binary (CI
//! asserts the release binaries contain no such hook).

#[cfg(feature = "fault-inject")]
pub use enabled::{inject, FaultGuard, FaultPlan};

#[cfg(not(feature = "fault-inject"))]
use crate::error::NonFiniteTerm;

/// What to do to the next server response frame. Defined unconditionally so
/// the serving write path can match on it; without `fault-inject` the hook
/// always returns [`NetAction::None`], so the other variants are
/// intentionally never constructed in default builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
pub(crate) enum NetAction {
    /// Write the frame normally.
    None,
    /// Close the connection instead of writing.
    Drop,
    /// Sleep this many milliseconds, then write normally.
    Delay(u64),
    /// Write only the first half of the frame, then close.
    Truncate,
    /// Flip one mid-frame byte (the client's CRC check trips), then close.
    Garbage,
}

#[cfg(feature = "fault-inject")]
mod enabled {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
    use std::time::Duration;

    use super::NetAction;
    use crate::error::NonFiniteTerm;

    /// Index of the next server response frame (see the module docs: net
    /// faults address response frames by write order).
    static NET_FRAME: AtomicUsize = AtomicUsize::new(0);

    /// One deterministic fault: what fires, and at which iteration / task.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Fault {
        /// Poison the weighted factual loss at this iteration.
        NanLoss { iteration: usize },
        /// Poison the regularized total (factual loss stays finite).
        NanReg { iteration: usize },
        /// Poison the weight-phase objective at this iteration.
        NanWeightLoss { iteration: usize },
        /// Poison the gradient check at this iteration (loss stays finite).
        NanGrad { iteration: usize },
        /// Sleep `millis` before this iteration (trips the watchdog).
        StallIteration { iteration: usize, millis: u64 },
        /// Panic the catching-path pool task with this chunk index.
        PanicTask { index: usize },
        /// Stall the catching-path pool task with this chunk index.
        StallTask { index: usize, millis: u64 },
        /// Panic the serving batcher thread at this batch index.
        BatcherPanic { batch: usize },
        /// Close the connection instead of writing response frame `frame`.
        NetDrop { frame: usize },
        /// Delay response frame `frame` by `millis`.
        NetDelay { frame: usize, millis: u64 },
        /// Write half of response frame `frame`, then close.
        NetTrunc { frame: usize },
        /// Corrupt one byte of response frame `frame`.
        NetGarbage { frame: usize },
    }

    /// A parsed, injectable set of one-shot faults.
    #[derive(Clone, Debug, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        pub(crate) faults: Vec<Fault>,
    }

    impl FaultPlan {
        /// Parses the `SBRL_FAULTS` grammar (see the module docs).
        pub fn parse(s: &str) -> Result<Self, String> {
            let mut faults = Vec::new();
            for part in s.split([';', ',']).map(str::trim).filter(|p| !p.is_empty()) {
                let (kind, rest) = part
                    .split_once('@')
                    .ok_or_else(|| format!("'{part}': expected kind@iteration"))?;
                let (at, millis) = match rest.split_once(':') {
                    Some((at, ms)) => {
                        let ms: u64 =
                            ms.parse().map_err(|_| format!("'{part}': bad milliseconds '{ms}'"))?;
                        (at, Some(ms))
                    }
                    None => (rest, None),
                };
                let at: usize =
                    at.parse().map_err(|_| format!("'{part}': bad iteration '{at}'"))?;
                let fault = match (kind, millis) {
                    ("nan-loss", None) => Fault::NanLoss { iteration: at },
                    ("nan-reg", None) => Fault::NanReg { iteration: at },
                    ("nan-weight-loss", None) => Fault::NanWeightLoss { iteration: at },
                    ("nan-grad", None) => Fault::NanGrad { iteration: at },
                    ("stall-iter", Some(ms)) => Fault::StallIteration { iteration: at, millis: ms },
                    ("panic-task", None) => Fault::PanicTask { index: at },
                    ("stall-task", Some(ms)) => Fault::StallTask { index: at, millis: ms },
                    ("batcher-panic", None) => Fault::BatcherPanic { batch: at },
                    ("net-drop", None) => Fault::NetDrop { frame: at },
                    ("net-delay", Some(ms)) => Fault::NetDelay { frame: at, millis: ms },
                    ("net-trunc", None) => Fault::NetTrunc { frame: at },
                    ("net-garbage", None) => Fault::NetGarbage { frame: at },
                    ("stall-iter" | "stall-task" | "net-delay", None) => {
                        return Err(format!("'{part}': stalls and delays need ':millis'"));
                    }
                    (other, _) => {
                        return Err(format!(
                            "'{part}': unknown fault kind '{other}' (expected nan-loss, \
                             nan-reg, nan-weight-loss, nan-grad, stall-iter, panic-task, \
                             stall-task, batcher-panic, net-drop, net-delay, net-trunc, \
                             net-garbage)"
                        ));
                    }
                };
                faults.push(fault);
            }
            Ok(Self { faults })
        }

        /// Reads the plan from `SBRL_FAULTS`, if set and non-empty.
        ///
        /// # Panics
        /// On a malformed value — fault injection is a test facility; a
        /// typo'd plan silently injecting nothing would be worse.
        pub fn from_env() -> Option<Self> {
            let raw = std::env::var("SBRL_FAULTS").ok()?;
            if raw.trim().is_empty() {
                return None;
            }
            // lint: allow(panic) — documented (`# Panics`): a typo'd test
            // fault plan must fail loudly, not silently inject nothing.
            Some(Self::parse(&raw).unwrap_or_else(|e| panic!("invalid SBRL_FAULTS: {e}")))
        }
    }

    /// Faults currently armed for the trainer-side hooks (pool faults are
    /// armed directly into `sbrl_tensor::workers::fault`).
    fn armed() -> &'static Mutex<Vec<Fault>> {
        static ARMED: OnceLock<Mutex<Vec<Fault>>> = OnceLock::new();
        ARMED.get_or_init(|| Mutex::new(Vec::new()))
    }

    /// Serializes injected sections: the armed plan is process-global, so
    /// concurrent tests must not interleave their plans.
    fn test_lock() -> &'static Mutex<()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
    }

    /// RAII guard over an injected [`FaultPlan`]: holds the process-wide
    /// injection lock (so concurrent tests serialize) and disarms every
    /// remaining fault on drop.
    pub struct FaultGuard {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for FaultGuard {
        fn drop(&mut self) {
            disarm_all();
        }
    }

    /// Arms `plan` process-wide and returns the guard that keeps it armed.
    /// Faults fire one-shot; dropping the guard disarms whatever is left.
    pub fn inject(plan: &FaultPlan) -> FaultGuard {
        let lock = test_lock().lock().unwrap_or_else(PoisonError::into_inner);
        arm(plan);
        FaultGuard { _lock: lock }
    }

    pub(crate) fn arm(plan: &FaultPlan) {
        disarm_all();
        NET_FRAME.store(0, Ordering::SeqCst);
        let mut armed = armed().lock().unwrap_or_else(PoisonError::into_inner);
        for f in &plan.faults {
            match *f {
                Fault::PanicTask { index } => {
                    sbrl_tensor::workers::fault::arm_panic_task(index);
                }
                Fault::StallTask { index, millis } => {
                    sbrl_tensor::workers::fault::arm_stall_task(index, millis);
                }
                other => armed.push(other),
            }
        }
    }

    fn disarm_all() {
        armed().lock().unwrap_or_else(PoisonError::into_inner).clear();
        sbrl_tensor::workers::fault::disarm();
    }

    /// Arms the `SBRL_FAULTS` plan (read once per process) at fit start.
    pub(crate) fn fit_begin() {
        static ENV_PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();
        if let Some(plan) = ENV_PLAN.get_or_init(FaultPlan::from_env) {
            arm(plan);
        }
    }

    /// True when any trainer-side fault is still armed (the trainer uses
    /// this to keep its gradient scan active while a plan is pending).
    pub(crate) fn any_armed() -> bool {
        !armed().lock().unwrap_or_else(PoisonError::into_inner).is_empty()
    }

    /// Fires (and disarms) the first armed fault matching `matches`.
    fn fire(matches: impl Fn(&Fault) -> bool) -> Option<Fault> {
        let mut armed = armed().lock().unwrap_or_else(PoisonError::into_inner);
        let pos = armed.iter().position(matches)?;
        Some(armed.remove(pos))
    }

    /// Returns `value`, or NaN when a matching NaN fault is armed for this
    /// term at this iteration (one-shot).
    pub(crate) fn poison(term: NonFiniteTerm, iteration: usize, value: f64) -> f64 {
        let hit = fire(|f| match (*f, term) {
            (Fault::NanLoss { iteration: at }, NonFiniteTerm::FactualLoss) => at == iteration,
            (Fault::NanReg { iteration: at }, NonFiniteTerm::Regularizer) => at == iteration,
            (Fault::NanWeightLoss { iteration: at }, NonFiniteTerm::WeightObjective) => {
                at == iteration
            }
            _ => false,
        });
        if hit.is_some() {
            f64::NAN
        } else {
            value
        }
    }

    /// True when a gradient fault is armed for this iteration (one-shot).
    pub(crate) fn grad_poisoned(iteration: usize) -> bool {
        fire(|f| matches!(*f, Fault::NanGrad { iteration: at } if at == iteration)).is_some()
    }

    /// Sleeps when a stall fault is armed for this iteration (one-shot).
    pub(crate) fn stall(iteration: usize) {
        if let Some(Fault::StallIteration { millis, .. }) =
            fire(|f| matches!(*f, Fault::StallIteration { iteration: at, .. } if at == iteration))
        {
            std::thread::sleep(Duration::from_millis(millis));
        }
    }

    /// Panics when a batcher fault is armed for this batch index (one-shot)
    /// — the serving layer's drop/unwind guards are the subject under test.
    pub(crate) fn batcher_panic(batch: usize) {
        if fire(|f| matches!(*f, Fault::BatcherPanic { batch: at } if at == batch)).is_some() {
            // lint: allow(panic) — the injected fault *is* a panic; chaos
            // tests assert the service degrades to typed errors around it.
            panic!("injected fault: batcher panicked at batch {batch}");
        }
    }

    /// The action for the next server response frame (one-shot per armed
    /// fault; the frame counter advances on every call).
    pub(crate) fn net_response() -> NetAction {
        let frame = NET_FRAME.fetch_add(1, Ordering::SeqCst);
        let hit = fire(|f| {
            matches!(
                *f,
                Fault::NetDrop { frame: at }
                | Fault::NetDelay { frame: at, .. }
                | Fault::NetTrunc { frame: at }
                | Fault::NetGarbage { frame: at }
                if at == frame
            )
        });
        match hit {
            Some(Fault::NetDrop { .. }) => NetAction::Drop,
            Some(Fault::NetDelay { millis, .. }) => NetAction::Delay(millis),
            Some(Fault::NetTrunc { .. }) => NetAction::Truncate,
            Some(Fault::NetGarbage { .. }) => NetAction::Garbage,
            _ => NetAction::None,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_accepts_the_full_grammar() {
            let plan = FaultPlan::parse(
                "nan-loss@10; nan-reg@3,nan-weight-loss@4;nan-grad@5;\
                 stall-iter@2:250;panic-task@1;stall-task@0:50;\
                 batcher-panic@0;net-drop@1;net-delay@2:100;net-trunc@3;net-garbage@4",
            )
            .expect("valid plan");
            assert_eq!(
                plan.faults,
                vec![
                    Fault::NanLoss { iteration: 10 },
                    Fault::NanReg { iteration: 3 },
                    Fault::NanWeightLoss { iteration: 4 },
                    Fault::NanGrad { iteration: 5 },
                    Fault::StallIteration { iteration: 2, millis: 250 },
                    Fault::PanicTask { index: 1 },
                    Fault::StallTask { index: 0, millis: 50 },
                    Fault::BatcherPanic { batch: 0 },
                    Fault::NetDrop { frame: 1 },
                    Fault::NetDelay { frame: 2, millis: 100 },
                    Fault::NetTrunc { frame: 3 },
                    Fault::NetGarbage { frame: 4 },
                ]
            );
            assert_eq!(FaultPlan::parse("").expect("empty is fine"), FaultPlan::default());
        }

        #[test]
        fn parse_rejects_malformed_plans() {
            for bad in [
                "nan-loss",
                "nan-loss@x",
                "bogus@3",
                "stall-iter@3",
                "stall-task@0:abc",
                "net-delay@1",
                "net-drop@x",
            ] {
                assert!(FaultPlan::parse(bad).is_err(), "'{bad}' must be rejected");
            }
        }

        #[test]
        fn net_faults_fire_one_shot_on_their_response_frame() {
            let plan = FaultPlan::parse("net-drop@1;net-delay@2:30").expect("valid");
            let _guard = inject(&plan);
            assert_eq!(net_response(), NetAction::None); // frame 0
            assert_eq!(net_response(), NetAction::Drop); // frame 1
            assert_eq!(net_response(), NetAction::Delay(30)); // frame 2
            assert_eq!(net_response(), NetAction::None); // frame 3
            assert!(!any_armed(), "net faults must disarm as they fire");
        }

        #[test]
        fn faults_fire_one_shot_at_their_site() {
            let plan = FaultPlan::parse("nan-loss@2").expect("valid");
            let _guard = inject(&plan);
            // Wrong term / wrong iteration: passes through.
            assert_eq!(poison(NonFiniteTerm::Regularizer, 2, 1.5), 1.5);
            assert_eq!(poison(NonFiniteTerm::FactualLoss, 1, 1.5), 1.5);
            assert!(any_armed());
            // The armed site fires once, then disarms.
            assert!(poison(NonFiniteTerm::FactualLoss, 2, 1.5).is_nan());
            assert_eq!(poison(NonFiniteTerm::FactualLoss, 2, 1.5), 1.5);
            assert!(!any_armed());
        }

        #[test]
        fn guard_drop_disarms_leftover_faults() {
            {
                let plan = FaultPlan::parse("nan-grad@7").expect("valid");
                let _guard = inject(&plan);
                assert!(any_armed());
            }
            assert!(!any_armed(), "dropping the guard must disarm the plan");
            assert!(!grad_poisoned(7));
        }
    }
}

/// Whether this build compiles in fault injection (the `fault-inject`
/// feature). Plans are process-global and one-shot, so code that would run
/// fits concurrently runs them one at a time when this is `true`: which fit
/// a fault hits must not depend on scheduling.
pub const fn compiled_in() -> bool {
    cfg!(feature = "fault-inject")
}

// ---- No-op shims: the trainer calls these unconditionally; without the
// ---- feature they compile away entirely (zero overhead, no env reads).

/// Arms the `SBRL_FAULTS` plan at fit start (no-op without `fault-inject`).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn fit_begin() {}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::fit_begin;

/// True when any trainer-side fault is armed (always `false` without
/// `fault-inject`).
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn any_armed() -> bool {
    false
}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::any_armed;

/// Identity on `value` without `fault-inject`; with it, returns NaN when a
/// matching fault is armed.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn poison(_term: NonFiniteTerm, _iteration: usize, value: f64) -> f64 {
    value
}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::poison;

/// Always `false` without `fault-inject`.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn grad_poisoned(_iteration: usize) -> bool {
    false
}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::grad_poisoned;

/// No-op without `fault-inject`; with it, sleeps when a stall is armed.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn stall(_iteration: usize) {}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::stall;

/// No-op without `fault-inject`; with it, panics the serving batcher when a
/// fault is armed for this batch index.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn batcher_panic(_batch: usize) {}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::batcher_panic;

/// Always [`NetAction::None`] without `fault-inject`; with it, the armed
/// action for the next server response frame.
#[cfg(not(feature = "fault-inject"))]
#[inline(always)]
pub(crate) fn net_response() -> NetAction {
    NetAction::None
}

#[cfg(feature = "fault-inject")]
pub(crate) use enabled::net_response;
