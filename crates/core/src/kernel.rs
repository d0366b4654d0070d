//! Backend selection and the monomorphized augmented-state stepping kernel.
//!
//! Every hot loop in the workspace advances the augmented closed-loop state
//! `z = [x; u_prev]` with one gemv per sample. This module decides *which*
//! linalg backend executes that gemv:
//!
//! - [`BackendChoice`] is the public selection knob. [`BackendChoice::Auto`]
//!   (the default) picks the stack-allocated
//!   [`StaticBackend`](cps_linalg::StaticBackend) when the application's
//!   augmented dimension fits the compile-time menu (2–5, covering every
//!   case-study plant), falling back to the heap-backed [`DynBackend`]
//!   otherwise. The forced variants exist so benches and tests can pit the
//!   two implementations against each other on identical workloads.
//! - [`ModeKernel`] owns the per-application matrices and cursor buffers for
//!   one backend: a monomorphized simulate/advance core with no per-sample
//!   heap allocation and, on the static path, no runtime bounds dispatch.
//! - [`AugmentedKernel`] is the enum-dispatch wrapper engines embed: the
//!   backend is matched once per call, the inner loops are fully
//!   monomorphized.
//!
//! Both backends produce bitwise-identical trajectories (the
//! [`cps_linalg::backend`] contract), so switching the dispatch rule can
//! never change a settling time, a dwell table or a co-simulation verdict —
//! only how fast they are computed.

use cps_linalg::{DynBackend, LinalgBackend, LinalgError, MatrixOps, StaticBackend, VectorOps};

use crate::{CoreError, Mode, SwitchedApplication};

/// Smallest augmented dimension with a monomorphized static kernel.
pub const STATIC_MENU_MIN: usize = 2;
/// Largest augmented dimension with a monomorphized static kernel.
pub const STATIC_MENU_MAX: usize = 5;

/// Which linalg backend an engine should run its hot loops on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Use the static fast path when the augmented dimension is in `2..=5`;
    /// otherwise the heap-backed dynamic backend. This is the right choice
    /// everywhere except backend-comparison benches.
    #[default]
    Auto,
    /// Always use the heap-backed [`DynBackend`].
    ForceDyn,
    /// Require a static kernel; constructing an engine for an application
    /// whose augmented dimension is outside the menu fails with
    /// [`CoreError::InvalidParameter`].
    ForceStatic,
}

/// Backend resolved against a concrete augmented dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ResolvedBackend {
    Dyn,
    Static(usize),
}

/// Applies the dispatch rule: static iff forced, or auto with `dim` inside
/// the menu.
pub(crate) fn resolve_backend(
    choice: BackendChoice,
    dim: usize,
) -> Result<ResolvedBackend, CoreError> {
    let in_menu = (STATIC_MENU_MIN..=STATIC_MENU_MAX).contains(&dim);
    match choice {
        BackendChoice::Auto | BackendChoice::ForceStatic if in_menu => {
            Ok(ResolvedBackend::Static(dim))
        }
        BackendChoice::Auto | BackendChoice::ForceDyn => Ok(ResolvedBackend::Dyn),
        BackendChoice::ForceStatic => Err(CoreError::InvalidParameter {
            reason: format!(
                "no static kernel for augmented dimension {dim} \
                 (menu is {STATIC_MENU_MIN}..={STATIC_MENU_MAX})"
            ),
        }),
    }
}

/// The monomorphized stepping core for one application on one backend.
///
/// Owns backend-typed copies of both mode matrices, the output row, the
/// canonical initial state, and the cursor/scratch pair the advance loop
/// swaps between. All kernel methods are infallible: dimensions are fixed at
/// construction, so the shape errors the dynamic API had to surface per call
/// cannot occur here (and on the static backend they are unrepresentable).
#[derive(Debug, Clone)]
pub struct ModeKernel<B: LinalgBackend> {
    a_tt: B::Matrix,
    a_et: B::Matrix,
    c: B::Vector,
    z0: B::Vector,
    cursor: B::Vector,
    scratch: B::Vector,
}

impl<B: LinalgBackend> ModeKernel<B> {
    /// Converts the application's precomputed augmented matrices onto `B`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when the backend cannot represent the
    /// application's augmented dimension (a static kernel of the wrong size).
    pub fn from_app(app: &SwitchedApplication) -> Result<Self, LinalgError> {
        let a_tt = B::Matrix::from_dyn(app.mode_matrix(Mode::TimeTriggered))?;
        let a_et = B::Matrix::from_dyn(app.mode_matrix(Mode::EventTriggered))?;
        let c = B::Vector::from_dyn(app.augmented_output_row())?;
        let z0 = B::Vector::from_dyn(&app.initial_augmented_state())?;
        let cursor = z0.clone();
        let scratch = z0.clone();
        Ok(ModeKernel {
            a_tt,
            a_et,
            c,
            z0,
            cursor,
            scratch,
        })
    }

    /// Augmented dimension.
    pub fn dim(&self) -> usize {
        self.z0.dim()
    }

    /// Resets the cursor to the canonical initial augmented state.
    pub fn reset(&mut self) {
        self.cursor.assign(&self.z0);
    }

    /// Loads an arbitrary checkpointed state into the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the augmented dimension.
    pub fn load(&mut self, state: &[f64]) {
        self.cursor.elements_mut().copy_from_slice(state);
    }

    /// Borrow the current augmented state.
    pub fn state(&self) -> &[f64] {
        self.cursor.elements()
    }

    /// One closed-loop sample in `mode`: `cursor ← A_mode · cursor`.
    #[inline]
    pub fn advance(&mut self, mode: Mode) {
        let a = match mode {
            Mode::TimeTriggered => &self.a_tt,
            Mode::EventTriggered => &self.a_et,
        };
        a.gemv(&self.cursor, &mut self.scratch);
        std::mem::swap(&mut self.cursor, &mut self.scratch);
    }

    /// The scalar output `y = c · cursor` at the current state.
    #[inline]
    pub fn output(&self) -> f64 {
        self.c.dot(&self.cursor)
    }
}

/// Enum-dispatch wrapper over [`ModeKernel`] instantiations: one variant per
/// static menu entry plus the dynamic fallback.
///
/// Engines embed this and match once per call; the per-sample loops run in
/// the monomorphized kernel behind the variant.
#[derive(Debug, Clone)]
pub enum AugmentedKernel {
    /// Stack-allocated kernel for augmented dimension 2.
    Static2(ModeKernel<StaticBackend<2>>),
    /// Stack-allocated kernel for augmented dimension 3.
    Static3(ModeKernel<StaticBackend<3>>),
    /// Stack-allocated kernel for augmented dimension 4.
    Static4(ModeKernel<StaticBackend<4>>),
    /// Stack-allocated kernel for augmented dimension 5.
    Static5(ModeKernel<StaticBackend<5>>),
    /// Heap-backed fallback for dimensions outside the static menu.
    Dyn(ModeKernel<DynBackend>),
}

macro_rules! each_kernel {
    ($self:expr, $k:ident => $body:expr) => {
        match $self {
            AugmentedKernel::Static2($k) => $body,
            AugmentedKernel::Static3($k) => $body,
            AugmentedKernel::Static4($k) => $body,
            AugmentedKernel::Static5($k) => $body,
            AugmentedKernel::Dyn($k) => $body,
        }
    };
}

impl AugmentedKernel {
    /// Builds the kernel for `app` under the given dispatch choice.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when
    /// [`BackendChoice::ForceStatic`] is requested for an augmented dimension
    /// outside the static menu.
    pub fn with_backend(
        app: &SwitchedApplication,
        choice: BackendChoice,
    ) -> Result<Self, CoreError> {
        let dim = app.mode_matrix(Mode::EventTriggered).rows();
        let kernel = match resolve_backend(choice, dim)? {
            ResolvedBackend::Dyn => AugmentedKernel::Dyn(ModeKernel::from_app(app)?),
            ResolvedBackend::Static(2) => AugmentedKernel::Static2(ModeKernel::from_app(app)?),
            ResolvedBackend::Static(3) => AugmentedKernel::Static3(ModeKernel::from_app(app)?),
            ResolvedBackend::Static(4) => AugmentedKernel::Static4(ModeKernel::from_app(app)?),
            ResolvedBackend::Static(5) => AugmentedKernel::Static5(ModeKernel::from_app(app)?),
            ResolvedBackend::Static(n) => unreachable!("dimension {n} is outside the static menu"),
        };
        Ok(kernel)
    }

    /// Builds the kernel with the [`BackendChoice::Auto`] dispatch rule,
    /// which cannot fail: the resolved backend always fits the dimension.
    pub fn auto(app: &SwitchedApplication) -> Self {
        Self::with_backend(app, BackendChoice::Auto).expect("auto backend resolution is infallible")
    }

    /// The resolved backend's report name (e.g. `"dyn"`, `"static<3>"`).
    pub fn backend_name(&self) -> &'static str {
        match self {
            AugmentedKernel::Static2(_) => StaticBackend::<2>::name(),
            AugmentedKernel::Static3(_) => StaticBackend::<3>::name(),
            AugmentedKernel::Static4(_) => StaticBackend::<4>::name(),
            AugmentedKernel::Static5(_) => StaticBackend::<5>::name(),
            AugmentedKernel::Dyn(_) => DynBackend::name(),
        }
    }

    /// `true` when the kernel runs on a stack-allocated static backend.
    pub fn is_static(&self) -> bool {
        !matches!(self, AugmentedKernel::Dyn(_))
    }

    /// Augmented dimension.
    pub fn dim(&self) -> usize {
        each_kernel!(self, k => k.dim())
    }

    /// Resets the cursor to the canonical initial augmented state.
    pub fn reset(&mut self) {
        each_kernel!(self, k => k.reset());
    }

    /// Loads an arbitrary checkpointed state into the cursor.
    ///
    /// # Panics
    ///
    /// Panics if `state.len()` differs from the augmented dimension.
    pub fn load(&mut self, state: &[f64]) {
        each_kernel!(self, k => k.load(state));
    }

    /// Borrow the current augmented state.
    pub fn state(&self) -> &[f64] {
        each_kernel!(self, k => k.state())
    }

    /// One closed-loop sample in `mode`.
    #[inline]
    pub fn advance(&mut self, mode: Mode) {
        each_kernel!(self, k => k.advance(mode));
    }

    /// The scalar output at the current state.
    #[inline]
    pub fn output(&self) -> f64 {
        each_kernel!(self, k => k.output())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_control::{StateFeedback, StateSpace};
    use cps_linalg::Vector;

    fn demo_app() -> SwitchedApplication {
        let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0]).unwrap();
        SwitchedApplication::builder("demo")
            .plant(plant)
            .fast_gain(StateFeedback::from_slice(&[8.0]))
            .slow_gain(Vector::from_slice(&[1.0, 0.2]))
            .sampling_period(0.02)
            .settling_threshold(0.02)
            .disturbance_state(Vector::from_slice(&[1.0]))
            .build()
            .unwrap()
    }

    #[test]
    fn resolution_follows_the_dispatch_rule() {
        assert_eq!(
            resolve_backend(BackendChoice::ForceDyn, 3).unwrap(),
            ResolvedBackend::Dyn
        );
        assert_eq!(
            resolve_backend(BackendChoice::ForceStatic, 3).unwrap(),
            ResolvedBackend::Static(3)
        );
        assert!(matches!(
            resolve_backend(BackendChoice::ForceStatic, 9),
            Err(CoreError::InvalidParameter { .. })
        ));
        // Auto never fails, for any dimension.
        assert!(resolve_backend(BackendChoice::Auto, 1).is_ok());
        assert!(resolve_backend(BackendChoice::Auto, 99).is_ok());
        assert_eq!(
            resolve_backend(BackendChoice::Auto, 4).unwrap(),
            ResolvedBackend::Static(4)
        );
    }

    #[test]
    fn forced_backends_step_bitwise_identically() {
        let app = demo_app();
        let mut fast = AugmentedKernel::with_backend(&app, BackendChoice::ForceStatic).unwrap();
        let mut slow = AugmentedKernel::with_backend(&app, BackendChoice::ForceDyn).unwrap();
        assert!(fast.is_static());
        assert!(!slow.is_static());
        assert_eq!(fast.backend_name(), "static<2>");
        assert_eq!(slow.backend_name(), "dyn");
        assert_eq!(fast.dim(), slow.dim());
        let schedule = [
            Mode::EventTriggered,
            Mode::TimeTriggered,
            Mode::TimeTriggered,
            Mode::EventTriggered,
            Mode::EventTriggered,
        ];
        for _ in 0..3 {
            fast.reset();
            slow.reset();
            assert_eq!(fast.output().to_bits(), slow.output().to_bits());
            for &mode in &schedule {
                fast.advance(mode);
                slow.advance(mode);
                for (a, b) in fast.state().iter().zip(slow.state().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                assert_eq!(fast.output().to_bits(), slow.output().to_bits());
            }
        }
    }

    #[test]
    fn kernel_matches_the_application_level_simulator() {
        let app = demo_app();
        let mut kernel = AugmentedKernel::auto(&app);
        let modes = [Mode::EventTriggered; 4]
            .into_iter()
            .chain([Mode::TimeTriggered; 6])
            .chain([Mode::EventTriggered; 10])
            .collect::<Vec<_>>();
        let trajectory = app.simulate_modes(&modes).unwrap();
        kernel.reset();
        assert_eq!(kernel.state(), trajectory.states()[0].as_slice());
        for (k, &mode) in modes.iter().enumerate() {
            kernel.advance(mode);
            assert_eq!(
                kernel.state(),
                trajectory.states()[k + 1].as_slice(),
                "state diverges at sample {}",
                k + 1
            );
            assert_eq!(
                kernel.output().to_bits(),
                trajectory.outputs()[k + 1].to_bits()
            );
        }
        // load() restores an arbitrary checkpoint.
        let mid = trajectory.states()[5].as_slice();
        kernel.load(mid);
        assert_eq!(kernel.state(), mid);
    }
}
