//! Allocation-free, prefix-sharing dwell-time search engine.
//!
//! The naive dwell search ([`crate::dwell::reference`]) re-simulates every
//! wait/dwell schedule end-to-end: `O(W·D·H)` samples, each one allocating
//! intermediate vectors. This engine produces bitwise-identical settling
//! tables with three layers of speedup:
//!
//! 1. **Allocation-free kernels.** Both closed-loop modes act on the
//!    augmented state `z = [x; u_prev]` through matrices precomputed by
//!    [`SwitchedApplication`], so one simulated sample is a single gemv
//!    between two pre-allocated buffers — zero heap allocations in the
//!    steady-state inner loop. The engine is generic over the
//!    [`LinalgBackend`] executing that gemv: the public [`DwellEngine`]
//!    dispatches to a stack-allocated const-generic kernel when the
//!    augmented dimension fits the static menu (see
//!    [`crate::kernel::BackendChoice`]), so the inner loops monomorphize
//!    with compile-time trip counts.
//! 2. **Prefix sharing.** Schedules `E^w T^d E^…` share structure twice
//!    over: all waits share one event-triggered prefix chain
//!    ([`PrefixChain`], `W` samples total instead of `O(W²)`), and within a
//!    wait the dwell-`d` and dwell-`d+1` schedules share their first
//!    `w + d` samples, so each extra dwell costs one checkpointed
//!    time-triggered step plus its own event-triggered tail.
//! 3. **Certified early exit.** A discrete Lyapunov certificate
//!    `AᵀPA − P = −I` for the event-triggered mode yields a sublevel set
//!    `zᵀPz ≤ v_max` inside which the output provably never leaves half the
//!    settling band again; tails stop as soon as they enter it instead of
//!    running to the horizon.
//!
//! Exactness: the engine and the naive search evaluate the same per-sample
//! recurrences in the same floating-point order (both are `gemv` on the same
//! precomputed matrices, and the backends share a bitwise accumulation-order
//! contract), and the early exit only skips samples that are provably inside
//! the band, so every settling cell matches the reference
//! `Option<usize>`-for-`Option<usize>` on either backend. The
//! oracle-equivalence tests in this module and in `tests/engine_oracle.rs`
//! assert that on the paper's case study and on randomized plants.

use cps_linalg::{
    decomp, lyapunov, DynBackend, LinalgBackend, Matrix, MatrixOps, StaticBackend, VectorOps,
};

use crate::kernel::{resolve_backend, BackendChoice, ResolvedBackend};
use crate::{CoreError, Mode, SwitchedApplication};

/// The event-triggered prefix chain shared by every wait time.
///
/// `state(w)` is the augmented state after `w` event-triggered samples from
/// the canonical disturbance state; `last_violation(w)` is the largest sample
/// index in `0..=w` whose output lies outside the settling band (`None` when
/// all of them are inside). The chain stores flat `f64` checkpoints, so it is
/// shared between backends unchanged.
#[derive(Debug, Clone)]
pub struct PrefixChain {
    dim: usize,
    states: Vec<f64>,
    last_violation: Vec<Option<usize>>,
}

impl PrefixChain {
    /// The checkpointed augmented state after `wait` event-triggered samples.
    ///
    /// # Panics
    ///
    /// Panics if `wait` exceeds the chain length.
    pub fn state(&self, wait: usize) -> &[f64] {
        &self.states[wait * self.dim..(wait + 1) * self.dim]
    }

    /// Largest violating sample index among samples `0..=wait`.
    ///
    /// # Panics
    ///
    /// Panics if `wait` exceeds the chain length.
    pub fn last_violation(&self, wait: usize) -> Option<usize> {
        self.last_violation[wait]
    }
}

/// Reusable simulation buffers; allocated once per row scan, never inside
/// the per-sample loop.
#[derive(Debug)]
struct RowWorkspace<B: LinalgBackend> {
    /// Checkpoint: state at the end of the current TT block.
    z_tt: B::Vector,
    /// Tail cursor.
    z: B::Vector,
    /// gemv destination, swapped with the cursor every step.
    z_next: B::Vector,
}

impl<B: LinalgBackend> RowWorkspace<B> {
    fn like(z0: &B::Vector) -> Self {
        RowWorkspace {
            z_tt: z0.clone(),
            z: z0.clone(),
            z_next: z0.clone(),
        }
    }
}

/// Lyapunov early-exit certificate: once `zᵀPz ≤ v_max`, every future
/// event-triggered output provably stays within half the settling band.
#[derive(Debug, Clone)]
struct TailCertificate<B: LinalgBackend> {
    p: B::Matrix,
    v_max: f64,
}

/// The backend-generic search core: the application's augmented matrices
/// converted onto `B`, plus the certificate. All search methods monomorphize
/// over `B`.
#[derive(Debug, Clone)]
pub struct DwellEngineCore<B: LinalgBackend> {
    a_tt: B::Matrix,
    a_et: B::Matrix,
    c: B::Vector,
    z0: B::Vector,
    threshold: f64,
    certificate: Option<TailCertificate<B>>,
}

impl<B: LinalgBackend> DwellEngineCore<B> {
    fn from_app(app: &SwitchedApplication) -> Result<Self, CoreError> {
        let threshold = app.settling().threshold();
        let a_tt = B::Matrix::from_dyn(app.mode_matrix(Mode::TimeTriggered))?;
        let a_et = B::Matrix::from_dyn(app.mode_matrix(Mode::EventTriggered))?;
        let c = B::Vector::from_dyn(app.augmented_output_row())?;
        let z0 = B::Vector::from_dyn(&app.initial_augmented_state())?;
        let certificate = match build_certificate(app, threshold) {
            Some((p, v_max)) => Some(TailCertificate {
                p: B::Matrix::from_dyn(&p)?,
                v_max,
            }),
            None => None,
        };
        Ok(DwellEngineCore {
            a_tt,
            a_et,
            c,
            z0,
            threshold,
            certificate,
        })
    }

    fn backend_name(&self) -> &'static str {
        B::name()
    }

    fn dim(&self) -> usize {
        self.z0.elements().len()
    }

    fn mode_matrix(&self, mode: Mode) -> &B::Matrix {
        match mode {
            Mode::TimeTriggered => &self.a_tt,
            Mode::EventTriggered => &self.a_et,
        }
    }

    fn prefix_chain(&self, max_wait: usize) -> PrefixChain {
        let dim = self.dim();
        let mut z = self.z0.clone();
        let mut z_next = self.z0.clone();
        let mut states = Vec::with_capacity((max_wait + 1) * dim);
        let mut last_violation = Vec::with_capacity(max_wait + 1);
        let mut viol = violation(self.c.dot(&z), self.threshold, 0);
        states.extend_from_slice(z.elements());
        last_violation.push(viol);
        for wait in 1..=max_wait {
            step::<B>(&self.a_et, &mut z, &mut z_next);
            viol = violation(self.c.dot(&z), self.threshold, wait).or(viol);
            states.extend_from_slice(z.elements());
            last_violation.push(viol);
        }
        PrefixChain {
            dim,
            states,
            last_violation,
        }
    }

    fn pure_mode_settling(&self, mode: Mode, horizon: usize) -> Option<usize> {
        let a = self.mode_matrix(mode);
        let mut z = self.z0.clone();
        let mut z_next = self.z0.clone();
        let mut viol = violation(self.c.dot(&z), self.threshold, 0);
        let early_exit = mode == Mode::EventTriggered;
        for k in 1..=horizon {
            step::<B>(a, &mut z, &mut z_next);
            if out_of_band(self.c.dot(&z), self.threshold) {
                viol = Some(k);
            } else if early_exit && self.inside_safe_set(&z) {
                break;
            }
        }
        settle_index(viol, horizon)
    }

    fn settling_row_with(
        &self,
        prefix: &PrefixChain,
        wait: usize,
        max_dwell: usize,
        horizon: usize,
        ws: &mut RowWorkspace<B>,
        out: &mut Vec<Option<usize>>,
    ) {
        debug_assert!(wait + max_dwell < horizon, "schedule exceeds horizon");
        ws.z_tt.elements_mut().copy_from_slice(prefix.state(wait));
        let prefix_viol = prefix.last_violation(wait);
        let mut tt_viol = None;
        for dwell in 0..=max_dwell {
            if dwell > 0 {
                // Extend the shared TT block by one checkpointed sample.
                step::<B>(&self.a_tt, &mut ws.z_tt, &mut ws.z_next);
                tt_viol = violation(self.c.dot(&ws.z_tt), self.threshold, wait + dwell).or(tt_viol);
            }
            // Only the post-switch event-triggered tail is specific to this
            // dwell; everything before it is shared with dwell − 1.
            ws.z.assign(&ws.z_tt);
            let mut tail_viol = None;
            for k in (wait + dwell + 1)..=horizon {
                step::<B>(&self.a_et, &mut ws.z, &mut ws.z_next);
                if out_of_band(self.c.dot(&ws.z), self.threshold) {
                    tail_viol = Some(k);
                } else if self.inside_safe_set(&ws.z) {
                    // Provably in-band until the horizon: later samples can
                    // no longer move the last-violation index.
                    break;
                }
            }
            // Violations in later segments dominate earlier ones by index.
            let last = tail_viol.or(tt_viol).or(prefix_viol);
            out.push(settle_index(last, horizon));
        }
    }

    fn scan_rows(
        &self,
        prefix: &PrefixChain,
        waits: std::ops::Range<usize>,
        max_dwell: usize,
        horizon: usize,
        mut visit: impl FnMut(&[Option<usize>]) -> bool,
    ) {
        let mut ws = RowWorkspace::<B>::like(&self.z0);
        let mut row = Vec::with_capacity(max_dwell + 1);
        for wait in waits {
            row.clear();
            let row_dwell = max_dwell.min(horizon - wait - 1);
            self.settling_row_with(prefix, wait, row_dwell, horizon, &mut ws, &mut row);
            if !visit(&row) {
                break;
            }
        }
    }

    /// `true` when `z` lies in the certified sublevel set from which the
    /// output can no longer leave the settling band.
    #[inline]
    fn inside_safe_set(&self, z: &B::Vector) -> bool {
        match &self.certificate {
            Some(cert) => cert.p.quad_form(z) <= cert.v_max,
            None => false,
        }
    }
}

/// The fast dwell/settling search engine for one application.
///
/// Construction converts the application's augmented matrices onto the
/// backend picked by the dispatch rule (static fast path for augmented
/// dimensions 2–5, heap-backed otherwise; see
/// [`BackendChoice`]) and precomputes the
/// Lyapunov early-exit certificate; all search entry points then run without
/// per-sample heap allocation. The backend is matched once per call — the
/// per-sample loops are fully monomorphized.
///
/// # Example
///
/// ```
/// use cps_core::{engine::DwellEngine, Mode, SwitchedApplication};
/// use cps_control::{StateFeedback, StateSpace};
/// use cps_linalg::Vector;
///
/// # fn main() -> Result<(), cps_core::CoreError> {
/// let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0])?;
/// let app = SwitchedApplication::builder("demo")
///     .plant(plant)
///     .fast_gain(StateFeedback::from_slice(&[8.0]))
///     .slow_gain(Vector::from_slice(&[1.0, 0.2]))
///     .sampling_period(0.02)
///     .settling_threshold(0.02)
///     .disturbance_state(Vector::from_slice(&[1.0]))
///     .build()?;
/// let engine = DwellEngine::new(&app);
/// // Pure-mode settling matches the trajectory-based simulator.
/// let jt = engine.pure_mode_settling(Mode::TimeTriggered, 300);
/// assert_eq!(jt, Some(app.settling_in_mode(Mode::TimeTriggered, 300)?));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
// One engine exists per dwell search and lives on the caller's stack for the
// whole search; boxing the larger static variants would put a pointer chase in
// front of every stepped kernel, defeating the stack-allocated fast path.
#[allow(clippy::large_enum_variant)]
pub enum DwellEngine {
    /// Stack-allocated core for augmented dimension 2.
    Static2(DwellEngineCore<StaticBackend<2>>),
    /// Stack-allocated core for augmented dimension 3.
    Static3(DwellEngineCore<StaticBackend<3>>),
    /// Stack-allocated core for augmented dimension 4.
    Static4(DwellEngineCore<StaticBackend<4>>),
    /// Stack-allocated core for augmented dimension 5.
    Static5(DwellEngineCore<StaticBackend<5>>),
    /// Heap-backed core for dimensions outside the static menu.
    Dyn(DwellEngineCore<DynBackend>),
}

macro_rules! each_core {
    ($self:expr, $core:ident => $body:expr) => {
        match $self {
            DwellEngine::Static2($core) => $body,
            DwellEngine::Static3($core) => $body,
            DwellEngine::Static4($core) => $body,
            DwellEngine::Static5($core) => $body,
            DwellEngine::Dyn($core) => $body,
        }
    };
}

impl DwellEngine {
    /// Builds the engine with the automatic backend dispatch rule, attempting
    /// to construct the early-exit certificate.
    ///
    /// When the certificate cannot be built (e.g. the event-triggered loop is
    /// not Schur stable) the engine still works, simulating every tail to the
    /// horizon.
    pub fn new(app: &SwitchedApplication) -> Self {
        Self::with_backend(app, BackendChoice::Auto).expect("auto backend resolution is infallible")
    }

    /// Builds the engine on an explicitly chosen backend (used by the bench
    /// harness to compare the dynamic and static paths on one workload).
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
        let engine = match resolve_backend(choice, dim)? {
            ResolvedBackend::Dyn => DwellEngine::Dyn(DwellEngineCore::from_app(app)?),
            ResolvedBackend::Static(2) => DwellEngine::Static2(DwellEngineCore::from_app(app)?),
            ResolvedBackend::Static(3) => DwellEngine::Static3(DwellEngineCore::from_app(app)?),
            ResolvedBackend::Static(4) => DwellEngine::Static4(DwellEngineCore::from_app(app)?),
            ResolvedBackend::Static(5) => DwellEngine::Static5(DwellEngineCore::from_app(app)?),
            ResolvedBackend::Static(n) => unreachable!("dimension {n} is outside the static menu"),
        };
        Ok(engine)
    }

    /// The resolved backend's report name (e.g. `"dyn"`, `"static<3>"`).
    pub fn backend_name(&self) -> &'static str {
        each_core!(self, core => core.backend_name())
    }

    /// Simulates the event-triggered prefix once, checkpointing the state and
    /// the running last-violation index after every sample.
    pub fn prefix_chain(&self, max_wait: usize) -> PrefixChain {
        each_core!(self, core => core.prefix_chain(max_wait))
    }

    /// Settling time of a pure-mode schedule over `horizon` samples, exactly
    /// as [`SwitchedApplication::settling_in_mode`] measures it (but without
    /// materializing a trajectory).
    pub fn pure_mode_settling(&self, mode: Mode, horizon: usize) -> Option<usize> {
        each_core!(self, core => core.pure_mode_settling(mode, horizon))
    }

    /// Computes the settling rows of all waits in `waits`, each with dwell
    /// `0..=min(max_dwell, horizon − wait − 1)`.
    pub fn settling_rows(
        &self,
        prefix: &PrefixChain,
        waits: std::ops::Range<usize>,
        max_dwell: usize,
        horizon: usize,
    ) -> Vec<Vec<Option<usize>>> {
        let mut rows = Vec::with_capacity(waits.len());
        self.scan_rows(prefix, waits, max_dwell, horizon, |row| {
            rows.push(row.to_vec());
            true
        });
        rows
    }

    /// Computes the rows of [`DwellEngine::settling_rows`] one wait after
    /// another into one reused buffer, handing each to `visit`; the scan
    /// stops after the first row for which `visit` returns `false`.
    pub(crate) fn scan_rows(
        &self,
        prefix: &PrefixChain,
        waits: std::ops::Range<usize>,
        max_dwell: usize,
        horizon: usize,
        visit: impl FnMut(&[Option<usize>]) -> bool,
    ) {
        each_core!(self, core => core.scan_rows(prefix, waits, max_dwell, horizon, visit))
    }
}

/// One simulation step: `cursor ← a · cursor`, using `scratch` as the gemv
/// destination. No heap allocation.
#[inline]
fn step<B: LinalgBackend>(a: &B::Matrix, cursor: &mut B::Vector, scratch: &mut B::Vector) {
    a.gemv(cursor, scratch);
    std::mem::swap(cursor, scratch);
}

/// Whether output `y` lies outside the settling band. A NaN output (a loop
/// that diverged past overflow) is outside it, as in
/// [`cps_control::Settling::evaluate`].
#[inline]
fn out_of_band(y: f64, threshold: f64) -> bool {
    y.is_nan() || y.abs() > threshold
}

/// `Some(sample)` when the output violates the band at `sample`.
#[inline]
fn violation(y: f64, threshold: f64, sample: usize) -> Option<usize> {
    out_of_band(y, threshold).then_some(sample)
}

/// Converts a last-violation index over samples `0..=horizon` into the
/// settling cell the naive search produces: `None` when the final sample
/// still violates the band, otherwise the first in-band-forever index.
#[inline]
fn settle_index(last_violation: Option<usize>, horizon: usize) -> Option<usize> {
    match last_violation {
        Some(v) if v == horizon => None,
        Some(v) => Some(v + 1),
        None => Some(0),
    }
}

/// Builds the early-exit certificate for the event-triggered mode, on the
/// dynamic types (construction-time cold path; the caller converts `P` onto
/// its backend).
///
/// With `P` solving `AᵀPA − P = −I`, the function `V(z) = zᵀPz` is
/// non-increasing along event-triggered trajectories, and by Cauchy–Schwarz
/// in the `P`-norm every output satisfies `|c·z|² ≤ (cᵀP⁻¹c)·V(z)`. Inside
/// `V(z) ≤ v_max = (threshold/2)² / (cᵀP⁻¹c)` the output therefore stays
/// within **half** the band forever — the factor-of-two margin dwarfs the
/// `~1e-7` residual of the Lyapunov solve, keeping the exit sound in floating
/// point.
fn build_certificate(app: &SwitchedApplication, threshold: f64) -> Option<(Matrix, f64)> {
    let a = app.mode_matrix(Mode::EventTriggered);
    let q = Matrix::identity(a.rows());
    let p = lyapunov::solve_discrete_lyapunov(a, &q).ok()?;
    if !lyapunov::is_positive_definite(&p).unwrap_or(false) {
        return None;
    }
    let p_inv = decomp::inverse(&p).ok()?;
    let gain = p_inv.quad_form(app.augmented_output_row());
    if !gain.is_finite() || gain <= 0.0 {
        return None;
    }
    let margin = 0.5 * threshold;
    Some((p, margin * margin / gain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dwell, ModeSchedule};
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

    fn naive_row(
        app: &SwitchedApplication,
        wait: usize,
        max_dwell: usize,
        horizon: usize,
    ) -> Vec<Option<usize>> {
        (0..=max_dwell)
            .map(|dwell| {
                let schedule = ModeSchedule::new(wait, dwell, horizon).unwrap();
                let trajectory = app.simulate_modes(&schedule.to_modes()).unwrap();
                app.settling().settling_samples(trajectory.outputs())
            })
            .collect()
    }

    #[test]
    fn demo_app_has_certificate() {
        let app = demo_app();
        let engine = DwellEngine::new(&app);
        assert!(each_core!(&engine, core => core.certificate.is_some()));
    }

    #[test]
    fn auto_dispatch_picks_the_static_menu() {
        let app = demo_app();
        assert_eq!(DwellEngine::new(&app).backend_name(), "static<2>");
    }

    #[test]
    fn forced_backends_produce_identical_rows() {
        let app = demo_app();
        let fast = DwellEngine::with_backend(&app, BackendChoice::ForceStatic).unwrap();
        let slow = DwellEngine::with_backend(&app, BackendChoice::ForceDyn).unwrap();
        assert_eq!(fast.backend_name(), "static<2>");
        assert_eq!(slow.backend_name(), "dyn");
        let prefix_fast = fast.prefix_chain(10);
        let prefix_slow = slow.prefix_chain(10);
        for wait in 0..=10 {
            assert_eq!(prefix_fast.state(wait), prefix_slow.state(wait));
            assert_eq!(
                prefix_fast.last_violation(wait),
                prefix_slow.last_violation(wait)
            );
        }
        assert_eq!(
            fast.settling_rows(&prefix_fast, 0..11, 12, 200),
            slow.settling_rows(&prefix_slow, 0..11, 12, 200)
        );
        for mode in [Mode::TimeTriggered, Mode::EventTriggered] {
            assert_eq!(
                fast.pure_mode_settling(mode, 300),
                slow.pure_mode_settling(mode, 300)
            );
        }
    }

    #[test]
    fn prefix_chain_matches_pure_et_simulation() {
        let app = demo_app();
        let engine = DwellEngine::new(&app);
        let prefix = engine.prefix_chain(30);
        assert_eq!(prefix.last_violation.len(), 31);
        let trajectory = app.simulate_modes(&[Mode::EventTriggered; 30]).unwrap();
        for wait in 0..=30 {
            assert_eq!(
                prefix.state(wait),
                trajectory.states()[wait].as_slice(),
                "prefix state diverges at wait {wait}"
            );
        }
    }

    #[test]
    fn rows_match_naive_simulation_exactly() {
        let app = demo_app();
        let engine = DwellEngine::new(&app);
        let horizon = 250;
        let prefix = engine.prefix_chain(12);
        let rows = engine.settling_rows(&prefix, 0..13, 10, horizon);
        for (wait, row) in rows.iter().enumerate() {
            assert_eq!(row, &naive_row(&app, wait, 10, horizon), "wait {wait}");
        }
    }

    #[test]
    fn early_exit_does_not_change_results() {
        let app = demo_app();
        let fast = DwellEngine::new(&app);
        let mut slow = DwellEngine::new(&app);
        each_core!(&mut slow, core => core.certificate = None);
        assert!(each_core!(&fast, core => core.certificate.is_some()));
        let prefix = fast.prefix_chain(8);
        let rows_fast = fast.settling_rows(&prefix, 0..9, 12, 200);
        let rows_slow = slow.settling_rows(&prefix, 0..9, 12, 200);
        assert_eq!(rows_fast, rows_slow);
    }

    #[test]
    fn pure_mode_settling_matches_trajectory_simulation() {
        let app = demo_app();
        let engine = DwellEngine::new(&app);
        for mode in [Mode::TimeTriggered, Mode::EventTriggered] {
            assert_eq!(
                engine.pure_mode_settling(mode, 300),
                Some(app.settling_in_mode(mode, 300).unwrap()),
                "{mode}"
            );
        }
    }

    #[test]
    fn engine_surface_equals_reference_surface() {
        let app = demo_app();
        let fast = dwell::settling_surface(&app, 8, 10, 200).unwrap();
        let naive = dwell::reference::settling_surface(&app, 8, 10, 200).unwrap();
        assert_eq!(fast, naive);
    }

    #[test]
    fn engine_table_equals_reference_table() {
        let app = demo_app();
        let options = dwell::DwellSearchOptions {
            horizon: 250,
            max_dwell: 20,
            max_wait: 40,
        };
        let fast = dwell::compute_dwell_table(&app, 15, options).unwrap();
        let naive = dwell::reference::compute_dwell_table(&app, 15, options).unwrap();
        assert_eq!(fast, naive);
    }
}
