//! Prefix-sharing batch co-simulation engine.
//!
//! [`CosimScenario::run`] is the retained oracle: per scenario it rebuilds
//! the scheduler, expands every mode sequence and re-simulates every
//! closed-loop trajectory end-to-end, allocating one heap vector per
//! simulated sample. That is fine for a single figure, but evaluating a
//! *family* of disturbance scenarios (a staggered fleet, a contention sweep,
//! a recurrent-disturbance storm) repeats almost all of that work: scenarios
//! that agree on a prefix of arbiter grants drive every application through
//! bitwise-identical state prefixes.
//!
//! [`BatchCosimEngine`] exploits that, mirroring the dwell engine
//! (`cps_core::engine`):
//!
//! 1. **Allocation-free kernels.** Each application's closed loop is
//!    advanced by a [`cps_core::AugmentedKernel`] — one in-place gemv between
//!    two pre-allocated buffers per sample, zero heap allocations in the
//!    inner loop. The kernel dispatches to a stack-allocated const-generic
//!    linalg backend when the augmented dimension fits the static menu (see
//!    [`cps_core::BackendChoice`]); all backends step bitwise identically.
//! 2. **Prefix sharing via checkpoints.** For every application (and every
//!    response window of a recurrent pattern) the engine keeps the last
//!    simulated mode pattern together with a checkpoint of the augmented
//!    state after *every* sample. A new scenario first diffs its mode
//!    pattern against the cached one; the shared prefix — everything up to
//!    the first grant that differs — is taken from the checkpoints, and only
//!    the diverging suffix is re-simulated. A scenario whose grants match
//!    entirely costs one memcpy.
//! 3. **Settling reuse.** A full-pattern hit also reuses the cached settling
//!    time instead of re-scanning the output trajectory.
//!
//! Exactness: the engine replays the same per-sample gemv recurrence in the
//! same floating-point order as [`SwitchedApplication::simulate_modes`], and
//! the scheduler itself is shared verbatim, so every [`CosimResult`] is
//! **bitwise identical** to the oracle's — trajectories, settling times and
//! schedule alike. `tests/engine_oracle.rs` asserts that on unit and
//! randomized scenarios, and `cps-bench/bench_cosim` re-asserts it on every
//! benchmark run.
//!
//! # Example
//!
//! ```
//! use cps_control::{StateFeedback, StateSpace};
//! use cps_core::{dwell::DwellSearchOptions, AppTimingProfile, SwitchedApplication};
//! use cps_linalg::Vector;
//! use cps_sched::cosim::{CosimApp, CosimScenario};
//! use cps_sched::BatchCosimEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let plant = StateSpace::from_slices(&[&[0.95]], &[0.1], &[1.0])?;
//! let application = SwitchedApplication::builder("demo")
//!     .plant(plant)
//!     .fast_gain(StateFeedback::from_slice(&[8.0]))
//!     .slow_gain(Vector::from_slice(&[1.0, 0.2]))
//!     .sampling_period(0.02)
//!     .settling_threshold(0.02)
//!     .disturbance_state(Vector::from_slice(&[1.0]))
//!     .build()?;
//! let profile = AppTimingProfile::from_application(
//!     &application,
//!     15,
//!     40,
//!     DwellSearchOptions { horizon: 200, max_dwell: 20, max_wait: 40 },
//! )?;
//! let app = CosimApp { application, profile, disturbance_sample: 0 };
//! let scenario = CosimScenario::new(vec![app], 120)?;
//! let mut engine = BatchCosimEngine::from_scenario(&scenario)?;
//! // The engine result is bitwise identical to the oracle's.
//! assert_eq!(engine.run_staggered(&[0])?, scenario.run()?);
//! # Ok(())
//! # }
//! ```

use cps_core::{sequence, AugmentedKernel, BackendChoice, Mode, SwitchedApplication};

use crate::cosim::{CosimApp, CosimResult, CosimScenario};
use crate::{SchedError, SlotScheduler};

/// Cached simulation of one response window: the mode pattern last simulated
/// for this window (as its window-relative TT sample positions plus length —
/// two patterns agree up to the first grant that differs, so the diff is
/// `O(#grants)`, not `O(horizon)`), a checkpoint of the augmented state after
/// every sample, the output samples, and the settling time of the window.
#[derive(Debug, Clone, Default)]
struct WindowCache {
    /// Window-relative TT sample positions of the cached pattern (sorted).
    tt: Vec<usize>,
    /// Cached window length in samples.
    length: usize,
    /// `(length + 1) * dim` checkpointed augmented states;
    /// `states[p*dim..(p+1)*dim]` is the state after `p` samples.
    states: Vec<f64>,
    /// `length + 1` output samples.
    outputs: Vec<f64>,
    /// Settling time over the cached window (always in sync with `tt` /
    /// `length` — it is recomputed whenever they change).
    settling: Option<usize>,
}

/// Per-application engine state: the canonical post-disturbance augmented
/// state, the backend-dispatched stepping kernel, and one [`WindowCache`] per
/// response window (recurrent patterns have one window per disturbance).
#[derive(Debug)]
struct AppEngineState {
    dim: usize,
    z0: Vec<f64>,
    windows: Vec<WindowCache>,
    kernel: AugmentedKernel,
}

impl AppEngineState {
    fn new(app: &SwitchedApplication, backend: BackendChoice) -> Result<Self, SchedError> {
        let kernel = AugmentedKernel::with_backend(app, backend)?;
        let z0 = app.initial_augmented_state();
        Ok(AppEngineState {
            dim: z0.len(),
            z0: z0.as_slice().to_vec(),
            windows: Vec::new(),
            kernel,
        })
    }
}

/// The prefix-sharing batch co-simulation engine (see the module docs).
///
/// One engine owns one [`SlotScheduler`] (one slot, one application set, one
/// horizon) and is driven with many disturbance scenarios; caches persist
/// across calls, so ordering a family so that neighbouring scenarios agree
/// on a prefix of grants maximizes sharing (the generators in
/// [`crate::scenarios`] produce such orders).
#[derive(Debug)]
pub struct BatchCosimEngine {
    apps: Vec<CosimApp>,
    scheduler: SlotScheduler,
    horizon: usize,
    states: Vec<AppEngineState>,
    sampling_periods: Vec<f64>,
    requirements: Vec<usize>,
    /// Fans the independent per-application checkpoint chains of
    /// [`BatchCosimEngine::run`] out across workers; every result is reduced
    /// in application order, so it is bitwise identical for any thread count.
    pool: cps_par::Pool,
}

impl BatchCosimEngine {
    /// Creates an engine for the given applications and horizon.
    ///
    /// The `disturbance_sample` carried by each [`CosimApp`] is ignored —
    /// disturbance times are supplied per scenario through
    /// [`BatchCosimEngine::run`] / [`BatchCosimEngine::run_staggered`].
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidScenario`] when no applications are given
    /// or the horizon is zero.
    pub fn new(apps: Vec<CosimApp>, horizon: usize) -> Result<Self, SchedError> {
        BatchCosimEngine::with_backend(apps, horizon, BackendChoice::Auto)
    }

    /// [`BatchCosimEngine::new`] on an explicitly chosen linalg backend for
    /// every application kernel (used by the bench harness to compare the
    /// dynamic and static stepping paths on the same scenario family).
    ///
    /// # Errors
    ///
    /// As for [`BatchCosimEngine::new`], plus a propagated
    /// [`cps_core::CoreError::InvalidParameter`] when
    /// [`BackendChoice::ForceStatic`] is requested for an application whose
    /// augmented dimension is outside the static menu.
    pub fn with_backend(
        apps: Vec<CosimApp>,
        horizon: usize,
        backend: BackendChoice,
    ) -> Result<Self, SchedError> {
        if horizon == 0 {
            return Err(SchedError::InvalidScenario {
                reason: "horizon must be at least one sample".to_string(),
            });
        }
        let profiles = apps.iter().map(|a| a.profile.clone()).collect();
        let scheduler = SlotScheduler::new(profiles)?;
        let states = apps
            .iter()
            .map(|a| AppEngineState::new(&a.application, backend))
            .collect::<Result<Vec<_>, _>>()?;
        let sampling_periods = apps
            .iter()
            .map(|a| a.application.sampling_period())
            .collect();
        let requirements = apps.iter().map(|a| a.profile.jstar()).collect();
        Ok(BatchCosimEngine {
            apps,
            scheduler,
            horizon,
            states,
            sampling_periods,
            requirements,
            pool: cps_par::Pool::from_env(),
        })
    }

    /// Replaces the worker pool the per-application chains run on (builder
    /// style). Results are bitwise identical for every pool; the pool only
    /// decides how many chains advance concurrently.
    #[must_use]
    pub fn with_pool(mut self, pool: cps_par::Pool) -> Self {
        self.pool = pool;
        self
    }

    /// The linalg backend the application kernels run on: the common kernel
    /// name when every application agrees (e.g. `"dyn"` or `"static<2>"`),
    /// `"mixed"` otherwise.
    pub fn backend_name(&self) -> &'static str {
        let mut names = self.states.iter().map(|s| s.kernel.backend_name());
        let first = names.next().unwrap_or("dyn");
        if names.all(|n| n == first) {
            first
        } else {
            "mixed"
        }
    }

    /// Creates an engine over the applications and horizon of an existing
    /// oracle scenario.
    ///
    /// # Errors
    ///
    /// As for [`BatchCosimEngine::new`].
    pub fn from_scenario(scenario: &CosimScenario) -> Result<Self, SchedError> {
        BatchCosimEngine::new(scenario.apps().to_vec(), scenario.horizon())
    }

    /// The engine's applications.
    pub fn apps(&self) -> &[CosimApp] {
        &self.apps
    }

    /// The co-simulation horizon in samples.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Co-simulates one disturbance pattern (`disturbances[i]` lists the
    /// samples at which application `i` is disturbed, sorted ascending; apps
    /// may be disturbed multiple times or not at all).
    ///
    /// Semantics per application:
    ///
    /// * each disturbance opens a **response window** that runs up to the
    ///   next disturbance (exclusive) or the horizon — the same windowing as
    ///   [`crate::AppScheduleTrace::tt_samples_relative_to`];
    /// * every window restarts the closed loop from the canonical
    ///   post-disturbance state and is simulated against the TT samples the
    ///   scheduler granted inside the window;
    /// * `outputs` stitches the windows into absolute time (steady state
    ///   before the first disturbance);
    /// * `settling_samples` reports the **worst** window (`None` as soon as
    ///   any window fails to settle), so requirement checks cover every
    ///   disturbance;
    /// * an application that is never disturbed sits at steady state and
    ///   reports a settling time of zero.
    ///
    /// For single-disturbance patterns this is exactly
    /// [`CosimScenario::run`], bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates scheduler validation and simulation failures.
    pub fn run(&mut self, disturbances: &[Vec<usize>]) -> Result<CosimResult, SchedError> {
        let schedule = self.scheduler.schedule(disturbances, self.horizon)?;
        let horizon = self.horizon;
        let apps = &self.apps;
        let traces = schedule.traces();
        // The per-application checkpoint chains share no state by
        // construction (each touches only its own caches), so the pool fans
        // them out; `map_mut` reduces in application order, which keeps
        // every float bitwise identical to the serial loop.
        let per_app: Vec<(Vec<f64>, Option<usize>)> =
            self.pool.map_mut(&mut self.states, |index, state| {
                let times = &disturbances[index];
                let trace = &traces[index];
                let mut absolute = vec![0.0; horizon + 1];
                let mut worst = Some(0);
                for (window, &t0) in times.iter().enumerate() {
                    let end = times.get(window + 1).copied().unwrap_or(horizon);
                    let settling = advance_window(
                        &apps[index].application,
                        state,
                        window,
                        t0,
                        end,
                        &trace.tt_samples,
                    );
                    let cache = &state.windows[window];
                    let length = end - t0;
                    // Non-final windows surrender their boundary sample to
                    // the next window's fresh disturbance output.
                    let copied = if window + 1 == times.len() {
                        length + 1
                    } else {
                        length
                    };
                    absolute[t0..t0 + copied].copy_from_slice(&cache.outputs[..copied]);
                    worst = match (worst, settling) {
                        (Some(acc), Some(s)) => Some(acc.max(s)),
                        _ => None,
                    };
                }
                (absolute, worst)
            });
        let mut outputs = Vec::with_capacity(self.apps.len());
        let mut settling_samples = Vec::with_capacity(self.apps.len());
        for (absolute, worst) in per_app {
            outputs.push(absolute);
            settling_samples.push(worst);
        }
        Ok(CosimResult {
            outputs,
            settling_samples,
            schedule,
            sampling_periods: self.sampling_periods.clone(),
            requirements: self.requirements.clone(),
        })
    }

    /// Co-simulates a staggered scenario: application `i` is disturbed once,
    /// at `t0s[i]`. Bitwise identical to [`CosimScenario::run`] on the same
    /// applications and horizon.
    ///
    /// # Errors
    ///
    /// Propagates scheduler validation and simulation failures.
    pub fn run_staggered(&mut self, t0s: &[usize]) -> Result<CosimResult, SchedError> {
        let pattern: Vec<Vec<usize>> = t0s.iter().map(|&t| vec![t]).collect();
        self.run(&pattern)
    }

    /// Runs a whole family of disturbance patterns, sharing checkpoints
    /// between consecutive scenarios.
    ///
    /// # Errors
    ///
    /// Propagates the first failing scenario's error.
    pub fn run_batch(
        &mut self,
        patterns: &[Vec<Vec<usize>>],
    ) -> Result<Vec<CosimResult>, SchedError> {
        patterns.iter().map(|p| self.run(p)).collect()
    }
}

/// Ensures `state.windows[window]` caches exactly the response window
/// `[t0, end)` of the given TT grant trace, re-simulating only the suffix
/// that diverges from the cached pattern. Returns the window's settling time.
fn advance_window(
    app: &SwitchedApplication,
    state: &mut AppEngineState,
    window: usize,
    t0: usize,
    end: usize,
    tt_samples: &[usize],
) -> Option<usize> {
    let length = end - t0;
    let dim = state.dim;
    while state.windows.len() <= window {
        state.windows.push(WindowCache::default());
    }
    let cache = &mut state.windows[window];
    if cache.states.is_empty() {
        // Seed the chain with the canonical post-disturbance state; its
        // output goes through the same kernel the loop uses.
        cache.states.extend_from_slice(&state.z0);
        state.kernel.load(&state.z0);
        cache.outputs.push(state.kernel.output());
    }

    // TT samples inside the window, as a sorted absolute subslice.
    let lo = tt_samples.partition_point(|&s| s < t0);
    let hi = tt_samples.partition_point(|&s| s < end);
    let tt = &tt_samples[lo..hi];

    // Number of leading TT grants the cached and expected patterns share.
    let shared = cache
        .tt
        .iter()
        .zip(tt.iter())
        .take_while(|(&cached, &abs)| cached == abs - t0)
        .count();
    if shared == cache.tt.len() && shared == tt.len() && cache.length == length {
        // Full hit: pattern and window length unchanged, reuse everything.
        return cache.settling;
    }

    // The mode patterns agree up to the first diverging grant (or the
    // shorter window): restore that checkpoint and re-simulate the suffix.
    let mut prefix = cache.length.min(length);
    if shared < cache.tt.len() {
        prefix = prefix.min(cache.tt[shared]);
    }
    if shared < tt.len() {
        prefix = prefix.min(tt[shared] - t0);
    }
    cache.tt.truncate(cache.tt.partition_point(|&s| s < prefix));
    cache.states.truncate((prefix + 1) * dim);
    cache.outputs.truncate(prefix + 1);
    cache.length = length;
    state
        .kernel
        .load(&cache.states[prefix * dim..(prefix + 1) * dim]);
    let mut tt_index = tt.partition_point(|&s| s - t0 < prefix);
    for p in prefix..length {
        let mode = if tt_index < tt.len() && tt[tt_index] - t0 == p {
            tt_index += 1;
            cache.tt.push(p);
            Mode::TimeTriggered
        } else {
            Mode::EventTriggered
        };
        state.kernel.advance(mode);
        cache.states.extend_from_slice(state.kernel.state());
        cache.outputs.push(state.kernel.output());
    }
    cache.settling = app.settling().settling_samples(&cache.outputs);
    cache.settling
}

/// Asserts that two co-simulation results are equal down to the bit level:
/// full structural equality plus `to_bits` equality of every output sample
/// (`==` on `f64` would accept `0.0 == -0.0`). Shared by the oracle-
/// equivalence tests and the `bench_cosim` harness; panics with `label` on
/// the first divergence.
#[doc(hidden)]
pub fn assert_bitwise_equal(label: &str, fast: &CosimResult, oracle: &CosimResult) {
    assert_eq!(fast, oracle, "{label}: engine/oracle results differ");
    for (app, (e, o)) in fast
        .outputs()
        .iter()
        .zip(oracle.outputs().iter())
        .enumerate()
    {
        assert_eq!(e.len(), o.len(), "{label}: app {app} output length");
        for (k, (a, b)) in e.iter().zip(o.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: app {app} output bit-diverges at sample {k}"
            );
        }
    }
}

/// The naive multi-window reference: the same windowed semantics as
/// [`BatchCosimEngine::run`], realized with the oracle's machinery
/// ([`SwitchedApplication::simulate_modes`] per window, full re-simulation,
/// no sharing). For single-disturbance patterns it coincides bitwise with
/// [`CosimScenario::run`]; for recurrent patterns it is the retained oracle
/// the engine is checked against.
///
/// # Errors
///
/// Propagates scheduler validation and simulation failures.
pub fn reference_pattern(
    apps: &[CosimApp],
    horizon: usize,
    disturbances: &[Vec<usize>],
) -> Result<CosimResult, SchedError> {
    let profiles = apps.iter().map(|a| a.profile.clone()).collect();
    let scheduler = SlotScheduler::new(profiles)?;
    let schedule = scheduler.schedule(disturbances, horizon)?;
    let mut outputs = Vec::with_capacity(apps.len());
    let mut settling_samples = Vec::with_capacity(apps.len());
    for (index, app) in apps.iter().enumerate() {
        let times = &disturbances[index];
        let trace = &schedule.traces()[index];
        let mut absolute = vec![0.0; horizon + 1];
        let mut worst = Some(0);
        for (window, &t0) in times.iter().enumerate() {
            let end = times.get(window + 1).copied().unwrap_or(horizon);
            let length = end - t0;
            let tt_relative = trace.tt_samples_relative_to(t0);
            let modes = sequence::modes_from_tt_samples(length, &tt_relative)?;
            let trajectory = app.application.simulate_modes(&modes)?;
            let settling = app
                .application
                .settling()
                .settling_samples(trajectory.outputs());
            let copied = if window + 1 == times.len() {
                length + 1
            } else {
                length
            };
            absolute[t0..t0 + copied].copy_from_slice(&trajectory.outputs()[..copied]);
            worst = match (worst, settling) {
                (Some(acc), Some(s)) => Some(acc.max(s)),
                _ => None,
            };
        }
        outputs.push(absolute);
        settling_samples.push(worst);
    }
    Ok(CosimResult {
        outputs,
        settling_samples,
        schedule,
        sampling_periods: apps
            .iter()
            .map(|a| a.application.sampling_period())
            .collect(),
        requirements: apps.iter().map(|a| a.profile.jstar()).collect(),
    })
}
