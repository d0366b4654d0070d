//! Backend selection for the augmented-state stepping loops.
//!
//! Every hot loop in the workspace advances the augmented closed-loop state
//! `z = [x; u_prev]` with one gemv per sample. This module decides *which*
//! linalg backend executes that gemv. [`BackendChoice`] is the public
//! selection knob: [`BackendChoice::Auto`] (the default) picks the
//! stack-allocated [`cps_linalg::StaticBackend`] when the application's
//! augmented dimension fits the compile-time menu (2–5, covering every
//! case-study plant), falling back to the heap-backed
//! [`cps_linalg::DynBackend`] otherwise. The forced variants exist so
//! benches and tests can pit the two implementations against each other on
//! identical workloads. The dwell engine ([`crate::engine::DwellEngine`])
//! resolves the choice once per application.
//!
//! Both backends produce bitwise-identical trajectories (the
//! [`cps_linalg::backend`] contract), so switching the dispatch rule can
//! never change a settling time or a dwell table — only how fast they are
//! computed.

use crate::CoreError;

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
    /// Always use the heap-backed [`cps_linalg::DynBackend`].
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
