//! The conservative (prior-work style) worst-case-blocking screen.
//!
//! The exact checker in [`crate::checker`] explores the discrete-time
//! semantics of the paper's model. The analyses the paper compares against
//! reason much more coarsely: each application sharing the slot must survive
//! the **worst-case blocking** `B_i = Σ_{j≠i} T_dw^{-*}(j)` — every other
//! occupant holding the slot for its longest minimum dwell, back to back —
//! before its deadline `D_i = T_w^*`. This module answers that check in
//! closed form, `B_i ≤ D_i` per application, in one pass over the slot's
//! occupants — cheap enough to serve as the admission cascade's degraded
//! screen.
//!
//! The verdict is *conservative*: a mapping it accepts is schedulable under
//! any work-conserving arbiter, but it may reject mappings the exact,
//! dwell-table-aware checker proves safe — that gap is precisely the paper's
//! point, and [`crate::checker::verify`] is the exact reference.

use cps_core::AppTimingProfile;

use crate::{SlotSharingModel, VerifyError};

/// Per-application verdict of the conservative analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservativeAppVerdict {
    name: String,
    deadline: i64,
    blocking: i64,
    safe: bool,
}

impl ConservativeAppVerdict {
    /// The application's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deadline `D = T_w^*` used for the check.
    pub fn deadline(&self) -> i64 {
        self.deadline
    }

    /// The worst-case blocking `B = Σ_{j≠i} T_dw^{-*}(j)` used for the check.
    pub fn blocking(&self) -> i64 {
        self.blocking
    }

    /// `true` when the application provably meets its deadline under the
    /// worst-case blocking (`B ≤ D`).
    pub fn safe(&self) -> bool {
        self.safe
    }
}

/// The outcome of the conservative slot-mapping analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConservativeOutcome {
    verdicts: Vec<ConservativeAppVerdict>,
}

impl ConservativeOutcome {
    /// `true` when every application survives its worst-case blocking.
    pub fn schedulable(&self) -> bool {
        self.verdicts.iter().all(ConservativeAppVerdict::safe)
    }

    /// The per-application verdicts in mapping order.
    pub fn verdicts(&self) -> &[ConservativeAppVerdict] {
        &self.verdicts
    }
}

/// Runs the conservative worst-case-blocking analysis of the slot mapping.
pub fn verify_conservative(model: &SlotSharingModel) -> ConservativeOutcome {
    let selected: Vec<&AppTimingProfile> = model.profiles().iter().collect();
    conservative_over(&selected)
}

/// [`verify_conservative`] over the sub-mapping selecting `members` (indices
/// into `profiles`) as the slot's occupants — the borrow-only hook mirroring
/// [`crate::SlotVerifyEngine::verify_selected`], used by the admission
/// cascade as its sound degraded screen when the exact verification runs out
/// of budget.
///
/// # Errors
///
/// [`VerifyError::EmptyModel`] when `members` is empty and
/// [`VerifyError::InvalidConfig`] when a member index is out of bounds.
pub fn verify_conservative_selected(
    profiles: &[AppTimingProfile],
    members: &[usize],
) -> Result<ConservativeOutcome, VerifyError> {
    if members.is_empty() {
        return Err(VerifyError::EmptyModel);
    }
    let mut selected = Vec::with_capacity(members.len());
    for &m in members {
        let profile = profiles.get(m).ok_or_else(|| VerifyError::InvalidConfig {
            reason: format!(
                "member index {m} is out of range for {} profiles",
                profiles.len()
            ),
        })?;
        selected.push(profile);
    }
    Ok(conservative_over(&selected))
}

/// The shared core: each occupant is blocked by every other occupant's
/// longest minimum dwell, checked against its own deadline.
fn conservative_over(profiles: &[&AppTimingProfile]) -> ConservativeOutcome {
    let dwell = |p: &AppTimingProfile| p.dwell_table().max_t_dw_min() as i64;
    let total: i64 = profiles.iter().map(|p| dwell(p)).sum();
    let verdicts = profiles
        .iter()
        .map(|profile| {
            let blocking = total - dwell(profile);
            let deadline = profile.max_wait() as i64;
            ConservativeAppVerdict {
                name: profile.name().to_string(),
                deadline,
                blocking,
                safe: blocking <= deadline,
            }
        })
        .collect();
    ConservativeOutcome { verdicts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_core::{AppTimingProfile, DwellTimeTable};

    fn profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
        let jstar = max_wait + dwell + 1;
        let table = DwellTimeTable::from_arrays(
            jstar,
            vec![dwell; max_wait + 1],
            vec![dwell; max_wait + 1],
        )
        .unwrap();
        AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
    }

    #[test]
    fn single_application_is_always_conservatively_safe() {
        // No competitor → zero blocking.
        let model = SlotSharingModel::new(vec![profile("A", 5, 3, 30)]).unwrap();
        let outcome = verify_conservative(&model);
        assert!(outcome.schedulable());
        assert_eq!(outcome.verdicts().len(), 1);
        assert_eq!(outcome.verdicts()[0].blocking(), 0);
    }

    #[test]
    fn blocking_beyond_the_deadline_is_rejected() {
        // B's dwell (9) exceeds A's deadline (5): the conservative analysis
        // must reject the mapping.
        let model =
            SlotSharingModel::new(vec![profile("A", 5, 3, 40), profile("B", 20, 9, 40)]).unwrap();
        let outcome = verify_conservative(&model);
        assert!(!outcome.schedulable());
        let a = &outcome.verdicts()[0];
        assert_eq!(a.name(), "A");
        assert_eq!(a.deadline(), 5);
        assert_eq!(a.blocking(), 9);
        assert!(!a.safe());
        // B can absorb A's short dwell.
        assert!(outcome.verdicts()[1].safe());
    }

    #[test]
    fn conservative_verdict_matches_the_arithmetic() {
        // With constant dwell tables the conservative verdict reduces to
        // `Σ_{j≠i} dwell_j ≤ D_i` for every application.
        for (wait_a, wait_b, dwell) in [(10, 10, 4), (3, 10, 4), (8, 8, 9)] {
            let model = SlotSharingModel::new(vec![
                profile("A", wait_a, dwell, 60),
                profile("B", wait_b, dwell, 60),
            ])
            .unwrap();
            let outcome = verify_conservative(&model);
            let expected = dwell as i64 <= wait_a as i64 && dwell as i64 <= wait_b as i64;
            assert_eq!(outcome.schedulable(), expected);
        }
    }

    #[test]
    fn selected_matches_the_cloned_submodel() {
        let fleet = [
            profile("A", 5, 3, 30),
            profile("B", 20, 9, 40),
            profile("C", 10, 4, 60),
        ];
        let selections: &[&[usize]] = &[&[0], &[1, 2], &[0, 1], &[2, 0, 1]];
        for members in selections {
            let selected = verify_conservative_selected(&fleet, members).unwrap();
            let cloned: Vec<AppTimingProfile> = members.iter().map(|&i| fleet[i].clone()).collect();
            let model = SlotSharingModel::new(cloned).unwrap();
            assert_eq!(selected, verify_conservative(&model));
        }
    }

    #[test]
    fn selected_rejects_empty_and_out_of_range_members() {
        let fleet = [profile("A", 5, 3, 30)];
        assert_eq!(
            verify_conservative_selected(&fleet, &[]).unwrap_err(),
            VerifyError::EmptyModel
        );
        assert!(matches!(
            verify_conservative_selected(&fleet, &[1]).unwrap_err(),
            VerifyError::InvalidConfig { .. }
        ));
    }

    #[test]
    fn conservative_is_no_more_permissive_than_the_exact_checker() {
        // Any mapping the conservative analysis accepts must also be accepted
        // by the exact discrete-time checker.
        use crate::checker::{verify, VerificationConfig};
        for (wait_a, wait_b) in [(10, 10), (4, 10), (2, 2)] {
            let model = SlotSharingModel::new(vec![
                profile("A", wait_a, 3, 30),
                profile("B", wait_b, 3, 30),
            ])
            .unwrap();
            let conservative = verify_conservative(&model);
            let exact = verify(&model, &VerificationConfig::default()).unwrap();
            if conservative.schedulable() {
                assert!(exact.schedulable());
            }
        }
    }
}
