//! The paper's EDF-like arbitration policy.
//!
//! The deadline of a waiting application is `D = T_w^* − T_w`: the number of
//! samples it can still afford to wait. Whenever the slot is free (or its
//! occupant is preemptible), the waiting application with the smallest `D`
//! wins; ties are broken by the lower application index so the policy is
//! deterministic.

/// Selects the application with the smallest remaining laxity from an
/// iterator of `(application index, waited samples, maximum wait)` triples.
///
/// Applications that have already exceeded their maximum wait are treated as
/// having zero laxity (they are the most urgent); the caller is responsible
/// for flagging the requirement violation.
///
/// Returns `None` when the iterator is empty.
///
/// # Example
///
/// ```
/// use cps_sched::arbiter::select_by_laxity;
///
/// assert_eq!(select_by_laxity(std::iter::empty()), None);
/// assert_eq!(select_by_laxity([(4, 0, 10)].into_iter()), Some(4));
/// // Equal laxity: the lower index wins.
/// assert_eq!(select_by_laxity([(3, 2, 8), (1, 2, 8)].into_iter()), Some(1));
/// ```
pub fn select_by_laxity(waiting: impl Iterator<Item = (usize, usize, usize)>) -> Option<usize> {
    waiting
        .map(|(index, waited, max_wait)| (max_wait.saturating_sub(waited), index))
        .min()
        .map(|(_, index)| index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_laxity_wins() {
        // App 0: laxity 8, app 1: laxity 7, app 2: laxity 24.
        let waiting = [(0, 3, 11), (1, 5, 12), (2, 1, 25)];
        assert_eq!(select_by_laxity(waiting.iter().copied()), Some(1));
    }

    #[test]
    fn ties_break_by_index() {
        let waiting = [(5, 2, 10), (3, 4, 12), (1, 0, 8)];
        // All three have laxity 8 → index 1 wins.
        assert_eq!(select_by_laxity(waiting.iter().copied()), Some(1));
    }

    #[test]
    fn overdue_applications_are_most_urgent() {
        let waiting = [(0, 15, 11), (1, 0, 25)];
        assert_eq!(select_by_laxity(waiting.iter().copied()), Some(0));
    }

    #[test]
    fn empty_input_selects_nobody() {
        assert_eq!(select_by_laxity(std::iter::empty()), None);
    }
}
