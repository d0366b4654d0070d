//! Shared experiment harness for regenerating the paper's tables and
//! figures and for measuring the engines behind them.
//!
//! The crate holds two kinds of binaries under `src/bin/`:
//!
//! * the figure and table binaries (`fig*`, `table*`,
//!   `verification_times`), which print the reproduced rows or series next
//!   to the published values;
//! * the `bench_*` binaries, which time an engine against its oracle, assert
//!   that both give the same result, and write a `BENCH_<name>.json` report
//!   at the repository root.
//!
//! This library holds what they share: the case-study inputs and text
//! formatting below, the report protocol ([`report`]) and the synthetic
//! fleet generators ([`fleet`]).

use cps_apps::case_study::{self, CaseStudyApp};
use cps_core::AppTimingProfile;

pub mod fleet;
pub mod report;

/// Returns the six case-study applications in the paper's order.
///
/// # Panics
///
/// Panics if the published case-study data fails to build, which cannot
/// happen for the constants shipped with `cps-apps`.
pub fn case_study_apps() -> Vec<CaseStudyApp> {
    case_study::all_applications().expect("published case-study data is valid")
}

/// Timing profiles of the case study taken directly from the published
/// Table 1 arrays (no simulation) — used by scheduling/verification
/// experiments that do not need the plant dynamics.
///
/// # Panics
///
/// Panics if the published rows are inconsistent, which cannot happen for the
/// constants shipped with `cps-apps`.
pub fn published_profiles() -> Vec<AppTimingProfile> {
    case_study_apps()
        .iter()
        .map(|app| {
            app.paper_row()
                .to_profile(app.application().name())
                .expect("published rows are consistent")
        })
        .collect()
}

/// Renders a settling-time series as a compact text row used by the figure
/// binaries.
pub fn format_series(label: &str, values: &[f64]) -> String {
    let rendered: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("{label}: [{}]", rendered.join(", "))
}

/// Formats a `T_dw` array the way the paper prints it.
pub fn format_dwell_array(values: &[usize]) -> String {
    let rendered: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", rendered.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_profiles_cover_all_six_applications() {
        let profiles = published_profiles();
        assert_eq!(profiles.len(), 6);
        assert_eq!(profiles[0].name(), "C1");
        assert_eq!(profiles[5].name(), "C6");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(format_series("x", &[1.0, 0.5]), "x: [1.000, 0.500]");
        assert_eq!(format_dwell_array(&[3, 4, 5]), "[3,4,5]");
    }
}
