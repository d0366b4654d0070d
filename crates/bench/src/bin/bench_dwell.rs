//! Dwell-search performance report: naive reference vs. prefix-sharing
//! engine, on the paper's six case-study applications with the default
//! [`DwellSearchOptions`].
//!
//! Every timed configuration is also checked for result equality against the
//! naive oracle, so the report doubles as an end-to-end equivalence run.
//! Writes `BENCH_dwell.json` at the repository root to seed the performance
//! trajectory.
//!
//! Run with `cargo run --release -p cps-bench --bin bench_dwell` (append
//! `-- --quick` for the reduced sizes the CI bench-smoke job uses).

use std::fmt::Write as _;

use cps_apps::case_study::{self, CaseStudyApp};
use cps_bench::report::{quick_flag, timed_best, write_report};
use cps_core::dwell::{
    compute_dwell_table, compute_dwell_table_with_backend, reference, settling_surface,
    DwellSearchOptions,
};
use cps_core::engine::DwellEngine;
use cps_core::BackendChoice;

struct AppReport {
    name: String,
    table_naive_ms: f64,
    table_engine_ms: f64,
    surface_naive_ms: f64,
    surface_engine_ms: f64,
    backend_dyn_ms: f64,
    backend_static_ms: f64,
    backend_static_name: &'static str,
}

impl AppReport {
    fn table_speedup(&self) -> f64 {
        self.table_naive_ms / self.table_engine_ms
    }

    fn surface_speedup(&self) -> f64 {
        self.surface_naive_ms / self.surface_engine_ms
    }

    fn backend_speedup(&self) -> f64 {
        self.backend_dyn_ms / self.backend_static_ms
    }
}

fn main() {
    let quick = quick_flag();
    let options = if quick {
        // The reduced search window the case-study reproduction itself uses;
        // small enough for a CI smoke run, still covering every app.
        CaseStudyApp::fast_search_options()
    } else {
        DwellSearchOptions::default()
    };
    let apps = case_study::all_applications().expect("published case-study data is valid");

    let mut reports = Vec::new();
    for app in &apps {
        let a = app.application();
        let jstar = app.jstar();

        let (naive_table, table_naive_ms) =
            timed_best(|| reference::compute_dwell_table(a, jstar, options).expect("computes"));
        let (engine_table, table_engine_ms) =
            timed_best(|| compute_dwell_table(a, jstar, options).expect("computes"));
        assert_eq!(
            naive_table,
            engine_table,
            "{}: table oracle mismatch",
            a.name()
        );

        let (naive_surface, surface_naive_ms) = timed_best(|| {
            reference::settling_surface(a, options.max_wait, options.max_dwell, options.horizon)
                .expect("computes")
        });
        let (engine_surface, surface_engine_ms) = timed_best(|| {
            settling_surface(a, options.max_wait, options.max_dwell, options.horizon)
                .expect("computes")
        });
        assert_eq!(
            naive_surface,
            engine_surface,
            "{}: surface oracle mismatch",
            a.name()
        );

        // Backend comparison: the same table workload forced
        // onto the heap-backed and the stack-allocated linalg kernels. The
        // static path must reproduce the oracle exactly (its floating-point
        // sequence is bitwise identical by construction, so the settling
        // sample counts cannot differ).
        let backend_static_name = DwellEngine::with_backend(a, BackendChoice::ForceStatic)
            .expect("case-study augmented dimensions fit the static menu")
            .backend_name();
        let (dyn_table, backend_dyn_ms) = timed_best(|| {
            compute_dwell_table_with_backend(a, jstar, options, BackendChoice::ForceDyn)
                .expect("computes")
        });
        let (static_table, backend_static_ms) = timed_best(|| {
            compute_dwell_table_with_backend(a, jstar, options, BackendChoice::ForceStatic)
                .expect("computes")
        });
        assert_eq!(
            naive_table,
            dyn_table,
            "{}: forced-dyn table oracle mismatch",
            a.name()
        );
        assert_eq!(
            naive_table,
            static_table,
            "{}: forced-static table oracle mismatch",
            a.name()
        );

        let report = AppReport {
            name: a.name().to_string(),
            table_naive_ms,
            table_engine_ms,
            surface_naive_ms,
            surface_engine_ms,
            backend_dyn_ms,
            backend_static_ms,
            backend_static_name,
        };
        println!(
            "{}: table {:8.2} ms -> {:6.2} ms ({:5.1}x) | \
             surface {:8.2} ms -> {:6.2} ms ({:5.1}x) | \
             backend dyn {:6.2} ms vs {} {:6.2} ms ({:4.2}x)",
            report.name,
            report.table_naive_ms,
            report.table_engine_ms,
            report.table_speedup(),
            report.surface_naive_ms,
            report.surface_engine_ms,
            report.surface_speedup(),
            report.backend_dyn_ms,
            report.backend_static_name,
            report.backend_static_ms,
            report.backend_speedup(),
        );
        reports.push(report);
    }

    let json = render_json(quick, &options, &reports);
    write_report("dwell", &json);

    let worst_table = reports
        .iter()
        .map(AppReport::table_speedup)
        .fold(f64::INFINITY, f64::min);
    let worst_surface = reports
        .iter()
        .map(AppReport::surface_speedup)
        .fold(f64::INFINITY, f64::min);
    let worst_backend = reports
        .iter()
        .map(AppReport::backend_speedup)
        .fold(f64::INFINITY, f64::min);
    println!(
        "worst single-thread speedup: table {worst_table:.1}x, surface {worst_surface:.1}x, \
         static backend {worst_backend:.2}x"
    );
}

fn render_json(quick: bool, options: &DwellSearchOptions, reports: &[AppReport]) -> String {
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(
        json,
        "  \"options\": {{\"horizon\": {}, \"max_dwell\": {}, \"max_wait\": {}}},",
        options.horizon, options.max_dwell, options.max_wait
    );
    let backend_dyn_total: f64 = reports.iter().map(|r| r.backend_dyn_ms).sum();
    let backend_static_total: f64 = reports.iter().map(|r| r.backend_static_ms).sum();
    let _ = writeln!(json, "  \"backend_dyn_total_ms\": {backend_dyn_total:.3},");
    let _ = writeln!(
        json,
        "  \"backend_static_total_ms\": {backend_static_total:.3},"
    );
    let _ = writeln!(
        json,
        "  \"backend_static_speedup\": {:.2},",
        backend_dyn_total / backend_static_total
    );
    json.push_str("  \"apps\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \
             \"table_naive_ms\": {:.3}, \"table_engine_ms\": {:.3}, \
             \"table_speedup\": {:.1}, \
             \"surface_naive_ms\": {:.3}, \"surface_engine_ms\": {:.3}, \
             \"surface_speedup\": {:.1}, \
             \"backend_dyn_ms\": {:.3}, \"backend_static_ms\": {:.3}, \
             \"backend\": \"{}\", \"backend_speedup\": {:.2}}}{}",
            r.name,
            r.table_naive_ms,
            r.table_engine_ms,
            r.table_speedup(),
            r.surface_naive_ms,
            r.surface_engine_ms,
            r.surface_speedup(),
            r.backend_dyn_ms,
            r.backend_static_ms,
            r.backend_static_name,
            r.backend_speedup(),
            if i + 1 == reports.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    json
}
