//! End-to-end and per-layer benchmark of the dimensioning pipeline and the
//! online admission service.
//!
//! Three workloads run through the public APIs of `cps-apps`, `cps-map` and
//! `cps-admit`; `README.md` next to this crate records why each was chosen,
//! which layer metric should move which end-to-end metric, and the lessons
//! the design rests on.
//!
//! * [`Workload::CaseStudyMinimize`]: the paper's own question, the optimal
//!   slot partition of the six case-study applications.
//! * [`Workload::AdmitChurnCold`]: seeded arrival/departure rounds, each
//!   served by a freshly spawned service with empty caches.
//! * [`Workload::AdmitChurnWarm`]: the same rounds, each served by a service
//!   restarted from the snapshot its cold replay left behind.
//!
//! An untraced run reports the [`END_TO_END`] metrics. A traced run records
//! spans around the calls into each layer and reports the [`PER_LAYER`]
//! metrics. Every engine runs at worker-pool width 1: [`run`] refuses any
//! other width, because on a two-CPU host the sharded verifier's thread
//! spawns were the largest source of run-to-run noise.

pub mod case_study;
pub mod churn;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use cps_map::TierStats;

use stats::ratio;
use trace::Span;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `minimize_slots` over the six case-study profiles.
    CaseStudyMinimize,
    /// Admission churn rounds, each on an empty-cache service.
    AdmitChurnCold,
    /// The same rounds, each on a service restarted warm.
    AdmitChurnWarm,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CaseStudyMinimize,
        Workload::AdmitChurnCold,
        Workload::AdmitChurnWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CaseStudyMinimize => "case_study_minimize",
            Workload::AdmitChurnCold => "admit_churn_cold",
            Workload::AdmitChurnWarm => "admit_churn_warm",
        }
    }

    /// The workload with this command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Every input is generated from this seed.
    pub seed: u64,
    /// How long the timed loop runs at least. Each workload also runs a
    /// minimum of ops and ends on a whole op or cycle of rounds, so a run
    /// may overshoot.
    pub seconds: Duration,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
}

/// A metric's name, unit, and whether it is a deterministic count: the same
/// on every run at one seed, whatever the timing.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Deterministic count or ratio of counts.
    pub exact: bool,
}

const fn spec(name: &'static str, unit: &'static str, exact: bool) -> MetricSpec {
    MetricSpec { name, unit, exact }
}

/// Metrics of an untraced run, the same on every workload.
pub const END_TO_END: [MetricSpec; 5] = [
    spec("setup_s", "s", false),
    spec("latency_p50_ms", "ms", false),
    spec("latency_tail_ms", "ms", false),
    spec("throughput_per_s", "1/s", false),
    spec("peak_rss_mb", "MB", false),
];

/// Metrics of a traced run. Every traced run reports all of them; a layer
/// the workload does not exercise reads 0. Counts cover the run's counted
/// pass (see the workload modules); percentiles pool every sample.
pub const PER_LAYER: [MetricSpec; 38] = [
    spec("core.profiles_ms", "ms", false),
    spec("core.dwell_table_max_ms", "ms", false),
    spec("verify.exact_ms", "ms", false),
    spec("verify.exact_ms_per_call", "ms", false),
    spec("verify.intern_probes", "count", true),
    spec("verify.hash_hits", "count", true),
    spec("verify.states_interned", "count", true),
    spec("verify.dedup_rate", "ratio", true),
    spec("verify.hash_skips", "count", true),
    spec("verify.deep_compares", "count", true),
    spec("verify.rehashes", "count", true),
    spec("verify.rehashed_entries", "count", true),
    spec("verify.hash_slot_updates", "count", true),
    spec("verify.full_hash_words", "count", true),
    spec("map.add_app_p50_us", "us", false),
    spec("map.add_app_p99_us", "us", false),
    spec("map.remove_app_p50_us", "us", false),
    spec("map.remove_app_p99_us", "us", false),
    spec("map.self_ms", "ms", false),
    spec("map.queries", "count", true),
    spec("map.queries_per_request", "ratio", true),
    spec("map.memo_hits", "count", true),
    spec("map.memo_hit_rate", "ratio", true),
    spec("map.quick_rejects", "count", true),
    spec("map.anti_monotone_rejects", "count", true),
    spec("map.baseline_accepts", "count", true),
    spec("map.exact_verifies", "count", true),
    spec("map.tt_evictions", "count", true),
    spec("map.minimize_nodes", "count", true),
    spec("intern.snapshot_encode_p50_us", "us", false),
    spec("intern.snapshot_bytes", "bytes", true),
    spec("intern.snapshot_decode_ms", "ms", false),
    spec("admit.round_trip_p50_us", "us", false),
    spec("admit.round_trip_p99_us", "us", false),
    spec("admit.self_p50_us", "us", false),
    spec("admit.unaccounted_share", "ratio", false),
    spec("admit.recovery_snapshots", "count", true),
    spec("trace.latency_p50_ms", "ms", false),
];

/// The metrics a run in this mode reports.
pub fn metric_specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness check passed.
    pub correct: bool,
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops that returned an error.
    pub failed: u64,
    /// Metric values by name: every metric of the run's mode.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines: sample counts, the tail percentile used, and
    /// any failed check.
    pub notes: Vec<String>,
    /// Spans of a traced run, in opening order.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Records a failed correctness check.
    pub(crate) fn fail_check(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and each
    /// metric of the mode with its unit.
    pub fn to_json(&self, trace: bool) -> String {
        let metrics: Vec<String> = metric_specs(trace)
            .iter()
            .map(|m| {
                let value = self.metrics.get(m.name).copied().unwrap_or(0.0);
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite float with every digit (`Display` prints the shortest string
/// that reads back exactly); JSON has no NaN or infinity.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// A nonzero xorshift state for input stream `stream` of `seed` (the
/// splitmix64 finalizer, so neighbouring seeds give unrelated inputs).
pub(crate) fn seed_state(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) | 1
}

/// The counts of a cascade-stats value, without its wall-clock field: what
/// must repeat exactly between runs at one seed.
pub(crate) fn counts_of(tier: &TierStats) -> TierStats {
    TierStats {
        exact_verify_time: Duration::ZERO,
        ..*tier
    }
}

/// The per-layer `verify.*` and `map.*` counts of a cascade-stats delta that
/// served `requests` requests.
pub(crate) fn insert_tier_counts(
    metrics: &mut BTreeMap<&'static str, f64>,
    tier: &TierStats,
    requests: usize,
) {
    let v = &tier.verify;
    for (name, count) in [
        ("verify.intern_probes", v.intern_probes),
        ("verify.hash_hits", v.hash_hits),
        ("verify.states_interned", v.intern_probes - v.hash_hits),
        ("verify.hash_skips", v.hash_skips),
        ("verify.deep_compares", v.deep_compares),
        ("verify.rehashes", v.rehashes),
        ("verify.rehashed_entries", v.rehashed_entries),
        ("verify.hash_slot_updates", v.hash_slot_updates),
        ("verify.full_hash_words", v.full_hash_words),
        ("map.queries", tier.queries),
        ("map.memo_hits", tier.memo_hits),
        ("map.quick_rejects", tier.quick_rejects),
        ("map.anti_monotone_rejects", tier.anti_monotone_rejects),
        ("map.baseline_accepts", tier.baseline_accepts),
        ("map.exact_verifies", tier.exact_verifies),
        ("map.tt_evictions", tier.tt_evictions),
    ] {
        metrics.insert(name, count as f64);
    }
    metrics.insert(
        "verify.dedup_rate",
        ratio(v.hash_hits as f64, v.intern_probes as f64),
    );
    metrics.insert(
        "map.memo_hit_rate",
        ratio(tier.memo_hits as f64, tier.queries as f64),
    );
    metrics.insert(
        "map.queries_per_request",
        ratio(tier.queries as f64, requests as f64),
    );
}

/// Fills the end-to-end metrics from the median set-up time, every op's
/// latency in milliseconds, the workload's tail percentile `tail_p` and the
/// timed loop's busy time, and notes the sample count and the percentile.
pub(crate) fn insert_end_to_end(
    outcome: &mut Outcome,
    setup_s: f64,
    latencies_ms: Vec<f64>,
    tail_p: f64,
    busy: Duration,
) {
    let n = latencies_ms.len();
    let sorted = stats::sorted(latencies_ms);
    let Some(tail) = stats::tail(&sorted, tail_p) else {
        outcome.fail_check(format!(
            "{n} ops leave fewer than {} beyond p{tail_p}",
            stats::TAIL_BEYOND
        ));
        return;
    };
    let m = &mut outcome.metrics;
    m.insert("setup_s", setup_s);
    m.insert("latency_p50_ms", stats::percentile(&sorted, 50.0));
    m.insert("latency_tail_ms", tail);
    m.insert("throughput_per_s", ratio(n as f64, busy.as_secs_f64()));
    m.insert("peak_rss_mb", stats::peak_rss_mb());
    outcome.notes.push(format!(
        "latency over {n} ops; latency_tail_ms is p{tail_p}; throughput over {:.3} s busy",
        busy.as_secs_f64()
    ));
}

/// Runs one workload.
///
/// # Errors
///
/// A worker-pool width other than 1, or a set-up step that cannot complete
/// (a failed op or check is reported in the [`Outcome`] instead).
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let width = cps_par::Pool::from_env().threads();
    if width != 1 {
        return Err(format!(
            "the worker pool is {width} threads wide; run with {}=1",
            cps_par::THREADS_ENV
        ));
    }
    let mut outcome = match config.workload {
        Workload::CaseStudyMinimize => case_study::run(config)?,
        Workload::AdmitChurnCold => churn::run(config, false)?,
        Workload::AdmitChurnWarm => churn::run(config, true)?,
    };
    let specs = metric_specs(config.trace);
    for name in outcome.metrics.keys() {
        assert!(
            specs.iter().any(|m| m.name == *name),
            "metric {name} is not declared for this mode"
        );
    }
    for m in specs {
        outcome.metrics.entry(m.name).or_insert(0.0);
    }
    Ok(outcome)
}
