//! Counterexample witnesses for failed verifications, and the validator
//! that runs each one through the concrete scheduler of `cps-sched`.

use std::fmt;

use cps_sched::first_miss;

use crate::{SlotSharingModel, VerifyError};

/// One event along a counterexample trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A disturbance was sensed by the given application at the given sample.
    Disturbance {
        /// Index of the application within the model.
        app: usize,
        /// Sample at which the disturbance was sensed.
        sample: usize,
    },
    /// The application missed its deadline: it had waited longer than its
    /// maximum admissible wait `T_w^*` without being granted the slot.
    DeadlineMissed {
        /// Index of the application within the model.
        app: usize,
        /// Sample at which the miss was detected.
        sample: usize,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Disturbance { app, sample } => {
                write!(f, "sample {sample}: disturbance at application {app}")
            }
            TraceEvent::DeadlineMissed { app, sample } => {
                write!(f, "sample {sample}: application {app} missed its deadline")
            }
        }
    }
}

/// A counterexample: the disturbance scenario that leads to a deadline miss.
///
/// The scenario is replayable: feeding the same disturbance arrival times to
/// the scheduler of `cps-sched` reproduces the failing schedule, which is
/// what [`validate_witness`] checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    events: Vec<TraceEvent>,
    failing_app: usize,
    missed_at_sample: usize,
}

impl Witness {
    /// Creates a witness from its events and the failing application.
    pub fn new(events: Vec<TraceEvent>, failing_app: usize, missed_at_sample: usize) -> Self {
        Witness {
            events,
            failing_app,
            missed_at_sample,
        }
    }

    /// The trace events in chronological order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// The application (model index) that misses its deadline.
    pub fn failing_app(&self) -> usize {
        self.failing_app
    }

    /// The sample at which the miss is detected.
    pub fn missed_at_sample(&self) -> usize {
        self.missed_at_sample
    }

    /// The disturbance arrival samples per application, extracted from the
    /// trace; index `i` lists the samples at which application `i` was
    /// disturbed.
    pub fn disturbance_times(&self, applications: usize) -> Vec<Vec<usize>> {
        let mut times = vec![Vec::new(); applications];
        for event in &self.events {
            if let TraceEvent::Disturbance { app, sample } = event {
                if *app < applications {
                    times[*app].push(*sample);
                }
            }
        }
        times
    }
}

/// Validates a witness against the model it was produced for: its trace
/// must name only applications of the model and end with its claimed miss,
/// and its disturbance schedule, run through the concrete scheduler
/// [`cps_sched::first_miss`], must make the claimed application miss its
/// deadline at the claimed sample. The scheduler steps concrete samples
/// and shares no code with the verifier's symbolic explorations, so it
/// checks them independently.
///
/// # Errors
///
/// Returns [`VerifyError::InvalidWitness`] when the trace names an
/// application outside the model, does not end with its claimed miss or
/// names another one, or when the scheduler disagrees with the witness: it
/// refuses the schedule (unsorted times, disturbances closer than the
/// minimum inter-arrival time, or a disturbance of an application that is
/// not idle), misses nothing, misses at a different sample, or misses
/// different applications.
pub fn validate_witness(model: &SlotSharingModel, witness: &Witness) -> Result<(), VerifyError> {
    let invalid = |reason: String| VerifyError::InvalidWitness { reason };
    for event in witness.events() {
        let (TraceEvent::Disturbance { app, .. } | TraceEvent::DeadlineMissed { app, .. }) = event;
        if *app >= model.len() {
            return Err(invalid(format!(
                "event \"{event}\" names an application outside the model's {} applications",
                model.len()
            )));
        }
    }
    let claim = TraceEvent::DeadlineMissed {
        app: witness.failing_app(),
        sample: witness.missed_at_sample(),
    };
    let misses = witness
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::DeadlineMissed { .. }))
        .count();
    if misses != 1 || witness.events().last() != Some(&claim) {
        return Err(invalid(format!(
            "the trace must end with its claimed miss \"{claim}\" and record no other"
        )));
    }
    let members: Vec<usize> = (0..model.len()).collect();
    let disturbances = witness.disturbance_times(model.len());
    match first_miss(model.profiles(), &members, &disturbances)
        .map_err(|e| invalid(e.to_string()))?
    {
        None => Err(invalid(format!(
            "the witness schedule produces no deadline miss \
             (claimed: application {} at sample {})",
            witness.failing_app(),
            witness.missed_at_sample()
        ))),
        Some((_, sample)) if sample != witness.missed_at_sample() => Err(invalid(format!(
            "the schedule misses at sample {sample}, witness claims sample {}",
            witness.missed_at_sample()
        ))),
        Some((missing, sample)) if !missing.contains(&witness.failing_app()) => {
            Err(invalid(format!(
                "the schedule misses applications {missing:?} at sample {sample}, \
                 witness claims application {}",
                witness.failing_app()
            )))
        }
        Some(_) => Ok(()),
    }
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "application {} misses its deadline at sample {}:",
            self.failing_app, self.missed_at_sample
        )?;
        for event in &self.events {
            writeln!(f, "  {event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_witness() -> Witness {
        Witness::new(
            vec![
                TraceEvent::Disturbance { app: 0, sample: 0 },
                TraceEvent::Disturbance { app: 1, sample: 0 },
                TraceEvent::Disturbance { app: 1, sample: 30 },
                TraceEvent::DeadlineMissed { app: 1, sample: 12 },
            ],
            1,
            12,
        )
    }

    #[test]
    fn accessors() {
        let w = sample_witness();
        assert_eq!(w.failing_app(), 1);
        assert_eq!(w.missed_at_sample(), 12);
        assert_eq!(w.events().len(), 4);
    }

    #[test]
    fn disturbance_times_group_by_application() {
        let w = sample_witness();
        let times = w.disturbance_times(2);
        assert_eq!(times[0], vec![0]);
        assert_eq!(times[1], vec![0, 30]);
        // Out-of-range application indices are ignored rather than panicking.
        let times = w.disturbance_times(1);
        assert_eq!(times.len(), 1);
    }

    #[test]
    fn display_is_human_readable() {
        let text = sample_witness().to_string();
        assert!(text.contains("application 1 misses"));
        assert!(text.contains("sample 0: disturbance at application 0"));
    }

    mod replay {
        use super::super::*;
        use crate::checker::{verify, VerificationConfig};
        use cps_core::{AppTimingProfile, DwellTimeTable};

        fn profile(name: &str, max_wait: usize, dwell: usize, r: usize) -> AppTimingProfile {
            let len = max_wait + 1;
            let jstar = max_wait + dwell + 1;
            let table =
                DwellTimeTable::from_arrays(jstar, vec![dwell; len], vec![dwell; len]).unwrap();
            AppTimingProfile::new(name, 1, jstar + 10, jstar, r.max(jstar + 1), table).unwrap()
        }

        #[test]
        fn oracle_witnesses_replay_to_the_claimed_miss() {
            let model = SlotSharingModel::new(vec![profile("A", 0, 5, 30), profile("B", 0, 5, 30)])
                .unwrap();
            let outcome = verify(&model, &VerificationConfig::default()).unwrap();
            let witness = outcome.witness().expect("unschedulable model");
            validate_witness(&model, witness).expect("oracle witness replays");
        }

        #[test]
        fn missless_schedules_replay_to_none() {
            let model =
                SlotSharingModel::new(vec![profile("A", 10, 3, 30), profile("B", 10, 3, 30)])
                    .unwrap();
            // Simultaneous disturbance of both: the second waits ~3 samples,
            // well within its 10-sample tolerance.
            let miss = first_miss(model.profiles(), &[0, 1], &[vec![0], vec![0]]).unwrap();
            assert_eq!(miss, None);
            // A fabricated witness over that schedule must fail validation.
            let fake = Witness::new(
                vec![
                    TraceEvent::Disturbance { app: 0, sample: 0 },
                    TraceEvent::Disturbance { app: 1, sample: 0 },
                    TraceEvent::DeadlineMissed { app: 1, sample: 4 },
                ],
                1,
                4,
            );
            assert!(matches!(
                validate_witness(&model, &fake),
                Err(VerifyError::InvalidWitness { .. })
            ));
        }

        #[test]
        fn wrong_sample_or_application_is_rejected() {
            let model = SlotSharingModel::new(vec![profile("A", 0, 5, 30), profile("B", 0, 5, 30)])
                .unwrap();
            let outcome = verify(&model, &VerificationConfig::default()).unwrap();
            let witness = outcome.witness().unwrap();
            let shifted = Witness::new(
                witness.events().to_vec(),
                witness.failing_app(),
                witness.missed_at_sample() + 1,
            );
            assert!(matches!(
                validate_witness(&model, &shifted),
                Err(VerifyError::InvalidWitness { .. })
            ));
            // The same shift in the trace's own miss event: the claim is
            // consistent, and the scheduler still misses a sample earlier.
            let mut events = witness.events().to_vec();
            events.pop();
            events.push(TraceEvent::DeadlineMissed {
                app: witness.failing_app(),
                sample: witness.missed_at_sample() + 1,
            });
            let consistent = Witness::new(
                events,
                witness.failing_app(),
                witness.missed_at_sample() + 1,
            );
            let err = validate_witness(&model, &consistent).unwrap_err();
            assert!(err.to_string().contains("misses at sample"), "{err}");
        }

        /// The oracle witness of two zero-wait applications disturbed
        /// together, and its model: B misses at sample 1.
        fn rejected_pair() -> (SlotSharingModel, Witness) {
            let model = SlotSharingModel::new(vec![profile("A", 0, 5, 30), profile("B", 0, 5, 30)])
                .unwrap();
            let outcome = verify(&model, &VerificationConfig::default()).unwrap();
            let witness = outcome.witness().unwrap().clone();
            assert_eq!((witness.failing_app(), witness.missed_at_sample()), (1, 1));
            (model, witness)
        }

        #[test]
        fn events_outside_the_model_are_rejected() {
            let (model, witness) = rejected_pair();
            let mut events = witness.events().to_vec();
            events.insert(0, TraceEvent::Disturbance { app: 7, sample: 0 });
            let stray = Witness::new(events, 1, 1);
            assert!(matches!(
                validate_witness(&model, &stray),
                Err(VerifyError::InvalidWitness { .. })
            ));
        }

        #[test]
        fn misses_contradicting_the_claim_are_rejected() {
            let (model, witness) = rejected_pair();
            let mut appended = witness.events().to_vec();
            appended.push(TraceEvent::DeadlineMissed { app: 0, sample: 99 });
            let mut doubled = witness.events().to_vec();
            doubled.insert(0, TraceEvent::DeadlineMissed { app: 0, sample: 99 });
            for events in [appended, doubled] {
                let contradicted = Witness::new(events, 1, 1);
                assert!(matches!(
                    validate_witness(&model, &contradicted),
                    Err(VerifyError::InvalidWitness { .. })
                ));
            }
        }
    }
}
