use std::fmt;

/// Communication / controller mode of an application at a given sample.
///
/// * [`Mode::TimeTriggered`] (`M_T`): the control message is carried in a
///   static FlexRay slot; the fast gain `K_T` is applied with negligible
///   sensing-to-actuation delay.
/// * [`Mode::EventTriggered`] (`M_E`): the control message is carried in the
///   dynamic segment; a one-sample worst-case delay is provisioned and the
///   slower augmented-state gain `K_E` is applied.
///
/// # Example
///
/// ```
/// use cps_core::Mode;
///
/// assert_eq!(Mode::default(), Mode::EventTriggered);
/// assert_eq!(Mode::TimeTriggered.to_string(), "TT");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// `M_T`: time-triggered communication using a static slot.
    TimeTriggered,
    /// `M_E`: event-triggered communication using the dynamic segment. This is
    /// the default steady-state mode.
    #[default]
    EventTriggered,
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::TimeTriggered => write!(f, "TT"),
            Mode::EventTriggered => write!(f, "ET"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_event_triggered() {
        assert_eq!(Mode::default(), Mode::EventTriggered);
    }

    #[test]
    fn display() {
        assert_eq!(Mode::TimeTriggered.to_string(), "TT");
        assert_eq!(Mode::EventTriggered.to_string(), "ET");
    }
}
