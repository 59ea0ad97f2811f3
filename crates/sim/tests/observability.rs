//! Integration test for the process-global observability kill switch.
//!
//! Lives in its own integration-test binary (own process) so toggling
//! the global flag cannot race with the library's unit tests, which run
//! as threads of a different binary.

use wn_sim::trace::{Level, Trace, TraceEvent};
use wn_sim::{observability_enabled, set_observability, SimTime};

#[test]
fn kill_switch_suppresses_retention_and_restores() {
    assert!(observability_enabled(), "default must be enabled");
    let mut tr = Trace::new(16);
    let handoff = |station| TraceEvent::Handoff { station };

    tr.event(SimTime::ZERO, Level::Info, "x", handoff(0));
    set_observability(false);
    assert!(!observability_enabled());
    tr.event(SimTime::from_millis(1), Level::Info, "x", handoff(1));
    tr.event(SimTime::from_millis(2), Level::Warn, "x", handoff(2));
    set_observability(true);
    tr.event(SimTime::from_millis(3), Level::Info, "x", handoff(3));

    let kept: Vec<(SimTime, TraceEvent)> = tr.events().map(|(at, e)| (at, *e)).collect();
    assert_eq!(
        kept,
        vec![
            (SimTime::ZERO, handoff(0)),
            (SimTime::from_millis(3), handoff(3))
        ]
    );
    assert_eq!(tr.dropped(), 0, "suppressed records are not 'evictions'");
}
