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

    tr.info(SimTime::ZERO, "x", "before");
    set_observability(false);
    assert!(!observability_enabled());
    tr.info(SimTime::from_millis(1), "x", "while off");
    tr.event(
        SimTime::from_millis(2),
        Level::Warn,
        "x",
        TraceEvent::Handoff { station: 1 },
    );
    set_observability(true);
    tr.info(SimTime::from_millis(3), "x", "after");

    let msgs: Vec<String> = tr.records().map(|r| r.message().into_owned()).collect();
    assert_eq!(msgs, vec!["before", "after"]);
    assert_eq!(tr.dropped(), 0, "suppressed records are not 'evictions'");
}
