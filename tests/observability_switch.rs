//! The observability kill switch changes what is retained, never what
//! is simulated: SCALE-DCF at 1000 stations processes the same events
//! and settles the same PER decisions with tracing on and off.
//!
//! `set_observability` is process-global, so this lives in its own
//! integration-test binary, where no other test can observe the switch
//! mid-run. Release-sized, like `scale_dcf.rs`.

use wireless_networks::core::scenarios::scale_dcf_point;
use wireless_networks::sim::set_observability;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized BSS (1000 stations); run with --release (CI does)"
)]
fn switching_observability_off_leaves_scale_dcf_unchanged() {
    let run = |on: bool| {
        set_observability(on);
        let p = scale_dcf_point(1000, 200, 42);
        set_observability(true);
        (p.events, p.per_decisions)
    };
    assert_eq!(
        run(true),
        run(false),
        "switching observability off changed the simulation"
    );
}
