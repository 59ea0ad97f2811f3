//! ARF (Auto Rate Fallback) rate adaptation.
//!
//! §2.2: an 802.11g link "will automatically back down from 54 Mbps
//! when the radio signal is weak or when interference is detected".
//! ARF is the classic mechanism: step down after consecutive failures,
//! probe a higher rate after a run of successes. Maintained per
//! neighbour, since link quality is per-link.

use std::collections::HashMap;

use crate::addr::MacAddr;
use wn_phy::modulation::{PhyStandard, RateStep};

/// ARF tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct ArfParams {
    /// Consecutive successes before probing the next higher rate.
    pub up_after: u32,
    /// Consecutive failures before stepping down.
    pub down_after: u32,
    /// AARF (adaptive ARF): double the success threshold after a
    /// failed up-probe, halving the rate of doomed probes — the
    /// standard remedy for ARF's oscillation under stable conditions.
    pub adaptive: bool,
    /// AARF cap on the adapted threshold.
    pub max_up_after: u32,
}

impl Default for ArfParams {
    fn default() -> Self {
        // The classic ARF constants.
        ArfParams {
            up_after: 10,
            down_after: 2,
            adaptive: false,
            max_up_after: 160,
        }
    }
}

impl ArfParams {
    /// The AARF parameterisation (adaptive probe backoff).
    pub fn aarf() -> Self {
        ArfParams {
            adaptive: true,
            ..ArfParams::default()
        }
    }
}

/// Per-link ARF state.
#[derive(Clone, Debug)]
struct LinkState {
    index: usize,
    successes: u32,
    failures: u32,
    probing: bool,
    /// Current success threshold for probing up (AARF grows this).
    up_after: u32,
}

/// An ARF controller managing one station's links over its standard's
/// static rate ladder.
#[derive(Clone, Debug)]
pub struct Arf {
    ladder: &'static [RateStep],
    params: ArfParams,
    links: HashMap<MacAddr, LinkState>,
    enabled: bool,
    fixed_index: usize,
}

impl Arf {
    /// Creates a controller for `std`'s rate ladder.
    pub fn new(std: PhyStandard, params: ArfParams, enabled: bool) -> Self {
        let ladder = std.rate_ladder();
        let fixed_index = ladder.len() - 1;
        Arf {
            ladder,
            params,
            links: HashMap::new(),
            enabled,
            fixed_index,
        }
    }

    fn link(&mut self, peer: MacAddr) -> &mut LinkState {
        let start = self.ladder.len() - 1;
        let up_after = self.params.up_after;
        self.links.entry(peer).or_insert(LinkState {
            index: start,
            successes: 0,
            failures: 0,
            probing: false,
            up_after,
        })
    }

    /// The rate to use for the next transmission to `peer`.
    pub fn current_rate(&mut self, peer: MacAddr) -> RateStep {
        if !self.enabled {
            return self.ladder[self.fixed_index];
        }
        let idx = self.link(peer).index;
        self.ladder[idx]
    }

    /// Records a successful (ACKed) transmission to `peer`.
    pub fn on_success(&mut self, peer: MacAddr) {
        if !self.enabled {
            return;
        }
        let top = self.ladder.len() - 1;
        let base_up_after = self.params.up_after;
        let l = self.link(peer);
        l.failures = 0;
        if l.probing {
            // A successful probe: the new rate sticks, and AARF resets
            // its adapted threshold.
            l.up_after = base_up_after;
        }
        l.probing = false;
        l.successes += 1;
        if l.successes >= l.up_after && l.index < top {
            l.index += 1;
            l.successes = 0;
            // The first frame at the new rate is a probe: one failure
            // drops straight back.
            l.probing = true;
        }
    }

    /// Records a failed (retry-limit or unACKed) transmission to `peer`.
    pub fn on_failure(&mut self, peer: MacAddr) {
        if !self.enabled {
            return;
        }
        let p = self.params;
        let l = self.link(peer);
        l.successes = 0;
        l.failures += 1;
        if l.probing && p.adaptive {
            // AARF: a failed probe doubles the success run required
            // before the next attempt.
            l.up_after = (l.up_after * 2).min(p.max_up_after);
        }
        let drop = l.probing || l.failures >= p.down_after;
        if drop && l.index > 0 {
            l.index -= 1;
            l.failures = 0;
        }
        l.probing = false;
    }

    /// Resets the link state for a peer (e.g. after roaming).
    pub fn reset(&mut self, peer: MacAddr) {
        self.links.remove(&peer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arf() -> Arf {
        Arf::new(PhyStandard::Dot11g, ArfParams::default(), true)
    }

    fn peer() -> MacAddr {
        MacAddr::station(1)
    }

    #[test]
    fn starts_at_top_rate() {
        let mut a = arf();
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    #[test]
    fn two_failures_step_down() {
        let mut a = arf();
        a.on_failure(peer());
        assert_eq!(
            a.current_rate(peer()).rate.mbps(),
            54.0,
            "one failure holds"
        );
        a.on_failure(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 48.0);
    }

    #[test]
    fn sustained_failures_reach_base_rate_and_stop() {
        let mut a = arf();
        for _ in 0..100 {
            a.on_failure(peer());
        }
        assert_eq!(
            a.current_rate(peer()).rate.mbps(),
            6.0,
            "floors at base rate"
        );
    }

    #[test]
    fn ten_successes_probe_up() {
        let mut a = arf();
        // Start by dropping one step.
        a.on_failure(peer());
        a.on_failure(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 48.0);
        for _ in 0..10 {
            a.on_success(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    #[test]
    fn failed_probe_drops_immediately() {
        let mut a = arf();
        a.on_failure(peer());
        a.on_failure(peer());
        for _ in 0..10 {
            a.on_success(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
        // A single failure right after probing up falls straight back.
        a.on_failure(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 48.0);
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut a = arf();
        a.on_failure(peer());
        a.on_success(peer());
        a.on_failure(peer());
        // Never two *consecutive* failures, so still at top.
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    #[test]
    fn links_are_independent() {
        let mut a = arf();
        let other = MacAddr::station(2);
        a.on_failure(peer());
        a.on_failure(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 48.0);
        assert_eq!(a.current_rate(other).rate.mbps(), 54.0);
    }

    #[test]
    fn aarf_backs_off_doomed_probes() {
        // A link that always fails above 48 Mbps: classic ARF probes up
        // every 10 successes; AARF doubles the run between probes.
        let count_probes = |params: ArfParams| -> u32 {
            let mut a = Arf::new(PhyStandard::Dot11g, params, true);
            // Drop to 48 first.
            a.on_failure(peer());
            a.on_failure(peer());
            let mut probes = 0;
            for _ in 0..400 {
                if a.current_rate(peer()).rate.mbps() > 48.0 {
                    // The probe frame at 54 fails.
                    probes += 1;
                    a.on_failure(peer());
                } else {
                    a.on_success(peer());
                }
            }
            probes
        };
        let arf_probes = count_probes(ArfParams::default());
        let aarf_probes = count_probes(ArfParams::aarf());
        assert!(
            aarf_probes * 2 <= arf_probes,
            "AARF should probe far less: ARF {arf_probes} vs AARF {aarf_probes}"
        );
        assert!(aarf_probes >= 1, "but it must still probe eventually");
    }

    #[test]
    fn aarf_threshold_resets_after_successful_probe() {
        let mut a = Arf::new(PhyStandard::Dot11g, ArfParams::aarf(), true);
        // Fail probes a few times to inflate the threshold.
        a.on_failure(peer());
        a.on_failure(peer()); // Now at 48.
        for _ in 0..10 {
            a.on_success(peer());
        }
        a.on_failure(peer()); // Failed probe at 54: threshold 20.
        for _ in 0..20 {
            a.on_success(peer());
        }
        // This probe succeeds; threshold must reset to 10.
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
        a.on_success(peer());
        // Drop again and confirm only 10 successes are needed now.
        a.on_failure(peer());
        a.on_failure(peer());
        for _ in 0..10 {
            a.on_success(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    #[test]
    fn disabled_arf_pins_top_rate() {
        let mut a = Arf::new(PhyStandard::Dot11g, ArfParams::default(), false);
        for _ in 0..10 {
            a.on_failure(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    /// Walks the entire Fig. 1.13 802.11g rate ladder downwards: every
    /// pair of consecutive failures steps exactly one rung, visiting
    /// each rate in ladder order until the 6 Mbps base.
    #[test]
    fn consecutive_failures_walk_every_rung_down() {
        let ladder = PhyStandard::Dot11g.rate_ladder();
        assert!(ladder.len() >= 3, "g ladder has many rungs");
        let mut a = arf();
        for rung in (0..ladder.len() - 1).rev() {
            a.on_failure(peer());
            assert_eq!(
                a.current_rate(peer()).rate.mbps(),
                ladder[rung + 1].rate.mbps(),
                "first failure must hold the rate"
            );
            a.on_failure(peer());
            assert_eq!(
                a.current_rate(peer()).rate.mbps(),
                ladder[rung].rate.mbps(),
                "second consecutive failure steps down one rung"
            );
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), ladder[0].rate.mbps());
    }

    /// From the base rate, every run of 10 successes probes one rung
    /// back up, visiting each rate until the 54 Mbps top.
    #[test]
    fn success_runs_walk_every_rung_up() {
        let ladder = PhyStandard::Dot11g.rate_ladder();
        let mut a = arf();
        for _ in 0..2 * (ladder.len() - 1) {
            a.on_failure(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), ladder[0].rate.mbps());
        for (rung, want) in ladder.iter().enumerate().skip(1) {
            for _ in 0..10 {
                a.on_success(peer());
            }
            assert_eq!(
                a.current_rate(peer()).rate.mbps(),
                want.rate.mbps(),
                "ten successes probe up to rung {rung}"
            );
        }
    }

    /// The top of the ladder clamps: success runs at 54 Mbps never
    /// index past the last rung (and never set a phantom probe that a
    /// single failure would punish).
    #[test]
    fn success_runs_clamp_at_top_rung() {
        let mut a = arf();
        for _ in 0..50 {
            a.on_success(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
        // Were the controller stuck in "probing" at the top, this
        // single failure would drop a rung; Fig. 1.13 says hold.
        a.on_failure(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }

    /// The bottom of the ladder clamps symmetrically, and the link
    /// recovers from the floor (the failure streak does not wedge).
    #[test]
    fn failure_runs_clamp_at_base_rung_and_recover() {
        let ladder = PhyStandard::Dot11g.rate_ladder();
        let mut a = arf();
        for _ in 0..1000 {
            a.on_failure(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), ladder[0].rate.mbps());
        for _ in 0..10 {
            a.on_success(peer());
        }
        assert_eq!(
            a.current_rate(peer()).rate.mbps(),
            ladder[1].rate.mbps(),
            "floor must not wedge: successes probe back up"
        );
    }

    /// The 802.11b ladder (4 rungs) walks the same way — the controller
    /// is ladder-agnostic.
    #[test]
    fn dot11b_ladder_walks_down_and_up() {
        let ladder = PhyStandard::Dot11b.rate_ladder();
        let mut a = Arf::new(PhyStandard::Dot11b, ArfParams::default(), true);
        assert_eq!(
            a.current_rate(peer()).rate.mbps(),
            ladder.last().unwrap().rate.mbps()
        );
        for _ in 0..2 * (ladder.len() - 1) {
            a.on_failure(peer());
        }
        assert_eq!(a.current_rate(peer()).rate.mbps(), ladder[0].rate.mbps());
        for _ in 0..10 * (ladder.len() - 1) {
            a.on_success(peer());
        }
        assert_eq!(
            a.current_rate(peer()).rate.mbps(),
            ladder.last().unwrap().rate.mbps()
        );
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut a = arf();
        a.on_failure(peer());
        a.on_failure(peer());
        a.reset(peer());
        assert_eq!(a.current_rate(peer()).rate.mbps(), 54.0);
    }
}
