//! End-to-end fuzzer tests: a clean seed range stays clean, a planted
//! bug is caught by an oracle and shrunk to a tiny repro, and the
//! range digest is identical across worker counts.

use wn_check::scenario::{ScenarioKind, WlanScenario};
use wn_check::{run, shrink, station_count, Scenario, ScenarioGen};

#[test]
fn first_seeds_are_clean() {
    for r in wn_check::check_range(0, 40, 1) {
        assert!(
            r.violations.is_empty(),
            "seed {} ({}) violated: {:?}",
            r.seed,
            r.summary,
            r.violations
        );
    }
}

#[test]
fn range_digest_is_thread_count_invariant() {
    let one = wn_check::range_digest(ScenarioGen::default(), 0, 24, 1);
    let eight = wn_check::range_digest(ScenarioGen::default(), 0, 24, 8);
    assert_eq!(one, eight);
    assert_eq!(one.lines().count(), 24);
}

/// A saturated deaf-sink WLAN with the retry fail-point armed: every
/// MSDU walks the retry ladder one rung too far.
fn planted_bug_scenario(stations: usize, failpoint: bool) -> Scenario {
    Scenario {
        seed: 42,
        kind: ScenarioKind::Wlan(WlanScenario {
            stations,
            radius_m: 10.0,
            standard: wn_phy::modulation::PhyStandard::Dot11b,
            payload: 400,
            frames_per_sender: 12,
            interval_us: 2_000,
            duration_ms: 80,
            rts_threshold: usize::MAX,
            frag_threshold: usize::MAX,
            queue_limit: 32,
            retry_limit_short: 5,
            retry_limit_long: 3,
            cw_min_override: None,
            cw_max_override: None,
            arf: false,
            deaf_sink: true,
            failpoint_retry_overrun: failpoint,
            edca: false,
            ampdu_max_mpdus: 16,
            ampdu_per_mpdu_loss: 0.0,
            failpoint_aifsn_swap: false,
            obss_cell: false,
        }),
    }
}

#[test]
fn planted_retry_overrun_is_caught_and_shrunk() {
    // Without the fail-point the same stress scenario is clean…
    let clean = run::check_scenario(&planted_bug_scenario(12, false));
    assert!(clean.is_empty(), "control scenario violated: {clean:?}");

    // …with it, the retry oracle fires…
    let sc = planted_bug_scenario(12, true);
    let violations = run::check_scenario(&sc);
    assert!(
        violations.iter().any(|v| v.oracle == "retry-bound"),
        "fail-point not caught: {violations:?}"
    );

    // …and the shrinker reduces it to a handful of stations while the
    // violation still reproduces.
    let still_fails = |c: &Scenario| {
        run::check_scenario(c)
            .iter()
            .any(|v| v.oracle == "retry-bound")
    };
    let min = shrink(&sc, still_fails);
    assert!(
        station_count(&min) <= 5,
        "shrunk repro still has {} stations",
        station_count(&min)
    );
    assert!(still_fails(&min), "shrunk scenario no longer fails");
}

#[test]
fn ledger_samples_cover_the_run_and_balance() {
    // The frame-ledger oracle is only as good as its samples: a busy
    // scenario must yield mid-run samples with traffic actually in
    // flight (non-zero arena refs), and they must all balance. A
    // drained end-of-run world balancing trivially would prove
    // nothing — this pins the slicing machinery itself.
    let art = run::run_scenario(&planted_bug_scenario(12, false));
    let facts = art.wlan.expect("wlan scenario yields wlan facts");
    assert_eq!(facts.ledger.len(), 8, "one sample per slice");
    assert!(
        facts.ledger.iter().any(|&(refs, _)| refs > 0),
        "no sample caught frames in flight — slices misplaced?"
    );
    for (i, &(refs, held)) in facts.ledger.iter().enumerate() {
        assert_eq!(refs, held, "ledger sample {i} out of balance");
    }
}

#[test]
fn ledger_oracle_fires_on_imbalance() {
    // Synthesise an artifact whose ledger is out of balance and make
    // sure the oracle actually reports it (guards against the oracle
    // being registered but vacuous).
    let mut art = run::run_scenario(&planted_bug_scenario(4, false));
    art.wlan.as_mut().expect("wlan facts").ledger = vec![(3, 2)];
    let violations = run::run_oracles(&art);
    assert!(
        violations.iter().any(|v| v.oracle == "frame-ledger"),
        "imbalanced ledger not reported: {violations:?}"
    );
}

/// A contended, fully-draining EDCA world — the regime where the
/// priority-inversion oracle's censoring guards all pass. Drawn from
/// the QoS corpus itself (seed 1, which the `--qos` self-test leg
/// catches) with the fail-point toggled explicitly, so the test pins
/// the exact scenario the fuzzer minimises.
fn qos_scenario(aifsn_swap: bool) -> Scenario {
    let mut sc = ScenarioGen::with_qos().scenario(1);
    match sc.kind {
        ScenarioKind::Wlan(ref mut w) => w.failpoint_aifsn_swap = aifsn_swap,
        _ => panic!("qos corpus drew a non-WLAN world"),
    }
    sc
}

#[test]
fn qos_seeds_are_clean() {
    let gen = ScenarioGen::with_qos();
    for seed in 0..30 {
        let r = wn_check::check_seed_gen(&gen, seed, Default::default());
        assert!(
            r.violations.is_empty(),
            "qos seed {} ({}) violated: {:?}",
            r.seed,
            r.summary,
            r.violations
        );
    }
}

#[test]
fn planted_aifsn_swap_is_caught_and_shrunk() {
    // Without the fail-point the same contended QoS world is clean…
    let clean = run::check_scenario(&qos_scenario(false));
    assert!(clean.is_empty(), "control scenario violated: {clean:?}");

    // …with it, AC_VO runs on AC_BK's parameters and the
    // priority-inversion oracle fires…
    let sc = qos_scenario(true);
    let fires = |c: &Scenario| {
        run::check_scenario(c)
            .iter()
            .any(|v| v.oracle == "edca-priority")
    };
    assert!(fires(&sc), "planted AIFSN swap not caught");

    // …and the shrinker reduces the repro while it still fails.
    let min = shrink(&sc, fires);
    assert!(
        station_count(&min) <= 3,
        "shrunk repro still has {} stations",
        station_count(&min)
    );
    assert!(fires(&min), "shrunk scenario no longer fails");
}

#[test]
fn block_ack_oracle_fires_on_tampered_counters() {
    // Vacuity guard: cook the books after a clean QoS run — one extra
    // claimed completion must split the block-ack ledger.
    let mut art = run::run_scenario(&qos_scenario(false));
    art.wlan.as_mut().expect("wlan facts").stats[1].tx_completions += 1;
    let violations = run::run_oracles(&art);
    assert!(
        violations.iter().any(|v| v.oracle == "block-ack-window"),
        "tampered completion count not reported: {violations:?}"
    );
}

#[test]
fn armed_generator_seeds_are_caught() {
    // At least one generated deaf-sink scenario in a small seed range
    // must trip the retry oracle when the fail-point generator is used.
    let gen = ScenarioGen::with_retry_overrun();
    let caught = (0..60u64).any(|seed| {
        let sc = gen.scenario(seed);
        match sc.kind {
            ScenarioKind::Wlan(ref w) if w.deaf_sink => run::check_scenario(&sc)
                .iter()
                .any(|v| v.oracle == "retry-bound"),
            _ => false,
        }
    });
    assert!(caught);
}

/// The generated corpus stages every frame one by one, so on its own
/// no oracle meets a queued MSDU that shares its source's arena slot.
/// The same scenarios with their backlogs offered by periodic sources
/// (and a power-save toggle on one sender per cell), legacy and EDCA
/// alike, must pass every oracle — frame ledger, scheduler order and
/// conservation included.
#[test]
fn source_driven_worlds_pass_every_oracle() {
    let mut checked = [0usize; 2];
    for (i, gen) in [ScenarioGen::default(), ScenarioGen::with_qos()]
        .into_iter()
        .enumerate()
    {
        let mut seed = 0;
        while checked[i] < 10 {
            let sc = gen.scenario(seed);
            seed += 1;
            let ScenarioKind::Wlan(w) = &sc.kind else {
                continue;
            };
            assert_eq!(w.edca, i == 1, "seed {}: corpus mix-up", sc.seed);
            let art = run::run_scenario_sourced(&sc);
            let ledger = &art.wlan.as_ref().expect("a WLAN run").ledger;
            assert!(
                ledger.iter().all(|&(refs, _)| refs > 0),
                "no source slot held"
            );
            let violations = wn_check::run_oracles(&art);
            assert!(
                violations.is_empty(),
                "seed {} ({}) with sources violated: {:?}",
                sc.seed,
                sc.summary(),
                violations
            );
            checked[i] += 1;
        }
    }
}
