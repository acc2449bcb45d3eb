//! Property-based tests of cross-crate invariants (proptest).

use edgebol_core::agent::EdgeBolAgent;
use edgebol_core::orchestrator::Orchestrator;
use edgebol_core::problem::ProblemSpec;
use edgebol_gp::{EvictStrategy, GaussianProcess, Kernel};
use edgebol_linalg::{Cholesky, Mat};
use edgebol_media::{mean_average_precision, Dataset, DetectorModel};
use edgebol_metrics::Registry;
use edgebol_oran::{
    corrupt_payload, A1Message, ChaosConfig, E2Codec, E2Message, KpiReport, LinkId, OranError,
    PolicyId, RadioPolicy, TransportKind, A1_POLICY_TYPE_RADIO,
};
use edgebol_ran::{bler, cqi_from_snr, max_mcs_for_cqi, tbs_bits, Mcs};
use edgebol_testbed::{Calibration, ControlInput, FlowTestbed, Scenario};
use proptest::prelude::*;

/// A strategy over every well-formed E2 message.
fn arb_e2_message(t_ms: u64, power: u64, duty: u16, mcs: u16, variant: u8) -> E2Message {
    match variant % 5 {
        0 => E2Message::SubscriptionRequest {
            ran_function: (duty % 7) + 1,
            report_period_ms: (t_ms % 10_000) as u32,
        },
        1 => E2Message::SubscriptionResponse { ran_function: (duty % 7) + 1 },
        2 => E2Message::Indication(KpiReport {
            t_ms,
            bs_power_mw: power,
            duty_milli: duty,
            mean_mcs_centi: mcs,
        }),
        3 => E2Message::ControlRequest { airtime_milli: duty, max_mcs: (mcs % 29) as u8 },
        _ => E2Message::ControlAck,
    }
}

proptest! {
    /// Cholesky solve must invert `A x = b` for any random SPD matrix.
    #[test]
    fn cholesky_solves_random_spd(
        vals in proptest::collection::vec(-1.0f64..1.0, 25),
        b in proptest::collection::vec(-10.0f64..10.0, 5),
    ) {
        let g = Mat::from_vec(5, 5, vals);
        let mut a = g.matmul(&g.transpose());
        a.add_diagonal(5.0);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let back = a.matvec(&x);
        for (got, want) in back.iter().zip(&b) {
            prop_assert!((got - want).abs() < 1e-6, "residual {} vs {}", got, want);
        }
    }

    /// GP posterior std never exceeds the prior std, and predictions at
    /// observed points approach the observations.
    #[test]
    fn gp_posterior_contracts(
        xs in proptest::collection::vec(0.0f64..1.0, 3..15),
        query in 0.0f64..1.0,
    ) {
        let mut gp = GaussianProcess::new(Kernel::matern32(2.0, vec![0.3]), 1e-4);
        for (i, &x) in xs.iter().enumerate() {
            gp.observe(&[x], (i % 5) as f64).unwrap();
        }
        let (_, s) = gp.predict(&[query]);
        prop_assert!(s <= 2.0f64.sqrt() + 1e-9, "posterior std {} above prior", s);
        prop_assert!(s >= 0.0);
    }

    /// Sliding-window equivalence: the `O(W^2)` delete-row downdate and
    /// the `O(W^3)` rebuild must agree on the posterior for ANY random
    /// observation stream and window size — the workspace-level face of
    /// the `Cholesky::delete_row` battery in `edgebol-linalg`.
    #[test]
    fn gp_window_downdate_matches_rebuild(
        xs in proptest::collection::vec(0.0f64..1.0, 8..40),
        cap in 2usize..8,
        query in 0.0f64..1.0,
    ) {
        let build = |s: EvictStrategy| {
            GaussianProcess::new(Kernel::matern32(1.5, vec![0.25]), 1e-4)
                .with_max_observations(cap)
                .with_evict_strategy(s)
        };
        let mut fast = build(EvictStrategy::Downdate);
        let mut oracle = build(EvictStrategy::Rebuild);
        for (i, &x) in xs.iter().enumerate() {
            let y = (x * 6.0).sin() + (i % 3) as f64 * 0.2;
            fast.observe(&[x], y).unwrap();
            oracle.observe(&[x], y).unwrap();
        }
        let (mf, sf) = fast.predict(&[query]);
        let (mo, so) = oracle.predict(&[query]);
        prop_assert!((mf - mo).abs() < 1e-8, "mean {mf} vs {mo}");
        prop_assert!((sf - so).abs() < 1e-8, "std {sf} vs {so}");
    }

    /// Degenerate windows never panic: a capacity-1 window (every evict
    /// shrinks the factor 1 -> 0) and near-coincident inputs (a
    /// near-singular kernel matrix held up only by the noise jitter) must
    /// keep observing and predicting cleanly under the downdate path.
    #[test]
    fn gp_degenerate_windows_survive(
        x0 in 0.0f64..1.0,
        eps in 0.0f64..1e-10,
        steps in 4usize..20,
    ) {
        // Capacity 1: the downdate's T=1 -> T=0 edge case, every period.
        let mut tiny = GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-6)
            .with_max_observations(1)
            .with_evict_strategy(EvictStrategy::Downdate);
        for i in 0..steps {
            tiny.observe(&[(i as f64 * 0.13).fract()], i as f64).unwrap();
            prop_assert_eq!(tiny.len(), 1);
        }
        // Near-coincident inputs: kernel rows differ by ~eps, so the
        // factor is barely positive definite. Evictions must either
        // downdate or fall back to the jittered refactorization — never
        // panic, never corrupt the window.
        let mut sick = GaussianProcess::new(Kernel::matern32(1.0, vec![0.3]), 1e-9)
            .with_max_observations(3)
            .with_evict_strategy(EvictStrategy::Downdate);
        for i in 0..steps {
            let x = x0 + eps * i as f64;
            sick.observe(&[x], 1.0 + i as f64 * 1e-6).unwrap();
        }
        prop_assert_eq!(sick.len(), 3);
        let (m, s) = sick.predict(&[x0]);
        prop_assert!(m.is_finite() && s.is_finite() && s >= 0.0);
    }

    /// The mAP metric is always within [0, 1] for any detector run.
    #[test]
    fn map_is_a_probability(res in 0.1f64..=1.0, seed in 0u64..1000) {
        let ds = Dataset::generate(20, seed);
        let m = ds.evaluate_map(&DetectorModel::default(), res, seed ^ 0xF00);
        prop_assert!((0.0..=1.0).contains(&m), "mAP {m}");
    }

    /// An empty detection set gives mAP 0 when ground truth exists.
    #[test]
    fn no_detections_zero_map(seed in 0u64..200) {
        let ds = Dataset::generate(5, seed);
        let pairs: Vec<_> = ds.scenes().iter().map(|s| (s, &[][..])).collect();
        let bd = mean_average_precision(&pairs, 0.5);
        prop_assert_eq!(bd.map, 0.0);
    }

    /// PHY tables: CQI→MCS→BLER consistency for any SNR.
    #[test]
    fn phy_tables_consistent(snr in -20.0f64..45.0) {
        let cqi = cqi_from_snr(snr);
        prop_assert!((1..=15).contains(&cqi));
        let mcs = max_mcs_for_cqi(cqi);
        prop_assert!(mcs.index() <= 28);
        let b = bler(snr, mcs);
        prop_assert!((0.0..=1.0).contains(&b));
        prop_assert!(tbs_bits(mcs, 22) > 0.0);
    }

    /// E2 codec round-trips arbitrary well-formed messages.
    #[test]
    fn e2_codec_roundtrip(
        t_ms in 0u64..u64::MAX / 2,
        power in 0u64..1_000_000,
        duty in 0u16..=1000,
        mcs in 0u16..=2800,
    ) {
        let msg = E2Message::Indication(KpiReport {
            t_ms,
            bs_power_mw: power,
            duty_milli: duty,
            mean_mcs_centi: mcs,
        });
        let mut buf = E2Codec::encode(&msg);
        let got = E2Codec::decode(&mut buf).unwrap().unwrap();
        prop_assert_eq!(got, msg);
        prop_assert!(buf.is_empty());
    }

    /// Control round-trip: unit -> physical -> unit is identity up to MCS
    /// quantization.
    #[test]
    fn control_unit_roundtrip(
        eta in 0.0f64..=1.0,
        a in 0.0f64..=1.0,
        g in 0.0f64..=1.0,
        m in 0.0f64..=1.0,
    ) {
        let c = ControlInput::from_unit(eta, a, g, m);
        let u = c.to_unit();
        prop_assert!((u[0] - eta).abs() < 1e-9);
        prop_assert!((u[1] - a).abs() < 1e-9);
        prop_assert!((u[2] - g).abs() < 1e-9);
        prop_assert!((u[3] - m).abs() <= 0.5 / 28.0 + 1e-9);
    }

    /// The flow steady state stays physical for ANY control and channel:
    /// finite positive delays, powers within the hardware envelopes,
    /// occupancy within the airtime cap.
    #[test]
    fn steady_state_always_physical(
        eta in 0.0f64..=1.0,
        a in 0.0f64..=1.0,
        g in 0.0f64..=1.0,
        m in 0.0f64..=1.0,
        snr in -5.0f64..40.0,
        n_users in 1usize..5,
    ) {
        let flow = FlowTestbed::new(Calibration::default(), Scenario::single_user(snr), 9);
        let control = ControlInput::from_unit(eta, a, g, m);
        let snrs = vec![snr; n_users];
        let ss = flow.steady_state(&snrs, &control);
        for &d in &ss.delays_s {
            prop_assert!(d.is_finite() && d > 0.0, "delay {d}");
            prop_assert!(d < 3600.0, "absurd delay {d}");
        }
        prop_assert!((0.0..=1.0).contains(&ss.gpu_utilization));
        prop_assert!(ss.server_power_w >= 69.0 && ss.server_power_w <= 270.0,
            "server power {}", ss.server_power_w);
        prop_assert!(ss.bs_power_w >= 4.0 && ss.bs_power_w <= 8.0,
            "bs power {}", ss.bs_power_w);
        let occ: f64 = ss.occupancy.iter().sum();
        prop_assert!(occ <= control.airtime + 1e-9, "occupancy {} > airtime", occ);
    }

    /// Chaos corruption guarantee, E2 side: whatever frame it mangles and
    /// however it chooses the mutation, decoding the result is an error —
    /// never a panic, never a silent misparse — and the corruption stays
    /// confined to one frame (the stream resynchronizes).
    #[test]
    fn corrupted_e2_frames_always_error_never_panic(
        t_ms in 0u64..u64::MAX / 2,
        power in 0u64..1_000_000,
        duty in 0u16..=1000,
        mcs in 0u16..=2800,
        variant in 0u8..5,
        flip in any::<bool>(),
        pos in any::<u64>(),
    ) {
        let msg = arb_e2_message(t_ms, power, duty, mcs, variant);
        let frame = E2Codec::encode(&msg);
        let (mut buf, kind, _) = corrupt_payload(LinkId::E2, &frame, flip, pos);
        buf.extend(E2Codec::encode(&E2Message::ControlAck));
        let first = E2Codec::decode(&mut buf);
        prop_assert!(
            matches!(first, Err(OranError::Codec(_)) | Err(OranError::Framing(_))),
            "{kind:?} must invalidate, got {first:?}"
        );
        // The follow-up frame decodes cleanly: no desynchronization.
        prop_assert_eq!(E2Codec::decode(&mut buf).unwrap(), Some(E2Message::ControlAck));
    }

    /// Chaos corruption guarantee, A1 side: a mangled policy/KPI document
    /// always fails UTF-8 validation or JSON parsing with a typed error.
    #[test]
    fn corrupted_a1_frames_always_error_never_panic(
        airtime in 0.0f64..=1.0,
        max_mcs in 0u8..=28,
        t_ms in 0u64..1_000_000,
        power in 0u64..100_000,
        variant in 0u8..3,
        flip in any::<bool>(),
        pos in any::<u64>(),
    ) {
        let msg = match variant {
            0 => A1Message::PutPolicy {
                policy_id: PolicyId(format!("edgebol-{t_ms}")),
                policy_type: A1_POLICY_TYPE_RADIO,
                policy: RadioPolicy { airtime, max_mcs },
            },
            1 => A1Message::DeletePolicy { policy_id: PolicyId(format!("edgebol-{t_ms}")) },
            _ => A1Message::KpiSample { t_ms, bs_power_mw: power },
        };
        let (mangled, kind, _) = corrupt_payload(LinkId::A1, msg.to_json().as_bytes(), flip, pos);
        let parsed = std::str::from_utf8(&mangled)
            .map_err(|e| OranError::Codec(e.to_string()))
            .and_then(A1Message::from_json);
        prop_assert!(parsed.is_err(), "{kind:?} must invalidate A1 JSON");
    }

    /// The E2 decoder never panics on fully arbitrary bytes: it yields
    /// messages, waits for more input, or errors — and always terminates.
    #[test]
    fn e2_decoder_survives_arbitrary_bytes(
        raw in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut buf = raw;
        // Each iteration either consumes bytes or stops, so this loop is
        // finite for any input.
        loop {
            let before = buf.len();
            match E2Codec::decode(&mut buf) {
                Ok(Some(_)) => {
                    prop_assert!(buf.len() < before, "no progress");
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    /// Degraded-mode safety net: a short learning episode under ANY
    /// random fault schedule (all kinds, arbitrary rate and seed) never
    /// panics, never surfaces a recoverable error, counts at most one
    /// degraded event per injected degrading fault, and reproduces
    /// bit-exactly under the same seeds.
    #[test]
    fn chaotic_episode_never_panics_and_is_deterministic(
        chaos_seed in 0u64..10_000,
        rate in 0.0f64..0.4,
    ) {
        let run = || {
            let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
            let env = FlowTestbed::new(Calibration::fast(), Scenario::chaos_suite(), 11);
            let agent = EdgeBolAgent::quick_for_tests(&spec, 11);
            let mut o = Orchestrator::new_with_transport(
                Box::new(env),
                Box::new(agent),
                spec,
                ChaosConfig::all_kinds(chaos_seed, rate),
                Registry::disabled(),
                TransportKind::Poll,
            )
            .expect("setup is pre-arm");
            let trace = o.try_run(6).expect("recoverable-only schedule must not abort");
            (trace, o.degraded_events(), o.fault_ledger().records())
        };
        let (t1, d1, l1) = run();
        prop_assert_eq!(t1.len(), 6);
        prop_assert!(d1 <= l1.iter().filter(|r| r.is_degrading()).count(),
            "degraded events exceed degrading faults");
        let (t2, d2, l2) = run();
        prop_assert_eq!(t1, t2);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(l1, l2);
    }

    /// Survivability safety net: a short episode under ANY cut/heal
    /// schedule on either link never panics, completes every period
    /// under the default sticky fallback, and reproduces bit-exactly —
    /// trace, supervisor counters and fault ledger alike.
    #[test]
    fn cut_heal_schedules_never_abort_and_are_deterministic(
        cut_at in 1u64..150,
        heal_raw in 0u64..80,
        on_e2 in any::<bool>(),
    ) {
        // 0 encodes "never heals" (the vendored proptest has no Option
        // strategy); positive values are the heal window in operations.
        let heal = (heal_raw > 0).then_some(heal_raw);
        let link = if on_e2 { LinkId::E2 } else { LinkId::A1 };
        let run = || {
            let spec = ProblemSpec::new(1.0, 8.0, 0.5, 0.4);
            let env = FlowTestbed::new(Calibration::fast(), Scenario::recovery_suite(), 12);
            let agent = EdgeBolAgent::quick_for_tests(&spec, 12);
            let mut cfg = ChaosConfig::disabled().with_cut(link, cut_at);
            if let Some(h) = heal {
                cfg = cfg.with_heal(h);
            }
            let mut o = Orchestrator::new_with_transport(
                Box::new(env),
                Box::new(agent),
                spec,
                cfg,
                Registry::disabled(),
                TransportKind::Poll,
            )
            .expect("setup is pre-arm");
            let trace = o.try_run(20).expect("sticky fallback never aborts");
            (
                trace,
                o.reconnects_ok(),
                o.reconnects_failed(),
                o.local_autonomy_periods(),
                o.first_outage_period(),
                o.fault_ledger().records(),
            )
        };
        let r1 = run();
        prop_assert_eq!(r1.0.len(), 20);
        // An unhealed cut can never reconnect; a ledgered cut always
        // marks the outage start.
        if heal.is_none() {
            prop_assert_eq!(r1.1, 0, "no resync across an unhealed cut");
        }
        if !r1.5.is_empty() {
            prop_assert!(r1.4.is_some(), "a fired cut must open an outage window");
        }
        let r2 = run();
        prop_assert_eq!(r1, r2);
    }

    /// Higher resolution never reduces the steady-state transmission-bound
    /// delay (all else equal, single user).
    #[test]
    fn delay_monotone_in_resolution(
        a in 0.2f64..=1.0,
        g in 0.0f64..=1.0,
        snr in 10.0f64..40.0,
    ) {
        let flow = FlowTestbed::new(Calibration::default(), Scenario::single_user(snr), 10);
        let mk = |res: f64| ControlInput {
            resolution: res,
            airtime: a,
            gpu_speed: g,
            mcs_cap: Mcs::MAX,
        };
        let lo = flow.steady_state(&[snr], &mk(0.3)).worst_delay_s();
        let hi = flow.steady_state(&[snr], &mk(0.9)).worst_delay_s();
        prop_assert!(hi >= lo, "delay not monotone: {hi} < {lo}");
    }
}

// ---------------------------------------------------------------------------
// Checkpoint corruption fuzz: any truncation or bit flip of a snapshot
// file must surface as a typed decode error — and at the fleet layer as
// a counted cold-start fallback — never as a panic or a silently wrong
// restore. (Smaller case counts where each case runs a whole fleet.)

proptest! {
    /// Truncating a framed checkpoint at any fuzzed offset is a typed
    /// decode error, never a panic.
    #[test]
    fn checkpoint_truncation_is_always_a_typed_error(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = edgebol_ckpt::encode_file("fuzz", &payload);
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        let err = edgebol_ckpt::decode_file(&bytes[..cut], "fuzz")
            .expect_err("every strict prefix must fail decode");
        // The error is typed and printable (no panicking Display impl).
        let _ = err.to_string();
    }

    /// Flipping any single bit of a framed checkpoint is detected: the
    /// magic, version, kind or length checks catch structural damage
    /// and the CRC catches everything else.
    #[test]
    fn checkpoint_bit_flips_are_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut bytes = edgebol_ckpt::encode_file("fuzz", &payload);
        let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
        bytes[idx] ^= 1 << bit;
        let err = edgebol_ckpt::decode_file(&bytes, "fuzz")
            .expect_err("a corrupted frame must fail decode");
        let _ = err.to_string();
    }
}

proptest! {
    /// A fleet whose slice checkpoint is garbage (CRC-valid frame, junk
    /// payload — or any mutation of it) restores cold: the decode error
    /// is swallowed into a counted fallback and the run completes.
    #[test]
    fn corrupt_slice_checkpoints_fall_back_to_counted_cold_starts(
        junk in proptest::collection::vec(any::<u8>(), 0..40),
        mutate in 0u8..4, // 0: junk payload only; else flip a bit too
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "edgebol-props-ckpt-{}-{}",
            std::process::id(),
            junk.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // A well-framed checkpoint whose payload cannot possibly decode
        // into a slice snapshot (too short for even the meta header)...
        edgebol_ckpt::write_atomic(&dir.join("slice-0.ckpt"), "edgebol-fleet-slice", &junk)
            .expect("scratch write");
        // ...optionally damaged further at the frame level.
        if mutate != 0 {
            let path = dir.join("slice-0.ckpt");
            let mut bytes = std::fs::read(&path).unwrap();
            let idx = ((bytes.len() - 1) as f64 * byte_frac) as usize;
            bytes[idx] ^= 1 << bit;
            std::fs::write(&path, bytes).unwrap();
        }

        let mut cfg = edgebol_fleet::FleetConfig::quick(1);
        cfg.periods = 4;
        cfg.warm_start = false;
        cfg.ckpt_dir = Some(dir.clone());
        cfg.ckpt_every = 0; // keep the corrupted file in place
        cfg.kill_schedule = vec![(0, 2)];
        let report = edgebol_fleet::Fleet::new(cfg).run();

        prop_assert_eq!(report.kills, 1);
        prop_assert_eq!(report.restores, 0);
        prop_assert_eq!(report.cold_restores, 1, "{}", report.summary());
        prop_assert_eq!(report.failed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
