//! Negative tests for campaign/characterize config validation: bad
//! parameters must come back as `InvalidParameter`, never a panic. These
//! matter doubly now that the serving layer forwards client-supplied
//! overrides straight into these configs.

use amperebleed::campaign::CampaignConfig;
use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::fingerprint::{self, FingerprintConfig};
use amperebleed::rsa_attack::{self, RsaAttackConfig};
use amperebleed::{covert, AttackError, Platform};
use fpga_fabric::covert::CovertConfig;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::pool::Pool;
use zynq_soc::SimTime;

fn ready_platform(seed: u64) -> Platform {
    let mut p = Platform::zcu102(seed);
    p.deploy_virus(VirusConfig::default()).unwrap();
    p
}

fn assert_invalid<T: std::fmt::Debug>(result: amperebleed::Result<T>, what: &str) {
    match result {
        Err(AttackError::InvalidParameter(_)) => {}
        other => panic!("{what}: expected InvalidParameter, got {other:?}"),
    }
}

#[test]
fn characterize_rejects_zero_sample_count() {
    let p = ready_platform(400);
    let cfg = CharacterizeConfig {
        samples_per_level: 0,
        ..CharacterizeConfig::quick()
    };
    assert_invalid(characterize::run(&p, &cfg), "zero samples_per_level");
}

#[test]
fn characterize_rejects_zero_duration_settle_phase() {
    let p = ready_platform(401);
    let cfg = CharacterizeConfig {
        settle: SimTime::ZERO,
        ..CharacterizeConfig::quick()
    };
    assert_invalid(characterize::run(&p, &cfg), "zero-duration settle");
}

#[test]
fn characterize_rejects_out_of_range_sample_rates() {
    let p = ready_platform(402);
    for rate in [0.0, -1_000.0, f64::NAN, f64::INFINITY] {
        let cfg = CharacterizeConfig {
            sample_rate_hz: rate,
            ..CharacterizeConfig::quick()
        };
        assert_invalid(characterize::run(&p, &cfg), &format!("rate {rate}"));
    }
}

#[test]
fn characterize_rejects_sweeps_that_overflow_the_clock() {
    // Two levels on a platform with the virus and an RO bank, so every
    // capture path of the sweep (hwmon and fabric baseline) is reachable.
    let mut p = ready_platform(404);
    p.deploy_ro_bank(RoConfig::default()).unwrap();
    let with = |edit: fn(&mut CharacterizeConfig)| {
        let mut cfg = CharacterizeConfig {
            levels: vec![0, 1],
            samples_per_level: 4,
            ..CharacterizeConfig::quick()
        };
        edit(&mut cfg);
        cfg
    };
    let cases = [
        ("1e12 s period", with(|c| c.sample_rate_hz = 1e-12)),
        ("infinite period", with(|c| c.sample_rate_hz = 5e-324)),
        (
            "usize::MAX samples",
            with(|c| c.samples_per_level = usize::MAX),
        ),
        (
            "u64::MAX / 2 settle",
            with(|c| c.settle = SimTime::from_nanos(u64::MAX / 2)),
        ),
    ];
    for (what, cfg) in cases {
        assert_invalid(characterize::run(&p, &cfg), what);
        let factory = |_level: u32| Ok(ready_platform(404));
        assert_invalid(
            characterize::run_parallel(factory, &cfg, &Pool::serial()),
            what,
        );
    }
    // The walk from the 40 ms start through two settles and two 4 ms
    // level spans ends one nanosecond below u64::MAX: that still fits.
    let edge = (u64::MAX - 40_000_000 - 2 * 4_000_000) / 2;
    let mut cfg = with(|_| {});
    cfg.settle = SimTime::from_nanos(edge);
    assert!(cfg.validate().is_ok());
    cfg.settle = SimTime::from_nanos(edge + 1);
    assert_invalid(cfg.validate(), "one nanosecond past the clock");
}

#[test]
fn characterize_parallel_validates_before_spawning_jobs() {
    let cfg = CharacterizeConfig {
        samples_per_level: 0,
        ..CharacterizeConfig::quick()
    };
    let factory = |_level: u32| Ok(ready_platform(403));
    assert_invalid(
        characterize::run_parallel(factory, &cfg, &Pool::serial()),
        "parallel zero samples",
    );
}

#[test]
fn fingerprint_rejects_degenerate_configs() {
    let zero_traces = FingerprintConfig {
        traces_per_model: 0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run_with(&zero_traces, 2, &Pool::serial()),
        "zero traces_per_model",
    );

    let zero_capture = FingerprintConfig {
        capture_seconds: 0.0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run_with(&zero_capture, 2, &Pool::serial()),
        "zero capture_seconds",
    );

    let zero_resample = FingerprintConfig {
        resample_len: 0,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run_with(&zero_resample, 2, &Pool::serial()),
        "zero resample_len",
    );

    let one_fold = FingerprintConfig {
        folds: 1,
        ..FingerprintConfig::quick()
    };
    assert_invalid(
        fingerprint::run_with(&one_fold, 2, &Pool::serial()),
        "single fold",
    );

    assert_invalid(
        fingerprint::run_with(&FingerprintConfig::quick(), 0, &Pool::serial()),
        "zero models",
    );
    assert_invalid(
        fingerprint::run_with(&FingerprintConfig::quick(), 10_000, &Pool::serial()),
        "more models than the zoo holds",
    );
}

#[test]
fn rsa_rejects_zero_samples_and_bad_statistics_settings() {
    let zero_samples = RsaAttackConfig {
        samples_per_key: 0,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(rsa_attack::run(&zero_samples), "zero samples_per_key");

    let bad_rate = RsaAttackConfig {
        sample_rate_hz: f64::NAN,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(rsa_attack::run(&bad_rate), "NaN sample rate");

    let bad_z = RsaAttackConfig {
        z_score: 0.0,
        ..RsaAttackConfig::quick()
    };
    assert_invalid(rsa_attack::run(&bad_z), "zero z-score");
}

#[test]
fn covert_round_trip_rejects_empty_payload() {
    assert_invalid(
        covert::round_trip(&CovertConfig::default(), b"", 7),
        "empty payload",
    );
}

#[test]
fn campaign_validate_catches_stage_overrides_up_front() {
    let mut cfg = CampaignConfig::minimal();
    assert!(cfg.validate().is_ok());
    cfg.characterize.samples_per_level = 0;
    assert_invalid(cfg.validate(), "campaign with zero samples_per_level");
    // campaign::run fails fast on the same config, before any capture.
    assert_invalid(
        amperebleed::campaign::run(&cfg),
        "campaign run with bad stage config",
    );
}

#[test]
fn valid_quick_configs_still_pass_validation() {
    assert!(CharacterizeConfig::quick().validate().is_ok());
    assert!(FingerprintConfig::quick().validate().is_ok());
    assert!(RsaAttackConfig::quick().validate().is_ok());
    assert!(CampaignConfig::default().validate().is_ok());
}
