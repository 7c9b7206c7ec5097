//! Differential pins for `HwmonFs::read_run`, the run read the sampler
//! captures through.
//!
//! A run read must hand back exactly what a `read_value` loop over the
//! same instants and files returns, leave the sensor where that loop
//! leaves it (the next read agrees), and move every read counter by the
//! same amount — with no defense, under the `sim-defend` jittered update
//! clock, after an `update_interval` write, and on a root-restricted
//! device. Each case runs on twin platforms, since reads advance sensor
//! noise.
//!
//! Counters are process-global, so the tests in this file serialize on
//! one lock to read clean deltas.

use std::sync::{Arc, Mutex, MutexGuard};

use amperebleed::{Channel, CurrentSampler, Platform};
use fpga_fabric::virus::VirusConfig;
use hwmon_sim::{Attribute, HwmonError, Privilege, SensorHandle};
use sim_defend::{DefenseStack, UpdateJitter};
use zynq_soc::{PowerDomain, SimTime};

/// Every counter a hwmon read moves.
const COUNTERS: [&str; 6] = [
    "hwmon.fs.reads",
    "hwmon.fs.reads_denied",
    "hwmon.reads.fresh",
    "hwmon.reads.held",
    "sampler.reads.held_fastpath",
    "ina226.conversions",
];

/// The sampler's own per-read counters.
const SAMPLER_COUNTERS: [&str; 4] = [
    "sampler.reads.current",
    "sampler.reads.voltage",
    "sampler.reads.power",
    "sampler.read_errors",
];

const START: SimTime = SimTime::from_nanos(40_000_000);

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn snapshot<const N: usize>(names: [&str; N]) -> [u64; N] {
    names.map(|name| obs::metrics::counter(name).get())
}

fn delta<const N: usize>(names: [&str; N], before: [u64; N]) -> [u64; N] {
    let after = snapshot(names);
    std::array::from_fn(|i| after[i] - before[i])
}

fn platform(seed: u64) -> Platform {
    let mut p = Platform::zcu102(seed);
    let virus = p.deploy_virus(VirusConfig::default()).unwrap();
    virus.activate_groups(90).unwrap();
    p
}

fn handles(p: &Platform, attrs: &[Attribute]) -> Vec<SensorHandle> {
    attrs
        .iter()
        .map(|&a| p.sensor_handle(PowerDomain::FpgaLogic, a))
        .collect()
}

/// The reference: one `read_value` per instant and file, stopping at the
/// first error.
fn loop_read(
    p: &Platform,
    handles: &[SensorHandle],
    period: SimTime,
    count: usize,
    privilege: Privilege,
) -> Result<Vec<Vec<i64>>, HwmonError> {
    let mut out = vec![Vec::new(); handles.len()];
    for k in 0..count as u64 {
        let t = START.checked_step(period, k).unwrap();
        for (slot, &h) in handles.iter().enumerate() {
            out[slot].push(p.hwmon().read_value(h, t, privilege)?);
        }
    }
    Ok(out)
}

fn run_read(
    p: &Platform,
    handles: &[SensorHandle],
    period: SimTime,
    count: usize,
    privilege: Privilege,
) -> Result<Vec<Vec<i64>>, HwmonError> {
    let mut out = vec![Vec::new(); handles.len()];
    p.hwmon()
        .read_run(handles, START, period, count, privilege, |slot, v| {
            out[slot].push(v)
        })?;
    Ok(out)
}

/// Runs both reads on twin platforms built by `make` and checks values,
/// errors, counter deltas and the sensor state the reads leave behind.
fn assert_run_matches_loop(
    make: &dyn Fn() -> Platform,
    attrs: &[Attribute],
    period: SimTime,
    count: usize,
    privilege: Privilege,
) {
    let (a, b) = (make(), make());
    let (ha, hb) = (handles(&a, attrs), handles(&b, attrs));
    let before = snapshot(COUNTERS);
    let looped = loop_read(&a, &ha, period, count, privilege);
    let loop_counts = delta(COUNTERS, before);
    let before = snapshot(COUNTERS);
    let run = run_read(&b, &hb, period, count, privilege);
    let run_counts = delta(COUNTERS, before);
    let case = format!("{attrs:?} period {period} count {count} {privilege:?}");
    assert_eq!(format!("{run:?}"), format!("{looped:?}"), "{case}");
    assert_eq!(run_counts, loop_counts, "{case}: counter deltas");
    // Both sensors sit in the same state: the next reads agree, including
    // one that lands in the last window of the run.
    let last = START.checked_step(period, count as u64).unwrap();
    for t in [last, last + SimTime::from_ms(100)] {
        let next = |p: &Platform, h: &[SensorHandle]| {
            p.hwmon().read_value(h[0], t, Privilege::Root).unwrap()
        };
        assert_eq!(next(&a, &ha), next(&b, &hb), "{case}: next read at {t}");
    }
}

/// Read patterns from every-read-converts to long value-hold runs.
const PERIODS_NS: [u64; 5] = [1_000_000, 35_000_000, 143_000_000, 20_000, 1_234_567];
const COUNTS: [usize; 3] = [1, 17, 400];
const ATTR_SETS: [&[Attribute]; 3] = [
    &[Attribute::Curr1Input],
    &[
        Attribute::Curr1Input,
        Attribute::In1Input,
        Attribute::Power1Input,
    ],
    &[Attribute::In0Input, Attribute::Power1Input],
];

fn sweep(make: &dyn Fn() -> Platform) {
    for ns in PERIODS_NS {
        for count in COUNTS {
            for attrs in ATTR_SETS {
                let period = SimTime::from_nanos(ns);
                assert_run_matches_loop(make, attrs, period, count, Privilege::User);
            }
        }
    }
}

#[test]
fn run_read_matches_the_read_loop_without_defense() {
    let _serial = serial();
    sweep(&|| platform(61));
}

#[test]
fn run_read_matches_the_read_loop_under_jittered_updates() {
    let _serial = serial();
    sweep(&|| {
        let mut p = platform(62);
        DefenseStack::new()
            .with(Arc::new(UpdateJitter::new(0.9, 5)))
            .install(p.hwmon_mut())
            .unwrap();
        p
    });
}

#[test]
fn run_read_matches_the_read_loop_after_an_interval_write() {
    let _serial = serial();
    for ms in ["2", "11"] {
        sweep(&|| {
            let p = platform(63);
            let path = p.sensor_path(PowerDomain::FpgaLogic, "update_interval");
            p.hwmon().write(path, ms, Privilege::Root).unwrap();
            p
        });
    }
}

#[test]
fn restricted_device_refuses_the_run_on_its_first_read() {
    let _serial = serial();
    let restricted = || {
        let mut p = platform(64);
        let name = p
            .hwmon()
            .device(
                p.sensor_handle(PowerDomain::FpgaLogic, Attribute::Name)
                    .index(),
            )
            .unwrap()
            .name()
            .to_owned();
        p.hwmon_mut().restrict_reads_to_root(&name).unwrap();
        p
    };
    let period = SimTime::from_ms(1);
    for attrs in ATTR_SETS {
        // Same `PermissionDenied`, same single counted read and denial.
        assert_run_matches_loop(&restricted, attrs, period, 50, Privilege::User);
        // Root reads through the mitigation.
        assert_run_matches_loop(&restricted, attrs, period, 50, Privilege::Root);
    }
    // The sampler counts the one failed read and one error.
    let p = restricted();
    let before = snapshot(SAMPLER_COUNTERS);
    let err = CurrentSampler::unprivileged(&p).capture_all_channels(
        PowerDomain::FpgaLogic,
        START,
        1_000.0,
        50,
    );
    assert!(err.is_err());
    assert_eq!(delta(SAMPLER_COUNTERS, before), [1, 0, 0, 1]);
}

#[test]
fn sampler_counts_every_read_of_a_run() {
    let _serial = serial();
    let p = platform(65);
    let sampler = CurrentSampler::unprivileged(&p);
    let before = snapshot(SAMPLER_COUNTERS);
    sampler
        .capture_all_channels(PowerDomain::FpgaLogic, START, 1_000.0, 300)
        .unwrap();
    sampler
        .capture(PowerDomain::FpgaLogic, Channel::Power, START, 500.0, 40)
        .unwrap();
    assert_eq!(delta(SAMPLER_COUNTERS, before), [300, 300, 340, 0]);
}

#[test]
fn stale_handle_fails_like_the_loop() {
    let _serial = serial();
    let stale = [SensorHandle::new(99, Attribute::Curr1Input)];
    let p = platform(66);
    let before = snapshot(COUNTERS);
    let looped = loop_read(&p, &stale, SimTime::from_ms(1), 5, Privilege::User);
    let loop_counts = delta(COUNTERS, before);
    let before = snapshot(COUNTERS);
    let run = run_read(&p, &stale, SimTime::from_ms(1), 5, Privilege::User);
    assert_eq!(delta(COUNTERS, before), loop_counts);
    assert!(matches!(run, Err(HwmonError::NoSuchFile(_))));
    assert_eq!(format!("{run:?}"), format!("{looped:?}"));
}

#[test]
fn run_read_rejects_what_it_cannot_serve_without_counting() {
    let _serial = serial();
    let p = platform(67);
    let curr = p.sensor_handle(PowerDomain::FpgaLogic, Attribute::Curr1Input);
    let other = p.sensor_handle(PowerDomain::Ddr, Attribute::Curr1Input);
    let interval = p.sensor_handle(PowerDomain::FpgaLogic, Attribute::UpdateInterval);
    let overflow = SimTime::from_nanos(u64::MAX / 4);
    let cases: [(&[SensorHandle], SimTime, usize); 3] = [
        (&[curr, other], SimTime::from_ms(1), 10),
        (&[curr, interval], SimTime::from_ms(1), 10),
        // The window's last instant is past the clock.
        (&[curr], overflow, 5),
    ];
    for (hs, period, count) in cases {
        let before = snapshot(COUNTERS);
        let run = run_read(&p, hs, period, count, Privilege::User);
        assert!(matches!(run, Err(HwmonError::InvalidInput(_))), "{run:?}");
        assert_eq!(delta(COUNTERS, before), [0; 6]);
    }
    // Nothing to read is an empty success.
    assert_eq!(
        run_read(&p, &[], SimTime::from_ms(1), 10, Privilege::User),
        Ok(vec![])
    );
    assert_eq!(
        run_read(&p, &[curr], SimTime::from_ms(1), 0, Privilege::User),
        Ok(vec![vec![]])
    );
}
