//! Checkpoint/resume contracts of the sweep verbs.
//!
//! The acceptance criteria this file pins:
//!
//! * A `defend` sweep resumed from a partially persisted checkpoint
//!   produces a report **equal to a fresh uninterrupted run** — the
//!   per-point codec round-trips every `f64` bit-exactly, so the rendered
//!   table is byte-identical too.
//! * The same holds for a `characterize` sweep resumed mid-way.
//! * A checkpoint record that decodes but carries the wrong schema is
//!   recomputed, never trusted — damage costs work, not correctness.
//! * After a resumed run, the checkpoint holds every point, so a second
//!   resume computes nothing.
//! * Points are ordinary store records: a resume after the store's last
//!   segment was torn mid-record recovers through the store's own
//!   truncation and still equals a fresh run.

use std::path::{Path, PathBuf};

use amperebleed::characterize::{self, CharacterizeConfig};
use amperebleed::defend::{self, AttackKind, DefendConfig};
use amperebleed::Platform;
use fpga_fabric::ring_oscillator::RoConfig;
use fpga_fabric::virus::VirusConfig;
use sim_rt::Pool;
use sim_store::{Checkpoint, Digest, Store, StoreConfig};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("amperebleed-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` on the checkpoint of `sweep` in a store opened over `dir`;
/// the store closes when `f` returns, as at a process exit.
fn with_checkpoint<R>(dir: &Path, sweep: Digest, f: impl FnOnce(&Checkpoint) -> R) -> R {
    let store = Store::open(StoreConfig {
        dir: Some(dir.to_path_buf()),
        ..StoreConfig::default()
    })
    .unwrap();
    f(&Checkpoint {
        store: &store,
        sweep,
    })
}

/// How many of points `0..n` the checkpoint holds.
fn stored_points(ckpt: &Checkpoint, n: u64) -> usize {
    (0..n).filter(|&i| ckpt.get(i).is_some()).count()
}

#[test]
fn defend_resume_equals_fresh_run() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let fresh = defend::run_with(&config, &Pool::serial()).unwrap();

    let dir = tmpdir("defend");
    let sweep = config.sweep_key();
    let n = 1 + config.strengths.len() as u64;
    // Simulate an interrupted sweep: only the baseline and the first
    // strength point landed before the drain.
    with_checkpoint(&dir, sweep, |partial| {
        partial.put(0, &fresh.baseline.to_value().to_json());
        partial.put(1, &fresh.points[0].to_value().to_json());
    });
    let resumed = with_checkpoint(&dir, sweep, |ckpt| {
        assert_eq!(stored_points(ckpt, n), 2);
        let resumed = defend::run_checkpointed(&config, &Pool::new(2), Some(ckpt)).unwrap();
        // The resumed run back-filled the missing points: a second
        // resume decodes everything.
        assert_eq!(stored_points(ckpt, n), n as usize);
        resumed
    });

    assert_eq!(resumed, fresh);
    assert_eq!(resumed.render(), fresh.render());
    for (a, b) in resumed.points.iter().zip(&fresh.points) {
        assert_eq!(a.success.to_bits(), b.success.to_bits());
        assert_eq!(a.strength.to_bits(), b.strength.to_bits());
    }
    let replayed = with_checkpoint(&dir, sweep, |ckpt| {
        defend::run_checkpointed(&config, &Pool::new(8), Some(ckpt)).unwrap()
    });
    assert_eq!(replayed, fresh);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_after_torn_segment_tail_equals_fresh_run() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let fresh = defend::run_with(&config, &Pool::serial()).unwrap();

    let dir = tmpdir("torn");
    let sweep = config.sweep_key();
    with_checkpoint(&dir, sweep, |partial| {
        partial.put(0, &fresh.baseline.to_value().to_json());
        partial.put(1, &fresh.points[0].to_value().to_json());
    });
    // A writer killed mid-append: chop the last segment inside point 1's
    // record.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .max()
        .unwrap();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 5]).unwrap();

    let resumed = with_checkpoint(&dir, sweep, |ckpt| {
        assert_eq!(ckpt.store.stats().recovered_truncated, 1);
        assert!(ckpt.get(0).is_some());
        assert!(ckpt.get(1).is_none(), "the torn point is gone");
        defend::run_checkpointed(&config, &Pool::new(2), Some(ckpt)).unwrap()
    });
    assert_eq!(resumed, fresh);
    assert_eq!(resumed.render(), fresh.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn points_are_index_addressed_and_scoped_to_their_sweep() {
    let dir = tmpdir("index");
    let (a, b) = (Digest::of_str("sweep-a"), Digest::of_str("sweep-b"));
    // Landing order 2, 0: index addressing must not care.
    with_checkpoint(&dir, a, |ckpt| {
        ckpt.put(2, r#"{"p":2}"#);
        ckpt.put(0, r#"{"p":0}"#);
    });
    with_checkpoint(&dir, a, |ckpt_a| {
        assert_eq!(ckpt_a.get(0).as_deref(), Some(r#"{"p":0}"#));
        assert_eq!(ckpt_a.get(1), None);
        assert_eq!(ckpt_a.get(2).as_deref(), Some(r#"{"p":2}"#));
        // Another sweep in the same store never sees these points, and
        // its own points never shadow them.
        let ckpt_b = Checkpoint {
            sweep: b,
            ..*ckpt_a
        };
        assert_eq!(stored_points(&ckpt_b, 3), 0);
        ckpt_b.put(0, r#"{"from":"b"}"#);
        assert_eq!(ckpt_b.get(0).as_deref(), Some(r#"{"from":"b"}"#));
        assert_eq!(ckpt_a.get(0).as_deref(), Some(r#"{"p":0}"#));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn defend_recomputes_schema_damaged_records() {
    let config = DefendConfig::quick(AttackKind::Covert);
    let fresh = defend::run_with(&config, &Pool::serial()).unwrap();

    // Valid JSON, wrong shape: must be recomputed, not trusted.
    let store = Store::in_memory();
    let ckpt = Checkpoint {
        store: &store,
        sweep: config.sweep_key(),
    };
    ckpt.put(0, r#"{"not":"a point"}"#);
    ckpt.put(2, "42");
    let resumed = defend::run_checkpointed(&config, &Pool::serial(), Some(&ckpt)).unwrap();
    assert_eq!(resumed, fresh);
}

#[test]
fn characterize_resume_equals_fresh_run() {
    let factory = |_level: u32| {
        let mut p = Platform::zcu102(1_000);
        p.deploy_virus(VirusConfig::default())?;
        p.deploy_ro_bank(RoConfig::default())?;
        Ok(p)
    };
    let mut cfg = CharacterizeConfig::quick();
    cfg.levels = vec![0, 40, 80, 120, 160];
    cfg.samples_per_level = 120;
    let fresh = characterize::run_parallel(factory, &cfg, &Pool::serial()).unwrap();

    let dir = tmpdir("char");
    let sweep = cfg.sweep_key(1_000);
    // Rows 0 and 3 landed; the rest are missing.
    with_checkpoint(&dir, sweep, |partial| {
        partial.put(0, &fresh.rows[0].to_value().to_json());
        partial.put(3, &fresh.rows[3].to_value().to_json());
    });
    with_checkpoint(&dir, sweep, |ckpt| {
        let resumed =
            characterize::run_parallel_checkpointed(factory, &cfg, &Pool::new(2), Some(ckpt))
                .unwrap();
        assert_eq!(resumed, fresh);
        assert_eq!(
            stored_points(ckpt, cfg.levels.len() as u64),
            cfg.levels.len()
        );
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_keys_separate_distinct_sweeps() {
    let covert = DefendConfig::quick(AttackKind::Covert);
    let rsa = DefendConfig::quick(AttackKind::Rsa);
    assert_ne!(covert.sweep_key(), rsa.sweep_key());
    let mut reseeded = covert.clone();
    reseeded.seed += 1;
    assert_ne!(covert.sweep_key(), reseeded.sweep_key());
    assert_eq!(
        covert.sweep_key(),
        DefendConfig::quick(AttackKind::Covert).sweep_key()
    );

    let quick = CharacterizeConfig::quick();
    assert_ne!(quick.sweep_key(1), quick.sweep_key(2));
    assert_eq!(quick.sweep_key(1), CharacterizeConfig::quick().sweep_key(1));
}
