//! Composable countermeasure layers for the simulated sensing path.
//!
//! AmpereBleed's attacks need nothing but the hwmon current nodes, so the
//! defense literature attacks exactly that interface: SHIELD-style noise
//! injection and activity-triggered throttling, quantization widening, and
//! update-clock dithering all degrade what an unprivileged reader can
//! learn, while the paper's own Section V policy simply takes the nodes
//! away. This crate reproduces those countermeasures as a library of
//! [`DefenseLayer`]s that stack in any order on a platform's
//! [`HwmonFs`] via the [`hwmon_sim::SensorDefense`] hook points:
//!
//! * **When** a conversion latches — [`UpdateJitter`] dithers the update
//!   boundary of each window.
//! * **What** the sensor averages — [`NoiseInject`] perturbs the analog
//!   operating points before conversion.
//! * **What** readers see — [`Quantize`] widens the output LSB and
//!   [`Throttle`] slew-limits large swings; [`RootOnly`] (the Section V
//!   baseline) removes unprivileged access entirely at install time.
//!
//! Every layer has a `strength` in `[0, 1]`; strength `0` is exactly a
//! no-op (a stack of zero-strength layers installs nothing, so readings
//! are bit-identical to an undefended platform). All randomness is
//! stateless: a layer's noise sequence is a pure function of its own seed
//! (derived from the campaign seed and the layer *kind*, never its stack
//! position) plus the device and window being converted — so stacking
//! order cannot change a layer's sequence, and repeated runs are
//! byte-identical at any thread count.
//!
//! # Examples
//!
//! ```
//! use sim_defend::{stack_from, LayerKind};
//!
//! let stack = stack_from(&[LayerKind::Jitter, LayerKind::Noise], 0.5, 42);
//! assert_eq!(stack.describe(), "jitter:0.50+noise:0.50");
//! assert!(!stack.is_noop());
//! // `stack.install(&mut fs)` wires it onto a platform's hwmon tree.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod layers;

use std::sync::Arc;

use hwmon_sim::{HwmonFs, Readouts, SensorDefense};
use sim_rt::rng::derive_seed;

pub use layers::{NoiseInject, Quantize, RootOnly, Throttle, UpdateJitter};

/// FNV-1a hash of a name into a stream identifier — how layers map device
/// names and layer kinds onto independent [`zynq_soc::hash01`] streams.
pub fn stream_id(name: &str) -> u64 {
    sim_rt::rng::fnv1a64(name.as_bytes())
}

/// One countermeasure in a [`DefenseStack`].
///
/// The runtime hooks mirror [`hwmon_sim::SensorDefense`] but receive a
/// precomputed `device_stream` (see [`stream_id`]) instead of the device
/// name, so stateless layers can hash without re-walking the string. All
/// hooks default to the identity; [`install`](DefenseLayer::install) lets
/// install-time layers (like [`RootOnly`]) act on the tree itself.
pub trait DefenseLayer: Send + Sync + std::fmt::Debug {
    /// Short stable name used in stack descriptions and reports.
    fn name(&self) -> &'static str;

    /// The layer's strength in `[0, 1]`; `0` must mean "exactly off".
    fn strength(&self) -> f64;

    /// Whether this layer is a no-op at its current strength. No-op layers
    /// are skipped entirely at install time, which is what guarantees a
    /// zero-strength stack leaves readings bit-identical to an undefended
    /// platform.
    fn is_noop(&self) -> bool {
        self.strength() <= 0.0
    }

    /// Whether the layer participates in the per-conversion runtime hooks
    /// (as opposed to acting only at install time, like [`RootOnly`]).
    fn runtime_hooks(&self) -> bool {
        true
    }

    /// Install-time action on the hwmon tree (permission changes, ...).
    ///
    /// # Errors
    ///
    /// Propagates [`hwmon_sim::HwmonError`] from tree manipulation.
    fn install(&self, _fs: &mut HwmonFs) -> hwmon_sim::Result<()> {
        Ok(())
    }

    /// See [`SensorDefense::boundary_offset_ns`].
    fn boundary_offset_ns(&self, _device_stream: u64, _window: u64, _interval_ns: u64) -> u64 {
        0
    }

    /// See [`SensorDefense::perturb_steps`].
    fn perturb_steps(&self, _device_stream: u64, _window: u64, _steps: &mut [(f64, f64)]) {}

    /// See [`SensorDefense::transform`].
    fn transform(&self, _device_stream: u64, _window: u64, readouts: Readouts) -> Readouts {
        readouts
    }
}

/// An ordered stack of defense layers sharing one install call.
///
/// Layers apply in push order at every hook: boundary offsets add up
/// (clamped to the update interval by the device), analog perturbations
/// and digital transforms chain. Ordering therefore matters *semantically*
/// (quantizing before throttling differs from after), but never changes
/// any individual layer's own noise sequence — each layer seeds its
/// randomness from its kind, not its position.
#[derive(Debug, Clone, Default)]
pub struct DefenseStack {
    layers: Vec<Arc<dyn DefenseLayer>>,
}

impl DefenseStack {
    /// An empty stack (a no-op).
    pub fn new() -> Self {
        DefenseStack::default()
    }

    /// Appends a layer; returns `self` for chaining.
    #[must_use]
    pub fn with(mut self, layer: Arc<dyn DefenseLayer>) -> Self {
        self.layers.push(layer);
        self
    }

    /// Appends a layer in place.
    pub fn push(&mut self, layer: Arc<dyn DefenseLayer>) {
        self.layers.push(layer);
    }

    /// The stacked layers, in application order.
    pub fn layers(&self) -> &[Arc<dyn DefenseLayer>] {
        &self.layers
    }

    /// Whether the whole stack is a no-op (empty or all layers at
    /// strength zero).
    pub fn is_noop(&self) -> bool {
        self.layers.iter().all(|l| l.is_noop())
    }

    /// Stable textual form, e.g. `"jitter:0.50+noise:0.50"` (`"none"` for
    /// an empty stack) — used in sweep reports.
    pub fn describe(&self) -> String {
        if self.layers.is_empty() {
            return "none".to_owned();
        }
        self.layers
            .iter()
            .map(|l| format!("{}:{:.2}", l.name(), l.strength()))
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Installs the stack on a hwmon tree: runs each active layer's
    /// install-time action, then registers the runtime hooks — but only if
    /// some active layer actually has runtime hooks, so a stack of no-ops
    /// (or of install-only layers) leaves the sensing fast path untouched.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer install.
    pub fn install(&self, fs: &mut HwmonFs) -> hwmon_sim::Result<()> {
        obs::counter!("defend.stack.installs").inc();
        let active: Vec<Arc<dyn DefenseLayer>> = self
            .layers
            .iter()
            .filter(|l| !l.is_noop())
            .map(Arc::clone)
            .collect();
        for layer in &active {
            layer.install(fs)?;
        }
        let runtime: Vec<Arc<dyn DefenseLayer>> =
            active.into_iter().filter(|l| l.runtime_hooks()).collect();
        if !runtime.is_empty() {
            fs.install_defense(Arc::new(RuntimeStack { layers: runtime }));
        }
        Ok(())
    }
}

/// The [`SensorDefense`] adapter a [`DefenseStack`] registers: folds the
/// active runtime layers over each hook, hashing the device name into a
/// stream id once per call.
#[derive(Debug)]
struct RuntimeStack {
    layers: Vec<Arc<dyn DefenseLayer>>,
}

impl SensorDefense for RuntimeStack {
    fn boundary_offset_ns(&self, device: &str, window: u64, interval_ns: u64) -> u64 {
        let stream = stream_id(device);
        self.layers
            .iter()
            .map(|l| l.boundary_offset_ns(stream, window, interval_ns))
            .fold(0u64, u64::saturating_add)
    }

    fn perturb_steps(&self, device: &str, window: u64, steps: &mut [(f64, f64)]) {
        let stream = stream_id(device);
        for layer in &self.layers {
            layer.perturb_steps(stream, window, steps);
        }
    }

    fn transform(&self, device: &str, window: u64, readouts: Readouts) -> Readouts {
        obs::counter!("defend.stack.transforms").inc();
        let stream = stream_id(device);
        self.layers
            .iter()
            .fold(readouts, |r, layer| layer.transform(stream, window, r))
    }
}

/// The layer kinds a sweep can instantiate by name — the configuration
/// surface of the `defend` campaign verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum LayerKind {
    /// [`RootOnly`] — the paper's Section V root-only read policy.
    RootOnly,
    /// [`UpdateJitter`] — update-clock dithering.
    Jitter,
    /// [`Quantize`] — output LSB widening.
    Quantize,
    /// [`NoiseInject`] — calibrated analog current noise.
    Noise,
    /// [`Throttle`] — SHIELD-style activity-triggered slew limiting.
    Throttle,
}

impl LayerKind {
    /// Every kind, in canonical order.
    pub const ALL: [LayerKind; 5] = [
        LayerKind::RootOnly,
        LayerKind::Jitter,
        LayerKind::Quantize,
        LayerKind::Noise,
        LayerKind::Throttle,
    ];

    /// Stable configuration tag (`"root-only"`, `"jitter"`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            LayerKind::RootOnly => "root-only",
            LayerKind::Jitter => "jitter",
            LayerKind::Quantize => "quantize",
            LayerKind::Noise => "noise",
            LayerKind::Throttle => "throttle",
        }
    }

    /// Parses a configuration tag.
    pub fn from_tag(tag: &str) -> Option<LayerKind> {
        LayerKind::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Builds this kind at `strength`, deriving the layer's seed from the
    /// campaign master seed and the kind's tag — *not* from any stack
    /// index, so the same layer draws the same noise sequence wherever it
    /// sits in a stack.
    pub fn build(self, strength: f64, master_seed: u64) -> Arc<dyn DefenseLayer> {
        let seed = derive_seed(master_seed, stream_id(self.tag()));
        match self {
            LayerKind::RootOnly => Arc::new(RootOnly::new(strength)),
            LayerKind::Jitter => Arc::new(UpdateJitter::new(strength, seed)),
            LayerKind::Quantize => Arc::new(Quantize::new(strength)),
            LayerKind::Noise => Arc::new(NoiseInject::new(strength, seed)),
            LayerKind::Throttle => Arc::new(Throttle::new(strength)),
        }
    }
}

/// Builds a [`DefenseStack`] of `kinds` (in order) with one shared
/// `strength`, seeding every layer from `master_seed` via its kind tag.
pub fn stack_from(kinds: &[LayerKind], strength: f64, master_seed: u64) -> DefenseStack {
    let mut stack = DefenseStack::new();
    for &kind in kinds {
        stack.push(kind.build(strength, master_seed));
    }
    stack
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmon_sim::{HwmonDevice, Privilege};
    use std::sync::Arc;
    use zynq_soc::SimTime;

    fn quiet_fs(seed: u64) -> HwmonFs {
        let probe: Arc<dyn hwmon_sim::RailProbe> =
            Arc::new(|t: SimTime| (1.0 + 0.2 * t.as_secs_f64(), 0.85));
        let mut fs = HwmonFs::new();
        for (i, name) in ["ina226_u76", "ina226_u79"].iter().enumerate() {
            let dev = HwmonDevice::new(*name, 0.0005, 0.0005, Arc::clone(&probe), seed + i as u64);
            dev.with_sensor(|s| s.set_adc_noise(0.0, 0.0));
            fs.register(dev);
        }
        fs
    }

    fn read_ma(fs: &HwmonFs, ms: u64) -> i64 {
        fs.read_raw(
            "/sys/class/hwmon/hwmon0/curr1_input",
            SimTime::from_ms(ms),
            Privilege::User,
        )
        .unwrap()
    }

    #[test]
    fn stream_id_is_stable_and_distinct() {
        assert_eq!(stream_id("ina226_u76"), stream_id("ina226_u76"));
        assert_ne!(stream_id("ina226_u76"), stream_id("ina226_u79"));
        assert_ne!(stream_id("jitter"), stream_id("noise"));
        // Recorded before the hash moved into sim-rt.
        assert_eq!(stream_id("ina226_u76"), 0x4a91_bc16_4054_0d38);
    }

    #[test]
    fn zero_strength_stack_installs_nothing() {
        let mut defended = quiet_fs(3);
        let undefended = quiet_fs(3);
        let stack = stack_from(&LayerKind::ALL, 0.0, 99);
        assert!(stack.is_noop());
        stack.install(&mut defended).unwrap();
        for ms in [40u64, 80, 300, 1_000] {
            assert_eq!(read_ma(&defended, ms), read_ma(&undefended, ms));
        }
        // Section V baseline stays off at strength zero too.
        assert!(defended
            .read_raw(
                "/sys/class/hwmon/hwmon0/curr1_input",
                SimTime::from_ms(40),
                Privilege::User
            )
            .is_ok());
    }

    #[test]
    fn active_stack_changes_readings() {
        let mut defended = quiet_fs(3);
        let undefended = quiet_fs(3);
        let stack = stack_from(&[LayerKind::Noise], 1.0, 99);
        stack.install(&mut defended).unwrap();
        let diverged = [40u64, 80, 300, 1_000]
            .iter()
            .any(|&ms| read_ma(&defended, ms) != read_ma(&undefended, ms));
        assert!(diverged, "full-strength noise must perturb readings");
    }

    #[test]
    fn root_only_in_stack_blocks_user_reads_without_runtime_hooks() {
        let mut fs = quiet_fs(3);
        let stack = stack_from(&[LayerKind::RootOnly], 1.0, 0);
        stack.install(&mut fs).unwrap();
        let path = "/sys/class/hwmon/hwmon0/curr1_input";
        assert!(matches!(
            fs.read_raw(path, SimTime::from_ms(40), Privilege::User),
            Err(hwmon_sim::HwmonError::PermissionDenied(_))
        ));
        // Root readings are bit-identical to an undefended tree: the
        // baseline layer registers no runtime hooks.
        let undefended = quiet_fs(3);
        let v = fs
            .read_raw(path, SimTime::from_ms(40), Privilege::Root)
            .unwrap();
        assert_eq!(v, read_ma(&undefended, 40));
    }

    #[test]
    fn describe_and_tags_round_trip() {
        let stack = stack_from(&[LayerKind::Jitter, LayerKind::Noise], 0.5, 1);
        assert_eq!(stack.describe(), "jitter:0.50+noise:0.50");
        assert_eq!(DefenseStack::new().describe(), "none");
        for kind in LayerKind::ALL {
            assert_eq!(LayerKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(LayerKind::from_tag("bogus"), None);
    }

    #[test]
    fn install_is_repeatable_and_clearable() {
        let mut fs = quiet_fs(5);
        let undefended = quiet_fs(5);
        let stack = stack_from(&[LayerKind::Quantize], 1.0, 7);
        stack.install(&mut fs).unwrap();
        let defended = read_ma(&fs, 40);
        fs.clear_defense();
        assert_eq!(read_ma(&fs, 40), read_ma(&undefended, 40));
        stack.install(&mut fs).unwrap();
        assert_eq!(read_ma(&fs, 40), defended);
    }

    mod properties {
        use super::*;

        sim_rt::prop_check! {
            /// Stacking order never changes a layer's own noise sequence:
            /// the jitter layer's boundary offsets and the noise layer's
            /// analog perturbations are identical whether the layer sits
            /// first or last in the stack.
            fn layer_sequences_are_order_independent(
                seed in 0u64..500,
                strength_pct in 1u64..=100,
                window in 0u64..2_000
            ) {
                let strength = strength_pct as f64 / 100.0;
                let ab = RuntimeStack {
                    layers: vec![
                        LayerKind::Jitter.build(strength, seed),
                        LayerKind::Noise.build(strength, seed),
                        LayerKind::Quantize.build(strength, seed),
                    ],
                };
                let ba = RuntimeStack {
                    layers: vec![
                        LayerKind::Quantize.build(strength, seed),
                        LayerKind::Noise.build(strength, seed),
                        LayerKind::Jitter.build(strength, seed),
                    ],
                };
                let interval = 35_000_000u64;
                assert_eq!(
                    ab.boundary_offset_ns("ina226_u76", window, interval),
                    ba.boundary_offset_ns("ina226_u76", window, interval),
                );
                let mut steps_ab = vec![(1.0, 0.85); 16];
                let mut steps_ba = steps_ab.clone();
                ab.perturb_steps("ina226_u76", window, &mut steps_ab);
                ba.perturb_steps("ina226_u76", window, &mut steps_ba);
                assert_eq!(steps_ab, steps_ba);
            }

            /// Different devices and different windows draw independent
            /// (unequal) jitter offsets — the per-device stream split works.
            fn jitter_streams_are_split_per_device(seed in 0u64..200, window in 0u64..1_000) {
                let jitter = LayerKind::Jitter.build(1.0, seed);
                let interval = 35_000_000u64;
                let a = jitter.boundary_offset_ns(stream_id("ina226_u76"), window, interval);
                let b = jitter.boundary_offset_ns(stream_id("ina226_u79"), window, interval);
                let c = jitter.boundary_offset_ns(stream_id("ina226_u76"), window + 1, interval);
                // Collisions are possible but must not be systematic.
                assert!(a != b || a != c, "offsets degenerate: {a} {b} {c}");
            }
        }
    }
}
