use zynq_soc::SimTime;

use crate::{HwmonDevice, HwmonError, Result};

/// The privilege level of the process performing a sysfs access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Privilege {
    /// An unprivileged user process — the AmpereBleed attacker.
    User,
    /// Root.
    Root,
}

/// A hwmon attribute file, the typed counterpart of the path tail
/// (`curr1_input`, `in1_input`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Attribute {
    /// The device `name` attribute (the only non-numeric file).
    Name,
    /// Latched current in mA.
    Curr1Input,
    /// Latched shunt voltage in mV.
    In0Input,
    /// Latched bus voltage in mV.
    In1Input,
    /// Latched power in µW.
    Power1Input,
    /// The conversion update interval in ms.
    UpdateInterval,
}

impl Attribute {
    /// Every attribute a device exposes, in `ls` order.
    pub const ALL: [Attribute; 6] = [
        Attribute::Name,
        Attribute::Curr1Input,
        Attribute::In0Input,
        Attribute::In1Input,
        Attribute::Power1Input,
        Attribute::UpdateInterval,
    ];

    /// The sysfs file name of this attribute.
    pub fn file_name(self) -> &'static str {
        match self {
            Attribute::Name => "name",
            Attribute::Curr1Input => "curr1_input",
            Attribute::In0Input => "in0_input",
            Attribute::In1Input => "in1_input",
            Attribute::Power1Input => "power1_input",
            Attribute::UpdateInterval => "update_interval",
        }
    }

    /// Parses a sysfs file name.
    pub fn from_file_name(name: &str) -> Option<Attribute> {
        Attribute::ALL.into_iter().find(|a| a.file_name() == name)
    }

    /// Whether this is a measurement attribute (the ones the Section V
    /// mitigation locks down to root).
    pub fn is_measurement(self) -> bool {
        matches!(
            self,
            Attribute::Curr1Input
                | Attribute::In0Input
                | Attribute::In1Input
                | Attribute::Power1Input
        )
    }
}

/// A pre-resolved `(device, attribute)` pair: the typed fast path's file
/// descriptor.
///
/// Resolving a path with [`HwmonFs::resolve`] once and reading through the
/// handle with [`HwmonFs::read_value`] skips the per-read path `format!`,
/// prefix strip and integer parse of the string API — the AmpereBleed
/// sampling loop on real hardware likewise opens the sysfs node once and
/// re-reads the open descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SensorHandle {
    index: usize,
    attr: Attribute,
}

impl SensorHandle {
    /// Builds a handle from a device index and attribute. The index is
    /// validated at read time, like a stale file descriptor would be.
    pub fn new(index: usize, attr: Attribute) -> Self {
        SensorHandle { index, attr }
    }

    /// The `hwmon{index}` device index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The attribute file this handle reads.
    pub fn attribute(&self) -> Attribute {
        self.attr
    }

    /// The sysfs path this handle stands for (allocates; error paths and
    /// diagnostics only).
    pub fn path(&self) -> String {
        format!(
            "/sys/class/hwmon/hwmon{}/{}",
            self.index,
            self.attr.file_name()
        )
    }
}

/// The simulated `/sys/class/hwmon` tree.
///
/// Devices register in order and appear as `hwmon0`, `hwmon1`, ....
/// Reads carry an explicit simulation timestamp (there is no hidden global
/// clock); each read triggers the device's lazy conversion clocking.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug, Default)]
pub struct HwmonFs {
    devices: Vec<HwmonDevice>,
    /// Mitigation mode (Section V), indexed like `devices`: `true` means
    /// the device's measurement attributes require root.
    restricted: Vec<bool>,
}

impl HwmonFs {
    /// Creates an empty tree.
    pub fn new() -> Self {
        HwmonFs::default()
    }

    /// Registers a device; returns its index (`hwmon{index}`).
    pub fn register(&mut self, device: HwmonDevice) -> usize {
        self.devices.push(device);
        self.restricted.push(false);
        self.devices.len() - 1
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the tree has no devices.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The device at `index`, if registered.
    pub fn device(&self, index: usize) -> Option<&HwmonDevice> {
        self.devices.get(index)
    }

    /// Finds a device index by its `name` attribute.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.devices.iter().position(|d| d.name() == name)
    }

    /// Lists all attribute paths, as `ls /sys/class/hwmon/hwmon*/` would.
    pub fn list(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, _) in self.devices.iter().enumerate() {
            for attr in Attribute::ALL {
                out.push(format!("/sys/class/hwmon/hwmon{i}/{}", attr.file_name()));
            }
        }
        out
    }

    /// Enables the Section V mitigation for a device: its measurement
    /// attributes become readable by root only.
    ///
    /// # Errors
    ///
    /// Returns [`HwmonError::NoSuchFile`] if no device has that name.
    pub fn restrict_reads_to_root(&mut self, name: &str) -> Result<()> {
        let index = self
            .index_of(name)
            .ok_or_else(|| HwmonError::NoSuchFile(format!("device {name}")))?;
        self.restricted[index] = true;
        Ok(())
    }

    /// Lifts the read restriction from a device.
    pub fn unrestrict_reads(&mut self, name: &str) {
        if let Some(index) = self.index_of(name) {
            self.restricted[index] = false;
        }
    }

    /// Installs one [`crate::SensorDefense`] on every registered device
    /// (devices registered later are unaffected). Each device's latched
    /// conversion is invalidated so the next read goes through the hooks.
    pub fn install_defense(&mut self, defense: std::sync::Arc<dyn crate::SensorDefense>) {
        for dev in &mut self.devices {
            dev.set_defense(Some(std::sync::Arc::clone(&defense)));
        }
    }

    /// Removes any installed defense from every registered device.
    pub fn clear_defense(&mut self) {
        for dev in &mut self.devices {
            dev.set_defense(None);
        }
    }

    fn parse(path: &str) -> Result<(usize, &str)> {
        let rest = path
            .strip_prefix("/sys/class/hwmon/hwmon")
            .ok_or_else(|| HwmonError::NoSuchFile(path.to_owned()))?;
        let slash = rest
            .find('/')
            .ok_or_else(|| HwmonError::NoSuchFile(path.to_owned()))?;
        let index: usize = rest[..slash]
            .parse()
            .map_err(|_| HwmonError::NoSuchFile(path.to_owned()))?;
        Ok((index, &rest[slash + 1..]))
    }

    /// Resolves a sysfs path to a [`SensorHandle`], the typed path's
    /// analogue of `open(2)`.
    ///
    /// # Errors
    ///
    /// Returns [`HwmonError::NoSuchFile`] for paths outside the tree,
    /// unknown attribute names, or unregistered device indices.
    pub fn resolve(&self, path: &str) -> Result<SensorHandle> {
        let (index, attr) = Self::parse(path)?;
        if index >= self.devices.len() {
            return Err(HwmonError::NoSuchFile(path.to_owned()));
        }
        let attr = Attribute::from_file_name(attr)
            .ok_or_else(|| HwmonError::NoSuchFile(path.to_owned()))?;
        Ok(SensorHandle::new(index, attr))
    }

    /// The device a read through `handle` reaches, after the stale-index
    /// and mitigation checks (a denial is counted and logged here).
    fn open(
        &self,
        handle: SensorHandle,
        now: SimTime,
        privilege: Privilege,
    ) -> Result<&HwmonDevice> {
        let dev = self
            .devices
            .get(handle.index)
            .ok_or_else(|| HwmonError::NoSuchFile(handle.path()))?;
        if self.restricted[handle.index]
            && handle.attr.is_measurement()
            && privilege != Privilege::Root
        {
            obs::counter!("hwmon.fs.reads_denied").inc();
            obs::warn!(
                "hwmon.fs",
                sim = now.as_nanos(),
                "unprivileged read denied by mitigation";
                "hwmon" => handle.index as u64,
                "attr" => handle.attr.file_name()
            );
            return Err(HwmonError::PermissionDenied(handle.path()));
        }
        Ok(dev)
    }

    /// The permission check and raw attribute fetch shared by the typed
    /// and string read paths. Does not count or trace the read itself.
    fn read_numeric(
        &self,
        handle: SensorHandle,
        now: SimTime,
        privilege: Privilege,
    ) -> Result<i64> {
        let dev = self.open(handle, now, privilege)?;
        match handle.attr {
            Attribute::Name => Err(HwmonError::NotNumeric(handle.path())),
            Attribute::Curr1Input => Ok(dev.curr1_input(now)),
            Attribute::In0Input => Ok(dev.in0_input(now)),
            Attribute::In1Input => Ok(dev.in1_input(now)),
            Attribute::Power1Input => Ok(dev.power1_input(now)),
            Attribute::UpdateInterval => Ok(dev.update_interval_ms() as i64),
        }
    }

    /// Reads a numeric attribute through a pre-resolved handle — the
    /// allocation-free sampling fast path. Returns the value in native
    /// hwmon units (mA, mV, µW, ms) with no string round-trip.
    ///
    /// # Errors
    ///
    /// * [`HwmonError::NoSuchFile`] if the handle's device index is stale.
    /// * [`HwmonError::PermissionDenied`] when the mitigation restricts
    ///   the device and the caller is not root.
    /// * [`HwmonError::NotNumeric`] for the `name` attribute.
    pub fn read_value(
        &self,
        handle: SensorHandle,
        now: SimTime,
        privilege: Privilege,
    ) -> Result<i64> {
        obs::counter!("hwmon.fs.reads").inc();
        obs::trace!(
            "hwmon.fs",
            sim = now.as_nanos(),
            "sysfs read";
            "hwmon" => handle.index as u64,
            "attr" => handle.attr.file_name()
        );
        self.read_numeric(handle, now, privilege)
    }

    /// Reads the measurement files `handles` (all on one device) at each
    /// of the `count` instants `start + k * period`, as the loop
    /// `for k { for h in handles { read_value(h, t_k, privilege) } }`
    /// would, and hands `sink(slot, value)` each value in that order.
    ///
    /// The run holds the device's clock lock once for the whole window:
    /// it converts exactly where the per-read path would (the same
    /// boundary function, defense jitter included) and serves every other
    /// read from the latched readouts. Privilege is checked once; a
    /// refused run fails on its first read, as the loop would.
    /// `hwmon.fs.reads`, `hwmon.reads.{fresh,held}` and
    /// `sampler.reads.held_fastpath` end at the loop's totals, and the
    /// trace-level `"sysfs read"` event is one per run, carrying `count`.
    ///
    /// # Errors
    ///
    /// * [`HwmonError::InvalidInput`] (counting no read) when the
    ///   window's last instant overflows the u64 nanosecond clock, or the
    ///   handles span devices or name a non-measurement file.
    /// * [`HwmonError::NoSuchFile`] for a stale device index and
    ///   [`HwmonError::PermissionDenied`] under the mitigation, each after
    ///   counting the one read that fails.
    pub fn read_run(
        &self,
        handles: &[SensorHandle],
        start: SimTime,
        period: SimTime,
        count: usize,
        privilege: Privilege,
        mut sink: impl FnMut(usize, i64),
    ) -> Result<()> {
        let Some(&first) = handles.first() else {
            return Ok(());
        };
        if count == 0 {
            return Ok(());
        }
        if start.checked_step(period, count as u64 - 1).is_none() {
            return Err(HwmonError::InvalidInput(
                "read run overflows the u64 nanosecond clock".into(),
            ));
        }
        if handles
            .iter()
            .any(|h| h.index != first.index || !h.attr.is_measurement())
        {
            return Err(HwmonError::InvalidInput(
                "a read run covers measurement files of one device".into(),
            ));
        }
        let reads = count * handles.len();
        obs::trace!(
            "hwmon.fs",
            sim = start.as_nanos(),
            "sysfs read";
            "hwmon" => first.index as u64,
            "attr" => first.attr.file_name(),
            "count" => reads as u64
        );
        let dev = match self.open(first, start, privilege) {
            Ok(dev) => dev,
            Err(e) => {
                obs::counter!("hwmon.fs.reads").inc();
                return Err(e);
            }
        };
        obs::counter!("hwmon.fs.reads").add(reads as u64);
        dev.read_run(start, period, count, handles.len(), |latched| {
            for (slot, h) in handles.iter().enumerate() {
                let value = match h.attr {
                    Attribute::Curr1Input => latched.curr1_ma,
                    Attribute::In0Input => latched.in0_mv,
                    Attribute::In1Input => latched.in1_mv,
                    // Checked above: only measurement files get here.
                    _ => latched.power1_uw,
                };
                sink(slot, value);
            }
        });
        Ok(())
    }

    /// Resolves `path` and reads it as a number: `read_raw` is
    /// `resolve` + [`read_value`](Self::read_value) for one-shot callers.
    /// Loops should resolve once and hold the handle.
    ///
    /// # Errors
    ///
    /// Union of [`resolve`](Self::resolve) and
    /// [`read_value`](Self::read_value).
    pub fn read_raw(&self, path: &str, now: SimTime, privilege: Privilege) -> Result<i64> {
        self.read_value(self.resolve(path)?, now, privilege)
    }

    /// Reads an attribute at simulation time `now`, returning the
    /// newline-terminated string a real sysfs read yields. Thin wrapper
    /// over the typed path; per-sample loops should prefer
    /// [`read_value`](Self::read_value).
    ///
    /// # Errors
    ///
    /// * [`HwmonError::NoSuchFile`] for unknown paths.
    /// * [`HwmonError::PermissionDenied`] when the mitigation restricts
    ///   the device and the caller is not root.
    pub fn read(&self, path: &str, now: SimTime, privilege: Privilege) -> Result<String> {
        obs::counter!("hwmon.fs.reads").inc();
        let handle = self.resolve(path)?;
        obs::trace!(
            "hwmon.fs",
            sim = now.as_nanos(),
            "sysfs read";
            "path" => path
        );
        if handle.attr == Attribute::Name {
            let dev = &self.devices[handle.index];
            return Ok(format!("{}\n", dev.name()));
        }
        let v = self.read_numeric(handle, now, privilege)?;
        Ok(format!("{v}\n"))
    }

    /// Writes an attribute. Only `update_interval` is writable, and only
    /// by root (Section III-C: "modifying it requires root privileges").
    ///
    /// # Errors
    ///
    /// * [`HwmonError::NoSuchFile`] for unknown paths.
    /// * [`HwmonError::PermissionDenied`] for non-root writers.
    /// * [`HwmonError::ReadOnly`] for measurement attributes.
    /// * [`HwmonError::InvalidInput`] for unparseable values.
    pub fn write(&self, path: &str, value: &str, privilege: Privilege) -> Result<()> {
        obs::counter!("hwmon.fs.writes").inc();
        let (index, attr) = Self::parse(path)?;
        let dev = self
            .devices
            .get(index)
            .ok_or_else(|| HwmonError::NoSuchFile(path.to_owned()))?;
        match attr {
            "update_interval" => {
                if privilege != Privilege::Root {
                    return Err(HwmonError::PermissionDenied(path.to_owned()));
                }
                let ms: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| HwmonError::InvalidInput(value.to_owned()))?;
                dev.set_update_interval_ms(ms);
                Ok(())
            }
            "name" | "curr1_input" | "in0_input" | "in1_input" | "power1_input" => {
                Err(HwmonError::ReadOnly(path.to_owned()))
            }
            _ => Err(HwmonError::NoSuchFile(path.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RailProbe;
    use std::sync::Arc;

    fn fs_with_two() -> HwmonFs {
        let probe: Arc<dyn RailProbe> = Arc::new(|_t: SimTime| (1.0, 0.85));
        let mut fs = HwmonFs::new();
        fs.register(HwmonDevice::new(
            "ina226_u76",
            0.002,
            0.0005,
            Arc::clone(&probe),
            1,
        ));
        fs.register(HwmonDevice::new("ina226_u79", 0.0005, 0.0005, probe, 2));
        fs
    }

    #[test]
    fn registration_and_lookup() {
        let fs = fs_with_two();
        assert_eq!(fs.len(), 2);
        assert!(!fs.is_empty());
        assert_eq!(fs.index_of("ina226_u79"), Some(1));
        assert_eq!(fs.index_of("nope"), None);
        assert!(fs.device(0).is_some());
        assert!(fs.device(7).is_none());
    }

    #[test]
    fn list_enumerates_all_attributes() {
        let fs = fs_with_two();
        let paths = fs.list();
        assert_eq!(paths.len(), 12);
        assert!(paths.contains(&"/sys/class/hwmon/hwmon0/in0_input".to_owned()));
        assert!(paths.contains(&"/sys/class/hwmon/hwmon1/curr1_input".to_owned()));
    }

    #[test]
    fn read_returns_newline_terminated_integers() {
        let fs = fs_with_two();
        let t = SimTime::from_ms(40);
        let s = fs
            .read("/sys/class/hwmon/hwmon0/curr1_input", t, Privilege::User)
            .unwrap();
        assert!(s.ends_with('\n'));
        let ma: i64 = s.trim().parse().unwrap();
        assert!((ma - 1000).abs() < 30, "{ma}");
        let name = fs
            .read("/sys/class/hwmon/hwmon1/name", t, Privilege::User)
            .unwrap();
        assert_eq!(name, "ina226_u79\n");
    }

    #[test]
    fn unknown_paths_rejected() {
        let fs = fs_with_two();
        let t = SimTime::ZERO;
        for path in [
            "/sys/class/hwmon/hwmon9/curr1_input",
            "/sys/class/hwmon/hwmon0/bogus",
            "/proc/cpuinfo",
            "/sys/class/hwmon/hwmonX/name",
        ] {
            assert!(matches!(
                fs.read(path, t, Privilege::User),
                Err(HwmonError::NoSuchFile(_))
            ));
        }
    }

    #[test]
    fn update_interval_is_root_only() {
        let fs = fs_with_two();
        let path = "/sys/class/hwmon/hwmon0/update_interval";
        assert!(matches!(
            fs.write(path, "2", Privilege::User),
            Err(HwmonError::PermissionDenied(_))
        ));
        fs.write(path, "2", Privilege::Root).unwrap();
        let s = fs.read(path, SimTime::ZERO, Privilege::User).unwrap();
        assert_eq!(s.trim(), "2");
    }

    #[test]
    fn measurement_attributes_read_only() {
        let fs = fs_with_two();
        assert!(matches!(
            fs.write("/sys/class/hwmon/hwmon0/curr1_input", "0", Privilege::Root),
            Err(HwmonError::ReadOnly(_))
        ));
    }

    #[test]
    fn invalid_interval_rejected() {
        let fs = fs_with_two();
        assert!(matches!(
            fs.write(
                "/sys/class/hwmon/hwmon0/update_interval",
                "soon",
                Privilege::Root
            ),
            Err(HwmonError::InvalidInput(_))
        ));
    }

    #[test]
    fn mitigation_blocks_unprivileged_reads() {
        let mut fs = fs_with_two();
        fs.restrict_reads_to_root("ina226_u79").unwrap();
        let t = SimTime::from_ms(40);
        let path = "/sys/class/hwmon/hwmon1/curr1_input";
        assert!(matches!(
            fs.read(path, t, Privilege::User),
            Err(HwmonError::PermissionDenied(_))
        ));
        // Root still reads; `name` stays world-readable; the other device
        // is unaffected.
        assert!(fs.read(path, t, Privilege::Root).is_ok());
        assert!(fs
            .read("/sys/class/hwmon/hwmon1/name", t, Privilege::User)
            .is_ok());
        assert!(fs
            .read("/sys/class/hwmon/hwmon0/curr1_input", t, Privilege::User)
            .is_ok());
        // And it can be lifted again.
        fs.unrestrict_reads("ina226_u79");
        assert!(fs.read(path, t, Privilege::User).is_ok());
    }

    #[test]
    fn restricting_unknown_device_fails() {
        let mut fs = fs_with_two();
        assert!(fs.restrict_reads_to_root("ina226_u99").is_err());
    }

    #[test]
    fn attribute_round_trips_file_names() {
        for attr in Attribute::ALL {
            assert_eq!(Attribute::from_file_name(attr.file_name()), Some(attr));
        }
        assert_eq!(Attribute::from_file_name("temp1_input"), None);
    }

    #[test]
    fn resolve_maps_paths_to_handles() {
        let fs = fs_with_two();
        let h = fs.resolve("/sys/class/hwmon/hwmon1/curr1_input").unwrap();
        assert_eq!(h.index(), 1);
        assert_eq!(h.attribute(), Attribute::Curr1Input);
        assert_eq!(h.path(), "/sys/class/hwmon/hwmon1/curr1_input");
        for bad in [
            "/sys/class/hwmon/hwmon9/curr1_input",
            "/sys/class/hwmon/hwmon0/bogus",
            "/proc/cpuinfo",
        ] {
            assert!(matches!(fs.resolve(bad), Err(HwmonError::NoSuchFile(_))));
        }
    }

    #[test]
    fn typed_read_matches_string_read() {
        // The typed path and the string path must agree byte-for-byte:
        // use two identically seeded trees so both see fresh sensor RNG.
        let a = fs_with_two();
        let b = fs_with_two();
        let t = SimTime::from_ms(40);
        for path in [
            "/sys/class/hwmon/hwmon0/curr1_input",
            "/sys/class/hwmon/hwmon0/in0_input",
            "/sys/class/hwmon/hwmon1/in1_input",
            "/sys/class/hwmon/hwmon1/power1_input",
            "/sys/class/hwmon/hwmon0/update_interval",
        ] {
            let s: i64 = a
                .read(path, t, Privilege::User)
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let v = b.read_raw(path, t, Privilege::User).unwrap();
            assert_eq!(s, v, "{path}");
        }
    }

    #[test]
    fn typed_read_of_name_is_not_numeric() {
        let fs = fs_with_two();
        assert!(matches!(
            fs.read_raw(
                "/sys/class/hwmon/hwmon0/name",
                SimTime::ZERO,
                Privilege::User
            ),
            Err(HwmonError::NotNumeric(_))
        ));
    }

    #[test]
    fn typed_read_respects_mitigation() {
        let mut fs = fs_with_two();
        fs.restrict_reads_to_root("ina226_u79").unwrap();
        let h = fs.resolve("/sys/class/hwmon/hwmon1/curr1_input").unwrap();
        let t = SimTime::from_ms(40);
        assert!(matches!(
            fs.read_value(h, t, Privilege::User),
            Err(HwmonError::PermissionDenied(_))
        ));
        assert!(fs.read_value(h, t, Privilege::Root).is_ok());
        // update_interval stays world-readable under the mitigation.
        let ui = fs
            .resolve("/sys/class/hwmon/hwmon1/update_interval")
            .unwrap();
        assert!(fs.read_value(ui, t, Privilege::User).is_ok());
    }

    #[test]
    fn stale_handle_index_is_no_such_file() {
        let fs = fs_with_two();
        let h = SensorHandle::new(9, Attribute::Curr1Input);
        assert!(matches!(
            fs.read_value(h, SimTime::ZERO, Privilege::User),
            Err(HwmonError::NoSuchFile(_))
        ));
    }
}
