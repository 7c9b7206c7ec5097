use std::collections::BTreeMap;
use std::sync::Arc;

use fpga_fabric::covert::{CovertConfig, CovertTransmitter};
use fpga_fabric::enclave::EnclaveCircuit;
use fpga_fabric::resources::FabricInventory;
use fpga_fabric::ring_oscillator::{RoBank, RoConfig};
use fpga_fabric::rsa::{RsaCircuit, RsaConfig, RsaKey};
use fpga_fabric::tdc::{TdcConfig, TdcSensor};
use fpga_fabric::virus::{PowerVirusArray, VirusConfig};
use hwmon_sim::{Attribute, HwmonDevice, HwmonFs, RailProbe, SensorHandle};
use sim_rt::lockorder::TrackedMutex;
use std::sync::RwLock;
use zynq_soc::board::BoardSpec;
use zynq_soc::cpu::{CpuActivityConfig, CpuBackgroundLoad};
use zynq_soc::{
    CompositeLoad, ConstantLoad, Pdn, PowerDomain, PowerLoad, SimTime, StaticFabricLoad,
};

use dpu::{DpuAccelerator, DpuConfig};

use crate::{AttackError, Result};

/// Electrical state shared between the hwmon sensors and the loads: every
/// deployed circuit plus the per-domain PDN models.
struct SocModel {
    loads: RwLock<CompositeLoad>,
    pdn: BTreeMap<PowerDomain, Pdn>,
}

/// The electrical operating point of one rail at `t`: the present and
/// 1 µs-previous current in a single composite-load pass, then the PDN
/// rail voltage including the transient `L * dI/dt` term. Returns
/// `(amps, volts)`.
fn rail_point(loads: &CompositeLoad, pdn: &Pdn, t: SimTime, domain: PowerDomain) -> (f64, f64) {
    let t_prev = t.saturating_sub(SimTime::from_us(1));
    let (i_now, i_prev) = loads.current_ma_pair(t, t_prev, domain);
    (i_now / 1_000.0, pdn.rail_voltage(i_now, i_now - i_prev))
}

impl SocModel {
    fn loads(&self) -> std::sync::RwLockReadGuard<'_, CompositeLoad> {
        self.loads
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn total_current_ma(&self, t: SimTime, domain: PowerDomain) -> f64 {
        self.loads().current_ma(t, domain)
    }

    /// `(amps, volts)` of a rail at `t`, under one read-lock hold.
    fn operating_point(&self, t: SimTime, domain: PowerDomain) -> (f64, f64) {
        // Every PowerDomain key is inserted at construction. sim-lint: allow(panic-path)
        rail_point(&self.loads(), &self.pdn[&domain], t, domain)
    }

    fn rail_voltage(&self, t: SimTime, domain: PowerDomain) -> f64 {
        self.operating_point(t, domain).1
    }

    /// Batched [`operating_point`](Self::operating_point) for a
    /// conversion's averaging steps: one read-lock hold and one PDN
    /// lookup serve the whole window, and each element is bit-identical
    /// to the per-instant path.
    fn operating_points(&self, times: &[SimTime], domain: PowerDomain) -> Vec<(f64, f64)> {
        // Every PowerDomain key is inserted at construction. sim-lint: allow(panic-path)
        let pdn = &self.pdn[&domain];
        let loads = self.loads();
        times
            .iter()
            .map(|&t| rail_point(&loads, pdn, t, domain))
            .collect()
    }
}

/// A rail probe binding one power domain of the shared SoC model to an
/// INA226 front-end.
struct DomainProbe {
    soc: Arc<SocModel>,
    domain: PowerDomain,
}

impl RailProbe for DomainProbe {
    fn operating_point(&self, t: SimTime) -> (f64, f64) {
        self.soc.operating_point(t, self.domain)
    }

    fn operating_points(&self, times: &[SimTime]) -> Vec<(f64, f64)> {
        self.soc.operating_points(times, self.domain)
    }
}

/// The simulated ARM-FPGA SoC platform under attack.
///
/// `Platform::zcu102` assembles the paper's experimental machine: a ZCU102
/// board with its background loads (fabric leakage, four Cortex-A53 cores
/// of OS activity, DDR standby current) and the four sensitive INA226
/// sensors of Table II exposed through hwmon. Victim circuits are deployed
/// on top, with fabric resource checking.
///
/// # Examples
///
/// See the [crate-level documentation](crate) for a quickstart.
pub struct Platform {
    board: BoardSpec,
    fabric: FabricInventory,
    soc: Arc<SocModel>,
    hwmon: HwmonFs,
    sensor_index: BTreeMap<PowerDomain, usize>,
    /// Pre-rendered sysfs paths, one per `(domain, Attribute::ALL)` slot,
    /// so `sensor_path` hands out `&str` instead of allocating per read.
    sensor_paths: BTreeMap<PowerDomain, [String; 6]>,
    seed: u64,
    virus: Option<Arc<PowerVirusArray>>,
    rsa: Option<Arc<RsaCircuit>>,
    dpu: Option<Arc<DpuAccelerator>>,
    ro: Option<TrackedMutex<RoBank>>,
    tdc: Option<TrackedMutex<TdcSensor>>,
    covert: Option<Arc<CovertTransmitter>>,
    enclave: Option<Arc<EnclaveCircuit>>,
}

impl Platform {
    /// Assembles the ZCU102 experimental machine with default background
    /// activity. `seed` fixes every stochastic component.
    pub fn zcu102(seed: u64) -> Self {
        Platform::for_board(BoardSpec::zcu102(), seed)
    }

    /// Assembles a platform for any board of the Table I catalog. The
    /// paper's future work asks whether other SoCs with on-die current
    /// sensors are equally vulnerable; every catalog board exposes the
    /// same four-domain sensitive-sensor layout, so the attack transfers.
    pub fn for_board(board: BoardSpec, seed: u64) -> Self {
        let fabric = match board.family {
            zynq_soc::board::FpgaFamily::ZynqUltraScalePlus => FabricInventory::zcu102(),
            zynq_soc::board::FpgaFamily::Versal => FabricInventory::versal(),
        };

        let mut loads = CompositeLoad::new();
        // Fabric static power: deployed-but-idle logic, clock trees.
        loads.push(Arc::new(StaticFabricLoad::new(480.0, seed ^ 0x01)));
        // OS background on the ARM cores.
        loads.push(Arc::new(CpuBackgroundLoad::new(
            CpuActivityConfig::default(),
            seed ^ 0x02,
        )));
        // DDR standby/refresh current.
        loads.push(Arc::new(ConstantLoad::new(PowerDomain::Ddr, 140.0)));

        // Regulator setpoint tolerance: every physical board (and every
        // boot) trims its regulators slightly differently, so the absolute
        // rail voltage carries board/run identity rather than victim
        // identity. This is a key reason the voltage channel fingerprints
        // so poorly across captures (Table III: 0.116 top-1) even though
        // within one capture it correlates with load (Figure 2).
        let mut trim = zynq_soc::GaussianNoise::new(seed ^ 0x7472_696D); // "trim"
        let pdn = PowerDomain::ALL
            .iter()
            .map(|&d| {
                let mut p = Pdn::for_board(&board, d);
                let offset = trim.sample(0.0, 1.3e-3);
                p.v_set = (p.v_set + offset).clamp(p.band.min_v + 2.0e-3, p.band.max_v - 2.0e-3);
                (d, p)
            })
            .collect();

        let soc = Arc::new(SocModel {
            loads: RwLock::new(loads),
            pdn,
        });

        // Register the four sensitive sensors of Table II. Shunt values
        // come from the board's monitoring design; current LSBs are chosen
        // per-rail so the calibration register fits (and the hwmon driver
        // rounds everything to 1 mA anyway).
        let mut hwmon = HwmonFs::new();
        let mut sensor_index = BTreeMap::new();
        for (k, spec) in board.sensitive_sensors().iter().enumerate() {
            let current_lsb = match spec.domain {
                PowerDomain::FpgaLogic => 0.5e-3,
                PowerDomain::Ddr => 0.25e-3,
                PowerDomain::FullPowerCpu => 0.25e-3,
                PowerDomain::LowPowerCpu => 0.125e-3,
            };
            let probe = Arc::new(DomainProbe {
                soc: Arc::clone(&soc),
                domain: spec.domain,
            });
            let device = HwmonDevice::new(
                spec.designator,
                spec.shunt_milliohm / 1_000.0,
                current_lsb,
                probe,
                seed ^ (0x10 + k as u64),
            );
            let idx = hwmon.register(device);
            sensor_index.insert(spec.domain, idx);
        }

        let sensor_paths = sensor_index
            .iter()
            .map(|(&domain, &idx)| {
                let paths = Attribute::ALL
                    .map(|attr| format!("/sys/class/hwmon/hwmon{idx}/{}", attr.file_name()));
                (domain, paths)
            })
            .collect();

        Platform {
            board,
            fabric,
            soc,
            hwmon,
            sensor_index,
            sensor_paths,
            seed,
            virus: None,
            rsa: None,
            dpu: None,
            ro: None,
            tdc: None,
            covert: None,
            enclave: None,
        }
    }

    /// The board this platform models.
    pub fn board(&self) -> &BoardSpec {
        &self.board
    }

    /// The fabric resource inventory (with deployed designs).
    pub fn fabric(&self) -> &FabricInventory {
        &self.fabric
    }

    /// The simulated hwmon tree (attacker-visible interface).
    pub fn hwmon(&self) -> &HwmonFs {
        &self.hwmon
    }

    /// Mutable access to the hwmon tree (for the Section V mitigation).
    pub fn hwmon_mut(&mut self) -> &mut HwmonFs {
        &mut self.hwmon
    }

    /// Platform seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sysfs path of a domain's sensor attribute, e.g.
    /// `/sys/class/hwmon/hwmon2/curr1_input` for the FPGA rail. Returns a
    /// pre-rendered borrowed path — no per-call allocation.
    ///
    /// # Panics
    ///
    /// Panics if `attribute` is not a hwmon attribute file name.
    pub fn sensor_path(&self, domain: PowerDomain, attribute: &str) -> &str {
        let attr = Attribute::from_file_name(attribute)
            // Contract documented under `# Panics`. sim-lint: allow(panic-path)
            .unwrap_or_else(|| panic!("unknown hwmon attribute {attribute:?}"));
        let slot = Attribute::ALL
            .iter()
            .position(|a| *a == attr)
            // Just matched against ALL above. sim-lint: allow(panic-path)
            .expect("Attribute::ALL is exhaustive");
        // Paths for every domain and slot are pre-rendered at
        // construction. sim-lint: allow(panic-path)
        &self.sensor_paths[&domain][slot]
    }

    /// Pre-resolved handle for a domain's sensor attribute — the typed
    /// equivalent of [`sensor_path`](Self::sensor_path) for use with
    /// [`HwmonFs::read_value`].
    pub fn sensor_handle(&self, domain: PowerDomain, attr: Attribute) -> SensorHandle {
        // Every PowerDomain key is inserted at construction. sim-lint: allow(panic-path)
        SensorHandle::new(self.sensor_index[&domain], attr)
    }

    /// True (un-quantized) rail current in mA — ground truth for tests and
    /// calibration, not visible to the attacker.
    pub fn ground_truth_ma(&self, domain: PowerDomain, t: SimTime) -> f64 {
        self.soc.total_current_ma(t, domain)
    }

    /// True rail voltage in volts — ground truth.
    pub fn ground_truth_volts(&self, domain: PowerDomain, t: SimTime) -> f64 {
        self.soc.rail_voltage(t, domain)
    }

    fn attach_load(&self, load: Arc<dyn PowerLoad>) {
        self.soc
            .loads
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(load);
    }

    /// Deploys the 160k-instance power-virus array (Figure 2 victim).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_virus(&mut self, config: VirusConfig) -> Result<Arc<PowerVirusArray>> {
        let virus = Arc::new(PowerVirusArray::new(config, self.seed ^ 0x100));
        self.fabric.deploy(&virus.bitstream())?;
        self.attach_load(Arc::clone(&virus) as Arc<dyn PowerLoad>);
        self.virus = Some(Arc::clone(&virus));
        Ok(virus)
    }

    /// Deploys the RSA-1024 circuit with a sealed key (Figure 4 victim).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_rsa(&mut self, config: RsaConfig, key: RsaKey) -> Result<Arc<RsaCircuit>> {
        let rsa = Arc::new(RsaCircuit::new(config, key, self.seed ^ 0x200));
        self.fabric.deploy(&rsa.bitstream())?;
        self.attach_load(Arc::clone(&rsa) as Arc<dyn PowerLoad>);
        self.rsa = Some(Arc::clone(&rsa));
        Ok(rsa)
    }

    /// Deploys the DPU accelerator (Table III / Figure 3 victim).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_dpu(&mut self, config: DpuConfig) -> Result<Arc<DpuAccelerator>> {
        let dpu = Arc::new(DpuAccelerator::new(config, self.seed ^ 0x300));
        // B4096-class DPU utilization on the ZCU102.
        let bs = fpga_fabric::resources::Bitstream::new(
            "dpu-b4096",
            fpga_fabric::resources::Utilization {
                luts: 60_000,
                ffs: 100_000,
                dsps: 700,
                bram_kb: 4_000,
            },
        )
        .encrypted();
        self.fabric.deploy(&bs)?;
        self.attach_load(Arc::clone(&dpu) as Arc<dyn PowerLoad>);
        self.dpu = Some(Arc::clone(&dpu));
        Ok(dpu)
    }

    /// Deploys the co-resident ring-oscillator sensor bank — the crafted
    /// circuit of the baseline attack (requires fabric access, which
    /// AmpereBleed itself does not).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_ro_bank(&mut self, config: RoConfig) -> Result<()> {
        let bank = RoBank::new(config, self.seed ^ 0x400);
        self.fabric.deploy(&bank.bitstream())?;
        self.ro = Some(TrackedMutex::new("platform.ro", bank));
        Ok(())
    }

    /// Deploys a covert-channel transmitter broadcasting `payload`
    /// cyclically (the fabric-to-software covert channel case study).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_covert_transmitter(
        &mut self,
        config: CovertConfig,
        payload: &[u8],
    ) -> Result<Arc<CovertTransmitter>> {
        let tx = Arc::new(CovertTransmitter::new(config, payload, self.seed ^ 0x500));
        self.fabric.deploy(&tx.bitstream())?;
        self.attach_load(Arc::clone(&tx) as Arc<dyn PowerLoad>);
        self.covert = Some(Arc::clone(&tx));
        Ok(tx)
    }

    /// Deploys an FPGA-TEE enclave circuit (the TEE future-work case
    /// study): logically isolated, but its power flows through the
    /// monitored rails.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_enclave(&mut self) -> Result<Arc<EnclaveCircuit>> {
        let enclave = Arc::new(EnclaveCircuit::new(self.seed ^ 0x600));
        self.fabric.deploy(&enclave.bitstream())?;
        self.attach_load(Arc::clone(&enclave) as Arc<dyn PowerLoad>);
        self.enclave = Some(Arc::clone(&enclave));
        Ok(enclave)
    }

    /// The deployed virus array, if any.
    pub fn virus(&self) -> Option<&Arc<PowerVirusArray>> {
        self.virus.as_ref()
    }

    /// The deployed covert transmitter, if any.
    pub fn covert_transmitter(&self) -> Option<&Arc<CovertTransmitter>> {
        self.covert.as_ref()
    }

    /// The deployed enclave, if any.
    pub fn enclave(&self) -> Option<&Arc<EnclaveCircuit>> {
        self.enclave.as_ref()
    }

    /// The deployed RSA circuit, if any.
    pub fn rsa(&self) -> Option<&Arc<RsaCircuit>> {
        self.rsa.as_ref()
    }

    /// The deployed DPU, if any.
    pub fn dpu(&self) -> Option<&Arc<DpuAccelerator>> {
        self.dpu.as_ref()
    }

    /// Deploys a carry-chain TDC sensor — the post-RO-ban crafted-circuit
    /// baseline (RDS/1LUTSensor-class).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::Deploy`] if the fabric lacks resources.
    pub fn deploy_tdc(&mut self, config: TdcConfig) -> Result<()> {
        let sensor = TdcSensor::new(config, self.seed ^ 0x700);
        self.fabric.deploy(&sensor.bitstream())?;
        self.tdc = Some(TrackedMutex::new("platform.tdc", sensor));
        Ok(())
    }

    /// Samples the RO bank's mean counter at time `t` (the baseline
    /// attacker's readout). The RO sees the true FPGA rail voltage,
    /// including droop the stabilizer could not regulate away.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NotDeployed`] if no RO bank is deployed.
    pub fn sample_ro(&self, t: SimTime) -> Result<f64> {
        let bank = self
            .ro
            .as_ref()
            .ok_or(AttackError::NotDeployed("ring-oscillator bank"))?;
        let v = self.soc.rail_voltage(t, PowerDomain::FpgaLogic);
        Ok(bank.lock().sample_mean_count(v))
    }

    /// The FPGA rail voltage at `start + k * period` for `k in 0..n` — the
    /// voltage [`sample_ro`](Self::sample_ro) and
    /// [`sample_tdc`](Self::sample_tdc) would see at those instants under
    /// the loads active now — from one batched operating-point pass.
    pub fn fpga_rail_volts(&self, start: SimTime, period: SimTime, n: usize) -> Vec<f64> {
        let times: Vec<SimTime> = (0..n as u64)
            .map(|k| start + SimTime::from_nanos(period.as_nanos() * k))
            .collect();
        self.soc
            .operating_points(&times, PowerDomain::FpgaLogic)
            .into_iter()
            .map(|(_, volts)| volts)
            .collect()
    }

    /// RO bank mean counts at the given rail voltages, in order, under one
    /// bank lock. With voltages from [`fpga_rail_volts`](Self::fpga_rail_volts)
    /// this is bit-identical to one [`sample_ro`](Self::sample_ro) call per
    /// instant, and leaves the bank in the same state.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NotDeployed`] if no RO bank is deployed.
    pub fn sample_ro_at(&self, rail_volts: &[f64]) -> Result<Vec<f64>> {
        let mut bank = self
            .ro
            .as_ref()
            .ok_or(AttackError::NotDeployed("ring-oscillator bank"))?
            .lock();
        Ok(rail_volts
            .iter()
            .map(|&v| bank.sample_mean_count(v))
            .collect())
    }

    /// TDC thermometer codes at the given rail voltages, in order, under
    /// one sensor lock; the TDC counterpart of
    /// [`sample_ro_at`](Self::sample_ro_at).
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NotDeployed`] if no TDC is deployed.
    pub fn sample_tdc_at(&self, rail_volts: &[f64]) -> Result<Vec<u32>> {
        let mut sensor = self
            .tdc
            .as_ref()
            .ok_or(AttackError::NotDeployed("tdc sensor"))?
            .lock();
        Ok(rail_volts.iter().map(|&v| sensor.sample(v)).collect())
    }

    /// Whether an RO bank or a TDC is deployed.
    pub(crate) fn has_fabric_baseline(&self) -> bool {
        self.ro.is_some() || self.tdc.is_some()
    }

    /// Samples the TDC's thermometer code at time `t`.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::NotDeployed`] if no TDC is deployed.
    pub fn sample_tdc(&self, t: SimTime) -> Result<u32> {
        let sensor = self
            .tdc
            .as_ref()
            .ok_or(AttackError::NotDeployed("tdc sensor"))?;
        let v = self.soc.rail_voltage(t, PowerDomain::FpgaLogic);
        Ok(sensor.lock().sample(v))
    }
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("board", &self.board.name)
            .field("sensors", &self.sensor_index)
            .field("virus", &self.virus.is_some())
            .field("rsa", &self.rsa.is_some())
            .field("dpu", &self.dpu.is_some())
            .field("ro", &self.ro.is_some())
            .field("tdc", &self.tdc.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwmon_sim::Privilege;

    #[test]
    fn zcu102_has_four_sensitive_sensors() {
        let p = Platform::zcu102(1);
        assert_eq!(p.hwmon().len(), 4);
        for d in PowerDomain::ALL {
            let path = p.sensor_path(d, "name");
            let name = p
                .hwmon()
                .read(path, SimTime::ZERO, Privilege::User)
                .unwrap();
            assert_eq!(name.trim(), d.ina226_designator());
        }
    }

    #[test]
    fn background_currents_are_plausible() {
        let p = Platform::zcu102(2);
        let t = SimTime::from_ms(50);
        let fpga = p.ground_truth_ma(PowerDomain::FpgaLogic, t);
        assert!((400.0..600.0).contains(&fpga), "fpga {fpga}");
        let cpu = p.ground_truth_ma(PowerDomain::FullPowerCpu, t);
        assert!(cpu >= 320.0, "cpu {cpu}");
        let ddr = p.ground_truth_ma(PowerDomain::Ddr, t);
        assert!((100.0..300.0).contains(&ddr), "ddr {ddr}");
    }

    #[test]
    fn rail_voltage_stays_in_band() {
        let mut p = Platform::zcu102(3);
        let virus = p.deploy_virus(VirusConfig::default()).unwrap();
        for groups in [0u32, 80, 160] {
            virus.activate_groups(groups).unwrap();
            let v = p.ground_truth_volts(PowerDomain::FpgaLogic, SimTime::from_ms(7));
            assert!(
                p.board().fpga_voltage_band.contains(v),
                "{groups} groups -> {v} V"
            );
        }
    }

    #[test]
    fn virus_activation_visible_via_hwmon() {
        let mut p = Platform::zcu102(4);
        let virus = p.deploy_virus(VirusConfig::default()).unwrap();
        let read = |p: &Platform, t: SimTime| -> i64 {
            p.hwmon()
                .read(
                    p.sensor_path(PowerDomain::FpgaLogic, "curr1_input"),
                    t,
                    Privilege::User,
                )
                .unwrap()
                .trim()
                .parse()
                .unwrap()
        };
        virus.activate_groups(0).unwrap();
        let idle = read(&p, SimTime::from_ms(40));
        virus.activate_groups(160).unwrap();
        let busy = read(&p, SimTime::from_ms(75));
        assert!(
            busy - idle > 5_000,
            "expected >5 A of visible swing, got {idle} -> {busy}"
        );
    }

    #[test]
    fn deployment_accounting() {
        let mut p = Platform::zcu102(5);
        assert!(p.virus().is_none());
        p.deploy_virus(VirusConfig::default()).unwrap();
        p.deploy_rsa(
            RsaConfig::default(),
            RsaKey::with_hamming_weight(512, 1).unwrap(),
        )
        .unwrap();
        p.deploy_dpu(DpuConfig::default()).unwrap();
        p.deploy_ro_bank(RoConfig::default()).unwrap();
        assert!(p.virus().is_some());
        assert!(p.rsa().is_some());
        assert!(p.dpu().is_some());
        assert_eq!(p.fabric().deployed().len(), 4);
    }

    #[test]
    fn ro_requires_deployment() {
        let p = Platform::zcu102(6);
        assert!(matches!(
            p.sample_ro(SimTime::ZERO),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn batched_baselines_match_single_samples_bit_for_bit() {
        let twin = || {
            let mut p = Platform::zcu102(8);
            let virus = p.deploy_virus(VirusConfig::default()).unwrap();
            virus.activate_groups(96).unwrap();
            p.deploy_ro_bank(RoConfig::default()).unwrap();
            p.deploy_tdc(TdcConfig::default()).unwrap();
            p
        };
        let (batched, single) = (twin(), twin());
        let (start, period) = (SimTime::from_ms(40), SimTime::from_us(1_000));
        let volts = batched.fpga_rail_volts(start, period, 500);
        let ro = batched.sample_ro_at(&volts).unwrap();
        let tdc = batched.sample_tdc_at(&volts).unwrap();
        let instants = (0..500u64).map(|k| start + SimTime::from_nanos(period.as_nanos() * k));
        let ro_single: Vec<f64> = instants
            .clone()
            .map(|t| single.sample_ro(t).unwrap())
            .collect();
        let tdc_single: Vec<u32> = instants.map(|t| single.sample_tdc(t).unwrap()).collect();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ro), bits(&ro_single));
        assert_eq!(tdc, tdc_single);
        let taken = |p: &Platform| {
            let ro = p.ro.as_ref().unwrap().lock().samples_taken();
            (ro, p.tdc.as_ref().unwrap().lock().samples_taken())
        };
        assert_eq!(taken(&batched), (500, 500));
        assert_eq!(taken(&batched), taken(&single));
        // The noise streams stay in step after the batch.
        let next = SimTime::from_ms(900);
        assert_eq!(
            batched.sample_ro(next).unwrap().to_bits(),
            single.sample_ro(next).unwrap().to_bits()
        );
        assert_eq!(
            batched.sample_tdc(next).unwrap(),
            single.sample_tdc(next).unwrap()
        );
        let bare = Platform::zcu102(9);
        assert!(!bare.has_fabric_baseline());
        assert!(matches!(
            bare.sample_ro_at(&volts),
            Err(AttackError::NotDeployed(_))
        ));
        assert!(matches!(
            bare.sample_tdc_at(&volts),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn ro_counts_react_to_virus_load() {
        let mut p = Platform::zcu102(7);
        let virus = p.deploy_virus(VirusConfig::default()).unwrap();
        p.deploy_ro_bank(RoConfig::default()).unwrap();
        let mean = |p: &Platform, n: u64| {
            (0..n)
                .map(|k| p.sample_ro(SimTime::from_ms(40 + k)).unwrap())
                .sum::<f64>()
                / n as f64
        };
        virus.activate_groups(0).unwrap();
        let idle = mean(&p, 300);
        virus.activate_groups(160).unwrap();
        let busy = mean(&p, 300);
        assert!(
            busy < idle,
            "RO count must drop under load: {idle} -> {busy}"
        );
        let rel = (idle - busy) / idle;
        assert!(rel < 0.02, "stabilizer must cap RO variation ({rel})");
    }

    #[test]
    fn tdc_baseline_sees_less_than_current_channel() {
        let mut p = Platform::zcu102(9);
        let virus = p.deploy_virus(VirusConfig::default()).unwrap();
        p.deploy_tdc(fpga_fabric::tdc::TdcConfig::default())
            .unwrap();
        let mean_tdc = |p: &Platform, base_ms: u64| {
            (0..400)
                .map(|k| p.sample_tdc(SimTime::from_ms(base_ms + k)).unwrap() as f64)
                .sum::<f64>()
                / 400.0
        };
        virus.activate_groups(0).unwrap();
        let idle = mean_tdc(&p, 40);
        virus.activate_groups(160).unwrap();
        let busy = mean_tdc(&p, 2_000);
        let rel = (idle - busy).abs() / idle;
        assert!(rel < 0.02, "stabilizer caps TDC variation ({rel})");
        // The hwmon current channel sees the same event at full scale.
        let i_idle = 880.0;
        let i_busy = 7_280.0;
        let current_rel = (i_busy - i_idle) / ((i_busy + i_idle) / 2.0);
        assert!(current_rel / rel.max(1e-6) > 50.0);
    }

    #[test]
    fn tdc_requires_deployment() {
        let p = Platform::zcu102(10);
        assert!(matches!(
            p.sample_tdc(SimTime::ZERO),
            Err(AttackError::NotDeployed(_))
        ));
    }

    #[test]
    fn debug_format_mentions_board() {
        let p = Platform::zcu102(8);
        assert!(format!("{p:?}").contains("ZCU102"));
    }

    #[test]
    fn sensor_paths_are_prerendered() {
        let p = Platform::zcu102(20);
        let a = p.sensor_path(PowerDomain::FpgaLogic, "curr1_input");
        let b = p.sensor_path(PowerDomain::FpgaLogic, "curr1_input");
        // Same borrowed bytes both times — the path is rendered once at
        // construction, not per call.
        assert!(std::ptr::eq(a, b));
        let h = p.sensor_handle(PowerDomain::FpgaLogic, Attribute::Curr1Input);
        assert_eq!(h.path(), a);
        assert_eq!(
            p.hwmon().resolve(a).unwrap(),
            h,
            "cached path and typed handle must name the same file"
        );
    }

    #[test]
    #[should_panic(expected = "unknown hwmon attribute")]
    fn sensor_path_rejects_unknown_attribute() {
        let p = Platform::zcu102(21);
        let _ = p.sensor_path(PowerDomain::FpgaLogic, "temp1_input");
    }

    #[test]
    fn operating_point_cache_preserves_ground_truth() {
        // Same seed, two platforms: one reads the voltage twice, the
        // other once. All observations must be bit-identical — ground
        // truth is a pure function of the control state.
        let t = SimTime::from_ms(41);
        let mut a = Platform::zcu102(22);
        let va = a.deploy_virus(VirusConfig::default()).unwrap();
        va.activate_groups(80).unwrap();
        let first = a.ground_truth_volts(PowerDomain::FpgaLogic, t);
        let second = a.ground_truth_volts(PowerDomain::FpgaLogic, t);
        assert_eq!(first.to_bits(), second.to_bits());

        let mut b = Platform::zcu102(22);
        let vb = b.deploy_virus(VirusConfig::default()).unwrap();
        vb.activate_groups(80).unwrap();
        let fresh = b.ground_truth_volts(PowerDomain::FpgaLogic, t);
        assert_eq!(first.to_bits(), fresh.to_bits());

        // A control change is seen at once: activating more groups moves
        // the value at the instant already read.
        va.activate_groups(160).unwrap();
        let after = a.ground_truth_volts(PowerDomain::FpgaLogic, t);
        assert_ne!(first.to_bits(), after.to_bits());
    }
}
