//! The composable memory-hierarchy layer (§3): the [`HierarchyInstance`] a
//! [`SimulationSession`](crate::SimulationSession) builds **once** from its
//! [`SystemConfig`] and reuses across runs.
//!
//! The paper's claim is that the hierarchy is *composable*: swap the edge
//! channel (ReRAM/DRAM), the off-chip vertex channel, the on-chip tier and
//! the optimizations, and energy/time follow (Fig. 16, Table 4). This
//! module makes that literal:
//!
//! * **instance** — [`HierarchyInstance::build`] turns a [`SystemConfig`]
//!   and a [`FaultPlan`] into channels: it constructs every device model,
//!   the inter-PU router (§4.2) and the edge-channel power-gating
//!   controller (§4.1) exactly once. It is the *only* place the
//!   [`OffChipTech`] enum is matched; the engine never pattern-matches a
//!   memory technology. Runs and sweeps borrow the instance read-only, and
//!   each [`Channel`] is the one source of its costs.
//! * **accounting** — each run opens a fresh
//!   [`EnergyBreakdown`](crate::EnergyBreakdown) (one access-stats record
//!   per channel plus logic); the phase-level accounting passes in the
//!   crate-private `accounting` module write straight into it, and it
//!   becomes the report's breakdown.
//!
//! Adding a hierarchy variant means adding a device arm to the build and
//! the [`Channel`] cost methods — not editing the engine.

use crate::config::{OffChipTech, SystemConfig};
use crate::error::CoreError;
use crate::router::Router;
use hyve_memsim::{
    mlc_ber_factor, BankPowerGating, DeviceKind, DramChip, EccProfile, Energy, FaultPlan,
    MemoryDevice, Power, PowerGatingConfig, ReramChip, SramArray, Time,
};
use std::cell::Cell;
use std::fmt;

/// Number of memory chips provisioned on the edge-memory channel. The
/// subsystem is sized for large graphs, so its background power does not
/// shrink with the (scaled) dataset — this is what bank-level power gating
/// recovers (§4.1, Fig. 15).
pub const EDGE_CHANNEL_CHIPS: u32 = 8;

/// Chips on the off-chip vertex channel (vertex data is 10–100× smaller
/// than edges, §3).
pub const VERTEX_CHANNEL_CHIPS: u32 = 2;

/// Banks of a DDR4-style DRAM chip (the DRAM model does not carry bank
/// geometry; fault sparing on a DRAM edge channel needs it).
const DRAM_BANKS: u32 = 16;

/// Static power of the hybrid memory controller and miscellaneous logic.
const CONTROLLER_POWER: Power = Power::from_mw(40.0);

thread_local! {
    /// Per-thread count of device-model constructions — test
    /// instrumentation for the "build once per session, not once per run"
    /// contract. Thread-local so concurrently running tests cannot perturb
    /// each other's deltas.
    static DEVICE_CONSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Device-model constructions performed by the *current thread* so far.
///
/// Snapshot it before and after an operation to assert how many device
/// models the operation built; see the session tests for the
/// once-per-session guarantee.
pub fn device_constructions() -> u64 {
    DEVICE_CONSTRUCTIONS.with(Cell::get)
}

/// The constructed device model behind a channel. A closed enum (rather
/// than a trait object) keeps [`HierarchyInstance`] — and with it the
/// session — `Clone` and cheap to share across threads.
#[derive(Debug, Clone)]
enum ChannelDevice {
    Reram(ReramChip),
    Dram(DramChip),
    Sram(SramArray),
}

/// A fully-constructed channel: device model, ganged chip count and the
/// ECC protecting it.
///
/// The channel is the one source of its costs: every accounting pass asks
/// these methods, which fold the ECC overheads in under one rule —
/// check-bit storage stretches background power (gated or not), the
/// in-line syndrome pipeline stretches every access latency and stream
/// time. Energies are the raw device answers; syndrome decode
/// energy is charged per access by the reliability pass.
///
/// Channels are built once per session by [`HierarchyInstance::build`] and
/// borrowed read-only by every run; per-run access counts accumulate in
/// the run's [`EnergyBreakdown`](crate::EnergyBreakdown), not here.
#[derive(Debug, Clone)]
pub struct Channel {
    chips: u32,
    device: ChannelDevice,
    ecc: EccProfile,
}

impl Channel {
    fn new(device: ChannelDevice, chips: u32, ecc: EccProfile) -> Channel {
        DEVICE_CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        Channel { chips, device, ecc }
    }

    fn dev(&self) -> &dyn MemoryDevice {
        match &self.device {
            ChannelDevice::Reram(c) => c,
            ChannelDevice::Dram(c) => c,
            ChannelDevice::Sram(c) => c,
        }
    }

    /// Multiplier the ECC syndrome pipeline puts on every access latency.
    fn latency_scale(&self) -> f64 {
        1.0 + self.ecc.latency_overhead()
    }

    /// Multiplier the ECC check-bit cells put on background power.
    fn storage_scale(&self) -> f64 {
        1.0 + self.ecc.storage_overhead(self.output_bits())
    }

    /// Chips ganged on the channel.
    pub fn chips(&self) -> u32 {
        self.chips
    }

    /// Technology of the channel's device.
    pub fn kind(&self) -> DeviceKind {
        self.dev().kind()
    }

    /// Banks per chip (bank sparing addresses `chips × banks_per_chip`).
    pub(crate) fn banks_per_chip(&self) -> u32 {
        match &self.device {
            ChannelDevice::Reram(c) => c.banks(),
            ChannelDevice::Dram(_) => DRAM_BANKS,
            ChannelDevice::Sram(_) => 1,
        }
    }

    /// Raw bit-error rate the device sees under `plan`: ReRAM scaled by MLC
    /// sensitivity, DRAM at its retention rate, SRAM at the soft-error rate.
    pub(crate) fn raw_ber(&self, plan: &FaultPlan) -> f64 {
        match &self.device {
            ChannelDevice::Reram(c) => plan.reram_ber * mlc_ber_factor(c.config().cell.bits.bits()),
            ChannelDevice::Dram(_) => plan.dram_ber,
            ChannelDevice::Sram(_) => plan.sram_ber,
        }
    }

    /// Bits delivered per access/burst.
    pub fn output_bits(&self) -> u32 {
        self.dev().output_bits()
    }

    /// Dynamic energy to read `bits` bits.
    pub fn read_energy(&self, bits: u64) -> Energy {
        self.dev().read_energy(bits)
    }

    /// Dynamic energy to write `bits` bits.
    pub fn write_energy(&self, bits: u64) -> Energy {
        self.dev().write_energy(bits)
    }

    /// Energy of a random read of `bits` bits.
    pub fn random_read_energy(&self, bits: u64) -> Energy {
        self.dev().random_read_energy(bits)
    }

    /// Energy of a random write of `bits` bits.
    pub fn random_write_energy(&self, bits: u64) -> Energy {
        self.dev().random_write_energy(bits)
    }

    /// Energy of a bulk transfer of `bits` bits into the device.
    pub fn bulk_write_energy(&self, bits: u64) -> Energy {
        self.dev().bulk_write_energy(bits)
    }

    /// Energy of a bulk transfer of `bits` bits out of the device.
    pub fn bulk_read_energy(&self, bits: u64) -> Energy {
        self.dev().bulk_read_energy(bits)
    }

    /// Latency of a first/random read access.
    pub fn read_latency(&self) -> Time {
        self.dev().read_latency() * self.latency_scale()
    }

    /// Latency of one write access.
    pub fn write_latency(&self) -> Time {
        self.dev().write_latency() * self.latency_scale()
    }

    /// Per-access period of a flowing sequential read stream.
    pub fn burst_period(&self) -> Time {
        self.dev().burst_period() * self.latency_scale()
    }

    /// Per-access period of a sequential write stream.
    pub fn sequential_write_period(&self) -> Time {
        self.dev().sequential_write_period() * self.latency_scale()
    }

    /// Latency of one word read (on-chip tiers).
    pub fn word_read_latency(&self) -> Time {
        self.dev().word_read_latency() * self.latency_scale()
    }

    /// Latency of one word write (on-chip tiers).
    pub fn word_write_latency(&self) -> Time {
        self.dev().word_write_latency() * self.latency_scale()
    }

    /// Time to stream `bits` bits sequentially.
    pub fn sequential_read_time(&self, bits: u64) -> Time {
        self.dev().sequential_read_time(bits) * self.latency_scale()
    }

    /// Time to stream `bits` bits in or out at the bulk-transfer
    /// granularity.
    pub fn bulk_transfer_time(&self, bits: u64) -> Time {
        self.dev().bulk_transfer_time(bits) * self.latency_scale()
    }

    /// Background power of one chip while powered.
    pub fn background_power(&self) -> Power {
        self.dev().background_power() * self.storage_scale()
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.device {
            ChannelDevice::Reram(c) => write!(f, "ReRAM {} Gbit/chip", c.config().density_gbit)?,
            ChannelDevice::Dram(c) => write!(f, "DRAM {} Gbit/chip", c.config().density_gbit)?,
            ChannelDevice::Sram(c) => {
                write!(f, "SRAM {} MB", c.config().capacity_bytes / (1024 * 1024))?
            }
        }
        write!(f, " ×{}", self.chips)
    }
}

/// Bank-level power gating of the edge channel, pre-bound to the channel's
/// bank geometry at build time (§4.1 + §3.4's sequential address layout).
#[derive(Debug, Clone)]
pub(crate) struct EdgeGating {
    gating: BankPowerGating,
    /// Bytes in one edge bank.
    bank_bytes: u64,
}

impl EdgeGating {
    /// `storage_scale` is the channel's ECC check-bit surcharge on
    /// leakage, which the banks keep paying while powered.
    fn for_channel(chip: &ReramChip, chips: u32, storage_scale: f64) -> EdgeGating {
        let gating = BankPowerGating::new(
            PowerGatingConfig::default(),
            chip.banks() * chips,
            chip.bank_leakage() * storage_scale,
        );
        let bank_bytes = chip.capacity_bits() / u64::from(chip.banks()) / 8;
        EdgeGating { gating, bank_bytes }
    }

    /// Sleep/wake transition pairs charged over a run: one per bank the
    /// edge data spans, per iteration. The layout is sequential (§3.1,
    /// §3.4): no bank interleaving, so data fills one bank before the next
    /// and a scan wakes the banks in address order. The trace layer
    /// reports exactly this number.
    pub(crate) fn transitions(&self, edge_bits: u64, iterations: u32) -> u64 {
        let edge_bytes = edge_bits.div_ceil(8);
        edge_bytes.div_ceil(self.bank_bytes).max(1) * u64::from(iterations)
    }

    /// Gated background energy of the edge channel over `total_time`, for
    /// edge data of `edge_bits` scanned once per iteration.
    pub(crate) fn background_energy(
        &self,
        total_time: Time,
        edge_bits: u64,
        iterations: u32,
    ) -> Energy {
        self.gating
            .gated_energy(total_time, self.transitions(edge_bits, iterations), 1.0)
    }
}

/// The validated, fully-constructed hierarchy: every channel's device model
/// plus the router and power-gating controller, built **once** per session.
///
/// Its `Display` is the reviewable summary `hyve info` prints.
#[derive(Debug, Clone)]
pub struct HierarchyInstance {
    name: &'static str,
    num_pus: u32,
    edge: Channel,
    global_vertex: Channel,
    local_vertex: Option<Channel>,
    router: Option<Router>,
    gating: Option<EdgeGating>,
    faults: Option<FaultPlan>,
}

impl HierarchyInstance {
    /// Builds the hierarchy `config` denotes under the fault plan `faults`:
    /// the edge stream ([`EDGE_CHANNEL_CHIPS`] chips), the global vertex
    /// channel ([`VERTEX_CHANNEL_CHIPS`] chips), the optional per-PU SRAM
    /// tier, the router when sharing is on and the gating controller when
    /// gating is on. This is the only place memory technologies are
    /// interpreted. An inert plan ([`FaultPlan::none`]) is dropped, so the
    /// runs take exactly the fault-free code path.
    ///
    /// # Errors
    ///
    /// Propagates device-model validation failures, rejects an invalid
    /// active fault plan, and rejects power gating on a volatile (DRAM)
    /// edge channel — gating relies on nonvolatility to skip state
    /// save/restore (§4.1).
    pub fn build(config: &SystemConfig, faults: FaultPlan) -> Result<HierarchyInstance, CoreError> {
        let faults = if faults.is_active() {
            faults
                .validate()
                .map_err(|message| CoreError::InvalidConfig { message })?;
            Some(faults)
        } else {
            None
        };
        // ECC datapaths sit on every channel's access path.
        let ecc = faults.as_ref().map_or(EccProfile::None, |plan| plan.ecc);
        let off_chip = |tech: OffChipTech, chips: u32| -> Result<Channel, CoreError> {
            let device = match tech {
                OffChipTech::Reram => {
                    ChannelDevice::Reram(ReramChip::try_new(config.reram_config())?)
                }
                OffChipTech::Dram => ChannelDevice::Dram(DramChip::try_new(config.dram_config())?),
            };
            Ok(Channel::new(device, chips, ecc))
        };
        let edge = off_chip(config.edge_memory, EDGE_CHANNEL_CHIPS)?;
        let global_vertex = off_chip(config.offchip_vertex, VERTEX_CHANNEL_CHIPS)?;
        let local_vertex = match config.sram_config() {
            Some(sram) => Some(Channel::new(
                ChannelDevice::Sram(SramArray::try_new(sram)?),
                1,
                ecc,
            )),
            None => None,
        };
        let gating = match (&edge.device, config.power_gating) {
            (_, false) => None,
            (ChannelDevice::Reram(chip), true) => Some(EdgeGating::for_channel(
                chip,
                edge.chips,
                edge.storage_scale(),
            )),
            (_, true) => {
                return Err(CoreError::InvalidConfig {
                    message: "bank-level power gating requires nonvolatile (ReRAM) edge memory"
                        .into(),
                })
            }
        };
        Ok(HierarchyInstance {
            name: config.name,
            num_pus: config.num_pus,
            edge,
            global_vertex,
            local_vertex,
            router: config.data_sharing.then(|| Router::new(config.num_pus)),
            gating,
            faults,
        })
    }

    /// The edge-stream channel.
    pub fn edge(&self) -> &Channel {
        &self.edge
    }

    /// The off-chip global vertex channel.
    pub fn global_vertex(&self) -> &Channel {
        &self.global_vertex
    }

    /// The on-chip local vertex tier, if the hierarchy has one.
    pub fn local_vertex(&self) -> Option<&Channel> {
        self.local_vertex.as_ref()
    }

    /// The inter-PU data-sharing router, when sharing is on.
    pub fn router(&self) -> Option<&Router> {
        self.router.as_ref()
    }

    /// The pre-bound edge-channel power-gating controller, when gating is
    /// on.
    pub(crate) fn gating(&self) -> Option<&EdgeGating> {
        self.gating.as_ref()
    }

    /// The fault plan the controller enforces, when it is active. `None`
    /// guarantees the fault-free accounting path runs untouched.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Static power of the hybrid memory controller and misc logic.
    pub fn controller_power(&self) -> Power {
        CONTROLLER_POWER
    }
}

impl fmt::Display for HierarchyInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "hierarchy {} ({} PUs)", self.name, self.num_pus)?;
        writeln!(f, "  edge stream:   {}", self.edge)?;
        writeln!(f, "  global vertex: {}", self.global_vertex)?;
        match &self.local_vertex {
            Some(c) => writeln!(f, "  local vertex:  {c}")?,
            None => writeln!(f, "  local vertex:  none (random off-chip access)")?,
        }
        writeln!(
            f,
            "  data sharing:  {}",
            if self.router.is_some() {
                "on (N×N router)"
            } else {
                "off"
            }
        )?;
        write!(
            f,
            "  power gating:  {}",
            if self.gating.is_some() {
                "on (edge banks)"
            } else {
                "off"
            }
        )?;
        if let Some(plan) = &self.faults {
            write!(
                f,
                "\n  faults:        seed={}, ecc={}",
                plan.seed,
                plan.ecc.name()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(config: &SystemConfig) -> HierarchyInstance {
        HierarchyInstance::build(config, FaultPlan::none()).unwrap()
    }

    #[test]
    fn build_resolves_all_five_presets() {
        let cases = [
            (
                SystemConfig::acc_dram(),
                DeviceKind::Dram,
                DeviceKind::Dram,
                false,
            ),
            (
                SystemConfig::acc_reram(),
                DeviceKind::Reram,
                DeviceKind::Reram,
                false,
            ),
            (
                SystemConfig::acc_sram_dram(),
                DeviceKind::Dram,
                DeviceKind::Dram,
                true,
            ),
            (
                SystemConfig::hyve(),
                DeviceKind::Reram,
                DeviceKind::Dram,
                true,
            ),
            (
                SystemConfig::hyve_opt(),
                DeviceKind::Reram,
                DeviceKind::Dram,
                true,
            ),
        ];
        for (cfg, edge, global, has_local) in cases {
            let h = build(&cfg);
            assert_eq!(h.edge().kind(), edge, "{}", cfg.name);
            assert_eq!(h.global_vertex().kind(), global, "{}", cfg.name);
            assert_eq!(h.local_vertex().is_some(), has_local, "{}", cfg.name);
            assert_eq!(h.edge().chips(), EDGE_CHANNEL_CHIPS);
            assert_eq!(h.global_vertex().chips(), VERTEX_CHANNEL_CHIPS);
            assert_eq!(h.router().is_some(), cfg.data_sharing);
            assert_eq!(h.gating().is_some(), cfg.power_gating);
        }
    }

    #[test]
    fn build_constructs_each_device_exactly_once() {
        let before = device_constructions();
        let h = build(&SystemConfig::hyve_opt());
        assert_eq!(device_constructions() - before, 3, "edge + global + local");
        assert!(h.router().is_some());
        assert!(h.gating().is_some());
        assert_eq!(h.edge().kind(), DeviceKind::Reram);
        assert_eq!(h.local_vertex().unwrap().kind(), DeviceKind::Sram);

        let before = device_constructions();
        let h = build(&SystemConfig::acc_dram());
        assert_eq!(device_constructions() - before, 2, "no local tier");
        assert!(h.router().is_none());
        assert!(h.gating().is_none());
        assert!(h.local_vertex().is_none());
    }

    #[test]
    fn fault_free_channel_costs_are_the_device_answers() {
        let h = build(&SystemConfig::hyve());
        for ch in [h.edge(), h.global_vertex(), h.local_vertex().unwrap()] {
            let d = ch.dev();
            assert_eq!(ch.read_latency(), d.read_latency());
            assert_eq!(ch.write_latency(), d.write_latency());
            assert_eq!(ch.burst_period(), d.burst_period());
            assert_eq!(ch.sequential_write_period(), d.sequential_write_period());
            assert_eq!(ch.sequential_read_time(4096), d.sequential_read_time(4096));
            assert_eq!(ch.bulk_transfer_time(4096), d.bulk_transfer_time(4096));
            assert_eq!(ch.output_bits(), d.output_bits());
            assert_eq!(ch.background_power(), d.background_power());
            assert_eq!(ch.word_read_latency(), d.word_read_latency());
            assert_eq!(ch.word_write_latency(), d.word_write_latency());
        }
    }

    #[test]
    fn gating_on_volatile_edge_rejected_at_build() {
        let config = SystemConfig::acc_dram().with_power_gating(true);
        assert!(matches!(
            HierarchyInstance::build(&config, FaultPlan::none()),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn gating_charges_one_transition_per_bank_spanned() {
        let gating = EdgeGating {
            gating: BankPowerGating::new(PowerGatingConfig::default(), 8, Power::from_mw(1.0)),
            bank_bytes: 1024,
        };
        let banks = |bytes: u64| gating.transitions(bytes * 8, 1);
        assert_eq!(banks(1), 1);
        assert_eq!(banks(1024), 1);
        assert_eq!(banks(1025), 2);
        assert_eq!(banks(5000), 5);
        assert_eq!(gating.transitions(5000 * 8, 3), 15, "once per iteration");
    }

    #[test]
    fn display_prints_the_hierarchy_block() {
        assert_eq!(
            build(&SystemConfig::hyve_opt()).to_string(),
            "hierarchy acc+HyVE-opt (8 PUs)\n\
             \x20 edge stream:   ReRAM 4 Gbit/chip ×8\n\
             \x20 global vertex: DRAM 4 Gbit/chip ×2\n\
             \x20 local vertex:  SRAM 2 MB ×1\n\
             \x20 data sharing:  on (N×N router)\n\
             \x20 power gating:  on (edge banks)"
        );
        assert_eq!(
            build(&SystemConfig::acc_dram()).to_string(),
            "hierarchy acc+DRAM (8 PUs)\n\
             \x20 edge stream:   DRAM 4 Gbit/chip ×8\n\
             \x20 global vertex: DRAM 4 Gbit/chip ×2\n\
             \x20 local vertex:  none (random off-chip access)\n\
             \x20 data sharing:  off\n\
             \x20 power gating:  off"
        );
    }

    #[test]
    fn active_fault_plan_builds_no_extra_devices() {
        let plan = FaultPlan::parse("seed=1,reram-ber=1e-5,ecc=secded").unwrap();
        let before = device_constructions();
        let h = HierarchyInstance::build(&SystemConfig::hyve_opt(), plan.clone()).unwrap();
        assert_eq!(
            device_constructions() - before,
            3,
            "the fault plan must not construct devices"
        );
        assert_eq!(h.faults(), Some(&plan));
        let edge = h.edge();
        assert_eq!(edge.chips(), EDGE_CHANNEL_CHIPS);
        assert_eq!(edge.banks_per_chip(), 8, "default ReRAM chip banks");
        assert_eq!(edge.raw_ber(&plan), 1e-5, "paper settles on SLC");
        // ECC stretches the channel's latencies past the raw device answers.
        assert!(edge.read_latency() > edge.dev().read_latency());
        assert!(edge.background_power() > edge.dev().background_power());
        assert_eq!(edge.output_bits(), edge.dev().output_bits());
        assert!(h
            .to_string()
            .ends_with("\n  faults:        seed=1, ecc=secded"));
    }

    #[test]
    fn ecc_storage_stretches_gated_edge_background() {
        let gated_bg = |plan: FaultPlan| {
            HierarchyInstance::build(&SystemConfig::hyve_opt(), plan)
                .unwrap()
                .gating()
                .unwrap()
                .background_energy(Time::from_us(10.0), 1 << 20, 1)
        };
        let plain = gated_bg(FaultPlan::none());
        let ecc = gated_bg(FaultPlan::parse("ecc=secded").unwrap());
        assert!(ecc > plain, "{ecc} vs {plain}");
    }

    #[test]
    fn inert_fault_plan_leaves_no_trace_on_the_instance() {
        let h = HierarchyInstance::build(&SystemConfig::hyve(), FaultPlan::none().with_seed(123))
            .unwrap();
        assert!(h.faults().is_none());
        assert_eq!(h.edge().read_latency(), h.edge().dev().read_latency());
    }

    #[test]
    fn invalid_fault_plan_rejected_at_build() {
        let mut plan = FaultPlan::none();
        plan.reram_ber = 2.0;
        assert!(matches!(
            HierarchyInstance::build(&SystemConfig::hyve(), plan),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
