//! The composable memory-hierarchy layer (§3): a declarative
//! [`HierarchySpec`] lowered from [`SystemConfig`], and the fully
//! constructed [`HierarchyInstance`] a
//! [`SimulationSession`](crate::SimulationSession) builds **once** and
//! reuses across runs and sweep points.
//!
//! The paper's claim is that the hierarchy is *composable*: swap the edge
//! channel (ReRAM/DRAM), the off-chip vertex channel, the on-chip tier and
//! the optimizations, and energy/time follow (Fig. 16, Table 4). This
//! module makes that literal:
//!
//! * **spec** — [`HierarchySpec::lower`] translates a [`SystemConfig`] into
//!   channel descriptions ([`ChannelSpec`]: [`DeviceSpec`] + ganged chip
//!   count). All device selection happens here; the engine never
//!   pattern-matches a memory-technology enum again.
//! * **instance** — [`HierarchyInstance::build`] constructs every device
//!   model, the per-channel cost memos ([`OpCosts`]), the inter-PU router
//!   (§4.2) and the edge-channel power-gating controller (§4.1) exactly
//!   once. Runs and sweeps borrow the instance read-only.
//! * **accounting** — each run opens a fresh
//!   [`EnergyBreakdown`](crate::EnergyBreakdown) (one access-stats record
//!   per channel plus logic); the phase-level accounting passes in the
//!   crate-private `accounting` module write straight into it, and it
//!   becomes the report's breakdown.
//!
//! Adding a hierarchy variant means adding a [`DeviceSpec`] arm and a
//! lowering rule — not editing the engine.

use crate::config::{EdgeMemoryKind, SystemConfig, VertexMemoryKind};
use crate::controller::ResilienceModel;
use crate::error::CoreError;
use crate::router::Router;
use hyve_memsim::{
    BankPowerGating, DramChip, DramChipConfig, EccProfile, Energy, FaultPlan, MemoryDevice, Power,
    PowerGatingConfig, ReramChip, ReramChipConfig, SramArray, SramConfig, Time,
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

/// Declarative description of the device behind a channel — enough to
/// construct the model without consulting the [`SystemConfig`] again.
#[derive(Debug, Clone, PartialEq)]
pub enum DeviceSpec {
    /// ReRAM main-memory chip.
    Reram(ReramChipConfig),
    /// DDR-style DRAM chip.
    Dram(DramChipConfig),
    /// On-chip SRAM array.
    Sram(SramConfig),
}

impl DeviceSpec {
    /// Technology tag of the described device.
    pub fn kind(&self) -> hyve_memsim::DeviceKind {
        match self {
            DeviceSpec::Reram(_) => hyve_memsim::DeviceKind::Reram,
            DeviceSpec::Dram(_) => hyve_memsim::DeviceKind::Dram,
            DeviceSpec::Sram(_) => hyve_memsim::DeviceKind::Sram,
        }
    }
}

impl fmt::Display for DeviceSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceSpec::Reram(c) => write!(f, "ReRAM {} Gbit/chip", c.density_gbit),
            DeviceSpec::Dram(c) => write!(f, "DRAM {} Gbit/chip", c.density_gbit),
            DeviceSpec::Sram(c) => {
                write!(f, "SRAM {} MB", c.capacity_bytes / (1024 * 1024))
            }
        }
    }
}

/// One channel of the hierarchy, declaratively: its device, and how many
/// chips are ganged on the channel (streaming in parallel like a DIMM
/// rank). The [`HierarchySpec`] field holding it names what it stores.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// Device technology and parameters.
    pub device: DeviceSpec,
    /// Chips ganged on the channel.
    pub chips: u32,
}

impl fmt::Display for ChannelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ×{}", self.device, self.chips)
    }
}

/// The declarative hierarchy a [`SystemConfig`] lowers into: every device
/// choice resolved, nothing constructed yet.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchySpec {
    /// Configuration name carried through to reports.
    pub name: &'static str,
    /// Processing-unit count (sizes the router and logic leakage).
    pub num_pus: u32,
    /// Edge-stream channel.
    pub edge: ChannelSpec,
    /// Off-chip global vertex channel.
    pub global_vertex: ChannelSpec,
    /// Optional on-chip local vertex tier; `None` means every vertex touch
    /// is a random access at the global channel (acc+DRAM / acc+ReRAM).
    pub local_vertex: Option<ChannelSpec>,
    /// Inter-PU source-interval sharing through the N×N router (§4.2).
    pub data_sharing: bool,
    /// Bank-level power gating of the edge channel (§4.1; requires a
    /// nonvolatile edge device).
    pub power_gating: bool,
    /// Deterministic fault-injection plan. The default,
    /// [`FaultPlan::none()`], is inert: no resilience model is built and
    /// runs take exactly the fault-free code path.
    pub faults: FaultPlan,
}

impl HierarchySpec {
    /// Lowers a [`SystemConfig`] into the declarative hierarchy it denotes.
    /// This is the *only* place memory-technology enums are interpreted.
    pub fn lower(config: &SystemConfig) -> HierarchySpec {
        let edge_device = match config.edge_memory {
            EdgeMemoryKind::Reram => DeviceSpec::Reram(config.reram_config()),
            EdgeMemoryKind::Dram => DeviceSpec::Dram(config.dram_config()),
        };
        let global_device = match config.offchip_vertex {
            VertexMemoryKind::Dram => DeviceSpec::Dram(config.dram_config()),
            VertexMemoryKind::Reram => DeviceSpec::Reram(config.reram_config()),
        };
        HierarchySpec {
            name: config.name,
            num_pus: config.num_pus,
            edge: ChannelSpec {
                device: edge_device,
                chips: EDGE_CHANNEL_CHIPS,
            },
            global_vertex: ChannelSpec {
                device: global_device,
                chips: VERTEX_CHANNEL_CHIPS,
            },
            local_vertex: config.sram_config().map(|sc| ChannelSpec {
                device: DeviceSpec::Sram(sc),
                chips: 1,
            }),
            data_sharing: config.data_sharing,
            power_gating: config.power_gating,
            faults: FaultPlan::none(),
        }
    }
}

impl fmt::Display for HierarchySpec {
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
            if self.data_sharing {
                "on (N×N router)"
            } else {
                "off"
            }
        )?;
        write!(
            f,
            "  power gating:  {}",
            if self.power_gating {
                "on (edge banks)"
            } else {
                "off"
            }
        )?;
        if self.faults.is_active() {
            write!(
                f,
                "\n  faults:        seed={}, ecc={}",
                self.faults.seed,
                self.faults.ecc.name()
            )?;
        }
        Ok(())
    }
}

/// The constructed device model behind a channel. A closed enum (rather
/// than a trait object) keeps [`HierarchyInstance`] — and with it the
/// session — `Clone` and cheap to share across sweep threads.
#[derive(Debug, Clone)]
enum ChannelDevice {
    Reram(ReramChip),
    Dram(DramChip),
    Sram(SramArray),
}

impl ChannelDevice {
    fn as_memory_device(&self) -> &dyn MemoryDevice {
        match self {
            ChannelDevice::Reram(c) => c,
            ChannelDevice::Dram(c) => c,
            ChannelDevice::Sram(c) => c,
        }
    }
}

/// Per-operation scalar costs of a channel's device, captured once at build
/// time so the per-run accounting passes never re-derive them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpCosts {
    /// Latency of a first/random read access.
    pub read_latency: Time,
    /// Latency of one write access.
    pub write_latency: Time,
    /// Per-access period of a flowing sequential read stream.
    pub burst_period: Time,
    /// Per-access period of a sequential write stream.
    pub sequential_write_period: Time,
    /// Bits delivered per access/burst.
    pub output_bits: u32,
    /// Background power of one chip while powered.
    pub background_power: Power,
    /// Latency of one word read (on-chip tiers).
    pub word_read_latency: Time,
    /// Latency of one word write (on-chip tiers).
    pub word_write_latency: Time,
}

impl OpCosts {
    fn capture(device: &dyn MemoryDevice) -> OpCosts {
        OpCosts {
            read_latency: device.read_latency(),
            write_latency: device.write_latency(),
            burst_period: device.burst_period(),
            sequential_write_period: device.sequential_write_period(),
            output_bits: device.output_bits(),
            background_power: device.background_power(),
            word_read_latency: device.word_read_latency(),
            word_write_latency: device.word_write_latency(),
        }
    }

    /// Folds an ECC profile's per-access overheads into the cost memo:
    /// every access latency stretches by the in-line syndrome pipeline, and
    /// background power grows by the check-bit storage fraction (the extra
    /// cells leak like the data cells they sit beside). Applied once at
    /// build time, only when the session's fault plan is active.
    pub fn with_ecc(self, ecc: EccProfile) -> OpCosts {
        let lat = 1.0 + ecc.latency_overhead();
        let storage = 1.0 + ecc.storage_overhead(self.output_bits);
        OpCosts {
            read_latency: self.read_latency * lat,
            write_latency: self.write_latency * lat,
            burst_period: self.burst_period * lat,
            sequential_write_period: self.sequential_write_period * lat,
            output_bits: self.output_bits,
            background_power: self.background_power * storage,
            word_read_latency: self.word_read_latency * lat,
            word_write_latency: self.word_write_latency * lat,
        }
    }
}

/// A fully-constructed channel: device model + cost memo + channel width.
///
/// Channels are built once per session by [`HierarchyInstance::build`] and
/// borrowed read-only by every run; per-run access counts accumulate in
/// the run's [`EnergyBreakdown`](crate::EnergyBreakdown), not here.
#[derive(Debug, Clone)]
pub struct Channel {
    chips: u32,
    device: ChannelDevice,
    costs: OpCosts,
}

impl Channel {
    fn build(spec: &ChannelSpec) -> Result<Channel, CoreError> {
        let device = match &spec.device {
            DeviceSpec::Reram(c) => ChannelDevice::Reram(ReramChip::try_new(c.clone())?),
            DeviceSpec::Dram(c) => ChannelDevice::Dram(DramChip::try_new(c.clone())?),
            DeviceSpec::Sram(c) => ChannelDevice::Sram(SramArray::try_new(c.clone())?),
        };
        DEVICE_CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        let costs = OpCosts::capture(device.as_memory_device());
        Ok(Channel {
            chips: spec.chips,
            device,
            costs,
        })
    }

    /// Chips ganged on the channel.
    pub fn chips(&self) -> u32 {
        self.chips
    }

    /// The memoized per-operation scalar costs.
    pub fn costs(&self) -> &OpCosts {
        &self.costs
    }

    /// The device model, through the uniform [`MemoryDevice`] interface.
    pub fn device(&self) -> &dyn MemoryDevice {
        self.device.as_memory_device()
    }

    /// The ReRAM chip model, when the channel is ReRAM-backed (the power
    /// gating controller needs bank geometry the trait does not expose).
    fn reram(&self) -> Option<&ReramChip> {
        match &self.device {
            ChannelDevice::Reram(c) => Some(c),
            _ => None,
        }
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
    fn for_channel(chip: &ReramChip, chips: u32) -> EdgeGating {
        let gating = BankPowerGating::new(
            PowerGatingConfig::default(),
            chip.banks() * chips,
            chip.bank_leakage(),
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
#[derive(Debug, Clone)]
pub struct HierarchyInstance {
    spec: HierarchySpec,
    edge: Channel,
    global_vertex: Channel,
    local_vertex: Option<Channel>,
    router: Option<Router>,
    gating: Option<EdgeGating>,
    resilience: Option<ResilienceModel>,
}

impl HierarchyInstance {
    /// Constructs every device in the spec.
    ///
    /// # Errors
    ///
    /// Propagates device-model validation failures, and rejects power
    /// gating on a volatile (non-ReRAM) edge channel — gating relies on
    /// nonvolatility to skip state save/restore (§4.1).
    pub fn build(spec: HierarchySpec) -> Result<HierarchyInstance, CoreError> {
        let mut edge = Channel::build(&spec.edge)?;
        let mut global_vertex = Channel::build(&spec.global_vertex)?;
        let mut local_vertex = spec.local_vertex.as_ref().map(Channel::build).transpose()?;
        let router = spec.data_sharing.then(|| Router::new(spec.num_pus));
        let gating = if spec.power_gating {
            match edge.reram() {
                Some(chip) => Some(EdgeGating::for_channel(chip, edge.chips())),
                None => {
                    return Err(CoreError::InvalidConfig {
                        message: "bank-level power gating requires nonvolatile (ReRAM) edge memory"
                            .into(),
                    })
                }
            }
        } else {
            None
        };
        let resilience = if spec.faults.is_active() {
            spec.faults
                .validate()
                .map_err(|message| CoreError::InvalidConfig { message })?;
            // Resolve the plan against the edge channel's bank geometry and
            // cell type — no extra device constructions.
            let (banks_per_chip, cell_bits) = match &spec.edge.device {
                DeviceSpec::Reram(cfg) => (cfg.banks, cfg.cell.bits.bits()),
                // DRAM edge channel: a DDR4-style device has 16 banks and
                // single-level cells.
                _ => (16, 1),
            };
            // ECC datapaths sit on every channel's access path: fold the
            // per-access overheads into the cost memos once, at build time.
            if spec.faults.ecc != EccProfile::None {
                let ecc = spec.faults.ecc;
                edge.costs = edge.costs.with_ecc(ecc);
                global_vertex.costs = global_vertex.costs.with_ecc(ecc);
                if let Some(local) = &mut local_vertex {
                    local.costs = local.costs.with_ecc(ecc);
                }
            }
            Some(ResilienceModel::new(
                spec.faults.clone(),
                spec.edge.chips,
                banks_per_chip,
                cell_bits,
            ))
        } else {
            None
        };
        Ok(HierarchyInstance {
            spec,
            edge,
            global_vertex,
            local_vertex,
            router,
            gating,
            resilience,
        })
    }

    /// The declarative spec this instance was built from.
    pub fn spec(&self) -> &HierarchySpec {
        &self.spec
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

    /// The controller's resilience model, when the session's fault plan is
    /// active. `None` guarantees the fault-free accounting path runs
    /// untouched.
    pub fn resilience(&self) -> Option<&ResilienceModel> {
        self.resilience.as_ref()
    }

    /// Static power of the hybrid memory controller and misc logic.
    pub fn controller_power(&self) -> Power {
        CONTROLLER_POWER
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyve_memsim::DeviceKind;

    #[test]
    fn lowering_resolves_all_five_presets() {
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
            let spec = HierarchySpec::lower(&cfg);
            assert_eq!(spec.edge.device.kind(), edge, "{}", cfg.name);
            assert_eq!(spec.global_vertex.device.kind(), global, "{}", cfg.name);
            assert_eq!(spec.local_vertex.is_some(), has_local, "{}", cfg.name);
            assert_eq!(spec.edge.chips, EDGE_CHANNEL_CHIPS);
            assert_eq!(spec.global_vertex.chips, VERTEX_CHANNEL_CHIPS);
            assert_eq!(spec.data_sharing, cfg.data_sharing);
            assert_eq!(spec.power_gating, cfg.power_gating);
        }
    }

    #[test]
    fn build_constructs_each_device_exactly_once() {
        let before = device_constructions();
        let h = HierarchyInstance::build(HierarchySpec::lower(&SystemConfig::hyve_opt())).unwrap();
        assert_eq!(device_constructions() - before, 3, "edge + global + local");
        assert!(h.router().is_some());
        assert!(h.gating().is_some());
        assert_eq!(h.edge().device().kind(), DeviceKind::Reram);
        assert_eq!(h.local_vertex().unwrap().device().kind(), DeviceKind::Sram);

        let before = device_constructions();
        let h = HierarchyInstance::build(HierarchySpec::lower(&SystemConfig::acc_dram())).unwrap();
        assert_eq!(device_constructions() - before, 2, "no local tier");
        assert!(h.router().is_none());
        assert!(h.gating().is_none());
        assert!(h.local_vertex().is_none());
    }

    #[test]
    fn cost_memo_matches_device_answers() {
        let h = HierarchyInstance::build(HierarchySpec::lower(&SystemConfig::hyve())).unwrap();
        for ch in [h.edge(), h.global_vertex(), h.local_vertex().unwrap()] {
            let d = ch.device();
            let c = ch.costs();
            assert_eq!(c.read_latency, d.read_latency());
            assert_eq!(c.write_latency, d.write_latency());
            assert_eq!(c.burst_period, d.burst_period());
            assert_eq!(c.sequential_write_period, d.sequential_write_period());
            assert_eq!(c.output_bits, d.output_bits());
            assert_eq!(c.background_power, d.background_power());
            assert_eq!(c.word_read_latency, d.word_read_latency());
            assert_eq!(c.word_write_latency, d.word_write_latency());
        }
    }

    #[test]
    fn gating_on_volatile_edge_rejected_at_build() {
        let mut spec = HierarchySpec::lower(&SystemConfig::acc_dram());
        spec.power_gating = true;
        assert!(matches!(
            HierarchyInstance::build(spec),
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
    fn spec_display_is_reviewable() {
        let s = HierarchySpec::lower(&SystemConfig::hyve_opt()).to_string();
        assert!(s.contains("acc+HyVE-opt"));
        assert!(s.contains("ReRAM 4 Gbit/chip ×8"));
        assert!(s.contains("DRAM 4 Gbit/chip ×2"));
        assert!(s.contains("SRAM 2 MB"));
        assert!(s.contains("data sharing:  on"));
        assert!(s.contains("power gating:  on"));
        let none = HierarchySpec::lower(&SystemConfig::acc_dram()).to_string();
        assert!(none.contains("none (random off-chip access)"));
    }

    #[test]
    fn active_fault_plan_builds_resilience_without_extra_devices() {
        let mut spec = HierarchySpec::lower(&SystemConfig::hyve_opt());
        spec.faults = FaultPlan::parse("seed=1,reram-ber=1e-5,ecc=secded").unwrap();
        let before = device_constructions();
        let h = HierarchyInstance::build(spec).unwrap();
        assert_eq!(
            device_constructions() - before,
            3,
            "resilience model must not construct devices"
        );
        let model = h.resilience().expect("plan is active");
        assert_eq!(model.edge_chips(), EDGE_CHANNEL_CHIPS);
        assert_eq!(model.edge_banks_per_chip(), 8, "default ReRAM chip banks");
        assert_eq!(model.edge_cell_bits(), 1, "paper settles on SLC");
        // ECC stretches the memoized latencies past the raw device answers.
        let ch = h.edge();
        assert!(ch.costs().read_latency > ch.device().read_latency());
        assert!(ch.costs().background_power > ch.device().background_power());
        assert_eq!(ch.costs().output_bits, ch.device().output_bits());
    }

    #[test]
    fn inert_fault_plan_leaves_no_trace_on_the_instance() {
        let mut spec = HierarchySpec::lower(&SystemConfig::hyve());
        spec.faults = FaultPlan::none().with_seed(123);
        let h = HierarchyInstance::build(spec).unwrap();
        assert!(h.resilience().is_none());
        let c = h.edge().costs();
        assert_eq!(c.read_latency, h.edge().device().read_latency());
    }

    #[test]
    fn invalid_fault_plan_rejected_at_build() {
        let mut spec = HierarchySpec::lower(&SystemConfig::hyve());
        spec.faults.reram_ber = 2.0;
        assert!(matches!(
            HierarchyInstance::build(spec),
            Err(CoreError::InvalidConfig { .. })
        ));
    }
}
