//! Phase-level cost-accounting passes over the memory hierarchy.
//!
//! Each pass models one phase of Algorithm 2 — the edge stream, interval
//! traffic with/without sharing, on-chip access + PU work, router
//! overhead, the random-access fallback, and background power — reading
//! the static [`Workload`] description and writing into the run's
//! [`EnergyBreakdown`]. The engine assembles the pass outputs into
//! [`PhaseTimes`](crate::stats::PhaseTimes) and scales by the functional
//! run's iteration count.
//!
//! **Bit-exactness contract:** the golden-snapshot suite pins every float
//! in a [`RunReport`](crate::stats::RunReport). Float accumulation is
//! order-sensitive, so the order of `record_*` calls *per channel* — and
//! the arithmetic inside each pass — must not be reordered without
//! re-blessing the baselines.

use crate::controller::BankSpareMap;
use crate::exec::BlockPlan;
use crate::hierarchy::{Channel, HierarchyInstance};
use crate::pu::ProcessingUnit;
use crate::router::Router;
use crate::stats::{EnergyBreakdown, ReliabilityReport};
use hyve_algorithms::{EdgeProgram, ExecutionMode};
use hyve_graph::GridGraph;
use hyve_memsim::{
    expected_count, AccessStats, EccProfile, Energy, FaultPlan, FaultRng, Power, Time,
};

/// Banks that can overlap random accesses on a channel.
const BANK_PARALLELISM: f64 = 16.0;

/// Requests the memory controller keeps in flight on a sequential stream,
/// hiding per-access latency behind the data transfer.
const OUTSTANDING_REQUESTS: f64 = 16.0;

/// Static, value-independent description of one run's work: every
/// iteration makes exactly the same memory accesses (§7.1), so the passes
/// only need these scalars plus the hierarchy.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Workload {
    /// Processing units `N`.
    pub n: u32,
    /// Interval partition count `P`.
    pub p: u32,
    /// Super blocks per side, `S = P/N`.
    pub s: u32,
    /// Vertices in the graph.
    pub nv: u64,
    /// Edges in the graph.
    pub ne: u64,
    /// Traversals per edge (2 when the program walks edges undirected).
    pub traversal_factor: u64,
    /// Bits per vertex value.
    pub value_bits: u64,
    /// 32-bit words per vertex value.
    pub words_per_value: u64,
    /// Whether edge work uses the arithmetic (vs. compare) ALU path.
    pub arithmetic: bool,
    /// Whether the program runs an apply pass over resident vertices.
    pub accumulate: bool,
    /// Σ over schedule steps of the step's largest block, in edges.
    pub sync_edges: u64,
    /// Stored edge-array size in bits, including block headers.
    pub edge_bits: u64,
}

impl Workload {
    /// Captures the scalars for one `(program, grid, plan)` run.
    pub(crate) fn for_run<P: EdgeProgram>(
        program: &P,
        grid: &GridGraph,
        plan: &BlockPlan,
        num_pus: u32,
    ) -> Workload {
        let p = grid.num_intervals();
        let value_bits = u64::from(program.value_bits());
        Workload {
            n: num_pus,
            p,
            s: p / num_pus,
            nv: u64::from(grid.num_vertices()),
            ne: grid.num_edges(),
            traversal_factor: if program.undirected() { 2 } else { 1 },
            value_bits,
            words_per_value: value_bits.div_ceil(32).max(1),
            arithmetic: program.arithmetic(),
            accumulate: program.mode() == ExecutionMode::Accumulate,
            sync_edges: plan.sync_edges(),
            edge_bits: grid.edge_storage_bits(),
        }
    }

    /// Edge traversals per iteration.
    pub(crate) fn traversals(&self) -> u64 {
        self.ne * self.traversal_factor
    }
}

/// Per-iteration cost of the sequential scan over the whole edge array.
pub(crate) struct EdgeStream {
    /// Dynamic read energy of one full scan.
    pub energy: Energy,
    /// Streaming time of one full scan.
    pub stream_time: Time,
}

/// Edge-stream pass: the edge-centric model reads *all* edges every
/// iteration (§7.1), one pipelined sequential stream per pass.
pub(crate) fn edge_stream(edge: &Channel, w: &Workload) -> EdgeStream {
    EdgeStream {
        energy: edge.read_energy(w.edge_bits),
        stream_time: edge.sequential_read_time(w.edge_bits),
    }
}

impl EdgeStream {
    /// Records the scan in the edge channel's stats. Called after the
    /// vertex-side passes so the edge stats' accumulation order matches
    /// the report contract.
    pub(crate) fn commit(&self, w: &Workload, breakdown: &mut EnergyBreakdown) {
        breakdown
            .edge_memory
            .record_read(w.edge_bits, self.energy, self.stream_time);
    }
}

/// Phase times produced by the interval-traffic pass.
pub(crate) struct IntervalTraffic {
    /// Time to load source + destination intervals on-chip.
    pub loading: Time,
    /// Time to write destination intervals back.
    pub updating: Time,
}

/// Interval-traffic pass (hierarchies with an on-chip tier).
///
/// With data sharing (Algorithm 2 + router): destination intervals load
/// once and write back once per iteration (Eq. 7); source intervals load
/// once per super block (Eq. 8 ⇒ `Nv·P/N` vertices). Without sharing
/// (Fig. 14's baseline): every step reloads its source interval from
/// off-chip — `Nv·P` source vertices per iteration. Destination intervals
/// stay resident either way.
pub(crate) fn interval_traffic(
    global: &Channel,
    local: &Channel,
    data_sharing: bool,
    w: &Workload,
    breakdown: &mut EnergyBreakdown,
) -> IntervalTraffic {
    let (dst_load_vertices, dst_store_vertices, src_load_vertices) = if data_sharing {
        (w.nv, w.nv, w.nv * u64::from(w.s))
    } else {
        (w.nv, w.nv, w.nv * u64::from(w.p))
    };
    let dst_load_bits = dst_load_vertices * w.value_bits;
    let src_load_bits = src_load_vertices * w.value_bits;
    let interval_loads = if data_sharing {
        u64::from(w.p) + u64::from(w.s * w.s) * u64::from(w.n)
    } else {
        u64::from(w.p) + u64::from(w.s * w.s) * u64::from(w.n) * u64::from(w.n)
    };

    // Off-chip loads stream sequentially; on-chip fills proceed in
    // parallel across PU memories, so the channel is the bottleneck.
    // Chips on the vertex channel stream in parallel (ganged like a DIMM
    // rank), multiplying sequential bandwidth. Interval-load request
    // latencies pipeline behind the stream: the controller keeps many
    // requests outstanding, so latency only shows when it exceeds the
    // streaming time.
    let load_bits = dst_load_bits + src_load_bits;
    let stream = global.sequential_read_time(load_bits / u64::from(global.chips()));
    let latency = global.read_latency() * (interval_loads as f64 / OUTSTANDING_REQUESTS);
    let lt_channel = stream.max(latency);
    let lt_local = local.bulk_transfer_time(load_bits) / f64::from(w.n);
    let loading = lt_channel.max(lt_local);
    breakdown
        .offchip_vertex
        .record_read(load_bits, global.read_energy(load_bits), lt_channel);
    breakdown
        .onchip_vertex
        .record_write(load_bits, local.bulk_write_energy(load_bits), Time::ZERO);

    // Write-back of destination intervals streams at the device's
    // sequential-write rate: burst-pipelined on DRAM, program-pulse-limited
    // on ReRAM — the §3.2 reason HyVE keeps vertices in DRAM.
    let store_bits = dst_store_vertices * w.value_bits;
    let ut_channel = global.write_latency() * f64::from(w.p)
        + global.sequential_write_period()
            * (store_bits.div_ceil(u64::from(global.output_bits() * global.chips()))) as f64;
    breakdown
        .offchip_vertex
        .record_write(store_bits, global.write_energy(store_bits), ut_channel);
    breakdown
        .onchip_vertex
        .record_read(store_bits, local.bulk_read_energy(store_bits), Time::ZERO);
    IntervalTraffic {
        loading,
        updating: ut_channel,
    }
}

/// On-chip access + PU pass: Eq. (1)'s per-edge pipelining (the bottleneck
/// stage among edge supply, source read, destination read+write and the PU
/// sets the period) and the per-edge on-chip/logic energy. Returns the
/// processing time of one iteration.
pub(crate) fn onchip_processing(
    edge: &Channel,
    local: &Channel,
    pu: &ProcessingUnit,
    w: &Workload,
    breakdown: &mut EnergyBreakdown,
) -> Time {
    let edges_per_access = (u64::from(edge.output_bits()) / hyve_graph::Edge::BITS).max(1);
    let edge_supply = edge.burst_period() * (f64::from(w.n) / edges_per_access as f64);
    let src_stage = local.word_read_latency() * w.words_per_value as f64;
    let dst_stage =
        (local.word_read_latency() + local.word_write_latency()) * w.words_per_value as f64;
    let pu_stage = pu.pipelined_period();
    let per_edge =
        edge_supply.max(src_stage).max(dst_stage).max(pu_stage) * w.traversal_factor as f64;

    // Steps synchronise: each step costs the *largest* block in it; the
    // per-step maxima are memoized in the block plan.
    let processing = per_edge * w.sync_edges as f64;

    // Per-edge on-chip + PU energy.
    let traversals = w.traversals();
    let word_read = local.read_energy(32) * w.words_per_value as f64;
    let word_write = local.write_energy(32) * w.words_per_value as f64;
    let per_edge_onchip = word_read * 2.0 + word_write;
    breakdown.onchip_vertex.record_read(
        traversals * w.value_bits * 2,
        per_edge_onchip * traversals as f64,
        Time::ZERO,
    );
    breakdown.logic.record_read(
        0,
        pu.edge_energy(w.arithmetic) * traversals as f64,
        Time::ZERO,
    );

    // Accumulate programs run an apply pass over resident vertices: read
    // accumulator + previous value, write result, one ALU op.
    if w.accumulate {
        let apply_ops = w.nv;
        breakdown.onchip_vertex.record_read(
            apply_ops * w.value_bits * 2,
            (word_read * 2.0 + word_write) * apply_ops as f64,
            Time::ZERO,
        );
        breakdown
            .logic
            .record_read(0, pu.edge_energy(true) * apply_ops as f64, Time::ZERO);
    }
    processing
}

/// Per-iteration router traffic: (32-bit words forwarded between PUs,
/// reroute steps). Shared by [`router_overhead`] and the trace layer so
/// the numbers an observer sees are the numbers the breakdown was charged
/// for.
pub(crate) fn router_traffic(w: &Workload) -> (u64, u64) {
    let steps = u64::from(w.s * w.s) * u64::from(w.n);
    (w.traversals() * w.words_per_value, steps)
}

/// Router pass: reroute per step, hop energy on every shared source read
/// (§4.2). Returns the per-iteration rerouting overhead time.
pub(crate) fn router_overhead(
    router: &Router,
    w: &Workload,
    breakdown: &mut EnergyBreakdown,
) -> Time {
    let (words, steps) = router_traffic(w);
    let hop = router.hop_energy_per_word() * words as f64 + router.reroute_energy() * steps as f64;
    breakdown.logic.record_read(0, hop, Time::ZERO);
    router.reroute_latency() * steps as f64
}

/// Random-access fallback (no on-chip tier): every vertex touch goes
/// straight at the off-chip device, partially hidden by bank-level
/// parallelism. Returns the processing time of one iteration.
pub(crate) fn random_access(
    global: &Channel,
    pu: &ProcessingUnit,
    w: &Workload,
    breakdown: &mut EnergyBreakdown,
) -> Time {
    let traversals = w.traversals();
    let rd = global.random_read_energy(w.value_bits);
    let wr = global.random_write_energy(w.value_bits);
    breakdown.offchip_vertex.record_read(
        traversals * w.value_bits * 2,
        rd * 2.0 * traversals as f64,
        Time::ZERO,
    );
    breakdown.offchip_vertex.record_write(
        traversals * w.value_bits,
        wr * traversals as f64,
        Time::ZERO,
    );
    breakdown.logic.record_read(
        0,
        pu.edge_energy(w.arithmetic) * traversals as f64,
        Time::ZERO,
    );

    // Three random vertex accesses per edge, overlapped across banks.
    let per_edge_latency =
        (global.read_latency() * 2.0 + global.write_latency()) / BANK_PARALLELISM;
    let per_edge = per_edge_latency.max(pu.pipelined_period()) * w.traversal_factor as f64;
    per_edge * w.ne as f64
}

/// Output of the reliability pass: the run's reliability report plus the
/// serially-exposed time (corrections, retry backoff, remap re-streams)
/// the engine adds to the overhead phase and the total runtime.
pub(crate) struct ReliabilityOutcome {
    /// Time exposed serially on top of the fault-free schedule.
    pub exposed_time: Time,
    /// Corrections / retries / remaps for the report and the trace layer.
    pub report: ReliabilityReport,
}

/// Detect→retry ECC escalation over one channel's run-total traffic.
///
/// Charges the syndrome-decode energy on every protected access, the
/// correction energy/latency on corrected errors, and bounded re-reads
/// with linear backoff on detectable-uncorrectable ones. Without ECC, raw
/// errors are *silent*: nothing is observed, nothing is charged.
fn channel_escalation(
    ch: &Channel,
    stats: &mut AccessStats,
    plan: &FaultPlan,
    rng: &mut FaultRng,
    report: &mut ReliabilityReport,
) -> Time {
    let word_bits = ch.output_bits();
    let ecc = plan.ecc;
    if ecc == EccProfile::None {
        return Time::ZERO;
    }
    // The syndrome pipeline checks every access; the channel's latencies
    // already include it, its energy is charged here.
    let ber = ch.raw_ber(plan);
    let accesses = stats.reads + stats.writes;
    stats.dynamic_energy += ecc.detect_energy(word_bits) * accesses as f64;
    if ber <= 0.0 {
        return Time::ZERO;
    }

    let bits = stats.bits_read + stats.bits_written;
    let expected_errors = bits as f64 * ber;
    let expected_due = ecc.uncorrectable_expected(expected_errors, ber, word_bits);
    let due = expected_count(expected_due, rng);
    let corrected = expected_count(expected_errors, rng).saturating_sub(due);

    // Correctable: decode + flip, exposed serially on the access path.
    stats.dynamic_energy += ecc.correct_energy(word_bits) * corrected as f64;
    let mut exposed = ecc.correct_latency() * corrected as f64;

    // Detectable-uncorrectable: each event is re-read up to the retry
    // budget with linearly growing backoff (attempt k waits k access
    // latencies). Events beyond the sampling cap extrapolate at the
    // sampled mean so huge error counts stay O(cap) — and deterministic.
    const EVENT_CAP: u64 = 10_000;
    let sampled = due.min(EVENT_CAP);
    let mut retries = 0u64;
    let mut backoff_units = 0u64;
    for _ in 0..sampled {
        let attempts = 1 + rng.below(u64::from(plan.max_retries));
        retries += attempts;
        backoff_units += attempts * (attempts + 1) / 2;
    }
    if due > sampled && sampled > 0 {
        retries += (retries / sampled) * (due - sampled);
        backoff_units += (backoff_units / sampled) * (due - sampled);
    }
    stats.reads += retries;
    stats.bits_read += retries * u64::from(word_bits);
    stats.dynamic_energy += ch.read_energy(u64::from(word_bits)) * retries as f64;
    let retry_time = ch.read_latency() * backoff_units as f64;
    stats.busy_time += retry_time;
    exposed += retry_time;

    report.corrected += corrected;
    report.uncorrectable += due;
    report.retries += retries;
    exposed
}

/// Reliability pass: interprets the session's [`FaultPlan`] against the
/// run's total traffic, charging ECC corrections, retry backoff and bank
/// sparing into the breakdown.
///
/// Runs once per run, single-threaded, after
/// [`EnergyBreakdown::scale_by_iterations`] (so the counters are run
/// totals) and before [`background`] (so the exposed time extends the
/// leakage window). All randomness comes from the plan's seed, consumed in
/// a fixed channel order — outcomes are identical across execution
/// strategies and thread counts by construction.
pub(crate) fn reliability(
    plan: &FaultPlan,
    hierarchy: &HierarchyInstance,
    w: &Workload,
    iterations: u32,
    breakdown: &mut EnergyBreakdown,
) -> ReliabilityOutcome {
    let mut rng = FaultRng::new(plan.seed);
    let mut report = ReliabilityReport::default();
    let mut exposed = Time::ZERO;

    // Detect→retry, per channel in fixed breakdown order.
    exposed += channel_escalation(
        hierarchy.edge(),
        &mut breakdown.edge_memory,
        plan,
        &mut rng,
        &mut report,
    );
    exposed += channel_escalation(
        hierarchy.global_vertex(),
        &mut breakdown.offchip_vertex,
        plan,
        &mut rng,
        &mut report,
    );
    if let Some(local) = hierarchy.local_vertex() {
        exposed += channel_escalation(
            local,
            &mut breakdown.onchip_vertex,
            plan,
            &mut rng,
            &mut report,
        );
    }

    // Remap: persistent edge-bank faults — factory-stuck banks plus banks
    // whose endurance budget the run's scan count exhausted — are spared
    // so the run completes degraded instead of aborting.
    let edge = hierarchy.edge();
    let mut spares = BankSpareMap::new(edge.chips(), edge.banks_per_chip());
    let banks_per_chip = u64::from(edge.banks_per_chip());
    let data_banks =
        (u64::from(edge.chips()) * banks_per_chip).saturating_sub(spares.spare_banks());
    let mut persistent: Vec<(u32, u32)> = plan.stuck_banks.clone();
    if let Some(limit) = plan.wear_limit {
        // Process variation: each bank's endurance is a seed-deterministic
        // draw in [0.5, 1.5) × the nominal limit; banks the run's scans
        // outlived go persistent.
        for linear in 0..data_banks {
            let endurance = ((limit as f64 * (0.5 + rng.next_f64())) as u64).max(1);
            if u64::from(iterations) >= endurance {
                persistent.push((
                    (linear / banks_per_chip) as u32,
                    (linear % banks_per_chip) as u32,
                ));
            }
        }
    }
    for (chip, bank) in persistent {
        spares.remap(chip, bank);
    }

    // Each remapped bank's share of the edge array now streams from its
    // spare — extra transfers every iteration, charged to the edge channel.
    let remapped = spares.remaps().len() as u64;
    if remapped > 0 {
        let share_bits = (w.edge_bits / data_banks.max(1)).max(1);
        let extra_bits = share_bits * remapped * u64::from(iterations);
        let extra_time = edge.sequential_read_time(extra_bits);
        breakdown
            .edge_memory
            .record_read(extra_bits, edge.read_energy(extra_bits), extra_time);
        exposed += extra_time;
    }

    report.remaps = spares.remaps().to_vec();
    report.spare_banks = spares.spare_banks();
    report.unspared = spares.unspared();
    report.degraded_fraction = spares.degraded_fraction();

    ReliabilityOutcome {
        exposed_time: exposed,
        report,
    }
}

/// Background pass: leakage/refresh over the whole run. The edge channel
/// is gated when the hierarchy carries a power-gating controller (§4.1);
/// the vertex channel stays powered (random/bursty traffic).
pub(crate) fn background(
    hierarchy: &HierarchyInstance,
    pu: &ProcessingUnit,
    total_time: Time,
    iterations: u32,
    w: &Workload,
    breakdown: &mut EnergyBreakdown,
) {
    let edge = hierarchy.edge();
    let edge_bg = match hierarchy.gating() {
        Some(gating) => gating.background_energy(total_time, w.edge_bits, iterations),
        None => edge.background_power() * f64::from(edge.chips()) * total_time,
    };
    breakdown.edge_memory.record_background(edge_bg);

    let global = hierarchy.global_vertex();
    breakdown
        .offchip_vertex
        .record_background(global.background_power() * f64::from(global.chips()) * total_time);
    if let Some(local) = hierarchy.local_vertex() {
        breakdown
            .onchip_vertex
            .record_background(local.background_power() * total_time);
    }
    let logic_power = pu.leakage() * f64::from(w.n)
        + hierarchy.router().map_or(Power::ZERO, Router::leakage)
        + hierarchy.controller_power();
    breakdown.logic.record_background(logic_power * total_time);
}
