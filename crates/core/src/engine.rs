//! The HyVE execution engine: a deterministic phase-level simulator of
//! Algorithm 2 over the interval-block grid.
//!
//! The engine does two jobs at once:
//!
//! 1. **Functional execution** — runs the [`EdgeProgram`] over the grid in
//!    Algorithm 2's block order (super blocks scanned vertically, round-robin
//!    steps inside each), producing real vertex values validated against the
//!    sequential references.
//! 2. **Cost accounting** — every iteration makes exactly the same memory
//!    accesses regardless of values (the edge-centric model streams *all*
//!    edges every iteration, §7.1), so per-iteration energy/time is computed
//!    from the grid's static structure using the device models, then scaled
//!    by the iteration count the functional run produced. Per-edge time uses
//!    Eq. (1)'s pipelining: the bottleneck stage among edge supply, local
//!    vertex access and the processing unit sets the period.
//!
//! ## Scheduling (paper Algorithm 2 / Fig. 7)
//!
//! With `P` intervals and `N` PUs, the grid decomposes into `(P/N)²` *super
//! blocks* of `N×N` blocks. Destination intervals load once per super-block
//! column; source intervals load once per super block when data sharing is
//! on (each PU then reads other PUs' source memories through the router,
//! round-robin across `N` steps) and once per *step* when it is off.

use crate::accounting::{self, Workload};
use crate::error::CoreError;
use crate::exec::{fan_out_mut, BlockPlan};
use crate::schedule::SuperBlockSchedule;
use crate::session::SimulationSession;
use crate::stats::{EnergyBreakdown, PhaseTimes, RunReport};
use crate::trace::{TraceChannel, TraceEvent};
use hyve_algorithms::{registers_change, EdgeProgram, ExecutionMode, GraphMeta, IterationBound};
use hyve_graph::{GraphError, GridGraph, VertexId};
use hyve_memsim::Time;

/// Cost of the one-shot preprocessing step: writing the partitioned edge
/// data into the edge memory and the initial vertex values into the global
/// vertex memory (§3.1: "during the algorithm initialization, the edge data
/// go through a one-shot preprocessing step and are written into the
/// memory"). Excluded from steady-state run reports, matching the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessingReport {
    /// Edge data written (bits), including block headers.
    pub edge_bits: u64,
    /// Initial vertex data written (bits).
    pub vertex_bits: u64,
    /// Total write energy.
    pub energy: hyve_memsim::Energy,
    /// Total write time (sequential stream).
    pub time: Time,
}

/// One PU's reusable per-run working memory, threaded through
/// [`fan_out_mut`] each iteration so the hot loop never allocates.
struct PuScratch<V> {
    /// Monotone: the PU's working copy of the snapshot. Accumulate: the
    /// PU's message accumulator.
    values: Vec<V>,
    /// Monotone only: which intervals this PU wrote earlier in the current
    /// pass (within-pass propagation makes a globally-clean interval
    /// locally dirty, which must veto skipping).
    touched: Vec<bool>,
    /// Whether `values` holds live data for the current iteration. False
    /// when every block was skipped and the lazy snapshot copy was
    /// elided; the reduce ignores inactive PUs.
    active: bool,
    /// Non-empty blocks this PU walked in the current iteration. Always
    /// maintained (two `u64` writes per block); only *read* when a trace
    /// sink is attached.
    blocks_processed: u64,
    /// Non-empty blocks this PU elided via dirty-interval skipping.
    blocks_skipped: u64,
}

/// Algorithm 2 itself: the session runs it over the memory hierarchy it
/// built once at [`build`](crate::SessionBuilder::build) time.
impl SimulationSession {
    /// Picks the interval count `P` for a graph: the smallest multiple of
    /// the PU count such that `2·N` intervals (N source + N destination
    /// sections) fit in on-chip memory. Configurations without on-chip
    /// vertex memory use `P = N` (scheduling granularity only).
    pub fn plan_intervals<P: EdgeProgram>(&self, program: &P, num_vertices: u32) -> u32 {
        let n = self.config.num_pus;
        let Some(sram_mb) = self.config.sram_mb else {
            return n.min(num_vertices.max(1));
        };
        let state_words = match program.mode() {
            // Accumulate programs keep value + accumulator resident.
            ExecutionMode::Accumulate => 2u64,
            ExecutionMode::Monotone => 1u64,
        };
        let bytes_per_vertex = (u64::from(program.value_bits()).div_ceil(8)).max(1) * state_words;
        // Effective capacity: the physical SRAM shrunk by the dataset scale,
        // so the vertex-data : SRAM ratio matches the full-size experiment.
        let sram_bytes = (sram_mb * 1024 * 1024 / u64::from(self.config.dataset_scale)).max(1);
        let needed = 2 * u64::from(n) * u64::from(num_vertices) * bytes_per_vertex;
        let min_p = needed.div_ceil(sram_bytes).max(1) as u32;
        // Round up to a multiple of N, cap at the vertex count.
        let p = min_p.div_ceil(n) * n;
        p.min(num_vertices.max(1)).max(1)
    }

    /// Runs over an existing grid, returning the report and the final
    /// vertex values. Any thread count yields output bit-identical to the
    /// sequential path: per-PU outcomes are pure functions of the
    /// iteration-start snapshot and reduce in fixed PU order (see
    /// [`crate::exec`]).
    ///
    /// An attached trace sink is observation-only: every emitted
    /// [`TraceEvent`] copies values this function computed anyway, so
    /// reports and values are bit-identical with or without one (the
    /// golden suite pins this).
    ///
    /// # Errors
    ///
    /// [`CoreError::Unschedulable`] when the grid's interval count is below
    /// the PU count or not divisible by it;
    /// [`CoreError::Graph`] with [`GraphError::VertexOutOfRange`] when the
    /// grid stores an edge to a vertex past its count (a
    /// [`DynamicGrid`](hyve_graph::DynamicGrid) snapshot after edges to
    /// newly added vertices);
    /// [`CoreError::MaxIterationsExceeded`] (carrying the partial report)
    /// when a converge-bound program is still changing values at its
    /// iteration cap.
    pub fn run_with_values<P: EdgeProgram>(
        &self,
        program: &P,
        grid: &GridGraph,
    ) -> Result<(RunReport, Vec<P::Value>), CoreError> {
        let n = self.config.num_pus;
        let p = grid.num_intervals();
        let schedule = SuperBlockSchedule::new(p, n)?;
        // A dynamic snapshot may store edges at reserved vertex slots past
        // its vertex count; its out-degree table then runs past it too.
        let named = grid.out_degrees().len();
        if named > grid.num_vertices() as usize {
            return Err(CoreError::Graph(GraphError::VertexOutOfRange {
                vertex: named as u32 - 1,
                num_vertices: grid.num_vertices(),
            }));
        }
        // The per-run artifacts (block plan, out-degrees) derive from the
        // grid's block index and degree table once per run instead of
        // per-iteration rescans.
        let plan = BlockPlan::build(grid, &schedule);
        let meta = GraphMeta {
            num_vertices: grid.num_vertices(),
            num_edges: grid.num_edges(),
            out_degrees: grid.out_degrees().to_vec(),
        };

        let sink = self.sink.as_ref();
        if let Some(sink) = sink {
            sink.record(&TraceEvent::RunStart {
                algorithm: program.name().to_string(),
                config: self.config.name.to_string(),
                num_vertices: grid.num_vertices(),
                num_edges: grid.num_edges(),
                intervals: p,
                num_pus: n,
            });
        }

        // ---- functional pass -------------------------------------------
        let (values, iterations, last_changed) = self.functional_run(program, grid, &meta, &plan);

        // ---- cost pass --------------------------------------------------
        let w = Workload::for_run(program, grid, &plan, self.config.num_pus);
        let report = self.account(program, iterations, &w);

        if let Some(sink) = sink {
            sink.record(&TraceEvent::Phases {
                phases: report.phases,
            });
            let b = &report.breakdown;
            for (channel, stats) in [
                (TraceChannel::EdgeMemory, b.edge_memory),
                (TraceChannel::OffchipVertex, b.offchip_vertex),
                (TraceChannel::OnchipVertex, b.onchip_vertex),
                (TraceChannel::Logic, b.logic),
            ] {
                sink.record(&TraceEvent::ChannelLedger { channel, stats });
            }
            if let Some(gating) = self.hierarchy.gating() {
                sink.record(&TraceEvent::GatingTransitions {
                    transitions: gating.transitions(w.edge_bits, iterations),
                });
            }
            if self.hierarchy.router().is_some() {
                let (words, reroutes) = accounting::router_traffic(&w);
                let iters = u64::from(iterations);
                sink.record(&TraceEvent::RouterTraffic {
                    words: words * iters,
                    reroutes: reroutes * iters,
                });
            }
            if let Some(rel) = &report.reliability {
                sink.record(&TraceEvent::Reliability {
                    corrected: rel.corrected,
                    uncorrectable: rel.uncorrectable,
                    retries: rel.retries,
                });
                for r in &rel.remaps {
                    sink.record(&TraceEvent::BankRemap {
                        chip: r.chip,
                        bank: r.bank,
                        spare_chip: r.spare_chip,
                        spare_bank: r.spare_bank,
                    });
                }
            }
            sink.record(&TraceEvent::RunEnd {
                iterations: report.iterations,
                edges_processed: report.edges_processed,
            });
        }

        // A converge-bound program that was still changing values when it
        // hit its cap did not finish its job: surface that as a typed error
        // carrying the partial report (the trace artifact above is complete
        // either way, so observers see the capped run).
        if let IterationBound::Converge { max } = program.bound() {
            if iterations >= max && last_changed {
                return Err(CoreError::MaxIterationsExceeded {
                    algorithm: program.name(),
                    max_iterations: max,
                    report: Box::new(report),
                });
            }
        }
        Ok((report, values))
    }

    /// Cost of the one-shot initialization write (§3.1). ReRAM's limited
    /// write bandwidth makes this slower than on DRAM, but it happens once:
    /// steady-state execution never writes the edge memory again.
    pub fn preprocessing_report<P: EdgeProgram>(
        &self,
        program: &P,
        grid: &GridGraph,
    ) -> PreprocessingReport {
        let edge_mem = self.hierarchy.edge();
        let vertex_mem = self.hierarchy.global_vertex();
        let edge_bits = grid.edge_storage_bits();
        let vertex_bits = grid.vertex_storage_bits(u64::from(program.value_bits()));
        let edge_accesses = edge_bits.div_ceil(u64::from(edge_mem.output_bits())).max(1);
        let vertex_accesses = vertex_bits
            .div_ceil(u64::from(vertex_mem.output_bits()))
            .max(1);
        let energy = edge_mem.write_energy(edge_bits) + vertex_mem.write_energy(vertex_bits);
        let time = edge_mem.write_latency() * edge_accesses as f64
            + vertex_mem.write_latency() * vertex_accesses as f64;
        PreprocessingReport {
            edge_bits,
            vertex_bits,
            energy,
            time,
        }
    }

    /// Executes the program over the flattened grid, one snapshot-based
    /// pass per iteration. Returns the final values, the iteration count
    /// and whether the last iteration changed any value.
    ///
    /// Each PU walks its own blocks (in schedule order) against the
    /// iteration-start snapshot — accumulate programs into a per-PU
    /// accumulator, monotone programs into a per-PU working copy that sees
    /// the PU's *own* earlier writes. The per-PU outcomes then reduce into
    /// the global values in **fixed PU order** via [`EdgeProgram::merge`],
    /// so the result is a pure function of `(program, grid, schedule)` and
    /// is bit-identical for every [`ExecutionStrategy`]. Monotone merges are
    /// semilattice joins (min for BFS/CC/SSSP), so the reduction preserves
    /// monotonicity and converges to the same fixpoint as the references.
    ///
    /// ## Scratch reuse
    ///
    /// Each PU owns one [`PuScratch`] for the whole run, lent back to it
    /// every iteration through [`fan_out_mut`]: accumulate mode refills it
    /// with the identity instead of re-allocating, monotone mode copies the
    /// snapshot into it instead of cloning — and only lazily, on the first
    /// block the PU actually processes, so a fully-skipped PU costs nothing
    /// and is ignored by the reduce (merging a PU whose local values equal
    /// the snapshot is a no-op, since the join is idempotent).
    ///
    /// ## Dirty-interval skipping (monotone only)
    ///
    /// A block `(I, J)` may be skipped in iteration `k` when interval `I`
    /// is *clean* — no vertex of `I` changed in iteration `k-1`'s reduce —
    /// and the PU has not touched `I` itself earlier in this pass (for
    /// undirected programs the same must hold for `J`, which also acts as a
    /// message source). A clean, untouched interval holds exactly the
    /// values it held at the same point of iteration `k-1`, so the skipped
    /// block would re-send precisely the messages it sent then — messages
    /// the destination already absorbed, and absorbing a message twice is a
    /// no-op for an idempotent join. Values, per-iteration `changed` flags,
    /// iteration counts and therefore [`RunReport`]s are bit-identical with
    /// the skip on or off (the cost pass charges full sweeps per §7.1
    /// regardless — accounting is untouched by design; see the proptest
    /// equivalence suite and DESIGN.md for the full argument).
    fn functional_run<P: EdgeProgram>(
        &self,
        program: &P,
        grid: &GridGraph,
        meta: &GraphMeta,
        plan: &BlockPlan,
    ) -> (Vec<P::Value>, u32, bool) {
        let (strategy, skip_clean) = (self.strategy, self.dirty_skipping);
        let edges = grid.flat();
        let nv = meta.num_vertices as usize;
        let p = grid.num_intervals() as usize;
        let partition = grid.partition_info();
        let mut values: Vec<P::Value> = (0..meta.num_vertices)
            .map(|v| program.init(VertexId::new(v), meta))
            .collect();
        let bound = program.bound();
        let mode = program.mode();
        let undirected = program.undirected();
        let mut iterations = 0;
        let mut last_changed = false;

        let mut scratch: Vec<PuScratch<P::Value>> = (0..plan.num_pus())
            .map(|_| PuScratch {
                values: vec![program.identity(); nv],
                touched: vec![false; p],
                active: false,
                blocks_processed: 0,
                blocks_skipped: 0,
            })
            .collect();
        // Iteration 1 scans every block — unless the program guarantees
        // identity-valued sources scatter only absorbed messages, in which
        // case only the intervals seeded away from the identity (the source
        // interval, for BFS/SSSP) start dirty and the first sweep is almost
        // free. The plain `!=` is deliberate: a NaN init value compares
        // unequal to everything and therefore conservatively stays dirty.
        let mut dirty = vec![true; p];
        if matches!(mode, ExecutionMode::Monotone) && program.scatter_absorbs_identity() {
            let identity = program.identity();
            dirty.fill(false);
            for (v, value) in values.iter().enumerate() {
                if *value != identity {
                    dirty[partition.interval_of(VertexId::new(v as u32)) as usize] = true;
                }
            }
        }
        let mut dirty_next = vec![false; p];

        for _ in 0..bound.max_iterations() {
            iterations += 1;
            // Fan the per-PU block work out; each worker reads only the
            // iteration-start snapshot plus its own scratch.
            let snapshot = &values;
            let dirty_now = &dirty;
            fan_out_mut(strategy, &mut scratch, |pu, scratch| match mode {
                ExecutionMode::Accumulate => {
                    scratch.active = true;
                    // Accumulate mode walks every non-empty block
                    // unconditionally.
                    scratch.blocks_processed = plan.blocks(pu).len() as u64;
                    scratch.blocks_skipped = 0;
                    scratch.values.fill(program.identity());
                    let acc = &mut scratch.values;
                    for &b in plan.blocks(pu) {
                        for &e in &edges[grid.block(b as usize).1] {
                            let msg = program.scatter(snapshot[e.src.index()], &e, meta);
                            acc[e.dst.index()] = program.merge(acc[e.dst.index()], msg);
                            if undirected {
                                let msg =
                                    program.scatter(snapshot[e.dst.index()], &e.reversed(), meta);
                                acc[e.src.index()] = program.merge(acc[e.src.index()], msg);
                            }
                        }
                    }
                }
                ExecutionMode::Monotone => {
                    scratch.active = false;
                    scratch.blocks_processed = 0;
                    scratch.blocks_skipped = 0;
                    scratch.touched.fill(false);
                    for &b in plan.blocks(pu) {
                        let (id, range) = grid.block(b as usize);
                        let (si, di) = (id.src as usize, id.dst as usize);
                        let src_clean = !dirty_now[si] && !scratch.touched[si];
                        let clean =
                            src_clean && (!undirected || (!dirty_now[di] && !scratch.touched[di]));
                        if skip_clean && clean {
                            scratch.blocks_skipped += 1;
                            continue;
                        }
                        scratch.blocks_processed += 1;
                        if !scratch.active {
                            // Lazy snapshot copy: deferred past skipped
                            // blocks so a quiescent PU never pays it.
                            scratch.values.copy_from_slice(snapshot);
                            scratch.active = true;
                        }
                        let local = &mut scratch.values;
                        for &e in &edges[range] {
                            let msg = program.scatter(local[e.src.index()], &e, meta);
                            let cur = local[e.dst.index()];
                            let merged = program.merge(cur, msg);
                            if registers_change(&cur, &merged) {
                                local[e.dst.index()] = merged;
                                scratch.touched[di] = true;
                            }
                            if undirected {
                                let msg =
                                    program.scatter(local[e.dst.index()], &e.reversed(), meta);
                                let cur = local[e.src.index()];
                                let merged = program.merge(cur, msg);
                                if registers_change(&cur, &merged) {
                                    local[e.src.index()] = merged;
                                    scratch.touched[si] = true;
                                }
                            }
                        }
                    }
                }
            });

            // Reduce in fixed PU order — the determinism anchor.
            let mut changed = false;
            dirty_next.fill(false);
            match mode {
                ExecutionMode::Accumulate => {
                    let (first, rest) = scratch.split_at_mut(1);
                    let total = &mut first[0].values;
                    for acc in rest.iter() {
                        for (t, a) in total.iter_mut().zip(&acc.values) {
                            *t = program.merge(*t, *a);
                        }
                    }
                    for v in 0..nv {
                        let new = program.apply(VertexId::new(v as u32), total[v], values[v], meta);
                        if registers_change(&values[v], &new) {
                            changed = true;
                        }
                        values[v] = new;
                    }
                }
                ExecutionMode::Monotone => {
                    // A PU's local values differ from the snapshot only in
                    // intervals it touched (every local write is gated on a
                    // registered change), and joining a value the global
                    // state already absorbed is a no-op — so merging only
                    // the touched intervals is exact, not an approximation.
                    for local in scratch.iter().filter(|s| s.active) {
                        for (i, _) in local.touched.iter().enumerate().filter(|(_, t)| **t) {
                            for v in partition.interval_vertices(i as u32) {
                                let vi = v as usize;
                                let cur = values[vi];
                                let merged = program.merge(cur, local.values[vi]);
                                if registers_change(&cur, &merged) {
                                    values[vi] = merged;
                                    changed = true;
                                    dirty_next[i] = true;
                                }
                            }
                        }
                    }
                }
            }
            last_changed = changed;
            if let Some(sink) = &self.sink {
                sink.record(&TraceEvent::IterationEnd {
                    iteration: iterations,
                    changed,
                    blocks_processed: scratch.iter().map(|s| s.blocks_processed).sum(),
                    blocks_skipped: scratch.iter().map(|s| s.blocks_skipped).sum(),
                });
            }
            std::mem::swap(&mut dirty, &mut dirty_next);
            if matches!(bound, IterationBound::Converge { .. }) && !changed {
                break;
            }
        }
        (values, iterations, last_changed)
    }

    /// Computes the full energy/time report for `iterations` identical
    /// passes over the grid, by orchestrating the phase-level passes in
    /// [`crate::accounting`] over the session's [`HierarchyInstance`].
    ///
    /// Every iteration makes exactly the same accesses (§7.1), so the
    /// passes run once and the breakdown scales by the iteration count the
    /// functional run produced.
    fn account<P: EdgeProgram>(&self, program: &P, iterations: u32, w: &Workload) -> RunReport {
        let hierarchy = &self.hierarchy;
        let w = *w;
        let mut breakdown = EnergyBreakdown::default();

        let edge = accounting::edge_stream(hierarchy.edge(), &w);
        let (loading_time, updating_time, processing_time, overhead_time) =
            match hierarchy.local_vertex() {
                Some(local) => {
                    let traffic = accounting::interval_traffic(
                        hierarchy.global_vertex(),
                        local,
                        hierarchy.router().is_some(),
                        &w,
                        &mut breakdown,
                    );
                    let processing = accounting::onchip_processing(
                        hierarchy.edge(),
                        local,
                        &self.pu,
                        &w,
                        &mut breakdown,
                    );
                    let overhead = match hierarchy.router() {
                        Some(router) => accounting::router_overhead(router, &w, &mut breakdown),
                        None => Time::ZERO,
                    };
                    (traffic.loading, traffic.updating, processing, overhead)
                }
                None => {
                    // No on-chip tier: every vertex touch is a random access
                    // straight at the off-chip device.
                    let processing = accounting::random_access(
                        hierarchy.global_vertex(),
                        &self.pu,
                        &w,
                        &mut breakdown,
                    );
                    (Time::ZERO, Time::ZERO, processing, Time::ZERO)
                }
            };
        edge.commit(&w, &mut breakdown);

        // ---- iteration time & scaling ------------------------------------
        // Loading is double-buffered against processing: the controller
        // prefetches the next intervals while PUs process the current ones,
        // so only the non-overlapped remainder extends the iteration.
        let busy = processing_time.max(edge.stream_time);
        let exposed_loading = (loading_time - busy).max(Time::ZERO);
        let iteration_time = exposed_loading + busy + updating_time + overhead_time;
        let iters = f64::from(iterations);
        let mut phases = PhaseTimes {
            loading: exposed_loading * iters,
            processing: busy * iters,
            updating: updating_time * iters,
            overhead: overhead_time * iters,
        };
        breakdown.scale_by_iterations(iterations);

        let mut total_time = iteration_time * iters;
        // Reliability pass (only when the session's fault plan is active):
        // interprets the plan against the run-total counters, single-threaded
        // from the plan's seed — outcomes are identical across execution
        // strategies by construction. Corrections, retry backoff and remap
        // re-streams expose serially, extending overhead and the leakage
        // window.
        let reliability = hierarchy.faults().map(|plan| {
            let outcome = accounting::reliability(plan, hierarchy, &w, iterations, &mut breakdown);
            phases.overhead += outcome.exposed_time;
            total_time += outcome.exposed_time;
            outcome.report
        });
        accounting::background(
            hierarchy,
            &self.pu,
            total_time,
            iterations,
            &w,
            &mut breakdown,
        );

        RunReport {
            algorithm: program.name(),
            config: self.config.name,
            iterations,
            edges_processed: w.ne * w.traversal_factor * u64::from(iterations),
            intervals: w.p,
            phases,
            breakdown,
            reliability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::exec::ExecutionStrategy;
    use crate::trace::SharedRecorder;
    use hyve_algorithms::{reference, Bfs, ConnectedComponents, PageRank, SpMv, Sssp};
    use hyve_graph::{Csr, DatasetProfile, Edge, EdgeList};
    use hyve_memsim::FaultPlan;

    fn small_graph() -> EdgeList {
        DatasetProfile::youtube_scaled().generate(11)
    }

    /// Test shorthand: a sequential, untraced, fault-free session.
    fn session_for(cfg: SystemConfig) -> SimulationSession {
        SimulationSession::builder(cfg).build().unwrap()
    }

    fn faulty_session(cfg: SystemConfig, plan: FaultPlan) -> SimulationSession {
        SimulationSession::builder(cfg)
            .with_faults(plan)
            .build()
            .unwrap()
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve_opt());
        let (_, values) = session
            .run_on_edge_list_with_values(&PageRank::new(5), &g)
            .unwrap();
        let csr = Csr::from_edge_list(&g);
        let expect = reference::pagerank(&csr, 5, 0.85);
        for (a, b) in values.iter().zip(expect.iter()) {
            assert!((a - b).abs() <= 1e-5 * b.abs().max(1e-6), "{a} vs {b}");
        }
    }

    #[test]
    fn bfs_matches_reference() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve());
        let src = VertexId::new(0);
        let (_, values) = session
            .run_on_edge_list_with_values(&Bfs::new(src), &g)
            .unwrap();
        let csr = Csr::from_edge_list(&g);
        assert_eq!(values, reference::bfs_levels(&csr, src));
    }

    #[test]
    fn cc_matches_reference() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve_opt());
        let (_, values) = session
            .run_on_edge_list_with_values(&ConnectedComponents::new(), &g)
            .unwrap();
        assert_eq!(values, reference::connected_components(&g));
    }

    #[test]
    fn sssp_matches_reference() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve_opt());
        let src = VertexId::new(1);
        let (_, values) = session
            .run_on_edge_list_with_values(&Sssp::new(src), &g)
            .unwrap();
        let csr = Csr::from_edge_list(&g);
        let expect = reference::sssp_distances(&csr, src);
        for (a, b) in values.iter().zip(expect.iter()) {
            if b.is_infinite() {
                assert!(a.is_infinite());
            } else {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn spmv_matches_reference() {
        let g = small_graph();
        let session = session_for(SystemConfig::acc_sram_dram());
        let spmv = SpMv::new();
        let (_, values) = session.run_on_edge_list_with_values(&spmv, &g).unwrap();
        let x: Vec<f32> = (0..g.num_vertices())
            .map(|v| spmv.input(VertexId::new(v)))
            .collect();
        let expect = reference::spmv(&g, &x);
        for (a, b) in values.iter().zip(expect.iter()) {
            assert!((a - b).abs() <= 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn all_configs_run_pagerank() {
        let g = small_graph();
        for cfg in [
            SystemConfig::acc_dram(),
            SystemConfig::acc_reram(),
            SystemConfig::acc_sram_dram(),
            SystemConfig::hyve(),
            SystemConfig::hyve_opt(),
        ] {
            let session = session_for(cfg);
            let report = session.run_on_edge_list(&PageRank::new(3), &g).unwrap();
            assert!(report.energy().as_pj() > 0.0, "{}", report.config);
            assert!(report.elapsed().as_ns() > 0.0);
            assert!(report.mteps_per_watt() > 0.0);
        }
    }

    #[test]
    fn hyve_beats_conventional_hierarchies_on_energy_efficiency() {
        // The headline Fig. 16 ordering.
        let g = small_graph();
        let eff = |cfg: SystemConfig| {
            session_for(cfg)
                .run_on_edge_list(&PageRank::new(5), &g)
                .unwrap()
                .mteps_per_watt()
        };
        let dram = eff(SystemConfig::acc_dram());
        let sd = eff(SystemConfig::acc_sram_dram());
        let hyve = eff(SystemConfig::hyve());
        let opt = eff(SystemConfig::hyve_opt());
        assert!(hyve > sd, "HyVE {hyve} must beat SD {sd}");
        assert!(sd > dram, "SD {sd} must beat acc+DRAM {dram}");
        assert!(opt > hyve, "optimizations must help: {opt} vs {hyve}");
    }

    #[test]
    fn data_sharing_reduces_offchip_reads() {
        let g = small_graph();
        let base = session_for(SystemConfig::hyve().with_data_sharing(false))
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        let shared = session_for(SystemConfig::hyve())
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        assert!(
            shared.breakdown.offchip_vertex.bits_read < base.breakdown.offchip_vertex.bits_read
        );
    }

    #[test]
    fn power_gating_cuts_edge_background() {
        let g = small_graph();
        let base = session_for(SystemConfig::hyve())
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        let gated = session_for(SystemConfig::hyve().with_power_gating(true))
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        assert!(
            gated.breakdown.edge_memory.background_energy
                < base.breakdown.edge_memory.background_energy * 0.5
        );
    }

    #[test]
    fn interval_planning_respects_sram() {
        // Use scale 1 so the arithmetic is direct: 2 MB SRAM, PR needs
        // 16 bytes/vertex resident (64-bit value × 2 states);
        // 2·8·nv·16 ≤ 2 MB ⇒ nv ≤ 8192 for P = 8.
        let session = session_for(SystemConfig::hyve_opt().with_dataset_scale(1));
        let pr = PageRank::new(1);
        assert_eq!(session.plan_intervals(&pr, 8_000), 8);
        let p = session.plan_intervals(&pr, 100_000);
        assert!(p > 8 && p.is_multiple_of(8), "got {p}");
        // The dataset scale shrinks the effective SRAM, raising P.
        let scaled = session_for(SystemConfig::hyve_opt().with_dataset_scale(64));
        assert!(scaled.plan_intervals(&pr, 8_000) > 8);
        // No SRAM: P = N.
        let raw = session_for(SystemConfig::acc_dram());
        assert_eq!(raw.plan_intervals(&pr, 100_000), 8);
    }

    #[test]
    fn run_rejects_mismatched_grid() {
        let g = small_graph();
        let grid = GridGraph::partition(&g, 3).unwrap(); // not divisible by 8
        let session = session_for(SystemConfig::hyve());
        assert!(matches!(
            session.run(&PageRank::new(1), &grid),
            Err(CoreError::Unschedulable { .. })
        ));
    }

    fn unschedulable_message(session: &SimulationSession, grid: &GridGraph) -> String {
        match session.run(&PageRank::new(1), grid) {
            Err(CoreError::Unschedulable { message }) => message,
            other => panic!("expected Unschedulable, got {other:?}"),
        }
    }

    #[test]
    fn too_few_intervals_reports_the_shortage() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve()); // 8 PUs
        let grid = GridGraph::partition(&g, 4).unwrap();
        assert_eq!(
            unschedulable_message(&session, &grid),
            "4 intervals < 8 processing units"
        );
    }

    #[test]
    fn indivisible_intervals_report_the_divisibility() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve()); // 8 PUs
        let grid = GridGraph::partition(&g, 12).unwrap();
        assert_eq!(
            unschedulable_message(&session, &grid),
            "12 intervals not divisible by 8 processing units"
        );
    }

    #[test]
    fn skipping_off_matches_skipping_on_bit_for_bit() {
        let g = small_graph();
        let grid = GridGraph::partition(&g, 16).unwrap();
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel { threads: 3 },
        ] {
            let run = |skip: bool| {
                let recorder = SharedRecorder::new();
                let (report, values) = SimulationSession::builder(SystemConfig::hyve_opt())
                    .strategy(strategy)
                    .dirty_interval_skipping(skip)
                    .with_trace(recorder.clone())
                    .build()
                    .unwrap()
                    .run_with_values(&Sssp::new(VertexId::new(0)), &grid)
                    .unwrap();
                // Skipping changes the block counters by design; the
                // iteration structure must not move.
                let changed: Vec<(u32, bool)> = recorder
                    .artifact()
                    .events
                    .iter()
                    .filter_map(|e| match e {
                        TraceEvent::IterationEnd {
                            iteration, changed, ..
                        } => Some((*iteration, *changed)),
                        _ => None,
                    })
                    .collect();
                (report, values, changed)
            };
            let (fast_report, fast_values, fast_changed) = run(true);
            let (full_report, full_values, full_changed) = run(false);
            assert_eq!(fast_report, full_report);
            assert_eq!(fast_values, full_values);
            assert_eq!(fast_changed, full_changed);
            assert_eq!(fast_changed.len() as u32, fast_report.iterations);
        }
    }

    #[test]
    fn undirected_program_doubles_traversals() {
        // A 16-chain takes several iterations to converge, so capping CC at
        // one iteration is a non-convergence: the run surfaces the typed
        // error, and the partial report it carries still shows the doubled
        // (undirected) traversal count for that one iteration.
        let g = EdgeList::from_edges(16, (0..15).map(|i| Edge::new(i, i + 1))).unwrap();
        let session = session_for(SystemConfig::hyve().with_num_pus(2));
        match session.run_on_edge_list(&ConnectedComponents::new().with_max_iterations(1), &g) {
            Err(CoreError::MaxIterationsExceeded {
                algorithm,
                max_iterations,
                report,
            }) => {
                assert_eq!(algorithm, "CC");
                assert_eq!(max_iterations, 1);
                assert_eq!(report.iterations, 1);
                assert_eq!(report.edges_processed, 2 * 15);
            }
            other => panic!("expected MaxIterationsExceeded, got {other:?}"),
        }
    }

    #[test]
    fn converged_runs_do_not_raise_max_iterations() {
        // With enough headroom the same program converges and returns Ok.
        let g = EdgeList::from_edges(16, (0..15).map(|i| Edge::new(i, i + 1))).unwrap();
        let session = session_for(SystemConfig::hyve().with_num_pus(2));
        let cc = session
            .run_on_edge_list(&ConnectedComponents::new(), &g)
            .unwrap();
        assert!(cc.iterations > 1);
    }

    #[test]
    fn preprocessing_is_one_shot_and_write_dominated() {
        let g = small_graph();
        let session = session_for(SystemConfig::hyve());
        let grid = GridGraph::partition(&g, 8).unwrap();
        let pre = session.preprocessing_report(&PageRank::new(10), &grid);
        assert_eq!(pre.edge_bits, grid.edge_storage_bits());
        assert!(pre.energy.as_pj() > 0.0);
        assert!(pre.time.as_ns() > 0.0);
        // ReRAM's slow writes: preprocessing on HyVE takes longer than on
        // the all-DRAM hierarchy, but costs less energy per bit is not
        // required — only the latency asymmetry is structural.
        let dram_pre =
            session_for(SystemConfig::acc_dram()).preprocessing_report(&PageRank::new(10), &grid);
        assert!(
            pre.time > dram_pre.time,
            "{} vs {}",
            pre.time,
            dram_pre.time
        );
    }

    #[test]
    fn report_has_consistent_breakdown() {
        let g = small_graph();
        let report = session_for(SystemConfig::hyve_opt())
            .run_on_edge_list(&PageRank::new(2), &g)
            .unwrap();
        let b = &report.breakdown;
        let sum = b.edge_memory.total_energy()
            + b.offchip_vertex.total_energy()
            + b.onchip_vertex.total_energy()
            + b.logic.total_energy();
        assert!((sum.as_pj() - report.energy().as_pj()).abs() < 1.0);
        assert!(b.memory_fraction() > 0.3 && b.memory_fraction() < 1.0);
    }

    #[test]
    fn devices_constructed_once_per_session_not_per_run() {
        let g = small_graph();
        let before = crate::hierarchy::device_constructions();
        let session = session_for(SystemConfig::hyve_opt());
        let built = crate::hierarchy::device_constructions();
        // hyve_opt has three channels: edge ReRAM, global DRAM, local SRAM.
        assert_eq!(built - before, 3);

        // Repeated runs and preprocessing reports reuse the same instance.
        session.run_on_edge_list(&PageRank::new(2), &g).unwrap();
        session
            .run_on_edge_list(&Bfs::new(VertexId::new(0)), &g)
            .unwrap();
        let grid = GridGraph::partition(&g, 8).unwrap();
        session.preprocessing_report(&PageRank::new(1), &grid);
        assert_eq!(crate::hierarchy::device_constructions(), built);
    }

    #[test]
    fn ecc_stretches_edge_stream_busy_time() {
        // Zero BER isolates ECC's own overheads: the syndrome pipeline
        // stretches the edge stream as it stretches every other latency.
        let g = small_graph();
        let plain = session_for(SystemConfig::hyve_opt())
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        let ecc = faulty_session(
            SystemConfig::hyve_opt(),
            FaultPlan::parse("ecc=secded").unwrap(),
        )
        .run_on_edge_list(&PageRank::new(3), &g)
        .unwrap();
        let (plain_edge, ecc_edge) = (plain.breakdown.edge_memory, ecc.breakdown.edge_memory);
        assert!(
            ecc_edge.busy_time > plain_edge.busy_time,
            "{} vs {}",
            ecc_edge.busy_time,
            plain_edge.busy_time
        );
    }

    #[test]
    fn fault_runs_report_reliability_and_stay_seed_deterministic() {
        let g = small_graph();
        let plan = FaultPlan::parse("seed=2018,reram-ber=1e-5,dram-ber=1e-9,ecc=secded").unwrap();
        let a = faulty_session(SystemConfig::hyve_opt(), plan.clone())
            .run_on_edge_list(&PageRank::new(5), &g)
            .unwrap();
        let rel = a.reliability.as_ref().expect("active plan reports");
        assert!(rel.corrected > 0, "1e-5 BER over the edge stream corrects");
        assert!(rel.remaps.is_empty(), "no persistent faults configured");
        // Same seed, fresh session: bit-identical outcome.
        let again = faulty_session(SystemConfig::hyve_opt(), plan)
            .run_on_edge_list(&PageRank::new(5), &g)
            .unwrap();
        assert_eq!(a, again);
        // Different seed: the report may differ, the run still completes.
        let other = faulty_session(
            SystemConfig::hyve_opt(),
            FaultPlan::parse("seed=7,reram-ber=1e-5,dram-ber=1e-9,ecc=secded").unwrap(),
        )
        .run_on_edge_list(&PageRank::new(5), &g)
        .unwrap();
        assert!(other.reliability.is_some());
    }

    #[test]
    fn stuck_bank_run_completes_degraded_via_sparing() {
        let g = small_graph();
        let plan = FaultPlan::parse("seed=1,stuck-bank=0:3,stuck-bank=2:1").unwrap();
        let report = faulty_session(SystemConfig::hyve(), plan)
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        let rel = report.reliability.as_ref().expect("plan is active");
        assert_eq!(rel.remaps.len(), 2, "both stuck banks spared");
        assert_eq!((rel.remaps[0].chip, rel.remaps[0].bank), (0, 3));
        assert!(rel.degraded_fraction > 0.0);
        // Degradation costs extra edge transfers relative to a clean run.
        let clean = session_for(SystemConfig::hyve())
            .run_on_edge_list(&PageRank::new(3), &g)
            .unwrap();
        assert!(clean.reliability.is_none());
        assert!(
            report.breakdown.edge_memory.bits_read > clean.breakdown.edge_memory.bits_read,
            "remapped banks re-stream their share"
        );
    }
}
