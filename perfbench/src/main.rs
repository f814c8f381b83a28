//! Host-time benchmark of the HyVE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <accum-tw|config-sweep|dynamic-lj> \
//!     [--seed 2018] [--seconds 40] [--trace 0|1]
//! ```
//!
//! One process runs one workload on one thread (`Sequential`). It
//! generates its graphs from the seed and builds its sessions (set-up,
//! repeated [`SETUP_REPS`] times), then runs a closed loop of passes over
//! the workload's job list until one more pass would end after `--seconds`
//! (at least one pass). Every job's
//! values are checked against the sequential references and every repeat
//! of a job must reproduce its first `RunReport` bit for bit; checks run
//! outside the timed region, and a job that errors or mismatches counts as
//! failed, never as a timing.
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs traced
//! passes that time each call into a layer and split each engine run at
//! its trace events (see `stamps`), and reports the per-layer metrics.
//! Human-readable lines go to stderr; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod jobs;
mod stamps;
mod stream;
mod workloads;

use hyve_algorithms::{EdgeProgram, PageRank};
use hyve_core::{CoreError, RunReport, SimulationSession};
use hyve_graph::{DynamicGrid, EdgeList, GridGraph, MutationOutcome};
use hyve_graphr::GraphrEngine;
use jobs::{check_values, reference_values, with_program, Alg, Digest, Values, PR, PR_ITERATIONS};
use stamps::Stamps;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Job, Runner, Workload};

/// Set-ups per process; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// End-to-end metrics (`--trace 0`) and their units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_mteps_host", "M/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) and their units. Times are per traced
/// pass (summed over its jobs) unless noted; every value is the median
/// over the run's traced passes. A layer a workload never calls reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("graph.generate_s", "s"),
    ("graph.partition_s", "s"),
    ("graph.flatten_s", "s"),
    ("graph.blocks", "count"),
    ("graph.blocks_nonempty", "count"),
    ("graph.nonempty_ratio", "ratio"),
    ("graph.dynamic.apply_s", "s"),
    ("graph.dynamic.mutations_per_s", "M/s"),
    ("graph.dynamic.in_place", "count"),
    ("graph.dynamic.overflow_links", "count"),
    ("graph.dynamic.repartitions", "count"),
    ("graph.dynamic.rejected", "count"),
    ("core.session_build_s", "s"),
    ("core.engine.plan_s", "s"),
    ("core.engine.iteration_s", "s"),
    ("core.engine.functional_s", "s"),
    ("core.engine.blocks_processed", "count"),
    ("core.engine.blocks_skipped", "count"),
    ("core.engine.skip_ratio", "ratio"),
    ("core.engine.edges_processed", "count"),
    ("core.accounting_s", "s"),
    ("core.reliability.retries", "count"),
    ("core.reliability.remaps", "count"),
    ("graphr.run_s", "s"),
    ("core.trace_overhead", "ratio"),
    ("bench.unattributed_share", "ratio"),
];

const USAGE: &str = "usage: hyve-perfbench --workload <accum-tw|config-sweep|dynamic-lj> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workloads::DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::named(&args.workload, args.seed) else {
        eprintln!("unknown workload '{}'\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let mut bench = Bench::new(workload, args.seed);
    let (table, values): (&[(&str, &str)], _) = if args.trace {
        (&PER_LAYER, bench.traced(args.seconds))
    } else {
        (&END_TO_END, bench.untraced(args.seconds))
    };
    bench.check.print_summary(&args.workload, args.trace);
    let body: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values
                .get(name)
                .copied()
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            eprintln!("  {name:<32} {v:>16.6} {unit}");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        bench.check.failed == 0 && bench.check.attempted > 0,
        bench.check.attempted,
        bench.check.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// `dynamic-lj`'s fixed inputs: the starting grid and the request stream.
struct Dynamic {
    initial: DynamicGrid,
    stream: stream::Stream,
}

struct Bench {
    w: Workload,
    graphs: Vec<EdgeList>,
    sessions: Vec<SimulationSession>,
    graphr: GraphrEngine,
    setup_s: f64,
    generate_s: f64,
    build_s: f64,
    dynamic: Option<Dynamic>,
    check: Checker,
}

impl Bench {
    fn new(w: Workload, seed: u64) -> Bench {
        // Each set-up is dropped before the next, so only one copy of the
        // graphs counts toward peak memory.
        let (mut gen, mut build) = (Vec::new(), Vec::new());
        let mut last = w.setup(seed);
        for _ in 1..SETUP_REPS {
            gen.push(last.generate_s);
            build.push(last.build_s);
            drop(last);
            last = w.setup(seed);
        }
        gen.push(last.generate_s);
        build.push(last.build_s);
        let setups: Vec<f64> = gen.iter().zip(&build).map(|(g, b)| g + b).collect();
        eprintln!("setup samples (s): {setups:.3?}");
        let setup_s = median(setups);
        let (generate_s, build_s) = (median(gen), median(build));
        let dynamic = w.is_dynamic().then(|| {
            let g = &last.graphs[0];
            let intervals =
                last.sessions[0].plan_intervals(&PageRank::new(PR_ITERATIONS), g.num_vertices());
            let grid = GridGraph::partition(g, intervals).expect("LJ partitions at its planned P");
            Dynamic {
                initial: DynamicGrid::new(grid, workloads::VERTEX_RESERVE),
                stream: stream::generate(
                    g,
                    workloads::DYNAMIC_BATCHES,
                    workloads::DYNAMIC_BATCH_LEN,
                    seed ^ 0x5eed_d1a6,
                ),
            }
        });
        let slots = if w.is_dynamic() {
            workloads::DYNAMIC_BATCHES
        } else {
            w.jobs.len()
        };
        Bench {
            graphs: last.graphs,
            sessions: last.sessions,
            graphr: GraphrEngine::new(),
            setup_s,
            generate_s,
            build_s,
            dynamic,
            check: Checker::new(slots),
            w,
        }
    }

    /// Untraced passes for `seconds`; returns the end-to-end metrics.
    ///
    /// `pass_s` is the sum over the pass's jobs of each job's fastest time
    /// across passes. The host's speed drifts in episodes of seconds that
    /// only ever add time, so a job's fastest run is its least disturbed
    /// one. The median and tail of whole-pass times go to stderr.
    fn untraced(&mut self, seconds: f64) -> BTreeMap<&'static str, f64> {
        let mut peak_rss_mb = None;
        let passes = passes_within(seconds, || {
            let pass = if self.w.is_dynamic() {
                self.dynamic_pass()
            } else {
                self.static_pass()
            };
            // Peak memory of set-up plus one pass: later passes repeat the
            // same allocations, and how many fit in `seconds` must not
            // move the figure through allocator fragmentation.
            peak_rss_mb.get_or_insert_with(peak_rss_mb_now);
            pass
        });
        let totals: Vec<f64> = passes.iter().map(Pass::total_s).collect();
        eprintln!("whole passes: {}", describe_samples(&totals));
        eprintln!("whole pass samples (s): {totals:.3?}");
        let pass_s: f64 = (0..passes[0].job_s.len())
            .map(|j| {
                let ok = passes.iter().filter_map(|p| p.job_s[j]);
                ok.reduce(f64::min).unwrap_or(0.0)
            })
            .sum();
        // Every pass repeats the same runs, so their edge counts agree.
        let edges = passes[0].edges;
        BTreeMap::from([
            ("setup_s", self.setup_s),
            ("pass_s", pass_s),
            ("sim_mteps_host", edges as f64 / pass_s / 1e6),
            ("peak_rss_mb", peak_rss_mb.unwrap_or(0.0)),
        ])
    }

    fn run_job(&self, job: Job) -> Result<(RunReport, Values), String> {
        let g = &self.graphs[job.graph];
        match job.runner {
            Runner::Hyve(s) => with_program!(job.alg, p => self.sessions[s]
                .run_on_edge_list_with_values(p, g)
                .map(|(r, v)| (r, Values::from(v)))),
            Runner::Graphr => with_program!(job.alg, p => self.graphr
                .run_with_values(p, g)
                .map(|(r, v)| (r, Values::from(v)))),
        }
        .map_err(|e| e.to_string())
    }

    /// One untraced pass over the job list.
    fn static_pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for slot in 0..self.w.jobs.len() {
            let job = self.w.jobs[slot];
            let t = Instant::now();
            let out = self.run_job(job);
            let dt = t.elapsed().as_secs_f64();
            let r = self.check.settle(slot, job.alg, out, || {
                reference_values(job.alg, &self.graphs[job.graph])
            });
            pass.job(dt, r);
        }
        pass
    }

    /// One untraced `dynamic-lj` pass from the starting grid: each batch
    /// of mutations, then a PageRank re-run on the mutated grid. A batch
    /// and its re-run count as one job.
    fn dynamic_pass(&mut self) -> Pass {
        let d = self.dynamic.as_ref().expect("dynamic workload");
        let pr = PageRank::new(PR_ITERATIONS);
        let mut dg = d.initial.clone();
        let mut pass = Pass::default();
        for (slot, batch) in d.stream.batches.iter().enumerate() {
            let t = Instant::now();
            let rejected = batch.iter().filter(|m| dg.apply(**m).is_err()).count();
            let apply_s = t.elapsed().as_secs_f64();
            self.check.mutations(batch.len(), rejected);
            let t = Instant::now();
            let out = self.sessions[0].run_with_values(&pr, dg.grid());
            let run_s = t.elapsed().as_secs_f64();
            let out = dynamic_state(d, &dg, slot).and(
                out.map(|(r, v)| (r, Values::from(v)))
                    .map_err(|e| e.to_string()),
            );
            let want = || reference_values(PR, &dg.grid().to_edge_list());
            let r = self.check.settle(slot, PR, out, want);
            pass.job(apply_s + run_s, r);
        }
        pass
    }

    /// Traced passes for `seconds`; returns the per-layer metrics.
    fn traced(&mut self, seconds: f64) -> BTreeMap<&'static str, f64> {
        let stamps = Stamps::default();
        let traced: Vec<SimulationSession> = self
            .w
            .specs
            .iter()
            .map(|s| s.build(Some(stamps.clone())))
            .collect();
        let mut first = true;
        let passes = passes_within(seconds, || {
            let mut l = Layers {
                print_shapes: std::mem::take(&mut first),
                ..Layers::default()
            };
            if self.w.is_dynamic() {
                self.traced_dynamic_pass(&traced, &stamps, &mut l);
            } else {
                self.traced_static_pass(&traced, &stamps, &mut l);
            }
            l.finish()
        });
        let mut out: BTreeMap<&'static str, f64> = PER_LAYER
            .iter()
            .map(|&(name, _)| {
                let per_pass = passes.iter().filter_map(|p| p.get(name).copied());
                (name, median(per_pass.collect()))
            })
            .collect();
        out.insert("graph.generate_s", self.generate_s);
        out.insert("core.session_build_s", self.build_s);
        eprintln!(
            "traced passes: {}; share of the untraced job wall the layers leave unattributed: {:.4}",
            passes.len(),
            out["bench.unattributed_share"]
        );
        out
    }

    fn traced_static_pass(
        &mut self,
        traced: &[SimulationSession],
        stamps: &Stamps,
        l: &mut Layers,
    ) {
        for slot in 0..self.w.jobs.len() {
            let job = self.w.jobs[slot];
            let g = &self.graphs[job.graph];
            let out = match job.runner {
                Runner::Graphr => {
                    let t = Instant::now();
                    let out = self.run_job(job);
                    l.add("graphr.run_s", t.elapsed().as_secs_f64());
                    out
                }
                Runner::Hyve(s) => {
                    let plain = &self.sessions[s];
                    with_program!(job.alg, p => measure_job(
                        p,
                        || plain.run_on_edge_list_with_values(p, g),
                        |l| {
                            let intervals = plain.plan_intervals(p, g.num_vertices());
                            let t = Instant::now();
                            let grid = GridGraph::partition(g, intervals);
                            l.call("graph.partition_s", t.elapsed().as_secs_f64());
                            grid.map_err(|e| e.to_string())
                        },
                        &traced[s],
                        stamps,
                        l,
                    ))
                }
            };
            self.check
                .settle(slot, job.alg, out, || reference_values(job.alg, g));
        }
    }

    /// A traced `dynamic-lj` pass: the untraced pass's work from the same
    /// starting grid, with each batch's re-run measured by [`measure_job`].
    fn traced_dynamic_pass(
        &mut self,
        traced: &[SimulationSession],
        stamps: &Stamps,
        l: &mut Layers,
    ) {
        let d = self.dynamic.as_ref().expect("dynamic workload");
        let pr = PageRank::new(PR_ITERATIONS);
        let plain = &self.sessions[0];
        let mut dg = d.initial.clone();
        for (slot, batch) in d.stream.batches.iter().enumerate() {
            let t = Instant::now();
            let outcomes: Vec<_> = batch.iter().map(|m| dg.apply(*m)).collect();
            l.add("graph.dynamic.apply_s", t.elapsed().as_secs_f64());
            l.add("graph.dynamic.mutations", batch.len() as f64);
            for o in &outcomes {
                let key = match o {
                    Ok(MutationOutcome::InPlace | MutationOutcome::VertexTombstoned) => {
                        "graph.dynamic.in_place"
                    }
                    Ok(MutationOutcome::LinkedOverflow) => "graph.dynamic.overflow_links",
                    Ok(MutationOutcome::Repartitioned) => "graph.dynamic.repartitions",
                    Err(_) => "graph.dynamic.rejected",
                };
                l.add(key, 1.0);
            }
            self.check
                .mutations(batch.len(), outcomes.iter().filter(|o| o.is_err()).count());
            // The mutations emptied the grid's flat cache; the copy is taken
            // before either run fills it, so both runs re-flatten.
            let copy = dg.grid().clone();
            let out = measure_job(
                &pr,
                || plain.run_with_values(&pr, dg.grid()),
                move |_| Ok(copy),
                &traced[0],
                stamps,
                l,
            );
            let out = dynamic_state(d, &dg, slot).and(out);
            let want = || reference_values(PR, &dg.grid().to_edge_list());
            self.check.settle(slot, PR, out, want);
        }
    }
}

/// The stream model's expectations for the grid after batch `slot`:
/// internal invariants, stored edge count and — after the last batch —
/// the exact live edge multiset.
fn dynamic_state(d: &Dynamic, dg: &DynamicGrid, slot: usize) -> Result<(), String> {
    dg.validate().map_err(|e| format!("batch {slot}: {e}"))?;
    let want = d.stream.stored_edges[slot];
    if dg.grid().num_edges() != want {
        return Err(format!(
            "batch {slot}: grid stores {} edges, the request stream implies {want}",
            dg.grid().num_edges()
        ));
    }
    if slot + 1 == d.stream.batches.len() {
        let mut live: Vec<(u32, u32)> = dg
            .live_edge_list()
            .iter()
            .map(|e| (e.src.raw(), e.dst.raw()))
            .collect();
        live.sort_unstable();
        if live != d.stream.final_live {
            return Err("live edge list differs from the request stream's model".into());
        }
    }
    Ok(())
}

/// Runs one HyVE job twice, in alternating order so neither run always
/// finds the other's warm caches:
///
/// - `untraced` runs it as the untraced pass does; its wall is the base of
///   `core.trace_overhead` and `bench.unattributed_share`;
/// - `grid` yields the job's grid (timing any partition itself), which is
///   flattened and run on the traced `twin` session, split at its events.
///
/// Returns the untraced output, after checking that the two reports agree
/// bit for bit.
fn measure_job<P: EdgeProgram>(
    program: &P,
    untraced: impl FnOnce() -> Result<(RunReport, Vec<P::Value>), CoreError>,
    grid: impl FnOnce(&mut Layers) -> Result<GridGraph, String>,
    twin: &SimulationSession,
    stamps: &Stamps,
    l: &mut Layers,
) -> Result<(RunReport, Values), String>
where
    Values: From<Vec<P::Value>>,
{
    l.jobs += 1;
    let (plain, traced) = if l.jobs.is_multiple_of(2) {
        let plain = untraced_job(untraced, l);
        (plain, traced_run(program, grid, twin, stamps, l))
    } else {
        let traced = traced_run(program, grid, twin, stamps, l);
        (untraced_job(untraced, l), traced)
    };
    let (report, values) = plain?;
    if traced? != report {
        return Err("traced report differs from the untraced one".into());
    }
    Ok((report, Values::from(values)))
}

/// The untraced half of [`measure_job`], timed whole.
fn untraced_job<V>(
    run: impl FnOnce() -> Result<(RunReport, Vec<V>), CoreError>,
    l: &mut Layers,
) -> Result<(RunReport, Vec<V>), String> {
    let t = Instant::now();
    let out = run();
    l.add("bench.untraced_job_s", t.elapsed().as_secs_f64());
    out.map_err(|e| e.to_string())
}

/// The traced half of [`measure_job`]: grid, first `flat()`, then the run
/// on `twin`, split by the stamps into plan, functional and accounting.
fn traced_run<P: EdgeProgram>(
    program: &P,
    grid: impl FnOnce(&mut Layers) -> Result<GridGraph, String>,
    twin: &SimulationSession,
    stamps: &Stamps,
    l: &mut Layers,
) -> Result<RunReport, String> {
    let grid = grid(l)?;
    l.grid(&grid);
    let t = Instant::now();
    grid.flat();
    l.call("graph.flatten_s", t.elapsed().as_secs_f64());
    let call = Instant::now();
    let out = twin.run(program, &grid);
    l.add("bench.traced_job_s", call.elapsed().as_secs_f64());
    // Drained even when the run failed, so no stale stamps reach the next.
    let split = stamps.take_split(call);
    let report = out.map_err(|e| e.to_string())?;
    let split = split.ok_or("traced run emitted an incomplete event sequence")?;
    l.part("core.engine.plan_s", split.plan_s);
    l.part("core.engine.functional_s", split.functional_s);
    l.part("core.accounting_s", split.accounting_s);
    l.gaps.extend(&split.iteration_gaps_s);
    l.add(
        "core.engine.blocks_processed",
        split.blocks_processed as f64,
    );
    l.add("core.engine.blocks_skipped", split.blocks_skipped as f64);
    l.add("core.engine.edges_processed", split.edges_processed as f64);
    l.add("core.reliability.retries", split.retries as f64);
    l.add("core.reliability.remaps", split.remaps as f64);
    if l.print_shapes {
        print_shape(&report, &grid);
    }
    Ok(report)
}

/// One stderr line with a run's shape, as BENCHMARK.json records it.
fn print_shape(r: &RunReport, g: &GridGraph) {
    eprintln!(
        "  shape {} on {}: |V| {} |E| {} P {} blocks {} non-empty {} iterations {}",
        r.algorithm,
        r.config,
        g.num_vertices(),
        g.num_edges(),
        g.num_intervals(),
        g.num_blocks(),
        g.non_empty_blocks(),
        r.iterations
    );
}

/// One untraced pass: each job's timed seconds (`None` if it failed) and
/// the simulated edges of the jobs that passed.
#[derive(Default)]
struct Pass {
    job_s: Vec<Option<f64>>,
    edges: u64,
}

impl Pass {
    fn job(&mut self, secs: f64, passed: Option<RunReport>) {
        self.edges += passed.as_ref().map_or(0, |r| r.edges_processed);
        self.job_s.push(passed.map(|_| secs));
    }

    fn total_s(&self) -> f64 {
        self.job_s.iter().flatten().sum()
    }
}

/// Per-pass sums of the traced layers.
#[derive(Default)]
struct Layers {
    sums: BTreeMap<&'static str, f64>,
    gaps: Vec<f64>,
    /// HyVE jobs measured so far in this pass.
    jobs: u64,
    /// Print each job's shape (first traced pass only).
    print_shapes: bool,
}

impl Layers {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    /// A layer call the benchmark timed itself inside a traced job:
    /// part of the traced job wall, and attributed in full.
    fn call(&mut self, key: &'static str, secs: f64) {
        self.add(key, secs);
        self.add("bench.traced_job_s", secs);
        self.add("bench.attributed_s", secs);
    }

    /// The stretch of a traced run between two stamped engine events.
    fn part(&mut self, key: &'static str, secs: f64) {
        self.add(key, secs);
        self.add("bench.attributed_s", secs);
    }

    fn grid(&mut self, grid: &GridGraph) {
        self.add("graph.blocks", grid.num_blocks() as f64);
        self.add("graph.blocks_nonempty", grid.non_empty_blocks() as f64);
    }

    fn finish(mut self) -> BTreeMap<&'static str, f64> {
        let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let s = &self.sums;
        let derived = [
            (
                "graph.nonempty_ratio",
                ratio(get(s, "graph.blocks_nonempty"), get(s, "graph.blocks")),
            ),
            (
                "graph.dynamic.mutations_per_s",
                ratio(
                    get(s, "graph.dynamic.mutations"),
                    get(s, "graph.dynamic.apply_s"),
                ) / 1e6,
            ),
            (
                "core.engine.skip_ratio",
                ratio(
                    get(s, "core.engine.blocks_skipped"),
                    get(s, "core.engine.blocks_processed") + get(s, "core.engine.blocks_skipped"),
                ),
            ),
            (
                "core.engine.iteration_s",
                median(std::mem::take(&mut self.gaps)),
            ),
            (
                "core.trace_overhead",
                ratio(get(s, "bench.traced_job_s"), get(s, "bench.untraced_job_s")),
            ),
            (
                "bench.unattributed_share",
                ratio(
                    get(s, "bench.untraced_job_s") - get(s, "bench.attributed_s"),
                    get(s, "bench.untraced_job_s"),
                ),
            ),
        ];
        self.sums.extend(derived);
        self.sums
    }
}

/// Correctness bookkeeping shared by every pass of a run.
struct Checker {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Each slot's first report and values; later runs must repeat them.
    first: Vec<Option<(RunReport, Values)>>,
    /// Fingerprint of every slot's first report, in slot order.
    digest: Digest,
}

impl Checker {
    fn new(slots: usize) -> Checker {
        Checker {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            first: vec![None; slots],
            digest: Digest::default(),
        }
    }

    fn fail(&mut self, count: u64, e: String) {
        self.failed += count;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }

    fn mutations(&mut self, applied: usize, rejected: usize) {
        self.attempted += applied as u64;
        if rejected > 0 {
            self.fail(rejected as u64, format!("{rejected} mutations rejected"));
        }
    }

    /// Settles one job: on a slot's first run its values must match the
    /// reference `want()`; on later runs report and values must repeat the
    /// first run's bit for bit. Returns the report if the job passed.
    fn settle(
        &mut self,
        slot: usize,
        alg: Alg,
        out: Result<(RunReport, Values), String>,
        want: impl FnOnce() -> Values,
    ) -> Option<RunReport> {
        self.attempted += 1;
        let verdict = out.and_then(|(report, values)| match &self.first[slot] {
            None => {
                check_values(alg, &values, &want())?;
                self.digest.report(&report);
                self.first[slot] = Some((report.clone(), values));
                Ok(report)
            }
            Some((r0, v0)) if *r0 == report && v0.same_bits(&values) => Ok(report),
            Some(_) => Err(format!("{alg:?}: run differs from its first run")),
        });
        verdict
            .map_err(|e| self.fail(1, format!("job {slot}: {e}")))
            .ok()
    }

    fn print_summary(&self, workload: &str, traced: bool) {
        eprintln!(
            "workload {workload} (trace {}): jobs_attempted {} jobs_failed {}",
            u8::from(traced),
            self.attempted,
            self.failed
        );
        for e in &self.errors {
            eprintln!("  FAILED {e}");
        }
        println!("sim_digest {}", self.digest.hex());
    }
}

/// Runs `pass` once, then again while one more pass as long as the last
/// still ends within `seconds` of the start, so a run never overshoots its
/// time by a long pass.
fn passes_within<T>(seconds: f64, mut pass: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        out.push(pass());
        let last = t.elapsed().as_secs_f64();
        if start.elapsed().as_secs_f64() + last > seconds {
            return out;
        }
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median and the highest of p99/p95/p90/p75/p50 that has at least ten
/// samples beyond it, with the sample count.
fn describe_samples(samples: &[f64]) -> String {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let tail = [99usize, 95, 90, 75, 50].into_iter().find_map(|q| {
        let rank = (q * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| format!("p{q} {:.6} s", v[rank - 1]))
    });
    format!(
        "median {:.6} s, {} (n = {n})",
        median(v.clone()),
        tail.unwrap_or_else(|| "no percentile has 10 samples beyond it".into())
    )
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb_now() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
