//! Command implementations for the `hyve` CLI. Each reads and checks every
//! flag it takes at its top, before it loads a graph.

use crate::args::{Flags, Source};
use crate::CliError;
use hyve_algorithms::{
    Bfs, ConnectedComponents, DegreeCentrality, EdgeProgram, PageRank, SpMv, Sssp,
};
use hyve_baselines::CpuSystem;
use hyve_core::{
    CoreError, FaultPlan, RunReport, SharedRecorder, SimulationSession, SuperBlockSchedule,
    SystemConfig, TraceArtifact, TraceEvent,
};
use hyve_graph::{block_sparsity, io, EdgeList, GraphError, Rmat, VertexId};
use hyve_graphr::GraphrEngine;
use hyve_memsim::CellBits;
use hyve_model::{Objective, WorkloadShape};
use std::io::Write;

fn io_err(e: std::io::Error) -> CliError {
    CliError::Failed(e.to_string())
}

/// Prints the usage text.
pub(crate) fn help(out: &mut dyn Write) -> Result<(), CliError> {
    writeln!(out, "{}", crate::USAGE).map_err(io_err)
}

/// Loads the graph and names it.
fn load(source: &Source) -> Result<(EdgeList, String), CliError> {
    match source {
        Source::Dataset(profile, seed) => Ok((profile.generate(*seed), profile.to_string())),
        Source::File(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::Failed(format!("open {path}: {e}")))?;
            let graph = io::parse(std::io::BufReader::new(file))
                .map_err(|e| CliError::Failed(e.to_string()))?;
            let name = format!(
                "{path}: {} vertices, {} edges",
                graph.num_vertices(),
                graph.len()
            );
            Ok((graph, name))
        }
    }
}

fn config_by_name(name: &str) -> Result<SystemConfig, CliError> {
    Ok(match name.to_lowercase().as_str() {
        "acc-dram" => SystemConfig::acc_dram(),
        "acc-reram" => SystemConfig::acc_reram(),
        "acc-sram-dram" | "sd" => SystemConfig::acc_sram_dram(),
        "hyve" => SystemConfig::hyve(),
        "hyve-opt" => SystemConfig::hyve_opt(),
        other => {
            return Err(CliError::Usage(format!(
                "unknown config '{other}' (use acc-dram/acc-reram/acc-sram-dram/hyve/hyve-opt)"
            )))
        }
    })
}

/// Builds a session with `threads` workers, surfacing configuration and
/// thread-count problems as usage errors.
fn session_for(cfg: SystemConfig, threads: usize) -> Result<SimulationSession, CliError> {
    session_with_trace(cfg, threads, None, None)
}

/// Like [`session_for`], but optionally attaches a metrics recorder so the
/// run emits a trace artifact, and/or a fault-injection plan.
fn session_with_trace(
    cfg: SystemConfig,
    threads: usize,
    recorder: Option<SharedRecorder>,
    faults: Option<FaultPlan>,
) -> Result<SimulationSession, CliError> {
    let mut builder = SimulationSession::builder(cfg);
    builder = match threads {
        1 => builder.sequential(),
        n => builder.parallel(n),
    };
    if let Some(r) = recorder {
        builder = builder.with_trace(r);
    }
    if let Some(plan) = faults {
        builder = builder.with_faults(plan);
    }
    builder.build().map_err(|e| CliError::Usage(e.to_string()))
}

/// An `--alg` name, resolved once before any run.
#[derive(Clone, Copy)]
enum Algorithm {
    /// PageRank for this many iterations.
    Pr(u32),
    Bfs,
    Cc,
    Sssp,
    SpMv,
    Degree,
}

impl Algorithm {
    /// Resolves `name`; `iterations` bounds PageRank.
    fn parse(name: &str, iterations: u32) -> Result<Self, CliError> {
        Ok(match name.to_lowercase().as_str() {
            "pr" => Algorithm::Pr(iterations),
            "bfs" => Algorithm::Bfs,
            "cc" => Algorithm::Cc,
            "sssp" => Algorithm::Sssp,
            "spmv" => Algorithm::SpMv,
            "degree" => Algorithm::Degree,
            other => {
                return Err(CliError::Usage(format!(
                    "unknown algorithm '{other}' (use pr/bfs/cc/sssp/spmv/degree)"
                )))
            }
        })
    }

    /// Runs the algorithm on `system`.
    fn run_on(self, system: &impl System, graph: &EdgeList) -> Result<RunReport, CliError> {
        let source = VertexId::new(0);
        match self {
            Algorithm::Pr(iterations) => system.run_program(&PageRank::new(iterations), graph),
            Algorithm::Bfs => system.run_program(&Bfs::new(source), graph),
            Algorithm::Cc => system.run_program(&ConnectedComponents::new(), graph),
            Algorithm::Sssp => system.run_program(&Sssp::new(source), graph),
            Algorithm::SpMv => system.run_program(&SpMv::new(), graph),
            Algorithm::Degree => system.run_program(&DegreeCentrality::new(), graph),
        }
        .map_err(|e| CliError::Failed(e.to_string()))
    }
}

/// A simulated system that runs any edge program on an edge list: a HyVE
/// session or the GraphR engine.
trait System {
    fn run_program<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<RunReport, CoreError>;
}

impl System for SimulationSession {
    fn run_program<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<RunReport, CoreError> {
        self.run_on_edge_list(program, graph)
    }
}

impl System for GraphrEngine {
    fn run_program<P: EdgeProgram>(
        &self,
        program: &P,
        graph: &EdgeList,
    ) -> Result<RunReport, CoreError> {
        self.run(program, graph)
    }
}

/// `hyve run`: one algorithm on one hierarchy.
pub(crate) fn run(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let algorithm = Algorithm::parse(
        &flags.required::<String>("alg")?,
        flags.count("iters")?.unwrap_or(10),
    )?;
    let source = flags.source()?;
    let mut cfg = config_by_name(flags.get("config").unwrap_or("hyve-opt"))?
        .with_dataset_scale(source.scale());
    if let Some(mb) = flags.num("sram-mb")? {
        cfg = cfg.with_sram_mb(mb);
    }
    if flags.get("no-sharing").is_some() {
        cfg = cfg.with_data_sharing(false);
    }
    if flags.get("no-gating").is_some() {
        cfg = cfg.with_power_gating(false);
    }
    let faults = flags
        .get("faults")
        .map(|spec| FaultPlan::parse(spec).map_err(|e| CliError::Usage(format!("--faults: {e}"))))
        .transpose()?;
    let threads = flags.threads()?;
    let trace = flags.get("trace");
    let recorder = trace.map(|_| SharedRecorder::default());
    let session = session_with_trace(cfg, threads, recorder.clone(), faults)?;
    let (graph, name) = load(&source)?;
    let report = algorithm.run_on(&session, &graph)?;
    writeln!(out, "graph : {name}").map_err(io_err)?;
    writeln!(out, "{report}").map_err(io_err)?;
    writeln!(
        out,
        "summary: {:.1} MTEPS/W | {} | {} | EDP {:.3e} J*s",
        report.mteps_per_watt(),
        report.energy(),
        report.elapsed(),
        report.edp().as_j_s(),
    )
    .map_err(io_err)?;
    if let (Some(path), Some(recorder)) = (trace, &recorder) {
        std::fs::write(path, recorder.artifact().to_jsonl())
            .map_err(|e| CliError::Failed(format!("write {path}: {e}")))?;
        writeln!(out, "trace : wrote {path}").map_err(io_err)?;
    }
    Ok(())
}

/// Reads and parses a trace artifact from disk.
fn read_artifact(path: &str) -> Result<TraceArtifact, CliError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| CliError::Failed(format!("read {path}: {e}")))?;
    TraceArtifact::from_jsonl(&text).map_err(|e| CliError::Failed(format!("{path}: {e}")))
}

/// Pretty-prints one artifact's breakdown: its events in list order, the
/// iteration line summing the iteration events before it.
fn print_artifact(a: &TraceArtifact, out: &mut dyn Write) -> Result<(), CliError> {
    let (mut processed, mut skipped) = (0, 0);
    for event in &a.events {
        let text = match event {
            TraceEvent::RunStart {
                algorithm,
                config,
                num_vertices,
                num_edges,
                intervals,
                num_pus,
            } => format!(
                "algorithm : {algorithm} on {config}\ngraph     : {num_vertices} vertices, \
                 {num_edges} edges ({intervals} intervals, {num_pus} PUs)"
            ),
            TraceEvent::IterationEnd {
                blocks_processed,
                blocks_skipped,
                ..
            } => {
                processed += blocks_processed;
                skipped += blocks_skipped;
                continue;
            }
            TraceEvent::Phases { phases } => {
                let (iterations, edges) = a.run_totals();
                let mut text = format!(
                    "iterations: {iterations} ({edges} edge traversals; \
                     blocks {processed} processed / {skipped} skipped)\nphases:"
                );
                for (label, t) in phases.named() {
                    text += &format!("\n  {label:<12} {t}");
                }
                text + "\nchannels:"
            }
            TraceEvent::ChannelLedger { channel, stats } => format!(
                "  {:<16} {:>10} reads {:>10} writes  dynamic {:>14}  background {:>14}  busy {}",
                channel.name(),
                stats.reads,
                stats.writes,
                format!("{}", stats.dynamic_energy),
                format!("{}", stats.background_energy),
                stats.busy_time,
            ),
            TraceEvent::GatingTransitions { transitions } => {
                format!("gating    : {transitions} sleep/wake transitions")
            }
            TraceEvent::RouterTraffic { words, reroutes } => {
                format!("router    : {words} words moved, {reroutes} reroute decisions")
            }
            TraceEvent::Reliability {
                corrected,
                uncorrectable,
                retries,
            } => format!(
                "reliability: {corrected} corrected, {uncorrectable} uncorrectable \
                 ({retries} retries)"
            ),
            TraceEvent::BankRemap {
                chip,
                bank,
                spare_chip,
                spare_bank,
            } => format!("  remap    : bank {chip}:{bank} -> spare {spare_chip}:{spare_bank}"),
            TraceEvent::RunEnd { .. } => {
                format!("total     : {} | {}", a.total_energy(), a.elapsed())
            }
        };
        writeln!(out, "{text}").map_err(io_err)?;
    }
    Ok(())
}

/// `hyve report <artifact> [<baseline>]`: pretty-prints one trace artifact,
/// or diffs two. Unlike the other commands it takes positional paths.
pub(crate) fn report(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    if argv.iter().any(|t| t == "--help") {
        return help(out);
    }
    if let Some(flag) = argv.iter().find(|t| t.starts_with("--")) {
        return Err(CliError::Usage(format!("unexpected flag '{flag}'")));
    }
    let (path, baseline) = match argv {
        [path] => (path, None),
        [path, baseline] => (path, Some(baseline)),
        [] => {
            return Err(CliError::Usage(
                "report needs an artifact path (and optionally a baseline to diff)".into(),
            ))
        }
        _ => {
            return Err(CliError::Usage(
                "report takes at most two artifact paths".into(),
            ))
        }
    };
    let artifact = read_artifact(path)?;
    print_artifact(&artifact, out)?;
    if let Some(base_path) = baseline {
        let baseline = read_artifact(base_path)?;
        let diff = artifact.diff(&baseline);
        writeln!(out, "\ndiff vs {base_path}:").map_err(io_err)?;
        writeln!(out, "{diff}").map_err(io_err)?;
        let identical = if artifact == baseline { "yes" } else { "no" };
        writeln!(out, "identical: {identical}").map_err(io_err)?;
    }
    Ok(())
}

/// `hyve compare`: one algorithm on every hierarchy, GraphR and the CPUs.
pub(crate) fn compare(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let algorithm = Algorithm::parse(&flags.required::<String>("alg")?, 10)?;
    let source = flags.source()?;
    let threads = flags.threads()?;
    let (graph, name) = load(&source)?;
    writeln!(out, "graph : {name}").map_err(io_err)?;
    let mut edges_processed = 0;
    for cfg in [
        SystemConfig::acc_dram(),
        SystemConfig::acc_reram(),
        SystemConfig::acc_sram_dram(),
        SystemConfig::hyve(),
        SystemConfig::hyve_opt(),
    ] {
        let cfg = cfg.with_dataset_scale(source.scale());
        let label = cfg.name;
        let report = algorithm.run_on(&session_for(cfg, threads)?, &graph)?;
        edges_processed = report.edges_processed;
        writeln!(
            out,
            "{label:<16} {:>9.1} MTEPS/W  {:>12}  {:>12}",
            report.mteps_per_watt(),
            format!("{}", report.energy()),
            format!("{}", report.elapsed()),
        )
        .map_err(io_err)?;
    }
    // GraphR and the CPU baselines for context.
    let graphr_report = algorithm.run_on(&GraphrEngine::new(), &graph)?;
    writeln!(
        out,
        "{:<16} {:>9.1} MTEPS/W  {:>12}  {:>12}",
        "GraphR",
        graphr_report.mteps_per_watt(),
        format!("{}", graphr_report.energy()),
        format!("{}", graphr_report.elapsed()),
    )
    .map_err(io_err)?;
    for cpu in [CpuSystem::nxgraph_like(), CpuSystem::galois_like()] {
        writeln!(
            out,
            "{:<16} {:>9.1} MTEPS/W",
            cpu.name,
            cpu.mteps_per_watt(edges_processed)
        )
        .map_err(io_err)?;
    }
    Ok(())
}

/// `hyve sweep`: PageRank on HyVE-opt across one design axis.
pub(crate) fn sweep(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let base = SystemConfig::hyve_opt();
    // Each run: its label and configuration. Only the SRAM axis moves P.
    let (runs, prints_p): (Vec<(String, SystemConfig)>, bool) =
        match flags.required::<String>("what")?.to_lowercase().as_str() {
            "sram" => (
                [2u64, 4, 8, 16]
                    .map(|mb| (format!("{mb:>2} MB"), base.clone().with_sram_mb(mb)))
                    .into(),
                true,
            ),
            "cells" => (
                CellBits::all()
                    .map(|bits| (bits.to_string(), base.clone().with_cell_bits(bits)))
                    .into(),
                false,
            ),
            "density" => (
                [4u32, 8, 16]
                    .map(|gbit| (format!("{gbit:>2} Gb"), base.clone().with_density(gbit)))
                    .into(),
                false,
            ),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown sweep axis '{other}' (use sram/cells/density)"
                )))
            }
        };
    let source = flags.source()?;
    let threads = flags.threads()?;
    let (graph, name) = load(&source)?;
    writeln!(out, "graph : {name}").map_err(io_err)?;
    for (label, cfg) in runs {
        let session = session_for(cfg.with_dataset_scale(source.scale()), threads)?;
        let report = Algorithm::Pr(10).run_on(&session, &graph)?;
        write!(out, "{label} : {:>8.1} MTEPS/W", report.mteps_per_watt()).map_err(io_err)?;
        if prints_p {
            write!(out, " (P = {})", report.intervals).map_err(io_err)?;
        }
        writeln!(out).map_err(io_err)?;
    }
    Ok(())
}

/// `hyve recommend`: the §6.6 design advisor for a workload shape.
pub(crate) fn recommend(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let partitions = flags.count::<u32>("partitions")?;
    let navg = flags.num("navg")?.unwrap_or(1.5f64);
    if !(navg.is_finite() && navg > 0.0) {
        return Err(CliError::Usage(format!(
            "--navg must be a finite positive number, got {navg}"
        )));
    }
    let vertices: u64 = flags.required("vertices")?;
    let edges = flags.required("edges")?;
    let objective = match flags
        .get("objective")
        .unwrap_or("energy")
        .to_lowercase()
        .as_str()
    {
        "latency" => Objective::Latency,
        "energy" => Objective::Energy,
        "edp" => Objective::EnergyDelay,
        other => {
            return Err(CliError::Usage(format!(
                "unknown objective '{other}' (use latency/energy/edp)"
            )))
        }
    };
    // Default partitions: what the planner would pick for PR at 2 MB.
    let partitions = match partitions {
        Some(p) => p,
        None => session_for(SystemConfig::hyve_opt().with_dataset_scale(1), 1)?
            .plan_intervals(&PageRank::new(10), vertices.min(u64::from(u32::MAX)) as u32),
    };
    let shape = WorkloadShape {
        num_vertices: vertices,
        num_edges: edges,
        partitions,
        pus: 8,
        navg,
        density_gbit: 4,
    };
    let r = hyve_model::recommend(&shape, objective);
    writeln!(out, "recommended hierarchy (objective: {:?}):", objective).map_err(io_err)?;
    writeln!(out, "  edge storage  : {}", r.edge_storage).map_err(io_err)?;
    writeln!(out, "  global vertex : {}", r.global_vertex).map_err(io_err)?;
    writeln!(out, "  local vertex  : {}", r.local_vertex).map_err(io_err)?;
    writeln!(out, "  processing    : {}", r.processing).map_err(io_err)?;
    for line in &r.rationale {
        writeln!(out, "  - {line}").map_err(io_err)?;
    }
    Ok(())
}

/// `hyve info`: graph statistics and the interval count a PageRank run plans.
pub(crate) fn info(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let source = flags.source()?;
    let (graph, name) = load(&source)?;
    writeln!(out, "graph : {name}").map_err(io_err)?;
    if graph.num_vertices() == 0 {
        // The error every command that runs the graph stops with.
        let err = CoreError::from(GraphError::EmptyGraph);
        return Err(CliError::Failed(err.to_string()));
    }
    let session = session_for(
        SystemConfig::hyve_opt().with_dataset_scale(source.scale()),
        1,
    )?;
    let p = session.plan_intervals(&PageRank::new(10), graph.num_vertices());
    // The check a run on this graph stops at.
    SuperBlockSchedule::new(p, session.config().num_pus)
        .map_err(|e| CliError::Failed(e.to_string()))?;
    let deg = hyve_graph::DegreeStats::out_degrees(&graph);
    let stats = block_sparsity(&graph, 8);
    writeln!(out, "vertices          : {}", graph.num_vertices()).map_err(io_err)?;
    writeln!(out, "edges             : {}", graph.len()).map_err(io_err)?;
    writeln!(out, "avg degree        : {:.2}", graph.avg_degree()).map_err(io_err)?;
    writeln!(out, "max out-degree    : {}", deg.max).map_err(io_err)?;
    writeln!(out, "degree p99        : {}", deg.p99).map_err(io_err)?;
    writeln!(
        out,
        "degree skew (CoV) : {:.2}{}",
        deg.coefficient_of_variation,
        if deg.is_skewed() {
            " (heavy-tailed)"
        } else {
            ""
        }
    )
    .map_err(io_err)?;
    writeln!(
        out,
        "top-1% edge share : {:.1}%",
        100.0 * deg.top1pct_edge_share
    )
    .map_err(io_err)?;
    writeln!(out, "8x8 blocks (used) : {}", stats.non_empty_blocks).map_err(io_err)?;
    writeln!(out, "Navg              : {:.2}", stats.avg_edges_per_block).map_err(io_err)?;
    writeln!(out, "planned intervals : {p} (PR, 2 MB SRAM, scaled)").map_err(io_err)?;
    writeln!(out, "{}", session.hierarchy()).map_err(io_err)
}

/// `hyve gen`: writes an R-MAT graph as a SNAP file.
pub(crate) fn gen(flags: &Flags, out: &mut dyn Write) -> Result<(), CliError> {
    let vertices = flags.required("vertices")?;
    // Self-loops are rejected, so one vertex admits no edge.
    if vertices < 2 {
        return Err(CliError::Usage(format!(
            "--vertices must be at least 2, got {vertices}"
        )));
    }
    let edges = flags.required("edges")?;
    let path = flags.required::<String>("out")?;
    let graph = Rmat::new(vertices, edges).generate(flags.num("seed")?.unwrap_or(2018));
    let file = std::fs::File::create(&path)
        .map_err(|e| CliError::Failed(format!("create {path}: {e}")))?;
    let mut writer = std::io::BufWriter::new(file);
    io::write(&graph, &mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| CliError::Failed(format!("write {path}: {e}")))?;
    writeln!(
        out,
        "wrote {} edges over {} vertices to {path}",
        graph.len(),
        graph.num_vertices(),
    )
    .map_err(io_err)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(line: &str) -> Result<String, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        let mut out = Vec::new();
        crate::run_cli(&argv, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8"))
    }

    #[test]
    fn help_prints_usage() {
        let s = exec("help").unwrap();
        assert!(s.contains("USAGE"));
    }

    #[test]
    fn run_on_dataset() {
        let s = exec("run --alg bfs --dataset yt --config hyve").unwrap();
        assert!(s.contains("MTEPS/W"), "{s}");
        assert!(s.contains("acc+HyVE"), "{s}");
    }

    /// `run` defaults to HyVE-opt, 10 PageRank iterations and seed 2018,
    /// with data sharing and power gating on.
    #[test]
    fn run_defaults() {
        let default = exec("run --alg pr --dataset yt").unwrap();
        let explicit = exec("run --alg pr --dataset yt --config hyve-opt --iters 10 --seed 2018");
        assert_eq!(default, explicit.unwrap());
        for off in ["--no-sharing", "--no-gating"] {
            let s = exec(&format!("run --alg pr --dataset yt {off}")).unwrap();
            assert_ne!(default, s, "{off} is the default");
        }
    }

    #[test]
    fn run_rejects_unknowns() {
        assert!(exec("run --alg nope --dataset yt").is_err());
        assert!(exec("run --alg pr --dataset nope").is_err());
        assert!(exec("run --alg pr --dataset yt --config nope").is_err());
    }

    #[test]
    fn run_with_threads_matches_sequential() {
        let seq = exec("run --alg pr --dataset yt --iters 2").unwrap();
        let par = exec("run --alg pr --dataset yt --iters 2 --threads 4").unwrap();
        assert_eq!(seq, par, "parallel output must be bit-identical");
    }

    #[test]
    fn run_rejects_zero_threads() {
        assert!(exec("run --alg pr --dataset yt --threads 0").is_err());
    }

    #[test]
    fn compare_lists_all_systems_for_every_algorithm_run_takes() {
        for alg in ["pr", "bfs", "cc", "sssp", "spmv", "degree"] {
            exec(&format!("run --alg {alg} --dataset yt --iters 2")).unwrap();
            let s = exec(&format!("compare --alg {alg} --dataset yt")).unwrap();
            for label in ["acc+DRAM", "acc+HyVE-opt", "\nGraphR ", "CPU+DRAM"] {
                assert!(s.contains(label), "missing {label} for {alg} in {s}");
            }
        }
    }

    #[test]
    fn sweep_axes() {
        let s = exec("sweep --what cells --dataset yt").unwrap();
        assert!(s.contains("1bit") && s.contains("3bit"));
        assert!(exec("sweep --what nope --dataset yt").is_err());
    }

    #[test]
    fn recommend_prints_hierarchy() {
        let s = exec("recommend --vertices 1000000 --edges 30000000").unwrap();
        assert!(s.contains("edge storage  : ReRAM"), "{s}");
        assert!(s.contains("processing    : CMOS"), "{s}");
    }

    /// `recommend` defaults to Navg 1.5, the energy objective and the P the
    /// planner picks for PageRank at 2 MB.
    #[test]
    fn recommend_defaults() {
        let planned = session_for(SystemConfig::hyve_opt().with_dataset_scale(1), 1)
            .unwrap()
            .plan_intervals(&PageRank::new(10), 1_000_000);
        let shape = "recommend --vertices 1000000 --edges 30000000";
        let explicit = format!("{shape} --navg 1.5 --objective energy --partitions {planned}");
        assert_eq!(exec(shape).unwrap(), exec(&explicit).unwrap());
    }

    #[test]
    fn info_reports_navg() {
        let s = exec("info --dataset wk").unwrap();
        assert!(s.contains("Navg"));
        assert!(s.contains("planned intervals"));
    }

    /// `info` plans with the dataset's own scale, so the P it prints is the
    /// P a PageRank run on the same dataset uses.
    #[test]
    fn info_plans_the_intervals_a_run_uses() {
        let info = exec("info --dataset tw").unwrap();
        let planned: u32 = info
            .lines()
            .find_map(|l| l.strip_prefix("planned intervals : "))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|p| p.parse().ok())
            .unwrap_or_else(|| panic!("no planned P in {info}"));
        let dir = std::env::temp_dir().join("hyve-cli-info-plan-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tw.jsonl");
        let p = path.to_str().unwrap().to_string();
        exec(&format!("run --alg pr --dataset tw --iters 1 --trace {p}")).unwrap();
        let artifact = TraceArtifact::from_jsonl(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(matches!(
            artifact.events[0],
            TraceEvent::RunStart { intervals, .. } if intervals == planned
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn info_prints_the_hierarchy() {
        let s = exec("info --dataset yt").unwrap();
        assert!(s.contains("hierarchy acc+HyVE-opt"), "{s}");
        assert!(s.contains("edge stream:   ReRAM"), "{s}");
        assert!(s.contains("global vertex: DRAM"), "{s}");
        assert!(s.contains("local vertex:  SRAM"), "{s}");
    }

    #[test]
    fn trace_and_report_round_trip() {
        let dir = std::env::temp_dir().join("hyve-cli-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let p = path.to_str().unwrap().to_string();
        let s = exec(&format!("run --alg bfs --dataset yt --trace {p}")).unwrap();
        assert!(s.contains("trace : wrote"), "{s}");
        let s = exec(&format!("report {p}")).unwrap();
        assert!(s.contains("algorithm : BFS"), "{s}");
        assert!(s.contains("edge_memory"), "{s}");
        assert!(s.contains("total     :"), "{s}");
        let s = exec(&format!("report {p} {p}")).unwrap();
        assert!(s.contains("identical: yes"), "{s}");
        std::fs::remove_file(path).ok();
    }

    /// `identical` means the parsed artifacts are equal, not merely that
    /// their energy, elapsed-time and iteration deltas are zero.
    #[test]
    fn report_flags_any_changed_field_as_not_identical() {
        let dir = std::env::temp_dir().join("hyve-cli-identical-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("a.jsonl");
        let b = dir.join("b.jsonl");
        let (pa, pb) = (a.to_str().unwrap(), b.to_str().unwrap());
        exec(&format!("run --alg bfs --dataset yt --trace {pa}")).unwrap();
        let text = std::fs::read_to_string(&a).unwrap();
        let gating = text.lines().find(|l| l.contains("\"gating\"")).unwrap();
        let edits = [
            // Another gating count: no energy or time field moves.
            text.replace(gating, "{\"event\":\"gating\",\"transitions\":999}"),
            // Swap the loading and processing split: the total is unchanged.
            text.replace("\"loading_", "\"tmp_")
                .replace("\"processing_", "\"loading_")
                .replace("\"tmp_", "\"processing_"),
        ];
        for edited in edits {
            assert_ne!(edited, text);
            std::fs::write(&b, edited).unwrap();
            let s = exec(&format!("report {pa} {pb}")).unwrap();
            assert!(s.contains("identical: no"), "{s}");
        }
        std::fs::remove_file(a).ok();
        std::fs::remove_file(b).ok();
    }

    #[test]
    fn fault_run_reports_reliability_and_is_deterministic() {
        let line = "run --alg pr --dataset yt --iters 3 \
                    --faults seed=7,reram-ber=1e-5,ecc=secded";
        let a = exec(line).unwrap();
        assert!(a.contains("reliability"), "{a}");
        assert!(a.contains("corrected"), "{a}");
        let b = exec(line).unwrap();
        assert_eq!(a, b, "same seed must reproduce the same output");
    }

    #[test]
    fn bad_fault_spec_is_a_usage_error() {
        let err = exec("run --alg pr --dataset yt --faults seed=banana").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
        let err = exec("run --alg pr --dataset yt --faults reram-ber=2.0").unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
    }

    #[test]
    fn stuck_bank_trace_surfaces_remap_in_report() {
        let dir = std::env::temp_dir().join("hyve-cli-fault-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("faulty.jsonl");
        let p = path.to_str().unwrap().to_string();
        let s = exec(&format!(
            "run --alg bfs --dataset yt --trace {p} --faults seed=1,stuck-bank=0:3"
        ))
        .unwrap();
        assert!(s.contains("bank remap"), "{s}");
        let s = exec(&format!("report {p}")).unwrap();
        assert!(s.contains("reliability:"), "{s}");
        assert!(s.contains("remap    : bank 0:3 -> spare"), "{s}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn report_failures_are_runtime_not_usage() {
        let err = exec("report /nonexistent/trace.jsonl").unwrap_err();
        assert!(matches!(err, CliError::Failed(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn gen_rejects_fewer_than_two_vertices() {
        for v in [0, 1] {
            let err = exec(&format!("gen --vertices {v} --edges 1 --out unused.txt")).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(err.to_string().contains("at least 2"), "{err}");
            assert_eq!(err.exit_code(), 2);
        }
    }

    #[test]
    fn gen_and_reload_round_trip() {
        let dir = std::env::temp_dir().join("hyve-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let path_str = path.to_str().unwrap().to_string();
        let s = exec(&format!("gen --vertices 100 --edges 500 --out {path_str}")).unwrap();
        assert!(s.contains("wrote 500 edges"));
        let s = exec(&format!("run --alg cc --input {path_str}")).unwrap();
        assert!(s.contains("MTEPS/W"));
        std::fs::remove_file(path).ok();
    }
}
