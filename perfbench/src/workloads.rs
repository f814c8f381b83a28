//! The three workloads: their graphs, sessions and job lists.

use crate::jobs::Alg;
use hyve_core::{FaultPlan, SimulationSession, SystemConfig};
use hyve_graph::{DatasetProfile, EdgeList};
use std::time::Instant;

/// Default seed, the one every experiment of the repository uses.
pub const DEFAULT_SEED: u64 = 2018;

/// Twitter is scaled ÷512, the other graphs ÷64 (DESIGN.md).
const TW_SCALE: u32 = 512;
const SMALL_SCALE: u32 = 64;

/// `dynamic-lj`: batches per pass and requests per batch. Each batch is
/// followed by a PageRank re-run, so mutations and re-flattening
/// alternate the way §5's working flow interleaves them. 5% of the 480 K
/// requests add a vertex, which exhausts LJ's 30% vertex reserve (22 735
/// slots) once per pass and so takes the repartition path too.
pub const DYNAMIC_BATCHES: usize = 3;
pub const DYNAMIC_BATCH_LEN: usize = 160_000;
/// §5's reserved vertex slack.
pub const VERTEX_RESERVE: f64 = 0.30;
/// `accum-tw`'s PageRank iterations. Each iteration repeats the same
/// O(P²) sweep over TW's 26 M blocks (≈1.3 s), so §7.1's ten would leave
/// one or two passes per run; one keeps every P = 5096 stage (partition,
/// flatten, block plan, sweep, accounting, the 2 GB) with about eight.
pub const ACCUM_PR_ITERATIONS: u32 = 1;

/// Who runs a job.
#[derive(Debug, Clone, Copy)]
pub enum Runner {
    /// The HyVE session at this index.
    Hyve(usize),
    /// The GraphR engine.
    Graphr,
}

#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into the workload's graphs.
    pub graph: usize,
    pub alg: Alg,
    pub runner: Runner,
}

/// How to build one session, kept so a traced twin can be built alike.
#[derive(Debug)]
pub struct SessionSpec {
    pub config: SystemConfig,
    pub faults: FaultPlan,
}

impl SessionSpec {
    fn plain(config: SystemConfig, scale: u32) -> Self {
        SessionSpec {
            config: config.with_dataset_scale(scale),
            faults: FaultPlan::none(),
        }
    }

    /// Builds the session, sequential, optionally with a trace sink.
    pub fn build(&self, sink: Option<crate::stamps::Stamps>) -> SimulationSession {
        let mut b = SimulationSession::builder(self.config.clone())
            .sequential()
            .with_faults(self.faults.clone());
        if let Some(sink) = sink {
            b = b.with_trace(sink);
        }
        b.build()
            .expect("benchmark session configurations are valid")
    }
}

#[derive(Debug)]
pub struct Workload {
    pub profiles: Vec<DatasetProfile>,
    pub specs: Vec<SessionSpec>,
    /// Empty for `dynamic-lj`, whose pass is batches of mutations each
    /// followed by a PageRank re-run on session 0.
    pub jobs: Vec<Job>,
}

impl Workload {
    pub fn is_dynamic(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn named(name: &str, seed: u64) -> Option<Workload> {
        let w = match name {
            "accum-tw" => Workload {
                profiles: vec![DatasetProfile::twitter_scaled()],
                specs: vec![SessionSpec::plain(SystemConfig::hyve_opt(), TW_SCALE)],
                jobs: vec![Job {
                    graph: 0,
                    alg: Alg::Pr(ACCUM_PR_ITERATIONS),
                    runner: Runner::Hyve(0),
                }],
            },
            "config-sweep" => {
                let mut specs: Vec<SessionSpec> = [
                    SystemConfig::acc_dram(),
                    SystemConfig::acc_reram(),
                    SystemConfig::acc_sram_dram(),
                    SystemConfig::hyve(),
                    SystemConfig::hyve_opt(),
                ]
                .into_iter()
                .map(|c| SessionSpec::plain(c, SMALL_SCALE))
                .collect();
                let faults = FaultPlan::parse(&format!(
                    "seed={seed},reram-ber=1e-4,ecc=secded,stuck-bank=0:3"
                ))
                .expect("benchmark fault plan parses");
                specs.push(SessionSpec {
                    faults,
                    ..SessionSpec::plain(SystemConfig::hyve_opt(), SMALL_SCALE)
                });
                let profiles = vec![
                    DatasetProfile::youtube_scaled(),
                    DatasetProfile::wiki_talk_scaled(),
                    DatasetProfile::as_skitter_scaled(),
                    DatasetProfile::live_journal_scaled(),
                ];
                let mut jobs = Vec::new();
                for graph in 0..profiles.len() {
                    let runners = (0..specs.len()).map(Runner::Hyve).chain([Runner::Graphr]);
                    for runner in runners {
                        for alg in Alg::ALL {
                            jobs.push(Job { graph, alg, runner });
                        }
                    }
                }
                Workload {
                    profiles,
                    specs,
                    jobs,
                }
            }
            "dynamic-lj" => Workload {
                profiles: vec![DatasetProfile::live_journal_scaled()],
                specs: vec![SessionSpec::plain(SystemConfig::hyve_opt(), SMALL_SCALE)],
                jobs: Vec::new(),
            },
            _ => return None,
        };
        Some(w)
    }

    /// One set-up: generates every graph and builds every session,
    /// returning them with the seconds each step took.
    pub fn setup(&self, seed: u64) -> Setup {
        let t = Instant::now();
        let graphs = self.profiles.iter().map(|p| p.generate(seed)).collect();
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let sessions = self.specs.iter().map(|s| s.build(None)).collect();
        let build_s = t.elapsed().as_secs_f64();
        Setup {
            graphs,
            sessions,
            generate_s,
            build_s,
        }
    }
}

pub struct Setup {
    pub graphs: Vec<EdgeList>,
    pub sessions: Vec<SimulationSession>,
    pub generate_s: f64,
    pub build_s: f64,
}
