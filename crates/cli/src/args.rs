//! Hand-rolled argument parsing for the `hyve` CLI.

use crate::CliError;
use std::collections::HashMap;

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `hyve run ...`
    Run(RunArgs),
    /// `hyve compare ...`
    Compare(CompareArgs),
    /// `hyve sweep ...`
    Sweep(SweepArgs),
    /// `hyve recommend ...`
    Recommend(RecommendArgs),
    /// `hyve info ...`
    Info(SourceArgs),
    /// `hyve gen ...`
    Gen(GenArgs),
    /// `hyve report ...`
    Report(ReportArgs),
    /// `hyve help` / `--help`
    Help,
}

/// Where the graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphSource {
    /// A named scaled dataset profile (yt/wk/as/lj/tw).
    Dataset(String),
    /// A SNAP-format edge-list file.
    File(String),
}

/// Shared graph-source arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceArgs {
    /// The graph source.
    pub source: GraphSource,
    /// Generator seed for dataset profiles.
    pub seed: u64,
}

/// `hyve run` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Algorithm name (pr/bfs/cc/sssp/spmv).
    pub algorithm: String,
    /// System configuration name.
    pub config: String,
    /// Graph source.
    pub source: SourceArgs,
    /// PR iteration count.
    pub iterations: u32,
    /// SRAM capacity override (MB).
    pub sram_mb: Option<u64>,
    /// Disable data sharing.
    pub no_sharing: bool,
    /// Disable power gating.
    pub no_gating: bool,
    /// Worker threads for the simulation (1 = sequential).
    pub threads: usize,
    /// Write a JSONL trace artifact to this path.
    pub trace: Option<String>,
    /// Fault-injection spec (`seed=...,reram-ber=...,ecc=...`).
    pub faults: Option<String>,
}

/// `hyve compare` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareArgs {
    /// Algorithm name.
    pub algorithm: String,
    /// Graph source.
    pub source: SourceArgs,
    /// Worker threads for the simulation (1 = sequential).
    pub threads: usize,
}

/// `hyve sweep` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Sweep axis: sram / cells / density.
    pub what: String,
    /// Graph source.
    pub source: SourceArgs,
    /// Worker threads for the simulation (1 = sequential).
    pub threads: usize,
}

/// `hyve recommend` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct RecommendArgs {
    /// Vertex count.
    pub vertices: u64,
    /// Edge count.
    pub edges: u64,
    /// Partition count (default: planned from 2 MB SRAM).
    pub partitions: Option<u32>,
    /// Average 8×8 block occupancy (default 1.5).
    pub navg: f64,
    /// Objective: latency / energy / edp.
    pub objective: String,
}

/// `hyve report` arguments: pretty-print one trace artifact, or diff two.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportArgs {
    /// The artifact to display (JSONL written by `hyve run --trace`).
    pub artifact: String,
    /// Optional baseline artifact to diff against.
    pub baseline: Option<String>,
}

/// `hyve gen` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct GenArgs {
    /// Vertex count.
    pub vertices: u32,
    /// Edge count.
    pub edges: usize,
    /// Output path.
    pub out: String,
    /// Generator seed.
    pub seed: u64,
}

/// Splits `argv` into flag→value pairs (flags start with `--`; bare flags
/// get the value "true"), accepting only `--help` and the space-separated
/// `known` flags.
fn flags(argv: &[String], known: &str) -> Result<HashMap<String, String>, CliError> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let token = &argv[i];
        let Some(name) = token.strip_prefix("--") else {
            return Err(CliError::Usage(format!("unexpected argument '{token}'")));
        };
        if name != "help" && !known.split(' ').any(|k| k == name) {
            return Err(CliError::Usage(format!("unknown flag '{token}'")));
        }
        let boolean = matches!(name, "no-sharing" | "no-gating" | "help");
        if boolean {
            map.insert(name.to_string(), "true".to_string());
            i += 1;
        } else {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?;
            map.insert(name.to_string(), value.clone());
            i += 2;
        }
    }
    Ok(map)
}

fn get_num<T: std::str::FromStr>(
    map: &HashMap<String, String>,
    key: &str,
    default: Option<T>,
) -> Result<T, CliError> {
    match map.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| CliError::Usage(format!("--{key} got invalid value '{v}'"))),
        None => default.ok_or_else(|| CliError::Usage(format!("--{key} is required"))),
    }
}

/// `--threads`, defaulting to 1 (sequential); 0 workers cannot run.
fn get_threads(map: &HashMap<String, String>) -> Result<usize, CliError> {
    match get_num(map, "threads", Some(1usize))? {
        0 => Err(CliError::Usage("--threads must be at least 1".into())),
        n => Ok(n),
    }
}

fn get_source(map: &HashMap<String, String>) -> Result<SourceArgs, CliError> {
    let source = match (map.get("dataset"), map.get("input")) {
        (Some(d), None) => GraphSource::Dataset(d.to_lowercase()),
        (None, Some(f)) => GraphSource::File(f.clone()),
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "--dataset and --input are mutually exclusive".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "one of --dataset or --input is required".into(),
            ))
        }
    };
    Ok(SourceArgs {
        source,
        seed: get_num(map, "seed", Some(2018u64))?,
    })
}

/// Parses `argv` (without the program name).
///
/// # Errors
///
/// [`CliError::Usage`] on unknown commands or flags, missing flags or bad
/// values.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some((cmd, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    if cmd == "help" || cmd == "--help" || cmd == "-h" {
        return Ok(Command::Help);
    }
    if cmd == "report" {
        // `report` takes positionals (artifact paths), unlike the
        // flag-only commands.
        if rest.iter().any(|t| t == "--help") {
            return Ok(Command::Help);
        }
        if let Some(flag) = rest.iter().find(|t| t.starts_with("--")) {
            return Err(CliError::Usage(format!("unexpected flag '{flag}'")));
        }
        return match rest {
            [artifact] => Ok(Command::Report(ReportArgs {
                artifact: artifact.clone(),
                baseline: None,
            })),
            [artifact, baseline] => Ok(Command::Report(ReportArgs {
                artifact: artifact.clone(),
                baseline: Some(baseline.clone()),
            })),
            [] => Err(CliError::Usage(
                "report needs an artifact path (and optionally a baseline to diff)".into(),
            )),
            _ => Err(CliError::Usage(
                "report takes at most two artifact paths".into(),
            )),
        };
    }
    let known = match cmd.as_str() {
        "run" => {
            "alg config dataset input seed iters sram-mb no-sharing no-gating threads trace faults"
        }
        "compare" => "alg dataset input seed threads",
        "sweep" => "what dataset input seed threads",
        "recommend" => "vertices edges partitions navg objective",
        "info" => "dataset input seed",
        "gen" => "vertices edges out seed",
        other => return Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    let map = flags(rest, known)?;
    if map.contains_key("help") {
        return Ok(Command::Help);
    }
    match cmd.as_str() {
        "run" => Ok(Command::Run(RunArgs {
            algorithm: map
                .get("alg")
                .ok_or_else(|| CliError::Usage("--alg is required".into()))?
                .to_lowercase(),
            config: map
                .get("config")
                .map(|s| s.to_lowercase())
                .unwrap_or_else(|| "hyve-opt".into()),
            source: get_source(&map)?,
            iterations: get_num(&map, "iters", Some(10u32))?,
            sram_mb: map
                .get("sram-mb")
                .map(|v| {
                    v.parse::<u64>()
                        .map_err(|_| CliError::Usage(format!("--sram-mb got invalid value '{v}'")))
                })
                .transpose()?,
            no_sharing: map.contains_key("no-sharing"),
            no_gating: map.contains_key("no-gating"),
            threads: get_threads(&map)?,
            trace: map.get("trace").cloned(),
            faults: map.get("faults").cloned(),
        })),
        "compare" => Ok(Command::Compare(CompareArgs {
            algorithm: map
                .get("alg")
                .ok_or_else(|| CliError::Usage("--alg is required".into()))?
                .to_lowercase(),
            source: get_source(&map)?,
            threads: get_threads(&map)?,
        })),
        "sweep" => {
            let what = map
                .get("what")
                .ok_or_else(|| CliError::Usage("--what is required".into()))?
                .to_lowercase();
            if !matches!(what.as_str(), "sram" | "cells" | "density") {
                return Err(CliError::Usage(format!(
                    "unknown sweep axis '{what}' (use sram/cells/density)"
                )));
            }
            Ok(Command::Sweep(SweepArgs {
                what,
                source: get_source(&map)?,
                threads: get_threads(&map)?,
            }))
        }
        "recommend" => {
            let partitions = map
                .contains_key("partitions")
                .then(|| get_num::<u32>(&map, "partitions", None))
                .transpose()?;
            if partitions == Some(0) {
                return Err(CliError::Usage("--partitions must be at least 1".into()));
            }
            let navg = get_num(&map, "navg", Some(1.5f64))?;
            if !(navg.is_finite() && navg > 0.0) {
                return Err(CliError::Usage(format!(
                    "--navg must be a finite positive number, got {navg}"
                )));
            }
            Ok(Command::Recommend(RecommendArgs {
                vertices: get_num(&map, "vertices", None)?,
                edges: get_num(&map, "edges", None)?,
                partitions,
                navg,
                objective: map
                    .get("objective")
                    .map(|s| s.to_lowercase())
                    .unwrap_or_else(|| "energy".into()),
            }))
        }
        "info" => Ok(Command::Info(get_source(&map)?)),
        "gen" => {
            let vertices = get_num(&map, "vertices", None)?;
            // Self-loops are rejected, so one vertex admits no edge.
            if vertices < 2 {
                return Err(CliError::Usage(format!(
                    "--vertices must be at least 2, got {vertices}"
                )));
            }
            Ok(Command::Gen(GenArgs {
                vertices,
                edges: get_num(&map, "edges", None)?,
                out: map
                    .get("out")
                    .ok_or_else(|| CliError::Usage("--out is required".into()))?
                    .clone(),
                seed: get_num(&map, "seed", Some(2018u64))?,
            }))
        }
        other => unreachable!("'{other}' has no flag list"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse(&argv("run --alg pr --dataset yt")).unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.algorithm, "pr");
                assert_eq!(r.config, "hyve-opt");
                assert_eq!(r.iterations, 10);
                assert_eq!(r.source.seed, 2018);
                assert_eq!(r.source.source, GraphSource::Dataset("yt".into()));
                assert!(!r.no_sharing && !r.no_gating);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_run_with_overrides() {
        let cmd = parse(&argv(
            "run --alg bfs --config acc-dram --dataset as --iters 3 --seed 7 \
             --sram-mb 8 --no-sharing --no-gating",
        ))
        .unwrap();
        match cmd {
            Command::Run(r) => {
                assert_eq!(r.config, "acc-dram");
                assert_eq!(r.iterations, 3);
                assert_eq!(r.source.seed, 7);
                assert_eq!(r.sram_mb, Some(8));
                assert!(r.no_sharing && r.no_gating);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_threads_flag() {
        match parse(&argv("run --alg pr --dataset yt --threads 4")).unwrap() {
            Command::Run(r) => assert_eq!(r.threads, 4),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("compare --alg pr --dataset yt")).unwrap() {
            Command::Compare(c) => assert_eq!(c.threads, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("sweep --what sram --dataset yt --threads x")).is_err());
    }

    #[test]
    fn dataset_and_input_conflict() {
        let err = parse(&argv("run --alg pr --dataset yt --input g.txt")).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn missing_required_flag() {
        assert!(parse(&argv("run --dataset yt")).is_err());
        assert!(parse(&argv("recommend --vertices 10")).is_err());
        assert!(parse(&argv("gen --vertices 10 --edges 20")).is_err());
    }

    #[test]
    fn invalid_numbers_reported() {
        let err = parse(&argv("run --alg pr --dataset yt --iters lots")).unwrap_err();
        assert!(err.to_string().contains("--iters"));
    }

    #[test]
    fn help_forms() {
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("run --help")).unwrap(), Command::Help);
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(parse(&argv("frobnicate --x 1")).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        // A misspelt `--trace` must not run with defaults and write nothing.
        let err = parse(&argv("run --alg bfs --dataset yt --trce out.jsonl")).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m.contains("--trce")),
            "{err}"
        );
        // A flag another command takes is unknown here too.
        assert!(parse(&argv("info --dataset yt --alg pr")).is_err());
    }

    #[test]
    fn recommend_defaults() {
        let cmd = parse(&argv("recommend --vertices 1000 --edges 5000")).unwrap();
        match cmd {
            Command::Recommend(r) => {
                assert_eq!(r.navg, 1.5);
                assert_eq!(r.objective, "energy");
                assert_eq!(r.partitions, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn flag_without_value() {
        let err = parse(&argv("run --alg")).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn bare_positional_rejected() {
        let err = parse(&argv("run pr")).unwrap_err();
        assert!(err.to_string().contains("unexpected argument"));
    }

    #[test]
    fn parses_trace_flag() {
        match parse(&argv("run --alg pr --dataset yt --trace out.jsonl")).unwrap() {
            Command::Run(r) => assert_eq!(r.trace.as_deref(), Some("out.jsonl")),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("run --alg pr --dataset yt")).unwrap() {
            Command::Run(r) => assert_eq!(r.trace, None),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("run --alg pr --dataset yt --trace")).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn parses_faults_flag() {
        match parse(&argv(
            "run --alg pr --dataset yt --faults seed=7,reram-ber=1e-5,ecc=secded",
        ))
        .unwrap()
        {
            Command::Run(r) => assert_eq!(
                r.faults.as_deref(),
                Some("seed=7,reram-ber=1e-5,ecc=secded")
            ),
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("run --alg pr --dataset yt")).unwrap() {
            Command::Run(r) => assert_eq!(r.faults, None),
            other => panic!("unexpected {other:?}"),
        }
        let err = parse(&argv("run --alg pr --dataset yt --faults")).unwrap_err();
        assert!(err.to_string().contains("needs a value"));
    }

    #[test]
    fn parses_report_positionals() {
        match parse(&argv("report a.jsonl")).unwrap() {
            Command::Report(r) => {
                assert_eq!(r.artifact, "a.jsonl");
                assert_eq!(r.baseline, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse(&argv("report a.jsonl b.jsonl")).unwrap() {
            Command::Report(r) => {
                assert_eq!(r.artifact, "a.jsonl");
                assert_eq!(r.baseline.as_deref(), Some("b.jsonl"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(parse(&argv("report --help")).unwrap(), Command::Help);
        assert!(parse(&argv("report")).is_err());
        assert!(parse(&argv("report a b c")).is_err());
        assert!(parse(&argv("report --weird a")).is_err());
    }
}
