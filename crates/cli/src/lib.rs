//! # hyve-cli — command-line interface for the HyVE simulator
//!
//! ```text
//! hyve run --alg pr --config hyve-opt --dataset yt      run one workload
//! hyve compare --alg bfs --dataset as                   all hierarchies + GraphR + CPU
//! hyve sweep --what sram --dataset lj                   design-space sweeps
//! hyve recommend --vertices 1000000 --edges 30000000    §6.6 design advisor
//! hyve info --dataset tw                                dataset statistics
//! hyve gen --vertices 1000 --edges 8000 --out g.txt     write a SNAP file
//! ```
//!
//! The argument parser is hand-rolled (no external dependencies) and fully
//! unit-tested; `main.rs` is a thin shim over [`run_cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::fmt;

/// CLI-level error: bad usage or a failure bubbling up from the library.
#[derive(Debug)]
pub enum CliError {
    /// The arguments did not parse; the message includes usage help.
    Usage(String),
    /// The underlying operation failed.
    Failed(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Failed(m) => write!(f, "error: {m}"),
        }
    }
}

impl CliError {
    /// Process exit code for this error: `2` for usage errors (matching the
    /// common Unix convention, e.g. `grep`/`bash`), `1` for runtime failures.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Failed(_) => 1,
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `argv` (without the program name) and executes the command,
/// writing human-readable output to `out`.
///
/// # Errors
///
/// [`CliError::Usage`] on malformed arguments; [`CliError::Failed`] when an
/// engine or I/O operation fails.
pub fn run_cli<W: std::io::Write>(argv: &[String], out: &mut W) -> Result<(), CliError> {
    let cmd = args::parse(argv)?;
    commands::execute(cmd, out)
}

/// Top-level usage text.
pub const USAGE: &str = "\
hyve — Hybrid Vertex-Edge memory hierarchy simulator

USAGE:
  hyve run       --alg <pr|bfs|cc|sssp|spmv|degree> [--config <name>] (--dataset <tag> | --input <file>)
                 [--iters N] [--seed N] [--sram-mb N] [--no-sharing] [--no-gating] [--threads N]
                 [--trace <file.jsonl>] [--faults <spec>]
  hyve report    <artifact.jsonl> [<baseline.jsonl>]
  hyve compare   --alg <name> (--dataset <tag> | --input <file>) [--seed N] [--threads N]
  hyve sweep     --what <sram|cells|density> (--dataset <tag> | --input <file>) [--threads N]
  hyve recommend --vertices N --edges M [--partitions P] [--navg X] [--objective <latency|energy|edp>]
  hyve info      (--dataset <tag> | --input <file>)
  hyve gen       --vertices N --edges M --out <file> [--seed N]

datasets: yt, wk, as, lj, tw (scaled stand-ins for the paper's Table 2)
configs : acc-dram, acc-reram, acc-sram-dram, hyve, hyve-opt (default)

`run --trace` records a per-iteration metrics artifact (JSONL); `report`
pretty-prints one artifact, or diffs two (energy/latency deltas per channel).

`run --faults` injects a deterministic fault model, e.g.
  --faults seed=7,reram-ber=1e-5,dram-ber=1e-9,ecc=secded,retries=3
keys: seed, reram-ber, dram-ber, sram-ber, ecc=<none|secded|bch>, retries,
wear-limit, stuck-bank=CHIP:BANK (repeatable). Same seed, same counts —
corrections, retries and bank remaps land in the report and trace artifact.
";
