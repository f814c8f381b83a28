//! # hyve-cli — command-line interface for the HyVE simulator
//!
//! ```text
//! hyve run --alg pr --config hyve-opt --dataset yt      run one workload
//! hyve report trace.jsonl [baseline.jsonl]              print or diff a trace artifact
//! hyve compare --alg bfs --dataset as                   all hierarchies + GraphR + CPU
//! hyve sweep --what sram --dataset lj                   design-space sweeps
//! hyve recommend --vertices 1000000 --edges 30000000    §6.6 design advisor
//! hyve info --dataset tw                                dataset statistics
//! hyve gen --vertices 1000 --edges 8000 --out g.txt     write a SNAP file
//! ```
//!
//! A hand-rolled splitter (no external dependencies) turns argv into flags.
//! Each command reads and checks every flag it takes before it loads a
//! graph, and `tests/transcript.rs` pins what each command prints and
//! exits with. `main.rs` is a thin shim over [`run_cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

use args::Flags;
use std::fmt;
use std::io::Write;

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
pub fn run_cli(argv: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (name, rest) = match argv.split_first() {
        Some((name, rest)) if !matches!(name.as_str(), "help" | "--help" | "-h") => (name, rest),
        _ => return commands::help(out),
    };
    if name == "report" {
        return commands::report(rest, out);
    }
    let (_, known, command) = COMMANDS
        .iter()
        .find(|(command, ..)| command == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command '{name}'")))?;
    let flags = Flags::parse(rest, known)?;
    if flags.get("help").is_some() {
        return commands::help(out);
    }
    command(&flags, out)
}

/// A command that takes only flags, given the flags it was called with.
type CommandFn = fn(&Flags, &mut dyn Write) -> Result<(), CliError>;

/// Each flag-only command: its name, the flags it takes and its function.
/// (`report` takes positional paths; [`run_cli`] hands it the rest of argv.)
const COMMANDS: [(&str, &str, CommandFn); 6] = [
    (
        "run",
        "alg config dataset input seed iters sram-mb no-sharing no-gating threads trace faults",
        commands::run,
    ),
    (
        "compare",
        "alg dataset input seed threads",
        commands::compare,
    ),
    ("sweep", "what dataset input seed threads", commands::sweep),
    (
        "recommend",
        "vertices edges partitions navg objective",
        commands::recommend,
    ),
    ("info", "dataset input seed", commands::info),
    ("gen", "vertices edges out seed", commands::gen),
];

/// Top-level usage text.
pub const USAGE: &str = "\
hyve — Hybrid Vertex-Edge memory hierarchy simulator

USAGE:
  hyve run       --alg <pr|bfs|cc|sssp|spmv|degree> [--config <name>] (--dataset <tag> | --input <file>)
                 [--iters N] [--seed N] [--sram-mb N] [--no-sharing] [--no-gating] [--threads N]
                 [--trace <file.jsonl>] [--faults <spec>]
  hyve report    <artifact.jsonl> [<baseline.jsonl>]
  hyve compare   --alg <name> (--dataset <tag> | --input <file>) [--seed N] [--threads N]
  hyve sweep     --what <sram|cells|density> (--dataset <tag> | --input <file>) [--seed N]
                 [--threads N]
  hyve recommend --vertices N --edges M [--partitions P] [--navg X] [--objective <latency|energy|edp>]
  hyve info      (--dataset <tag> | --input <file>) [--seed N]
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every flag a command takes is on its usage line, and no other.
    #[test]
    fn usage_lists_exactly_each_commands_flags() {
        for (name, known, _) in COMMANDS {
            // The command's line and its indented continuation lines.
            let mut lines = USAGE
                .lines()
                .skip_while(|l| !l.starts_with(&format!("  hyve {name} ")));
            let first = lines
                .next()
                .unwrap_or_else(|| panic!("no usage line for {name}"));
            let text = lines
                .take_while(|l| l.starts_with("    "))
                .fold(first.to_string(), |text, l| text + l);
            let listed: BTreeSet<&str> = (text
                .split(|c: char| c.is_whitespace() || "[]()|".contains(c)))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
            let taken: BTreeSet<&str> = known.split(' ').collect();
            assert_eq!(listed, taken, "usage line of {name}");
        }
    }
}
