//! Hand-rolled flag splitting and typed flag readers for the `hyve` CLI.
//! Each command reads and checks every flag it takes at its top, through
//! [`Flags`], before it loads a graph.

use crate::CliError;
use hyve_graph::DatasetProfile;
use std::collections::HashMap;
use std::str::FromStr;

/// One command's flags: each flag's name mapped to its value (`"true"` for
/// the bare flags).
pub(crate) struct Flags(HashMap<String, String>);

/// Where the graph comes from.
pub(crate) enum Source {
    /// A scaled dataset profile and its generator seed.
    Dataset(DatasetProfile, u64),
    /// A SNAP-format edge-list file.
    File(String),
}

impl Source {
    /// The dataset's down-scaling factor; 1 for a file.
    pub(crate) fn scale(&self) -> u32 {
        match self {
            Source::Dataset(profile, _) => profile.scale,
            Source::File(_) => 1,
        }
    }
}

impl Flags {
    /// Splits `argv` into flags (each starts with `--`), accepting only
    /// `--help` and the space-separated `known` flags.
    pub(crate) fn parse(argv: &[String], known: &str) -> Result<Self, CliError> {
        let mut map = HashMap::new();
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                return Err(CliError::Usage(format!("unexpected argument '{token}'")));
            };
            if name != "help" && !known.split(' ').any(|k| k == name) {
                return Err(CliError::Usage(format!("unknown flag '{token}'")));
            }
            let value = if matches!(name, "no-sharing" | "no-gating" | "help") {
                "true"
            } else {
                tokens
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("flag --{name} needs a value")))?
            };
            map.insert(name.to_string(), value.to_string());
        }
        Ok(Flags(map))
    }

    /// The value of `--key`, if given.
    pub(crate) fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    /// The value of `--key` parsed as `T`, if given.
    pub(crate) fn num<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.get(key)
            .map(|v| {
                v.parse()
                    .map_err(|_| CliError::Usage(format!("--{key} got invalid value '{v}'")))
            })
            .transpose()
    }

    /// The value of `--key` parsed as `T`; the flag must be given.
    pub(crate) fn required<T: FromStr>(&self, key: &str) -> Result<T, CliError> {
        self.num(key)?
            .ok_or_else(|| CliError::Usage(format!("--{key} is required")))
    }

    /// The value of `--key` as a count, if given; a count of 0 is a usage
    /// error.
    pub(crate) fn count<T: FromStr + From<u8> + PartialEq>(
        &self,
        key: &str,
    ) -> Result<Option<T>, CliError> {
        match self.num(key)? {
            Some(n) if n == T::from(0) => {
                Err(CliError::Usage(format!("--{key} must be at least 1")))
            }
            n => Ok(n),
        }
    }

    /// `--threads`, defaulting to 1 (sequential).
    pub(crate) fn threads(&self) -> Result<usize, CliError> {
        Ok(self.count("threads")?.unwrap_or(1))
    }

    /// The graph source: `--dataset` (with `--seed`, default 2018) or
    /// `--input` (without `--seed`), exactly one of them.
    pub(crate) fn source(&self) -> Result<Source, CliError> {
        let seed = self.num("seed")?.unwrap_or(2018);
        match (self.get("dataset"), self.get("input")) {
            (Some(tag), None) => DatasetProfile::all()
                .into_iter()
                .find(|p| p.tag.eq_ignore_ascii_case(tag))
                .map(|profile| Source::Dataset(profile, seed))
                .ok_or_else(|| {
                    CliError::Usage(format!(
                        "unknown dataset '{}' (use yt/wk/as/lj/tw)",
                        tag.to_lowercase()
                    ))
                }),
            (None, Some(path)) if self.get("seed").is_none() => Ok(Source::File(path.to_string())),
            (None, Some(_)) => Err(CliError::Usage(
                "--seed and --input are mutually exclusive (a file has no seed)".into(),
            )),
            (Some(_), Some(_)) => Err(CliError::Usage(
                "--dataset and --input are mutually exclusive".into(),
            )),
            (None, None) => Err(CliError::Usage(
                "one of --dataset or --input is required".into(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(line: &str, known: &str) -> Result<Flags, CliError> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::parse(&argv, known)
    }

    #[test]
    fn threads_default_to_one_and_reject_zero_and_garbage() {
        assert_eq!(flags("", "threads").unwrap().threads().unwrap(), 1);
        assert_eq!(
            flags("--threads 4", "threads").unwrap().threads().unwrap(),
            4
        );
        for bad in ["--threads 0", "--threads x"] {
            assert!(flags(bad, "threads").unwrap().threads().is_err(), "{bad}");
        }
    }

    #[test]
    fn source_defaults_the_seed_and_knows_the_scale_before_loading() {
        let known = "dataset input seed";
        let tw = flags("--dataset tw", known).unwrap().source().unwrap();
        let Source::Dataset(profile, seed) = &tw else {
            panic!("--dataset read as a file");
        };
        assert_eq!((profile.tag, *seed), ("TW", 2018));
        assert_eq!((tw.scale(), profile.scale), (512, 512));
        let file = flags("--input g.txt", known).unwrap().source().unwrap();
        assert!(matches!(&file, Source::File(p) if p == "g.txt"));
        assert_eq!(file.scale(), 1);
    }

    #[test]
    fn seed_with_input_is_a_usage_error_naming_both_flags() {
        let known = "dataset input seed";
        let Err(CliError::Usage(message)) =
            flags("--input g.txt --seed 7", known).unwrap().source()
        else {
            panic!("--seed with --input was accepted");
        };
        assert!(message.contains("--seed") && message.contains("--input"));
    }
}
