//! Pins what the `hyve-cli` binary does for a committed list of command
//! lines (`transcript/lines.txt`): for each line, its exit code, the first
//! line of its stderr and its whole stdout, against `transcript/golden.txt`.
//!
//! On a mismatch the test prints the new transcript in full; to re-bless,
//! replace `golden.txt` with it, so the change is one reviewable diff.

use std::path::Path;
use std::process::Command;

/// Runs every line of `lines` with `tmp` substituted for `$TMP`, and
/// returns the transcript with `tmp` written back as `$TMP`, followed by
/// the bytes of every trace artifact (`$TMP/*.jsonl`) the lines wrote.
fn transcript(lines: &str, tmp: &Path) -> String {
    let tmp = tmp.to_str().expect("utf-8 temp path");
    let mut text = String::new();
    for line in lines.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let argv: Vec<String> = line
            .split_whitespace()
            .skip(1)
            .map(|a| a.replace("$TMP", tmp))
            .collect();
        let out = Command::new(env!("CARGO_BIN_EXE_hyve-cli"))
            .args(&argv)
            .output()
            .expect("spawn hyve-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let stdout = String::from_utf8_lossy(&out.stdout);
        text += &format!(
            "$ {line}\nexit: {}\nstderr: {}\n{}\n",
            out.status.code().map_or("signal".into(), |c| c.to_string()),
            stderr.lines().next().unwrap_or("").replace(tmp, "$TMP"),
            stdout.replace(tmp, "$TMP"),
        );
    }
    // The report rounds floats, so the artifacts' exact `*_bits` fields
    // are pinned here, byte for byte.
    let mut artifacts: Vec<_> = std::fs::read_dir(tmp)
        .expect("read temp dir")
        .map(|entry| entry.expect("temp dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    artifacts.sort();
    for path in artifacts {
        let name = path.file_name().unwrap().to_string_lossy();
        let bytes = std::fs::read_to_string(&path).expect("read artifact");
        text += &format!("$ cat $TMP/{name}\n{bytes}\n");
    }
    text
}

#[test]
fn cli_transcript_matches_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/transcript");
    let lines = std::fs::read_to_string(dir.join("lines.txt")).unwrap();
    let golden = std::fs::read_to_string(dir.join("golden.txt")).unwrap_or_default();
    let tmp = std::env::temp_dir().join(format!("hyve-cli-transcript-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let actual = transcript(&lines, &tmp);
    std::fs::remove_dir_all(&tmp).ok();
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        eprintln!("----- new transcript -----\n{actual}----- end of new transcript -----");
        panic!(
            "the CLI transcript differs from tests/transcript/golden.txt at line {}",
            first + 1
        );
    }
}
