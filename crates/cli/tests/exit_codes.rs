//! Exit-code contract for the `hyve-cli` binary: usage errors exit `2`,
//! runtime failures exit `1`, success exits `0`.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_hyve-cli"))
        .args(args)
        .output()
        .expect("spawn hyve-cli")
}

#[test]
fn help_exits_zero() {
    let out = run(&["help"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn usage_errors_exit_two() {
    // Unknown subcommand.
    let out = run(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Missing required flag.
    let out = run(&["run", "--dataset", "yt"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Usage errors echo the usage text to stderr.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("USAGE"), "{stderr}");
}

#[test]
fn runtime_failures_exit_one() {
    // The arguments parse fine; the input file simply does not exist.
    let out = run(&["run", "--alg", "pr", "--input", "/nonexistent/graph.txt"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("USAGE"),
        "runtime failures should not dump usage: {stderr}"
    );
}

#[test]
fn report_on_unparsable_artifact_exits_one() {
    let dir = std::env::temp_dir().join("hyve-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage.jsonl");
    std::fs::write(&path, "this is not a trace artifact\n").unwrap();
    let out = run(&["report", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    std::fs::remove_file(path).ok();
}

#[test]
fn graph_without_vertices_exits_one_for_every_command() {
    let dir = std::env::temp_dir().join("hyve-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.txt");
    std::fs::write(&path, "").unwrap();
    let input = path.to_str().unwrap();
    for command in [
        &["info"][..],
        &["run", "--alg", "pr"],
        &["compare", "--alg", "bfs"],
        &["sweep", "--what", "sram"],
    ] {
        let out = run(&[command, &["--input", input]].concat());
        assert_eq!(out.status.code(), Some(1), "{command:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("graph error: graph has no vertices"),
            "{command:?}: {stderr}"
        );
    }
    std::fs::remove_file(path).ok();
}
