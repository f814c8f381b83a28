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

/// Runs the whitespace-separated `line`, asserts it is a usage error
/// caught before anything is printed, and returns its stderr.
fn assert_usage_error_before_output(line: &str) -> String {
    let args: Vec<&str> = line.split_whitespace().collect();
    let out = run(&args);
    assert_eq!(out.status.code(), Some(2), "{line}: {out:?}");
    assert!(out.stdout.is_empty(), "{line} printed {out:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_values_are_rejected_before_loading_the_graph() {
    for line in [
        "sweep --what nope --dataset yt",
        "sweep --what sram --dataset yt --threads 0",
        "compare --alg bfs --dataset yt --threads 0",
        "recommend --vertices 1000 --edges 5000 --navg nan",
        "recommend --vertices 1000 --edges 5000 --navg inf",
        "recommend --vertices 1000 --edges 5000 --navg 0",
        "recommend --vertices 1000 --edges 5000 --partitions 0",
        // A missing input file is a runtime failure (exit 1), so exit 2
        // here shows the bad value was caught before the file was opened.
        "run --alg pr --input /nonexistent/graph.txt --config nope",
        "run --alg pr --input /nonexistent/graph.txt --faults seed=x",
        "run --alg pr --input /nonexistent/graph.txt --threads 0",
        "run --alg pr --input /nonexistent/graph.txt --iters 0",
        "run --alg pr --input /nonexistent/graph.txt --sram-mb 0",
        "run --alg pr --input /nonexistent/graph.txt --sram-mb 17592186044416",
        "run --alg cc --input /nonexistent/graph.txt --seed 7",
        "info --input /nonexistent/graph.txt --seed 7",
    ] {
        assert_usage_error_before_output(line);
    }
}

#[test]
fn sram_capacity_that_overflows_bytes_exits_two() {
    // 2^64 − 1 MB wrapped to a huge bogus capacity; 2^44 MB wrapped to 0.
    for mb in ["18446744073709551615", "17592186044416"] {
        let line = format!("run --alg pr --dataset yt --iters 1 --sram-mb {mb}");
        let stderr = assert_usage_error_before_output(&line);
        assert!(stderr.contains("overflows"), "{mb}: {stderr}");
    }
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

/// `/dev/full` accepts the open and fails every write with ENOSPC, so
/// only a flushed writer sees the failure.
#[cfg(target_os = "linux")]
#[test]
fn gen_reports_a_failed_write() {
    let out = run(&[
        "gen",
        "--vertices",
        "100",
        "--edges",
        "500",
        "--out",
        "/dev/full",
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "gen claimed a write: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("write /dev/full"), "{stderr}");
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

/// `info` plans the P a run plans, so it stops where a run on the same
/// graph stops: two vertices give two intervals, fewer than the 8 PUs.
#[test]
fn info_fails_like_run_on_a_graph_it_cannot_schedule() {
    let dir = std::env::temp_dir().join("hyve-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("two-vertices.txt");
    let input = path.to_str().unwrap();
    let out = run(&["gen", "--vertices", "2", "--edges", "1", "--out", input]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let errors: Vec<String> = [&["info"][..], &["run", "--alg", "bfs"]]
        .into_iter()
        .map(|command| {
            let out = run(&[command, &["--input", input]].concat());
            assert_eq!(out.status.code(), Some(1), "{command:?}: {out:?}");
            String::from_utf8_lossy(&out.stderr).into_owned()
        })
        .collect();
    assert_eq!(errors[0], errors[1]);
    assert!(
        errors[0].contains("graph not schedulable: 2 intervals < 8 processing units"),
        "{}",
        errors[0]
    );
    std::fs::remove_file(path).ok();
}
