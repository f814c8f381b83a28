//! Regression tests for the NaN convergence guard.
//!
//! The convergence check compares old and new vertex values with
//! `PartialEq`. A user program that lets an IEEE NaN escape `merge` or
//! `apply` would — without a guard — register as "changed" on every
//! iteration (`NaN != NaN`) and spin every converge-bound run to its
//! iteration cap. The engine treats a value that is not equal to itself as
//! *unchanged* (see the `Monotone` invariants on
//! `hyve_algorithms::ExecutionMode`), so such a program terminates
//! immediately instead.

use hyve_algorithms::{EdgeProgram, ExecutionMode, GraphMeta, IterationBound};
use hyve_core::{RunReport, SharedRecorder, SimulationSession, SystemConfig, TraceEvent};
use hyve_graph::{Edge, EdgeList, GridGraph, VertexId};

const CAP: u32 = 40;

fn line_graph() -> EdgeList {
    EdgeList::from_edges(32, (0..31).map(|i| Edge::new(i, i + 1))).unwrap()
}

/// Runs `program` over the 32-vertex line at P = 8 on a traced session,
/// returning the report, the values and each iteration's `changed` flag.
fn run<P: EdgeProgram>(program: &P) -> (RunReport, Vec<P::Value>, Vec<bool>) {
    let recorder = SharedRecorder::new();
    let (report, values) = SimulationSession::builder(SystemConfig::hyve())
        .with_trace(recorder.clone())
        .build()
        .expect("preset configuration is valid")
        .run_with_values(program, &GridGraph::partition(&line_graph(), 8).unwrap())
        .unwrap();
    let changed = recorder
        .artifact()
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IterationEnd { changed, .. } => Some(*changed),
            _ => None,
        })
        .collect();
    (report, values, changed)
}

/// A malformed monotone program: every scattered message is NaN, and its
/// merge propagates NaN instead of ignoring it.
struct NanMonotone;

impl EdgeProgram for NanMonotone {
    type Value = f32;
    fn name(&self) -> &'static str {
        "NanMonotone"
    }
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Monotone
    }
    fn bound(&self) -> IterationBound {
        IterationBound::Converge { max: CAP }
    }
    fn value_bits(&self) -> u32 {
        32
    }
    fn init(&self, v: VertexId, _: &GraphMeta) -> f32 {
        if v.raw() == 0 {
            0.0
        } else {
            f32::INFINITY
        }
    }
    fn identity(&self) -> f32 {
        f32::INFINITY
    }
    fn scatter(&self, _: f32, _: &Edge, _: &GraphMeta) -> f32 {
        f32::NAN
    }
    fn merge(&self, current: f32, message: f32) -> f32 {
        // Deliberately NaN-propagating (unlike f32::min, which drops NaN).
        if message.is_nan() || message < current {
            message
        } else {
            current
        }
    }
    fn apply(&self, _: VertexId, _: f32, _: f32, _: &GraphMeta) -> f32 {
        unreachable!("monotone programs never see apply")
    }
}

/// A malformed accumulate program whose `apply` always yields NaN.
struct NanAccumulate;

impl EdgeProgram for NanAccumulate {
    type Value = f32;
    fn name(&self) -> &'static str {
        "NanAccumulate"
    }
    fn mode(&self) -> ExecutionMode {
        ExecutionMode::Accumulate
    }
    fn bound(&self) -> IterationBound {
        IterationBound::Converge { max: CAP }
    }
    fn value_bits(&self) -> u32 {
        32
    }
    fn init(&self, _: VertexId, _: &GraphMeta) -> f32 {
        1.0
    }
    fn identity(&self) -> f32 {
        0.0
    }
    fn scatter(&self, src: f32, _: &Edge, _: &GraphMeta) -> f32 {
        src
    }
    fn merge(&self, a: f32, b: f32) -> f32 {
        a + b
    }
    fn apply(&self, _: VertexId, _: f32, _: f32, _: &GraphMeta) -> f32 {
        f32::NAN
    }
}

#[test]
fn nan_emitting_monotone_program_terminates_immediately() {
    let (report, _, changed) = run(&NanMonotone);
    // Without the guard this spins to the 40-iteration cap; NaN messages
    // never register as change, so the run converges after one pass.
    assert_eq!(report.iterations, 1);
    assert_eq!(changed, vec![false]);
}

#[test]
fn nan_emitting_accumulate_program_terminates_immediately() {
    let (report, values, changed) = run(&NanAccumulate);
    assert_eq!(report.iterations, 1);
    assert_eq!(changed, vec![false]);
    // The NaN still lands in the stored values — the guard only stops the
    // convergence spin, it does not sanitise program output.
    assert!(values.iter().all(|v| v.is_nan()));
}

/// Well-formed converge-bound programs still iterate normally — the guard
/// must not eat legitimate changes.
#[test]
fn guard_does_not_suppress_real_convergence() {
    let (report, values, changed) = run(&hyve_algorithms::Bfs::new(VertexId::new(0)));
    assert!(report.iterations > 1);
    assert_eq!(changed.len() as u32, report.iterations);
    assert!(changed[0]);
    assert!(!changed[changed.len() - 1]);
    assert_eq!(values[31], 31);
}
