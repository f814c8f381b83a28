//! A benchmark-owned trace sink that stamps host time on engine events.
//!
//! The engine already emits `RunStart` (after the flat lookup, block plan
//! and out-degrees), one `IterationEnd` per functional iteration, `Phases`
//! (after accounting) and `RunEnd`. Stamping `Instant::now()` as each
//! arrives splits `SimulationSession::run` into plan, iterations and
//! accounting without touching the engine.

use hyve_core::{TraceEvent, TraceSink};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One stamped event.
#[derive(Debug, Clone, Copy)]
enum Mark {
    RunStart,
    IterationEnd { processed: u64, skipped: u64 },
    Phases,
    Retries(u64),
    Remap,
    RunEnd { edges: u64 },
}

/// Cloneable handle: one clone goes into the session, the other reads the
/// stamps back after each run.
#[derive(Debug, Clone, Default)]
pub struct Stamps(Arc<Mutex<Vec<(Instant, Mark)>>>);

impl TraceSink for Stamps {
    fn record(&mut self, event: &TraceEvent) {
        let now = Instant::now();
        let mark = match event {
            TraceEvent::RunStart { .. } => Mark::RunStart,
            TraceEvent::IterationEnd {
                blocks_processed,
                blocks_skipped,
                ..
            } => Mark::IterationEnd {
                processed: *blocks_processed,
                skipped: *blocks_skipped,
            },
            TraceEvent::Phases { .. } => Mark::Phases,
            TraceEvent::Reliability { retries, .. } => Mark::Retries(*retries),
            TraceEvent::BankRemap { .. } => Mark::Remap,
            TraceEvent::RunEnd {
                edges_processed, ..
            } => Mark::RunEnd {
                edges: *edges_processed,
            },
            _ => return,
        };
        self.0
            .lock()
            .expect("stamp sink poisoned")
            .push((now, mark));
    }
}

/// One traced run, split at the stamped events.
#[derive(Debug, Default)]
pub struct RunSplit {
    /// `run` call → `RunStart`: flat lookup, block plan, out-degrees.
    pub plan_s: f64,
    /// `RunStart` → last `IterationEnd`.
    pub functional_s: f64,
    /// Gaps between consecutive iteration ends (the first from `RunStart`).
    pub iteration_gaps_s: Vec<f64>,
    /// Last `IterationEnd` → `Phases`: the cost passes.
    pub accounting_s: f64,
    pub blocks_processed: u64,
    pub blocks_skipped: u64,
    pub edges_processed: u64,
    pub retries: u64,
    pub remaps: u64,
}

impl Stamps {
    /// Drains the stamps of the run that started at `call` and splits it.
    /// `None` when the event sequence is incomplete.
    pub fn take_split(&self, call: Instant) -> Option<RunSplit> {
        let marks = std::mem::take(&mut *self.0.lock().expect("stamp sink poisoned"));
        let mut split = RunSplit::default();
        let (mut start, mut last_iter, mut phases, mut end) = (None, None, None, false);
        for (at, mark) in marks {
            match mark {
                Mark::RunStart => start = Some(at),
                Mark::IterationEnd { processed, skipped } => {
                    let prev = last_iter.or(start)?;
                    split.iteration_gaps_s.push(secs(prev, at));
                    split.blocks_processed += processed;
                    split.blocks_skipped += skipped;
                    last_iter = Some(at);
                }
                Mark::Phases => phases = Some(at),
                Mark::Retries(n) => split.retries += n,
                Mark::Remap => split.remaps += 1,
                Mark::RunEnd { edges } => {
                    split.edges_processed = edges;
                    end = true;
                }
            }
        }
        let (start, last_iter, phases) = (start?, last_iter?, phases?);
        if !end {
            return None;
        }
        split.plan_s = secs(call, start);
        split.functional_s = secs(start, last_iter);
        split.accounting_s = secs(last_iter, phases);
        Some(split)
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}
