//! Structured run observability: typed trace events, pluggable sinks, and
//! a versioned JSONL metrics artifact.
//!
//! The paper's evaluation (Figs. 14–21, Table 4) is a set of derived views
//! over one run — phase times, per-channel energy, gating transitions.
//! This module turns those views into data: the engine feeds typed
//! [`TraceEvent`]s to a [`TraceSink`] attached via
//! [`SessionBuilder::with_trace`](crate::SessionBuilder::with_trace). The
//! bundled sink is the [`TraceArtifact`] itself (held through a
//! [`SharedRecorder`]): it aggregates the events, serializes to a
//! versioned JSONL file ([`SCHEMA`]) and diffs against another artifact.
//!
//! ## Observation never perturbs accounting
//!
//! Tracing is strictly read-only: every event carries *copies* of values
//! the engine computed anyway, emitted after the fact.
//! [`RunReport`](crate::RunReport)s are
//! bit-identical with a sink attached or not (the golden suite pins this),
//! and with no sink attached the only residue on the hot path is a pair of
//! per-block `u64` increments. perfbench's `core.trace_overhead` metric
//! times a job on a traced session against the same job untraced.
//!
//! ## Exactness
//!
//! Floats in the artifact are serialized twice: a human-readable decimal
//! field (`*_ns` / `*_pj`) and an exact `f64::to_bits` hex field
//! (`*_bits`). The parser reads the hex field, so a round-tripped artifact
//! is bit-identical to its source and a self-diff is exactly zero.

use crate::controller::BankRemap;
use crate::stats::PhaseTimes;
use hyve_memsim::{AccessStats, Energy, Time};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Version tag of the JSONL artifact schema. Bump when the line shapes
/// change incompatibly; [`TraceArtifact::from_jsonl`] rejects other tags.
pub const SCHEMA: &str = "hyve-trace/1";

/// The hierarchy channel a ledger snapshot belongs to — the Fig. 17
/// categories, mirroring [`EnergyBreakdown`](crate::EnergyBreakdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceChannel {
    /// Edge-memory channel.
    EdgeMemory,
    /// Off-chip (global) vertex memory.
    OffchipVertex,
    /// On-chip (local) vertex memory.
    OnchipVertex,
    /// Processing units, router, controller.
    Logic,
}

impl TraceChannel {
    /// All four channels in report order.
    pub const ALL: [TraceChannel; 4] = [
        TraceChannel::EdgeMemory,
        TraceChannel::OffchipVertex,
        TraceChannel::OnchipVertex,
        TraceChannel::Logic,
    ];

    /// Stable artifact name of the channel.
    pub fn name(self) -> &'static str {
        match self {
            TraceChannel::EdgeMemory => "edge_memory",
            TraceChannel::OffchipVertex => "offchip_vertex",
            TraceChannel::OnchipVertex => "onchip_vertex",
            TraceChannel::Logic => "logic",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<TraceChannel> {
        TraceChannel::ALL.into_iter().find(|c| c.name() == name)
    }
}

impl fmt::Display for TraceChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One typed observation the engine emits during a run.
///
/// Events arrive in a fixed order: one [`RunStart`](TraceEvent::RunStart),
/// one [`IterationEnd`](TraceEvent::IterationEnd) per executed iteration,
/// then the run-total records ([`Phases`](TraceEvent::Phases), one
/// [`ChannelLedger`](TraceEvent::ChannelLedger) per channel, optional
/// [`GatingTransitions`](TraceEvent::GatingTransitions),
/// [`RouterTraffic`](TraceEvent::RouterTraffic), and — on fault runs —
/// [`Reliability`](TraceEvent::Reliability) plus one
/// [`BankRemap`](TraceEvent::BankRemap) per spared bank) and a closing
/// [`RunEnd`](TraceEvent::RunEnd).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A run began.
    RunStart {
        /// Algorithm name.
        algorithm: &'static str,
        /// Configuration name.
        config: &'static str,
        /// Vertices in the graph.
        num_vertices: u32,
        /// Edges in the graph.
        num_edges: u64,
        /// Interval partition count `P`.
        intervals: u32,
        /// Processing units `N`.
        num_pus: u32,
    },
    /// One functional iteration finished its reduce.
    IterationEnd {
        /// 1-based iteration index.
        iteration: u32,
        /// Whether any vertex value changed.
        changed: bool,
        /// Non-empty blocks the PUs actually walked.
        blocks_processed: u64,
        /// Non-empty blocks elided by dirty-interval skipping.
        blocks_skipped: u64,
    },
    /// Run-total phase time split (already scaled by iterations).
    Phases {
        /// The report's phase times.
        phases: PhaseTimes,
    },
    /// Final ledger of one hierarchy channel (post scaling + background).
    ChannelLedger {
        /// Which channel.
        channel: TraceChannel,
        /// The channel's access statistics.
        stats: AccessStats,
    },
    /// Power-gating sleep/wake transition pairs charged over the run.
    GatingTransitions {
        /// Transition-pair count.
        transitions: u64,
    },
    /// Inter-PU router traffic over the run.
    RouterTraffic {
        /// 32-bit words forwarded between PUs.
        words: u64,
        /// Reroute steps taken.
        reroutes: u64,
    },
    /// Run-total ECC escalation counters, emitted only when a
    /// [`FaultPlan`](hyve_memsim::FaultPlan) was active.
    Reliability {
        /// Bit errors corrected in-line by ECC.
        corrected: u64,
        /// Detectable-but-uncorrectable errors.
        uncorrectable: u64,
        /// Total re-read attempts across all uncorrectable errors.
        retries: u64,
    },
    /// One edge bank remapped onto a spare; emitted once per remap, in
    /// escalation order, only when a fault plan was active.
    BankRemap {
        /// Failed bank's chip index.
        chip: u32,
        /// Failed bank's index within its chip.
        bank: u32,
        /// Spare bank's chip index.
        spare_chip: u32,
        /// Spare bank's index within its chip.
        spare_bank: u32,
    },
    /// The run completed.
    RunEnd {
        /// Iterations executed.
        iterations: u32,
        /// Total edge traversals.
        edges_processed: u64,
    },
}

/// Receiver of [`TraceEvent`]s.
///
/// Implementations must be `Send`: a sink attached to a session may be
/// driven from whichever thread runs the engine.
pub trait TraceSink: Send {
    /// Receives one event. Called synchronously from the engine; keep it
    /// cheap or buffer internally.
    fn record(&mut self, event: &TraceEvent);
}

/// A cloneable, thread-safe handle to an attached [`TraceSink`], stored in
/// the session and threaded through the engine.
#[derive(Clone)]
pub(crate) struct SharedSink(Arc<Mutex<dyn TraceSink>>);

impl SharedSink {
    /// Wraps a sink for sharing with the session.
    pub(crate) fn new(sink: impl TraceSink + 'static) -> SharedSink {
        SharedSink(Arc::new(Mutex::new(sink)))
    }

    /// Forwards one event to the wrapped sink.
    pub(crate) fn record(&self, event: &TraceEvent) {
        self.0.lock().expect("trace sink poisoned").record(event);
    }
}

impl fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedSink(..)")
    }
}

/// One iteration's sample in the artifact's time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationSample {
    /// 1-based iteration index.
    pub iteration: u32,
    /// Whether any vertex value changed.
    pub changed: bool,
    /// Non-empty blocks walked.
    pub blocks_processed: u64,
    /// Non-empty blocks skipped as clean.
    pub blocks_skipped: u64,
}

/// Final access totals of one channel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSeries {
    /// Which channel.
    pub channel: TraceChannel,
    /// Run-total access statistics.
    pub stats: AccessStats,
}

/// Router traffic totals over the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterTotals {
    /// 32-bit words forwarded between PUs.
    pub words: u64,
    /// Reroute steps taken.
    pub reroutes: u64,
}

/// Reliability totals of a fault run: the escalation counters plus every
/// bank remap, in escalation order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReliabilityTotals {
    /// Bit errors corrected in-line by ECC.
    pub corrected: u64,
    /// Detectable-but-uncorrectable errors.
    pub uncorrectable: u64,
    /// Total re-read attempts across all uncorrectable errors.
    pub retries: u64,
    /// Edge banks remapped onto spares.
    pub remaps: Vec<BankRemap>,
}

/// Aggregated metrics of one run, and the JSONL artifact's in-memory form.
///
/// The artifact is also the bundled [`TraceSink`]: it records the event
/// stream of the most recent run, and a new [`TraceEvent::RunStart`] resets
/// it, so a session that runs several programs leaves the last run's
/// artifact behind. Attach it through a [`SharedRecorder`] to read it back
/// after the run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceArtifact {
    /// Algorithm name.
    pub algorithm: String,
    /// Configuration name.
    pub config: String,
    /// Vertices in the graph.
    pub num_vertices: u32,
    /// Edges in the graph.
    pub num_edges: u64,
    /// Interval partition count `P`.
    pub intervals: u32,
    /// Processing units `N`.
    pub num_pus: u32,
    /// Iterations executed.
    pub iterations_total: u32,
    /// Total edge traversals.
    pub edges_processed: u64,
    /// Per-iteration time series.
    pub iterations: Vec<IterationSample>,
    /// Run-total phase times.
    pub phases: PhaseTimes,
    /// Final per-channel ledgers, in report order.
    pub channels: Vec<ChannelSeries>,
    /// Power-gating transition pairs, when gating was on.
    pub gating_transitions: Option<u64>,
    /// Router traffic, when data sharing was on.
    pub router: Option<RouterTotals>,
    /// Reliability counters and remaps, when a fault plan was active.
    pub reliability: Option<ReliabilityTotals>,
}

/// Escapes a string for a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// One parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Str(String),
    Num(String),
    Bool(bool),
}

/// Parses one flat JSON object (string/number/bool values only — all the
/// schema needs, so no external JSON dependency).
fn parse_flat_object(line: &str) -> Result<HashMap<String, JsonValue>, String> {
    let mut chars = line.trim().chars().peekable();
    let mut map = HashMap::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while chars.peek().is_some_and(|c| c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected '\"'".into());
            }
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some('u') => {
                            let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                            let code =
                                u32::from_str_radix(&hex, 16).map_err(|_| "bad \\u escape")?;
                            s.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    },
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected '{'".into());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonValue::Str(parse_string(&mut chars)?),
            Some('t') | Some('f') => {
                let word: String =
                    std::iter::from_fn(|| chars.next_if(|c| c.is_ascii_alphabetic())).collect();
                match word.as_str() {
                    "true" => JsonValue::Bool(true),
                    "false" => JsonValue::Bool(false),
                    other => return Err(format!("bad literal {other:?}")),
                }
            }
            Some(_) => {
                let tok: String = std::iter::from_fn(|| {
                    chars.next_if(|c| !matches!(c, ',' | '}') && !c.is_whitespace())
                })
                .collect();
                if tok.is_empty() {
                    return Err(format!("missing value for key {key:?}"));
                }
                JsonValue::Num(tok)
            }
            None => return Err("unexpected end of line".into()),
        };
        map.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected ',' or '}}', got {other:?}")),
        }
    }
    Ok(map)
}

/// Field accessors over a parsed line.
struct Fields<'a>(&'a HashMap<String, JsonValue>);

impl Fields<'_> {
    fn str(&self, key: &str) -> Result<&str, String> {
        match self.0.get(key) {
            Some(JsonValue::Str(s)) => Ok(s),
            _ => Err(format!("missing string field {key:?}")),
        }
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        match self.0.get(key) {
            Some(JsonValue::Num(n)) => n.parse().map_err(|_| format!("field {key:?} is not a u64")),
            _ => Err(format!("missing numeric field {key:?}")),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        self.u64(key)?
            .try_into()
            .map_err(|_| format!("field {key:?} overflows u32"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        match self.0.get(key) {
            Some(JsonValue::Bool(b)) => Ok(*b),
            _ => Err(format!("missing boolean field {key:?}")),
        }
    }

    /// Reads an exact `f64` from a `*_bits` hex field.
    fn bits(&self, key: &str) -> Result<f64, String> {
        let hex = self.str(key)?;
        u64::from_str_radix(hex, 16)
            .map(f64::from_bits)
            .map_err(|_| format!("field {key:?} is not a hex bit pattern"))
    }
}

/// Error from [`TraceArtifact::from_jsonl`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending line (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace artifact line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl TraceArtifact {
    /// Sum of all channels' total energy.
    pub fn total_energy(&self) -> Energy {
        self.channels
            .iter()
            .fold(Energy::ZERO, |acc, c| acc + c.stats.total_energy())
    }

    /// Total elapsed simulated time.
    pub fn elapsed(&self) -> Time {
        self.phases.total()
    }

    /// Serializes to the versioned JSONL form ([`SCHEMA`]): a header line
    /// followed by one event object per line. Floats carry both a decimal
    /// and an exact hex-bits field; [`from_jsonl`](Self::from_jsonl) reads
    /// the latter, so the round trip is bit-exact.
    pub fn to_jsonl(&self) -> String {
        use fmt::Write;
        let bits = |v: f64| format!("{:016x}", v.to_bits());
        let mut out = String::new();
        writeln!(
            out,
            "{{\"schema\":\"{}\",\"algorithm\":\"{}\",\"config\":\"{}\",\
             \"vertices\":{},\"edges\":{},\"intervals\":{},\"pus\":{},\
             \"iterations\":{},\"edges_processed\":{}}}",
            SCHEMA,
            esc(&self.algorithm),
            esc(&self.config),
            self.num_vertices,
            self.num_edges,
            self.intervals,
            self.num_pus,
            self.iterations_total,
            self.edges_processed,
        )
        .expect("string write");
        for s in &self.iterations {
            writeln!(
                out,
                "{{\"event\":\"iteration\",\"i\":{},\"changed\":{},\
                 \"processed\":{},\"skipped\":{}}}",
                s.iteration, s.changed, s.blocks_processed, s.blocks_skipped,
            )
            .expect("string write");
        }
        let p = &self.phases;
        writeln!(
            out,
            "{{\"event\":\"phases\",\"loading_ns\":{},\"processing_ns\":{},\
             \"updating_ns\":{},\"overhead_ns\":{},\"loading_bits\":\"{}\",\
             \"processing_bits\":\"{}\",\"updating_bits\":\"{}\",\
             \"overhead_bits\":\"{}\"}}",
            p.loading.as_ns(),
            p.processing.as_ns(),
            p.updating.as_ns(),
            p.overhead.as_ns(),
            bits(p.loading.as_ns()),
            bits(p.processing.as_ns()),
            bits(p.updating.as_ns()),
            bits(p.overhead.as_ns()),
        )
        .expect("string write");
        for c in &self.channels {
            let s = &c.stats;
            writeln!(
                out,
                "{{\"event\":\"channel\",\"name\":\"{}\",\"reads\":{},\
                 \"writes\":{},\"bits_read\":{},\"bits_written\":{},\
                 \"dynamic_pj\":{},\"background_pj\":{},\"busy_ns\":{},\
                 \"dynamic_bits\":\"{}\",\"background_bits\":\"{}\",\
                 \"busy_bits\":\"{}\"}}",
                c.channel.name(),
                s.reads,
                s.writes,
                s.bits_read,
                s.bits_written,
                s.dynamic_energy.as_pj(),
                s.background_energy.as_pj(),
                s.busy_time.as_ns(),
                bits(s.dynamic_energy.as_pj()),
                bits(s.background_energy.as_pj()),
                bits(s.busy_time.as_ns()),
            )
            .expect("string write");
        }
        if let Some(t) = self.gating_transitions {
            writeln!(out, "{{\"event\":\"gating\",\"transitions\":{t}}}").expect("string write");
        }
        if let Some(r) = &self.router {
            writeln!(
                out,
                "{{\"event\":\"router\",\"words\":{},\"reroutes\":{}}}",
                r.words, r.reroutes,
            )
            .expect("string write");
        }
        if let Some(rel) = &self.reliability {
            writeln!(
                out,
                "{{\"event\":\"reliability\",\"corrected\":{},\
                 \"uncorrectable\":{},\"retries\":{}}}",
                rel.corrected, rel.uncorrectable, rel.retries,
            )
            .expect("string write");
            for r in &rel.remaps {
                writeln!(
                    out,
                    "{{\"event\":\"remap\",\"chip\":{},\"bank\":{},\
                     \"spare_chip\":{},\"spare_bank\":{}}}",
                    r.chip, r.bank, r.spare_chip, r.spare_bank,
                )
                .expect("string write");
            }
        }
        out
    }

    /// Parses a [`SCHEMA`]-versioned JSONL artifact.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] on an unknown schema tag, malformed line, or
    /// unknown event kind.
    pub fn from_jsonl(text: &str) -> Result<TraceArtifact, TraceParseError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty())
            .peekable();
        let first = lines.peek().map(|&(no, _)| no).ok_or(TraceParseError {
            line: 0,
            message: "empty artifact".into(),
        })?;
        let mut artifact = TraceArtifact::default();
        for (no, line) in lines {
            artifact
                .decode(line, no == first)
                .map_err(|message| TraceParseError {
                    line: no + 1,
                    message,
                })?;
        }
        Ok(artifact)
    }

    /// Decodes one artifact line into `self`: the header when `header`,
    /// else one event, which the artifact records as the engine's would be.
    fn decode(&mut self, line: &str, header: bool) -> Result<(), String> {
        let map = parse_flat_object(line)?;
        let f = Fields(&map);
        if header {
            let schema = f.str("schema")?;
            if schema != SCHEMA {
                return Err(format!(
                    "unsupported schema {schema:?} (expected {SCHEMA:?})"
                ));
            }
            *self = TraceArtifact {
                algorithm: f.str("algorithm")?.into(),
                config: f.str("config")?.into(),
                num_vertices: f.u32("vertices")?,
                num_edges: f.u64("edges")?,
                intervals: f.u32("intervals")?,
                num_pus: f.u32("pus")?,
                iterations_total: f.u32("iterations")?,
                edges_processed: f.u64("edges_processed")?,
                ..TraceArtifact::default()
            };
            return Ok(());
        }
        let event = match f.str("event")? {
            "iteration" => TraceEvent::IterationEnd {
                iteration: f.u32("i")?,
                changed: f.bool("changed")?,
                blocks_processed: f.u64("processed")?,
                blocks_skipped: f.u64("skipped")?,
            },
            "phases" => TraceEvent::Phases {
                phases: PhaseTimes {
                    loading: Time::from_ns(f.bits("loading_bits")?),
                    processing: Time::from_ns(f.bits("processing_bits")?),
                    updating: Time::from_ns(f.bits("updating_bits")?),
                    overhead: Time::from_ns(f.bits("overhead_bits")?),
                },
            },
            "channel" => {
                let name = f.str("name")?;
                TraceEvent::ChannelLedger {
                    channel: TraceChannel::from_name(name)
                        .ok_or_else(|| format!("unknown channel {name:?}"))?,
                    stats: AccessStats {
                        reads: f.u64("reads")?,
                        writes: f.u64("writes")?,
                        bits_read: f.u64("bits_read")?,
                        bits_written: f.u64("bits_written")?,
                        dynamic_energy: Energy::from_pj(f.bits("dynamic_bits")?),
                        background_energy: Energy::from_pj(f.bits("background_bits")?),
                        busy_time: Time::from_ns(f.bits("busy_bits")?),
                    },
                }
            }
            "gating" => TraceEvent::GatingTransitions {
                transitions: f.u64("transitions")?,
            },
            "router" => TraceEvent::RouterTraffic {
                words: f.u64("words")?,
                reroutes: f.u64("reroutes")?,
            },
            "reliability" => TraceEvent::Reliability {
                corrected: f.u64("corrected")?,
                uncorrectable: f.u64("uncorrectable")?,
                retries: f.u64("retries")?,
            },
            "remap" => TraceEvent::BankRemap {
                chip: f.u32("chip")?,
                bank: f.u32("bank")?,
                spare_chip: f.u32("spare_chip")?,
                spare_bank: f.u32("spare_bank")?,
            },
            other => return Err(format!("unknown event {other:?}")),
        };
        self.record(&event);
        Ok(())
    }

    /// Compares this artifact against `baseline`, channel by channel.
    pub fn diff(&self, baseline: &TraceArtifact) -> TraceDiff {
        let pct = |delta: f64, base: f64| {
            if base == 0.0 {
                if delta == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                100.0 * delta / base.abs()
            }
        };
        let channels = self
            .channels
            .iter()
            .map(|c| {
                let base = baseline
                    .channels
                    .iter()
                    .find(|b| b.channel == c.channel)
                    .map(|b| b.stats)
                    .unwrap_or_default();
                let e = c.stats.total_energy().as_pj();
                let be = base.total_energy().as_pj();
                let t = c.stats.busy_time.as_ns();
                let bt = base.busy_time.as_ns();
                ChannelDelta {
                    channel: c.channel,
                    energy_pj: e - be,
                    energy_pct: pct(e - be, be),
                    busy_ns: t - bt,
                    busy_pct: pct(t - bt, bt),
                }
            })
            .collect();
        let e = self.total_energy().as_pj();
        let be = baseline.total_energy().as_pj();
        let t = self.elapsed().as_ns();
        let bt = baseline.elapsed().as_ns();
        TraceDiff {
            channels,
            total_energy_pj: e - be,
            total_energy_pct: pct(e - be, be),
            elapsed_ns: t - bt,
            elapsed_pct: pct(t - bt, bt),
            iterations: i64::from(self.iterations_total) - i64::from(baseline.iterations_total),
        }
    }
}

/// Per-channel delta of a [`TraceArtifact::diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelDelta {
    /// Which channel.
    pub channel: TraceChannel,
    /// Total-energy delta in pJ (self − baseline).
    pub energy_pj: f64,
    /// Energy delta as a percentage of the baseline.
    pub energy_pct: f64,
    /// Busy-time delta in ns.
    pub busy_ns: f64,
    /// Busy-time delta as a percentage of the baseline.
    pub busy_pct: f64,
}

/// Result of diffing two artifacts: per-channel and headline deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDiff {
    /// One delta per channel of the compared artifact.
    pub channels: Vec<ChannelDelta>,
    /// Total-energy delta in pJ.
    pub total_energy_pj: f64,
    /// Total-energy delta as a percentage of the baseline.
    pub total_energy_pct: f64,
    /// Elapsed-time delta in ns.
    pub elapsed_ns: f64,
    /// Elapsed-time delta as a percentage of the baseline.
    pub elapsed_pct: f64,
    /// Iteration-count delta.
    pub iterations: i64,
}

impl fmt::Display for TraceDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.channels {
            writeln!(
                f,
                "{:<16} energy {:+.3} pJ ({:+.2}%)  busy {:+.3} ns ({:+.2}%)",
                c.channel.name(),
                c.energy_pj,
                c.energy_pct,
                c.busy_ns,
                c.busy_pct,
            )?;
        }
        writeln!(
            f,
            "{:<16} energy {:+.3} pJ ({:+.2}%)  elapsed {:+.3} ns ({:+.2}%)",
            "total", self.total_energy_pj, self.total_energy_pct, self.elapsed_ns, self.elapsed_pct,
        )?;
        write!(f, "{:<16} {:+}", "iterations", self.iterations)
    }
}

impl TraceSink for TraceArtifact {
    fn record(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::RunStart {
                algorithm,
                config,
                num_vertices,
                num_edges,
                intervals,
                num_pus,
            } => {
                *self = TraceArtifact {
                    algorithm: (*algorithm).into(),
                    config: (*config).into(),
                    num_vertices: *num_vertices,
                    num_edges: *num_edges,
                    intervals: *intervals,
                    num_pus: *num_pus,
                    ..TraceArtifact::default()
                };
            }
            TraceEvent::IterationEnd {
                iteration,
                changed,
                blocks_processed,
                blocks_skipped,
            } => self.iterations.push(IterationSample {
                iteration: *iteration,
                changed: *changed,
                blocks_processed: *blocks_processed,
                blocks_skipped: *blocks_skipped,
            }),
            TraceEvent::Phases { phases } => self.phases = *phases,
            TraceEvent::ChannelLedger { channel, stats } => self.channels.push(ChannelSeries {
                channel: *channel,
                stats: *stats,
            }),
            TraceEvent::GatingTransitions { transitions } => {
                self.gating_transitions = Some(*transitions);
            }
            TraceEvent::RouterTraffic { words, reroutes } => {
                self.router = Some(RouterTotals {
                    words: *words,
                    reroutes: *reroutes,
                });
            }
            TraceEvent::Reliability {
                corrected,
                uncorrectable,
                retries,
            } => {
                let rel = self.reliability.get_or_insert_with(Default::default);
                rel.corrected = *corrected;
                rel.uncorrectable = *uncorrectable;
                rel.retries = *retries;
            }
            TraceEvent::BankRemap {
                chip,
                bank,
                spare_chip,
                spare_bank,
            } => self
                .reliability
                .get_or_insert_with(Default::default)
                .remaps
                .push(BankRemap {
                    chip: *chip,
                    bank: *bank,
                    spare_chip: *spare_chip,
                    spare_bank: *spare_bank,
                }),
            TraceEvent::RunEnd {
                iterations,
                edges_processed,
            } => {
                self.iterations_total = *iterations;
                self.edges_processed = *edges_processed;
            }
        }
    }
}

/// A cloneable [`TraceArtifact`] recorder: attach one clone to a session
/// via [`with_trace`](crate::SessionBuilder::with_trace) and keep another
/// to read the [`TraceArtifact`] after the run.
///
/// ```
/// use hyve_core::{SimulationSession, SystemConfig};
/// use hyve_core::trace::SharedRecorder;
/// use hyve_algorithms::PageRank;
/// use hyve_graph::DatasetProfile;
///
/// # fn main() -> Result<(), hyve_core::CoreError> {
/// let recorder = SharedRecorder::new();
/// let session = SimulationSession::builder(SystemConfig::hyve_opt())
///     .with_trace(recorder.clone())
///     .build()?;
/// let graph = DatasetProfile::youtube_scaled().generate(1);
/// let report = session.run_on_edge_list(&PageRank::new(3), &graph)?;
/// let artifact = recorder.artifact();
/// assert_eq!(artifact.iterations_total, report.iterations);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SharedRecorder(Arc<Mutex<TraceArtifact>>);

impl SharedRecorder {
    /// A fresh shared recorder.
    pub fn new() -> SharedRecorder {
        SharedRecorder::default()
    }

    /// A copy of the aggregated artifact of the most recent run.
    pub fn artifact(&self) -> TraceArtifact {
        self.0.lock().expect("recorder poisoned").clone()
    }
}

impl TraceSink for SharedRecorder {
    fn record(&mut self, event: &TraceEvent) {
        self.0.lock().expect("recorder poisoned").record(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An artifact with awkward float values that would not survive a
    /// decimal round trip.
    fn artifact() -> TraceArtifact {
        let mut edge = AccessStats::new();
        edge.record_read(4096, Energy::from_pj(0.1 + 0.2), Time::from_ns(1.0 / 3.0));
        edge.record_background(Energy::from_pj(1e-17));
        let mut logic = AccessStats::new();
        logic.record_read(0, Energy::from_pj(2.5e9), Time::ZERO);
        TraceArtifact {
            algorithm: "PR".into(),
            config: "acc+HyVE-opt".into(),
            num_vertices: 1000,
            num_edges: 5000,
            intervals: 16,
            num_pus: 8,
            iterations_total: 2,
            edges_processed: 10_000,
            iterations: vec![
                IterationSample {
                    iteration: 1,
                    changed: true,
                    blocks_processed: 256,
                    blocks_skipped: 0,
                },
                IterationSample {
                    iteration: 2,
                    changed: false,
                    blocks_processed: 200,
                    blocks_skipped: 56,
                },
            ],
            phases: PhaseTimes {
                loading: Time::from_ns(0.1),
                processing: Time::from_ns(123.456_789),
                updating: Time::from_ns(7.0 / 11.0),
                overhead: Time::ZERO,
            },
            channels: vec![
                ChannelSeries {
                    channel: TraceChannel::EdgeMemory,
                    stats: edge,
                },
                ChannelSeries {
                    channel: TraceChannel::Logic,
                    stats: logic,
                },
            ],
            gating_transitions: Some(42),
            router: Some(RouterTotals {
                words: 123,
                reroutes: 9,
            }),
            reliability: None,
        }
    }

    #[test]
    fn jsonl_round_trip_is_bit_exact() {
        let a = artifact();
        let text = a.to_jsonl();
        let b = TraceArtifact::from_jsonl(&text).unwrap();
        // PartialEq over f64 fields: exact equality, not approximate.
        assert_eq!(a, b);
        // And the re-serialization is byte-identical.
        assert_eq!(text, b.to_jsonl());
    }

    #[test]
    fn self_diff_is_all_zeros() {
        let a = artifact();
        let d = a.diff(&a);
        assert_eq!(d.iterations, 0);
        for c in &d.channels {
            assert_eq!(c.energy_pj, 0.0);
            assert_eq!(c.busy_ns, 0.0);
        }
    }

    #[test]
    fn diff_reports_deltas_and_percentages() {
        let a = artifact();
        let mut b = a.clone();
        b.channels[0].stats.dynamic_energy += Energy::from_pj(0.3);
        b.iterations_total += 1;
        let d = b.diff(&a);
        assert!((d.channels[0].energy_pj - 0.3).abs() < 1e-12);
        assert!(d.channels[0].energy_pct > 0.0);
        assert_eq!(d.iterations, 1);
        let text = d.to_string();
        assert!(text.contains("edge_memory"));
        assert!(text.contains("iterations"));
    }

    #[test]
    fn recorder_aggregates_event_stream() {
        let mut rec = TraceArtifact::default();
        rec.record(&TraceEvent::RunStart {
            algorithm: "BFS",
            config: "acc+HyVE",
            num_vertices: 10,
            num_edges: 20,
            intervals: 8,
            num_pus: 8,
        });
        rec.record(&TraceEvent::IterationEnd {
            iteration: 1,
            changed: true,
            blocks_processed: 64,
            blocks_skipped: 0,
        });
        rec.record(&TraceEvent::Phases {
            phases: PhaseTimes::default(),
        });
        rec.record(&TraceEvent::ChannelLedger {
            channel: TraceChannel::EdgeMemory,
            stats: AccessStats::new(),
        });
        rec.record(&TraceEvent::GatingTransitions { transitions: 5 });
        rec.record(&TraceEvent::RunEnd {
            iterations: 1,
            edges_processed: 20,
        });
        let a = &rec;
        assert_eq!(a.algorithm, "BFS");
        assert_eq!(a.iterations.len(), 1);
        assert_eq!(a.gating_transitions, Some(5));
        assert_eq!(a.iterations_total, 1);

        // A new RunStart resets to the new run.
        rec.record(&TraceEvent::RunStart {
            algorithm: "PR",
            config: "acc+HyVE",
            num_vertices: 10,
            num_edges: 20,
            intervals: 8,
            num_pus: 8,
        });
        assert_eq!(rec.algorithm, "PR");
        assert!(rec.iterations.is_empty());
    }

    #[test]
    fn parser_rejects_bad_input() {
        assert!(TraceArtifact::from_jsonl("").is_err());
        assert!(TraceArtifact::from_jsonl("{\"schema\":\"hyve-trace/99\"}").is_err());
        let good = artifact().to_jsonl();
        let truncated: String = good.chars().take(good.len() - 4).collect();
        assert!(TraceArtifact::from_jsonl(&truncated).is_err());
        let mut bad_event = good.clone();
        bad_event.push_str("{\"event\":\"martian\"}\n");
        let e = TraceArtifact::from_jsonl(&bad_event).unwrap_err();
        assert!(e.message.contains("martian"), "{e}");
    }

    #[test]
    fn reliability_round_trips_and_stays_absent_when_fault_free() {
        // Fault-free artifacts carry no reliability lines at all.
        let clean = artifact();
        assert!(!clean.to_jsonl().contains("reliability"));

        let mut faulty = clean.clone();
        faulty.reliability = Some(ReliabilityTotals {
            corrected: 17,
            uncorrectable: 3,
            retries: 8,
            remaps: vec![
                BankRemap {
                    chip: 0,
                    bank: 3,
                    spare_chip: 7,
                    spare_bank: 7,
                },
                BankRemap {
                    chip: 2,
                    bank: 1,
                    spare_chip: 7,
                    spare_bank: 6,
                },
            ],
        });
        let text = faulty.to_jsonl();
        assert!(text.contains("\"event\":\"reliability\""));
        assert_eq!(text.matches("\"event\":\"remap\"").count(), 2);
        let back = TraceArtifact::from_jsonl(&text).unwrap();
        assert_eq!(faulty, back);
        assert_eq!(text, back.to_jsonl());
    }

    #[test]
    fn recorder_aggregates_reliability_events() {
        let mut rec = TraceArtifact::default();
        rec.record(&TraceEvent::RunStart {
            algorithm: "PR",
            config: "acc+HyVE",
            num_vertices: 10,
            num_edges: 20,
            intervals: 8,
            num_pus: 8,
        });
        // Remap may arrive before or after the counter record; both orders
        // must aggregate into the same artifact.
        rec.record(&TraceEvent::BankRemap {
            chip: 1,
            bank: 4,
            spare_chip: 7,
            spare_bank: 7,
        });
        rec.record(&TraceEvent::Reliability {
            corrected: 5,
            uncorrectable: 1,
            retries: 2,
        });
        let rel = rec.reliability.clone().expect("reliability");
        assert_eq!(rel.corrected, 5);
        assert_eq!(rel.retries, 2);
        assert_eq!(
            rel.remaps,
            vec![BankRemap {
                chip: 1,
                bank: 4,
                spare_chip: 7,
                spare_bank: 7,
            }]
        );
        // A new run resets the reliability totals along with the rest.
        rec.record(&TraceEvent::RunStart {
            algorithm: "BFS",
            config: "acc+HyVE",
            num_vertices: 10,
            num_edges: 20,
            intervals: 8,
            num_pus: 8,
        });
        assert!(rec.reliability.is_none());
    }

    #[test]
    fn channel_names_round_trip() {
        for c in TraceChannel::ALL {
            assert_eq!(TraceChannel::from_name(c.name()), Some(c));
        }
        assert_eq!(TraceChannel::from_name("nope"), None);
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut a = artifact();
        a.config = "weird \"name\" with \\slash\tand tab".to_string();
        // `config` is `&'static str` upstream, but the artifact itself must
        // survive arbitrary strings.
        let b = TraceArtifact::from_jsonl(&a.to_jsonl()).unwrap();
        assert_eq!(a.config, b.config);
    }
}
