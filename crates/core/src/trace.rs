//! Structured run observability: typed trace events, pluggable sinks, and
//! a versioned JSONL metrics artifact.
//!
//! The paper's evaluation (Figs. 14–21, Table 4) is a set of derived views
//! over one run — phase times, per-channel energy, gating transitions.
//! This module turns those views into data: the engine feeds typed
//! [`TraceEvent`]s to a [`TraceSink`] attached via
//! [`SessionBuilder::with_trace`](crate::SessionBuilder::with_trace). The
//! bundled sink is the [`TraceArtifact`] itself (held through a
//! [`SharedRecorder`]): it keeps the run's events in order, serializes
//! them to a versioned JSONL file ([`SCHEMA`]) and diffs against another
//! artifact. Each event kind has one `encode` arm and one `decode` arm;
//! every view of a run (the CLI report, [`TraceArtifact::diff`]) reads the
//! event list.
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
        algorithm: String,
        /// Configuration name.
        config: String,
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

/// One run's trace, and the JSONL artifact's in-memory form: the events the
/// run emitted, in order.
///
/// The artifact is also the bundled [`TraceSink`]: recording pushes the
/// event, and a new [`TraceEvent::RunStart`] clears the list first, so a
/// session that runs several programs leaves the last run's artifact
/// behind. Attach it through a [`SharedRecorder`] to read it back after the
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceArtifact {
    /// The run's events, in the order the engine emitted them.
    pub events: Vec<TraceEvent>,
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

/// Tags of the header line's two halves. No line carries them: [`encode`]
/// and [`decode`] name `RunStart` and `RunEnd` by them, and a body line
/// that claims one is an unknown event.
const RUN_START: &str = "run_start";
const RUN_END: &str = "run_end";

/// JSON members for `(name, unit, value)` floats, each written twice:
/// every decimal `name_unit` field, then every exact `name_bits` hex field.
fn floats(fields: &[(&str, &str, f64)]) -> String {
    let decimal = fields
        .iter()
        .map(|(name, unit, v)| format!("\"{name}_{unit}\":{v}"));
    let bits = fields
        .iter()
        .map(|(name, _, v)| format!("\"{name}_bits\":\"{:016x}\"", v.to_bits()));
    decimal.chain(bits).collect::<Vec<_>>().join(",")
}

/// Encodes one event as its kind tag and its JSON members, without braces.
fn encode(event: &TraceEvent) -> (&'static str, String) {
    match event {
        TraceEvent::RunStart {
            algorithm,
            config,
            num_vertices,
            num_edges,
            intervals,
            num_pus,
        } => (
            RUN_START,
            format!(
                "\"algorithm\":\"{}\",\"config\":\"{}\",\"vertices\":{num_vertices},\
                 \"edges\":{num_edges},\"intervals\":{intervals},\"pus\":{num_pus}",
                esc(algorithm),
                esc(config),
            ),
        ),
        TraceEvent::IterationEnd {
            iteration,
            changed,
            blocks_processed,
            blocks_skipped,
        } => (
            "iteration",
            format!(
                "\"i\":{iteration},\"changed\":{changed},\
                 \"processed\":{blocks_processed},\"skipped\":{blocks_skipped}"
            ),
        ),
        TraceEvent::Phases { phases } => (
            "phases",
            floats(&phases.named().map(|(name, t)| (name, "ns", t.as_ns()))),
        ),
        TraceEvent::ChannelLedger { channel, stats: s } => (
            "channel",
            format!(
                "\"name\":\"{}\",\"reads\":{},\"writes\":{},\"bits_read\":{},\
                 \"bits_written\":{},{}",
                channel.name(),
                s.reads,
                s.writes,
                s.bits_read,
                s.bits_written,
                floats(&[
                    ("dynamic", "pj", s.dynamic_energy.as_pj()),
                    ("background", "pj", s.background_energy.as_pj()),
                    ("busy", "ns", s.busy_time.as_ns()),
                ]),
            ),
        ),
        TraceEvent::GatingTransitions { transitions } => {
            ("gating", format!("\"transitions\":{transitions}"))
        }
        TraceEvent::RouterTraffic { words, reroutes } => (
            "router",
            format!("\"words\":{words},\"reroutes\":{reroutes}"),
        ),
        TraceEvent::Reliability {
            corrected,
            uncorrectable,
            retries,
        } => (
            "reliability",
            format!(
                "\"corrected\":{corrected},\"uncorrectable\":{uncorrectable},\
                 \"retries\":{retries}"
            ),
        ),
        TraceEvent::BankRemap {
            chip,
            bank,
            spare_chip,
            spare_bank,
        } => (
            "remap",
            format!(
                "\"chip\":{chip},\"bank\":{bank},\"spare_chip\":{spare_chip},\
                 \"spare_bank\":{spare_bank}"
            ),
        ),
        TraceEvent::RunEnd {
            iterations,
            edges_processed,
        } => (
            RUN_END,
            format!("\"iterations\":{iterations},\"edges_processed\":{edges_processed}"),
        ),
    }
}

/// Decodes the event of kind `kind` from a parsed line, the inverse of
/// [`encode`]. Floats are read from their exact `*_bits` fields.
fn decode(kind: &str, f: &Fields) -> Result<TraceEvent, String> {
    Ok(match kind {
        RUN_START => TraceEvent::RunStart {
            algorithm: f.str("algorithm")?.into(),
            config: f.str("config")?.into(),
            num_vertices: f.u32("vertices")?,
            num_edges: f.u64("edges")?,
            intervals: f.u32("intervals")?,
            num_pus: f.u32("pus")?,
        },
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
        RUN_END => TraceEvent::RunEnd {
            iterations: f.u32("iterations")?,
            edges_processed: f.u64("edges_processed")?,
        },
        other => return Err(format!("unknown event {other:?}")),
    })
}

impl TraceArtifact {
    /// The final ledger of each channel, in the order recorded.
    pub fn channels(&self) -> impl Iterator<Item = (TraceChannel, AccessStats)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::ChannelLedger { channel, stats } => Some((*channel, *stats)),
            _ => None,
        })
    }

    /// Sum of all channels' total energy.
    pub fn total_energy(&self) -> Energy {
        self.channels()
            .fold(Energy::ZERO, |acc, (_, stats)| acc + stats.total_energy())
    }

    /// Total elapsed simulated time: the sum of the run's phase times.
    pub fn elapsed(&self) -> Time {
        self.events
            .iter()
            .find_map(|e| match e {
                TraceEvent::Phases { phases } => Some(phases.total()),
                _ => None,
            })
            .unwrap_or(Time::ZERO)
    }

    /// Iterations executed and total edge traversals, from the closing
    /// [`RunEnd`](TraceEvent::RunEnd); zeros if the run has not ended.
    pub fn run_totals(&self) -> (u32, u64) {
        self.events
            .iter()
            .find_map(|e| match e {
                TraceEvent::RunEnd {
                    iterations,
                    edges_processed,
                } => Some((*iterations, *edges_processed)),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Serializes to the versioned JSONL form ([`SCHEMA`]). The header line
    /// carries the schema tag and the members of `RunStart` and `RunEnd`;
    /// every other event follows as one line, in list order.
    /// [`from_jsonl`](Self::from_jsonl) reads the exact hex-bits fields, so
    /// the round trip is bit-exact for any run the engine recorded. An
    /// artifact without both run records writes a header that
    /// [`from_jsonl`](Self::from_jsonl) rejects.
    pub fn to_jsonl(&self) -> String {
        let is_header =
            |e: &&TraceEvent| matches!(e, TraceEvent::RunStart { .. } | TraceEvent::RunEnd { .. });
        let mut out = format!("{{\"schema\":\"{SCHEMA}\"");
        for event in self.events.iter().filter(is_header) {
            out += ",";
            out += &encode(event).1;
        }
        out += "}\n";
        for event in self.events.iter().filter(|e| !is_header(e)) {
            let (kind, members) = encode(event);
            out += &format!("{{\"event\":\"{kind}\",{members}}}\n");
        }
        out
    }

    /// Parses a [`SCHEMA`]-versioned JSONL artifact: the header becomes
    /// the first event (`RunStart`) and the last (`RunEnd`), and each
    /// other line one event between them.
    ///
    /// # Errors
    ///
    /// [`TraceParseError`] on an unknown schema tag, malformed line, or
    /// unknown event kind.
    pub fn from_jsonl(text: &str) -> Result<TraceArtifact, TraceParseError> {
        let at = |no: usize| {
            move |message| TraceParseError {
                line: no + 1,
                message,
            }
        };
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (no, header) = lines.next().ok_or(TraceParseError {
            line: 0,
            message: "empty artifact".into(),
        })?;
        let [start, end] = parse_flat_object(header)
            .and_then(|map| {
                let f = Fields(&map);
                let schema = f.str("schema")?;
                if schema != SCHEMA {
                    return Err(format!(
                        "unsupported schema {schema:?} (expected {SCHEMA:?})"
                    ));
                }
                Ok([decode(RUN_START, &f)?, decode(RUN_END, &f)?])
            })
            .map_err(at(no))?;
        let mut events = vec![start];
        for (no, line) in lines {
            let event = parse_flat_object(line).and_then(|map| {
                let f = Fields(&map);
                match f.str("event")? {
                    kind @ (RUN_START | RUN_END) => Err(format!("unknown event {kind:?}")),
                    kind => decode(kind, &f),
                }
            });
            events.push(event.map_err(at(no))?);
        }
        events.push(end);
        Ok(TraceArtifact { events })
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
            .channels()
            .map(|(channel, stats)| {
                let base = baseline
                    .channels()
                    .find(|&(c, _)| c == channel)
                    .map(|(_, s)| s)
                    .unwrap_or_default();
                let e = stats.total_energy().as_pj();
                let be = base.total_energy().as_pj();
                let t = stats.busy_time.as_ns();
                let bt = base.busy_time.as_ns();
                ChannelDelta {
                    channel,
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
            iterations: i64::from(self.run_totals().0) - i64::from(baseline.run_totals().0),
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
        if matches!(event, TraceEvent::RunStart { .. }) {
            self.events.clear();
        }
        self.events.push(event.clone());
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
/// assert_eq!(artifact.run_totals(), (report.iterations, report.edges_processed));
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

    /// A copy of the artifact of the most recent run.
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

    /// A fault run's events, every variant at least once, with awkward
    /// float values that would not survive a decimal round trip.
    fn events() -> Vec<TraceEvent> {
        let mut edge = AccessStats::new();
        edge.record_read(4096, Energy::from_pj(0.1 + 0.2), Time::from_ns(1.0 / 3.0));
        edge.record_background(Energy::from_pj(1e-17));
        let mut logic = AccessStats::new();
        logic.record_read(0, Energy::from_pj(2.5e9), Time::ZERO);
        vec![
            TraceEvent::RunStart {
                algorithm: "PR".into(),
                config: "acc+HyVE-opt".into(),
                num_vertices: 1000,
                num_edges: 5000,
                intervals: 16,
                num_pus: 8,
            },
            TraceEvent::IterationEnd {
                iteration: 1,
                changed: true,
                blocks_processed: 256,
                blocks_skipped: 0,
            },
            TraceEvent::IterationEnd {
                iteration: 2,
                changed: false,
                blocks_processed: 200,
                blocks_skipped: 56,
            },
            TraceEvent::Phases {
                phases: PhaseTimes {
                    loading: Time::from_ns(0.1),
                    processing: Time::from_ns(123.456_789),
                    updating: Time::from_ns(7.0 / 11.0),
                    overhead: Time::ZERO,
                },
            },
            TraceEvent::ChannelLedger {
                channel: TraceChannel::EdgeMemory,
                stats: edge,
            },
            TraceEvent::ChannelLedger {
                channel: TraceChannel::Logic,
                stats: logic,
            },
            TraceEvent::GatingTransitions { transitions: 42 },
            TraceEvent::RouterTraffic {
                words: 123,
                reroutes: 9,
            },
            TraceEvent::Reliability {
                corrected: 17,
                uncorrectable: 3,
                retries: 8,
            },
            TraceEvent::BankRemap {
                chip: 0,
                bank: 3,
                spare_chip: 7,
                spare_bank: 7,
            },
            TraceEvent::BankRemap {
                chip: 2,
                bank: 1,
                spare_chip: 7,
                spare_bank: 6,
            },
            TraceEvent::RunEnd {
                iterations: 2,
                edges_processed: 10_000,
            },
        ]
    }

    /// The artifact recording [`events`] leaves behind.
    fn artifact() -> TraceArtifact {
        let mut a = TraceArtifact::default();
        for event in &events() {
            a.record(event);
        }
        a
    }

    /// Round-trips `a` and asserts the result is bit-exact: equal events
    /// and byte-identical re-serialization.
    fn assert_round_trips(a: &TraceArtifact) {
        let text = a.to_jsonl();
        let b = TraceArtifact::from_jsonl(&text).unwrap();
        // PartialEq over f64 fields: exact equality, not approximate.
        assert_eq!(*a, b);
        assert_eq!(text, b.to_jsonl());
    }

    #[test]
    fn every_variant_round_trips_bit_exactly() {
        let a = artifact();
        assert_eq!(a.events, events(), "recording keeps every event in order");
        assert_round_trips(&a);
        // No `_` arm: a new variant does not compile until it has a slot
        // here and a case in `events`.
        let mut seen = [0; 9];
        for event in &a.events {
            seen[match event {
                TraceEvent::RunStart { .. } => 0,
                TraceEvent::IterationEnd { .. } => 1,
                TraceEvent::Phases { .. } => 2,
                TraceEvent::ChannelLedger { .. } => 3,
                TraceEvent::GatingTransitions { .. } => 4,
                TraceEvent::RouterTraffic { .. } => 5,
                TraceEvent::Reliability { .. } => 6,
                TraceEvent::BankRemap { .. } => 7,
                TraceEvent::RunEnd { .. } => 8,
            }] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
        assert_eq!(seen[7], 2, "two remaps, in escalation order");
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
        for event in &mut b.events {
            match event {
                TraceEvent::ChannelLedger {
                    channel: TraceChannel::EdgeMemory,
                    stats,
                } => stats.dynamic_energy += Energy::from_pj(0.3),
                TraceEvent::RunEnd { iterations, .. } => *iterations += 1,
                _ => {}
            }
        }
        let d = b.diff(&a);
        assert!((d.channels[0].energy_pj - 0.3).abs() < 1e-12);
        assert!(d.channels[0].energy_pct > 0.0);
        assert_eq!(d.iterations, 1);
        let text = d.to_string();
        assert!(text.contains("edge_memory"));
        assert!(text.contains("iterations"));
    }

    #[test]
    fn run_start_clears_the_recorder() {
        let mut rec = artifact();
        assert!(rec
            .events
            .iter()
            .any(|e| matches!(e, TraceEvent::Reliability { .. })));
        let next = TraceEvent::RunStart {
            algorithm: "BFS".into(),
            config: "acc+HyVE".into(),
            num_vertices: 10,
            num_edges: 20,
            intervals: 8,
            num_pus: 8,
        };
        rec.record(&next);
        assert_eq!(rec.events, [next]);
    }

    #[test]
    fn fault_free_artifact_has_no_reliability_lines() {
        let mut clean = artifact();
        clean.events.retain(|e| {
            !matches!(
                e,
                TraceEvent::Reliability { .. } | TraceEvent::BankRemap { .. }
            )
        });
        let text = clean.to_jsonl();
        assert!(!text.contains("reliability"), "{text}");
        assert!(!text.contains("remap"), "{text}");
        assert_round_trips(&clean);
    }

    #[test]
    fn parser_rejects_bad_input() {
        assert!(TraceArtifact::from_jsonl("").is_err());
        assert!(TraceArtifact::from_jsonl("{\"schema\":\"hyve-trace/99\"}").is_err());
        let good = artifact().to_jsonl();
        let truncated: String = good.chars().take(good.len() - 4).collect();
        assert!(TraceArtifact::from_jsonl(&truncated).is_err());
        for bad in ["martian", RUN_START, RUN_END] {
            let text = format!("{good}{{\"event\":\"{bad}\"}}\n");
            let e = TraceArtifact::from_jsonl(&text).unwrap_err();
            assert!(e.message.contains(bad), "{e}");
        }
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
        if let TraceEvent::RunStart { config, .. } = &mut a.events[0] {
            *config = "weird \"name\" with \\slash\tand tab".into();
        }
        assert_round_trips(&a);
    }
}
