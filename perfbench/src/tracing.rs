//! Per-layer numbers from a host-clock trace.
//!
//! The benchmark opens its own spans, in the session's tracer, around each public
//! call it makes: `bench_query` around every `Session::query`, and `bench_*` around
//! the set-up calls it times one by one. The program's spans (engine supersteps and
//! phases, walk-index serving, the serve pool) land in the same tracer, so one
//! Chrome trace holds both, and each program span is attributed to the benchmark
//! query whose interval contains it.

use std::collections::BTreeMap;

use frogwild_obs::{SpanKey, Timeline, TimelineEntry, Tracer};

/// [`SpanKey::lane`] of the benchmark's own spans (the program uses lanes 0–10).
pub const LANE_BENCH: u16 = 20;

/// The engine's superstep phases, in execution order.
pub const PHASES: [&str; 5] = ["gather", "apply", "sync", "scatter", "route"];

/// Runs `f` inside a benchmark span (`meta` comes from `span_meta!` at the call
/// site) and returns its result with the host seconds it took.
pub fn timed<T>(
    tracer: &Tracer,
    meta: &'static frogwild_obs::SpanMeta,
    rep: usize,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let sink = tracer.sink();
    let span = sink.span(meta, SpanKey::new(rep as u64, 0, 0, LANE_BENCH));
    let start = std::time::Instant::now();
    let out = f();
    let seconds = crate::common::secs(start);
    drop(span);
    (out, seconds)
}

/// Span totals of one traced pass, split by benchmark query.
#[derive(Default)]
pub struct Attributed {
    /// `bench_query` durations in µs, in query order.
    pub query_us: Vec<u64>,
    /// Total µs per span name, over the whole trace.
    pub totals: BTreeMap<&'static str, u64>,
    /// µs of `superstep` spans within each query.
    pub superstep_us: Vec<u64>,
    /// µs of index-serving spans (`index_ppr`, `index_topk`) per sequence id.
    pub index_us_by_seq: BTreeMap<u64, u64>,
    /// Count of spans per name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Attributed {
    pub fn total(&self, name: &str) -> u64 {
        self.totals.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Σ µs of every span whose name ends in `_batch`.
    pub fn batch_total(&self) -> u64 {
        self.totals
            .iter()
            .filter(|(name, _)| name.ends_with("_batch"))
            .map(|(_, us)| us)
            .sum()
    }
}

/// Splits a traced pass's timeline by the benchmark's query spans.
pub fn attribute(timeline: &Timeline) -> Attributed {
    let spans: Vec<&TimelineEntry> = timeline
        .entries()
        .iter()
        .filter(|e| !e.is_instant())
        .collect();
    let mut queries: Vec<(u64, u64)> = spans
        .iter()
        .filter(|e| e.name == "bench_query")
        .map(|e| (e.start_us, e.dur_us))
        .collect();
    queries.sort_unstable();
    let mut out = Attributed {
        query_us: queries.iter().map(|&(_, dur)| dur).collect(),
        superstep_us: vec![0; queries.len()],
        ..Attributed::default()
    };
    for e in &spans {
        *out.totals.entry(e.name).or_insert(0) += e.dur_us;
        *out.counts.entry(e.name).or_insert(0) += 1;
        if e.name == "index_ppr" || e.name == "index_topk" {
            *out.index_us_by_seq.entry(e.key.seq).or_insert(0) += e.dur_us;
        }
        if e.name == "superstep" {
            // The last query that started at or before this span contains it:
            // queries of a closed loop never overlap.
            let at = queries.partition_point(|&(start, _)| start <= e.start_us);
            if let Some(slot) = at.checked_sub(1).and_then(|i| out.superstep_us.get_mut(i)) {
                *slot += e.dur_us;
            }
        }
    }
    out
}
