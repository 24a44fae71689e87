//! Pieces every workload shares: seeds, generated inputs, the timed session set-up,
//! statistics over raw samples, peak memory, and the report the run prints.

use std::time::Instant;

use frogwild::obs::TraceConfig;
use frogwild::session::{Query, QueryCost, Response, Session, SessionBuilder};
use frogwild::{exact_pagerank, ExecutionConfig, WalkIndexConfig};
use frogwild_engine::PartitionerKind;
use frogwild_graph::snapshot::{read_snapshot, write_snapshot};
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Host threads every workload runs its work on: the engine's worker pool, or the
/// serve pool. The numbers in README.md were measured on a 2-CPU host.
pub const WORKERS: usize = 2;
/// Simulated machines of every session (the cluster size of the paper's figures).
pub const MACHINES: usize = 16;
/// Timed set-ups per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-ups repeat until this many seconds have passed too, so a cheap set-up is
/// timed often enough for its median to settle.
pub const SETUP_SECONDS: f64 = 3.0;
/// Top-k size of every ranking query, and of the `mass_captured` metric.
pub const TOP_K: usize = 100;
/// Teleport probability of every query and reference.
pub const TELEPORT: f64 = 0.15;

/// `Result` with a human-readable error: any error ends the run without a result.
pub type Res<T> = Result<T, String>;

/// Turns a library error into the benchmark's error.
pub fn lib<T, E: std::fmt::Display>(what: &str, r: Result<T, E>) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// SplitMix64 finalizer: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: a digest of rankings for the counter fingerprint.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The inputs of one run, made from the workload seed before any timing starts.
pub struct Inputs {
    /// The generated graph, kept to check that decoding reproduces it.
    pub graph: DiGraph,
    /// The graph as snapshot bytes: set-up decodes them, as a server loading a
    /// snapshot from its page cache would.
    pub snapshot: Vec<u8>,
    /// Exact global PageRank, the reference of `mass_captured`.
    pub truth: Vec<f64>,
}

impl Inputs {
    pub fn generate(
        generator: fn(usize, &mut SmallRng) -> DiGraph,
        vertices: usize,
        seed: u64,
    ) -> Res<Self> {
        let mut rng = SmallRng::seed_from_u64(mix(seed, 0x6AA9));
        let graph = generator(vertices, &mut rng);
        let mut snapshot = Vec::new();
        lib("write_snapshot", write_snapshot(&graph, &mut snapshot))?;
        let truth = exact_pagerank(&graph, TELEPORT, 200, 1e-10).scores;
        Ok(Inputs {
            graph,
            snapshot,
            truth,
        })
    }

    /// Decodes the snapshot: the first half of every set-up.
    pub fn decode(&self) -> Res<DiGraph> {
        lib("read_snapshot", read_snapshot(self.snapshot.as_slice()))
    }
}

/// How a workload configures its session.
#[derive(Clone, Copy)]
pub struct SessionSpec {
    pub partitioner: PartitionerKind,
    pub walk_index: Option<WalkIndexConfig>,
    /// The session seed (partitioning, walk index, serve-pool query seeds).
    pub seed: u64,
}

impl SessionSpec {
    pub fn builder<'g>(
        &self,
        graph: &'g DiGraph,
        workers: usize,
        trace: bool,
    ) -> SessionBuilder<'g> {
        let mut builder = Session::builder(graph)
            .machines(MACHINES)
            .partitioner(self.partitioner)
            .seed(self.seed)
            .execution(ExecutionConfig::new().workers(workers).staleness(0));
        if let Some(config) = self.walk_index {
            builder = builder.walk_index(config);
        }
        if trace {
            builder = builder.tracing(TraceConfig::enabled());
        }
        builder
    }
}

/// Times set-ups (snapshot decode + `SessionBuilder::build`) until `SETUP_REPS`
/// of them and `SETUP_SECONDS` are reached, and decodes the graph of the last one.
/// The caller builds the last session over that graph with [`timed_build`], so
/// the session it keeps is a timed one too.
pub fn timed_setups(inputs: &Inputs, spec: &SessionSpec) -> Res<(DiGraph, f64, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let started = Instant::now();
    while times.len() + 1 < SETUP_REPS || secs(started) < SETUP_SECONDS {
        let start = Instant::now();
        let graph = inputs.decode()?;
        let session = lib("build", spec.builder(&graph, WORKERS, false).build())?;
        times.push(secs(start));
        std::hint::black_box(&session);
    }
    let start = Instant::now();
    let graph = inputs.decode()?;
    let decode_s = secs(start);
    if graph != inputs.graph {
        return Err("the decoded snapshot differs from the generated graph".into());
    }
    Ok((graph, decode_s, times))
}

/// Builds the session of the last set-up; its time plus `decode_s` is the last
/// set-up time.
pub fn timed_build<'g>(
    graph: &'g DiGraph,
    spec: &SessionSpec,
    decode_s: f64,
    times: &mut Vec<f64>,
) -> Res<Session<'g>> {
    let start = Instant::now();
    let session = lib("build", spec.builder(graph, WORKERS, false).build())?;
    times.push(decode_s + secs(start));
    Ok(session)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of raw samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the `q` quantile — printed beside each percentile.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    let cut = quantile(samples, q);
    samples.iter().filter(|&&s| s > cut).count()
}

pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Res<f64> {
    let status = lib(
        "read /proc/self/status",
        std::fs::read_to_string("/proc/self/status"),
    )?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Normalized top-k mass an estimate captures under the exact reference.
pub fn mass(response: &Response, truth: &[f64]) -> f64 {
    frogwild::mass_captured(&response.estimate, truth, TOP_K).normalized()
}

/// Sums of the deterministic counters of a run of queries.
#[derive(Clone, Copy, Default)]
pub struct Counters {
    pub queries: u64,
    pub supersteps: u64,
    pub network_bytes: u64,
    pub network_messages: u64,
    pub simulated_seconds: f64,
    pub active_vertices: u64,
    pub routed_messages: u64,
    pub skipped_scatters: u64,
    pub index_hits: u64,
    pub index_misses: u64,
    pub push_ops: u64,
    pub walk_hops: u64,
}

impl Counters {
    pub fn add(&mut self, c: &QueryCost) {
        self.queries += 1;
        self.supersteps += c.supersteps as u64;
        self.network_bytes += c.network_bytes;
        self.network_messages += c.network_messages;
        self.simulated_seconds += c.simulated_seconds;
        self.active_vertices += c.active_vertices;
        self.routed_messages += c.routed_messages;
        self.skipped_scatters += c.skipped_scatters;
        self.index_hits += c.index_hits;
        self.index_misses += c.index_misses;
        self.push_ops += c.push_ops;
        self.walk_hops += c.walk_hops;
    }

    /// Per-query mean of a counter.
    pub fn per_query(&self, total: f64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            total / self.queries as f64
        }
    }

    pub fn fingerprint(&self, fp: &mut Report) {
        let rows: [(&str, u64); 11] = [
            ("queries", self.queries),
            ("supersteps", self.supersteps),
            ("network_bytes", self.network_bytes),
            ("network_messages", self.network_messages),
            ("active_vertices", self.active_vertices),
            ("routed_messages", self.routed_messages),
            ("skipped_scatters", self.skipped_scatters),
            ("index_hits", self.index_hits),
            ("index_misses", self.index_misses),
            ("push_ops", self.push_ops),
            ("walk_hops", self.walk_hops),
        ];
        for (name, value) in rows {
            fp.fingerprint(&format!("queries.{name}"), value);
        }
        fp.fingerprint(
            "queries.simulated_seconds",
            format!("{:?}", self.simulated_seconds),
        );
    }
}

/// Adds a response's ranking (ids and score bits) to a digest.
pub fn digest_ranking(fnv: &mut Fnv, response: &Response) {
    for &(v, score) in &response.ranking {
        fnv.word(u64::from(v));
        fnv.word(score.to_bits());
    }
}

/// The graph and layout part of the counter fingerprint.
pub fn fingerprint_inputs(report: &mut Report, inputs: &Inputs, session: &Session<'_>) {
    let mut fnv = Fnv::new();
    fnv.bytes(&inputs.snapshot);
    report.fingerprint("graph.vertices", inputs.graph.num_vertices());
    report.fingerprint("graph.edges", inputs.graph.num_edges());
    report.fingerprint("graph.snapshot_fnv64", format!("{:016x}", fnv.finish()));
    let placement = session.partitioned_graph().placement();
    report.fingerprint("partition.total_mirrors", placement.total_mirrors());
    report.fingerprint(
        "partition.replication_factor",
        format!("{:?}", placement.replication_factor()),
    );
    if let Some(index) = session.walk_index() {
        report.fingerprint("walkindex.arena_bytes", index.memory_bytes());
        report.fingerprint("walkindex.total_hops", index.total_hops());
        report.fingerprint("walkindex.truncated_segments", index.truncated_segments());
    }
}

/// What one run found: correctness checks, counts, metrics and the fingerprint.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, passed, detail)` of every correctness check.
    pub checks: Vec<(String, bool, String)>,
    /// Metrics of the final JSON line: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the JSON line.
    pub lines: Vec<String>,
    /// Exact counters: `(name, value)`.
    pub fingerprint: Vec<(String, String)>,
}

impl Report {
    pub fn check(&mut self, name: &str, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), passed, detail.into()));
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// A metric of the JSON line, also printed with its sample count.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize) {
        self.lines
            .push(format!("metric {name} = {value} {unit} (n={samples})"));
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// The end-to-end metrics every workload reports, in `BENCHMARK.json` order.
    /// `latencies` are per-query seconds; `qps` counts the same queries.
    pub fn end_to_end(
        &mut self,
        setup: &[f64],
        latencies: &[f64],
        qps: f64,
        mass: f64,
        mass_samples: usize,
    ) -> Res<()> {
        let reps: Vec<String> = setup.iter().map(|t| format!("{t:.4}")).collect();
        self.line(format!("setup reps (s): {}", reps.join(" ")));
        self.metric("setup_s", median(setup), "s", setup.len());
        self.metric("peak_rss_mb", peak_rss_mb()?, "MB", 1);
        self.percentile("query_p50_ms", latencies, 0.5);
        self.percentile("query_p90_ms", latencies, 0.9);
        // Too few samples lie beyond p99 in the engine workloads, and host stalls
        // of a second or two move it by 2x from run to run: printed, not gated.
        self.line(format!(
            "info query_p99_ms = {} ms (n={}, beyond={})",
            quantile(latencies, 0.99) * 1e3,
            latencies.len(),
            beyond(latencies, 0.99)
        ));
        self.metric("serve_qps", qps, "1/s", latencies.len());
        self.metric("mass_captured", mass, "ratio", mass_samples);
        Ok(())
    }

    /// A percentile metric: prints how many samples lie beyond it as well.
    pub fn percentile(&mut self, name: &str, samples_s: &[f64], q: f64) {
        let value = quantile(samples_s, q) * 1e3;
        self.lines.push(format!(
            "metric {name} = {value} ms (n={}, beyond={})",
            samples_s.len(),
            beyond(samples_s, q)
        ));
        self.metrics.push((name.to_string(), value, "ms".into()));
    }

    /// A number printed for the reader only, not part of the JSON line.
    pub fn info(&mut self, name: &str, value: impl std::fmt::Display, unit: &str, samples: usize) {
        self.lines
            .push(format!("info {name} = {value} {unit} (n={samples})"));
    }

    pub fn fingerprint(&mut self, name: &str, value: impl std::fmt::Display) {
        self.fingerprint.push((name.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, passed, _)| *passed)
            && self.metrics.iter().all(|(_, v, _)| v.is_finite())
    }
}

/// A closed loop with one client: queries `query(0)`, `query(1)`, … are sent one
/// after another until `seconds` have passed and at least `prefix` were sent.
/// Responses of the first `prefix` queries are kept whole; of the rest only the
/// cost, since each response holds a full estimate vector.
pub struct ClosedLoop {
    pub latencies: Vec<f64>,
    pub costs: Vec<QueryCost>,
    pub kept: Vec<Response>,
    pub wall: f64,
    pub failed: u64,
}

pub fn closed_loop(
    session: &mut Session<'_>,
    query: &dyn Fn(usize) -> Query,
    prefix: usize,
    seconds: f64,
) -> ClosedLoop {
    let tracer = session.tracer().clone();
    let mut run = ClosedLoop {
        latencies: Vec::new(),
        costs: Vec::new(),
        kept: Vec::new(),
        wall: 0.0,
        failed: 0,
    };
    let start = Instant::now();
    let mut i = 0;
    while i < prefix || secs(start) < seconds {
        let q = query(i);
        let sink = tracer.sink();
        let span = sink.span(
            frogwild_obs::span_meta!("bench_query"),
            frogwild_obs::SpanKey::new(i as u64, 0, 0, crate::tracing::LANE_BENCH),
        );
        let t = Instant::now();
        let result = session.query(std::hint::black_box(&q));
        let latency = secs(t);
        drop(span);
        match result {
            Ok(response) => {
                run.latencies.push(latency);
                run.costs.push(response.cost);
                if i < prefix {
                    run.kept.push(response);
                }
            }
            Err(_) => run.failed += 1,
        }
        i += 1;
    }
    run.wall = secs(start);
    run
}
