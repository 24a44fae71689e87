//! The `index-serve` workload: a walk index built once at set-up, then a mixed PPR /
//! top-k stream served by the pool through `Session::serve_with`. The engine does
//! nothing here.

use frogwild::ppr::{personalized_pagerank, single_source_restart};
use frogwild::serve::{Admission, QueryKind, ServeConfig, ServeHandle, ServeReport};
use frogwild::session::{PprMethod, Query, Response, Session};
use frogwild::walkindex::build_walk_index;
use frogwild::{top_k, FrogWildConfig, WalkIndexConfig};
use frogwild_engine::PartitionerKind;
use frogwild_graph::generators::twitter_like;
use frogwild_graph::{DiGraph, VertexId};
use frogwild_obs::span_meta;

use crate::common::{
    digest_ranking, fingerprint_inputs, lib, mass, mean, median, mix, secs, timed_build,
    timed_setups, Counters, Fnv, Inputs, Report, Res, SessionSpec, SETUP_REPS, TELEPORT, TOP_K,
    WORKERS,
};
use crate::layers::Layers;
use crate::tracing::{attribute, timed};

const VERTICES: usize = 100_000;
/// Queries per `serve` call. Each response carries a full estimate vector, so a
/// call's report holds `CHUNK × VERTICES × 8` bytes; the chunk keeps that bounded.
const CHUNK: usize = 128;
/// Leading queries served again by `serve_serial` and compared with the pool.
const SERIAL_PREFIX: usize = 32;
/// PPR queries of the first chunk scored against exact personalized PageRank.
const PPR_SAMPLE: usize = 8;
const PPR_K: usize = 20;
const MASS_FLOOR: f64 = 0.5;
const PRECISION_FLOOR: f64 = 0.5;

fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        queue_depth: 64,
        admission: Admission::Block,
        ..ServeConfig::default()
    }
}

fn spec(seed: u64) -> SessionSpec {
    SessionSpec {
        partitioner: PartitionerKind::Oblivious,
        walk_index: Some(WalkIndexConfig {
            seed: mix(seed, 0x1DE7),
            parallel: false,
            ..WalkIndexConfig::default()
        }),
        seed: mix(seed, 0x5E55),
    }
}

/// Query `i` of the stream: three Monte-Carlo PPR queries from seeded uniform
/// sources, then one index-served top-k. The pool re-seeds each query from the
/// session seed and its position, so the stream is a function of the seed alone.
fn stream_query(seed: u64, i: usize) -> Query {
    if i % 4 == 3 {
        Query::TopK {
            k: TOP_K,
            config: FrogWildConfig {
                num_walkers: 20_000,
                iterations: 3,
                sync_probability: 0.7,
                ..FrogWildConfig::default()
            },
        }
    } else {
        Query::Ppr {
            source: ppr_source(seed, i),
            k: PPR_K,
            teleport_probability: TELEPORT,
            method: PprMethod::MonteCarlo {
                walkers: 2_000,
                max_steps: 64,
                seed: 0,
            },
        }
    }
}

fn ppr_source(seed: u64, i: usize) -> VertexId {
    (mix(seed, 0x50C + i as u64) % VERTICES as u64) as VertexId
}

/// Stream positions of the PPR queries scored for precision.
fn ppr_sample() -> impl Iterator<Item = usize> {
    (0..).filter(|i| i % 4 != 3).take(PPR_SAMPLE)
}

/// Exact top-20 personalized PageRank of each sampled source: an input, computed
/// before timing starts.
fn ppr_truths(graph: &DiGraph, seed: u64) -> Vec<Vec<VertexId>> {
    ppr_sample()
        .map(|i| {
            let restart = single_source_restart(graph.num_vertices(), ppr_source(seed, i));
            let exact = personalized_pagerank(graph, &restart, TELEPORT, 200, 1e-9);
            top_k(&exact.scores, PPR_K)
        })
        .collect()
}

/// Everything one serving pass measured.
struct ServePass {
    /// `(sequence id, Response.cost.host_seconds)` of every served query.
    service: Vec<(u64, f64)>,
    /// Σ wall seconds of the `serve` calls.
    wall: f64,
    /// Rejected or failed queries.
    failed: u64,
    queue_wait: f64,
    busy: f64,
    /// The first `SERIAL_PREFIX` responses, for the equality checks.
    kept: Vec<Response>,
    first: FirstChunk,
}

/// The deterministic part of a pass: counters, ranking digest and accuracy of the
/// first chunk.
#[derive(Default)]
struct FirstChunk {
    counters: Counters,
    digest: u64,
    mass: f64,
    precision: f64,
}

/// Serves the stream in chunks of `CHUNK` through one fresh handle until
/// `seconds` have passed (at least one chunk). A query's sequence id is its
/// position in the stream.
fn serve_pass(
    handle: &mut ServeHandle<'_, '_>,
    seed: u64,
    seconds: f64,
    inputs: &Inputs,
    truths: &[Vec<VertexId>],
) -> ServePass {
    let mut pass = ServePass {
        service: Vec::new(),
        wall: 0.0,
        failed: 0,
        queue_wait: 0.0,
        busy: 0.0,
        kept: Vec::new(),
        first: FirstChunk::default(),
    };
    let start = std::time::Instant::now();
    let mut next = 0;
    while next == 0 || secs(start) < seconds {
        let queries: Vec<Query> = (next..next + CHUNK)
            .map(|i| stream_query(seed, i))
            .collect();
        let report = handle.serve(&queries);
        pass.wall += report.wall_seconds;
        pass.failed += report.rejected + report.failed;
        pass.queue_wait += report
            .workers
            .iter()
            .map(|w| w.queue_wait_seconds)
            .sum::<f64>();
        pass.busy += report.workers.iter().map(|w| w.busy_seconds).sum::<f64>();
        for (offset, outcome) in report.outcomes.iter().enumerate() {
            if let Some(r) = outcome.response() {
                pass.service
                    .push(((next + offset) as u64, r.cost.host_seconds));
            }
        }
        if next == 0 {
            pass.first = first_chunk(&report, inputs, truths);
            pass.kept = report.responses().take(SERIAL_PREFIX).cloned().collect();
        }
        next += CHUNK;
    }
    pass
}

fn first_chunk(report: &ServeReport, inputs: &Inputs, truths: &[Vec<VertexId>]) -> FirstChunk {
    let mut chunk = FirstChunk::default();
    let mut digest = Fnv::new();
    let mut masses = Vec::new();
    for outcome in &report.outcomes {
        if let Some(r) = outcome.response() {
            chunk.counters.add(&r.cost);
            digest_ranking(&mut digest, r);
            if r.kind() == QueryKind::TopK {
                masses.push(mass(r, &inputs.truth));
            }
        }
    }
    chunk.digest = digest.finish();
    chunk.mass = mean(masses);
    chunk.precision = mean(ppr_sample().zip(truths).map(|(i, truth)| {
        let hits = report
            .outcomes
            .get(i)
            .and_then(|o| o.response())
            .map_or(0, |r| {
                r.top_vertices()
                    .iter()
                    .filter(|v| truth.contains(v))
                    .count()
            });
        hits as f64 / PPR_K as f64
    }));
    chunk
}

impl ServePass {
    fn served(&self) -> u64 {
        self.service.len() as u64
    }

    /// Service seconds of every served query, in stream order.
    fn seconds(&self) -> Vec<f64> {
        self.service.iter().map(|&(_, s)| s).collect()
    }
}

impl FirstChunk {
    fn check(&self, report: &mut Report) {
        report.check(
            "mass_captured_floor",
            self.mass >= MASS_FLOOR,
            format!(
                "mean index top-k mass captured {} >= {MASS_FLOOR}",
                self.mass
            ),
        );
        report.check(
            "ppr_precision_floor",
            self.precision >= PRECISION_FLOOR,
            format!(
                "PPR precision@{PPR_K} {} >= {PRECISION_FLOOR}",
                self.precision
            ),
        );
    }

    fn fingerprint(&self, report: &mut Report) {
        self.counters.fingerprint(report);
        report.fingerprint("queries.ranking_fnv64", format!("{:016x}", self.digest));
        report.fingerprint("queries.mass_captured", format!("{:?}", self.mass));
        report.fingerprint(
            "queries.ppr_precision_at_20",
            format!("{:?}", self.precision),
        );
    }
}

/// Serves the leading queries serially on a fresh handle (sequence ids restart at
/// zero, so the seeds match the pool's) and compares them with the pool's answers.
fn check_serial(
    session: &mut Session<'_>,
    seed: u64,
    pool: &[Response],
    report: &mut Report,
) -> Res<()> {
    let queries: Vec<Query> = (0..SERIAL_PREFIX).map(|i| stream_query(seed, i)).collect();
    let serial = lib("serve_with", session.serve_with(serve_config()))?.serve_serial(&queries);
    let serial: Vec<Response> = serial.responses().cloned().collect();
    report.check(
        "pool_vs_serial",
        serial.len() == SERIAL_PREFIX && serial == pool,
        format!("the first {SERIAL_PREFIX} pooled responses equal serve_serial's"),
    );
    Ok(())
}

/// The end-to-end run: timed set-ups (index build included), then the untraced
/// serving stream.
pub fn run(seed: u64, seconds: f64, report: &mut Report) -> Res<()> {
    let inputs = Inputs::generate(twitter_like, VERTICES, seed)?;
    let truths = ppr_truths(&inputs.graph, seed);
    let spec = spec(seed);
    let (graph, decode_s, mut setup) = timed_setups(&inputs, &spec)?;
    let mut session = timed_build(&graph, &spec, decode_s, &mut setup)?;

    // Untimed warm-up: the first chunk once, on its own handle.
    lib("serve_with", session.serve_with(serve_config()))?.serve(
        &(0..CHUNK)
            .map(|i| stream_query(seed, i))
            .collect::<Vec<_>>(),
    );
    let pass = {
        let mut handle = lib("serve_with", session.serve_with(serve_config()))?;
        serve_pass(&mut handle, seed, seconds, &inputs, &truths)
    };
    report.attempted = pass.served() + pass.failed;
    report.failed = pass.failed;
    report.check(
        "no_failed_queries",
        pass.failed == 0,
        format!("{} rejected or failed", pass.failed),
    );
    check_serial(&mut session, seed, &pass.kept, report)?;
    pass.first.check(report);

    report.end_to_end(
        &setup,
        &pass.seconds(),
        pass.served() as f64 / pass.wall,
        pass.first.mass,
        CHUNK / 4,
    )?;
    report.info(
        "ppr_precision_at_20",
        pass.first.precision,
        "ratio",
        PPR_SAMPLE,
    );

    fingerprint_inputs(report, &inputs, &session);
    pass.first.fingerprint(report);
    Ok(())
}

/// The traced run: each layer's public calls timed one by one, then an untraced
/// and a traced serving pass of `seconds / 2` each.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) -> Res<Option<String>> {
    let inputs = Inputs::generate(twitter_like, VERTICES, seed)?;
    let truths = ppr_truths(&inputs.graph, seed);
    let spec = spec(seed);
    let index_config = spec.walk_index.ok_or("index-serve needs a walk index")?;
    let graph = inputs.decode()?;
    let mut traced = lib("build", spec.builder(&graph, WORKERS, true).build())?;
    let tracer = traced.tracer().clone();

    let mut layers = Layers::default();
    let pg = layers.time_setup_calls(&tracer, &inputs, &graph, &spec)?;
    let mut build = Vec::new();
    let mut arena_bytes = 0;
    for rep in 0..SETUP_REPS {
        let (index, s) = timed(&tracer, span_meta!("bench_build_walk_index"), rep, || {
            build_walk_index(&graph, &pg, &index_config)
        });
        build.push(s);
        arena_bytes = lib("build_walk_index", index)?.0.memory_bytes();
    }
    report.check(
        "layout_matches_session",
        pg.placement().replication_factor() == traced.replication_factor()
            && Some(arena_bytes) == traced.walk_index().map(|i| i.memory_bytes()),
        "the separately built layout and index equal the session's",
    );
    layers.walkindex_build_s = median(&build);
    layers.walkindex_arena_mb = arena_bytes as f64 / (1024.0 * 1024.0);
    drop(pg);

    let half = seconds / 2.0;
    let untraced = {
        let mut session = lib("build", spec.builder(&graph, WORKERS, false).build())?;
        let pass = {
            let mut handle = lib("serve_with", session.serve_with(serve_config()))?;
            serve_pass(&mut handle, seed, half, &inputs, &truths)
        };
        check_serial(&mut session, seed, &pass.kept, report)?;
        pass
    };
    let pass = {
        let mut handle = lib("serve_with", traced.serve_with(serve_config()))?;
        serve_pass(&mut handle, seed, half, &inputs, &truths)
    };
    let timeline = tracer.finish();

    let failed = untraced.failed + pass.failed;
    report.attempted = untraced.served() + pass.served() + failed;
    report.failed = failed;
    report.check(
        "no_failed_queries",
        failed == 0,
        format!("{failed} rejected or failed"),
    );
    report.check(
        "traced_vs_untraced",
        pass.kept == untraced.kept,
        "traced responses equal untraced responses bit for bit",
    );
    pass.first.check(report);

    let spans = attribute(&timeline);
    let span_ms = |name: &str| spans.total(name) as f64 / 1e3 / spans.count(name).max(1) as f64;
    layers.walkindex_ppr_ms = span_ms("index_ppr");
    layers.walkindex_topk_ms = span_ms("index_topk");
    let c = &pass.first.counters;
    layers.walkindex_hit_rate = c.index_hits as f64 / (c.index_hits + c.index_misses).max(1) as f64;
    layers.walkindex_push_ops = c.per_query(c.push_ops as f64);
    layers.walkindex_walk_hops = c.per_query(c.walk_hops as f64);
    layers.walkindex_ppr_precision_at_20 = pass.first.precision;
    layers.engine_active_vertices = c.per_query(c.active_vertices as f64);
    layers.engine_routed_messages = c.per_query(c.routed_messages as f64);
    layers.engine_network_messages = c.per_query(c.network_messages as f64);
    layers.engine_net_bytes_per_query = c.per_query(c.network_bytes as f64);
    layers.engine_sim_ms_per_query = c.per_query(c.simulated_seconds * 1e3);
    layers.session_self_ms = mean(pass.service.iter().map(|&(seq, s)| {
        s * 1e3 - spans.index_us_by_seq.get(&seq).copied().unwrap_or(0) as f64 / 1e3
    }));
    let served = pass.served().max(1) as f64;
    layers.serve_queue_wait_ms = pass.queue_wait / served * 1e3;
    layers.serve_service_ms = pass.busy / served * 1e3;
    layers.serve_worker_busy_frac = pass.busy / (WORKERS as f64 * pass.wall);
    let (traced_s, untraced_s) = (pass.seconds(), untraced.seconds());
    layers.obs_trace_overhead_frac = median(&traced_s) / median(&untraced_s) - 1.0;
    layers.emit(report, CHUNK, traced_s.len());
    report.line(format!(
        "passes: untraced n={}, traced n={}",
        untraced.service.len(),
        pass.service.len()
    ));

    fingerprint_inputs(report, &inputs, &traced);
    pass.first.fingerprint(report);
    Ok(Some(timeline.to_chrome_json()))
}
