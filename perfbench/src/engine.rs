//! The two engine workloads: `frogwild-topk` (the paper's algorithm: sparse
//! frontier, partial mirror sync) and `graphlab-pr` (the paper's baseline: dense
//! frontier, full sync). Both are closed loops with one client over
//! `Session::query`.

use frogwild::session::{Query, Response};
use frogwild::{FrogWildConfig, PageRankConfig};
use frogwild_engine::PartitionerKind;
use frogwild_graph::generators::{livejournal_like, twitter_like};
use frogwild_graph::DiGraph;
use rand::rngs::SmallRng;

use crate::common::{
    closed_loop, digest_ranking, fingerprint_inputs, lib, mass, mean, median, mix, timed_build,
    timed_setups, ClosedLoop, Counters, Fnv, Inputs, Report, Res, SessionSpec, TOP_K, WORKERS,
};
use crate::layers::Layers;
use crate::tracing::{attribute, PHASES};

/// One engine workload.
pub struct EngineWorkload {
    pub generator: fn(usize, &mut SmallRng) -> DiGraph,
    pub vertices: usize,
    pub partitioner: PartitionerKind,
    pub query: fn(u64, usize) -> Query,
    /// Leading queries whose responses are kept: they feed the correctness checks,
    /// `mass_captured` and the counter fingerprint, so those repeat exactly.
    pub prefix: usize,
    /// Lowest acceptable mean `mass_captured` over the prefix.
    pub mass_floor: f64,
}

/// FrogWild top-100 on a 100k-vertex Twitter-like graph, oblivious partitioning.
pub const FROGWILD_TOPK: EngineWorkload = EngineWorkload {
    generator: twitter_like,
    vertices: 100_000,
    partitioner: PartitionerKind::Oblivious,
    query: frogwild_query,
    prefix: 16,
    mass_floor: 0.5,
};

/// GraphLab PageRank, 5 iterations, on a 60k-vertex LiveJournal-like graph, grid
/// partitioning.
pub const GRAPHLAB_PR: EngineWorkload = EngineWorkload {
    generator: livejournal_like,
    vertices: 60_000,
    partitioner: PartitionerKind::Grid,
    query: graphlab_query,
    prefix: 2,
    mass_floor: 0.9,
};

fn frogwild_query(seed: u64, i: usize) -> Query {
    Query::TopK {
        k: TOP_K,
        config: FrogWildConfig {
            num_walkers: 20_000,
            iterations: 4,
            sync_probability: 0.7,
            seed: mix(seed, 0x7097 + i as u64),
            parallel: true,
            ..FrogWildConfig::default()
        },
    }
}

fn graphlab_query(seed: u64, i: usize) -> Query {
    Query::Pagerank {
        k: TOP_K,
        config: PageRankConfig {
            seed: mix(seed, 0x9A9E + i as u64),
            parallel: true,
            ..PageRankConfig::truncated(5)
        },
    }
}

impl EngineWorkload {
    fn spec(&self, seed: u64) -> SessionSpec {
        SessionSpec {
            partitioner: self.partitioner,
            walk_index: None,
            seed: mix(seed, 0x5E55),
        }
    }

    /// The end-to-end run: timed set-ups, then the untraced closed loop.
    pub fn run(&self, seed: u64, seconds: f64, report: &mut Report) -> Res<()> {
        let inputs = Inputs::generate(self.generator, self.vertices, seed)?;
        let spec = self.spec(seed);
        let query = |i| (self.query)(seed, i);
        let (graph, decode_s, mut setup) = timed_setups(&inputs, &spec)?;
        let mut session = timed_build(&graph, &spec, decode_s, &mut setup)?;

        // Untimed: the first query on one worker, and the same query as warm-up.
        let one_worker = {
            let mut single = lib("build", spec.builder(&graph, 1, false).build())?;
            lib("query", single.query(&query(0)))?
        };
        let warm = lib("query", session.query(&query(0)))?;
        report.check(
            "workers_1_vs_2",
            warm == one_worker,
            "the first query answers the same on 1 and 2 workers",
        );

        let run = closed_loop(&mut session, &query, self.prefix, seconds);
        report.attempted = run.latencies.len() as u64 + run.failed;
        report.failed = run.failed;
        report.check(
            "no_failed_queries",
            run.failed == 0,
            format!("{} failed", run.failed),
        );

        let prefix = self.checked_prefix(&run, &inputs, report);
        let served = run.latencies.len();
        report.end_to_end(
            &setup,
            &run.latencies,
            served as f64 / run.wall,
            prefix.mass,
            run.kept.len(),
        )?;
        report.info(
            "net_bytes_per_query",
            prefix
                .counters
                .per_query(prefix.counters.network_bytes as f64),
            "B",
            run.kept.len(),
        );
        report.info(
            "sim_ms_per_query",
            prefix
                .counters
                .per_query(prefix.counters.simulated_seconds * 1e3),
            "sim_ms",
            run.kept.len(),
        );
        report.info(
            "edge_updates_per_s",
            edge_updates_per_s(&run, graph.num_edges()),
            "1/s",
            served,
        );

        fingerprint_inputs(report, &inputs, &session);
        prefix.fingerprint(report);
        Ok(())
    }

    /// The traced run: each layer's public calls timed one by one, then three
    /// closed-loop passes — untraced on 2 workers, untraced on 1 worker, traced on
    /// 2 workers — of `seconds / 3` each.
    pub fn run_traced(&self, seed: u64, seconds: f64, report: &mut Report) -> Res<Option<String>> {
        let inputs = Inputs::generate(self.generator, self.vertices, seed)?;
        let spec = self.spec(seed);
        let query = |i| (self.query)(seed, i);
        let graph = inputs.decode()?;
        let mut traced = lib("build", spec.builder(&graph, WORKERS, true).build())?;
        let tracer = traced.tracer().clone();

        let mut layers = Layers::default();
        let pg = layers.time_setup_calls(&tracer, &inputs, &graph, &spec)?;
        report.check(
            "layout_matches_session",
            pg.placement().replication_factor() == traced.replication_factor(),
            "the separately built layout equals the session's",
        );
        drop(pg);

        let third = seconds / 3.0;
        let pass = |workers| -> Res<ClosedLoop> {
            let mut session = lib("build", spec.builder(&graph, workers, false).build())?;
            Ok(closed_loop(&mut session, &query, self.prefix, third))
        };
        let two = pass(WORKERS)?;
        let one = pass(1)?;
        let run = closed_loop(&mut traced, &query, self.prefix, third);
        let timeline = tracer.finish();

        let failed = two.failed + one.failed + run.failed;
        report.attempted =
            (two.latencies.len() + one.latencies.len() + run.latencies.len()) as u64 + failed;
        report.failed = failed;
        report.check("no_failed_queries", failed == 0, format!("{failed} failed"));
        report.check(
            "traced_vs_untraced",
            run.kept == two.kept,
            "traced responses equal untraced responses bit for bit",
        );
        report.check(
            "workers_1_vs_2",
            one.kept == two.kept,
            "responses on 1 worker equal responses on 2 workers",
        );
        let prefix = self.checked_prefix(&two, &inputs, report);

        let spans = attribute(&timeline);
        let queries = run.latencies.len().max(1) as f64;
        let ms = |us: u64| us as f64 / 1e3 / queries;
        layers.engine_superstep_ms = ms(spans.total("superstep"));
        for (slot, phase) in layers.engine_phase_ms.iter_mut().zip(PHASES) {
            *slot = ms(spans.total(phase));
        }
        let phase_us: u64 = PHASES.iter().map(|p| spans.total(p)).sum();
        layers.engine_batch_busy_frac =
            spans.batch_total() as f64 / (phase_us as f64 * WORKERS as f64);
        layers.engine_speedup_2w = median(&one.latencies) / median(&two.latencies);
        let c = &prefix.counters;
        layers.engine_active_vertices = c.per_query(c.active_vertices as f64);
        layers.engine_routed_messages = c.per_query(c.routed_messages as f64);
        layers.engine_network_messages = c.per_query(c.network_messages as f64);
        layers.engine_skip_ratio = c.skipped_scatters as f64 / c.active_vertices.max(1) as f64;
        layers.engine_net_bytes_per_query = c.per_query(c.network_bytes as f64);
        layers.engine_sim_ms_per_query = c.per_query(c.simulated_seconds * 1e3);
        layers.engine_edge_updates_per_s = edge_updates_per_s(&two, graph.num_edges());
        layers.session_self_ms = mean(
            spans
                .query_us
                .iter()
                .zip(&spans.superstep_us)
                .map(|(q, s)| q.saturating_sub(*s) as f64 / 1e3),
        );
        layers.walkindex_push_ops = c.per_query(c.push_ops as f64);
        layers.walkindex_walk_hops = c.per_query(c.walk_hops as f64);
        layers.obs_trace_overhead_frac = median(&run.latencies) / median(&two.latencies) - 1.0;
        layers.emit(report, self.prefix, run.latencies.len());
        report.line(format!(
            "passes: untraced 2 workers n={}, untraced 1 worker n={}, traced 2 workers n={}",
            two.latencies.len(),
            one.latencies.len(),
            run.latencies.len()
        ));

        fingerprint_inputs(report, &inputs, &traced);
        prefix.fingerprint(report);
        Ok(Some(timeline.to_chrome_json()))
    }

    /// Checks the kept responses and sums their deterministic counters.
    fn checked_prefix(&self, run: &ClosedLoop, inputs: &Inputs, report: &mut Report) -> Prefix {
        let mut counters = Counters::default();
        let mut digest = Fnv::new();
        for response in &run.kept {
            counters.add(&response.cost);
            digest_ranking(&mut digest, response);
        }
        let complete =
            run.kept.len() == self.prefix && run.kept.iter().all(|r| r.ranking.len() == TOP_K);
        report.check(
            "complete_rankings",
            complete,
            format!("top-{TOP_K} of every kept query"),
        );
        let mass = mean(run.kept.iter().map(|r: &Response| mass(r, &inputs.truth)));
        report.check(
            "mass_captured_floor",
            mass >= self.mass_floor,
            format!("mean mass captured {mass} >= {}", self.mass_floor),
        );
        Prefix {
            counters,
            digest: digest.finish(),
            mass,
        }
    }
}

/// The deterministic part of a run: the kept queries' counters, rankings and mass.
struct Prefix {
    counters: Counters,
    digest: u64,
    mass: f64,
}

impl Prefix {
    fn fingerprint(&self, report: &mut Report) {
        self.counters.fingerprint(report);
        report.fingerprint("queries.ranking_fnv64", format!("{:016x}", self.digest));
        report.fingerprint("queries.mass_captured", format!("{:?}", self.mass));
    }
}

/// Σ(edges × supersteps) over Σ query seconds.
fn edge_updates_per_s(run: &ClosedLoop, edges: usize) -> f64 {
    let updates: f64 = run
        .costs
        .iter()
        .map(|c| (edges * c.supersteps) as f64)
        .sum();
    updates / run.latencies.iter().sum::<f64>()
}
