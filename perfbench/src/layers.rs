//! The per-layer metrics of a traced run, printed in one fixed order for every
//! workload. A layer a workload bypasses reports zero.

use frogwild_engine::{PartitionedGraph, Partitioner};
use frogwild_graph::DiGraph;
use frogwild_obs::{span_meta, Tracer};

use crate::common::{median, Inputs, Report, Res, SessionSpec, MACHINES, SETUP_REPS};
use crate::tracing::timed;

/// One traced run's per-layer numbers. Units are in the field names' suffixes.
#[derive(Default)]
pub struct Layers {
    pub graph_decode_s: f64,
    pub partition_assign_s: f64,
    pub partition_shard_build_s: f64,
    pub partition_replication_factor: f64,
    pub partition_edge_imbalance: f64,
    pub engine_superstep_ms: f64,
    /// Mean ms per query of each of `tracing::PHASES`.
    pub engine_phase_ms: [f64; 5],
    pub engine_batch_busy_frac: f64,
    pub engine_speedup_2w: f64,
    pub engine_active_vertices: f64,
    pub engine_routed_messages: f64,
    pub engine_network_messages: f64,
    pub engine_skip_ratio: f64,
    pub engine_net_bytes_per_query: f64,
    pub engine_sim_ms_per_query: f64,
    pub engine_edge_updates_per_s: f64,
    pub session_self_ms: f64,
    pub walkindex_build_s: f64,
    pub walkindex_arena_mb: f64,
    pub walkindex_ppr_ms: f64,
    pub walkindex_topk_ms: f64,
    pub walkindex_hit_rate: f64,
    pub walkindex_push_ops: f64,
    pub walkindex_walk_hops: f64,
    pub walkindex_ppr_precision_at_20: f64,
    pub serve_queue_wait_ms: f64,
    pub serve_service_ms: f64,
    pub serve_worker_busy_frac: f64,
    pub obs_trace_overhead_frac: f64,
}

impl Layers {
    /// Times the graph and partition layers' public calls one by one, inside
    /// benchmark spans, `SETUP_REPS` times each; returns the last layout built.
    pub fn time_setup_calls(
        &mut self,
        tracer: &Tracer,
        inputs: &Inputs,
        graph: &DiGraph,
        spec: &SessionSpec,
    ) -> Res<PartitionedGraph> {
        let (mut decode, mut assign, mut shard) = (Vec::new(), Vec::new(), Vec::new());
        let mut layout = None;
        for rep in 0..SETUP_REPS {
            let (decoded, s) = timed(tracer, span_meta!("bench_read_snapshot"), rep, || {
                inputs.decode()
            });
            decoded?;
            decode.push(s);
            let (assignment, s) = timed(tracer, span_meta!("bench_assign"), rep, || {
                spec.partitioner.assign(graph, MACHINES, spec.seed)
            });
            assign.push(s);
            let (pg, s) = timed(tracer, span_meta!("bench_shard_build"), rep, || {
                let name = spec.partitioner.name();
                PartitionedGraph::from_assignment(graph, &assignment, name, spec.seed)
            });
            shard.push(s);
            layout = Some((pg, assignment.imbalance()));
        }
        let (pg, imbalance) = layout.ok_or("no set-up repetitions")?;
        self.graph_decode_s = median(&decode);
        self.partition_assign_s = median(&assign);
        self.partition_shard_build_s = median(&shard);
        self.partition_replication_factor = pg.placement().replication_factor();
        self.partition_edge_imbalance = imbalance;
        Ok(pg)
    }

    /// Adds every per-layer metric to the report, each with its sample count:
    /// `SETUP_REPS` timed calls for set-up layers, the kept `prefix` of queries
    /// for deterministic counters, and the traced pass's `queries` for the rest.
    pub fn emit(&self, report: &mut Report, prefix: usize, queries: usize) {
        let [gather, apply, sync, scatter, route] = self.engine_phase_ms;
        let (reps, p, q) = (SETUP_REPS, prefix, queries);
        let rows: [(&str, f64, &str, usize); 33] = [
            ("graph.decode_s", self.graph_decode_s, "s", reps),
            ("partition.assign_s", self.partition_assign_s, "s", reps),
            (
                "partition.shard_build_s",
                self.partition_shard_build_s,
                "s",
                reps,
            ),
            (
                "partition.replication_factor",
                self.partition_replication_factor,
                "ratio",
                1,
            ),
            (
                "partition.edge_imbalance",
                self.partition_edge_imbalance,
                "ratio",
                1,
            ),
            ("engine.superstep_ms", self.engine_superstep_ms, "ms", q),
            ("engine.gather_ms", gather, "ms", q),
            ("engine.apply_ms", apply, "ms", q),
            ("engine.sync_ms", sync, "ms", q),
            ("engine.scatter_ms", scatter, "ms", q),
            ("engine.route_ms", route, "ms", q),
            (
                "engine.batch_busy_frac",
                self.engine_batch_busy_frac,
                "ratio",
                q,
            ),
            ("engine.speedup_2w", self.engine_speedup_2w, "ratio", q),
            (
                "engine.active_vertices",
                self.engine_active_vertices,
                "count",
                p,
            ),
            (
                "engine.routed_messages",
                self.engine_routed_messages,
                "count",
                p,
            ),
            (
                "engine.network_messages",
                self.engine_network_messages,
                "count",
                p,
            ),
            ("engine.skip_ratio", self.engine_skip_ratio, "ratio", p),
            (
                "engine.net_bytes_per_query",
                self.engine_net_bytes_per_query,
                "B",
                p,
            ),
            (
                "engine.sim_ms_per_query",
                self.engine_sim_ms_per_query,
                "sim_ms",
                p,
            ),
            (
                "engine.edge_updates_per_s",
                self.engine_edge_updates_per_s,
                "1/s",
                q,
            ),
            ("session.self_ms", self.session_self_ms, "ms", q),
            ("walkindex.build_s", self.walkindex_build_s, "s", reps),
            ("walkindex.arena_mb", self.walkindex_arena_mb, "MB", 1),
            ("walkindex.ppr_ms", self.walkindex_ppr_ms, "ms", q),
            ("walkindex.topk_ms", self.walkindex_topk_ms, "ms", q),
            ("walkindex.hit_rate", self.walkindex_hit_rate, "ratio", p),
            ("walkindex.push_ops", self.walkindex_push_ops, "count", p),
            ("walkindex.walk_hops", self.walkindex_walk_hops, "count", p),
            (
                "walkindex.ppr_precision_at_20",
                self.walkindex_ppr_precision_at_20,
                "ratio",
                p,
            ),
            ("serve.queue_wait_ms", self.serve_queue_wait_ms, "ms", q),
            ("serve.service_ms", self.serve_service_ms, "ms", q),
            (
                "serve.worker_busy_frac",
                self.serve_worker_busy_frac,
                "ratio",
                q,
            ),
            (
                "obs.trace_overhead_frac",
                self.obs_trace_overhead_frac,
                "ratio",
                q,
            ),
        ];
        for (name, value, unit, samples) in rows {
            report.metric(name, value, unit, samples);
        }
    }
}
