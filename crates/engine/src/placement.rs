//! Master/mirror placement and per-machine graph shards.
//!
//! Given an edge-to-machine assignment (a vertex-cut), this module derives the data
//! layout a PowerGraph-like engine works with:
//!
//! * every vertex has a replica on each machine owning at least one of its edges;
//! * exactly one replica is designated the **master** (it holds the authoritative vertex
//!   state, runs `apply`, and pushes updates to the mirrors);
//! * every machine holds a [`Shard`]: its local edges in CSR form over *local* vertex
//!   indices, plus the table from local index to global id.
//!
//! [`VertexPlacement`] is a flat CSR **replica directory**, built once at partition
//! time: for every vertex one contiguous run of `(machine, local index, has local
//! out-edges)` entries, sorted by machine, plus the master's position in that run.
//! It answers every replica-level question the engine asks — where the master lives,
//! which local slot a replica occupies, whether it can scatter — with array reads, so
//! no lookup table is searched on the superstep path. The shard build itself resolves
//! its per-edge local indices through the directory. [`Shard::local_index`] (a binary
//! search over the shard's vertex table) remains only for [`PartitionedGraph::validate`]
//! and tests.
//!
//! The replication factor reported by [`VertexPlacement::replication_factor`] is the
//! quantity that drives the per-iteration network cost of the standard PageRank — the
//! cost the paper's partial synchronization reduces.

// lint:allow-file(indexing, build-time CSR assembly; every local index is created by the counting pass right above its use)

use crate::cluster::MachineId;
use crate::partition::{EdgeAssignment, Partitioner};
use crate::rng;
use frogwild_graph::{DiGraph, VertexId};

/// Where each vertex's master lives and which machines hold replicas: the flat replica
/// directory.
///
/// Vertex `v` owns the entries `offsets[v]..offsets[v + 1]` of three parallel arrays
/// (machine, local index on that machine's shard, whether that shard owns an out-edge
/// of `v`), sorted by machine. `master_pos[v]` is the master's position in the run.
#[derive(Clone, Debug)]
pub struct VertexPlacement {
    offsets: Vec<usize>,
    machines: Vec<MachineId>,
    locals: Vec<u32>,
    has_out: Vec<bool>,
    master_pos: Vec<u16>,
}

/// One vertex's run of the replica directory: parallel slices sorted by machine.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ReplicaRun<'a> {
    /// Machines holding a replica, ascending.
    pub(crate) machines: &'a [MachineId],
    /// Local index of the replica on each machine's shard.
    pub(crate) locals: &'a [u32],
    /// Whether each machine's shard owns at least one out-edge of the vertex.
    pub(crate) has_out: &'a [bool],
    /// Position of the master replica in the run.
    pub(crate) master: usize,
}

impl ReplicaRun<'_> {
    /// Machine of the master replica.
    #[inline]
    pub(crate) fn master_machine(&self) -> MachineId {
        self.machines[self.master]
    }

    /// Local index of the master replica on its shard.
    #[inline]
    pub(crate) fn master_local(&self) -> u32 {
        self.locals[self.master]
    }
}

impl VertexPlacement {
    /// The directory run of `v`.
    #[inline]
    pub(crate) fn run(&self, v: VertexId) -> ReplicaRun<'_> {
        let range = self.range(v);
        ReplicaRun {
            machines: &self.machines[range.clone()],
            locals: &self.locals[range.clone()],
            has_out: &self.has_out[range],
            master: self.master_pos[v as usize] as usize,
        }
    }

    #[inline]
    fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        let v = v as usize;
        self.offsets[v]..self.offsets[v + 1]
    }

    /// Position of `v`'s master entry in the flat directory arrays.
    #[inline]
    fn master_entry(&self, v: VertexId) -> usize {
        self.offsets[v as usize] + self.master_pos[v as usize] as usize
    }

    /// Master machine of `v`.
    #[inline]
    pub fn master(&self, v: VertexId) -> MachineId {
        self.machines[self.master_entry(v)]
    }

    /// Local index of `v`'s master replica on the master machine's shard.
    #[inline]
    pub(crate) fn master_local(&self, v: VertexId) -> u32 {
        self.locals[self.master_entry(v)]
    }

    /// Machines holding a replica of `v` (sorted, includes the master's machine).
    #[inline]
    pub fn replicas(&self, v: VertexId) -> &[MachineId] {
        &self.machines[self.range(v)]
    }

    /// Position of machine `m` in `v`'s run, if `m` holds a replica (a search of a
    /// run, which is at most as long as the machine count).
    #[inline]
    fn position_on(&self, v: VertexId, m: MachineId) -> Option<usize> {
        self.machines[self.range(v)].binary_search(&m).ok()
    }

    /// Local index of the replica at position `pos` of `v`'s run.
    #[inline]
    fn local_at(&self, v: VertexId, pos: usize) -> u32 {
        self.locals[self.offsets[v as usize] + pos]
    }

    /// Mirror machines of `v` (replicas excluding the master's machine).
    pub fn mirrors(&self, v: VertexId) -> impl Iterator<Item = MachineId> + '_ {
        let master = self.master(v);
        self.replicas(v)
            .iter()
            .copied()
            .filter(move |&m| m != master)
    }

    /// Number of vertices placed.
    pub fn num_vertices(&self) -> usize {
        self.master_pos.len()
    }

    /// Average number of replicas per vertex — the key cost metric of a vertex-cut.
    pub fn replication_factor(&self) -> f64 {
        if self.master_pos.is_empty() {
            return 0.0;
        }
        self.machines.len() as f64 / self.master_pos.len() as f64
    }

    /// Total number of mirror replicas (replicas minus masters), i.e. the number of
    /// master→mirror synchronization messages a full sync of every vertex would send.
    pub fn total_mirrors(&self) -> usize {
        self.machines.len().saturating_sub(self.master_pos.len())
    }
}

/// The slice of the graph owned by one machine.
#[derive(Clone, Debug)]
pub struct Shard {
    /// The machine this shard belongs to.
    pub machine: MachineId,
    /// Global ids of the vertices with a replica on this machine, sorted ascending.
    /// Local vertex index `i` refers to `vertices[i]`.
    pub vertices: Vec<VertexId>,
    /// `true` for local vertices whose master lives on this machine.
    pub is_master: Vec<bool>,
    /// Local edges in CSR form by *source* local index (used by scatter).
    out_offsets: Vec<usize>,
    out_targets_local: Vec<u32>,
    /// Local edges in CSR form by *destination* local index (used by gather).
    in_offsets: Vec<usize>,
    in_sources_local: Vec<u32>,
}

impl Shard {
    /// Number of local vertex replicas.
    pub fn num_local_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges owned by this machine.
    pub fn num_local_edges(&self) -> usize {
        self.out_targets_local.len()
    }

    /// Local index of a global vertex id, if the vertex has a replica here.
    ///
    /// A binary search over the shard's vertex table, meant for
    /// [`PartitionedGraph::validate`] and tests only: the engine and the shard build
    /// read local indices from the replica directory ([`VertexPlacement`]).
    pub fn local_index(&self, v: VertexId) -> Option<u32> {
        // `vertices` is sorted ascending, so the local index is its rank.
        self.vertices.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Global id of a local index.
    #[inline]
    pub fn global_id(&self, local: u32) -> VertexId {
        self.vertices[local as usize]
    }

    /// Local out-neighbors (as local indices) of the vertex with local index `local`.
    #[inline]
    pub fn local_out_neighbors(&self, local: u32) -> &[u32] {
        let l = local as usize;
        &self.out_targets_local[self.out_offsets[l]..self.out_offsets[l + 1]]
    }

    /// Local in-neighbors (as local indices) of the vertex with local index `local`.
    #[inline]
    pub fn local_in_neighbors(&self, local: u32) -> &[u32] {
        let l = local as usize;
        &self.in_sources_local[self.in_offsets[l]..self.in_offsets[l + 1]]
    }

    /// Number of out-edges of `local` owned by this machine.
    #[inline]
    pub fn local_out_degree(&self, local: u32) -> usize {
        let l = local as usize;
        self.out_offsets[l + 1] - self.out_offsets[l]
    }

    /// Number of in-edges of `local` owned by this machine.
    #[inline]
    pub fn local_in_degree(&self, local: u32) -> usize {
        let l = local as usize;
        self.in_offsets[l + 1] - self.in_offsets[l]
    }

    /// Iterates local masters as `(local_index, global_id)` pairs.
    pub fn masters(&self) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        self.vertices
            .iter()
            .enumerate()
            .filter(move |&(i, _)| self.is_master[i])
            .map(|(i, &v)| (i as u32, v))
    }
}

/// A graph partitioned across a simulated cluster: per-machine shards plus the global
/// placement and degree tables the engine needs.
#[derive(Clone, Debug)]
pub struct PartitionedGraph {
    num_vertices: usize,
    num_edges: usize,
    shards: Vec<Shard>,
    placement: VertexPlacement,
    /// Global out-degree of every vertex (the full graph's out-degree, which the random
    /// walk transition probabilities are defined over).
    out_degrees: Vec<u32>,
    /// Name of the partitioner that produced this layout (for reports).
    partitioner_name: &'static str,
}

impl PartitionedGraph {
    /// Partitions `graph` across `num_machines` machines using `partitioner`.
    ///
    /// Master assignment follows PowerGraph: the master of a vertex is chosen by a
    /// seed-derived hash among the machines holding a replica of that vertex (isolated
    /// vertices are hashed across all machines).
    pub fn build(
        graph: &DiGraph,
        num_machines: usize,
        partitioner: &dyn Partitioner,
        seed: u64,
    ) -> Self {
        let assignment = partitioner.assign(graph, num_machines, seed);
        Self::from_assignment(graph, &assignment, partitioner.name(), seed)
    }

    /// Builds the partitioned layout from an explicit edge assignment.
    pub fn from_assignment(
        graph: &DiGraph,
        assignment: &EdgeAssignment,
        partitioner_name: &'static str,
        seed: u64,
    ) -> Self {
        let n = graph.num_vertices();
        let num_machines = assignment.num_machines;
        assert_eq!(
            assignment.machines.len(),
            graph.num_edges(),
            "assignment must cover every edge"
        );

        // --- replica sets: one machine bitmask per vertex ------------------------
        let words = num_machines.div_ceil(64);
        let mut masks = vec![0u64; n * words];
        let mark = |masks: &mut [u64], v: usize, m: usize| {
            masks[v * words + m / 64] |= 1u64 << (m % 64);
        };
        for ((src, dst), &machine) in graph.edges().zip(assignment.machines.iter()) {
            mark(&mut masks, src as usize, machine.index());
            mark(&mut masks, dst as usize, machine.index());
        }
        // Isolated vertices (no edges at all) still need a home for their master.
        for v in 0..n {
            if masks[v * words..(v + 1) * words].iter().all(|&w| w == 0) {
                let m = rng::pick_index(num_machines, &[seed, 0x150AA7ED, v as u64]);
                mark(&mut masks, v, m);
            }
        }

        // --- directory runs, local indices and master assignment ----------------
        // Visiting vertices in ascending id order hands out each shard's local
        // indices in ascending global-id order, so local index = rank in the shard.
        let total: usize = masks.iter().map(|w| w.count_ones() as usize).sum();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut machines: Vec<MachineId> = Vec::with_capacity(total);
        let mut locals: Vec<u32> = Vec::with_capacity(total);
        let mut master_pos: Vec<u16> = Vec::with_capacity(n);
        let mut shard_vertices: Vec<Vec<VertexId>> = vec![Vec::new(); num_machines];
        offsets.push(0);
        for v in 0..n {
            let start = machines.len();
            for (w, &word) in masks[v * words..(v + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let m = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    machines.push(MachineId::from(m));
                    locals.push(shard_vertices[m].len() as u32);
                    shard_vertices[m].push(v as VertexId);
                }
            }
            let len = machines.len() - start;
            master_pos.push(rng::pick_index(len, &[seed, 0x4A57E2, v as u64]) as u16);
            offsets.push(machines.len());
        }
        drop(masks);

        // --- shards -------------------------------------------------------------
        let mut shards: Vec<Shard> = shard_vertices
            .into_iter()
            .enumerate()
            .map(|(m, vertices)| Shard {
                machine: MachineId::from(m),
                is_master: vec![false; vertices.len()],
                vertices,
                out_offsets: Vec::new(),
                out_targets_local: Vec::new(),
                in_offsets: Vec::new(),
                in_sources_local: Vec::new(),
            })
            .collect();
        for v in 0..n {
            let e = offsets[v] + master_pos[v] as usize;
            shards[machines[e].index()].is_master[locals[e] as usize] = true;
        }

        // The out-edge flags are known once the local CSRs exist.
        let mut placement = VertexPlacement {
            offsets,
            has_out: vec![false; machines.len()],
            machines,
            locals,
            master_pos,
        };
        build_local_csrs(graph, assignment, &placement, &mut shards);
        for ((flag, &m), &l) in placement
            .has_out
            .iter_mut()
            .zip(&placement.machines)
            .zip(&placement.locals)
        {
            *flag = shards[m.index()].local_out_degree(l) > 0;
        }

        let out_degrees = (0..n as VertexId)
            .map(|v| graph.out_degree(v) as u32)
            .collect();

        PartitionedGraph {
            num_vertices: n,
            num_edges: graph.num_edges(),
            shards,
            placement,
            out_degrees,
            partitioner_name,
        }
    }

    /// Number of vertices in the underlying graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of edges in the underlying graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.shards.len()
    }

    /// The per-machine shards.
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// One shard by machine id.
    pub fn shard(&self, machine: MachineId) -> &Shard {
        &self.shards[machine.index()]
    }

    /// Master/replica placement tables.
    pub fn placement(&self) -> &VertexPlacement {
        &self.placement
    }

    /// Global out-degree of a vertex (over the whole graph, not just local edges).
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> u32 {
        self.out_degrees[v as usize]
    }

    /// Name of the partitioner that produced this layout.
    pub fn partitioner_name(&self) -> &'static str {
        self.partitioner_name
    }

    /// Consistency check used by tests: every edge appears on exactly one machine, every
    /// endpoint of a local edge has a local replica, local degree sums match global
    /// degrees, and every replica directory entry agrees with its shard — the entry's
    /// local index maps back to the vertex, its out-edge flag matches the shard's local
    /// out-degree, each run is sorted by machine, and exactly one entry (the master's)
    /// is flagged `is_master` by its shard.
    pub fn validate(&self) -> Result<(), frogwild_graph::Error> {
        let fail = |message: String| Err(frogwild_graph::Error::partition(message));
        let total_local_edges: usize = self.shards.iter().map(|s| s.num_local_edges()).sum();
        if total_local_edges != self.num_edges {
            return fail(format!(
                "local edges {} do not sum to global edge count {}",
                total_local_edges, self.num_edges
            ));
        }
        let total_local_vertices: usize = self.shards.iter().map(|s| s.num_local_vertices()).sum();
        if total_local_vertices != self.placement.machines.len() {
            return fail(format!(
                "shards hold {total_local_vertices} replicas, the directory {}",
                self.placement.machines.len()
            ));
        }
        for v in 0..self.num_vertices as VertexId {
            let run = self.placement.run(v);
            if run.master >= run.machines.len() {
                return fail(format!("vertex {v}: master position outside its run"));
            }
            if !run.machines.windows(2).all(|w| w[0] < w[1]) {
                return fail(format!("vertex {v}: directory run not sorted by machine"));
            }
            let mut local_out_total = 0usize;
            for (i, ((&m, &local), &has_out)) in run
                .machines
                .iter()
                .zip(run.locals)
                .zip(run.has_out)
                .enumerate()
            {
                let Some(shard) = self.shards.get(m.index()) else {
                    return fail(format!("vertex {v}: replica on unknown machine {m}"));
                };
                if shard.vertices.get(local as usize) != Some(&v) {
                    return fail(format!(
                        "vertex {v}: directory entry for {m} points at the wrong local slot"
                    ));
                }
                let out_degree = shard.local_out_degree(local);
                if has_out != (out_degree > 0) {
                    return fail(format!("vertex {v}: out-edge flag wrong on {m}"));
                }
                if shard.is_master.get(local as usize) != Some(&(i == run.master)) {
                    return fail(format!(
                        "vertex {v}: shard {m} master flag disagrees with the directory"
                    ));
                }
                local_out_total += out_degree;
            }
            if local_out_total != self.out_degrees[v as usize] as usize {
                return fail(format!(
                    "vertex {v}: local out-degrees sum to {local_out_total}, global is {}",
                    self.out_degrees[v as usize]
                ));
            }
        }
        for shard in &self.shards {
            if shard.vertices.len() != shard.is_master.len() {
                return fail(format!(
                    "shard {} vertex/master table length mismatch",
                    shard.machine
                ));
            }
            for (i, &v) in shard.vertices.iter().enumerate() {
                if shard.local_index(v) != Some(i as u32) {
                    return fail(format!(
                        "shard {}: lookup table inconsistent for vertex {v}",
                        shard.machine
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Builds every shard's local out- and in-edge CSR with two passes over the edges
/// (count, then fill), resolving both endpoints' local indices through the replica
/// directory. The count pass remembers each edge's destination as its position in
/// the destination's run (a `u16`: runs are at most as long as the machine count), so
/// the fill pass does not search again. Within a shard, edges keep global edge
/// order, as the engine's scatter order requires.
fn build_local_csrs(
    graph: &DiGraph,
    assignment: &EdgeAssignment,
    placement: &VertexPlacement,
    shards: &mut [Shard],
) {
    for shard in shards.iter_mut() {
        let num_local = shard.vertices.len();
        shard.out_offsets = vec![0; num_local + 1];
        shard.in_offsets = vec![0; num_local + 1];
    }
    // Count pass: per-shard local degrees, stored one slot ahead for the prefix sum.
    let mut dst_positions: Vec<u16> = Vec::with_capacity(graph.num_edges());
    for_each_edge(graph, assignment, placement, |m, ls, dst| {
        let pos = placement
            .position_on(dst, MachineId::from(m))
            // lint:allow(panic, placement invariant: edge endpoints are replicated where the edge lives)
            .expect("destination must have a replica");
        dst_positions.push(pos as u16);
        let ld = placement.local_at(dst, pos);
        let shard = &mut shards[m];
        shard.out_offsets[ls as usize + 1] += 1;
        shard.in_offsets[ld as usize + 1] += 1;
    });
    for shard in shards.iter_mut() {
        for offsets in [&mut shard.out_offsets, &mut shard.in_offsets] {
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
        }
        let count = shard.out_offsets.last().copied().unwrap_or(0);
        shard.out_targets_local = vec![0; count];
        shard.in_sources_local = vec![0; count];
    }
    // Fill pass, in global edge order. `offsets[l]` serves as row `l`'s cursor and
    // ends at the start of row `l + 1`; shifting by one slot restores the row starts.
    let mut positions = dst_positions.into_iter();
    for_each_edge(graph, assignment, placement, |m, ls, dst| {
        let pos = positions.next().unwrap_or_default() as usize;
        let ld = placement.local_at(dst, pos);
        let shard = &mut shards[m];
        let out = &mut shard.out_offsets[ls as usize];
        shard.out_targets_local[*out] = ld;
        *out += 1;
        let inc = &mut shard.in_offsets[ld as usize];
        shard.in_sources_local[*inc] = ls;
        *inc += 1;
    });
    for shard in shards.iter_mut() {
        for offsets in [&mut shard.out_offsets, &mut shard.in_offsets] {
            let rows = offsets.len() - 1;
            offsets.copy_within(..rows, 1);
            offsets[0] = 0;
        }
    }
}

/// Calls `f(machine, local source, destination)` for every edge, in global edge
/// order. Edges come grouped by source, so the source's machine → local table
/// is filled from its directory run once per vertex.
fn for_each_edge(
    graph: &DiGraph,
    assignment: &EdgeAssignment,
    placement: &VertexPlacement,
    mut f: impl FnMut(usize, u32, VertexId),
) {
    let mut src_local = vec![0u32; assignment.num_machines];
    let mut edge = 0usize;
    for src in 0..graph.num_vertices() as VertexId {
        let targets = graph.out_neighbors(src);
        if targets.is_empty() {
            continue;
        }
        let run = placement.run(src);
        for (&m, &local) in run.machines.iter().zip(run.locals) {
            src_local[m.index()] = local;
        }
        for &dst in targets {
            let machine = assignment.machines[edge].index();
            f(machine, src_local[machine], dst);
            edge += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{ObliviousPartitioner, RandomPartitioner};
    use frogwild_graph::generators::simple::{complete, cycle, star};
    use frogwild_graph::generators::{rmat, RmatParams};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_rmat() -> DiGraph {
        let mut rng = SmallRng::seed_from_u64(77);
        rmat(400, RmatParams::default(), &mut rng)
    }

    #[test]
    fn partitioned_graph_is_consistent() {
        let g = small_rmat();
        for machines in [1usize, 4, 16] {
            let pg = PartitionedGraph::build(&g, machines, &ObliviousPartitioner, 5);
            assert_eq!(pg.num_machines(), machines);
            assert_eq!(pg.num_vertices(), g.num_vertices());
            assert_eq!(pg.num_edges(), g.num_edges());
            pg.validate().unwrap();
        }
    }

    #[test]
    fn random_partition_is_consistent_too() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 8, &RandomPartitioner, 5);
        pg.validate().unwrap();
        assert_eq!(pg.partitioner_name(), "random");
    }

    #[test]
    fn single_machine_has_no_mirrors() {
        let g = cycle(20);
        let pg = PartitionedGraph::build(&g, 1, &ObliviousPartitioner, 1);
        assert!((pg.placement().replication_factor() - 1.0).abs() < 1e-12);
        assert_eq!(pg.placement().total_mirrors(), 0);
        for v in g.vertices() {
            assert_eq!(pg.placement().mirrors(v).count(), 0);
        }
    }

    #[test]
    fn replication_factor_bounds() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 8, &RandomPartitioner, 2);
        let rf = pg.placement().replication_factor();
        assert!((1.0..=8.0).contains(&rf), "replication factor {rf}");
    }

    #[test]
    fn high_degree_hub_is_replicated_widely() {
        let g = star(200);
        let pg = PartitionedGraph::build(&g, 8, &RandomPartitioner, 2);
        // the hub touches every edge so it should be on (almost) every machine
        assert!(pg.placement().replicas(0).len() >= 7);
        // leaves have degree 2, so at most 2 replicas
        for v in 1..200u32 {
            assert!(pg.placement().replicas(v).len() <= 2);
        }
    }

    #[test]
    fn masters_are_unique_and_on_replicas() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 6, &ObliviousPartitioner, 3);
        for v in g.vertices() {
            let master = pg.placement().master(v);
            assert!(pg.placement().replicas(v).contains(&master));
            // exactly one shard flags it as master
            let master_count = pg
                .shards()
                .iter()
                .filter(|s| {
                    s.local_index(v)
                        .map(|l| s.is_master[l as usize])
                        .unwrap_or(false)
                })
                .count();
            assert_eq!(master_count, 1, "vertex {v}");
        }
    }

    #[test]
    fn isolated_vertices_get_a_master() {
        let mut edges = vec![(0u32, 1u32), (1, 0)];
        edges.push((2, 3));
        edges.push((3, 2));
        // vertex 4 is isolated
        let g = DiGraph::from_edges(5, &edges);
        let pg = PartitionedGraph::build(&g, 4, &RandomPartitioner, 9);
        assert_eq!(pg.placement().replicas(4).len(), 1);
        pg.validate().unwrap();
    }

    #[test]
    fn shard_local_edges_match_global_edges() {
        let g = complete(12);
        let pg = PartitionedGraph::build(&g, 4, &ObliviousPartitioner, 8);
        // reconstruct the multiset of global edges from the shards
        let mut reconstructed: Vec<(u32, u32)> = Vec::new();
        for shard in pg.shards() {
            for local in 0..shard.num_local_vertices() as u32 {
                let src = shard.global_id(local);
                for &dst_local in shard.local_out_neighbors(local) {
                    reconstructed.push((src, shard.global_id(dst_local)));
                }
            }
        }
        reconstructed.sort_unstable();
        let mut expected = g.edge_vec();
        expected.sort_unstable();
        assert_eq!(reconstructed, expected);
    }

    #[test]
    fn local_in_and_out_edge_counts_agree() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 5, &ObliviousPartitioner, 8);
        for shard in pg.shards() {
            let out_total: usize = (0..shard.num_local_vertices() as u32)
                .map(|l| shard.local_out_degree(l))
                .sum();
            let in_total: usize = (0..shard.num_local_vertices() as u32)
                .map(|l| shard.local_in_degree(l))
                .sum();
            assert_eq!(out_total, shard.num_local_edges());
            assert_eq!(in_total, shard.num_local_edges());
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = small_rmat();
        let a = PartitionedGraph::build(&g, 8, &ObliviousPartitioner, 11);
        let b = PartitionedGraph::build(&g, 8, &ObliviousPartitioner, 11);
        assert_eq!(
            a.placement().replication_factor(),
            b.placement().replication_factor()
        );
        for v in g.vertices() {
            assert_eq!(a.placement().master(v), b.placement().master(v));
            assert_eq!(a.placement().replicas(v), b.placement().replicas(v));
        }
    }

    #[test]
    fn directory_agrees_with_shard_lookups() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 7, &RandomPartitioner, 4);
        let placement = pg.placement();
        for v in g.vertices() {
            let run = placement.run(v);
            assert_eq!(run.machines, placement.replicas(v));
            assert_eq!(run.master_machine(), placement.master(v));
            assert_eq!(run.master_local(), placement.master_local(v));
            for (&m, &local) in run.machines.iter().zip(run.locals) {
                assert_eq!(pg.shard(m).local_index(v), Some(local));
                let pos = placement.position_on(v, m).unwrap();
                assert_eq!(placement.local_at(v, pos), local);
            }
        }
        let mirrors: usize = g.vertices().map(|v| placement.mirrors(v).count()).sum();
        assert_eq!(mirrors, placement.total_mirrors());
    }

    #[test]
    fn validate_rejects_a_corrupted_directory() {
        let g = small_rmat();
        let pg = PartitionedGraph::build(&g, 4, &ObliviousPartitioner, 6);
        pg.validate().unwrap();

        let mut flipped = pg.clone();
        flipped.placement.has_out[0] = !flipped.placement.has_out[0];
        assert!(flipped.validate().is_err());

        let mut moved = pg.clone();
        let run_len = moved.placement.offsets[1] - moved.placement.offsets[0];
        moved.placement.master_pos[0] =
            ((moved.placement.master_pos[0] as usize + 1) % run_len.max(2)) as u16;
        assert!(moved.validate().is_err());

        let mut shifted = pg.clone();
        shifted.placement.locals[0] ^= 1;
        assert!(shifted.validate().is_err());
    }
}
