//! The multi-hop per-station backend: per-neighborhood slot resolution
//! over an interference [`Topology`].
//!
//! The single-channel backends resolve one global [`SlotTruth`] per slot.
//! Here each node perceives its **own** channel: the transmitter count
//! over its closed neighborhood `N[i]`, fed through the same shared
//! arithmetic ([`jle_radio::topology::resolve`]) as the global rule, plus
//! the slot's (global) jam flag. On [`Topology::Complete`] every closed
//! neighborhood is the whole network, so the local rule degenerates to the
//! global one and this backend is **bit-identical** to the single-channel
//! engines — the refactor's contract, locked by the golden fixtures in
//! `tests/topology_identity.rs`.
//!
//! # Message delivery
//!
//! The paper's model says a `Single` delivers the message ("exactly one
//! station transmits (all listeners receive the message)"). Multi-hop
//! election protocols need that payload, so a station that perceives a
//! clean local `Single` while listening also receives a [`MeshMessage`]
//! naming the transmitter and carrying its 64-bit payload. Transmitters
//! never hear (half-duplex); the existing single-channel protocols ignore
//! messages entirely through the [`StdMesh`] adapter.
//!
//! # Determinism and sharding
//!
//! Two RNG disciplines ([`RngDiscipline`]):
//!
//! * `Shared` — per-station draws from the engine's sequential stream in
//!   station-index order, exactly like [`crate::ExactStations`];
//! * `Counter` — per-station counter-based streams
//!   ([`crate::streams::StationRng`]), exactly like
//!   [`crate::FastExactStations`].
//!
//! Stations are stored component-major (the identity permutation on
//! `Complete` and on connected graphs), so connected components occupy
//! contiguous storage ranges. Above [`MultihopStations::DEFAULT_PAR_THRESHOLD`]
//! stations, the feedback phase (and, under `Counter`, the action phase)
//! shards those ranges across `rayon` workers via `split_at_mut`; chunk
//! aggregates fold in chunk order, so the parallel path is bit-identical
//! to the serial one (unit-tested). The jam decision is global — the
//! adversary hits every neighborhood at once — which is what keeps the
//! `Complete` case exactly the single-channel model.

use crate::config::SimConfig;
use crate::core::{settle_timeout, stop_rule_fires, SimCore, SlotActions, StationSet};
use crate::protocol::{Action, Protocol, Status};
use crate::report::{ClusterOutcome, MultihopReport, RunReport};
use crate::streams::{station_key, StationRng};
use jle_adversary::AdversarySpec;
use jle_radio::topology::resolve;
use jle_radio::{cd, CdModel, Graph, SlotTruth, Topology};
use rand::rngs::SmallRng;
use rand::RngCore;

/// A message delivered to a listener that perceived a clean local
/// `Single`: the lone transmitter in its closed neighborhood, plus that
/// transmitter's declared payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshMessage {
    /// Station id of the transmitter.
    pub from: u64,
    /// The transmitter's payload for this slot ([`MeshProtocol::payload`]).
    pub payload: u64,
}

/// What a mesh station currently believes about the election, polled once
/// per slot (only when a cluster assignment is attached) and at
/// finalization to fill the [`MultihopReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStatus {
    /// The station this one believes leads its own cluster.
    pub cluster_leader: Option<u64>,
    /// The station this one believes leads the whole network.
    pub network_leader: Option<u64>,
    /// Whether this station claims its own cluster's leadership.
    pub is_cluster_leader: bool,
}

/// A per-station protocol for multi-hop runs: [`Protocol`] plus message
/// payloads, message reception, and election beliefs.
///
/// The engine calls [`MeshProtocol::act`] for every running station (under
/// the active discipline's RNG), queries [`MeshProtocol::payload`]
/// immediately when the action is `Transmit`, resolves every node's local
/// channel, and calls [`MeshProtocol::feedback`] with the station-specific
/// observation plus the received message, if any.
pub trait MeshProtocol: Send {
    /// Decide the action for the slot about to be played.
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action;

    /// The 64-bit payload carried by this slot's transmission. Queried
    /// right after [`MeshProtocol::act`] returns [`Action::Transmit`].
    fn payload(&self) -> u64 {
        0
    }

    /// Receive the end-of-slot observation for this node's *local*
    /// channel, plus the delivered message when the station listened into
    /// a clean local `Single`.
    fn feedback(
        &mut self,
        slot: u64,
        transmitted: bool,
        obs: jle_radio::Observation,
        heard: Option<&MeshMessage>,
    );

    /// Current election status (mirrors [`Protocol::status`]).
    fn status(&self) -> Status;

    /// Whether the station finished without terminating (mirrors
    /// [`Protocol::finished`]).
    fn finished(&self) -> bool {
        false
    }

    /// Optional protocol-internal scalar for traces.
    fn estimate(&self) -> Option<f64> {
        None
    }

    /// Current state as a `(label, scalar)` pair for replay timelines;
    /// mirrors [`Protocol::state_probe`].
    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        None
    }

    /// Election beliefs for convergence tracking and the report.
    fn mesh_status(&self) -> MeshStatus {
        MeshStatus::default()
    }
}

/// Adapter running any single-channel [`Protocol`] as a [`MeshProtocol`]
/// that ignores messages. This is how the complete-graph identity tests
/// drive the existing protocols through the multi-hop backend.
pub struct StdMesh {
    inner: Box<dyn Protocol>,
}

impl StdMesh {
    /// Wrap a single-channel protocol.
    pub fn new(inner: Box<dyn Protocol>) -> Self {
        StdMesh { inner }
    }
}

impl MeshProtocol for StdMesh {
    fn act(&mut self, slot: u64, rng: &mut dyn RngCore) -> Action {
        self.inner.act(slot, rng)
    }

    fn feedback(
        &mut self,
        slot: u64,
        transmitted: bool,
        obs: jle_radio::Observation,
        _heard: Option<&MeshMessage>,
    ) {
        self.inner.feedback(slot, transmitted, obs);
    }

    fn status(&self) -> Status {
        self.inner.status()
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn estimate(&self) -> Option<f64> {
        self.inner.estimate()
    }

    fn state_probe(&self) -> Option<(&'static str, Option<f64>)> {
        self.inner.state_probe()
    }
}

/// Which RNG stream discipline the action phase uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RngDiscipline {
    /// The engine's sequential stream, drawn in station-index order —
    /// bit-identical to [`crate::ExactStations`] on `Complete`.
    #[default]
    Shared,
    /// Counter-based per-station streams — bit-identical to
    /// [`crate::FastExactStations`] on `Complete` (for protocols honoring
    /// the wake-hint draw contract).
    Counter,
}

/// Per-slot action codes, indexed by storage position.
const ACT_LISTEN: u8 = 0;
const ACT_TRANSMIT: u8 = 1;
const ACT_SLEEP: u8 = 2;
const ACT_TERM: u8 = 3;

/// Cluster-election tracking attached via
/// [`MultihopStations::with_clusters`].
struct ClusterTracking<'c> {
    assign: &'c [u32],
    /// Member ids per cluster, in id order.
    members: Vec<Vec<u32>>,
    resolved_at: Vec<Option<u64>>,
    unresolved: usize,
    converged_at: Option<u64>,
    network_leader: Option<u64>,
}

/// The multi-hop [`StationSet`] backend: per-neighborhood truth, message
/// delivery, and per-component sharding over a validated [`Topology`].
pub struct MultihopStations<'t> {
    /// Station boxes in component-major storage order.
    stations: Vec<Box<dyn MeshProtocol>>,
    /// Storage position → station id.
    order: Vec<u32>,
    /// Station id → storage position.
    pos: Vec<u32>,
    /// Shard boundaries in storage (component ranges; `[0, n]` on
    /// `Complete`), ascending, first 0, last n.
    bounds: Vec<usize>,
    /// Action code per storage position.
    acts: Vec<u8>,
    /// Payload per storage position (valid where `acts == ACT_TRANSMIT`).
    payloads: Vec<u64>,
    /// Counter-stream key per station id.
    keys: Vec<u64>,
    topology: &'t Topology,
    discipline: RngDiscipline,
    par_threshold: usize,
    clusters: Option<ClusterTracking<'t>>,
    /// Lone transmitter of the last slot (for complete-path delivery).
    last_lone: Option<u64>,
    cross_cluster: u64,
}

impl<'t> MultihopStations<'t> {
    /// Station count at which the per-component phases shard across
    /// threads. Lower than the fast backend's threshold because a
    /// multi-hop slot does O(degree) work per station, not one Bernoulli.
    pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 12;

    /// Build a station set over `topology`; `factory(i)` builds station
    /// `i` (called in id order).
    ///
    /// # Panics
    /// Panics with the [`jle_radio::TopologyError`] message when the
    /// topology does not fit `config.n`.
    pub fn new(
        config: &SimConfig,
        topology: &'t Topology,
        mut factory: impl FnMut(u64) -> Box<dyn MeshProtocol>,
    ) -> Self {
        if let Err(e) = topology.validate_for(config.n) {
            panic!("invalid topology for this run: {e}");
        }
        let n = config.n as usize;
        let (order, bounds) = match topology.graph() {
            Some(g) => {
                let mut order = Vec::with_capacity(n);
                let mut bounds = Vec::with_capacity(g.component_count() as usize + 1);
                bounds.push(0);
                for c in 0..g.component_count() {
                    order.extend_from_slice(g.component_members(c));
                    bounds.push(order.len());
                }
                (order, bounds)
            }
            None => ((0..n as u32).collect(), vec![0, n]),
        };
        let mut pos = vec![0u32; n];
        for (p, &id) in order.iter().enumerate() {
            pos[id as usize] = p as u32;
        }
        // Build in id order (factories may be stateful), then permute.
        let mut by_id: Vec<Option<Box<dyn MeshProtocol>>> =
            (0..config.n).map(|i| Some(factory(i))).collect();
        let stations = order
            .iter()
            .map(|&id| by_id[id as usize].take().expect("order is a permutation"))
            .collect();
        let keys = (0..config.n).map(|i| station_key(config.seed, i)).collect();
        MultihopStations {
            stations,
            order,
            pos,
            bounds,
            acts: vec![ACT_LISTEN; n],
            payloads: vec![0; n],
            keys,
            topology,
            discipline: RngDiscipline::Shared,
            par_threshold: Self::DEFAULT_PAR_THRESHOLD,
            clusters: None,
            last_lone: None,
            cross_cluster: 0,
        }
    }

    /// Attach a cluster assignment (station id → cluster index). Enables
    /// per-cluster resolution tracking, network-convergence tracking, and
    /// cross-cluster interference accounting in the [`MultihopReport`].
    ///
    /// # Panics
    /// Panics if `assign.len()` differs from the station count.
    pub fn with_clusters(mut self, assign: &'t [u32]) -> Self {
        assert_eq!(assign.len(), self.order.len(), "cluster assignment must cover every station");
        let n_clusters = assign.iter().copied().max().map_or(0, |m| m as usize + 1);
        let mut members = vec![Vec::new(); n_clusters];
        for (id, &c) in assign.iter().enumerate() {
            members[c as usize].push(id as u32);
        }
        self.clusters = Some(ClusterTracking {
            assign,
            resolved_at: vec![None; n_clusters],
            unresolved: n_clusters,
            members,
            converged_at: None,
            network_leader: None,
        });
        self
    }

    /// Select the RNG discipline (default [`RngDiscipline::Shared`]).
    pub fn with_discipline(mut self, discipline: RngDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Override the sharding threshold
    /// ([`MultihopStations::DEFAULT_PAR_THRESHOLD`]). The serial and
    /// parallel paths are bit-identical, so this only trades thread
    /// startup against per-slot work.
    pub fn with_parallel_threshold(mut self, threshold: usize) -> Self {
        self.par_threshold = threshold.max(1);
        self
    }

    /// Storage-range chunks for the parallel phases, or `None` when the
    /// workload should stay serial.
    fn chunk_plan(&self) -> Option<Vec<(usize, usize)>> {
        let n = self.order.len();
        let workers = rayon::current_num_threads().max(1);
        if n < self.par_threshold || workers < 2 {
            return None;
        }
        let chunks = plan_chunks(&self.bounds, workers);
        if chunks.len() < 2 {
            None
        } else {
            Some(chunks)
        }
    }

    /// Feedback for the complete topology: every station observes the
    /// global truth — the exact semantics of [`crate::ExactStations`],
    /// plus message delivery on the run's clean `Single`s.
    fn feedback_complete(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        let lone_msg = if truth.is_clean_single() {
            self.last_lone.map(|id| MeshMessage {
                from: id,
                payload: self.payloads[self.pos[id as usize] as usize],
            })
        } else {
            None
        };
        for id in 0..self.order.len() {
            let p = self.pos[id] as usize;
            let a = self.acts[p];
            let transmitted = a == ACT_TRANSMIT;
            if !transmitted && a != ACT_LISTEN {
                continue; // sleeping and terminated stations observe nothing
            }
            let obs = cd::observe(config.cd, transmitted, truth);
            let heard = if transmitted { None } else { lone_msg.as_ref() };
            self.stations[p].feedback(slot, transmitted, obs, heard);
        }
    }

    /// Feedback over a graph topology: each node's channel is resolved
    /// over its closed neighborhood, sharded by component ranges above the
    /// threshold.
    fn feedback_graph(&mut self, g: &Graph, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        let assign = self.clusters.as_ref().map(|c| c.assign);
        let events = match self.chunk_plan() {
            Some(chunks) => {
                let mut partials = vec![0u64; chunks.len()];
                let (order, pos) = (&self.order[..], &self.pos[..]);
                let (acts, payloads) = (&self.acts[..], &self.payloads[..]);
                let (cd_model, jammed) = (config.cd, truth.jammed);
                let mut rest = &mut self.stations[..];
                let mut consumed = 0usize;
                rayon::scope(|s| {
                    for (part, &(start, end)) in partials.iter_mut().zip(&chunks) {
                        debug_assert_eq!(start, consumed, "chunks must tile storage");
                        let (chunk, tail) = rest.split_at_mut(end - start);
                        rest = tail;
                        consumed = end;
                        s.spawn(move |_| {
                            *part = feedback_chunk(
                                chunk, start, order, pos, acts, payloads, g, assign, cd_model,
                                jammed, slot,
                            );
                        });
                    }
                });
                // Chunk-order fold: deterministic regardless of worker
                // scheduling (the counters are sums, but keep the habit).
                partials.iter().sum()
            }
            None => feedback_chunk(
                &mut self.stations,
                0,
                &self.order,
                &self.pos,
                &self.acts,
                &self.payloads,
                g,
                assign,
                config.cd,
                truth.jammed,
                slot,
            ),
        };
        self.cross_cluster += events;
    }

    /// Post-feedback election polling: per-cluster resolution slots and
    /// network-wide convergence. Only runs when a cluster assignment is
    /// attached, so plain multi-hop runs pay nothing.
    fn poll_mesh(&mut self, slot: u64) {
        let Some(tr) = self.clusters.as_mut() else { return };
        if tr.unresolved > 0 {
            for (c, resolved) in tr.resolved_at.iter_mut().enumerate() {
                if resolved.is_some() {
                    continue;
                }
                let all_know = tr.members[c].iter().all(|&id| {
                    self.stations[self.pos[id as usize] as usize]
                        .mesh_status()
                        .cluster_leader
                        .is_some()
                });
                if all_know {
                    *resolved = Some(slot);
                    tr.unresolved -= 1;
                }
            }
        }
        let mut leader = None;
        let mut all_agree = true;
        for st in &self.stations {
            match st.mesh_status().network_leader {
                None => {
                    all_agree = false;
                    break;
                }
                Some(l) => {
                    if *leader.get_or_insert(l) != l {
                        all_agree = false;
                        break;
                    }
                }
            }
        }
        if all_agree {
            // First slot of the *current* stable agreement: divergence
            // (a new, smaller leader id still flooding) resets the mark.
            if tr.converged_at.is_none() {
                tr.converged_at = Some(slot);
            }
            tr.network_leader = leader;
        } else {
            tr.converged_at = None;
            tr.network_leader = None;
        }
    }
}

impl std::fmt::Debug for MultihopStations<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultihopStations")
            .field("n", &self.order.len())
            .field("topology", &self.topology.descriptor())
            .field("discipline", &self.discipline)
            .finish_non_exhaustive()
    }
}

/// Merge component ranges into at most ~`workers` contiguous chunks of
/// roughly equal size. Chunks always respect component boundaries, so a
/// worker owns whole components.
fn plan_chunks(bounds: &[usize], workers: usize) -> Vec<(usize, usize)> {
    let n = *bounds.last().expect("bounds include the end");
    let target = n.div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    for w in bounds.windows(2) {
        let end = w[1];
        if end - start >= target {
            chunks.push((start, end));
            start = end;
        }
    }
    if start < n {
        chunks.push((start, n));
    }
    chunks
}

/// The per-chunk feedback kernel: resolve each station's closed
/// neighborhood, deliver observation + message, and count cross-cluster
/// interference events. Returns the event count for the chunk-order fold.
///
/// A cross-cluster interference event is a node-slot where the local
/// channel read `Collision`, the slot was not jammed, and the node's own
/// cluster contributed at most one transmitter to its neighborhood — i.e.
/// a `Null`/`Single` the node *would* have perceived was destroyed by
/// foreign-cluster transmitters. Jammed slots are attributed to the
/// adversary, not to neighbors.
#[allow(clippy::too_many_arguments)]
fn feedback_chunk(
    stations: &mut [Box<dyn MeshProtocol>],
    start: usize,
    order: &[u32],
    pos: &[u32],
    acts: &[u8],
    payloads: &[u64],
    g: &Graph,
    assign: Option<&[u32]>,
    cd_model: CdModel,
    jammed: bool,
    slot: u64,
) -> u64 {
    let mut events = 0u64;
    let is_tx = |j: u32| acts[pos[j as usize] as usize] == ACT_TRANSMIT;
    for (k, st) in stations.iter_mut().enumerate() {
        let p = start + k;
        let id = order[p];
        let a = acts[p];
        let transmitted = a == ACT_TRANSMIT;
        if !transmitted && a != ACT_LISTEN {
            continue; // sleeping and terminated stations observe nothing
        }
        let (count, lone) = g.closed_neighborhood_tx(id, is_tx);
        let local = SlotTruth::new(count, jammed);
        debug_assert_eq!(local.observed(), resolve(count, jammed));
        let obs = cd::observe(cd_model, transmitted, &local);
        let msg;
        let heard = if !transmitted && local.is_clean_single() {
            let from = lone.expect("a clean local Single has a lone transmitter");
            msg = MeshMessage { from: from as u64, payload: payloads[pos[from as usize] as usize] };
            Some(&msg)
        } else {
            None
        };
        st.feedback(slot, transmitted, obs, heard);
        if let Some(assign) = assign {
            if !jammed && count >= 2 {
                let mine = assign[id as usize];
                let mut own = u64::from(transmitted);
                for &j in g.neighbors(id) {
                    if is_tx(j) && assign[j as usize] == mine {
                        own += 1;
                    }
                }
                if own <= 1 {
                    events += 1;
                }
            }
        }
    }
    events
}

/// Per-chunk action kernel for the `Counter` discipline: every station
/// draws from its own counter stream, so chunks are order-independent and
/// the parallel phase is bit-identical to the serial one.
fn act_chunk(
    stations: &mut [Box<dyn MeshProtocol>],
    acts: &mut [u8],
    payloads: &mut [u64],
    order: &[u32],
    keys: &[u64],
    slot: u64,
) -> SlotActions {
    let mut agg = SlotActions::default();
    for (k, st) in stations.iter_mut().enumerate() {
        let id = order[k];
        if st.status().terminal() {
            acts[k] = ACT_TERM;
            continue;
        }
        let mut rng = StationRng::for_slot(keys[id as usize], slot);
        match st.act(slot, &mut rng) {
            Action::Transmit => {
                acts[k] = ACT_TRANSMIT;
                payloads[k] = st.payload();
                agg.transmit(id as u64);
            }
            Action::Listen => {
                acts[k] = ACT_LISTEN;
                agg.listeners += 1;
            }
            Action::Sleep => acts[k] = ACT_SLEEP,
        }
    }
    agg
}

impl StationSet for MultihopStations<'_> {
    fn finished(&self) -> bool {
        self.stations.iter().any(|s| s.finished())
            && self.stations.iter().all(|s| s.status().terminal() || s.finished())
    }

    fn act(&mut self, slot: u64, _config: &SimConfig, rng: &mut SmallRng) -> SlotActions {
        let actions = match self.discipline {
            RngDiscipline::Shared => {
                let mut actions = SlotActions::default();
                // Station-index draw order on the engine's sequential
                // stream: the ExactStations contract, so Complete runs
                // replay bit-for-bit.
                for id in 0..self.order.len() {
                    let p = self.pos[id] as usize;
                    let st = &mut self.stations[p];
                    if st.status().terminal() {
                        self.acts[p] = ACT_TERM;
                        continue;
                    }
                    match st.act(slot, rng) {
                        Action::Transmit => {
                            self.acts[p] = ACT_TRANSMIT;
                            self.payloads[p] = st.payload();
                            actions.transmit(id as u64);
                        }
                        Action::Listen => {
                            self.acts[p] = ACT_LISTEN;
                            actions.listeners += 1;
                        }
                        Action::Sleep => self.acts[p] = ACT_SLEEP,
                    }
                }
                actions
            }
            RngDiscipline::Counter => match self.chunk_plan() {
                Some(chunks) => {
                    let mut partials = vec![SlotActions::default(); chunks.len()];
                    let (order, keys) = (&self.order[..], &self.keys[..]);
                    let mut st_rest = &mut self.stations[..];
                    let mut act_rest = &mut self.acts[..];
                    let mut pay_rest = &mut self.payloads[..];
                    let mut order_rest = order;
                    rayon::scope(|s| {
                        for (part, &(start, end)) in partials.iter_mut().zip(&chunks) {
                            let take = end - start;
                            let (st_chunk, st_tail) = st_rest.split_at_mut(take);
                            let (act_chunkb, act_tail) = act_rest.split_at_mut(take);
                            let (pay_chunk, pay_tail) = pay_rest.split_at_mut(take);
                            let (ord_chunk, ord_tail) = order_rest.split_at(take);
                            st_rest = st_tail;
                            act_rest = act_tail;
                            pay_rest = pay_tail;
                            order_rest = ord_tail;
                            s.spawn(move |_| {
                                *part = act_chunk(
                                    st_chunk, act_chunkb, pay_chunk, ord_chunk, keys, slot,
                                );
                            });
                        }
                    });
                    SlotActions::fold(&partials)
                }
                None => act_chunk(
                    &mut self.stations,
                    &mut self.acts,
                    &mut self.payloads,
                    &self.order,
                    &self.keys,
                    slot,
                ),
            },
        };
        self.last_lone = actions.lone_transmitter;
        actions
    }

    fn pick_winner(
        &mut self,
        actions: &SlotActions,
        _config: &SimConfig,
        _rng: &mut SmallRng,
    ) -> Option<u64> {
        // Identities are known: no randomness drawn (both exact backends
        // behave this way, so Complete runs stay bit-identical).
        actions.lone_transmitter
    }

    fn feedback(&mut self, slot: u64, truth: &SlotTruth, config: &SimConfig) {
        match self.topology.graph() {
            None => self.feedback_complete(slot, truth, config),
            Some(g) => {
                // Cloning the &Graph out of self sidesteps a borrow of
                // `self.topology` across the &mut self call.
                let g: &Graph = g;
                self.feedback_graph(g, slot, truth, config)
            }
        }
        self.poll_mesh(slot);
    }

    fn estimate(&self) -> Option<f64> {
        (0..self.order.len())
            .map(|id| &self.stations[self.pos[id] as usize])
            .find(|s| !s.status().terminal())
            .and_then(|s| s.estimate())
    }

    fn collect_probes(&self, out: &mut Vec<crate::observer::StateProbe>) {
        for id in 0..self.order.len() {
            let st = &self.stations[self.pos[id] as usize];
            if let Some((state, value)) = st.state_probe() {
                out.push(crate::observer::StateProbe { station: id as u64, state, value });
            }
        }
    }

    fn should_stop(
        &mut self,
        _truth: &SlotTruth,
        config: &SimConfig,
        report: &mut RunReport,
    ) -> bool {
        stop_rule_fires(config, report, || self.stations.iter().all(|s| s.status().terminal()))
    }

    fn finalize(&mut self, config: &SimConfig, report: &mut RunReport) {
        settle_timeout(config, report, || self.finished());
        report.leaders = (0..self.order.len() as u64)
            .filter(|&id| self.stations[self.pos[id as usize] as usize].status() == Status::Leader)
            .collect();
        // Complete-topology runs without cluster tracking serialize
        // exactly like single-channel runs: no multihop block at all.
        if self.topology.is_complete() && self.clusters.is_none() {
            return;
        }
        let components = self.topology.graph().map_or(1, Graph::component_count);
        let clusters = match &self.clusters {
            None => Vec::new(),
            Some(tr) => tr
                .members
                .iter()
                .enumerate()
                .map(|(c, members)| {
                    let status_of =
                        |id: u32| self.stations[self.pos[id as usize] as usize].mesh_status();
                    let leader = members
                        .iter()
                        .find(|&&id| status_of(id).is_cluster_leader)
                        .map(|&id| id as u64)
                        .or_else(|| members.iter().find_map(|&id| status_of(id).cluster_leader));
                    ClusterOutcome {
                        cluster: c as u32,
                        size: members.len() as u64,
                        resolved_at: tr.resolved_at[c],
                        leader,
                    }
                })
                .collect(),
        };
        report.multihop = Some(MultihopReport {
            topology: self.topology.descriptor(),
            components,
            clusters,
            converged_at: self.clusters.as_ref().and_then(|tr| tr.converged_at),
            network_leader: self.clusters.as_ref().and_then(|tr| tr.network_leader),
            cross_cluster_interference: self.cross_cluster,
        });
    }
}

/// Run one multi-hop simulation with a fresh mesh station set.
///
/// `clusters`, when given, maps station id → cluster index and enables
/// the election tracking in [`MultihopReport`].
///
/// # Panics
/// Panics when the topology or cluster assignment does not fit `config.n`.
pub fn run_multihop(
    config: &SimConfig,
    adversary: &AdversarySpec,
    topology: &Topology,
    clusters: Option<&[u32]>,
    factory: impl FnMut(u64) -> Box<dyn MeshProtocol>,
) -> RunReport {
    run_multihop_with(config, adversary, topology, clusters, RngDiscipline::Shared, factory)
}

/// [`run_multihop`] with an explicit RNG discipline.
///
/// # Panics
/// Panics when the topology or cluster assignment does not fit `config.n`.
pub fn run_multihop_with(
    config: &SimConfig,
    adversary: &AdversarySpec,
    topology: &Topology,
    clusters: Option<&[u32]>,
    discipline: RngDiscipline,
    factory: impl FnMut(u64) -> Box<dyn MeshProtocol>,
) -> RunReport {
    let mut stations = MultihopStations::new(config, topology, factory).with_discipline(discipline);
    if let Some(assign) = clusters {
        stations = stations.with_clusters(assign);
    }
    SimCore::new(config, adversary).run(&mut stations)
}

/// Run single-channel [`Protocol`]s through the multi-hop backend via
/// [`StdMesh`] — the complete-graph identity entry point.
///
/// # Panics
/// Panics when the topology does not fit `config.n`.
pub fn run_multihop_std(
    config: &SimConfig,
    adversary: &AdversarySpec,
    topology: &Topology,
    discipline: RngDiscipline,
    mut factory: impl FnMut(u64) -> Box<dyn Protocol>,
) -> RunReport {
    run_multihop_with(config, adversary, topology, None, discipline, |i| {
        Box::new(StdMesh::new(factory(i)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StopRule;
    use crate::exact::run_exact;
    use crate::fast::run_fast_exact;
    use crate::protocol::{PerStation, UniformProtocol};
    use jle_adversary::{JamStrategyKind, Rate};
    use jle_radio::ChannelState;

    /// Fixed-probability uniform protocol.
    #[derive(Debug, Clone)]
    struct Fixed(f64);
    impl UniformProtocol for Fixed {
        fn tx_prob(&mut self, _: u64) -> f64 {
            self.0
        }
        fn on_state(&mut self, _: u64, _: ChannelState) {}
    }

    /// LESK-shaped backoff, so the equivalence checks exercise
    /// history-dependent probabilities.
    #[derive(Debug, Clone)]
    struct Backoff(f64);
    impl UniformProtocol for Backoff {
        fn tx_prob(&mut self, _: u64) -> f64 {
            2f64.powf(-self.0)
        }
        fn on_state(&mut self, _: u64, state: ChannelState) {
            match state {
                ChannelState::Null => self.0 = (self.0 - 1.0).max(0.0),
                ChannelState::Collision => self.0 += 0.5,
                ChannelState::Single => {}
            }
        }
        fn estimate(&self) -> Option<f64> {
            Some(self.0)
        }
    }

    fn jammer() -> AdversarySpec {
        AdversarySpec::new(Rate::from_f64(0.3), 16, JamStrategyKind::Saturating)
    }

    fn assert_reports_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap(),
            "reports must serialize identically"
        );
    }

    #[test]
    fn complete_shared_is_bit_identical_to_exact() {
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            let config = SimConfig::new(12, cd).with_seed(0xA11CE).with_max_slots(4_000);
            let exact = run_exact(&config, &jammer(), |_| Box::new(PerStation::new(Backoff(3.0))));
            let mesh = run_multihop_std(
                &config,
                &jammer(),
                &Topology::Complete,
                RngDiscipline::Shared,
                |_| Box::new(PerStation::new(Backoff(3.0))),
            );
            assert_reports_identical(&exact, &mesh);
            assert!(mesh.multihop.is_none(), "complete runs carry no multihop block");
        }
    }

    #[test]
    fn complete_counter_is_bit_identical_to_fast_exact() {
        for cd in [CdModel::Strong, CdModel::Weak, CdModel::NoCd] {
            let config =
                SimConfig::new(12, cd).with_seed(0xA11CE).with_max_slots(4_000).with_trace(true);
            let fast =
                run_fast_exact(&config, &jammer(), |_| Box::new(PerStation::new(Backoff(3.0))));
            let mesh = run_multihop_std(
                &config,
                &jammer(),
                &Topology::Complete,
                RngDiscipline::Counter,
                |_| Box::new(PerStation::new(Backoff(3.0))),
            );
            assert_reports_identical(&fast, &mesh);
        }
    }

    #[test]
    fn complete_disk_matches_complete_topology_outcomes() {
        // A unit-disk with radius > sqrt(2) is K_n: same resolution slot
        // and winner as Topology::Complete (local truth == global truth),
        // though the report gains a multihop block.
        let config = SimConfig::new(10, CdModel::Strong).with_seed(7).with_max_slots(4_000);
        let complete = run_multihop_std(
            &config,
            &jammer(),
            &Topology::Complete,
            RngDiscipline::Shared,
            |_| Box::new(PerStation::new(Fixed(0.3))),
        );
        let disk = Topology::unit_disk(10, 1.5, 3).unwrap();
        let mesh = run_multihop_std(&config, &jammer(), &disk, RngDiscipline::Shared, |_| {
            Box::new(PerStation::new(Fixed(0.3)))
        });
        assert_eq!(complete.resolved_at, mesh.resolved_at);
        assert_eq!(complete.winner, mesh.winner);
        assert_eq!(complete.leaders, mesh.leaders);
        let mh = mesh.multihop.expect("graph runs carry the multihop block");
        assert_eq!(mh.components, 1);
        assert_eq!(mh.topology, "unit-disk(n=10,r=1.5,seed=3)");
    }

    #[test]
    fn isolated_components_elect_independently() {
        // Two disjoint pairs: a global clean Single needs exactly one
        // transmitter network-wide, but each pair resolves locally; with
        // always-transmitting stations every node sees a local collision
        // inside its own pair and never a single.
        let topo = Topology::explicit(4, &[(0, 1), (2, 3)]).unwrap();
        let config = SimConfig::new(4, CdModel::Strong)
            .with_seed(5)
            .with_max_slots(200)
            .with_stop(StopRule::Horizon);
        let report = run_multihop_std(
            &config,
            &AdversarySpec::passive(),
            &topo,
            RngDiscipline::Shared,
            |_| Box::new(PerStation::new(Fixed(1.0))),
        );
        assert!(report.leaders.is_empty(), "pairs always collide locally");
        assert_eq!(report.multihop.unwrap().components, 2);

        // With exactly one transmitter per pair, *both* transmitters see
        // their own local Single in the same slot: two leaders at once —
        // impossible on a single channel.
        let mut station = 0u64;
        let report = run_multihop_std(
            &config,
            &AdversarySpec::passive(),
            &topo,
            RngDiscipline::Shared,
            |i| {
                station = i;
                Box::new(PerStation::new(Fixed(if i % 2 == 0 { 1.0 } else { 0.0 })))
            },
        );
        assert_eq!(report.leaders, vec![0, 2], "one leader per component");
    }

    #[test]
    fn sharded_feedback_is_bit_identical_to_serial() {
        // 8 disjoint triangles; threshold 1 forces the parallel path.
        let mut edges = Vec::new();
        for c in 0..8u64 {
            let b = c * 3;
            edges.extend_from_slice(&[(b, b + 1), (b + 1, b + 2), (b, b + 2)]);
        }
        let topo = Topology::explicit(24, &edges).unwrap();
        let clusters: Vec<u32> = (0..24).map(|i| i / 3).collect();
        let config = SimConfig::new(24, CdModel::Strong)
            .with_seed(11)
            .with_max_slots(500)
            .with_stop(StopRule::Horizon)
            .with_trace(true);
        let run = |threshold: usize| {
            let mut stations = MultihopStations::new(&config, &topo, |_| {
                Box::new(StdMesh::new(Box::new(PerStation::new(Backoff(2.0)))))
                    as Box<dyn MeshProtocol>
            })
            .with_discipline(RngDiscipline::Counter)
            .with_clusters(&clusters)
            .with_parallel_threshold(threshold);
            SimCore::new(&config, &jammer()).run(&mut stations)
        };
        let serial = run(usize::MAX);
        let parallel = run(1);
        assert_reports_identical(&serial, &parallel);
    }

    #[test]
    fn cross_cluster_interference_is_counted() {
        // Path 0-1-2, clusters {0,1} and {2}. Stations 0 and 2 always
        // transmit, 1 always listens: node 1 sees a 2-collision with only
        // one own-cluster transmitter => every slot is one event at node
        // 1. Nodes 0 and 2 see clean local Singles of their own.
        let topo = Topology::explicit(3, &[(0, 1), (1, 2)]).unwrap();
        let clusters = [0u32, 0, 1];
        let config = SimConfig::new(3, CdModel::Strong)
            .with_seed(1)
            .with_max_slots(10)
            .with_stop(StopRule::Horizon);
        let report =
            run_multihop(&config, &AdversarySpec::passive(), &topo, Some(&clusters), |i| {
                let p = if i == 1 { 0.0 } else { 1.0 };
                Box::new(StdMesh::new(Box::new(PerStation::new(Fixed(p)))))
            });
        let mh = report.multihop.unwrap();
        // Stations 0 and 2 lead after slot 0 (own local Single) and then
        // sleep terminally; node 1 keeps observing the cross-cluster
        // transmissions... but 0's transmission stops once it terminates.
        // Slot 0 is the only full slot: one event at node 1.
        assert!(mh.cross_cluster_interference >= 1);
        assert_eq!(report.leaders, vec![0, 2]);
    }

    #[test]
    fn messages_are_delivered_on_local_singles() {
        use std::sync::{Arc, Mutex};

        type Log = Arc<Mutex<Vec<(u64, MeshMessage)>>>;

        /// Listener that records every heard message into a shared log.
        struct Recorder {
            id: u64,
            log: Log,
        }
        impl MeshProtocol for Recorder {
            fn act(&mut self, _: u64, _: &mut dyn RngCore) -> Action {
                Action::Listen
            }
            fn feedback(
                &mut self,
                _: u64,
                _: bool,
                _: jle_radio::Observation,
                heard: Option<&MeshMessage>,
            ) {
                if let Some(m) = heard {
                    self.log.lock().unwrap().push((self.id, *m));
                }
            }
            fn status(&self) -> Status {
                Status::Running
            }
        }
        /// Beacon transmitting its id+100 as payload every slot.
        struct Beacon(u64);
        impl MeshProtocol for Beacon {
            fn act(&mut self, _: u64, _: &mut dyn RngCore) -> Action {
                Action::Transmit
            }
            fn payload(&self) -> u64 {
                self.0 + 100
            }
            fn feedback(
                &mut self,
                _: u64,
                _: bool,
                _: jle_radio::Observation,
                _: Option<&MeshMessage>,
            ) {
            }
            fn status(&self) -> Status {
                Status::Running
            }
        }
        // Path 0-1-2-3: beacons at 0 and 3, recorders at 1 and 2. Node 1's
        // closed neighborhood {0,1,2} has the one transmitter 0 (a clean
        // local Single), node 2's {1,2,3} has only transmitter 3 — so each
        // recorder hears exactly its adjacent beacon, every slot. Neither
        // beacon hears anything (transmitters never receive).
        let topo = Topology::explicit(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let config = SimConfig::new(4, CdModel::Strong)
            .with_seed(2)
            .with_max_slots(3)
            .with_stop(StopRule::Horizon);
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let factory_log = Arc::clone(&log);
        let mut stations = MultihopStations::new(&config, &topo, |i| match i {
            0 | 3 => Box::new(Beacon(i)) as Box<dyn MeshProtocol>,
            _ => Box::new(Recorder { id: i, log: Arc::clone(&factory_log) }),
        });
        let report = SimCore::new(&config, &AdversarySpec::passive()).run(&mut stations);
        assert_eq!(report.slots, 3);
        let mut heard = log.lock().unwrap().clone();
        heard.sort_unstable_by_key(|(id, m)| (*id, m.from));
        let expect: Vec<(u64, MeshMessage)> = [
            (1, MeshMessage { from: 0, payload: 100 }),
            (2, MeshMessage { from: 3, payload: 103 }),
        ]
        .into_iter()
        .flat_map(|e| std::iter::repeat_n(e, 3))
        .collect();
        assert_eq!(heard, expect);
    }

    #[test]
    #[should_panic(expected = "topology has 5 nodes but the simulation has 4 stations")]
    fn size_mismatch_panics_with_descriptive_error() {
        let topo = Topology::explicit(5, &[(0, 1)]).unwrap();
        let config = SimConfig::new(4, CdModel::Strong);
        let _ = run_multihop_std(
            &config,
            &AdversarySpec::passive(),
            &topo,
            RngDiscipline::Shared,
            |_| Box::new(PerStation::new(Fixed(0.5))),
        );
    }

    #[test]
    fn plan_chunks_respects_component_bounds() {
        // Components of sizes 4, 1, 1, 6 over n = 12, 3 workers: target 4.
        let chunks = plan_chunks(&[0, 4, 5, 6, 12], 3);
        assert_eq!(chunks, vec![(0, 4), (4, 12)]);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks tile the range");
        }
        // One worker: everything in one chunk.
        assert_eq!(plan_chunks(&[0, 4, 5, 6, 12], 1), vec![(0, 12)]);
        // Many small components merge.
        assert_eq!(plan_chunks(&[0, 1, 2, 3, 4], 2), vec![(0, 2), (2, 4)]);
    }
}
