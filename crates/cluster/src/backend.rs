//! Backend registry: per-backend liveness/health/load state shared by
//! the router workers and the prober thread.
//!
//! Every backend the router fronts has one [`BackendState`] — a block
//! of atomics the dispatch path reads lock-free on every request. The
//! prober thread refreshes liveness and health from each backend's
//! `health` endpoint; the dispatch path additionally marks a backend
//! dead the moment a forwarded request fails at the transport level,
//! so failover does not wait for the next probe tick.
//!
//! Membership is **elastic**: the pool is a grow-only slot table
//! behind an RCU-style `Mutex<Arc<Vec<…>>>`. Joining a backend
//! (`Op::Register`) appends a new slot; leaving (`Op::Deregister`)
//! tombstones the slot with a `removed` flag so its counters survive
//! in snapshots and its slot id is never reused. Every probe — not
//! just the first — re-validates the backend against the pool
//! [`Fingerprint`] captured at router startup, so a backend restarted
//! with different weights (different `registry_seed`, catalog or
//! shape) is *refused* rather than silently revived into a pool it
//! would corrupt.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use afpr_models::ModelEntrySnapshot;
use afpr_power::EnergyRoutingPolicy;
use afpr_runtime::{Histogram, LatencySnapshot};
use afpr_serve::{Client, HealthInfo, HealthState};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Encodes a [`HealthState`] into the atomic cell.
fn state_to_u8(s: HealthState) -> u8 {
    match s {
        HealthState::Healthy => 0,
        HealthState::Degraded => 1,
        HealthState::Draining => 2,
    }
}

/// Decodes the atomic cell back into a [`HealthState`].
fn state_from_u8(v: u8) -> HealthState {
    match v {
        0 => HealthState::Healthy,
        1 => HealthState::Degraded,
        _ => HealthState::Draining,
    }
}

/// One sorted static model key: `(model, format, layers, input_len,
/// output_len)` — the facts that must agree across a pipeline pool.
pub type CatalogKey = (String, String, u64, u64, u64);

/// The pool's registry-seed contract, captured from the startup probe.
///
/// A plain `Option<u64>` cannot express this: it conflates "every
/// startup backend is registry-less" with "the startup pool was mixed,
/// don't check" — and under that conflation a registry-*backed* joiner
/// (whose weights come from a seed the pool never agreed on) slips
/// into a registry-less pool unchecked. The tri-state keeps the two
/// apart: an [`Absent`](SeedPin::Absent) pool refuses seeded joiners,
/// while a [`Loose`](SeedPin::Loose) pool keeps the permissive
/// behaviour so the prober never refuses the pool's *own* startup
/// members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedPin {
    /// Every startup backend advertised this same registry seed;
    /// members must advertise exactly it.
    Seed(u64),
    /// Every startup backend was registry-less; members must be too —
    /// a joiner that *does* claim a seed has weight provenance the
    /// pool cannot verify bit-identical.
    Absent,
    /// Startup backends were mixed or disagreed; the seed is not part
    /// of the contract.
    Loose,
}

/// The identity contract every pool member must satisfy, captured from
/// the startup probe and enforced again at **join** (`Op::Register`)
/// and on **every health probe** — including the probe that revives an
/// ejected backend. Without the re-check, a backend process restarted
/// at the same address with different weights would be silently
/// revived and corrupt bit-identity; with it, such a backend is
/// refused until it comes back with matching provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Wire protocol version.
    pub protocol: u32,
    /// Served layer input dimension.
    pub input_dim: u64,
    /// Served layer output dimension.
    pub output_dim: u64,
    /// Row-tile height; `Some` when shard alignment is part of the
    /// contract (sharded placement), `None` otherwise.
    pub row_tile_rows: Option<u64>,
    /// Registry weight provenance: pinned to a seed, pinned absent
    /// (registry-less pool), or loose (mixed startup pool).
    pub registry_seed: SeedPin,
    /// Sorted static model keys; `Some` when a registry catalog is
    /// part of the contract (pipeline placement).
    pub catalog: Option<Vec<CatalogKey>>,
}

impl Fingerprint {
    /// The sorted static key list of a model inventory.
    #[must_use]
    pub fn catalog_key(models: &[ModelEntrySnapshot]) -> Vec<CatalogKey> {
        let mut keys: Vec<CatalogKey> = models
            .iter()
            .map(|m| {
                (
                    m.model.clone(),
                    m.format.clone(),
                    m.layers,
                    m.input_len,
                    m.output_len,
                )
            })
            .collect();
        keys.sort();
        keys
    }

    /// Validates a backend's advertised health info against the pool
    /// contract.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first mismatch.
    pub fn check(&self, info: &HealthInfo) -> Result<(), String> {
        if info.protocol != self.protocol {
            return Err(format!(
                "speaks protocol {} (pool speaks {})",
                info.protocol, self.protocol
            ));
        }
        if (info.input_dim, info.output_dim) != (self.input_dim, self.output_dim) {
            return Err(format!(
                "serves {}×{} (pool serves {}×{})",
                info.input_dim, info.output_dim, self.input_dim, self.output_dim
            ));
        }
        if let Some(unit) = self.row_tile_rows {
            if info.row_tile_rows != unit {
                return Err(format!(
                    "advertises row-tile height {} (pool shards at {unit})",
                    info.row_tile_rows
                ));
            }
        }
        match self.registry_seed {
            SeedPin::Seed(seed) => match info.registry_seed {
                Some(s) if s == seed => {}
                Some(s) => {
                    return Err(format!(
                        "compiled its registry from seed {s} (pool weights are pinned \
                         to seed {seed}; different seeds mean different weights)"
                    ));
                }
                None => {
                    return Err(format!(
                        "advertises no registry seed (pool weights are pinned to seed {seed})"
                    ));
                }
            },
            SeedPin::Absent => {
                if let Some(s) = info.registry_seed {
                    return Err(format!(
                        "compiled its registry from seed {s} (pool is registry-less; \
                         a seeded backend's weights cannot be verified bit-identical)"
                    ));
                }
            }
            SeedPin::Loose => {}
        }
        if let Some(expected) = self.catalog.as_ref() {
            let got = Self::catalog_key(info.models.as_deref().unwrap_or(&[]));
            if got != *expected {
                return Err("registers a different model inventory than the pool".to_string());
            }
        }
        Ok(())
    }
}

/// Live, shared state of one backend.
#[derive(Debug)]
pub struct BackendState {
    /// Stable slot id. Assigned at join, never reused — placement
    /// plans, connection pools and snapshots key by it even as
    /// membership churns.
    pub index: usize,
    /// The backend's `host:port` address.
    pub addr: String,
    alive: AtomicBool,
    /// Tombstone: deregistered backends keep their slot (and their
    /// counters) but never serve again.
    removed: AtomicBool,
    /// Set while the backend answers probes but fails the pool
    /// fingerprint — alive at the transport level, refused at the
    /// contract level.
    refused: AtomicBool,
    state: AtomicU8,
    outstanding: AtomicUsize,
    dispatched: AtomicU64,
    failed: AtomicU64,
    ejections: AtomicU64,
    revivals: AtomicU64,
    refusals: AtomicU64,
    retry_after_ms: AtomicU64,
    fault_events: AtomicU64,
    queue_capacity: AtomicU64,
    /// Windowed analog power (mW) last advertised by the backend's
    /// health endpoint, stored as `f64` bits. A routing gauge, not an
    /// identity fact — it is not part of the [`Fingerprint`].
    power_mw_bits: AtomicU64,
    latency: Mutex<Histogram>,
}

impl BackendState {
    pub(crate) fn new(index: usize, addr: String) -> Self {
        Self {
            index,
            addr,
            // Optimistic until the first probe/dispatch says otherwise;
            // `Router::start` probes synchronously before serving.
            alive: AtomicBool::new(true),
            removed: AtomicBool::new(false),
            refused: AtomicBool::new(false),
            state: AtomicU8::new(state_to_u8(HealthState::Healthy)),
            outstanding: AtomicUsize::new(0),
            dispatched: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            ejections: AtomicU64::new(0),
            revivals: AtomicU64::new(0),
            refusals: AtomicU64::new(0),
            retry_after_ms: AtomicU64::new(0),
            fault_events: AtomicU64::new(0),
            queue_capacity: AtomicU64::new(0),
            power_mw_bits: AtomicU64::new(0.0f64.to_bits()),
            latency: Mutex::new(Histogram::default()),
        }
    }

    /// Whether the last contact (probe or dispatch) succeeded.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    /// Whether the backend has been deregistered (tombstoned slot).
    #[must_use]
    pub fn is_removed(&self) -> bool {
        self.removed.load(Ordering::Acquire)
    }

    /// Last observed health state.
    #[must_use]
    pub fn health_state(&self) -> HealthState {
        state_from_u8(self.state.load(Ordering::Acquire))
    }

    /// Eligible for new work: a member (not deregistered), alive and
    /// not draining.
    #[must_use]
    pub fn is_eligible(&self) -> bool {
        !self.is_removed() && self.is_alive() && self.health_state() != HealthState::Draining
    }

    /// Requests currently in flight to this backend via the router.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Marks one request in flight; pair with
    /// [`BackendState::finish_dispatch`].
    pub fn begin_dispatch(&self) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Completes an in-flight request, recording its dispatch latency
    /// on success.
    pub fn finish_dispatch(&self, ok: bool, latency: Option<Duration>) {
        self.outstanding.fetch_sub(1, Ordering::AcqRel);
        if !ok {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(d) = latency {
            self.latency.lock().observe(d);
        }
    }

    /// Ejects the backend after a transport failure: ineligible until a
    /// probe succeeds again. Returns whether this call performed the
    /// alive→dead transition (capacity changed).
    pub fn mark_dead(&self) -> bool {
        let was_alive = self.alive.swap(false, Ordering::AcqRel);
        if was_alive {
            self.ejections.fetch_add(1, Ordering::Relaxed);
        }
        was_alive
    }

    /// Tombstones the backend (deregistration). Returns whether this
    /// call performed the transition.
    pub fn mark_removed(&self) -> bool {
        !self.removed.swap(true, Ordering::AcqRel)
    }

    /// Records a successful, fingerprint-validated health probe.
    /// Returns whether eligibility changed (revival or a draining-flag
    /// flip) — the signal that placement must be recomputed.
    pub fn mark_probed(&self, state: HealthState, fault_events: u64, queue_capacity: u64) -> bool {
        let was_state = state_from_u8(self.state.swap(state_to_u8(state), Ordering::AcqRel));
        self.fault_events.store(fault_events, Ordering::Relaxed);
        self.queue_capacity.store(queue_capacity, Ordering::Relaxed);
        self.refused.store(false, Ordering::Release);
        // (power_mw arrives via note_power_mw — keeping this signature
        // stable for callers that have no gauge to report.)
        let revived = !self.alive.swap(true, Ordering::AcqRel);
        if revived {
            self.revivals.fetch_add(1, Ordering::Relaxed);
        }
        revived || (was_state == HealthState::Draining) != (state == HealthState::Draining)
    }

    /// Records a probe that answered but failed the pool fingerprint:
    /// the backend stays (or becomes) ineligible and the refusal is
    /// counted once per refused episode.
    pub fn mark_refused(&self) -> bool {
        let was_alive = self.mark_dead();
        if !self.refused.swap(true, Ordering::AcqRel) {
            self.refusals.fetch_add(1, Ordering::Relaxed);
        }
        was_alive
    }

    /// Records a backend's `retry_after_ms` hint (from a 503).
    pub fn note_retry_after(&self, ms: u64) {
        self.retry_after_ms.store(ms, Ordering::Relaxed);
    }

    /// Records the backend's advertised windowed analog power (mW).
    /// Hostile/garbage values are clamped to zero — the gauge only
    /// influences routing *policy*, never correctness.
    pub fn note_power_mw(&self, mw: f64) {
        let clean = if mw.is_finite() && mw >= 0.0 { mw } else { 0.0 };
        self.power_mw_bits.store(clean.to_bits(), Ordering::Relaxed);
    }

    /// Windowed analog power (mW) last advertised by the backend.
    #[must_use]
    pub fn power_mw(&self) -> f64 {
        f64::from_bits(self.power_mw_bits.load(Ordering::Relaxed))
    }

    /// Cumulative fault-evidence events last reported by the backend.
    #[must_use]
    pub fn fault_events(&self) -> u64 {
        self.fault_events.load(Ordering::Relaxed)
    }

    /// Admission-queue capacity last advertised by the backend.
    #[must_use]
    pub fn queue_capacity(&self) -> u64 {
        self.queue_capacity.load(Ordering::Relaxed)
    }

    /// Times the backend was ejected (alive → dead transitions).
    #[must_use]
    pub fn ejections(&self) -> u64 {
        self.ejections.load(Ordering::Relaxed)
    }

    /// Times the prober (or a register) revived the backend.
    #[must_use]
    pub fn revivals(&self) -> u64 {
        self.revivals.load(Ordering::Relaxed)
    }

    /// Times the backend was refused for failing the pool fingerprint.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.refusals.load(Ordering::Relaxed)
    }

    /// Freezes this backend's counters.
    #[must_use]
    pub fn snapshot(&self) -> BackendSnapshot {
        BackendSnapshot {
            id: self.index as u64,
            addr: self.addr.clone(),
            alive: self.is_alive(),
            removed: self.is_removed(),
            state: self.health_state(),
            outstanding: self.outstanding() as u64,
            dispatched: self.dispatched.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            ejections: self.ejections(),
            revivals: self.revivals(),
            refusals: self.refusals(),
            fault_events: self.fault_events(),
            power_mw: self.power_mw(),
            dispatch_latency: self.latency.lock().snapshot(),
        }
    }

    /// The backend's dispatch-latency histogram (merged into the
    /// cluster-wide view by [`crate::ClusterMetrics`]).
    pub fn merge_latency_into(&self, into: &mut Histogram) {
        into.merge(&self.latency.lock());
    }
}

/// Frozen per-backend stats, keyed by the stable slot id and address
/// (counters stay meaningful as membership churns — a rejoining
/// process gets a fresh slot; a tombstoned slot keeps its history).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSnapshot {
    /// Stable slot id (never reused across joins/leaves).
    pub id: u64,
    /// Address.
    pub addr: String,
    /// Last-contact liveness.
    pub alive: bool,
    /// Whether the backend has been deregistered.
    pub removed: bool,
    /// Last observed health state.
    pub state: HealthState,
    /// Requests in flight at snapshot time.
    pub outstanding: u64,
    /// Requests forwarded to this backend.
    pub dispatched: u64,
    /// Forwarded requests that failed at the transport level.
    pub failed: u64,
    /// Times the backend was ejected (alive → dead transitions).
    pub ejections: u64,
    /// Times the backend was revived by a validated probe.
    pub revivals: u64,
    /// Times the backend was refused for failing the pool fingerprint.
    pub refusals: u64,
    /// Cumulative fault evidence last reported by the backend.
    pub fault_events: u64,
    /// Windowed analog power (mW) last advertised by the backend
    /// (zero from backends that predate the gauge).
    #[serde(with = "afpr_serve::protocol::f64_zero_wire")]
    pub power_mw: f64,
    /// Router→backend→router dispatch latency.
    pub dispatch_latency: LatencySnapshot,
}

/// The set of backends behind one router: a grow-only slot table.
/// Readers take an RCU-style `Arc` snapshot ([`BackendPool::load`]);
/// joins append a slot, leaves tombstone one — slot ids are stable for
/// the lifetime of the router.
#[derive(Debug, Clone)]
pub struct BackendPool {
    slots: Arc<Mutex<Arc<Vec<Arc<BackendState>>>>>,
    /// Energy-proportional replica routing (replicated placement):
    /// while aggregate reported power is below the policy threshold,
    /// [`BackendPool::pick_replica`] *packs* load onto the
    /// lowest-indexed replicas instead of spreading it. `None` keeps
    /// the pure least-outstanding pick.
    energy_policy: Option<EnergyRoutingPolicy>,
}

impl BackendPool {
    /// Builds a pool from backend addresses (slot id = list order =
    /// initial shard order in sharded mode).
    #[must_use]
    pub fn new(addrs: &[String]) -> Self {
        let backends: Vec<Arc<BackendState>> = addrs
            .iter()
            .enumerate()
            .map(|(i, a)| Arc::new(BackendState::new(i, a.clone())))
            .collect();
        Self {
            slots: Arc::new(Mutex::new(Arc::new(backends))),
            energy_policy: None,
        }
    }

    /// Enables energy-proportional replica routing.
    #[must_use]
    pub fn with_energy_policy(mut self, policy: Option<EnergyRoutingPolicy>) -> Self {
        self.energy_policy = policy;
        self
    }

    /// Aggregate reported analog power (mW) across current members.
    #[must_use]
    pub fn total_power_mw(&self) -> f64 {
        self.load()
            .iter()
            .filter(|b| !b.is_removed())
            .map(|b| b.power_mw())
            .sum()
    }

    /// An immutable snapshot of the slot table (cheap `Arc` clone).
    #[must_use]
    pub fn load(&self) -> Arc<Vec<Arc<BackendState>>> {
        Arc::clone(&self.slots.lock())
    }

    /// Number of slots ever allocated (tombstones included).
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// Whether the pool has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.lock().is_empty()
    }

    /// Number of current members (non-tombstoned slots).
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.load().iter().filter(|b| !b.is_removed()).count()
    }

    /// The backend at slot `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn get(&self, index: usize) -> Arc<BackendState> {
        Arc::clone(&self.slots.lock()[index])
    }

    /// The non-tombstoned member at `addr`, if any.
    #[must_use]
    pub fn find(&self, addr: &str) -> Option<Arc<BackendState>> {
        self.load()
            .iter()
            .find(|b| !b.is_removed() && b.addr == addr)
            .map(Arc::clone)
    }

    /// Appends a new member slot and returns it.
    #[must_use]
    pub fn push(&self, addr: &str) -> Arc<BackendState> {
        let mut guard = self.slots.lock();
        let mut next: Vec<Arc<BackendState>> = guard.as_ref().clone();
        let backend = Arc::new(BackendState::new(next.len(), addr.to_string()));
        next.push(Arc::clone(&backend));
        *guard = Arc::new(next);
        backend
    }

    /// Replica selection over eligible backends whose slot is not in
    /// `excluded`.
    ///
    /// Default: least outstanding requests, ties broken by lowest slot
    /// id (deterministic). With an [`EnergyRoutingPolicy`] and the
    /// pool's aggregate reported power under its threshold, the pick
    /// *packs* instead: the lowest-indexed eligible replica with
    /// headroom (`outstanding < pack_max_outstanding`) takes the work,
    /// so lightly loaded pools keep most replicas idle/cold. When
    /// traffic saturates every packable replica — or aggregate power
    /// crosses the threshold — the pick falls back to spreading.
    /// Either way only eligible (non-draining, non-ejected, member)
    /// backends are candidates, so failover semantics are unchanged.
    #[must_use]
    pub fn pick_replica(&self, excluded: &[usize]) -> Option<Arc<BackendState>> {
        let slots = self.load();
        if let Some(policy) = &self.energy_policy {
            if policy.packs_at(self.total_power_mw()) {
                if let Some(b) = slots
                    .iter()
                    .filter(|b| !excluded.contains(&b.index) && b.is_eligible())
                    .find(|b| (b.outstanding() as u64) < policy.pack_max_outstanding)
                {
                    return Some(Arc::clone(b));
                }
            }
        }
        slots
            .iter()
            .filter(|b| !excluded.contains(&b.index) && b.is_eligible())
            .min_by_key(|b| (b.outstanding(), b.index))
            .map(Arc::clone)
    }

    /// [`BackendPool::pick_replica`] restricted to the given candidate
    /// slots (a shard's replica set).
    #[must_use]
    pub fn pick_among(
        &self,
        candidates: &[usize],
        excluded: &[usize],
    ) -> Option<Arc<BackendState>> {
        let slots = self.load();
        candidates
            .iter()
            .filter_map(|&s| slots.get(s))
            .filter(|b| !excluded.contains(&b.index) && b.is_eligible())
            .min_by_key(|b| (b.outstanding(), b.index))
            .map(Arc::clone)
    }

    /// Slot ids of every currently eligible member, in slot order —
    /// the input to placement planning.
    #[must_use]
    pub fn eligible_slots(&self) -> Vec<usize> {
        self.load()
            .iter()
            .filter(|b| b.is_eligible())
            .map(|b| b.index)
            .collect()
    }

    /// The smallest nonzero `retry_after_ms` hint any backend has
    /// given, if any (used for router-synthesized 503s).
    #[must_use]
    pub fn min_retry_after_ms(&self) -> Option<u64> {
        self.load()
            .iter()
            .map(|b| b.retry_after_ms.load(Ordering::Relaxed))
            .filter(|&ms| ms > 0)
            .min()
    }
}

/// Spawns the health prober: a thread that polls every member's
/// `health` endpoint each `interval`, reviving ejected backends whose
/// probes succeed **and whose fingerprint still matches the pool
/// contract**, and ejecting ones whose probes fail. `notify` runs
/// after any pass in which some backend's eligibility changed (the
/// router rebalances its placement on that signal). The thread exits
/// when `stop` returns `true`. Between passes it parks until the next
/// one is due, checking `stop` whenever it wakes: a caller that makes
/// `stop` true and then unparks the returned handle's thread ends the
/// wait at once.
pub fn spawn_prober<F, N>(
    pool: BackendPool,
    interval: Duration,
    probe_timeout: Duration,
    expected: Fingerprint,
    stop: F,
    notify: N,
) -> std::io::Result<JoinHandle<()>>
where
    F: Fn() -> bool + Send + 'static,
    N: Fn() + Send + 'static,
{
    thread::Builder::new()
        .name("afpr-cluster-probe".into())
        .spawn(move || {
            // One cached connection per slot, reconnected on demand.
            let mut conns: Vec<Option<Client>> = Vec::new();
            while !stop() {
                let slots = pool.load();
                if conns.len() < slots.len() {
                    conns.resize_with(slots.len(), || None);
                }
                let mut changed = false;
                for backend in slots.iter() {
                    if backend.is_removed() {
                        conns[backend.index] = None;
                        continue;
                    }
                    changed |=
                        probe_one(backend, &mut conns[backend.index], probe_timeout, &expected);
                }
                if changed {
                    notify();
                }
                // Park until the next pass; a drain unparks us.
                let due = Instant::now() + interval;
                while !stop() {
                    let left = due.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    thread::park_timeout(left);
                }
            }
        })
}

/// One probe: connect (or reuse), `health`, validate the fingerprint,
/// record. A transport failure ejects the backend and drops the cached
/// connection; a fingerprint mismatch *refuses* it — a backend
/// restarted with different weights must not be revived. Returns
/// whether eligibility changed.
fn probe_one(
    backend: &BackendState,
    conn: &mut Option<Client>,
    timeout: Duration,
    expected: &Fingerprint,
) -> bool {
    if conn.is_none() {
        match Client::connect(&backend.addr) {
            Ok(c) => {
                if c.set_read_timeout(Some(timeout)).is_err()
                    || c.set_write_timeout(Some(timeout)).is_err()
                {
                    return backend.mark_dead();
                }
                *conn = Some(c);
            }
            Err(_) => {
                return backend.mark_dead();
            }
        }
    }
    let Some(client) = conn.as_mut() else {
        return false;
    };
    match client.health() {
        Ok(info) => match expected.check(&info) {
            Ok(()) => {
                backend.note_power_mw(info.power_mw);
                backend.mark_probed(info.state, info.fault_events, info.queue_capacity)
            }
            Err(_) => backend.mark_refused(),
        },
        Err(_) => {
            *conn = None;
            backend.mark_dead()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_fingerprint() -> Fingerprint {
        Fingerprint {
            protocol: 1,
            input_dim: 256,
            output_dim: 128,
            row_tile_rows: Some(64),
            registry_seed: SeedPin::Loose,
            catalog: None,
        }
    }

    fn demo_info() -> HealthInfo {
        HealthInfo {
            protocol: 1,
            input_dim: 256,
            output_dim: 128,
            queue_depth: 0,
            queue_capacity: 64,
            shutting_down: false,
            state: HealthState::Healthy,
            fault_events: 0,
            row_tile_rows: 64,
            models: None,
            registry_seed: None,
            power_mw: 0.0,
        }
    }

    #[test]
    fn pick_replica_prefers_least_outstanding_eligible() {
        let pool = BackendPool::new(&[
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
            "127.0.0.1:3".to_string(),
        ]);
        // Equal load → lowest slot.
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 0);
        // Load skews the choice.
        pool.get(0).begin_dispatch();
        pool.get(0).begin_dispatch();
        pool.get(1).begin_dispatch();
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 2);
        // Dead backends are skipped; ejection is counted once.
        pool.get(2).mark_dead();
        pool.get(2).mark_dead();
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 1);
        assert_eq!(pool.get(2).snapshot().ejections, 1);
        // Draining backends are ineligible.
        pool.get(1).mark_probed(HealthState::Draining, 0, 64);
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 0);
        // Exclusion masks the rest → None.
        assert!(pool.pick_replica(&[0]).is_none());
        // A successful probe revives the dead backend and counts it.
        assert!(pool.get(2).mark_probed(HealthState::Healthy, 3, 64));
        assert!(pool.get(2).is_eligible());
        assert_eq!(pool.get(2).fault_events(), 3);
        assert_eq!(pool.get(2).revivals(), 1);
    }

    #[test]
    fn energy_policy_packs_cold_pools_and_spreads_hot_ones() {
        let pool = BackendPool::new(&[
            "127.0.0.1:1".to_string(),
            "127.0.0.1:2".to_string(),
            "127.0.0.1:3".to_string(),
        ])
        .with_energy_policy(Some(EnergyRoutingPolicy::default()));
        let cap = EnergyRoutingPolicy::default().pack_max_outstanding;

        // Cold pool (no reported power): pack onto the lowest slot
        // even as its load grows past its siblings'.
        for _ in 0..cap - 1 {
            assert_eq!(pool.pick_replica(&[]).unwrap().index, 0);
            pool.get(0).begin_dispatch();
        }
        // At the headroom cap the pack overflows to the next slot.
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 0);
        pool.get(0).begin_dispatch();
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 1);

        // Packing still honors eligibility: drain slot 0, pack lands
        // on slot 1 (slot 2 stays cold).
        pool.get(0).mark_probed(HealthState::Draining, 0, 64);
        assert_eq!(pool.pick_replica(&[]).unwrap().index, 1);

        // Aggregate power crossing the threshold flips to spreading:
        // least-outstanding wins again.
        pool.get(1).begin_dispatch();
        pool.get(0).note_power_mw(40.0);
        pool.get(1).note_power_mw(40.0);
        assert!(pool.total_power_mw() > EnergyRoutingPolicy::default().pack_below_mw);
        assert_eq!(
            pool.pick_replica(&[]).unwrap().index,
            2,
            "hot pool spreads to the idle replica"
        );

        // The gauge refuses garbage: non-finite and negative samples
        // clamp to zero rather than poisoning the aggregate.
        pool.get(2).note_power_mw(f64::NAN);
        pool.get(2).note_power_mw(-5.0);
        assert_eq!(pool.get(2).power_mw(), 0.0);
        assert!(pool.total_power_mw().is_finite());
    }

    #[test]
    fn membership_push_tombstone_and_candidate_picks() {
        let pool = BackendPool::new(&["a:1".to_string()]);
        let b = pool.push("b:2");
        assert_eq!(b.index, 1);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.member_count(), 2);
        assert_eq!(pool.eligible_slots(), vec![0, 1]);
        assert!(pool.find("b:2").is_some());

        // Tombstone keeps the slot but removes the member.
        assert!(pool.get(0).mark_removed());
        assert!(!pool.get(0).mark_removed(), "transition counted once");
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.member_count(), 1);
        assert!(pool.find("a:1").is_none(), "tombstones are not members");
        assert_eq!(pool.eligible_slots(), vec![1]);
        assert!(pool.pick_replica(&[]).unwrap().index == 1);

        // Candidate-restricted pick (shard replica sets).
        assert_eq!(pool.pick_among(&[1], &[]).unwrap().index, 1);
        assert!(pool.pick_among(&[0], &[]).is_none(), "tombstone ineligible");
        assert!(pool.pick_among(&[1], &[1]).is_none(), "excluded");

        // Slot ids are never reused: a rejoin gets a fresh slot.
        let c = pool.push("a:1");
        assert_eq!(c.index, 2);
        assert_eq!(pool.find("a:1").unwrap().index, 2);
    }

    #[test]
    fn fingerprint_mismatch_refuses_instead_of_reviving() {
        let fp = demo_fingerprint();
        let b = BackendState::new(0, "x:1".to_string());
        b.mark_dead();
        assert!(!b.is_eligible());

        // Matching info revives.
        let info = demo_info();
        assert!(fp.check(&info).is_ok());
        b.mark_probed(info.state, info.fault_events, info.queue_capacity);
        assert!(b.is_eligible());

        // A mismatched probe (restarted with different provenance)
        // refuses: ineligible, refusal counted once per episode.
        let mut wrong = demo_info();
        wrong.registry_seed = Some(99);
        let fp_pinned = Fingerprint {
            registry_seed: SeedPin::Seed(7),
            ..demo_fingerprint()
        };
        assert!(fp_pinned.check(&wrong).is_err());
        b.mark_refused();
        b.mark_refused();
        assert!(!b.is_eligible());
        assert_eq!(b.refusals(), 1, "one refusal per refused episode");

        // Coming back with the right seed clears the refusal.
        let mut right = demo_info();
        right.registry_seed = Some(7);
        assert!(fp_pinned.check(&right).is_ok());
        b.mark_probed(right.state, right.fault_events, right.queue_capacity);
        assert!(b.is_eligible());
        b.mark_refused();
        assert_eq!(b.refusals(), 2, "a new episode counts again");
    }

    #[test]
    fn fingerprint_checks_shape_tiles_seed_and_catalog() {
        let fp = Fingerprint {
            registry_seed: SeedPin::Seed(9),
            ..demo_fingerprint()
        };
        let mut info = demo_info();
        info.registry_seed = Some(9);
        assert!(fp.check(&info).is_ok());

        let mut bad = info.clone();
        bad.protocol = 2;
        assert!(fp.check(&bad).is_err());
        let mut bad = info.clone();
        bad.output_dim = 64;
        assert!(fp.check(&bad).is_err());
        let mut bad = info.clone();
        bad.row_tile_rows = 32;
        assert!(fp.check(&bad).is_err());
        let mut bad = info.clone();
        bad.registry_seed = None;
        assert!(fp.check(&bad).is_err());

        // Loose fields are don't-care.
        let loose = Fingerprint {
            row_tile_rows: None,
            registry_seed: SeedPin::Loose,
            catalog: None,
            ..demo_fingerprint()
        };
        let mut odd = info.clone();
        odd.row_tile_rows = 32;
        odd.registry_seed = None;
        assert!(loose.check(&odd).is_ok());
        odd.registry_seed = Some(42);
        assert!(loose.check(&odd).is_ok());
    }

    #[test]
    fn registry_less_pool_refuses_seeded_joiner() {
        // A pool whose every startup backend is registry-less pins the
        // *absence*: a joiner claiming seeded weights is refused, one
        // advertising none is admitted.
        let fp = Fingerprint {
            registry_seed: SeedPin::Absent,
            ..demo_fingerprint()
        };
        assert!(fp.check(&demo_info()).is_ok());
        let mut seeded = demo_info();
        seeded.registry_seed = Some(7);
        let why = fp.check(&seeded).unwrap_err();
        assert!(why.contains("registry-less"), "explains the pin: {why}");
    }

    #[test]
    fn finish_dispatch_accounts_failures_and_latency() {
        let pool = BackendPool::new(&["127.0.0.1:1".to_string()]);
        let b = pool.get(0);
        b.begin_dispatch();
        b.finish_dispatch(true, Some(Duration::from_micros(250)));
        b.begin_dispatch();
        b.finish_dispatch(false, None);
        let snap = b.snapshot();
        assert_eq!(snap.dispatched, 2);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.outstanding, 0);
        assert_eq!(snap.dispatch_latency.count, 1);
    }

    #[test]
    fn retry_after_hint_aggregation() {
        let pool = BackendPool::new(&["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(pool.min_retry_after_ms(), None);
        pool.get(1).note_retry_after(40);
        pool.get(0).note_retry_after(25);
        assert_eq!(pool.min_retry_after_ms(), Some(25));
    }
}
