//! Runtime observability: lock-free counters for the hot path, a
//! log-linear latency histogram, and per-layer wall-time accounting.
//!
//! Counter updates on the job hot path are single atomic RMW
//! operations (`Relaxed` ordering is enough: the counters are
//! monotonic telemetry, not synchronization). The histogram and the
//! per-layer table sit behind [`parking_lot::Mutex`]es and are touched
//! once per job / once per layer pass, never per MAC.
//!
//! [`RuntimeMetrics::snapshot`] freezes everything into a
//! [`MetricsSnapshot`] that serializes to JSON via `serde_json`, so a
//! serving loop can export metrics without reaching into internals.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// log₂ of the linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
/// Linear sub-buckets per octave.
const SUB: usize = 1 << SUB_BITS;
/// `SUB` exact buckets for 0…7 ns, then `SUB` per octave up to
/// `u64::MAX` ns.
const BUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB;

/// A log-linear histogram of nanosecond durations.
///
/// Durations below 8 ns get one bucket each; every octave
/// `[2^e, 2^(e+1))` above is split into 8 equal sub-buckets.
/// Quantiles are resolved to their bucket's upper bound, which is at
/// most 12.5 % above the true value.
#[derive(Debug)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    total: u64,
    sum_ns: u64,
    max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < SUB as u64 {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        SUB * (1 + shift as usize) + (ns >> shift) as usize - SUB
    }

    /// Records one duration.
    pub fn observe(&mut self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// The number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Folds another histogram into this one (bucket-wise sum; mean
    /// and max combine exactly). Used by multi-threaded harnesses that
    /// keep one histogram per worker and merge at the end.
    pub fn merge(&mut self, other: &Histogram) {
        for (c, o) in self.counts.iter_mut().zip(other.counts.iter()) {
            *c += o;
        }
        self.total += other.total;
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Upper bound (in ns) of the bucket holding quantile `q ∈ [0, 1]`.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return upper_bound(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Freezes the distribution into a serializable summary.
    #[must_use]
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            count: self.total,
            mean_ns: if self.total == 0 {
                0.0
            } else {
                self.sum_ns as f64 / self.total as f64
            },
            p50_ns: self.quantile_ns(0.50),
            p95_ns: self.quantile_ns(0.95),
            p99_ns: self.quantile_ns(0.99),
            max_ns: self.max_ns,
        }
    }
}

fn upper_bound(bucket: usize) -> u64 {
    if bucket < SUB {
        return bucket as u64;
    }
    // Bucket `SUB * (1 + shift) + j` holds `(SUB + j) << shift` up to
    // one below `(SUB + j + 1) << shift`; the top bucket ends at
    // `u64::MAX` without overflowing.
    let shift = (bucket / SUB - 1) as u32;
    let lower = ((SUB + bucket % SUB) as u64) << shift;
    lower + ((1u64 << shift) - 1)
}

/// Frozen view of the job-latency histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencySnapshot {
    /// Number of recorded jobs.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_ns: f64,
    /// Median (upper bucket bound, ≤ 12.5 % high), nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile (upper bucket bound, ≤ 12.5 % high), nanoseconds.
    pub p95_ns: u64,
    /// 99th percentile (upper bucket bound, ≤ 12.5 % high), nanoseconds.
    pub p99_ns: u64,
    /// Largest observed latency, nanoseconds.
    pub max_ns: u64,
}

/// Why a request was rejected before reaching the engine.
///
/// Used by serving front doors (`afpr-serve`) so overload, deadline
/// and protocol failures stay distinguishable in exported metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was at capacity (`QueueFull`).
    QueueFull,
    /// The request's deadline had already expired.
    DeadlineExpired,
    /// The request could not be parsed / validated.
    Malformed,
    /// The server shed the request while in a degraded health state.
    Shed,
    /// The request's estimated energy exceeded its client-supplied
    /// `energy_budget_mj` (and the client did not opt into a format
    /// downshift).
    EnergyBudget,
}

/// Wire-compat module: deserializes a missing (`null`) field as `0`,
/// so snapshots emitted before the field existed still parse.
mod u64_zero {
    use serde::{de, Deserializer, Serialize, Serializer, Value};

    pub fn serialize<S: Serializer>(v: &u64, s: S) -> Result<S::Ok, S::Error> {
        v.serialize(s)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<u64, D::Error> {
        match d.take_value()? {
            Value::Null => Ok(0),
            other => serde::de::from_value(other)
                .map_err(|e| <D::Error as de::Error>::custom(e.to_string())),
        }
    }
}

/// Frozen rejection-reason counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectionSnapshot {
    /// Rejections due to admission-queue backpressure.
    pub queue_full: u64,
    /// Rejections because the request deadline had expired.
    pub deadline_expired: u64,
    /// Rejections due to malformed / unparseable requests.
    pub malformed: u64,
    /// Rejections shed by a degraded front door (load shedding).
    pub shed: u64,
    /// Rejections because the estimated energy exceeded the client's
    /// budget (absent in pre-power snapshots → 0).
    #[serde(with = "u64_zero")]
    pub energy_budget: u64,
}

impl RejectionSnapshot {
    /// Total rejections across every reason.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline_expired + self.malformed + self.shed + self.energy_budget
    }
}

#[derive(Debug, Default)]
struct LayerRecord {
    name: String,
    calls: u64,
    wall_ns: u64,
    tiles: u64,
    macs: u64,
}

/// Frozen per-layer accounting entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerSnapshot {
    /// Layer label (as passed to [`RuntimeMetrics::record_layer`]).
    pub name: String,
    /// Number of recorded passes over this layer.
    pub calls: u64,
    /// Accumulated wall-clock time, nanoseconds.
    pub wall_ns: u64,
    /// Tile (macro) invocations attributed to this layer.
    pub tiles: u64,
    /// Multiply-accumulate operations attributed to this layer.
    pub macs: u64,
}

/// Shared, thread-safe runtime metrics registry.
///
/// Cloneable via `Arc`; every [`crate::Engine`] owns one and exposes it
/// through [`crate::Engine::metrics`].
#[derive(Debug)]
pub struct RuntimeMetrics {
    started: Instant,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_panicked: AtomicU64,
    batches_flushed: AtomicU64,
    items_enqueued: AtomicU64,
    queue_rejections: AtomicU64,
    queue_depth_hwm: AtomicU64,
    requests_accepted: AtomicU64,
    rejected_queue_full: AtomicU64,
    rejected_deadline_expired: AtomicU64,
    rejected_malformed: AtomicU64,
    rejected_shed: AtomicU64,
    rejected_energy_budget: AtomicU64,
    tiles_executed: AtomicU64,
    macs_executed: AtomicU64,
    energy_pj_milli: AtomicU64,
    power_window_energy: AtomicU64,
    power_window_ns: AtomicU64,
    job_latency: Mutex<Histogram>,
    layers: Mutex<Vec<LayerRecord>>,
}

impl Default for RuntimeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RuntimeMetrics {
    /// Creates an empty registry; the uptime clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_panicked: AtomicU64::new(0),
            batches_flushed: AtomicU64::new(0),
            items_enqueued: AtomicU64::new(0),
            queue_rejections: AtomicU64::new(0),
            queue_depth_hwm: AtomicU64::new(0),
            requests_accepted: AtomicU64::new(0),
            rejected_queue_full: AtomicU64::new(0),
            rejected_deadline_expired: AtomicU64::new(0),
            rejected_malformed: AtomicU64::new(0),
            rejected_shed: AtomicU64::new(0),
            rejected_energy_budget: AtomicU64::new(0),
            tiles_executed: AtomicU64::new(0),
            macs_executed: AtomicU64::new(0),
            energy_pj_milli: AtomicU64::new(0),
            power_window_energy: AtomicU64::new(0),
            power_window_ns: AtomicU64::new(0),
            job_latency: Mutex::new(Histogram::default()),
            layers: Mutex::new(Vec::new()),
        }
    }

    /// Counts `n` jobs handed to the worker pool.
    pub fn record_jobs_submitted(&self, n: u64) {
        self.jobs_submitted.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts one finished job and records its wall time.
    pub fn record_job_completed(&self, elapsed: Duration) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        self.job_latency.lock().observe(elapsed);
    }

    /// Counts one job whose closure panicked (the panic was caught by
    /// the worker; the pool itself stays healthy).
    pub fn record_job_panicked(&self) {
        self.jobs_panicked.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of caught worker-job panics so far.
    #[must_use]
    pub fn jobs_panicked(&self) -> u64 {
        self.jobs_panicked.load(Ordering::Relaxed)
    }

    /// Counts one flushed micro-batch of `items` requests.
    pub fn record_batch_flushed(&self, items: u64) {
        self.batches_flushed.fetch_add(1, Ordering::Relaxed);
        let _ = items;
    }

    /// Counts one request accepted into the micro-batch queue.
    pub fn record_item_enqueued(&self) {
        self.items_enqueued.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request rejected for backpressure (`QueueFull`).
    ///
    /// Also attributed to the [`RejectReason::QueueFull`] reason
    /// counter, so callers that reject via [`crate::MicroBatcher`]
    /// need no extra bookkeeping.
    pub fn record_queue_rejection(&self) {
        self.queue_rejections.fetch_add(1, Ordering::Relaxed);
        self.rejected_queue_full.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request accepted by an admission front door.
    pub fn record_request_accepted(&self) {
        self.requests_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request rejected for the given reason.
    ///
    /// Note [`RejectReason::QueueFull`] is normally recorded by
    /// [`record_queue_rejection`](Self::record_queue_rejection) (via
    /// the batcher); call this directly only for rejections that never
    /// touched the queue.
    pub fn record_rejection(&self, reason: RejectReason) {
        let counter = match reason {
            RejectReason::QueueFull => &self.rejected_queue_full,
            RejectReason::DeadlineExpired => &self.rejected_deadline_expired,
            RejectReason::Malformed => &self.rejected_malformed,
            RejectReason::Shed => &self.rejected_shed,
            RejectReason::EnergyBudget => &self.rejected_energy_budget,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Updates the queue-depth high-water mark.
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts executed tiles (one per macro matvec) and their MACs.
    pub fn record_tiles(&self, tiles: u64, macs: u64) {
        self.tiles_executed.fetch_add(tiles, Ordering::Relaxed);
        self.macs_executed.fetch_add(macs, Ordering::Relaxed);
    }

    /// Accumulates analog-domain energy, in joules.
    ///
    /// Stored internally with millipicojoule (1e-15 J) granularity so a
    /// single atomic suffices; saturates instead of wrapping.
    pub fn record_energy_j(&self, joules: f64) {
        if joules.is_finite() && joules > 0.0 {
            let fj = (joules * 1e15).round().min(u64::MAX as f64) as u64;
            self.energy_pj_milli.fetch_add(fj, Ordering::Relaxed);
        }
    }

    /// Cumulative analog energy in joules (what
    /// [`record_energy_j`](Self::record_energy_j) accumulated).
    #[must_use]
    pub fn analog_energy_j(&self) -> f64 {
        self.energy_pj_milli.load(Ordering::Relaxed) as f64 * 1e-15
    }

    /// Average analog power over the whole uptime, in milliwatts.
    /// Non-destructive: any number of callers may read it.
    #[must_use]
    pub fn average_power_mw(&self) -> f64 {
        let uptime_s = self.started.elapsed().as_secs_f64().max(1e-9);
        self.analog_energy_j() / uptime_s * 1e3
    }

    /// Windowed analog power in milliwatts: energy accumulated since
    /// the previous `sample_power_mw` call, divided by the elapsed
    /// time. The first call averages over the whole uptime.
    ///
    /// Destructive read — the sampling window resets on every call, so
    /// a single periodic consumer (the health endpoint feeding a
    /// cluster prober) should own it. Concurrent callers race only the
    /// window bookkeeping, never the underlying energy counter.
    #[must_use]
    pub fn sample_power_mw(&self) -> f64 {
        let now_ns = u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let energy = self.energy_pj_milli.load(Ordering::Relaxed);
        let last_ns = self.power_window_ns.swap(now_ns, Ordering::Relaxed);
        let last_energy = self.power_window_energy.swap(energy, Ordering::Relaxed);
        let dt_ns = now_ns.saturating_sub(last_ns);
        if dt_ns == 0 {
            return 0.0;
        }
        let de_j = energy.saturating_sub(last_energy) as f64 * 1e-15;
        de_j / (dt_ns as f64 * 1e-9) * 1e3
    }

    /// Merges wall time and work counts into the per-layer table.
    pub fn record_layer(&self, name: &str, wall: Duration, tiles: u64, macs: u64) {
        let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let mut layers = self.layers.lock();
        if let Some(rec) = layers.iter_mut().find(|r| r.name == name) {
            rec.calls += 1;
            rec.wall_ns = rec.wall_ns.saturating_add(wall_ns);
            rec.tiles += tiles;
            rec.macs += macs;
        } else {
            layers.push(LayerRecord {
                name: name.to_string(),
                calls: 1,
                wall_ns,
                tiles,
                macs,
            });
        }
    }

    /// Freezes the current state into a serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let uptime_s = uptime.as_secs_f64().max(1e-9);
        let tiles = self.tiles_executed.load(Ordering::Relaxed);
        let macs = self.macs_executed.load(Ordering::Relaxed);
        MetricsSnapshot {
            uptime_s,
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
            jobs_panicked: self.jobs_panicked.load(Ordering::Relaxed),
            batches_flushed: self.batches_flushed.load(Ordering::Relaxed),
            items_enqueued: self.items_enqueued.load(Ordering::Relaxed),
            queue_rejections: self.queue_rejections.load(Ordering::Relaxed),
            queue_depth_hwm: self.queue_depth_hwm.load(Ordering::Relaxed),
            requests_accepted: self.requests_accepted.load(Ordering::Relaxed),
            rejections: RejectionSnapshot {
                queue_full: self.rejected_queue_full.load(Ordering::Relaxed),
                deadline_expired: self.rejected_deadline_expired.load(Ordering::Relaxed),
                malformed: self.rejected_malformed.load(Ordering::Relaxed),
                shed: self.rejected_shed.load(Ordering::Relaxed),
                energy_budget: self.rejected_energy_budget.load(Ordering::Relaxed),
            },
            tiles_executed: tiles,
            macs_executed: macs,
            tiles_per_s: tiles as f64 / uptime_s,
            macs_per_s: macs as f64 / uptime_s,
            analog_energy_j: self.energy_pj_milli.load(Ordering::Relaxed) as f64 * 1e-15,
            job_latency: self.job_latency.lock().snapshot(),
            layers: {
                let layers = self.layers.lock();
                layers
                    .iter()
                    .map(|r| LayerSnapshot {
                        name: r.name.clone(),
                        calls: r.calls,
                        wall_ns: r.wall_ns,
                        tiles: r.tiles,
                        macs: r.macs,
                    })
                    .collect()
            },
        }
    }
}

/// Point-in-time, serializable view of [`RuntimeMetrics`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Seconds since the registry was created.
    pub uptime_s: f64,
    /// Jobs handed to the worker pool.
    pub jobs_submitted: u64,
    /// Jobs that finished executing.
    pub jobs_completed: u64,
    /// Jobs whose closure panicked (panic caught; pool stayed healthy).
    pub jobs_panicked: u64,
    /// Micro-batches flushed by the batcher.
    pub batches_flushed: u64,
    /// Requests accepted into the micro-batch queue.
    pub items_enqueued: u64,
    /// Requests rejected for backpressure.
    pub queue_rejections: u64,
    /// Highest observed queue depth.
    pub queue_depth_hwm: u64,
    /// Requests accepted by an admission front door.
    pub requests_accepted: u64,
    /// Rejections broken down by reason.
    pub rejections: RejectionSnapshot,
    /// Tile (macro matvec) invocations.
    pub tiles_executed: u64,
    /// Multiply-accumulate operations executed on macros.
    pub macs_executed: u64,
    /// Tile throughput over the uptime window.
    pub tiles_per_s: f64,
    /// MAC throughput over the uptime window.
    pub macs_per_s: f64,
    /// Accumulated analog-domain energy, joules.
    pub analog_energy_j: f64,
    /// Job latency distribution.
    pub job_latency: LatencySnapshot,
    /// Per-layer wall time / work accounting.
    pub layers: Vec<LayerSnapshot>,
}

impl MetricsSnapshot {
    /// Compact JSON encoding.
    ///
    /// # Panics
    ///
    /// Panics only if serialization fails, which would be a bug in the
    /// snapshot definition.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Pretty-printed (2-space) JSON encoding.
    ///
    /// # Panics
    ///
    /// Panics only if serialization fails, which would be a bug in the
    /// snapshot definition.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        for _ in 0..90 {
            h.observe(Duration::from_nanos(100));
        }
        for _ in 0..10 {
            h.observe(Duration::from_nanos(10_000));
        }
        assert_eq!(h.count(), 100);
        // p50 resolves within its sub-bucket (96..103 ns).
        assert!(h.quantile_ns(0.5) >= 100 && h.quantile_ns(0.5) < 256);
        assert!(h.quantile_ns(0.99) >= 8192);
        assert_eq!(h.quantile_ns(1.0), 10_000);
    }

    #[test]
    fn bucket_bounds_tile_the_range() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(Histogram::bucket(upper_bound(i)), i);
            assert_eq!(Histogram::bucket(upper_bound(i) + 1), i + 1);
        }
        assert_eq!(Histogram::bucket(u64::MAX), BUCKETS - 1);
        assert_eq!(upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_error_is_within_an_eighth_from_1us_to_10s() {
        // Log-uniform and clustered samples between 1 µs and 10 s; the
        // reported p50/p95/p99 sit at or above the exact order
        // statistic, by at most 12.5 %.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for spread in [7.0, 1.0, 0.05] {
            for centre in [3.0, 4.5, 6.0, 8.5] {
                let mut h = Histogram::default();
                let mut exact: Vec<u64> = (0..2_000)
                    .map(|_| {
                        let log10 = (centre + spread * (next() - 0.5)).clamp(3.0, 10.0);
                        10f64.powf(log10) as u64
                    })
                    .collect();
                for &ns in &exact {
                    h.observe(Duration::from_nanos(ns));
                }
                exact.sort_unstable();
                for q in [0.50, 0.95, 0.99] {
                    let rank = (q * exact.len() as f64).ceil() as usize;
                    let truth = exact[rank - 1];
                    let got = h.quantile_ns(q);
                    let err = (got as f64 - truth as f64) / truth as f64;
                    assert!(
                        (0.0..=0.125).contains(&err),
                        "q{q} of 10^({centre}±{spread}): {got} vs exact {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_duration_is_counted() {
        let mut h = Histogram::default();
        h.observe(Duration::from_nanos(0));
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile_ns(0.5), 0);
    }

    #[test]
    fn counters_accumulate() {
        let m = RuntimeMetrics::new();
        m.record_jobs_submitted(3);
        m.record_job_completed(Duration::from_micros(5));
        m.record_tiles(4, 1000);
        m.record_energy_j(2.5e-12);
        m.observe_queue_depth(7);
        m.observe_queue_depth(3);
        let s = m.snapshot();
        assert_eq!(s.jobs_submitted, 3);
        assert_eq!(s.jobs_completed, 1);
        assert_eq!(s.tiles_executed, 4);
        assert_eq!(s.macs_executed, 1000);
        assert_eq!(s.queue_depth_hwm, 7);
        assert!((s.analog_energy_j - 2.5e-12).abs() < 1e-18);
        assert!(s.tiles_per_s > 0.0);
    }

    #[test]
    fn layer_records_merge_by_name() {
        let m = RuntimeMetrics::new();
        m.record_layer("conv1", Duration::from_micros(10), 4, 100);
        m.record_layer("conv1", Duration::from_micros(10), 4, 100);
        m.record_layer("fc", Duration::from_micros(1), 1, 10);
        let s = m.snapshot();
        assert_eq!(s.layers.len(), 2);
        assert_eq!(s.layers[0].name, "conv1");
        assert_eq!(s.layers[0].calls, 2);
        assert_eq!(s.layers[0].tiles, 8);
        assert_eq!(s.layers[1].macs, 10);
    }

    #[test]
    fn rejection_reason_counters_accumulate_and_round_trip() {
        let m = RuntimeMetrics::new();
        m.record_request_accepted();
        m.record_request_accepted();
        m.record_queue_rejection(); // counts into rejections.queue_full too
        m.record_rejection(RejectReason::DeadlineExpired);
        m.record_rejection(RejectReason::DeadlineExpired);
        m.record_rejection(RejectReason::Malformed);
        let s = m.snapshot();
        assert_eq!(s.requests_accepted, 2);
        assert_eq!(s.queue_rejections, 1);
        m.record_rejection(RejectReason::Shed);
        assert_eq!(
            s.rejections,
            RejectionSnapshot {
                queue_full: 1,
                deadline_expired: 2,
                malformed: 1,
                shed: 0,
                energy_budget: 0,
            }
        );
        assert_eq!(s.rejections.total(), 4);
        let s2 = m.snapshot();
        assert_eq!(s2.rejections.shed, 1);
        assert_eq!(s2.rejections.total(), 5);

        let json = s.to_json();
        for key in ["queue_full", "deadline_expired", "malformed"] {
            assert!(json.contains(key), "`{key}` missing from {json}");
        }
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.rejections, s.rejections);
        assert_eq!(back.requests_accepted, s.requests_accepted);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let m = RuntimeMetrics::new();
        m.record_jobs_submitted(2);
        m.record_job_completed(Duration::from_nanos(300));
        m.record_layer("fc", Duration::from_nanos(500), 1, 64);
        let s = m.snapshot();
        let json = s.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parses");
        assert_eq!(back.jobs_submitted, s.jobs_submitted);
        assert_eq!(back.job_latency, s.job_latency);
        assert_eq!(back.layers, s.layers);
    }
}
