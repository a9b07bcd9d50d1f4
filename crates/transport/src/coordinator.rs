//! The coordinator side of a multi-process distributed run: deal one
//! logical window to worker processes over sockets, collect each
//! boundary's summary group, and merge it through the shared
//! double-buffered pipeline — so merging boundary *b* overlaps the
//! workers ingesting toward boundary *b+1*.
//!
//! Three threads cooperate, connected only by sockets, the `Link`s,
//! and the pipeline channel:
//!
//! ```text
//! dealer ──EventBatch/Boundary──▶ workers ──BoundarySummary──▶ collector
//!    (Link::deal, runs ahead)      (ingest)   (Collector::read)    │
//!                                                         group b  ▼
//!                                               merger ◀── double buffer
//!                                          (Qlove::merge, emits answers)
//! ```
//!
//! Backpressure is physical: the dealer runs ahead of the workers only
//! as far as the socket buffers (and, under supervision, the bounded
//! replay rings) allow, the workers run ahead of the collector only
//! until their write of a summary blocks, and the collector runs ahead
//! of the merger by at most one full boundary group. Memory stays
//! bounded end to end.
//!
//! [`run_over_sockets`], [`run_supervised`] and
//! [`run_resharded`](crate::run_resharded) are one driver with three
//! configurations: no recovery, recovery, and recovery plus a reshard
//! schedule. Without a schedule, element `i` goes to shard `i % shards`
//! exactly as in the in-process executor; with one, values route by the
//! epoch's key-range table. Recovery belongs to the collector: a
//! replacement worker is restored to each
//! session's last acknowledged boundary and fed the unacknowledged ring
//! tail, so merged answers stay **bit-identical** to an undisturbed run.

use crate::collector::Collector;
use crate::link::Link;
use crate::net::Conn;
use crate::proto::{bad, Frame, WorkerMode};
use crate::reshard::{swap, ConnPlan};
use qlove_core::{Qlove, QloveAnswer, QloveConfig};
use qlove_stream::parallel::{ReshardSchedule, ReshardSpec, BATCH};
use qlove_stream::{coordinate_pipelined, PipelineStats};
use qlove_telemetry::metrics::labeled;
use qlove_telemetry::{Counter, EventJournal, Gauge};
use std::fmt;
use std::io;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// When and how hard the coordinator fights to keep a run alive.
///
/// [`RecoveryPolicy::disabled`] (also the `Default`) reproduces the
/// fail-fast behavior of the unsupervised runtime exactly: no socket
/// deadlines, no heartbeats, any worker failure ends the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Per-shard restart budget for the whole run. `0` disables
    /// recovery (failures are terminal, the respawn hook is never
    /// called).
    pub max_restarts: u32,
    /// Pause between consecutive restart attempts of the same shard.
    pub backoff: Duration,
    /// Ceiling for one whole recovery (respawn + handshake + restore +
    /// replay, across attempts). Also used as the socket write deadline
    /// so the dealer can never block forever on a frozen peer.
    pub deadline: Duration,
    /// Collector read deadline. After one silent interval the worker is
    /// probed with a heartbeat; silence through a second interval means
    /// the worker is declared stalled. `None` disables hang detection —
    /// only crashes (EOF/reset) are caught.
    pub heartbeat: Option<Duration>,
    /// Seed for deterministic backoff jitter (`0` disables jitter).
    /// When set, each restart sleeps `backoff` scaled by a factor in
    /// `[0.5, 1.5)` drawn from a [`SeededRng`](crate::chaos::SeededRng)
    /// keyed on `(jitter, shard, attempt)` — so simultaneous
    /// multi-shard failures don't respawn in lockstep, yet every
    /// schedule replays exactly from the seed (no wall-clock entropy).
    pub jitter: u64,
}

impl RecoveryPolicy {
    /// No supervision: identical behavior to the unsupervised runtime.
    pub fn disabled() -> Self {
        Self {
            max_restarts: 0,
            backoff: Duration::ZERO,
            deadline: Duration::ZERO,
            heartbeat: None,
            jitter: 0,
        }
    }

    /// Reasonable production defaults: 3 restarts per shard, 50 ms
    /// jittered backoff, 10 s recovery deadline, 500 ms heartbeat.
    pub fn supervised() -> Self {
        Self {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
            deadline: Duration::from_secs(10),
            heartbeat: Some(Duration::from_millis(500)),
            jitter: 0x5EED_BACC_0FF5,
        }
    }

    /// Whether this policy supervises at all: `false` means failures
    /// abort the run exactly as if no policy were involved.
    pub fn enabled(&self) -> bool {
        self.max_restarts > 0
    }

    /// The pause before restart attempt `attempt` (1-based) of the
    /// failure domain identified by `key` (a shard index, session id —
    /// anything stable). With `jitter == 0` this is exactly `backoff`;
    /// otherwise `backoff` is scaled by a deterministic factor in
    /// `[0.5, 1.5)` drawn from the seed, so concurrent failures of
    /// different keys spread out instead of respawning in lockstep —
    /// and the whole schedule is reproducible (no wall-clock entropy).
    pub fn backoff_for(&self, key: u64, attempt: u32) -> Duration {
        if self.jitter == 0 || self.backoff.is_zero() {
            return self.backoff;
        }
        // One draw per (seed, key, attempt): mix the coordinates into
        // the seed rather than advancing a shared generator, so the
        // schedule doesn't depend on the order failures happen to
        // interleave in.
        let mut rng = crate::chaos::SeededRng::new(
            self.jitter ^ key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt) << 17,
        );
        // factor = 0.5 + (draw / 2^64) ∈ [0.5, 1.5)
        let frac = rng.next_u64() as f64 / (u64::MAX as f64 + 1.0);
        Duration::from_nanos((self.backoff.as_nanos() as f64 * (0.5 + frac)) as u64)
    }

    /// Arm the socket deadlines this policy calls for. Timeouts are a
    /// property of the underlying socket, so one call here covers every
    /// `try_clone` handle (collector reads *and* dealer writes).
    ///
    /// On a multi-session connection the deadlines are necessarily
    /// shared by every session multiplexed over the socket: one slow
    /// session cannot get a private, longer deadline — the probe
    /// machinery tells a slow *worker* from a dead one instead.
    pub(crate) fn arm(&self, conn: &Conn) -> io::Result<()> {
        if let Some(hb) = self.heartbeat {
            conn.set_read_timeout(Some(hb))?;
        }
        if (self.enabled() || self.heartbeat.is_some()) && self.deadline > Duration::ZERO {
            conn.set_write_timeout(Some(self.deadline))?;
        }
        Ok(())
    }
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// The coordinator's dealer thread died by panic; carried inside
/// `io::Error::other` so callers get the payload instead of a
/// coordinator panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportError {
    /// Which thread panicked (`"dealer"`).
    pub thread: &'static str,
    /// The stringified panic payload.
    pub panic: String,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} thread panicked: {}", self.thread, self.panic)
    }
}

impl std::error::Error for TransportError {}

/// Join a pipeline thread, converting a panic into a structured
/// [`TransportError`] instead of re-panicking the coordinator.
pub(crate) fn join_io<T>(
    handle: thread::ScopedJoinHandle<'_, io::Result<T>>,
    thread: &'static str,
) -> io::Result<T> {
    match handle.join() {
        Ok(result) => result,
        Err(payload) => {
            let panic = match payload.downcast::<String>() {
                Ok(s) => *s,
                Err(payload) => match payload.downcast::<&'static str>() {
                    Ok(s) => (*s).to_string(),
                    Err(_) => "opaque panic payload".to_string(),
                },
            };
            Err(io::Error::other(TransportError { thread, panic }))
        }
    }
}

/// Point-in-time worker-side counters scraped over a
/// [`Frame::StatsReport`] (the coordinator requests one per shard just
/// before shutdown). Purely observational: the values never influence
/// routing or merging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Wire session the counters describe.
    pub session: u64,
    /// `EventBatch` frames the worker ingested.
    pub batches: u64,
    /// Telemetry values the worker ingested.
    pub events: u64,
    /// Boundaries the worker completed.
    pub boundaries: u64,
    /// Responses (summaries or answers) the worker shipped.
    pub responses: u64,
}

/// Per-shard coordinator metric handles, resolved once per run from
/// the global registry (labeled by shard index) so the hot loops pay
/// one atomic RMW per update, never a registry lookup.
pub(crate) struct ShardMetrics {
    /// `qlove_events_routed_total{shard=..}` — values dealt to the
    /// shard by the dealer.
    pub routed: Arc<Counter>,
    /// `qlove_summary_bytes_total{shard=..}` — wire bytes of the
    /// summary-bearing frames collected from the shard.
    pub summary_bytes: Arc<Counter>,
    /// `qlove_subwindow_events{shard=..}` — elements in the shard's
    /// most recent sub-window summary (the per-shard load signal the
    /// reshard policy loop reads).
    pub subwindow: Arc<Gauge>,
}

impl ShardMetrics {
    pub(crate) fn for_shard(shard: usize) -> Self {
        let registry = qlove_telemetry::global_metrics();
        let label = [("shard", shard.to_string())];
        let labels: Vec<(&str, &str)> = label.iter().map(|(k, v)| (*k, v.as_str())).collect();
        Self {
            routed: registry.counter(&labeled("qlove_events_routed_total", &labels)),
            summary_bytes: registry.counter(&labeled("qlove_summary_bytes_total", &labels)),
            subwindow: registry.gauge(&labeled("qlove_subwindow_events", &labels)),
        }
    }
}

/// Result of a socket-distributed run.
#[derive(Debug)]
pub struct DistributedRun {
    /// The merged window evaluations, bit-identical to a
    /// single-instance run over the undealt stream.
    pub answers: Vec<QloveAnswer>,
    /// Pipeline timing: how much merge time was hidden behind worker
    /// ingest.
    pub stats: PipelineStats,
    /// The run's structured event journal on one monotonic clock:
    /// [`EventKind::Failure`](qlove_telemetry::EventKind::Failure)
    /// records (domain = connection index) with one
    /// [`EventKind::Recovery`](qlove_telemetry::EventKind::Recovery)
    /// record per restored session (domain = session id, the shard
    /// index without a reshard schedule), plus the `Reshard` and
    /// `Pause` records of a resharded run.
    pub journal: EventJournal,
    /// Worker-side counters scraped over the wire at shutdown, one per
    /// shard slot (all-zero when a worker died before answering its
    /// scrape).
    pub worker_stats: Vec<WorkerStats>,
}

pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Answer **one logical window** from worker processes reached over
/// `conns` (one connection per shard, TCP or Unix-domain), with no
/// supervision: any worker failure ends the run with an error.
///
/// Equivalent to [`run_supervised`] under [`RecoveryPolicy::disabled`];
/// see there for the full contract.
pub fn run_over_sockets(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
) -> io::Result<DistributedRun> {
    run_supervised(
        config,
        coordinator,
        conns,
        values,
        &RecoveryPolicy::disabled(),
        |shard| {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("no respawn hook for shard {shard}: supervision disabled"),
            ))
        },
    )
}

/// Answer **one logical window** from worker processes reached over
/// `conns` (one connection per shard, TCP or Unix-domain), restarting
/// failed workers according to `policy`.
///
/// Dealing replicates the in-process executor exactly — element `i` of
/// the logical stream goes to shard `i % shards`, batches never
/// straddle a sub-window boundary — so the merged answers (and the
/// coordinator's trailing partial sub-window) are **bit-identical** to
/// a single-instance run and to the thread-backend `run_distributed`.
/// A trailing partial sub-window is shipped and merged too, leaving it
/// pending in `coordinator` rather than dropped.
///
/// When a worker crashes or stalls mid-run, `respawn(shard)` is called
/// to produce a replacement connection (typically: spawn a process,
/// `Conn::connect_retry` to it); the replacement is restored to the
/// shard's last acknowledged boundary and fed the unacknowledged frame
/// tail from the replay ring, preserving bit-identity through the
/// failure. Each failure and recovery is recorded in
/// [`DistributedRun::journal`]. When the policy's restart budget or
/// deadline is exhausted, the run fails with the underlying error.
///
/// Sequence violations from a worker (out-of-order boundaries, totals
/// that do not add up to the dealt elements, malformed frames) are not
/// recoverable — they surface as errors and all connections are shut
/// down so no thread is left blocked.
///
/// # Panics
/// Panics when `conns` is empty or `config.period` is 0 (the same
/// contract as `run_distributed`).
pub fn run_supervised<F>(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
    policy: &RecoveryPolicy,
    respawn: F,
) -> io::Result<DistributedRun>
where
    F: FnMut(usize) -> io::Result<Conn>,
{
    let span = conns.len() as u64;
    run_window(
        config,
        coordinator,
        conns,
        values,
        span,
        &[],
        policy,
        respawn,
    )
}

/// The one window driver behind [`run_supervised`] and
/// [`run_resharded`](crate::run_resharded). `specs` empty means no
/// reshard: one session per connection and round-robin routing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_window<F>(
    config: &QloveConfig,
    coordinator: &mut Qlove,
    conns: Vec<Conn>,
    values: &[u64],
    span: u64,
    specs: &[ReshardSpec],
    policy: &RecoveryPolicy,
    connect: F,
) -> io::Result<DistributedRun>
where
    F: FnMut(usize) -> io::Result<Conn>,
{
    let shards = conns.len();
    assert!(shards > 0, "need at least one shard");
    let period = config.period;
    assert!(period > 0, "need a positive sub-window period");
    let boundaries = values.len().div_ceil(period);
    let schedule = ReshardSchedule::build(shards, span, specs)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let plan = ConnPlan::build(&schedule, shards);

    // One link per connection the schedule will ever use; those beyond
    // the initial fleet stay down until the collector first reads them.
    let links: Vec<Link<Conn>> = (0..plan.conns())
        .map(|_| Link::new(policy.enabled()))
        .collect();
    for (slot, link) in links.iter().enumerate().take(shards) {
        link.open(slot as u64, config.clone(), WorkerMode::Shard, 0, 0)?;
    }
    // Observational only, never on the answer path: one journal per run
    // and per-slot metric handles in the process-global registry.
    let journal = EventJournal::new();
    let metrics: Vec<ShardMetrics> = (0..schedule.slot_count())
        .map(ShardMetrics::for_shard)
        .collect();
    let mut collector = Collector::new(
        policy,
        &links,
        &journal,
        &metrics,
        schedule.slot_count(),
        connect,
    );
    for (c, conn) in conns.into_iter().enumerate() {
        collector.install(c, conn)?;
    }
    // Connections that carry traffic: the initial fleet plus those
    // opened by swaps that execute before the stream ends.
    let opened = |c: usize| plan.opened_at[c] < boundaries.max(1) as u64;

    let (answers, stats) = thread::scope(|scope| -> io::Result<_> {
        let (schedule, plan, links, metrics, journal) =
            (&schedule, &plan, &links, &metrics, &journal);
        let dealer = scope.spawn(move || -> io::Result<()> {
            let mut batcher = Batcher {
                bufs: vec![Vec::new(); schedule.slot_count()],
                cap: BATCH.min(period),
                links,
                conn_of: &plan.conn_of,
                metrics,
            };
            let mut epoch = 0;
            for (b, chunk) in values.chunks(period).enumerate() {
                while epoch < schedule.epoch_at(b as u64) {
                    epoch += 1;
                    swap(epoch, schedule, plan, links, config, journal)?;
                }
                let table = schedule.table(epoch);
                if specs.is_empty() {
                    let start = b * period;
                    for (i, &v) in chunk.iter().enumerate() {
                        batcher.put((start + i) % shards, v)?;
                    }
                } else {
                    for &v in chunk {
                        batcher.put(table.route(v), v)?;
                    }
                }
                for &(_, slot) in table.bounds() {
                    batcher.flush(slot)?;
                    let boundary = b as u64;
                    batcher.deal(slot, |session| Frame::Boundary { session, boundary })?;
                }
            }
            // Scrape worker counters before shutdown: the request rides
            // the replay ring like any dealt frame, so a recovering
            // worker re-answers it.
            for &(_, slot) in schedule.table(epoch).bounds() {
                batcher.deal(slot, |session| Frame::StatsRequest { session })?;
            }
            for (c, link) in links.iter().enumerate() {
                let retired = plan.retired_at[c].is_some_and(|rb| rb < boundaries as u64);
                if opened(c) && !retired {
                    link.shutdown()?;
                }
            }
            Ok(())
        });

        // Collector + double-buffered merger: group membership and the
        // expected epoch stamp are functions of the boundary.
        let collect = |b: usize, group: &mut Vec<_>| -> io::Result<()> {
            let epoch = schedule.epoch_at(b as u64);
            // The group must stand for exactly the elements dealt into
            // this boundary — anything else would poison the merge. A
            // worker reports its own totals, so no single one may exceed
            // the dealt count and their sum must not wrap.
            let expected = (values.len() - b * period).min(period) as u64;
            let mut total = 0u64;
            for &(_, slot) in schedule.table(epoch).bounds() {
                let summary =
                    collector.summary(plan.conn_of[slot], slot as u64, b as u64, epoch)?;
                let covered = summary.total();
                total = total
                    .checked_add(covered)
                    .filter(|_| covered <= expected)
                    .ok_or_else(|| {
                        bad(format!(
                            "boundary {b}: slot {slot} summary covers {covered} elements, \
                             dealt {expected}"
                        ))
                    })?;
                group.push(summary);
            }
            if total != expected {
                return Err(bad(format!(
                    "boundary {b}: summaries cover {total} elements, dealt {expected}"
                )));
            }
            Ok(())
        };
        let merged = coordinate_pipelined(coordinator, boundaries, collect);
        // Confirm every connection acknowledged shutdown before
        // declaring the run clean (workers exit right after).
        let finished = merged.and_then(|ok| {
            for c in (0..plan.conns()).filter(|&c| opened(c)) {
                collector.expect_shutdown(c)?;
            }
            Ok(ok)
        });
        if finished.is_err() {
            // Unblock the dealer (and any wedged worker) before joining.
            collector.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        let out = finished?;
        dealt?;
        Ok(out)
    })?;
    let worker_stats = collector.worker_stats;
    Ok(DistributedRun {
        answers,
        stats,
        journal,
        worker_stats,
    })
}

/// The window dealer's per-slot batch buffers: a batch never straddles
/// a sub-window boundary and holds at most [`BATCH`] values.
struct Batcher<'a> {
    bufs: Vec<Vec<u64>>,
    cap: usize,
    links: &'a [Link<Conn>],
    conn_of: &'a [usize],
    metrics: &'a [ShardMetrics],
}

impl Batcher<'_> {
    #[inline]
    fn put(&mut self, slot: usize, v: u64) -> io::Result<()> {
        self.bufs[slot].push(v);
        if self.bufs[slot].len() == BATCH {
            self.flush(slot)?;
        }
        Ok(())
    }

    fn flush(&mut self, slot: usize) -> io::Result<()> {
        if self.bufs[slot].is_empty() {
            return Ok(());
        }
        let values = std::mem::replace(&mut self.bufs[slot], Vec::with_capacity(self.cap));
        self.metrics[slot].routed.add(values.len() as u64);
        self.deal(slot, |session| Frame::EventBatch { session, values })
    }

    fn deal(&self, slot: usize, frame: impl FnOnce(u64) -> Frame) -> io::Result<()> {
        let session = slot as u64;
        self.links[self.conn_of[slot]].deal(session, frame(session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_io_structures_panic_payloads() {
        // String payloads (the common `panic!("{x}")` case), &'static
        // str payloads, and anything else must all surface as a
        // TransportError naming the thread -- never re-panic.
        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { panic!("{}", "formatted failure") });
            join_io(h, "dealer").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.thread, "dealer");
        assert_eq!(te.panic, "formatted failure");
        assert_eq!(te.to_string(), "dealer thread panicked: formatted failure");

        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { panic!("static failure") });
            join_io(h, "dealer").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.thread, "dealer");
        assert_eq!(te.panic, "static failure");

        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<()> { std::panic::panic_any(42u32) });
            join_io(h, "dealer").unwrap_err()
        });
        let te = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("structured TransportError");
        assert_eq!(te.panic, "opaque panic payload");
    }

    #[test]
    fn join_io_passes_results_through() {
        let ok = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<u64> { Ok(7) });
            join_io(h, "dealer")
        });
        assert_eq!(ok.unwrap(), 7);
        let err = thread::scope(|scope| {
            let h = scope.spawn(|| -> io::Result<u64> { Err(io::Error::other("boom")) });
            join_io(h, "dealer").unwrap_err()
        });
        assert_eq!(err.to_string(), "boom");
    }

    #[test]
    fn disabled_policy_is_the_default_and_inert() {
        let policy = RecoveryPolicy::default();
        assert_eq!(policy.max_restarts, 0);
        assert_eq!(policy.heartbeat, None);
        assert!(!policy.enabled());
        assert!(RecoveryPolicy::supervised().enabled());
    }

    #[test]
    fn backoff_jitter_is_deterministic_bounded_and_spreads_shards() {
        let base = Duration::from_millis(50);

        // jitter == 0: the schedule is exactly the flat backoff.
        let mut flat = RecoveryPolicy::supervised();
        flat.backoff = base;
        flat.jitter = 0;
        for key in 0..4 {
            for attempt in 1..4 {
                assert_eq!(flat.backoff_for(key, attempt), base);
            }
        }

        let mut jittered = RecoveryPolicy::supervised();
        jittered.backoff = base;
        jittered.jitter = 0xDEAD_BEEF;

        // Deterministic: the same (seed, key, attempt) always yields
        // the same pause — a failing schedule replays from its seed.
        let replay = RecoveryPolicy {
            jitter: 0xDEAD_BEEF,
            ..jittered
        };
        let schedule: Vec<Duration> = (0u64..8)
            .flat_map(|key| (1u32..4).map(move |attempt| (key, attempt)))
            .map(|(key, attempt)| jittered.backoff_for(key, attempt))
            .collect();
        let again: Vec<Duration> = (0u64..8)
            .flat_map(|key| (1u32..4).map(move |attempt| (key, attempt)))
            .map(|(key, attempt)| replay.backoff_for(key, attempt))
            .collect();
        assert_eq!(schedule, again);

        // Bounded: every pause lands in [0.5, 1.5) × backoff.
        for (i, d) in schedule.iter().enumerate() {
            assert!(*d >= base / 2 && *d < base * 3 / 2, "entry {i}: {d:?}");
        }

        // Spread: simultaneous failures of distinct shards must not
        // respawn in lockstep — first-attempt pauses all differ.
        let first: Vec<Duration> = (0u64..8).map(|key| jittered.backoff_for(key, 1)).collect();
        let mut unique = first.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), first.len(), "lockstep respawn: {first:?}");

        // Attempts of the same shard also vary (no fixed per-shard
        // offset that merely shifts the lockstep).
        assert_ne!(jittered.backoff_for(3, 1), jittered.backoff_for(3, 2));

        // A different seed is a different schedule.
        let mut other = jittered;
        other.jitter = 0xFEED_FACE;
        assert_ne!(
            (0u64..8)
                .map(|k| other.backoff_for(k, 1))
                .collect::<Vec<_>>(),
            first
        );

        // Zero backoff stays zero regardless of jitter.
        let mut zero = jittered;
        zero.backoff = Duration::ZERO;
        assert_eq!(zero.backoff_for(0, 1), Duration::ZERO);
    }
}
