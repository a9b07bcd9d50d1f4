//! The multiplexed client: drive many independent sessions — distinct
//! configs, backends, and modes — over **one** worker connection.
//!
//! Where [`crate::run_supervised`] answers one logical window by
//! dealing it across many worker connections, this module is the
//! transpose: one worker process hosts many whole windows, each an
//! independent [`SessionSpec`] with its own stream, all on one
//! `Link`. The dealer interleaves the sessions' frames round-robin
//! (one unit — a batch, boundary, or close — per session per round) so
//! no stream monopolizes the socket; the collector demultiplexes the
//! responses by session and merges each summary inline, as it arrives.
//!
//! ## Per-session recovery
//!
//! [`run_sessions_supervised`] keeps every dealt frame in its session's
//! replay ring, pruned at each acknowledged boundary, and each session
//! keeps its own [`MAX_RING_BOUNDARIES`](crate::MAX_RING_BOUNDARIES)
//! run-ahead budget. When the worker process dies, the collector's one
//! recovery reopens **only the sessions that had not finished**, each
//! restored to *its own* acknowledged boundary and replayed from its
//! own ring; sessions whose close was already acknowledged stay
//! closed. Because recovery is replay-based it requires every session
//! to be in shard mode: a remote full operator's state cannot be
//! rebuilt, so a supervised run with an operator session is rejected up
//! front. An operator session runs unsupervised, or detection-only
//! under a policy with `max_restarts: 0`: its heartbeat and write
//! deadline turn a dead or hung worker into an error instead of a hang.

use crate::collector::Collector;
use crate::coordinator::{join_io, RecoveryPolicy, WorkerStats};
use crate::link::Link;
use crate::net::Conn;
use crate::proto::{bad, Frame, WorkerMode};
use qlove_core::{Qlove, QloveAnswer, QloveConfig};
use qlove_stream::parallel::BATCH;
use qlove_telemetry::EventJournal;
use std::io;
use std::thread;

/// One session to run on the shared connection.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The session's operator configuration (window schedule, backend,
    /// quantization — fully independent of its neighbors).
    pub config: QloveConfig,
    /// Shard (coordinator-side merge, recoverable) or operator (remote
    /// full window, answers streamed back).
    pub mode: WorkerMode,
    /// The session's whole input stream.
    pub values: Vec<u64>,
}

/// What one session produced.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The mode the session ran in.
    pub mode: WorkerMode,
    /// The session's window evaluations, bit-identical to a sequential
    /// single-instance run over the same values.
    pub answers: Vec<QloveAnswer>,
    /// Elements of a trailing partial sub-window left pending in the
    /// client-side merge operator (shard mode; always 0 for operator
    /// mode, where the remote operator holds the pending state).
    pub pending: usize,
    /// Boundary summaries merged (shard mode; 0 for operator mode).
    pub boundaries: u64,
}

/// Result of a supervised multi-session run.
#[derive(Debug)]
pub struct SessionsRun {
    /// Per-session outcomes, in `specs` order.
    pub outcomes: Vec<SessionOutcome>,
    /// The run's structured event journal: one `Failure` record per
    /// worker failure (domain 0, the connection) and one `Recovery`
    /// record per session it restored (domain = session index).
    pub journal: EventJournal,
    /// Worker-side counters scraped over the wire just before each
    /// session closed, in `specs` order (all-zero when the worker died
    /// before answering a session's scrape).
    pub worker_stats: Vec<WorkerStats>,
}

/// The dealer's per-session position: what to send next. Units come
/// out as batches (never straddling a sub-window boundary in shard
/// mode), then the sub-window's `Boundary`, then — once the stream is
/// exhausted — a single `CloseSession`.
struct DealCursor<'a> {
    session: u64,
    values: &'a [u64],
    period: usize,
    mode: WorkerMode,
    pos: usize,
    sent_boundaries: u64,
    stats_sent: bool,
    close_sent: bool,
}

impl<'a> DealCursor<'a> {
    fn new(session: u64, spec: &'a SessionSpec) -> Self {
        Self {
            session,
            values: &spec.values,
            period: spec.config.period,
            mode: spec.mode,
            pos: 0,
            sent_boundaries: 0,
            stats_sent: false,
            close_sent: false,
        }
    }

    fn done(&self) -> bool {
        self.close_sent
    }

    /// Sub-windows fully dealt so far (the trailing partial counts once
    /// the stream is exhausted — it is shipped and merged, not
    /// dropped).
    fn dealt_windows(&self) -> u64 {
        if self.mode != WorkerMode::Shard {
            return 0;
        }
        if self.pos == self.values.len() {
            self.values.len().div_ceil(self.period) as u64
        } else {
            (self.pos / self.period) as u64
        }
    }

    /// Whether the next unit is a `Boundary` — the only unit subject to
    /// ring backpressure.
    fn boundary_due(&self) -> bool {
        self.sent_boundaries < self.dealt_windows()
    }

    /// Produce the next unit. Must not be called when [`Self::done`].
    fn next_unit(&mut self) -> Frame {
        if self.boundary_due() {
            let boundary = self.sent_boundaries;
            self.sent_boundaries += 1;
            return Frame::Boundary {
                session: self.session,
                boundary,
            };
        }
        let len = self.values.len();
        if self.pos < len {
            let end = match self.mode {
                WorkerMode::Shard => {
                    let window_end = (self.pos / self.period + 1) * self.period;
                    len.min(window_end).min(self.pos + BATCH)
                }
                WorkerMode::Operator => len.min(self.pos + BATCH),
            };
            let values = self.values[self.pos..end].to_vec();
            self.pos = end;
            return Frame::EventBatch {
                session: self.session,
                values,
            };
        }
        // Scrape the session's worker-side counters while it is still
        // live — a closed session is gone from the worker and would
        // only answer zeros. The request rides the replay ring
        // like any other dealt frame, so a recovering worker re-answers
        // it and the collector keeps the latest report.
        if !self.stats_sent {
            self.stats_sent = true;
            return Frame::StatsRequest {
                session: self.session,
            };
        }
        self.close_sent = true;
        Frame::CloseSession {
            session: self.session,
        }
    }
}

/// Run every `spec` to completion over the single established
/// connection `conn`, with no supervision: any worker failure ends the
/// run with an error. Sessions may freely mix shard/operator modes and
/// tree/dense backends.
///
/// Each outcome's answers are **bit-identical** to a sequential
/// single-instance run of the same config over the same values (locked
/// by the multi-session transport differential).
///
/// # Panics
/// Panics when `specs` is empty (same contract as the distributed
/// runtimes).
pub fn run_sessions(conn: Conn, specs: &[SessionSpec]) -> io::Result<Vec<SessionOutcome>> {
    let run = drive_sessions(conn, specs, &RecoveryPolicy::disabled(), |_| {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "no respawn hook: supervision disabled",
        ))
    })?;
    Ok(run.outcomes)
}

/// [`run_sessions`] with whole-process recovery: when the worker dies,
/// `respawn()` produces a replacement connection and **each unfinished
/// session is individually restored** to its own acknowledged boundary
/// and replayed from its own ring — already-closed sessions are left
/// alone. Requires every spec to be in shard mode ([`WorkerMode::
/// Shard`]): operator sessions hold remote-only state that replay
/// cannot rebuild, so supervising them is rejected with
/// `InvalidInput`. Under a policy with `max_restarts: 0` nothing is
/// supervised, so operator sessions run detection-only: `respawn` is
/// never called, and a failed worker ends the run with an error.
pub fn run_sessions_supervised<F>(
    conn: Conn,
    specs: &[SessionSpec],
    policy: &RecoveryPolicy,
    mut respawn: F,
) -> io::Result<SessionsRun>
where
    F: FnMut() -> io::Result<Conn>,
{
    if policy.enabled() {
        if let Some(s) = specs.iter().position(|s| s.mode != WorkerMode::Shard) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "session {s} is operator-mode: replay recovery requires shard sessions \
                     (operator state cannot be rebuilt)"
                ),
            ));
        }
    }
    drive_sessions(conn, specs, policy, |_| respawn())
}

/// Deal every session's stream, round-robin (one unit per live session
/// per round), then the connection `Shutdown`. A session whose ring is
/// at its boundary budget sits the round out; when every live session
/// is blocked the dealer waits for an acknowledgement.
fn deal_all(link: &Link<Conn>, specs: &[SessionSpec]) -> io::Result<()> {
    let mut cursors: Vec<DealCursor> = specs
        .iter()
        .enumerate()
        .map(|(s, spec)| DealCursor::new(s as u64, spec))
        .collect();
    loop {
        let mut progressed = false;
        let mut blocked = Vec::new();
        for cursor in cursors.iter_mut().filter(|c| !c.done()) {
            if cursor.boundary_due() && !link.has_room(cursor.session) {
                blocked.push(cursor.session);
                continue;
            }
            link.deal(cursor.session, cursor.next_unit())?;
            progressed = true;
        }
        if progressed {
            continue;
        }
        if blocked.is_empty() {
            return link.shutdown();
        }
        link.await_room(&blocked)?;
    }
}

fn drive_sessions<F>(
    conn: Conn,
    specs: &[SessionSpec],
    policy: &RecoveryPolicy,
    respawn: F,
) -> io::Result<SessionsRun>
where
    F: FnMut(usize) -> io::Result<Conn>,
{
    let n = specs.len();
    assert!(n > 0, "need at least one session");
    let link = Link::new(policy.enabled());
    for (s, spec) in specs.iter().enumerate() {
        assert!(spec.config.period > 0, "need a positive sub-window period");
        link.open(s as u64, spec.config.clone(), spec.mode, 0, 0)?;
    }
    let journal = EventJournal::new();
    let links = std::slice::from_ref(&link);
    let mut collector = Collector::new(policy, links, &journal, &[], n, respawn);
    collector.install(0, conn)?;

    // Client-side merge state per shard session (operator sessions get
    // their answers pre-evaluated by the worker).
    let mut merges: Vec<Option<Qlove>> = specs
        .iter()
        .map(|spec| match spec.mode {
            WorkerMode::Shard => Some(Qlove::new(spec.config.clone())),
            WorkerMode::Operator => None,
        })
        .collect();
    let mut answers: Vec<Vec<QloveAnswer>> = vec![Vec::new(); n];
    let mut merged: Vec<u64> = vec![0; n];
    let mut closed: Vec<bool> = vec![false; n];

    thread::scope(|scope| -> io::Result<()> {
        let dealer = scope.spawn(|| deal_all(&link, specs));
        let mut open = n;
        let collected = loop {
            let frame = match collector.read(0) {
                Ok(frame) => frame,
                Err(e) => break Err(e),
            };
            // The collector has checked that summaries and closes name a
            // session on the link, in order, and not twice.
            match frame {
                Frame::BoundarySummary {
                    session,
                    boundary,
                    epoch: 0,
                    summary,
                } => {
                    let s = session as usize;
                    let Some(merge) = merges[s].as_mut() else {
                        break Err(bad(format!(
                            "session {s}: boundary summary from an operator session"
                        )));
                    };
                    let len = specs[s].values.len();
                    let period = specs[s].config.period;
                    let expected = (len - (boundary as usize) * period).min(period) as u64;
                    if summary.total() != expected {
                        break Err(bad(format!(
                            "session {s} boundary {boundary}: summary covers {} elements, \
                             dealt {expected}",
                            summary.total()
                        )));
                    }
                    if let Some(answer) = merge.merge(&summary) {
                        answers[s].push(answer);
                    }
                    merged[s] += 1;
                }
                Frame::Answer {
                    session,
                    boundary,
                    answer,
                } => {
                    let s = match usize::try_from(session) {
                        Ok(s) if s < n && merges[s].is_none() && !closed[s] => s,
                        _ => break Err(bad(format!("answer frame for session {session}"))),
                    };
                    if boundary != answers[s].len() as u64 {
                        break Err(bad(format!(
                            "session {s}: answer {boundary} out of order (expected {})",
                            answers[s].len()
                        )));
                    }
                    answers[s].push(answer);
                }
                Frame::CloseSession { session } => {
                    closed[session as usize] = true;
                    open -= 1;
                }
                Frame::Shutdown if open == 0 => break Ok(()),
                Frame::Shutdown => {
                    break Err(bad(format!("shutdown ack with {open} sessions still open")))
                }
                other => break Err(bad(format!("unexpected frame {other:?}"))),
            }
        };
        if collected.is_err() {
            collector.fail_all();
        }
        let dealt = join_io(dealer, "dealer");
        collected?;
        dealt
    })?;

    let outcomes = specs
        .iter()
        .zip(answers)
        .zip(merges.iter().zip(merged))
        .map(|((spec, answers), (merge, boundaries))| SessionOutcome {
            mode: spec.mode,
            answers,
            pending: merge.as_ref().map_or(0, Qlove::pending),
            boundaries,
        })
        .collect();
    let worker_stats = collector.worker_stats;
    Ok(SessionsRun {
        outcomes,
        journal,
        worker_stats,
    })
}
