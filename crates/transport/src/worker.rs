//! The worker runtime: one process (or thread) serving **many
//! independent sessions** over one connection.
//!
//! A worker binds an endpoint, accepts a coordinator connection, and
//! then serves every session the coordinator opens on it — each with
//! its own `OpenSession` config, backend, and mode, multiplexed by the
//! varint session ID every post-handshake frame carries:
//!
//! * **Shard mode** — wraps a [`QloveShard`] (Level-1 accumulation
//!   only). `EventBatch` frames are ingested through the batched path;
//!   every `Boundary` frame snapshots the partial sub-window and ships
//!   it back as a `BoundarySummary` QLVS frame.
//! * **Operator mode** — wraps a full [`Qlove`] operator. `EventBatch`
//!   frames stream through `push_batch_into`; every produced evaluation
//!   is shipped back as an `Answer` frame, bit-identical to a local
//!   run.
//!
//! ## Arrival order
//!
//! Every frame is handled as it arrives, in one in-order path: an
//! `EventBatch` is ingested on receipt, a `Boundary` ships its summary
//! at once. A shard's state is an order-insensitive frequency multiset,
//! so holding a batch back would buy nothing. Fairness between the
//! sessions on a connection is the dealer's round-robin plus each
//! session's ring budget
//! ([`MAX_RING_BOUNDARIES`](crate::MAX_RING_BOUNDARIES)); backpressure
//! is the socket itself, since a worker that falls behind simply reads
//! later.
//!
//! A session ends with a `CloseSession` exchange (its ID may then be
//! opened again); the connection ends with a `Shutdown` exchange. A
//! coordinator that simply disappears (crash, kill) surfaces as an I/O
//! error and the worker still returns promptly — a worker process
//! outlives any one *session*, but never its *connection*, which is
//! what keeps CI free of leaked processes.
//!
//! Protocol violations (frames out of order, unknown session IDs,
//! wrong role, version skew, malformed payloads) are `InvalidData`
//! errors, never panics.

use crate::net::{Conn, Endpoint, Listener};
use crate::proto::{Frame, FrameReader, FrameWriter, Role, WorkerMode, PROTOCOL_VERSION};
use qlove_core::{Qlove, QloveAnswer, QloveConfig, QloveShard};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{self, BufReader};

/// What one completed session looked like, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionReport {
    /// The session's wire ID.
    pub session: u64,
    /// Mode the coordinator asked for.
    pub mode: WorkerMode,
    /// Responses actually shipped **by this worker**: boundary
    /// summaries (shard mode) or answers (operator mode). A restored
    /// session counts only what it shipped after the restore, not the
    /// absolute boundary index it resumed from.
    pub responses: u64,
    /// Telemetry values ingested.
    pub events: u64,
    /// `EventBatch` frames ingested.
    pub batches: u64,
    /// When the session was opened, in microseconds on the shared
    /// monotonic telemetry clock ([`qlove_telemetry::now_us`]) — never
    /// wall time, so reports from different threads order consistently.
    pub opened_us: u64,
    /// When this report was cut (session close or connection
    /// shutdown), on the same clock.
    pub closed_us: u64,
}

/// What a completed connection looked like: one report per session, in
/// the order the sessions finished (explicit `CloseSession` first, then
/// any still open at `Shutdown`, in session-ID order).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Per-session accounting.
    pub sessions: Vec<SessionReport>,
}

impl ServeReport {
    /// Sessions served on this connection.
    pub fn sessions_served(&self) -> usize {
        self.sessions.len()
    }

    /// Total responses shipped across all sessions.
    pub fn responses(&self) -> u64 {
        self.sessions.iter().map(|s| s.responses).sum()
    }

    /// Total values ingested across all sessions.
    pub fn events(&self) -> u64 {
        self.sessions.iter().map(|s| s.events).sum()
    }
}

fn protocol(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The mode-specific half of a session's state.
enum SessionCore {
    Shard {
        shard: QloveShard,
        /// Next boundary index expected from the coordinator (absolute:
        /// a `Restore` fast-forwards it).
        boundaries: u64,
        /// `BoundarySummary` frames actually shipped by this worker —
        /// the number reported, deliberately distinct from
        /// `boundaries` so a restored session does not claim summaries
        /// a previous incarnation shipped.
        shipped: u64,
        /// A `Restore` is legal only before any stream traffic:
        /// recovery sends it immediately after `OpenSession`, and
        /// accepting one mid-stream would let a buggy coordinator
        /// corrupt shard state.
        virgin: bool,
        /// Reshard epoch stamped on every summary this session ships;
        /// 0 until a `Reshard` frame raises it (i.e. always 0 outside
        /// resharded runs).
        epoch: u64,
    },
    Operator {
        op: Box<Qlove>,
        produced: u64,
        scratch: Vec<QloveAnswer>,
    },
}

/// One live session: its operator state and its counters.
struct Session {
    id: u64,
    core: SessionCore,
    events: u64,
    /// `EventBatch` frames ingested (the scrapeable twin of `events`).
    batches: u64,
    /// Open timestamp on the shared monotonic telemetry clock.
    opened_us: u64,
}

impl Session {
    fn new(id: u64, config: &QloveConfig, mode: WorkerMode) -> Self {
        let core = match mode {
            WorkerMode::Shard => SessionCore::Shard {
                shard: QloveShard::new(config),
                boundaries: 0,
                shipped: 0,
                virgin: true,
                epoch: 0,
            },
            WorkerMode::Operator => SessionCore::Operator {
                op: Box::new(Qlove::new(config.clone())),
                produced: 0,
                scratch: Vec::new(),
            },
        };
        Self {
            id,
            core,
            events: 0,
            batches: 0,
            opened_us: qlove_telemetry::now_us(),
        }
    }

    fn mode(&self) -> WorkerMode {
        match self.core {
            SessionCore::Shard { .. } => WorkerMode::Shard,
            SessionCore::Operator { .. } => WorkerMode::Operator,
        }
    }

    /// Ingest one dealt batch, shipping any answers it produces
    /// (operator mode).
    fn ingest<W: io::Write>(
        &mut self,
        values: &[u64],
        writer: &mut FrameWriter<W>,
    ) -> io::Result<()> {
        self.events += values.len() as u64;
        self.batches += 1;
        match &mut self.core {
            SessionCore::Shard { shard, virgin, .. } => {
                *virgin = false;
                shard.push_batch(values);
            }
            SessionCore::Operator {
                op,
                produced,
                scratch,
            } => {
                scratch.clear();
                op.push_batch_into(values, scratch);
                for answer in scratch.iter() {
                    writer.write_frame(&Frame::Answer {
                        session: self.id,
                        boundary: *produced,
                        answer: answer.clone(),
                    })?;
                    *produced += 1;
                }
                if !scratch.is_empty() {
                    writer.flush()?;
                }
            }
        }
        Ok(())
    }

    fn report(&self) -> SessionReport {
        let responses = match &self.core {
            SessionCore::Shard { shipped, .. } => *shipped,
            SessionCore::Operator { produced, .. } => *produced,
        };
        SessionReport {
            session: self.id,
            mode: self.mode(),
            responses,
            events: self.events,
            batches: self.batches,
            opened_us: self.opened_us,
            closed_us: qlove_telemetry::now_us(),
        }
    }

    /// Point-in-time counters for a [`Frame::StatsRequest`] scrape.
    fn stats_frame(&self) -> Frame {
        let (boundaries, responses) = match &self.core {
            SessionCore::Shard {
                boundaries,
                shipped,
                ..
            } => (*boundaries, *shipped),
            SessionCore::Operator { produced, .. } => (*produced, *produced),
        };
        Frame::StatsReport {
            session: self.id,
            batches: self.batches,
            events: self.events,
            boundaries,
            responses,
        }
    }
}

/// The live session `id`, or `InvalidData` naming the frame (`what`)
/// that referred to an unknown one.
fn live<'a>(
    sessions: &'a mut BTreeMap<u64, Session>,
    id: u64,
    what: &str,
) -> io::Result<&'a mut Session> {
    sessions
        .get_mut(&id)
        .ok_or_else(|| protocol(format!("{what} for unknown session {id}")))
}

/// Serve one full connection — every session the coordinator opens on
/// it — until the coordinator shuts the connection down (or errors
/// out).
pub fn serve_stream(conn: Conn) -> io::Result<ServeReport> {
    let read_half = conn.try_clone()?;
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(conn);

    // Handshake: coordinator hello in, worker hello out.
    match reader.read_frame()? {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Coordinator,
        } => {}
        Frame::Hello { version, .. } if version != PROTOCOL_VERSION => {
            return Err(protocol(format!(
                "coordinator speaks protocol v{version}, worker speaks v{PROTOCOL_VERSION}"
            )));
        }
        other => {
            return Err(protocol(format!(
                "expected coordinator hello, got {other:?}"
            )))
        }
    }
    writer.write_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        role: Role::Worker,
    })?;
    writer.flush()?;

    let mut sessions: BTreeMap<u64, Session> = BTreeMap::new();
    let mut finished: Vec<SessionReport> = Vec::new();
    loop {
        match reader.read_frame()? {
            Frame::OpenSession {
                session,
                config,
                mode,
            } => {
                let Entry::Vacant(slot) = sessions.entry(session) else {
                    return Err(protocol(format!("session {session} is already open")));
                };
                // The decoder has already validated the config, so
                // constructing the operator cannot panic.
                slot.insert(Session::new(session, &config, mode));
            }
            Frame::EventBatch { session, values } => {
                live(&mut sessions, session, "event batch")?.ingest(&values, &mut writer)?;
            }
            Frame::Boundary { session, boundary } => {
                match &mut live(&mut sessions, session, "boundary")?.core {
                    SessionCore::Shard {
                        shard,
                        boundaries,
                        shipped,
                        virgin,
                        epoch,
                    } => {
                        *virgin = false;
                        if boundary != *boundaries {
                            return Err(protocol(format!(
                                "session {session}: boundary {boundary} out of order \
                                 (expected {boundaries})"
                            )));
                        }
                        writer.write_frame(&Frame::BoundarySummary {
                            session,
                            boundary,
                            epoch: *epoch,
                            summary: shard.take_summary(),
                        })?;
                        writer.flush()?;
                        *boundaries += 1;
                        *shipped += 1;
                    }
                    SessionCore::Operator { .. } => {
                        return Err(protocol(format!(
                            "session {session}: boundary frame in operator mode"
                        )))
                    }
                }
            }
            Frame::Heartbeat { session } => {
                // Echo immediately, even for a session this worker does
                // not know: the probe asks "is your event loop alive",
                // and recovery may probe before reopening sessions.
                writer.write_frame(&Frame::Heartbeat { session })?;
                writer.flush()?;
            }
            Frame::StatsRequest { session } => {
                // Same echo-regardless contract as Heartbeat: a scrape
                // for a session that already closed (or never opened on
                // this incarnation) answers with zero counters instead
                // of erroring, so stats collection can never kill a
                // healthy connection.
                let report = match sessions.get(&session) {
                    Some(s) => s.stats_frame(),
                    None => Frame::StatsReport {
                        session,
                        batches: 0,
                        events: 0,
                        boundaries: 0,
                        responses: 0,
                    },
                };
                writer.write_frame(&report)?;
                writer.flush()?;
            }
            Frame::Restore {
                session,
                boundary,
                checkpoint,
            } => match &mut live(&mut sessions, session, "restore")?.core {
                SessionCore::Shard {
                    shard,
                    boundaries,
                    virgin,
                    ..
                } => {
                    if !*virgin {
                        return Err(protocol(format!(
                            "session {session}: restore to boundary {boundary} \
                                 after session traffic"
                        )));
                    }
                    *virgin = false;
                    *boundaries = boundary;
                    shard.restore(&checkpoint);
                }
                SessionCore::Operator { .. } => {
                    return Err(protocol(format!(
                        "session {session}: restore in operator mode \
                             (operator state is not replayable)"
                    )))
                }
            },
            Frame::CloseSession { session } => {
                let closed = sessions
                    .remove(&session)
                    .ok_or_else(|| protocol(format!("close for unknown session {session}")))?;
                finished.push(closed.report());
                writer.write_frame(&Frame::CloseSession { session })?;
                writer.flush()?;
            }
            Frame::Reshard {
                session,
                boundary,
                epoch,
            } => {
                match &mut live(&mut sessions, session, "reshard")?.core {
                    SessionCore::Shard {
                        boundaries,
                        virgin,
                        epoch: current,
                        ..
                    } => {
                        // The stamp takes effect at the next summary,
                        // so it must sit exactly between two
                        // sub-windows of the session's stream (the
                        // dealer emits it right after a Boundary, and
                        // recovery right after the Restore).
                        if boundary != *boundaries {
                            return Err(protocol(format!(
                                "session {session}: reshard at boundary {boundary} \
                                 out of order (expected {boundaries})"
                            )));
                        }
                        if epoch < *current {
                            return Err(protocol(format!(
                                "session {session}: reshard epoch regressed \
                                 ({epoch} after {current})"
                            )));
                        }
                        *virgin = false;
                        *current = epoch;
                    }
                    SessionCore::Operator { .. } => {
                        return Err(protocol(format!(
                            "session {session}: reshard in operator mode"
                        )))
                    }
                }
            }
            Frame::Shutdown => {
                finished.extend(sessions.values().map(Session::report));
                writer.write_frame(&Frame::Shutdown)?;
                writer.flush()?;
                return Ok(ServeReport { sessions: finished });
            }
            other @ (Frame::Hello { .. }
            | Frame::BoundarySummary { .. }
            | Frame::Answer { .. }
            | Frame::StatsReport { .. }) => {
                return Err(protocol(format!(
                    "unexpected frame from coordinator: {other:?}"
                )))
            }
        }
    }
}

/// A bound worker endpoint, ready to serve connections.
#[derive(Debug)]
pub struct WorkerServer {
    listener: Listener,
}

impl WorkerServer {
    /// Bind `endpoint` (TCP port 0 picks a free port).
    pub fn bind(endpoint: &Endpoint) -> io::Result<Self> {
        Ok(Self {
            listener: Listener::bind(endpoint)?,
        })
    }

    /// The endpoint actually bound — announce this to coordinators.
    pub fn local_endpoint(&self) -> io::Result<Endpoint> {
        self.listener.local_endpoint()
    }

    /// Accept one coordinator connection and serve every session on it
    /// to completion.
    pub fn serve_one(&self) -> io::Result<ServeReport> {
        serve_stream(self.listener.accept()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> QloveConfig {
        QloveConfig::new(&[0.5], 100, 10)
    }

    fn dummy(id: u64) -> Session {
        Session::new(id, &config(), WorkerMode::Shard)
    }

    /// Serve one connection over a socketpair, fed `frames` after the
    /// coordinator hello: the worker's result and every frame it sent.
    #[cfg(unix)]
    fn serve(frames: &[Frame]) -> (io::Result<ServeReport>, Vec<Frame>) {
        let (ours, theirs) = std::os::unix::net::UnixStream::pair().unwrap();
        let worker = std::thread::spawn(move || serve_stream(Conn::Unix(theirs)));
        let ours = Conn::Unix(ours);
        let mut reader = FrameReader::new(BufReader::new(ours.try_clone().unwrap()));
        let mut writer = FrameWriter::new(ours);
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Coordinator,
        };
        for frame in std::iter::once(&hello).chain(frames) {
            writer.write_frame(frame).unwrap();
        }
        writer.flush().unwrap();
        let result = worker.join().unwrap();
        // Everything the worker wrote before it hung up, then EOF (or a
        // reset, when it left frames unread).
        let replies = std::iter::from_fn(|| reader.try_read_frame().ok().flatten()).collect();
        (result, replies)
    }

    #[cfg(unix)]
    #[test]
    fn sessions_reject_duplicates_and_unknown_closes_and_reopen_after_close() {
        let open = |session| Frame::OpenSession {
            session,
            config: config(),
            mode: WorkerMode::Shard,
        };
        let close = |session| Frame::CloseSession { session };
        let invalid =
            |r: io::Result<ServeReport>| r.unwrap_err().kind() == io::ErrorKind::InvalidData;
        assert!(
            invalid(serve(&[open(1), open(2), open(1)]).0),
            "duplicate open"
        );
        assert!(
            invalid(serve(&[open(1), close(9)]).0),
            "close of an unknown id"
        );
        assert!(
            invalid(serve(&[open(1), close(1), close(1)]).0),
            "double close"
        );

        // A closed id opens again as a fresh session. Reports list the
        // closed session first, then the open ones in id order.
        let (result, replies) = serve(&[
            open(5),
            open(1),
            open(3),
            Frame::EventBatch {
                session: 1,
                values: vec![7, 8],
            },
            close(1),
            open(1),
            Frame::EventBatch {
                session: 1,
                values: vec![9],
            },
            Frame::Shutdown,
        ]);
        let report = result.unwrap();
        let order: Vec<(u64, u64)> = report
            .sessions
            .iter()
            .map(|s| (s.session, s.events))
            .collect();
        assert_eq!(order, [(1, 2), (1, 1), (3, 0), (5, 0)]);
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Worker,
        };
        assert_eq!(replies, [hello, close(1), Frame::Shutdown]);
    }

    #[test]
    fn restored_session_reports_only_shipped_responses() {
        // A session restored to boundary 5 that then ships 2 summaries
        // must report responses == 2, not 7.
        let mut session = dummy(0);
        let mut sink = FrameWriter::new(Vec::new());
        match &mut session.core {
            SessionCore::Shard {
                boundaries, virgin, ..
            } => {
                *virgin = false;
                *boundaries = 5;
            }
            SessionCore::Operator { .. } => unreachable!(),
        }
        session.ingest(&[1, 2, 3], &mut sink).unwrap();
        match &mut session.core {
            SessionCore::Shard {
                boundaries,
                shipped,
                ..
            } => {
                *boundaries += 2;
                *shipped += 2;
            }
            SessionCore::Operator { .. } => unreachable!(),
        }
        let report = session.report();
        assert_eq!(report.responses, 2, "shipped, not absolute boundary index");
        assert_eq!(report.events, 3);
    }
}
