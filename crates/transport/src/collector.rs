//! The one collector: reads every worker connection of a run, demuxes
//! responses by `(session, boundary, epoch)`, and owns failure
//! detection and recovery.
//!
//! The collector runs on the calling thread and shares only the
//! [`Link`]s with the dealer. [`Collector::read`] is its single entry
//! point: it brings a connection up on first use, absorbs `Heartbeat`
//! echoes and `StatsReport` scrapes, acknowledges every summary and
//! close on its link, and turns any worker failure into a recovery
//! under the run's [`RecoveryPolicy`].
//!
//! Detection is two-sided. A dead worker surfaces as an EOF or reset on
//! the socket. A *hung* worker (e.g. `SIGSTOP`) is caught by the
//! heartbeat deadline: when a read times out the collector writes a
//! [`Frame::Heartbeat`] probe; a live worker echoes it, a frozen one
//! stays silent through the second timeout and is declared stalled.
//! When a dealer holds the link's writer, perhaps blocked on a worker
//! that stopped reading, the probe writes nothing and marks the link's
//! written-frame count instead: a count that has not moved by the
//! second timeout is a stall, one that has moved re-arms the probe. A
//! spurious stall verdict is safe: the old socket is shut down before
//! the replacement is handshaked, and replay recomputes identical
//! summaries.
//!
//! Recovery severs the old socket, respawns through the caller's hook,
//! handshakes, and hands the new write half to [`Link::reinstall`],
//! which reopens every unfinished session at its acknowledged boundary
//! and replays its ring. Bringing up a connection that a reshard opens
//! mid-run is the same reinstall without the failure records.

use crate::coordinator::{is_timeout, RecoveryPolicy, ShardMetrics, WorkerStats};
use crate::link::{Link, Probe};
use crate::net::Conn;
use crate::proto::{bad, Frame, FrameReader, FrameWriter, Role, PROTOCOL_VERSION};
use qlove_core::QloveSummary;
use qlove_telemetry::{EventJournal, EventKind, Stopwatch};
use std::io::{self, BufReader};
use std::thread;
use std::time::Duration;

type Reader = FrameReader<BufReader<Conn>>;

/// Connection-level handshake: hello exchange only. Sessions are opened
/// separately (a connection can hold many).
fn hello(conn: Conn) -> io::Result<(Reader, FrameWriter<Conn>)> {
    let read_half = conn.try_clone()?;
    let mut reader = FrameReader::new(BufReader::new(read_half));
    let mut writer = FrameWriter::new(conn);
    writer.write_frame(&Frame::Hello {
        version: PROTOCOL_VERSION,
        role: Role::Coordinator,
    })?;
    writer.flush()?;
    match reader.read_frame()? {
        Frame::Hello {
            version: PROTOCOL_VERSION,
            role: Role::Worker,
        } => Ok((reader, writer)),
        Frame::Hello { version, .. } if version != PROTOCOL_VERSION => Err(bad(format!(
            "worker speaks protocol v{version}, coordinator speaks v{PROTOCOL_VERSION}"
        ))),
        other => Err(bad(format!("expected worker hello, got {other:?}"))),
    }
}

/// A failure verdict: whether it was a stall (not a crash), the silence
/// observed before it in µs, and the underlying error.
type Verdict = (bool, u64, io::Error);

/// Why a read did not produce a frame: a worker failure to recover
/// from, or a protocol violation that ends the run.
enum Fault {
    Worker(Verdict),
    Protocol(io::Error),
}

fn crash(e: io::Error) -> Fault {
    Fault::Worker((false, 0, e))
}

fn stalled(c: usize) -> io::Error {
    let msg = format!("connection {c}: worker silent through two read deadlines");
    io::Error::new(io::ErrorKind::TimedOut, msg)
}

/// The collector's state for one run: per connection, the read half and
/// a breaker handle that exists only to sever the socket; plus the
/// respawn hook and the recovery bookkeeping.
pub(crate) struct Collector<'a, F> {
    policy: &'a RecoveryPolicy,
    links: &'a [Link<Conn>],
    journal: &'a EventJournal,
    /// Per-session metric handles; empty when the run records none.
    metrics: &'a [ShardMetrics],
    connect: F,
    readers: Vec<Option<Reader>>,
    breakers: Vec<Option<Conn>>,
    restarts: Vec<u32>,
    /// Latest scraped worker counters, by session id.
    pub(crate) worker_stats: Vec<WorkerStats>,
}

impl<'a, F: FnMut(usize) -> io::Result<Conn>> Collector<'a, F> {
    pub(crate) fn new(
        policy: &'a RecoveryPolicy,
        links: &'a [Link<Conn>],
        journal: &'a EventJournal,
        metrics: &'a [ShardMetrics],
        sessions: usize,
        connect: F,
    ) -> Self {
        Self {
            policy,
            links,
            journal,
            metrics,
            connect,
            readers: links.iter().map(|_| None).collect(),
            breakers: links.iter().map(|_| None).collect(),
            restarts: vec![0; links.len()],
            worker_stats: vec![WorkerStats::default(); sessions],
        }
    }

    /// Arm deadlines and handshake a new connection.
    fn handshake(&self, conn: Conn) -> io::Result<(Reader, FrameWriter<Conn>, Conn)> {
        self.policy.arm(&conn)?;
        let breaker = conn.try_clone()?;
        let (reader, writer) = hello(conn)?;
        Ok((reader, writer, breaker))
    }

    /// Make `conn` link `c`'s connection: handshake it, then let the
    /// link open its sessions and replay its rings onto it.
    pub(crate) fn install(&mut self, c: usize, conn: Conn) -> io::Result<()> {
        let (reader, writer, breaker) = self.handshake(conn)?;
        self.links[c].reinstall(writer, false)?;
        self.readers[c] = Some(reader);
        self.breakers[c] = Some(breaker);
        Ok(())
    }

    /// Read link `c`'s next frame for the caller, recovering from worker
    /// failures as the policy allows.
    pub(crate) fn read(&mut self, c: usize) -> io::Result<Frame> {
        loop {
            match self.next(c) {
                Ok(frame) => return Ok(frame),
                Err(Fault::Worker(verdict)) => self.recover(c, verdict)?,
                Err(Fault::Protocol(e)) => return Err(e),
            }
        }
    }

    fn next(&mut self, c: usize) -> Result<Frame, Fault> {
        if self.readers[c].is_none() {
            // A connection a reshard opens mid-run comes up on first
            // use, through the same reinstall as recovery.
            let conn = (self.connect)(c).map_err(crash)?;
            self.install(c, conn).map_err(crash)?;
        }
        let frame = self.read_with_probe(c)?;
        match &frame {
            Frame::BoundarySummary {
                session,
                boundary,
                summary,
                ..
            } => {
                self.links[c]
                    .ack(*session, *boundary)
                    .map_err(Fault::Protocol)?;
                if let Some(m) = usize::try_from(*session)
                    .ok()
                    .and_then(|s| self.metrics.get(s))
                {
                    let bytes = self.readers[c].as_ref().map_or(0, Reader::last_frame_len);
                    m.summary_bytes.add(bytes as u64);
                    m.subwindow.set(summary.total() as i64);
                }
            }
            Frame::CloseSession { session } => {
                self.links[c]
                    .close_acked(*session)
                    .map_err(Fault::Protocol)?;
            }
            _ => {}
        }
        Ok(frame)
    }

    /// Read one frame from `c`, absorbing heartbeat echoes and stats
    /// reports and probing through read deadlines.
    fn read_with_probe(&mut self, c: usize) -> Result<Frame, Fault> {
        // Set once a probe is out: silence through the next deadline
        // then means the worker is stalled — unless the probe found a
        // dealer holding the writer and the link has written frames
        // since, which means the worker is reading; then probe again.
        let mut probed: Option<(Stopwatch, Probe)> = None;
        loop {
            let Some(reader) = self.readers[c].as_mut() else {
                return Err(crash(io::Error::other("connection is down")));
            };
            match reader.read_frame() {
                Ok(Frame::Heartbeat { .. }) => probed = None,
                Ok(Frame::StatsReport {
                    session,
                    batches,
                    events,
                    boundaries,
                    responses,
                }) => {
                    // Latest report wins: a scrape replayed after a
                    // recovery overwrites the earlier one.
                    let slot = usize::try_from(session).ok();
                    if let Some(stats) = slot.and_then(|s| self.worker_stats.get_mut(s)) {
                        *stats = WorkerStats {
                            session,
                            batches,
                            events,
                            boundaries,
                            responses,
                        };
                    }
                    probed = None;
                }
                Ok(frame) => return Ok(frame),
                Err(e) if is_timeout(&e) => {
                    let link = &self.links[c];
                    if let Some((since, probe)) = probed {
                        let moved = matches!(probe, Probe::Busy(mark) if link.written() != mark);
                        if !moved {
                            return Err(Fault::Worker((true, since.elapsed_us(), stalled(c))));
                        }
                    }
                    let since = Stopwatch::start();
                    match link.probe(Frame::Heartbeat { session: c as u64 }) {
                        Ok(probe) => probed = Some((since, probe)),
                        Err(_) => return Err(crash(e)),
                    }
                }
                Err(e) => {
                    let detect_us = probed.map_or(0, |(since, _)| since.elapsed_us());
                    return Err(Fault::Worker((false, detect_us, e)));
                }
            }
        }
    }

    /// Drive recovery of link `c` to completion or declare the run dead.
    /// The failure verdict and one terminal record per restored session
    /// land in the run's journal.
    fn recover(&mut self, c: usize, (stall, detect_us, cause): Verdict) -> io::Result<()> {
        // Sever the old socket first: a stalled worker that wakes up
        // later must find its stream dead, never the recovered one.
        if let Some(breaker) = self.breakers[c].take() {
            let _ = breaker.shutdown();
        }
        self.readers[c] = None;
        let boundary = self.links[c].min_acked();
        self.journal.emit(EventKind::Failure {
            domain: c,
            boundary,
            stall,
            detect_us,
        });
        let policy = self.policy;
        let (restarts, outcome) = drive_restarts(policy, c as u64, self.restarts[c], || {
            let restore = Stopwatch::start();
            let conn = (self.connect)(c)?;
            let (reader, writer, breaker) = self.handshake(conn)?;
            let restore_us = restore.elapsed_us();
            let replay = Stopwatch::start();
            let restored = self.links[c].reinstall(writer, true)?;
            self.readers[c] = Some(reader);
            self.breakers[c] = Some(breaker);
            Ok((restored, restore_us, replay.elapsed_us()))
        });
        self.restarts[c] = restarts;
        let Some((restored, restore_us, replay_us)) = outcome else {
            self.journal.emit(EventKind::Recovery {
                domain: c,
                boundary,
                stall,
                restarts,
                detect_us,
                restore_us: 0,
                replay_us: 0,
                replayed_frames: 0,
                recovered: false,
            });
            return Err(cause);
        };
        for (session, boundary, replayed_frames) in restored {
            self.journal.emit(EventKind::Recovery {
                domain: session as usize,
                boundary,
                stall,
                restarts,
                detect_us,
                restore_us,
                replay_us,
                replayed_frames,
                recovered: true,
            });
        }
        Ok(())
    }

    /// Read link `c` until `session`'s summary for boundary `b` arrives;
    /// it must carry the boundary's reshard `epoch`, so groups from
    /// before and after a swap never mix.
    pub(crate) fn summary(
        &mut self,
        c: usize,
        session: u64,
        b: u64,
        epoch: u64,
    ) -> io::Result<QloveSummary> {
        loop {
            match self.read(c)? {
                Frame::BoundarySummary {
                    session: s,
                    boundary,
                    epoch: e,
                    summary,
                } if (s, boundary, e) == (session, b, epoch) => return Ok(summary),
                Frame::CloseSession { .. } => {}
                other => {
                    return Err(bad(format!(
                        "connection {c}: expected summary for session {session} boundary {b} \
                         epoch {epoch}, got {other:?}"
                    )))
                }
            }
        }
    }

    /// Read link `c` until the worker acknowledges shutdown.
    pub(crate) fn expect_shutdown(&mut self, c: usize) -> io::Result<()> {
        loop {
            match self.read(c)? {
                Frame::Shutdown => return Ok(()),
                Frame::CloseSession { .. } => {}
                other => return Err(bad(format!("expected shutdown ack, got {other:?}"))),
            }
        }
    }

    /// Terminal: stop every thread that could still be blocked — sever
    /// all sockets, fail all links.
    pub(crate) fn fail_all(&mut self) {
        for breaker in self.breakers.iter().flatten() {
            let _ = breaker.shutdown();
        }
        for link in self.links {
            link.fail();
        }
    }
}

/// The restart loop: attempt `try_restart` under the policy's budget
/// and deadline, sleeping the jittered backoff between attempts.
/// Returns the total restarts consumed for this failure domain and the
/// first successful attempt's result (`None` when the budget or
/// deadline ran out).
fn drive_restarts<T>(
    policy: &RecoveryPolicy,
    key: u64,
    consumed: u32,
    mut try_restart: impl FnMut() -> io::Result<T>,
) -> (u32, Option<T>) {
    let started = Stopwatch::start();
    let mut restarts = consumed;
    let mut attempt = 0u32;
    while restarts < policy.max_restarts
        && Duration::from_micros(started.elapsed_us()) <= policy.deadline
    {
        if attempt > 0 {
            thread::sleep(policy.backoff_for(key, attempt));
        }
        attempt += 1;
        restarts += 1;
        if let Ok(outcome) = try_restart() {
            return (restarts, Some(outcome));
        }
    }
    (restarts, None)
}
