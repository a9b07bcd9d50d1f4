//! One worker connection as the coordinator sees it: the sessions it
//! hosts, each with its own replay ring, plus the write half of the
//! socket.
//!
//! A [`Link`] owns no socket and starts no thread. It writes frames into
//! any [`Write`] sink and is driven by three parties: the dealer
//! ([`Link::deal`], [`Link::open`], [`Link::shutdown`]), the collector
//! ([`Link::ack`], [`Link::close_acked`], [`Link::probe`]), and recovery
//! ([`Link::reinstall`]). Unit tests drive it with byte buffers.
//!
//! ## Two locks
//!
//! The write half sits behind its own mutex, apart from the ring state.
//! The dealer takes the writer lock, rings the frame under a brief hold
//! of the state lock, and writes with only the writer lock held. `ack`
//! and `close_acked` take the state lock alone, so a collector
//! acknowledging a summary never waits on a dealer blocked in a socket
//! write — the wait that let dealer, worker and collector deadlock once
//! the socket buffers filled. The lock order is writer, then state.
//!
//! The collector's heartbeat probe never waits on the writer either: it
//! only tries the lock. When a dealer holds it — perhaps blocked on a
//! worker that stopped reading — the probe writes nothing and returns
//! how many frames the link has written so far. If that count has not
//! moved by the collector's next read deadline, the worker is stalled.
//!
//! ## Replay
//!
//! Under a restartable policy — and on any link that is not connected
//! yet — every dealt frame stays in its session's ring until the
//! collector acknowledges the boundary it belongs to. A session holds
//! at most [`MAX_RING_BOUNDARIES`] unacknowledged boundaries; a session
//! over budget blocks only its own dealing. [`Link::reinstall`] puts a
//! fresh write half in place and writes, for every session not closed,
//! `OpenSession`, `Restore{acked}` and `Reshard{epoch}` when the epoch
//! is past 0, then the session's ring; then `Shutdown` if it was dealt.

use crate::proto::{bad, Frame, FrameWriter, WorkerMode};
use qlove_core::{QloveConfig, QloveSummary};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// How many dealt-but-unacknowledged sub-windows a session's replay
/// ring holds before dealing to that session waits for the collector.
///
/// This bounds both recovery replay volume and coordinator memory: at
/// most this many boundaries' worth of `EventBatch` frames are retained
/// per session at any moment.
pub const MAX_RING_BOUNDARIES: usize = 8;

/// A session a reinstall re-hosted: its id, the boundary it resumes
/// from, and the ring frames replayed for it.
pub(crate) type Restored = (u64, u64, usize);

struct Session {
    config: QloveConfig,
    mode: WorkerMode,
    /// Dealt frames not yet covered by an acknowledgement, in deal order.
    ring: VecDeque<Frame>,
    /// `Boundary` frames in the ring: the session's run-ahead budget.
    boundaries: usize,
    /// Boundaries acknowledged: the boundary a replacement resumes at.
    acked: u64,
    /// Reshard epoch in force at boundary `acked`.
    epoch: u64,
    /// The worker acknowledged the session's close: never reopen it.
    closed: bool,
}

impl Session {
    /// The frames that (re)open this session on a worker. A session
    /// starting with the stream needs only `OpenSession`; one resuming
    /// mid-stream, or any session under `restore`, is also restored to
    /// its acknowledged boundary and re-stamped with its epoch.
    fn opening(&self, id: u64, restore: bool) -> Vec<Frame> {
        let mut frames = vec![Frame::OpenSession {
            session: id,
            config: self.config.clone(),
            mode: self.mode,
        }];
        if restore || self.acked > 0 {
            frames.push(Frame::Restore {
                session: id,
                boundary: self.acked,
                checkpoint: QloveSummary::default(),
            });
            if self.epoch > 0 {
                frames.push(Frame::Reshard {
                    session: id,
                    boundary: self.acked,
                    epoch: self.epoch,
                });
            }
        }
        frames
    }
}

#[derive(Default)]
struct State {
    sessions: BTreeMap<u64, Session>,
    /// The connection's `Shutdown` was dealt; reinstall re-sends it.
    shutdown: bool,
    /// Terminal failure: every further deal errors.
    failed: bool,
}

/// What a heartbeat probe did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The heartbeat went out; the worker's echo answers it.
    Sent,
    /// A dealer held the writer, so nothing was written. The payload is
    /// [`Link::written`] at the time: the worker is reading if it moves.
    Busy(u64),
}

/// One connection's sessions, rings and write half.
pub(crate) struct Link<W> {
    /// Retain dealt frames for replay (the policy can restart workers).
    retain: bool,
    /// The write half; `None` while the connection is down or not up yet.
    writer: Mutex<Option<FrameWriter<W>>>,
    /// Frames written through `writer` so far.
    written: AtomicU64,
    state: Mutex<State>,
    /// Signalled whenever ring room may have appeared (or on failure).
    room: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn aborted() -> io::Error {
    io::Error::other("distributed run aborted")
}

fn unknown(session: u64) -> io::Error {
    bad(format!("frame for unknown session {session}"))
}

impl<W: Write> Link<W> {
    /// An empty, unconnected link. With `retain`, dealt frames are kept
    /// for replay; without, only frames dealt while the link is down are.
    pub(crate) fn new(retain: bool) -> Self {
        Self {
            retain,
            writer: Mutex::new(None),
            written: AtomicU64::new(0),
            state: Mutex::new(State::default()),
            room: Condvar::new(),
        }
    }

    /// Write `frames` through `slot` and count them, parking the link
    /// (dropping the write half) when the write fails: the collector
    /// notices the dead peer.
    fn write_through(
        &self,
        slot: &mut Option<FrameWriter<W>>,
        frames: &[Frame],
        flush: bool,
    ) -> io::Result<()> {
        let Some(writer) = slot.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "link is down"));
        };
        let sent = frames.iter().try_for_each(|f| {
            writer.write_frame(f)?;
            self.written.fetch_add(1, Ordering::Relaxed);
            Ok(())
        });
        let sent = sent.and_then(|()| if flush { writer.flush() } else { Ok(()) });
        if sent.is_err() {
            *slot = None;
        }
        sent
    }

    /// Frames written through the write half so far.
    pub(crate) fn written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    /// Host session `id`, resuming at boundary `at` under reshard epoch
    /// `epoch` (both 0 for a session that starts with the stream). Its
    /// opening frames go out now if the link is up; otherwise the
    /// reinstall that brings the link up sends them.
    pub(crate) fn open(
        &self,
        id: u64,
        config: QloveConfig,
        mode: WorkerMode,
        at: u64,
        epoch: u64,
    ) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        let session = Session {
            config,
            mode,
            ring: VecDeque::new(),
            boundaries: 0,
            acked: at,
            epoch,
            closed: false,
        };
        let frames = session.opening(id, false);
        {
            let mut st = lock(&self.state);
            if st.failed {
                return Err(aborted());
            }
            st.sessions.insert(id, session);
        }
        if writer.is_some() {
            let _ = self.write_through(&mut writer, &frames, false);
        }
        Ok(())
    }

    /// Deal `frame` to `session`: ring it when it must be replayable,
    /// then push it down the socket. A failed write parks the link
    /// instead of erroring. A `Boundary` waits while the session's ring
    /// is at its budget.
    pub(crate) fn deal(&self, session: u64, frame: Frame) -> io::Result<()> {
        let boundary = matches!(frame, Frame::Boundary { .. });
        if boundary {
            self.await_room(&[session])?;
        }
        let flush = boundary || matches!(frame, Frame::CloseSession { .. });
        let mut writer = lock(&self.writer);
        // Encode before the frame moves into the ring, so the write
        // below runs with the state lock released.
        let encoded = writer.as_mut().map(|w| w.encode(&frame));
        {
            let mut st = lock(&self.state);
            if st.failed {
                return Err(aborted());
            }
            if self.retain || writer.is_none() {
                let s = st
                    .sessions
                    .get_mut(&session)
                    .ok_or_else(|| unknown(session))?;
                s.boundaries += usize::from(boundary);
                s.ring.push_back(frame);
            }
        }
        if let (Some(w), Some(encoded)) = (writer.as_mut(), encoded) {
            let sent = encoded.and_then(|()| w.send());
            if sent.is_ok() {
                self.written.fetch_add(1, Ordering::Relaxed);
            }
            let flushed = sent.and_then(|()| if flush { w.flush() } else { Ok(()) });
            if flushed.is_err() {
                *writer = None;
            }
        }
        Ok(())
    }

    /// Deal the connection's `Shutdown` (after every session's frames).
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        let mut writer = lock(&self.writer);
        {
            let mut st = lock(&self.state);
            if st.failed {
                return Err(aborted());
            }
            st.shutdown = true;
        }
        if writer.is_some() {
            let _ = self.write_through(&mut writer, &[Frame::Shutdown], true);
        }
        Ok(())
    }

    /// Whether `session` may be dealt another `Boundary` without waiting.
    pub(crate) fn has_room(&self, session: u64) -> bool {
        lock(&self.state)
            .sessions
            .get(&session)
            .is_none_or(|s| s.boundaries < MAX_RING_BOUNDARIES)
    }

    /// Wait until any of `sessions` has ring room; errors once the run
    /// has failed.
    pub(crate) fn await_room(&self, sessions: &[u64]) -> io::Result<()> {
        let mut st = lock(&self.state);
        loop {
            if st.failed {
                return Err(aborted());
            }
            let room = |id: &u64| {
                st.sessions
                    .get(id)
                    .is_none_or(|s| s.boundaries < MAX_RING_BOUNDARIES)
            };
            if sessions.iter().any(room) {
                return Ok(());
            }
            st = self.room.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The collector holds `session`'s summary for `boundary`: prune the
    /// session's ring through that `Boundary`, noting any reshard epoch
    /// it passes, and wake a dealer waiting for room. Summaries must
    /// arrive in boundary order.
    pub(crate) fn ack(&self, session: u64, boundary: u64) -> io::Result<()> {
        let mut st = lock(&self.state);
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        if s.closed || boundary != s.acked {
            return Err(bad(format!(
                "session {session}: summary for boundary {boundary} out of order (expected {})",
                s.acked
            )));
        }
        s.acked += 1;
        while let Some(frame) = s.ring.pop_front() {
            match frame {
                Frame::Reshard { epoch, .. } => s.epoch = epoch,
                Frame::Boundary { .. } => {
                    s.boundaries -= 1;
                    break;
                }
                _ => {}
            }
        }
        self.room.notify_all();
        Ok(())
    }

    /// The worker acknowledged `session`'s close: its effects are
    /// durable, so drop its ring and never reopen it.
    pub(crate) fn close_acked(&self, session: u64) -> io::Result<()> {
        let mut st = lock(&self.state);
        let s = st
            .sessions
            .get_mut(&session)
            .ok_or_else(|| unknown(session))?;
        if s.closed {
            return Err(bad(format!("session {session}: duplicate close ack")));
        }
        s.closed = true;
        s.ring.clear();
        s.boundaries = 0;
        self.room.notify_all();
        Ok(())
    }

    /// Write a heartbeat probe, which is not dealt and never enters a
    /// ring. When a dealer holds the writer, write nothing and return
    /// [`Probe::Busy`] with the current [`Link::written`] count instead
    /// of waiting behind a write that may be blocked. Fails when the
    /// link is down.
    pub(crate) fn probe(&self, frame: Frame) -> io::Result<Probe> {
        let mut slot = match self.writer.try_lock() {
            Ok(slot) => slot,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return Ok(Probe::Busy(self.written())),
        };
        self.write_through(&mut slot, &[frame], true)
            .map(|()| Probe::Sent)
    }

    /// Install a fresh write half and replay onto it: every session not
    /// closed is reopened (restored to its acknowledged boundary when
    /// `restore`) and fed its ring, then `Shutdown` if it was dealt.
    pub(crate) fn reinstall(
        &self,
        mut writer: FrameWriter<W>,
        restore: bool,
    ) -> io::Result<Vec<Restored>> {
        let mut slot = lock(&self.writer);
        let st = lock(&self.state);
        let mut restored = Vec::new();
        for (&id, s) in st.sessions.iter().filter(|(_, s)| !s.closed) {
            for frame in s.opening(id, restore).iter().chain(&s.ring) {
                writer.write_frame(frame)?;
            }
            restored.push((id, s.acked, s.ring.len()));
        }
        if st.shutdown {
            writer.write_frame(&Frame::Shutdown)?;
        }
        writer.flush()?;
        *slot = Some(writer);
        Ok(restored)
    }

    /// The lowest acknowledged boundary among open sessions.
    pub(crate) fn min_acked(&self) -> u64 {
        let st = lock(&self.state);
        let open = st.sessions.values().filter(|s| !s.closed);
        open.map(|s| s.acked).min().unwrap_or(0)
    }

    /// Terminal: make every pending and future deal error out.
    pub(crate) fn fail(&self) {
        lock(&self.state).failed = true;
        self.room.notify_all();
    }
}

#[cfg(test)]
mod tests {
    //! The link driven by frames alone: byte-buffer sinks instead of
    //! sockets, so ring pruning, budgets, replay and the lock split are
    //! checked without a worker.

    use super::*;
    use crate::proto::FrameReader;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Duration;

    /// A sink whose bytes the test can still read after the link owns
    /// the writer.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            lock(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        fn frames(&self) -> Vec<Frame> {
            let bytes = lock(&self.0).clone();
            let mut reader = FrameReader::new(&bytes[..]);
            std::iter::from_fn(|| reader.try_read_frame().expect("valid frames")).collect()
        }
    }

    fn config() -> QloveConfig {
        QloveConfig::new(&[0.5], 40, 10)
    }

    fn batch(session: u64, v: u64) -> Frame {
        Frame::EventBatch {
            session,
            values: vec![v],
        }
    }

    fn boundary(session: u64, boundary: u64) -> Frame {
        Frame::Boundary { session, boundary }
    }

    /// The frames a replacement worker is sent to reopen `session`.
    fn reopen(session: u64, acked: u64, epoch: u64) -> Vec<Frame> {
        let mut frames = vec![
            Frame::OpenSession {
                session,
                config: config(),
                mode: WorkerMode::Shard,
            },
            Frame::Restore {
                session,
                boundary: acked,
                checkpoint: QloveSummary::default(),
            },
        ];
        if epoch > 0 {
            frames.push(Frame::Reshard {
                session,
                boundary: acked,
                epoch,
            });
        }
        frames
    }

    /// A retaining link hosting `sessions`, connected to `sink`.
    fn link_to<W: Write>(sessions: &[u64], sink: W) -> Link<W> {
        let link = Link::new(true);
        for &s in sessions {
            link.open(s, config(), WorkerMode::Shard, 0, 0).unwrap();
        }
        link.reinstall(FrameWriter::new(sink), false).unwrap();
        link
    }

    /// What a replacement worker would be sent.
    fn replay(link: &Link<Sink>) -> Vec<Frame> {
        let sink = Sink::default();
        link.reinstall(FrameWriter::new(sink.clone()), true)
            .unwrap();
        sink.frames()
    }

    #[test]
    fn ack_prunes_only_its_own_session_on_a_shared_link() {
        let sink = Sink::default();
        let link = link_to(&[0, 1], sink.clone());
        link.deal(0, batch(0, 1)).unwrap();
        link.deal(1, batch(1, 2)).unwrap();
        link.deal(0, boundary(0, 0)).unwrap();
        link.deal(1, boundary(1, 0)).unwrap();
        link.deal(0, batch(0, 3)).unwrap();
        // The live connection saw both opening frames and every deal.
        assert_eq!(sink.frames().len(), 2 + 5);
        link.ack(0, 0).unwrap();
        let mut want = reopen(0, 1, 0);
        want.push(batch(0, 3));
        want.extend(reopen(1, 0, 0));
        want.extend([batch(1, 2), boundary(1, 0)]);
        assert_eq!(replay(&link), want);
        // Acks are per session and in order.
        assert!(link.ack(0, 0).is_err(), "duplicate ack");
        assert!(link.ack(1, 1).is_err(), "ack ahead of boundary 0");
        assert!(link.ack(7, 0).is_err(), "unknown session");
    }

    #[test]
    fn ring_budget_blocks_only_its_session() {
        let link = Arc::new(link_to(&[0, 1], Sink::default()));
        for b in 0..MAX_RING_BOUNDARIES as u64 {
            link.deal(0, boundary(0, b)).unwrap();
        }
        assert!(!link.has_room(0));
        assert!(link.has_room(1));
        link.deal(1, boundary(1, 0)).unwrap();
        let (tx, rx) = mpsc::channel();
        let dealer = {
            let link = Arc::clone(&link);
            thread::spawn(move || {
                let next = boundary(0, MAX_RING_BOUNDARIES as u64);
                tx.send(link.deal(0, next)).unwrap();
            })
        };
        assert!(
            rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "a session over budget must wait"
        );
        link.ack(0, 0).unwrap();
        rx.recv_timeout(Duration::from_secs(10))
            .expect("an ack makes room")
            .unwrap();
        dealer.join().unwrap();
        // A failed run wakes a waiting dealer with an error.
        link.fail();
        assert!(link.await_room(&[0]).is_err());
    }

    #[test]
    fn replay_reopens_unclosed_sessions_at_acked_and_epoch_then_the_tail() {
        let link = link_to(&[0], Sink::default());
        // A successor opened by a reshard at boundary 3, epoch 2.
        link.open(5, config(), WorkerMode::Shard, 3, 2).unwrap();
        let stamp = Frame::Reshard {
            session: 0,
            boundary: 1,
            epoch: 1,
        };
        for frame in [
            batch(0, 1),
            boundary(0, 0),
            stamp.clone(),
            batch(0, 2),
            boundary(0, 1),
            batch(0, 3),
        ] {
            link.deal(0, frame).unwrap();
        }
        link.deal(5, batch(5, 9)).unwrap();
        link.shutdown().unwrap();
        link.ack(0, 0).unwrap();
        // Boundary 0 acked: the epoch stamp is still in the ring.
        let mut want = reopen(0, 1, 0);
        want.extend([stamp, batch(0, 2), boundary(0, 1), batch(0, 3)]);
        want.extend(reopen(5, 3, 2));
        want.extend([batch(5, 9), Frame::Shutdown]);
        assert_eq!(replay(&link), want);
        // Past boundary 1 the stamp is part of the session's record.
        link.ack(0, 1).unwrap();
        let mut want = reopen(0, 2, 1);
        want.push(batch(0, 3));
        want.extend(reopen(5, 3, 2));
        want.extend([batch(5, 9), Frame::Shutdown]);
        assert_eq!(replay(&link), want);
        assert_eq!(link.min_acked(), 2);
    }

    #[test]
    fn close_ack_drops_the_session_and_its_ring() {
        let link = link_to(&[0, 1], Sink::default());
        link.deal(0, batch(0, 1)).unwrap();
        link.deal(0, Frame::CloseSession { session: 0 }).unwrap();
        link.deal(1, batch(1, 2)).unwrap();
        link.close_acked(0).unwrap();
        let mut want = reopen(1, 0, 0);
        want.push(batch(1, 2));
        assert_eq!(replay(&link), want);
        assert!(link.close_acked(0).is_err(), "duplicate close ack");
        assert!(link.ack(0, 0).is_err(), "summary after close");
    }

    /// A sink that, once armed, blocks every write until released —
    /// a socket whose peer stopped reading.
    struct Gate {
        armed: Arc<AtomicBool>,
        entered: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl Write for Gate {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.armed.load(Ordering::SeqCst) {
                let _ = self.entered.send(());
                let _ = self.release.recv();
            }
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn ack_returns_while_a_dealer_is_blocked_in_a_write() {
        let armed = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let gate = Gate {
            armed: Arc::clone(&armed),
            entered: entered_tx,
            release: release_rx,
        };
        let link = Arc::new(link_to(&[0], gate));
        armed.store(true, Ordering::SeqCst);
        // The dealer rings Boundary{0}, then blocks writing it while
        // holding the writer lock.
        let dealer = {
            let link = Arc::clone(&link);
            thread::spawn(move || link.deal(0, boundary(0, 0)))
        };
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        let (tx, rx) = mpsc::channel();
        {
            let link = Arc::clone(&link);
            thread::spawn(move || tx.send(link.ack(0, 0)).unwrap());
        }
        let acked = rx.recv_timeout(Duration::from_secs(10));
        release.send(()).unwrap();
        acked
            .expect("ack must not wait on the writer lock")
            .unwrap();
        dealer.join().unwrap().unwrap();
        assert!(link.has_room(0));
    }

    #[test]
    fn probe_returns_while_a_dealer_is_blocked_in_a_write() {
        let armed = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        let gate = Gate {
            armed: Arc::clone(&armed),
            entered: entered_tx,
            release: release_rx,
        };
        let link = Arc::new(link_to(&[0], gate));
        armed.store(true, Ordering::SeqCst);
        // The dealer blocks writing a batch while holding the writer
        // lock, as on a worker that stopped reading.
        let dealer = {
            let link = Arc::clone(&link);
            thread::spawn(move || link.deal(0, batch(0, 1)))
        };
        entered.recv_timeout(Duration::from_secs(10)).unwrap();
        let (tx, rx) = mpsc::channel();
        {
            let link = Arc::clone(&link);
            thread::spawn(move || {
                tx.send(link.probe(Frame::Heartbeat { session: 0 }))
                    .unwrap()
            });
        }
        let probed = rx.recv_timeout(Duration::from_secs(10));
        armed.store(false, Ordering::SeqCst);
        release.send(()).unwrap();
        let probed = probed
            .expect("probe must not wait on the writer lock")
            .unwrap();
        assert_eq!(probed, Probe::Busy(0), "nothing written behind the dealer");
        dealer.join().unwrap().unwrap();
        // The dealer's write went through, so the mark has moved, and a
        // probe against a free writer goes out.
        assert_eq!(link.written(), 1);
        let probed = link.probe(Frame::Heartbeat { session: 0 }).unwrap();
        assert_eq!(probed, Probe::Sent);
    }
}
