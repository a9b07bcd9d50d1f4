//! The four workloads: each one's input, made from the seed; the system
//! under test, built fresh for every pass; and the passes the benchmark
//! runs over it. Every pass is checked against the same oracle: the
//! answers a single operator gives when fed one value at a time
//! (`Qlove::push_detailed`).

use crate::trace::Tracer;
use qlove_bench::harness::measure_accuracy;
use qlove_core::{Qlove, QloveAnswer, QloveConfig, QloveShard, QloveSummary};
use qlove_freqstore::FreqStore;
use qlove_stream::parallel::BATCH;
use qlove_stream::{run_distributed_with_stats, PipelineStats};
use qlove_transport::{
    run_over_sockets, run_sessions, run_supervised, serve_stream, Conn, Frame, FrameReader,
    FrameWriter, RecoveryPolicy, ServeReport, SessionSpec, WorkerMode,
};
use qlove_workloads::{NetMonGen, ParetoGen};
use std::io;
use std::os::unix::net::UnixStream;
use std::thread::{self, ScopedJoinHandle};
use std::time::{Duration, Instant};

/// Events in each workload's input.
pub const EVENTS: usize = 16_000_000;
/// Prefix of netmon-uds2's input the unsupervised-transport probe
/// runs over.
pub const PROBE_EVENTS: usize = 2_000_000;
const PHIS: [f64; 4] = [0.5, 0.9, 0.99, 0.999];
/// Slice size the sequential workloads hand to `push_batch_into`.
const SEQ_BATCH: usize = 500;
/// Windows multiplexed over sessions-64's one connection.
const SESSIONS: usize = 64;
/// Worker connections of netmon-uds2: one per CPU of the 2-CPU host
/// the benchmark was sized on.
const UDS_CONNECTIONS: usize = 2;

/// Root span of an end-to-end pass.
pub const ROOT_PASS: &str = "pass";
/// Root span of the sequential twin that times boundary calls.
pub const ROOT_TWIN: &str = "twin";
/// Root span of the staged pass that calls each layer in turn.
pub const ROOT_STAGED: &str = "staged";
/// A `push_batch_into` call that completes no sub-window.
pub const INGEST_CALL: &str = "core.push_batch_into";
/// A `push_batch_into` call that completes a sub-window.
pub const BOUNDARY_CALL: &str = "core.push_batch_into.boundary";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    NetmonFig4,
    ParetoTree,
    NetmonUds2,
    Sessions64,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::NetmonFig4,
        Workload::ParetoTree,
        Workload::NetmonUds2,
        Workload::Sessions64,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NetmonFig4 => "netmon-fig4",
            Workload::ParetoTree => "pareto-tree",
            Workload::NetmonUds2 => "netmon-uds2",
            Workload::Sessions64 => "sessions-64",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Paper Fig. 4 shape, Table 1 shape (unquantized, so the tree
    /// store), a coarser period for the transport, and small windows for
    /// the multiplexed sessions. Three-digit quantization selects the
    /// dense store everywhere else.
    fn config(self) -> QloveConfig {
        match self {
            Workload::NetmonFig4 => QloveConfig::new(&PHIS, 100_000, 1_000),
            Workload::ParetoTree => QloveConfig::new(&PHIS, 128_000, 16_000).quantize(None),
            Workload::NetmonUds2 => QloveConfig::new(&PHIS, 100_000, 10_000),
            Workload::Sessions64 => QloveConfig::new(&PHIS, 4_000, 500),
        }
    }

    /// Shards each window is dealt across.
    fn shards(self) -> usize {
        match self {
            Workload::NetmonUds2 => UDS_CONNECTIONS,
            _ => 1,
        }
    }

    fn sessions(self) -> usize {
        match self {
            Workload::Sessions64 => SESSIONS,
            _ => 1,
        }
    }

    /// Worker connections an end-to-end pass opens.
    pub fn connections(self) -> usize {
        match self {
            Workload::NetmonUds2 => UDS_CONNECTIONS,
            Workload::Sessions64 => 1,
            _ => 0,
        }
    }
}

fn source(workload: Workload, seed: u64) -> Box<dyn Iterator<Item = u64>> {
    match workload {
        Workload::ParetoTree => Box::new(ParetoGen::paper(seed)),
        _ => Box::new(NetMonGen::new(seed)),
    }
}

/// The first `events` values of the workload's input for `seed`.
#[cfg(test)]
fn generate(workload: Workload, seed: u64, events: usize) -> Vec<u64> {
    source(workload, seed).take(events).collect()
}

/// What one pass produced.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pass {
    /// Building the system: operator construction, or worker spawn
    /// plus connect.
    pub setup: Duration,
    /// Processing every event, closed loop.
    pub run: Duration,
    /// Whether every answer is bit-identical to the oracle's.
    pub matches: bool,
}

/// Counts the staged pass takes where the work happens: the bases of
/// the per-layer ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct StagedCounts {
    pub events: u64,
    /// Shard summaries: one per shard per sub-window.
    pub summaries: u64,
    pub batch_frames: u64,
    pub frame_bytes: u64,
    pub pairs: u64,
    pub summary_bytes: u64,
    /// Largest Level-1 store footprint seen at a boundary.
    pub store_bytes: u64,
}

/// Open-loop answer latency; times in microseconds.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    pub answer_us: Vec<f64>,
    pub gen_late_max_us: f64,
    pub matches: bool,
}

/// One workload's input, split into its sessions, with the oracle's
/// answers for each.
pub struct Bench {
    workload: Workload,
    specs: Vec<SessionSpec>,
    reference: Vec<Vec<QloveAnswer>>,
}

impl Bench {
    /// Generate `events` values (split into equal contiguous sessions)
    /// and the oracle's answers.
    pub fn new(workload: Workload, seed: u64, events: usize) -> Self {
        let config = workload.config();
        let per_session = events / workload.sessions();
        let mut values = source(workload, seed);
        let specs: Vec<SessionSpec> = (0..workload.sessions())
            .map(|_| SessionSpec {
                config: config.clone(),
                mode: WorkerMode::Shard,
                values: values.by_ref().take(per_session).collect(),
            })
            .collect();
        let reference = specs
            .iter()
            .map(|spec| {
                let mut op = Qlove::new(spec.config.clone());
                spec.values
                    .iter()
                    .filter_map(|&v| op.push_detailed(v))
                    .collect()
            })
            .collect();
        Self {
            workload,
            specs,
            reference,
        }
    }

    pub fn events(&self) -> usize {
        self.specs.iter().map(|s| s.values.len()).sum()
    }

    pub fn reference(&self) -> &[Vec<QloveAnswer>] {
        &self.reference
    }

    /// `(value_err_pct, space_vars)` over the whole input: the worst
    /// over φ of the mean relative value error against exact
    /// sliding-window quantiles (the mean over every session's
    /// evaluations), and the summed peak `space_variables()` of the
    /// sessions' operators. The whole input, not a prefix, because the
    /// tail quantiles' error varies with the seed: on a 2M-event prefix
    /// its interquartile range across seeds reached a quarter of its
    /// median.
    pub fn accuracy(&self) -> (f64, f64) {
        let mut weighted = [0.0f64; PHIS.len()];
        let mut evaluations = 0usize;
        let mut space = 0usize;
        for spec in &self.specs {
            let mut op = Qlove::new(spec.config.clone());
            let report = measure_accuracy(&mut op, &spec.values, spec.config.window);
            space += report.peak_space;
            if report.evaluations == 0 {
                continue;
            }
            for (sum, phi) in weighted.iter_mut().zip(&report.per_phi) {
                *sum += phi.avg_value_err_pct * report.evaluations as f64;
            }
            evaluations += report.evaluations;
        }
        let worst = weighted
            .iter()
            .map(|sum| sum / evaluations as f64)
            .fold(f64::NEG_INFINITY, f64::max);
        (worst, space as f64)
    }

    /// One end-to-end pass of the workload, on a freshly built system.
    pub fn end_to_end(&self, tracer: &mut Tracer, pass: u32) -> io::Result<Pass> {
        match self.workload {
            Workload::NetmonFig4 | Workload::ParetoTree => {
                Ok(self.sequential(SEQ_BATCH, tracer, pass, ROOT_PASS))
            }
            Workload::NetmonUds2 => self.over_uds(true, tracer, pass),
            Workload::Sessions64 => self.multiplexed(tracer, pass),
        }
    }

    /// Slice size of the sequential twin: at most [`SEQ_BATCH`], and
    /// two slices per sub-window at least, so boundary and plain calls
    /// of one size alternate.
    pub fn twin_batch(&self) -> usize {
        SEQ_BATCH.min(self.specs[0].config.period / 2)
    }

    /// Each session through its own operator, fed `push_batch_into` in
    /// `batch`-value slices. A call that completes a sub-window is
    /// traced as a boundary call.
    pub fn sequential(
        &self,
        batch: usize,
        tracer: &mut Tracer,
        pass: u32,
        root: &'static str,
    ) -> Pass {
        let t0 = Instant::now();
        let mut ops: Vec<Qlove> = self
            .specs
            .iter()
            .map(|s| Qlove::new(s.config.clone()))
            .collect();
        let setup = t0.elapsed();
        let mut answers = vec![Vec::new(); self.specs.len()];
        let t1 = Instant::now();
        tracer.begin_root(root, pass);
        for ((op, spec), out) in ops.iter_mut().zip(&self.specs).zip(&mut answers) {
            let period = spec.config.period;
            for chunk in spec.values.chunks(batch) {
                let call = if op.pending() + chunk.len() >= period {
                    BOUNDARY_CALL
                } else {
                    INGEST_CALL
                };
                tracer.span(call, || op.push_batch_into(chunk, out));
            }
        }
        tracer.end();
        let run = t1.elapsed();
        Pass {
            setup,
            run,
            matches: answers == self.reference,
        }
    }

    /// The window dealt to worker threads over Unix socketpairs:
    /// `run_supervised` under the production recovery policy, or the
    /// unsupervised `run_over_sockets`. No fault is injected, so a
    /// respawn request fails the pass.
    pub fn over_uds(&self, supervised: bool, tracer: &mut Tracer, pass: u32) -> io::Result<Pass> {
        let spec = &self.specs[0];
        let shards = self.workload.shards();
        thread::scope(|scope| {
            let t0 = Instant::now();
            let mut conns = Vec::with_capacity(shards);
            let mut workers = Vec::with_capacity(shards);
            for _ in 0..shards {
                let (ours, theirs) = UnixStream::pair()?;
                workers.push(scope.spawn(move || serve_stream(Conn::Unix(theirs))));
                conns.push(Conn::Unix(ours));
            }
            let mut coordinator = Qlove::new(spec.config.clone());
            let setup = t0.elapsed();
            let t1 = Instant::now();
            tracer.begin_root(ROOT_PASS, pass);
            let run = if supervised {
                tracer.span("transport.run_supervised", || {
                    run_supervised(
                        &spec.config,
                        &mut coordinator,
                        conns,
                        &spec.values,
                        &RecoveryPolicy::supervised(),
                        |shard| Err(io::Error::other(format!("worker {shard} failed mid-pass"))),
                    )
                })
            } else {
                tracer.span("transport.run_over_sockets", || {
                    run_over_sockets(&spec.config, &mut coordinator, conns, &spec.values)
                })
            };
            tracer.end();
            let elapsed = t1.elapsed();
            let served = join_workers(workers);
            let run = run?;
            served?;
            Ok(Pass {
                setup,
                run: elapsed,
                matches: run.answers == self.reference[0],
            })
        })
    }

    /// Every session multiplexed over one socketpair to one worker
    /// thread.
    fn multiplexed(&self, tracer: &mut Tracer, pass: u32) -> io::Result<Pass> {
        thread::scope(|scope| {
            let t0 = Instant::now();
            let (ours, theirs) = UnixStream::pair()?;
            let worker = scope.spawn(move || serve_stream(Conn::Unix(theirs)));
            let setup = t0.elapsed();
            let t1 = Instant::now();
            tracer.begin_root(ROOT_PASS, pass);
            let outcomes = tracer.span("transport.run_sessions", || {
                run_sessions(Conn::Unix(ours), &self.specs)
            });
            tracer.end();
            let elapsed = t1.elapsed();
            let served = join_workers(vec![worker]);
            let outcomes = outcomes?;
            served?;
            Ok(Pass {
                setup,
                run: elapsed,
                matches: outcomes
                    .iter()
                    .map(|o| &o.answers)
                    .eq(self.reference.iter()),
            })
        })
    }

    /// The in-process twin: each session through the thread executor
    /// with the workload's shard count, and the executor's timing
    /// summed over sessions.
    pub fn in_process(&self) -> (Pass, PipelineStats) {
        let mut pass = Pass {
            matches: true,
            ..Pass::default()
        };
        let mut total = PipelineStats::default();
        for (spec, want) in self.specs.iter().zip(&self.reference) {
            let t0 = Instant::now();
            let mut coordinator = Qlove::new(spec.config.clone());
            pass.setup += t0.elapsed();
            let t1 = Instant::now();
            let (answers, stats) = run_distributed_with_stats(
                || QloveShard::new(&spec.config),
                &mut coordinator,
                spec.config.period,
                &spec.values,
                self.workload.shards(),
            );
            pass.run += t1.elapsed();
            pass.matches &= &answers == want;
            total.boundaries += stats.boundaries;
            total.merge_ns += stats.merge_ns;
            total.collect_ns += stats.collect_ns;
            total.wall_ns += stats.wall_ns;
        }
        (pass, total)
    }

    /// The distributed path replayed one layer at a time on this
    /// thread, each call in its own span: deal a shard's share of a
    /// sub-window into batch frames, encode and decode them, ingest,
    /// extract the shard summary, encode and decode it, fold the
    /// boundary group into a scratch store, and merge it into the
    /// coordinator. The answers come from the coordinator, so the pass
    /// is checked like any other.
    pub fn staged(&self, tracer: &mut Tracer, pass: u32) -> io::Result<(Pass, StagedCounts)> {
        let shards = self.workload.shards();
        let mut counts = StagedCounts::default();
        let mut result = Pass::default();
        let mut answers = Vec::with_capacity(self.specs.len());
        let mut wire = Vec::new();
        for spec in &self.specs {
            let config = &spec.config;
            let t0 = Instant::now();
            let mut coordinator = Qlove::new(config.clone());
            let mut workers: Vec<QloveShard> =
                (0..shards).map(|_| QloveShard::new(config)).collect();
            let mut fold = QloveShard::new(config);
            result.setup += t0.elapsed();
            let mut out = Vec::new();
            let mut group = Vec::with_capacity(shards);
            let t1 = Instant::now();
            tracer.begin_root(ROOT_STAGED, pass);
            let mut replay = || -> io::Result<()> {
                for (b, sub) in spec.values.chunks(config.period).enumerate() {
                    group.clear();
                    for (s, worker) in workers.iter_mut().enumerate() {
                        let frames = tracer.span("transport.deal", || {
                            deal(sub, b * config.period, s, shards, b as u64)
                        });
                        counts.batch_frames += frames.len() as u64 - 1;
                        wire.clear();
                        tracer.span("transport.write_frame", || {
                            let mut writer = FrameWriter::new(&mut wire);
                            frames.iter().try_for_each(|f| writer.write_frame(f))
                        })?;
                        counts.frame_bytes += wire.len() as u64;
                        let batches =
                            tracer.span("transport.read_frame", || read_batches(&wire))?;
                        tracer.span("freqstore.push_batch", || {
                            for values in &batches {
                                worker.push_batch(values);
                            }
                        });
                        let store_bytes = worker.store_mut().memory_bytes() as u64;
                        counts.store_bytes = counts.store_bytes.max(store_bytes);
                        let summary =
                            tracer.span("freqstore.take_summary", || worker.take_summary());
                        let bytes = tracer.span("wire.to_bytes", || summary.to_bytes());
                        counts.summaries += 1;
                        counts.pairs += summary.counts().len() as u64;
                        counts.summary_bytes += bytes.len() as u64;
                        group.push(
                            tracer.span("wire.from_bytes", || QloveSummary::from_bytes(&bytes))?,
                        );
                    }
                    tracer.span("freqstore.merge_sorted_counts", || {
                        let store = fold.store_mut();
                        store.clear();
                        for summary in &group {
                            store.merge_sorted_counts(summary.counts());
                        }
                    });
                    tracer.span("core.merge", || {
                        for summary in &group {
                            out.extend(coordinator.merge(summary));
                        }
                    });
                }
                Ok(())
            };
            let replayed = replay();
            tracer.end();
            result.run += t1.elapsed();
            replayed?;
            counts.events += spec.values.len() as u64;
            answers.push(out);
        }
        result.matches = answers == self.reference;
        Ok((result, counts))
    }

    /// Open-loop answer latency on the first session: this thread
    /// offers the input in [`SEQ_BATCH`]-value slices on a fixed
    /// schedule of `rate` values per second, each slice due when its
    /// last value is. An answer's latency runs from the moment its
    /// slice was due to its emission, so a stall also delays every
    /// later answer; the generator's worst lateness is reported beside
    /// it.
    pub fn open_loop(&self, rate: f64) -> OpenLoop {
        let spec = &self.specs[0];
        let mut op = Qlove::new(spec.config.clone());
        let mut out = Vec::new();
        let mut result = OpenLoop::default();
        let slice_s = SEQ_BATCH as f64 / rate;
        let start = Instant::now();
        for (i, chunk) in spec.values.chunks(SEQ_BATCH).enumerate() {
            let due = (i + 1) as f64 * slice_s;
            let mut now = start.elapsed().as_secs_f64();
            while now < due {
                std::hint::spin_loop();
                now = start.elapsed().as_secs_f64();
            }
            result.gen_late_max_us = result.gen_late_max_us.max((now - due) * 1e6);
            let before = out.len();
            op.push_batch_into(chunk, &mut out);
            if out.len() > before {
                result
                    .answer_us
                    .push((start.elapsed().as_secs_f64() - due) * 1e6);
            }
        }
        result.matches = out == self.reference[0];
        result
    }
}

fn join_workers(workers: Vec<ScopedJoinHandle<'_, io::Result<ServeReport>>>) -> io::Result<()> {
    for worker in workers {
        worker
            .join()
            .map_err(|_| io::Error::other("worker thread panicked"))??;
    }
    Ok(())
}

/// Shard `shard`'s values of the sub-window `sub` (starting at stream
/// index `start`) in the dealer's [`BATCH`]-value frames, closed by the
/// boundary frame — the frames the coordinator writes to that worker.
fn deal(sub: &[u64], start: usize, shard: usize, shards: usize, boundary: u64) -> Vec<Frame> {
    let session = shard as u64;
    let first = (shard + shards - start % shards) % shards;
    let mut frames = Vec::new();
    let mut batch = Vec::with_capacity(BATCH);
    for &v in sub.iter().skip(first).step_by(shards) {
        batch.push(v);
        if batch.len() == BATCH {
            frames.push(Frame::EventBatch {
                session,
                values: std::mem::replace(&mut batch, Vec::with_capacity(BATCH)),
            });
        }
    }
    if !batch.is_empty() {
        frames.push(Frame::EventBatch {
            session,
            values: batch,
        });
    }
    frames.push(Frame::Boundary { session, boundary });
    frames
}

/// Decode batch frames up to the boundary frame, as a worker does.
fn read_batches(wire: &[u8]) -> io::Result<Vec<Vec<u64>>> {
    let mut reader = FrameReader::new(wire);
    let mut batches = Vec::new();
    loop {
        match reader.read_frame()? {
            Frame::EventBatch { values, .. } => batches.push(values),
            Frame::Boundary { .. } => return Ok(batches),
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected frame {other:?}"),
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_input_other_seed_other_input() {
        for w in Workload::ALL {
            assert_eq!(generate(w, 7, 1_000), generate(w, 7, 1_000), "{}", w.name());
            assert_ne!(generate(w, 7, 1_000), generate(w, 8, 1_000), "{}", w.name());
        }
        // Sessions are contiguous slices of the same stream.
        let bench = Bench::new(Workload::Sessions64, 7, 64 * 600);
        assert_eq!(
            bench
                .specs
                .iter()
                .flat_map(|s| s.values.iter().copied())
                .collect::<Vec<_>>(),
            generate(Workload::Sessions64, 7, 64 * 600)
        );
    }

    #[test]
    fn dealt_frames_cover_each_shard_in_stream_order() {
        let sub: Vec<u64> = (0..10_000).collect();
        let mut seen = Vec::new();
        for shard in 0..2 {
            let frames = deal(&sub, 10_000, shard, 2, 1);
            assert!(matches!(
                frames.last(),
                Some(Frame::Boundary { boundary: 1, .. })
            ));
            let mut wire = Vec::new();
            let mut writer = FrameWriter::new(&mut wire);
            for f in &frames {
                writer.write_frame(f).unwrap();
            }
            let batches = read_batches(&wire).unwrap();
            assert_eq!(batches.len(), 2); // 4096 + 904
            seen.extend(batches.into_iter().flatten());
        }
        seen.sort_unstable();
        assert_eq!(seen, sub);
    }
}
