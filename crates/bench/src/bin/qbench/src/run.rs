//! One workload's run, inside the child process: its phases in order,
//! with every pass and metric reported as one JSON line.
//!
//! Untraced run: input and oracle, accuracy and space, then set-ups
//! (each a fresh system plus a full warm-up pass), then timed passes
//! until the time budget is spent. Traced run: untraced and traced
//! end-to-end passes alternately (their difference is the tracing
//! overhead), then the sequential twin, the staged pass and the
//! in-process twin, from which the per-layer metrics are derived.

use crate::report::{median, percentile, unit_of};
use crate::trace::{self, Span, Tracer};
use crate::workload::{
    Bench, Pass, StagedCounts, Workload, BOUNDARY_CALL, INGEST_CALL, PROBE_EVENTS, ROOT_TWIN,
};
use qlove_core::AnswerSource;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: u32 = 5;
/// Fewest timed passes (and, traced, pairs of passes) per run.
const MIN_PASSES: usize = 5;
/// Traced end-to-end passes whose spans are kept. Later traced passes
/// still record theirs, so they pay the tracing cost, but drop them:
/// a sequential pass makes 32K spans.
const KEPT_TRACED_PASSES: u32 = 2;
/// Unsupervised passes the transport probe makes.
const PROBE_PASSES: u32 = 20;
/// Offered rate of the open-loop latency run, values per second.
const OPEN_LOOP_RATE: f64 = 20e6;

pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub events: usize,
    /// Also measure open-loop answer latency (netmon-fig4 only).
    pub open_loop: bool,
    /// Where a traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

struct Emitter<'a> {
    emit: &'a mut dyn FnMut(String),
}

impl Emitter<'_> {
    fn phase(&mut self, name: &str, started: Instant) {
        let secs = started.elapsed().as_secs_f64();
        (self.emit)(format!("{{\"phase\": \"{name}\", \"seconds\": {secs}}}"));
    }

    /// Report one pass; returns it when it succeeded with bit-identical
    /// answers. `seconds` picks the time the pass record carries.
    fn pass(
        &mut self,
        kind: &str,
        events: usize,
        seconds: impl Fn(&Pass) -> f64,
        result: io::Result<Pass>,
    ) -> Option<Pass> {
        let (ok, secs) = match &result {
            Ok(p) if p.matches => (true, seconds(p)),
            Ok(p) => {
                eprintln!("qbench: {kind} pass: answers differ from the reference");
                (false, seconds(p))
            }
            Err(e) => {
                eprintln!("qbench: {kind} pass failed: {e}");
                (false, 0.0)
            }
        };
        (self.emit)(format!(
            "{{\"pass\": \"{kind}\", \"ok\": {ok}, \"events\": {events}, \"seconds\": {secs}}}"
        ));
        result.ok().filter(|p| p.matches)
    }

    fn metric(&mut self, name: &str, samples: &[f64]) {
        unit_of(name); // every emitted name must be a known metric
        let samples: Vec<String> = samples.iter().map(|&s| crate::report::num(s)).collect();
        (self.emit)(format!(
            "{{\"metric\": \"{name}\", \"samples\": [{}]}}",
            samples.join(", ")
        ));
    }
}

fn run_s(p: &Pass) -> f64 {
    p.run.as_secs_f64()
}

fn rate(events: usize, p: &Pass) -> f64 {
    events as f64 / p.run.as_secs_f64() / 1e6
}

/// Run one workload, reporting through `emit`; the last line reports
/// that the run finished.
pub fn run_phases(opts: &RunOptions, emit: &mut dyn FnMut(String)) {
    let mut out = Emitter { emit };
    let started = Instant::now();
    let bench = Bench::new(opts.workload, opts.seed, opts.events);
    out.phase("input", started);
    if opts.trace {
        traced(opts, &bench, &mut out);
    } else {
        untraced(opts, &bench, &mut out);
    }
    (out.emit)("{\"done\": true}".to_string());
}

fn untraced(opts: &RunOptions, bench: &Bench, out: &mut Emitter<'_>) {
    let events = bench.events();
    let started = Instant::now();
    let (value_err, space) = bench.accuracy();
    out.phase("accuracy", started);
    out.metric("value_err_pct", &[value_err]);
    out.metric("space_vars", &[space]);

    let mut off = Tracer::new(false);
    for id in 0..SETUP_REPEATS {
        let setup = |p: &Pass| (p.setup + p.run).as_secs_f64();
        out.pass("setup", events, setup, bench.end_to_end(&mut off, id));
    }
    let started = Instant::now();
    let mut id = SETUP_REPEATS;
    while (id - SETUP_REPEATS) < MIN_PASSES as u32 || started.elapsed().as_secs_f64() < opts.seconds
    {
        out.pass("timed", events, run_s, bench.end_to_end(&mut off, id));
        id += 1;
    }

    if opts.open_loop {
        let open = bench.open_loop(OPEN_LOOP_RATE);
        let pass = Pass {
            matches: open.matches,
            ..Pass::default()
        };
        out.pass(
            "openloop",
            events,
            |_| events as f64 / OPEN_LOOP_RATE,
            Ok(pass),
        );
        out.metric(
            "openloop.answer_p50_us",
            &[percentile(&open.answer_us, 0.5)],
        );
        out.metric(
            "openloop.answer_p99_us",
            &[percentile(&open.answer_us, 0.99)],
        );
        out.metric("openloop.gen_late_max_us", &[open.gen_late_max_us]);
    }
}

fn traced(opts: &RunOptions, bench: &Bench, out: &mut Emitter<'_>) {
    let events = bench.events();
    let mut off = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    out.pass("warmup", events, run_s, bench.end_to_end(&mut off, 0));

    // Alternate untraced and traced passes so drift hits both alike.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut e2e_passes = 1u32; // the warm-up
    let started = Instant::now();
    let mut id = 1;
    while (id as usize) <= MIN_PASSES || started.elapsed().as_secs_f64() < opts.seconds {
        if let Some(p) = out.pass("untraced", events, run_s, bench.end_to_end(&mut off, id)) {
            untraced.push(rate(events, &p));
        }
        let recorded = tracer.spans().len();
        if let Some(p) = out.pass("traced", events, run_s, bench.end_to_end(&mut tracer, id)) {
            traced.push(rate(events, &p));
        }
        if id > KEPT_TRACED_PASSES {
            tracer.truncate(recorded);
        }
        e2e_passes += 2;
        id += 1;
    }
    // Before the twins below, some of which feed the same registry.
    telemetry_metrics(out, e2e_passes);

    let twin = bench.sequential(bench.twin_batch(), &mut tracer, id, ROOT_TWIN);
    out.pass("twin", events, run_s, Ok(twin));
    let staged = bench.staged(&mut tracer, id);
    let counts = staged.as_ref().map(|(_, c)| *c).unwrap_or_default();
    out.pass("staged", events, run_s, staged.map(|(p, _)| p));
    let (inproc, stats) = bench.in_process();
    out.pass("inproc", events, run_s, Ok(inproc));

    let spans = tracer.spans();
    let acc = trace::account(spans);
    staged_metrics(out, &acc, counts);
    core_metrics(out, spans, bench);

    let inproc_rate = rate(events, &inproc);
    let wall = stats.wall_ns.max(1) as f64;
    out.metric("stream.inproc_melems", &[inproc_rate]);
    out.metric("stream.merge_busy_share", &[stats.merge_ns as f64 / wall]);
    out.metric("stream.collect_share", &[stats.collect_ns as f64 / wall]);
    out.metric(
        "transport.overhead_share",
        &[1.0 - median(&untraced) / inproc_rate],
    );

    let name = opts.workload.name();
    let mut unaccounted = 0u64;
    let mut wall = 0u64;
    for (root, id) in &acc.identity {
        eprintln!(
            "{name}: {root}: Σ self {:.3} s + unaccounted {:.3} s = wall {:.3} s (unaccounted {:.2}%)",
            id.layer_self_ns as f64 / 1e9,
            id.unaccounted_ns as f64 / 1e9,
            id.wall_ns as f64 / 1e9,
            id.unaccounted_ns as f64 / id.wall_ns.max(1) as f64 * 100.0,
        );
        unaccounted += id.unaccounted_ns;
        wall += id.wall_ns;
    }
    for (span, ns) in &acc.self_ns {
        eprintln!(
            "{name}:   {span:<36} self {:9.3} ms over {} calls",
            *ns as f64 / 1e6,
            acc.calls[span]
        );
    }
    let overhead = (median(&untraced) - median(&traced)) / median(&untraced) * 100.0;
    out.metric("trace.overhead_pct", &[overhead]);
    out.metric(
        "trace.unaccounted_share",
        &[unaccounted as f64 / wall.max(1) as f64],
    );
    eprintln!(
        "{name}: trace.overhead_pct {overhead:.2}% ({} untraced vs {} traced passes)",
        untraced.len(),
        traced.len()
    );

    if let Some(path) = &opts.trace_out {
        if let Err(e) = std::fs::write(path, trace::to_json(name, spans)) {
            eprintln!("qbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Per-layer costs of the staged pass: self time per call over the
/// work the call did.
fn staged_metrics(out: &mut Emitter<'_>, acc: &trace::Accounting, c: StagedCounts) {
    let per = |total: f64, base: u64| total / base.max(1) as f64;
    let self_ns = |span: &str| acc.self_ns.get(span).copied().unwrap_or(0) as f64;
    let per_event = |span: &str| per(self_ns(span), c.events);
    let per_pair = |span: &str| per(self_ns(span), c.pairs);
    out.metric(
        "freqstore.ingest_ns_per_event",
        &[per_event("freqstore.push_batch")],
    );
    out.metric(
        "freqstore.extract_ns_per_pair",
        &[per_pair("freqstore.take_summary")],
    );
    out.metric(
        "freqstore.fold_ns_per_pair",
        &[per_pair("freqstore.merge_sorted_counts")],
    );
    out.metric(
        "freqstore.pairs_per_summary",
        &[per(c.pairs as f64, c.summaries)],
    );
    out.metric("freqstore.store_bytes", &[c.store_bytes as f64]);
    out.metric(
        "wire.bytes_per_summary",
        &[per(c.summary_bytes as f64, c.summaries)],
    );
    out.metric("wire.encode_ns_per_pair", &[per_pair("wire.to_bytes")]);
    out.metric("wire.decode_ns_per_pair", &[per_pair("wire.from_bytes")]);
    out.metric(
        "transport.batch_encode_ns_per_event",
        &[per_event("transport.write_frame")],
    );
    out.metric(
        "transport.batch_decode_ns_per_event",
        &[per_event("transport.read_frame")],
    );
    out.metric(
        "transport.bytes_per_event",
        &[per(c.frame_bytes as f64, c.events)],
    );
    out.metric(
        "transport.frames_per_boundary",
        &[per(c.batch_frames as f64, c.summaries)],
    );
}

/// Boundary cost from the sequential twin (each boundary call minus the
/// median plain call of the same slice size), and the oracle's answer
/// counts by source.
fn core_metrics(out: &mut Emitter<'_>, spans: &[Span], bench: &Bench) {
    let twin_calls = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_some_and(|p| spans[p].name == ROOT_TWIN))
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    };
    let plain = twin_calls(INGEST_CALL);
    let boundary = twin_calls(BOUNDARY_CALL);
    let base = median(&plain);
    let excess: Vec<f64> = boundary.iter().map(|us| us - base).collect();
    let all_calls: f64 = plain.iter().chain(&boundary).sum();
    out.metric("core.boundary_us_p50", &[percentile(&excess, 0.5)]);
    out.metric("core.boundary_us_p99", &[percentile(&excess, 0.99)]);
    out.metric(
        "core.boundary_share",
        &[excess.iter().sum::<f64>() / all_calls],
    );

    let answers = bench.reference().iter().flatten();
    let sources = |src: AnswerSource| {
        answers
            .clone()
            .flat_map(|a| &a.sources)
            .filter(|&&s| s == src)
            .count() as f64
    };
    out.metric("core.answers", &[answers.clone().count() as f64]);
    out.metric("core.src_level2", &[sources(AnswerSource::Level2)]);
    out.metric("core.src_topk", &[sources(AnswerSource::TopK)]);
    out.metric("core.src_samplek", &[sources(AnswerSource::SampleK)]);
    out.metric(
        "core.bursty_answers",
        &[answers.clone().filter(|a| a.bursty).count() as f64],
    );
}

/// What the process-wide metrics registry shows after the end-to-end
/// passes: the merge-latency histogram of the pipelined socket
/// coordinator, and the summary bytes it collected per pass. Only
/// `run_supervised` (netmon-uds2) feeds them; on the other workloads
/// they stay empty and are not reported.
fn telemetry_metrics(out: &mut Emitter<'_>, e2e_passes: u32) {
    let snapshot = qlove_telemetry::global_metrics().snapshot();
    if let Some((_, merge)) = snapshot
        .histograms
        .iter()
        .find(|(name, h)| name == "qlove_answer_merge_us" && h.count > 0)
    {
        let mean = merge.sum as f64 / merge.count as f64;
        out.metric("telemetry.answer_merge_us_mean", &[mean]);
        out.metric("telemetry.answer_merge_us_p50", &[merge.p50() as f64]);
        out.metric("telemetry.answer_merge_us_p99", &[merge.p99() as f64]);
    }
    let summary_bytes: u64 = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("qlove_summary_bytes_total"))
        .map(|(_, v)| v)
        .sum();
    if summary_bytes > 0 {
        out.metric(
            "telemetry.summary_bytes",
            &[summary_bytes as f64 / f64::from(e2e_passes)],
        );
    }
}

/// The unsupervised transport on the first [`PROBE_EVENTS`] of
/// netmon-uds2's input, [`PROBE_PASSES`] times: its deadlock strikes
/// about one pass in ten on a 2-CPU host, so a single pass would
/// mostly miss it.
pub fn run_probe(seed: u64, emit: &mut dyn FnMut(String)) {
    let mut out = Emitter { emit };
    let bench = Bench::new(Workload::NetmonUds2, seed, PROBE_EVENTS);
    let mut off = Tracer::new(false);
    for id in 0..PROBE_PASSES {
        out.pass(
            "probe",
            bench.events(),
            run_s,
            bench.over_uds(false, &mut off, id),
        );
    }
    (out.emit)("{\"done\": true}".to_string());
}
