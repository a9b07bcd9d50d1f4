//! Deterministic differential harness for the distributed-window
//! executor: `run_distributed` vs the sequential single-instance
//! operator vs the sliding-window exact baseline, on the same seeds.
//!
//! Two layers of agreement are locked down:
//!
//! * **Exact layer** — distributed QLOVE answers must be *bit-identical*
//!   to the sequential `Qlove` run (values, `AnswerSource` provenance,
//!   bounds, burst flags), for every shard count, including stream
//!   lengths that are not multiples of the channel `BATCH` and window
//!   boundaries that fall mid-batch.
//! * **ε layer** — those answers must track the exact sliding-window
//!   quantiles, computed by the sequential sliding executor, within the
//!   configured per-φ relative-error bounds.

use qlove::core::{AnswerSource, Backend, FewKConfig, Qlove, QloveAnswer, QloveConfig, QloveShard};
use qlove::stream::ops::ExactQuantileOp;
use qlove::stream::parallel::BATCH;
use qlove::stream::{
    run_distributed, run_distributed_with_stats, ShardAccumulator, SlidingWindow, SummaryMerge,
    WindowSpec,
};
use qlove::workloads::NormalGen;

const WINDOW: usize = 8_000;
const PERIOD: usize = 1_000;
const PHIS: [f64; 3] = [0.5, 0.9, 0.999];
/// Relative value-error budget per φ (percent) against the exact
/// window quantiles: generous multiples of what §5.2/§5.3 report for
/// this window shape on Normal data.
const EPS_PCT: [f64; 3] = [2.5, 2.5, 5.0];

/// Table-3 half-budget top-k configuration: at this window shape
/// `P(1−φ) = 1 < Ts`, so Q0.999 exercises the top-k pipeline and the
/// differential covers non-Level2 provenance. Parameterized over the
/// Level-1 store backend: every differential below must hold for both.
fn config_for(backend: Backend) -> QloveConfig {
    QloveConfig::new(&PHIS, WINDOW, PERIOD)
        .fewk(Some(FewKConfig::with_fractions(0.5, 0.0)))
        .backend(backend)
}

const BACKENDS: [Backend; 2] = [Backend::Tree, Backend::Dense];

fn sequential_qlove(cfg: &QloveConfig, data: &[u64]) -> (Vec<QloveAnswer>, Qlove) {
    let mut op = Qlove::new(cfg.clone());
    let answers = data.iter().filter_map(|&v| op.push_detailed(v)).collect();
    (answers, op)
}

fn distributed_qlove(cfg: &QloveConfig, data: &[u64], shards: usize) -> (Vec<QloveAnswer>, Qlove) {
    let mut coordinator = Qlove::new(cfg.clone());
    let answers = run_distributed(
        || QloveShard::new(cfg),
        &mut coordinator,
        cfg.period,
        data,
        shards,
    );
    (answers, coordinator)
}

/// Exact per-evaluation window quantiles via the sequential sliding
/// executor.
fn exact_sequential(data: &[u64]) -> Vec<Vec<u64>> {
    let spec = WindowSpec::sliding(WINDOW, PERIOD);
    let mut w = SlidingWindow::new(ExactQuantileOp::new(&PHIS), spec);
    data.iter().filter_map(|&v| w.push(v)).collect()
}

#[test]
fn distributed_is_bit_identical_to_sequential_qlove() {
    for (backend, seed) in BACKENDS.iter().flat_map(|&b| [1u64, 2, 3].map(|s| (b, s))) {
        let cfg = config_for(backend);
        // Not a multiple of BATCH (4096), and PERIOD does not divide
        // BATCH — every sub-window boundary falls mid-batch, and the
        // final batch is short. A trailing partial sub-window is left
        // pending.
        let n = 3 * BATCH + 1_234;
        let data = NormalGen::generate(seed, n);
        let (want, single) = sequential_qlove(&cfg, &data);
        assert!(want.len() >= 5, "seed {seed}: too few evaluations");
        for shards in [1usize, 2, 4, 5] {
            let (got, coordinator) = distributed_qlove(&cfg, &data, shards);
            assert_eq!(got, want, "{backend:?} seed {seed} shards {shards}");
            assert_eq!(
                coordinator.pending(),
                single.pending(),
                "{backend:?} seed {seed} shards {shards}: trailing partial sub-window"
            );
            assert_eq!(coordinator.pending(), n % PERIOD);
        }
    }
}

#[test]
fn distributed_provenance_is_preserved_and_exercised() {
    for backend in BACKENDS {
        let cfg = config_for(backend);
        let data = NormalGen::generate(5, 2 * BATCH + 7_777);
        let (want, _) = sequential_qlove(&cfg, &data);
        let (got, _) = distributed_qlove(&cfg, &data, 4);
        let seq_sources: Vec<_> = want.iter().flat_map(|a| a.sources.clone()).collect();
        let dist_sources: Vec<_> = got.iter().flat_map(|a| a.sources.clone()).collect();
        assert_eq!(dist_sources, seq_sources, "{backend:?}");
        // The differential is only meaningful if it covers a repaired
        // pipeline, not just Level 2: Q0.999 must route through top-k
        // here.
        assert!(
            dist_sources.contains(&AnswerSource::TopK),
            "{backend:?}: top-k provenance never appeared"
        );
        assert!(dist_sources.contains(&AnswerSource::Level2), "{backend:?}");
    }
}

#[test]
fn sequential_exact_window_anchors_the_epsilon_layer() {
    for seed in [11u64, 12] {
        let n = 2 * BATCH + 9_123;
        let data = NormalGen::generate(seed, n);
        let exact = exact_sequential(&data);

        // Distributed QLOVE tracks the exact window within the
        // configured ε per φ, whichever backend holds Level-1 state.
        for backend in BACKENDS {
            let cfg = config_for(backend);
            let (answers, _) = distributed_qlove(&cfg, &data, 4);
            assert_eq!(answers.len(), exact.len(), "seed {seed}: schedule drift");
            for (eval, (got, truth)) in answers.iter().zip(&exact).enumerate() {
                for (i, (&approx, &exact_v)) in got.values.iter().zip(truth).enumerate() {
                    let rel = ((approx as f64 - exact_v as f64) / exact_v as f64).abs() * 100.0;
                    assert!(
                        rel <= EPS_PCT[i],
                        "{backend:?} seed {seed} eval {eval} phi {}: {rel:.2}% > {}%",
                        PHIS[i],
                        EPS_PCT[i]
                    );
                }
            }
        }
    }
}

/// Frozen verbatim copy of the pre-pipelining `run_distributed`
/// coordinator loop: boundary-synchronous, merging each group on the
/// collecting thread before receiving the next (channels via
/// `std::sync::mpsc::sync_channel`, the same primitive the executor
/// uses). The double-buffered refactor must stay bit-identical
/// to this executor, not just to the sequential operator.
fn frozen_run_distributed<S, C, F>(
    make_shard: F,
    coordinator: &mut C,
    period: usize,
    values: &[S::Input],
    shards: usize,
) -> Vec<C::Output>
where
    S: ShardAccumulator,
    S::Input: Clone + Sync,
    S::Summary: Send,
    C: SummaryMerge<Summary = S::Summary>,
    F: Fn() -> S + Sync,
{
    assert!(shards > 0, "need at least one shard");
    assert!(period > 0, "need a positive sub-window period");
    let boundaries = values.len().div_ceil(period);
    std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = std::sync::mpsc::sync_channel::<S::Summary>(4);
            receivers.push(rx);
            let make_shard = &make_shard;
            scope.spawn(move || {
                let mut op = make_shard();
                let mut batch: Vec<S::Input> = Vec::with_capacity(BATCH.min(period));
                for (w, sub) in values.chunks(period).enumerate() {
                    let start = w * period;
                    let first = (shard + shards - start % shards) % shards;
                    for v in sub.iter().skip(first).step_by(shards) {
                        batch.push(v.clone());
                        if batch.len() == BATCH {
                            op.ingest_batch(&batch);
                            batch.clear();
                        }
                    }
                    if !batch.is_empty() {
                        op.ingest_batch(&batch);
                        batch.clear();
                    }
                    if tx.send(op.take_summary()).is_err() {
                        return;
                    }
                }
            });
        }
        let mut out = Vec::new();
        for _ in 0..boundaries {
            for rx in &receivers {
                let summary = rx.recv().expect("shard thread ended early");
                if let Some(answer) = coordinator.merge_summary(&summary) {
                    out.push(answer);
                }
            }
        }
        out
    })
}

#[test]
fn pipelined_executor_is_bit_identical_to_frozen_boundary_synchronous() {
    // The double-buffered coordinator refactor vs the frozen pre-PR
    // executor: answers, trailing pending state, and stats shape.
    for backend in BACKENDS {
        let cfg = config_for(backend);
        let n = 2 * BATCH + 3_333;
        let data = NormalGen::generate(17, n);
        for shards in [1usize, 3, 5] {
            let mut frozen_coord = Qlove::new(cfg.clone());
            let want = frozen_run_distributed(
                || QloveShard::new(&cfg),
                &mut frozen_coord,
                cfg.period,
                &data,
                shards,
            );
            assert!(!want.is_empty());
            let mut coord = Qlove::new(cfg.clone());
            let (got, stats) = run_distributed_with_stats(
                || QloveShard::new(&cfg),
                &mut coord,
                cfg.period,
                &data,
                shards,
            );
            assert_eq!(got, want, "{backend:?} shards {shards}");
            assert_eq!(coord.pending(), frozen_coord.pending());
            assert_eq!(stats.boundaries, n.div_ceil(cfg.period));
            assert!(stats.merge_ns > 0);
        }
    }
}

#[test]
fn distributed_edge_shapes() {
    for backend in BACKENDS {
        let cfg = config_for(backend);
        // Stream shorter than the window: no answers anywhere, pending
        // state still mirrored.
        let short = NormalGen::generate(21, WINDOW - 500);
        let (want, single) = sequential_qlove(&cfg, &short);
        assert!(want.is_empty());
        let (got, coordinator) = distributed_qlove(&cfg, &short, 3);
        assert!(got.is_empty());
        assert_eq!(coordinator.pending(), single.pending());
        assert_eq!(coordinator.live_subwindows(), single.live_subwindows());

        // Empty stream.
        let mut coordinator = Qlove::new(cfg.clone());
        let got = run_distributed(
            || QloveShard::new(&cfg),
            &mut coordinator,
            cfg.period,
            &[],
            4,
        );
        assert!(got.is_empty());
        assert_eq!(coordinator.pending(), 0);
    }

    // More shards than elements per sub-window slice is still exact.
    let tiny_cfg = QloveConfig::new(&[0.5], 40, 10);
    let tiny = NormalGen::generate(23, 97);
    let mut single = Qlove::new(tiny_cfg.clone());
    let want: Vec<QloveAnswer> = tiny
        .iter()
        .filter_map(|&v| single.push_detailed(v))
        .collect();
    let mut coordinator = Qlove::new(tiny_cfg.clone());
    let got = run_distributed(
        || QloveShard::new(&tiny_cfg),
        &mut coordinator,
        tiny_cfg.period,
        &tiny,
        16,
    );
    assert_eq!(got, want);
}
