//! A LINQ-flavoured query pipeline.
//!
//! The paper's monitoring query (§5.1):
//!
//! ```text
//! Qmonitor = Stream
//!   .Window(windowSize, period)
//!   .Where(e => e.errorCode != 0)
//!   .Aggregate(c => c.Quantile(0.5, 0.9, 0.99, 0.999))
//! ```
//!
//! translates here to:
//!
//! ```
//! use qlove_stream::{Pipeline, WindowSpec};
//! use qlove_stream::ops::ExactQuantileOp;
//!
//! let results: Vec<Vec<u64>> = Pipeline::from_values(0u64..1000)
//!     .filter(|&v| v % 7 != 0)                 // .Where(...)
//!     .sliding(
//!         WindowSpec::sliding(100, 50),        // .Window(size, period)
//!         ExactQuantileOp::new(&[0.5, 0.99]),  // .Aggregate(quantiles)
//!     )
//!     .collect();
//! assert!(!results.is_empty());
//! ```
//!
//! # Batched execution
//!
//! The pipeline's window stages are backed by the same executors as
//! everything else ([`SlidingWindow`], [`TumblingWindow`]), which also
//! expose a batched ingestion path (`push_batch`). Its contract: a
//! batch is **split at every evaluation boundary**, each span between
//! boundaries is folded with
//! [`crate::aggregate::IncrementalAggregate::accumulate_batch`], and
//! the emitted results equal the per-element path answer-for-answer —
//! provided the operator's accumulate/deaccumulate are
//! order-insensitive between boundaries (true of every multiset- or
//! sum-like operator here).

use crate::aggregate::IncrementalAggregate;
use crate::event::Event;
use crate::window::{SlidingWindow, TumblingWindow, WindowSpec};

/// A lazily-evaluated stream of events flowing toward a windowed
/// aggregate. Thin wrapper over an iterator so that arbitrarily many
/// `filter`/`map` stages compose without boxing.
pub struct Pipeline<I> {
    source: I,
}

impl<V, I: Iterator<Item = Event<V>>> Pipeline<I> {
    /// Start a pipeline from an event iterator.
    pub fn new(source: I) -> Self {
        Self { source }
    }

    /// `Where`: keep events whose payload satisfies the predicate.
    pub fn filter<F: FnMut(&V) -> bool>(
        self,
        mut pred: F,
    ) -> Pipeline<impl Iterator<Item = Event<V>>> {
        Pipeline {
            source: self.source.filter(move |e| pred(&e.value)),
        }
    }

    /// `Select`: transform payloads.
    pub fn map<U, F: FnMut(V) -> U>(self, mut f: F) -> Pipeline<impl Iterator<Item = Event<U>>> {
        Pipeline {
            source: self.source.map(move |e| e.map(&mut f)),
        }
    }

    /// `Window(size, period).Aggregate(op)` over a sliding window;
    /// returns an iterator of per-evaluation results.
    pub fn sliding<A>(self, spec: WindowSpec, op: A) -> impl Iterator<Item = A::Output>
    where
        A: IncrementalAggregate<Input = V>,
        V: Clone,
    {
        let mut w = SlidingWindow::new(op, spec);
        self.source.filter_map(move |e| w.push(e.value))
    }

    /// `Window(size).Aggregate(op)` over a tumbling window.
    pub fn tumbling<A>(self, size: usize, op: A) -> impl Iterator<Item = A::Output>
    where
        A: IncrementalAggregate<Input = V>,
    {
        let mut w = TumblingWindow::new(op, size);
        self.source.filter_map(move |e| w.push(e.value))
    }
}

impl<V> Pipeline<std::iter::Empty<Event<V>>> {
    /// Start a pipeline from plain values, assigning sequential
    /// timestamps.
    pub fn from_values<J: IntoIterator<Item = V>>(
        values: J,
    ) -> Pipeline<impl Iterator<Item = Event<V>>> {
        Pipeline {
            source: crate::event::sequence(values),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{CountOp, MeanOp};

    #[test]
    fn filter_then_tumbling_mean() {
        let out: Vec<Option<f64>> = Pipeline::from_values((1..=20).map(f64::from))
            .filter(|&v| v <= 8.0)
            .tumbling(4, MeanOp)
            .collect();
        // Values 1..=8 pass; two windows of four.
        assert_eq!(out, vec![Some(2.5), Some(6.5)]);
    }

    #[test]
    fn map_transforms_payloads() {
        let out: Vec<u64> = Pipeline::from_values(0..12u64)
            .map(|v| (v * 2) as f64)
            .tumbling(6, CountOp)
            .collect();
        assert_eq!(out, vec![6, 6]);
    }

    #[test]
    fn qmonitor_shape_compiles_and_runs() {
        use crate::ops::ExactQuantileOp;
        let results: Vec<Vec<u64>> = Pipeline::from_values(0u64..500)
            .filter(|&v| v % 10 != 0) // "errorCode != 0"
            .sliding(WindowSpec::sliding(90, 45), ExactQuantileOp::new(&[0.5]))
            .collect();
        assert!(results.len() >= 2);
        for r in &results {
            assert_eq!(r.len(), 1);
        }
    }
}
