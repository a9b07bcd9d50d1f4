//! # qlove-stream — a minimal incremental streaming engine
//!
//! The paper implements QLOVE inside Microsoft's Trill streaming engine
//! (§2, §5). Trill is closed-source C#, so this crate provides the
//! substrate QLOVE actually needs from it, with the same contract:
//!
//! * an **incremental evaluation** model (§2) where an operator is four
//!   functions — `InitialState`, `Accumulate`, `Deaccumulate`,
//!   `ComputeResult` — captured by [`IncrementalAggregate`];
//! * **tumbling** and **sliding** count-based windows (§2's windowing
//!   models) driven by [`TumblingWindow`] and [`SlidingWindow`]
//!   executors, the latter invoking `Deaccumulate` for every expiring
//!   element exactly as Trill does;
//! * **event-time windows** ([`time_window`]) — §2's "evaluate the query
//!   every one minute for the elements seen last one hour";
//! * a small LINQ-flavoured [`pipeline`] layer so the paper's query
//!   `Stream.Window(size, period).Where(pred).Aggregate(quantiles)`
//!   (§5.1, `Qmonitor`) can be written almost verbatim in Rust;
//! * a [`parallel`] module: a distributed executor
//!   ([`parallel::run_distributed`]) that answers one logical window
//!   from N ingestion shards by merging sub-window summaries (§7's
//!   distributed-computing extension), on the double-buffered merge
//!   core ([`parallel::coordinate_pipelined`]) the socket transport
//!   shares.
//!
//! Window-size/period semantics follow the paper: a query over windows of
//! `N` elements evaluated every `K` insertions; tumbling means `N == K`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod event;
pub mod ops;
pub mod parallel;
pub mod pipeline;
pub mod policy;
pub mod time_window;
pub mod window;

pub use aggregate::IncrementalAggregate;
pub use event::Event;
pub use parallel::{
    coordinate_pipelined, run_distributed, run_distributed_with_stats, PipelineStats,
    ShardAccumulator, SummaryMerge,
};
pub use pipeline::Pipeline;
pub use policy::QuantilePolicy;
pub use time_window::{TimeSlidingWindow, TimeWindowSpec, TimedResult};
pub use window::{SlidingWindow, TumblingWindow, WindowSpec};
