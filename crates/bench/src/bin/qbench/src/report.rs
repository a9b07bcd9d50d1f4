//! Metric names and units, the order statistics reported for them,
//! the results file, and the comparison of two sets of results against
//! the bounds in `BENCHMARK.json`.

use qlove_bench::gate::{parse_json, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Where a metric is reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A user-visible metric of every workload, gated by a bound in
    /// `BENCHMARK.json`; measured with tracing off.
    EndToEnd,
    /// A per-layer metric of every workload, from the traced run.
    Layer,
    /// Recorded in `results.json` only: failure counts, answer
    /// invariants, and what only one workload measures.
    Report,
}

/// Every metric the benchmark records: name, unit, kind.
pub const METRICS: &[(&str, &str, Kind)] = &[
    ("throughput_melems", "Melem/s", Kind::EndToEnd),
    ("value_err_pct", "%", Kind::EndToEnd),
    ("space_vars", "count", Kind::EndToEnd),
    ("setup_s", "s", Kind::EndToEnd),
    ("failed_frac", "fraction", Kind::Report),
    ("freqstore.ingest_ns_per_event", "ns/event", Kind::Layer),
    ("freqstore.extract_ns_per_pair", "ns/pair", Kind::Layer),
    ("freqstore.fold_ns_per_pair", "ns/pair", Kind::Layer),
    ("freqstore.pairs_per_summary", "count", Kind::Layer),
    ("freqstore.store_bytes", "bytes", Kind::Layer),
    ("core.boundary_us_p50", "us", Kind::Layer),
    ("core.boundary_us_p99", "us", Kind::Layer),
    ("core.boundary_share", "fraction", Kind::Layer),
    ("core.answers", "count", Kind::Report),
    ("core.src_level2", "count", Kind::Report),
    ("core.src_topk", "count", Kind::Report),
    ("core.src_samplek", "count", Kind::Report),
    ("core.bursty_answers", "count", Kind::Report),
    ("wire.bytes_per_summary", "bytes", Kind::Layer),
    ("wire.encode_ns_per_pair", "ns/pair", Kind::Layer),
    ("wire.decode_ns_per_pair", "ns/pair", Kind::Layer),
    (
        "transport.batch_encode_ns_per_event",
        "ns/event",
        Kind::Layer,
    ),
    (
        "transport.batch_decode_ns_per_event",
        "ns/event",
        Kind::Layer,
    ),
    ("transport.bytes_per_event", "bytes/event", Kind::Layer),
    ("transport.frames_per_boundary", "count", Kind::Layer),
    ("transport.overhead_share", "fraction", Kind::Layer),
    ("transport.unsupervised_ok", "bool", Kind::Report),
    ("stream.inproc_melems", "Melem/s", Kind::Layer),
    ("stream.merge_busy_share", "fraction", Kind::Layer),
    ("stream.collect_share", "fraction", Kind::Layer),
    ("telemetry.answer_merge_us_mean", "us", Kind::Report),
    ("telemetry.answer_merge_us_p50", "us", Kind::Report),
    ("telemetry.answer_merge_us_p99", "us", Kind::Report),
    ("telemetry.summary_bytes", "bytes", Kind::Report),
    ("trace.overhead_pct", "%", Kind::Layer),
    ("trace.unaccounted_share", "fraction", Kind::Layer),
    ("openloop.answer_p50_us", "us", Kind::Report),
    ("openloop.answer_p99_us", "us", Kind::Report),
    ("openloop.gen_late_max_us", "us", Kind::Report),
];

/// Metrics the seed fixes: runs with one seed agree on them exactly, so
/// a change in them is a change of answers. `--compare` judges them by
/// exact equality when both sides ran with the same seeds.
pub const SEED_FIXED: &[&str] = &[
    "value_err_pct",
    "space_vars",
    "core.answers",
    "core.src_level2",
    "core.src_topk",
    "core.src_samplek",
    "core.bursty_answers",
];

/// Unit of a metric in [`METRICS`]; panics on a name missing there,
/// which is a bug in this program.
pub fn unit_of(name: &str) -> &'static str {
    METRICS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, unit, _)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not in METRICS"))
}

pub fn names_of(kind: Kind) -> impl Iterator<Item = &'static str> {
    METRICS
        .iter()
        .filter(move |(_, _, k)| *k == kind)
        .map(|&(name, _, _)| name)
}

/// Median; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles, by the method of Python's
/// `statistics.quantiles(values, n=4)` ("exclusive"). One value is its
/// own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentile `q` in [0, 1] by linear interpolation between closest
/// ranks; NaN when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A JSON number, or `null` for a value that is not finite.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Samples of one metric; its value is their median.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub unit: String,
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        let (q1, q3) = quartiles(&self.samples);
        let m = self.value();
        if m == 0.0 {
            if q3 == q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (q3 - q1) / m.abs()
        }
    }
}

/// One workload's outcome.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

impl WorkloadResult {
    /// Fold a second run of the same workload into this one.
    pub fn absorb(&mut self, other: WorkloadResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", vec![frac]);
    }

    pub fn set(&mut self, name: &str, samples: Vec<f64>) {
        self.metrics.insert(
            name.to_string(),
            Metric {
                unit: unit_of(name).to_string(),
                samples,
            },
        );
    }
}

/// `results.json`: run parameters, then per workload its pass counts and
/// every metric with its median, quartiles and samples.
pub fn results_json(
    seed: u64,
    seconds: f64,
    host_cpus: usize,
    results: &[WorkloadResult],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"benchmark\": \"qbench\", \"seed\": {seed}, \"seconds\": {}, \"host_cpus\": {host_cpus},",
        num(seconds)
    );
    out.push_str("\"workloads\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\n{{\"name\": \"{}\", \"attempted\": {}, \"failed\": {}, \"correct\": {}, \"metrics\": {{",
            r.workload,
            r.attempted,
            r.failed,
            r.failed == 0
        );
        for (j, (name, m)) in r.metrics.iter().enumerate() {
            let comma = if j == 0 { "" } else { "," };
            let (q1, q3) = quartiles(&m.samples);
            let samples: Vec<String> = m.samples.iter().map(|&s| num(s)).collect();
            let _ = write!(
                out,
                "{comma}\n  \"{name}\": {{\"value\": {}, \"unit\": \"{}\", \"q1\": {}, \"q3\": {}, \"samples\": [{}]}}",
                num(m.value()),
                m.unit,
                num(q1),
                num(q3),
                samples.join(", ")
            );
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// One results file, or several pooled: the seeds they ran with, and the
/// samples of every metric per workload and metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Results {
    pub seeds: Vec<u64>,
    pub metrics: BTreeMap<(String, String), Metric>,
}

/// Read the seed and the samples of every metric per workload out of a
/// results file.
pub fn read_results(text: &str) -> Result<Results, String> {
    let doc = parse_json(text)?;
    let seed = doc.get("seed").and_then(Json::as_num).ok_or("no seed")?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("no workloads array")?;
    let mut out = BTreeMap::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?;
        let Some(Json::Obj(metrics)) = w.get("metrics") else {
            return Err(format!("{name}: no metrics object"));
        };
        for (metric, body) in metrics {
            let unit = body
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let samples = body
                .get("samples")
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("{name}.{metric}: no samples"))?
                .iter()
                .filter_map(Json::as_num)
                .collect();
            out.insert((name.to_string(), metric.clone()), Metric { unit, samples });
        }
    }
    Ok(Results {
        seeds: vec![seed as u64],
        metrics: out,
    })
}

/// A bound from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<BTreeMap<String, Bound>, String> {
    let doc = parse_json(text)?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end array")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without bound")?;
            Ok((
                name.to_string(),
                Bound {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread of either side is wider than the bound.
    Unresolved,
    /// No bound: reported, not judged.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Whether `--compare` judges metric `name` by exact equality: it is
/// fixed by the seed, and both sides ran with the same seeds, so their
/// samples pair up seed by seed.
pub fn judged_exactly(name: &str, a: &Metric, b: &Metric, same_seeds: bool) -> bool {
    same_seeds && SEED_FIXED.contains(&name) && a.samples.len() == b.samples.len()
}

/// Judge B against A. A metric fixed by the seed, with the same seeds on
/// both sides, regresses on any change for the worse of any sample; one
/// without a direction (an answer count) on any change at all. Other
/// bounded metrics regress when B's median is worse than A's by more
/// than the bound, and are unresolved when the spread of either side is
/// wider than the bound. Any rise of `failed_frac` is a regression.
pub fn verdict(
    name: &str,
    a: &Metric,
    b: &Metric,
    bounds: &BTreeMap<String, Bound>,
    same_seeds: bool,
) -> Verdict {
    if name == "failed_frac" {
        return if b.value() > a.value() {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    if judged_exactly(name, a, b, same_seeds) {
        let mut pairs = a.samples.iter().zip(&b.samples);
        let changed = match bounds.get(name) {
            Some(bound) if bound.higher_is_better => pairs.any(|(a, b)| b < a),
            Some(_) => pairs.any(|(a, b)| b > a),
            None => pairs.any(|(a, b)| b != a),
        };
        return if changed {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let Some(bound) = bounds.get(name) else {
        return Verdict::Info;
    };
    if a.spread().max(b.spread()) > bound.bound {
        return Verdict::Unresolved;
    }
    let (a, b) = (a.value(), b.value());
    let worse = if bound.higher_is_better { a - b } else { b - a };
    if worse > bound.bound * a.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Pool several results files run by run: per workload and metric, one
/// sample per file, its median. So a pooled metric's value is the median
/// of the runs and its spread the run-to-run spread, while one file
/// keeps the samples of its passes. Files are taken in the order of
/// their seeds, so two pools of the same seeds pair up run by run.
pub fn pool(mut files: Vec<Results>) -> Results {
    if files.len() == 1 {
        return files.remove(0);
    }
    files.sort_by(|x, y| x.seeds.cmp(&y.seeds));
    let mut out = Results::default();
    for file in files {
        out.seeds.extend(file.seeds);
        for (key, m) in file.metrics {
            out.metrics
                .entry(key)
                .or_insert_with(|| Metric {
                    unit: m.unit.clone(),
                    samples: Vec::new(),
                })
                .samples
                .push(m.value());
        }
    }
    out
}

/// The comparison table: per workload and metric present on both
/// sides, the two medians, the delta, the wider spread, and the
/// verdict. Returns the table and whether anything regressed.
pub fn compare(a: &Results, b: &Results, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let same_seeds = a.seeds == b.seeds;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "A seeds {:?}, B seeds {:?}: metrics fixed by the seed are judged {}",
        a.seeds,
        b.seeds,
        if same_seeds {
            "exactly"
        } else {
            "by their bounds"
        }
    );
    let _ = writeln!(
        out,
        "{:<12} {:<38} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "delta", "spread", "bound"
    );
    let mut regressed = false;
    for ((workload, name), ma) in &a.metrics {
        let Some(mb) = b.metrics.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let v = verdict(name, ma, mb, bounds, same_seeds);
        regressed |= v == Verdict::Regressed;
        let (va, vb) = (ma.value(), mb.value());
        let delta = if va == vb {
            "0.0%".to_string()
        } else if va == 0.0 {
            "new".to_string()
        } else {
            format!("{:+.1}%", (vb - va) / va.abs() * 100.0)
        };
        let bound = if judged_exactly(name, ma, mb, same_seeds) {
            "exact".to_string()
        } else {
            bounds
                .get(name)
                .map_or("-".to_string(), |b| format!("{:.0}%", b.bound * 100.0))
        };
        let _ = writeln!(
            out,
            "{workload:<12} {name:<38} {va:>14.4} {vb:>14.4} {delta:>9} {:>7.1}% {bound:>6}  {}",
            ma.spread().max(mb.spread()) * 100.0,
            v.label()
        );
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(samples: &[f64]) -> Metric {
        Metric {
            unit: "x".into(),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[1.0, 5.0, 2.0, 4.0]), 3.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(percentile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let bounds: BTreeMap<String, Bound> = [
            (
                "rate".to_string(),
                Bound {
                    higher_is_better: true,
                    bound: 0.1,
                },
            ),
            (
                "cost".to_string(),
                Bound {
                    higher_is_better: false,
                    bound: 0.1,
                },
            ),
        ]
        .into_iter()
        .collect();
        let judge = |name, a: &Metric, b: &Metric| verdict(name, a, b, &bounds, true);
        let base = metric(&[100.0, 100.0, 100.0]);
        assert_eq!(judge("rate", &base, &metric(&[95.0; 3])), Verdict::Ok);
        assert_eq!(
            judge("rate", &base, &metric(&[85.0; 3])),
            Verdict::Regressed
        );
        assert_eq!(judge("cost", &base, &metric(&[85.0; 3])), Verdict::Ok);
        assert_eq!(
            judge("cost", &base, &metric(&[115.0; 3])),
            Verdict::Regressed
        );
        let noisy = metric(&[60.0, 100.0, 140.0, 80.0, 120.0]);
        assert_eq!(judge("rate", &base, &noisy), Verdict::Unresolved);
        assert_eq!(judge("other", &base, &base), Verdict::Info);
        assert_eq!(
            judge("failed_frac", &metric(&[0.0]), &metric(&[0.1])),
            Verdict::Regressed
        );
    }

    #[test]
    fn metrics_fixed_by_the_seed_are_judged_exactly_on_the_same_seeds() {
        let bounds: BTreeMap<String, Bound> = [
            (
                "value_err_pct".to_string(),
                Bound {
                    higher_is_better: false,
                    bound: 0.25,
                },
            ),
            (
                "space_vars".to_string(),
                Bound {
                    higher_is_better: false,
                    bound: 0.02,
                },
            ),
        ]
        .into_iter()
        .collect();
        let err = metric(&[13.9355, 2.8524]);
        let tiny_rise = metric(&[13.9355, 2.852_400_001]);
        assert_eq!(
            verdict("value_err_pct", &err, &err, &bounds, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict("value_err_pct", &err, &tiny_rise, &bounds, true),
            Verdict::Regressed
        );
        assert_eq!(
            verdict("value_err_pct", &tiny_rise, &err, &bounds, true),
            Verdict::Ok
        );
        assert_eq!(
            verdict(
                "space_vars",
                &metric(&[6672.0]),
                &metric(&[6673.0]),
                &bounds,
                true
            ),
            Verdict::Regressed
        );
        // Answer counts have no direction: any change regresses.
        let answers = metric(&[16_000.0]);
        for changed in [15_999.0, 16_001.0] {
            assert_eq!(
                verdict("core.answers", &answers, &metric(&[changed]), &bounds, true),
                Verdict::Regressed
            );
        }
        assert_eq!(
            verdict("core.answers", &answers, &answers, &bounds, true),
            Verdict::Ok
        );
        // On other seeds the values differ by nature: the bound judges.
        let (a, b) = (metric(&[13.9]), metric(&[14.0]));
        assert_eq!(
            verdict("value_err_pct", &a, &b, &bounds, false),
            Verdict::Ok
        );
        assert_eq!(
            verdict("value_err_pct", &a, &metric(&[18.0]), &bounds, false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(
                "core.answers",
                &answers,
                &metric(&[15_999.0]),
                &bounds,
                false
            ),
            Verdict::Info
        );
    }

    #[test]
    fn pools_pair_up_by_seed() {
        let file = |seed: u64, err: f64| Results {
            seeds: vec![seed],
            metrics: [(
                ("netmon-fig4".to_string(), "value_err_pct".to_string()),
                metric(&[err]),
            )]
            .into_iter()
            .collect(),
        };
        let a = pool(vec![file(8, 2.0), file(7, 1.0)]);
        let b = pool(vec![file(7, 1.0), file(8, 2.0)]);
        assert_eq!(a, b);
        assert_eq!(a.seeds, vec![7, 8]);
        let (table, regressed) = compare(&a, &b, &BTreeMap::new());
        assert!(!regressed, "{table}");
        assert!(table.contains("exact"), "{table}");
        let worse = pool(vec![file(7, 1.0), file(8, 2.000_001)]);
        let (table, regressed) = compare(&a, &worse, &BTreeMap::new());
        assert!(regressed, "{table}");
    }

    #[test]
    fn a_pool_holds_one_median_per_run() {
        let run = |seed: u64, rates: &[f64]| Results {
            seeds: vec![seed],
            metrics: [(
                ("netmon-uds2".to_string(), "throughput_melems".to_string()),
                metric(rates),
            )]
            .into_iter()
            .collect(),
        };
        let key = ("netmon-uds2".to_string(), "throughput_melems".to_string());
        // Wide spread between passes, steady medians from run to run.
        let one = run(1, &[40.0, 60.0, 70.0]);
        assert_eq!(pool(vec![one.clone()]), one);
        let pooled = pool(vec![run(2, &[45.0, 61.0, 72.0]), one]);
        assert_eq!(pooled.metrics[&key].samples, vec![60.0, 61.0]);
    }
}
