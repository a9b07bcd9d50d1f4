//! `qbench` — one benchmark of the QLOVE runtime, end to end and layer
//! by layer, over four workloads. See README.md beside this package.
//!
//! ```text
//! qbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! qbench --out DIR [--seed N] [--seconds S] [--trace]
//! qbench --compare A[,A2,...] B[,B2,...]
//! ```
//!
//! `--workload` measures one workload and prints, as the last line of
//! its output, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).
//! `--out` measures all four, writes `DIR/results.json` (and, traced,
//! `DIR/trace-<workload>.json`), and exits non-zero when any answer
//! differs from its reference. `--compare` judges B against A with the
//! bounds in `BENCHMARK.json`.
//!
//! Every workload runs in a child process (this executable with
//! `--child`) under a deadline, so a hang or a panic counts as a failed
//! pass instead of stopping the benchmark.

mod report;
mod run;
mod supervise;
mod trace;
mod workload;

use report::{names_of, num, results_json, Kind, WorkloadResult, METRICS};
use run::{run_phases, run_probe, RunOptions};
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;
use supervise::{supervise, Tally};
use workload::{Workload, EVENTS};

const USAGE: &str = "usage:
  qbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  qbench --out DIR [--seed N] [--seconds S] [--trace]
  qbench --compare A[,A2,...] B[,B2,...]
workloads: netmon-fig4 pareto-tree netmon-uds2 sessions-64";

/// A run that reports nothing for this long is hung.
const STALL: Duration = Duration::from_secs(30);
/// Every run is stopped by then, so one workload ends within 180 s.
const DEADLINE: Duration = Duration::from_secs(170);
/// Deadline of the unsupervised-transport probe.
const PROBE_DEADLINE: Duration = Duration::from_secs(5);

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    compare: Option<(String, String)>,
    child: bool,
    probe: bool,
    open_loop: bool,
    trace_out: Option<PathBuf>,
}

fn value<'a>(argv: &'a [String], i: &mut usize) -> Result<&'a str, String> {
    *i += 1;
    argv.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{} needs a value", argv[*i - 1]))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 18.0,
        trace: false,
        out: None,
        compare: None,
        child: false,
        probe: false,
        open_loop: false,
        trace_out: None,
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                let name = value(argv, &mut i)?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                let seed = value(argv, &mut i)?;
                args.seed = seed.parse().map_err(|e| format!("--seed {seed}: {e}"))?;
            }
            "--seconds" => {
                let s = value(argv, &mut i)?;
                args.seconds = s.parse().map_err(|e| format!("--seconds {s}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must lie in (0, 120]".into());
                }
            }
            // `--trace 0|1` with `--workload`, a bare `--trace` with `--out`.
            "--trace" => match argv.get(i + 1).map(String::as_str) {
                Some(v @ ("0" | "1")) => {
                    args.trace = v == "1";
                    i += 1;
                }
                _ => args.trace = true,
            },
            "--out" => args.out = Some(value(argv, &mut i)?.into()),
            "--compare" => {
                let a = value(argv, &mut i)?.to_string();
                args.compare = Some((a, value(argv, &mut i)?.to_string()));
            }
            "--child" => args.child = true,
            "--probe" => args.probe = true,
            "--open-loop" => args.open_loop = true,
            "--trace-out" => args.trace_out = Some(value(argv, &mut i)?.into()),
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0);
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(args)
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("qbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let code = if let Some((a, b)) = &args.compare {
        compare(a, b)
    } else if args.probe {
        run_probe(args.seed, &mut |line| println!("{line}"));
        0
    } else if let (true, Some(workload)) = (args.child, args.workload) {
        let opts = RunOptions {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            events: EVENTS,
            open_loop: args.open_loop,
            trace_out: args.trace_out.clone(),
        };
        run_phases(&opts, &mut |line| println!("{line}"));
        0
    } else if let Some(workload) = args.workload {
        let trace = if args.trace { "1" } else { "0" };
        let result = measure(workload, &args, &["--trace".into(), trace.into()]);
        print_result(&result, workload, &args);
        println!("{}", result_line(&result, args.trace));
        0
    } else if let Some(dir) = &args.out {
        all_workloads(dir, &args)
    } else {
        eprintln!("{USAGE}");
        2
    };
    exit(code);
}

/// One workload in a child process under the deadline; `flags` are
/// added to the child's command line.
fn measure(workload: Workload, args: &Args, flags: &[String]) -> WorkloadResult {
    let mut child: Vec<String> = vec![
        "--child".into(),
        "--workload".into(),
        workload.name().into(),
        "--seed".into(),
        args.seed.to_string(),
        "--seconds".into(),
        args.seconds.to_string(),
    ];
    child.extend_from_slice(flags);
    let mut tally = Tally::new(workload.name());
    supervise(&child, STALL, DEADLINE, &mut tally);
    tally.finish()
}

/// Whether the unsupervised transport finishes the first 2M events of
/// netmon-uds2 with the right answers within [`PROBE_DEADLINE`].
fn unsupervised_ok(seed: u64) -> bool {
    let args = ["--probe".to_string(), "--seed".into(), seed.to_string()];
    let mut tally = Tally::new("netmon-uds2 unsupervised probe");
    supervise(&args, PROBE_DEADLINE, PROBE_DEADLINE, &mut tally);
    tally.finish().failed == 0
}

/// The result line of `--workload`: the end-to-end metrics, or with
/// `trace` the per-layer ones.
fn result_line(result: &WorkloadResult, trace: bool) -> String {
    let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
    let metrics: Vec<String> = names_of(kind)
        .filter_map(|name| {
            let m = result.metrics.get(name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                num(m.value()),
                m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

fn print_result(result: &WorkloadResult, workload: Workload, args: &Args) {
    println!(
        "== {}: seed {}, host_cpus {}, connections {}: {} passes attempted, {} failed",
        result.workload,
        args.seed,
        host_cpus(),
        workload.connections(),
        result.attempted,
        result.failed
    );
    for (name, _, _) in METRICS {
        let Some(m) = result.metrics.get(*name) else {
            continue;
        };
        let (q1, q3) = report::quartiles(&m.samples);
        println!(
            "   {name:<38} {:>14.4} {:<12} IQR {q1:.4}..{q3:.4}  n={}",
            m.value(),
            m.unit,
            m.samples.len()
        );
    }
}

fn all_workloads(dir: &Path, args: &Args) -> i32 {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("qbench: cannot create {}: {e}", dir.display());
        return 1;
    }
    let mut results = Vec::new();
    for workload in Workload::ALL {
        let flags: Vec<String> = if workload == Workload::NetmonFig4 {
            vec!["--open-loop".into()]
        } else {
            Vec::new()
        };
        let mut result = measure(workload, args, &flags);
        if workload == Workload::NetmonUds2 {
            let ok = unsupervised_ok(args.seed);
            result.set("transport.unsupervised_ok", vec![f64::from(u8::from(ok))]);
        }
        if args.trace {
            let path = dir.join(format!("trace-{}.json", workload.name()));
            let flags = [
                "--trace".into(),
                "1".into(),
                "--trace-out".into(),
                path.display().to_string(),
            ];
            result.absorb(measure(workload, args, &flags));
        }
        print_result(&result, workload, args);
        results.push(result);
    }
    let path = dir.join("results.json");
    if let Err(e) = std::fs::write(
        &path,
        results_json(args.seed, args.seconds, host_cpus(), &results),
    ) {
        eprintln!("qbench: cannot write {}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    if results.iter().any(|r| r.failed > 0) {
        eprintln!("qbench: some passes failed or gave answers that differ from the reference");
        return 1;
    }
    0
}

fn compare(a: &str, b: &str) -> i32 {
    let read = |list: &str| -> Result<_, String> {
        let files = list
            .split(',')
            .map(|path| {
                let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                report::read_results(&text).map_err(|e| format!("{path}: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(report::pool(files))
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| report::read_bounds(&text));
    match (read(a), read(b), bounds) {
        (Ok(a), Ok(b), Ok(bounds)) => {
            let (table, regressed) = report::compare(&a, &b, &bounds);
            print!("{table}");
            i32::from(regressed)
        }
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("qbench: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlove_bench::gate::{parse_json, Json};
    use report::{Metric, METRICS};

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse_json(&text).expect("BENCHMARK.json parses")
    }

    fn listed<'a>(doc: &'a Json, key: &str) -> Vec<(&'a str, Option<&'a str>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("named");
                (name, m.get("unit").and_then(Json::as_str))
            })
            .collect()
    }

    #[test]
    fn names_are_well_formed_and_match_benchmark_json() {
        let well_formed = |name: &str| {
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        for w in Workload::ALL {
            assert!(well_formed(w.name()), "{}", w.name());
        }
        for (name, _, _) in METRICS {
            assert!(well_formed(name), "{name}");
        }
        let doc = benchmark_json();
        let workloads: Vec<&str> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
        for (key, kind) in [("end_to_end", Kind::EndToEnd), ("per_layer", Kind::Layer)] {
            let ours: Vec<(&str, Option<&str>)> = names_of(kind)
                .map(|name| (name, Some(report::unit_of(name))))
                .collect();
            assert_eq!(listed(&doc, key), ours, "{key}");
        }
    }

    #[test]
    fn results_file_parses_with_the_gate_reader() {
        let mut result = WorkloadResult {
            workload: "netmon-fig4".into(),
            attempted: 3,
            failed: 0,
            ..WorkloadResult::default()
        };
        result.set("throughput_melems", vec![30.5, 31.25, 29.0]);
        result.set("space_vars", vec![6664.0]);
        result.set("trace.overhead_pct", vec![f64::NAN]);
        let text = results_json(42, 10.0, 2, &[result]);
        let doc = parse_json(&text).expect("results.json parses");
        assert_eq!(doc.get("host_cpus").and_then(Json::as_num), Some(2.0));
        let read = report::read_results(&text).expect("metrics read back");
        assert_eq!(read.seeds, vec![42]);
        assert_eq!(
            read.metrics[&("netmon-fig4".to_string(), "throughput_melems".to_string())],
            Metric {
                unit: "Melem/s".into(),
                samples: vec![30.5, 31.25, 29.0]
            }
        );
    }

    /// Both runs of every workload on a tiny input: every pass succeeds
    /// with answers bit-identical to the reference, and every metric of
    /// the `--workload` result line is present.
    #[test]
    fn tiny_smoke_run_of_every_workload_has_no_failures() {
        for workload in Workload::ALL {
            for trace in [false, true] {
                let opts = RunOptions {
                    workload,
                    seed: 3,
                    seconds: 0.001,
                    trace,
                    events: 300_000,
                    open_loop: workload == Workload::NetmonFig4 && !trace,
                    trace_out: None,
                };
                let mut tally = Tally::new(workload.name());
                run_phases(&opts, &mut |line| tally.absorb(&line));
                let result = tally.finish();
                let name = workload.name();
                assert!(result.attempted > 5, "{name}");
                assert_eq!(result.metrics["failed_frac"].samples, vec![0.0], "{name}");
                let kind = if trace { Kind::Layer } else { Kind::EndToEnd };
                for metric in names_of(kind) {
                    let m = result.metrics.get(metric);
                    assert!(
                        m.is_some_and(|m| m.value().is_finite()),
                        "{name}: {metric} missing or not finite"
                    );
                }
            }
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload sessions-64 --trace 0 --seed 5")).unwrap();
        assert!(!a.trace);
        assert_eq!(a.seed, 5);
        assert!(parse_args(&argv("--out dir --trace")).unwrap().trace);
        assert!(
            parse_args(&argv("--trace 1 --workload pareto-tree"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
    }
}
