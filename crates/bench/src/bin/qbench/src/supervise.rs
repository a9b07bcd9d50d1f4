//! Running one workload in a child process under a deadline, and
//! tallying what it reports. A child that hangs, panics or dies counts
//! one more failed pass; everything it reported before still counts.

use crate::report::{unit_of, Metric, WorkloadResult};
use qlove_bench::gate::{parse_json, Json};
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::{Duration, Instant};

/// Tally of a child's report lines.
#[derive(Debug, Default)]
pub struct Tally {
    result: WorkloadResult,
    rates: Vec<f64>,
    setups: Vec<f64>,
    done: bool,
}

impl Tally {
    pub fn new(workload: &str) -> Self {
        Self {
            result: WorkloadResult {
                workload: workload.to_string(),
                ..WorkloadResult::default()
            },
            ..Self::default()
        }
    }

    pub fn absorb(&mut self, line: &str) {
        let Ok(record) = parse_json(line) else {
            eprintln!("qbench: ignoring unreadable report line {line:?}");
            return;
        };
        if let Some(kind) = record.get("pass").and_then(Json::as_str) {
            let ok = record.get("ok") == Some(&Json::Bool(true));
            let num = |key| record.get(key).and_then(Json::as_num).unwrap_or(0.0);
            self.result.attempted += 1;
            if !ok {
                self.result.failed += 1;
            } else if kind == "timed" {
                self.rates.push(num("events") / num("seconds") / 1e6);
            } else if kind == "setup" {
                self.setups.push(num("seconds"));
            }
        } else if let Some(name) = record.get("metric").and_then(Json::as_str) {
            let samples = record
                .get("samples")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .map(|s| s.as_num().unwrap_or(f64::NAN))
                .collect();
            self.result.metrics.insert(
                name.to_string(),
                Metric {
                    unit: unit_of(name).to_string(),
                    samples,
                },
            );
        } else if record.get("done").is_some() {
            self.done = true;
        }
    }

    /// Count one failed pass the child could not report itself.
    pub fn fail(&mut self, why: &str) {
        eprintln!("qbench: {}: {why}", self.result.workload);
        self.result.attempted += 1;
        self.result.failed += 1;
    }

    pub fn finish(mut self) -> WorkloadResult {
        if !self.rates.is_empty() {
            self.result.set("throughput_melems", self.rates);
        }
        if !self.setups.is_empty() {
            self.result.set("setup_s", self.setups);
        }
        let frac = self.result.failed as f64 / self.result.attempted.max(1) as f64;
        self.result.set("failed_frac", vec![frac]);
        self.result
    }
}

/// Run this executable with `args` as a child and tally its stdout
/// lines. The child is killed when it reports nothing for `stall` or
/// outlives `deadline`; either way it is waited for before returning.
pub fn supervise(args: &[String], stall: Duration, deadline: Duration, tally: &mut Tally) {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
    });
    let mut child = match spawned {
        Ok(child) => child,
        Err(e) => return tally.fail(&format!("cannot start the run: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel();
    let reader = thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if line.is_err() || tx.send(line).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    let mut killed = None;
    loop {
        let left = deadline.saturating_sub(started.elapsed());
        match rx.recv_timeout(stall.min(left)) {
            Ok(Ok(line)) => tally.absorb(&line),
            Ok(Err(_)) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                killed = Some(if left <= stall {
                    format!(
                        "still running at the {} s deadline; killed",
                        deadline.as_secs()
                    )
                } else {
                    format!("no progress for {} s; killed as hung", stall.as_secs())
                });
                let _ = child.kill();
                break;
            }
        }
    }
    let status = child.wait();
    let _ = reader.join();
    match (killed, status) {
        (Some(why), _) => tally.fail(&why),
        (None, Ok(status)) if !status.success() => tally.fail(&format!("exited with {status}")),
        (None, Err(e)) => tally.fail(&format!("cannot wait for the run: {e}")),
        _ if !tally.done => tally.fail("the run ended without finishing"),
        _ => {}
    }
}
