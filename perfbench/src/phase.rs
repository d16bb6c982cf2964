//! What one phase (the untraced or the traced pass over a workload)
//! measured and checked.

use std::collections::BTreeMap;

use crate::doc::LabelSize;
use crate::mirror::BatchCounts;
use crate::trace::now_ns;

/// Set-ups timed per round; `setup_s` is the median over all of them.
pub const SETUP_REPEATS: usize = 3;

/// When a phase stops: after a wall-time budget, or after exactly the
/// rounds an earlier phase ran (the traced replay of the untraced run).
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    Seconds(f64),
    Rounds(usize),
}

/// Lane-level measurements of the fleet workload.
#[derive(Debug, Default, Clone)]
pub struct LaneSummary {
    pub queue_wait_us: Vec<f64>,
    pub service_update_us: Vec<f64>,
    pub service_query_us: Vec<f64>,
    /// Per round: the busiest lane's busy time over the round's wall.
    pub hot_lane_busy_frac: Vec<f64>,
    /// Per round: total lane busy time over workers × wall.
    pub worker_util: Vec<f64>,
}

/// A check's tally over a phase.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub passed: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

#[derive(Debug, Default)]
pub struct Phase {
    pub setup_s: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub query_us: Vec<f64>,
    pub xpath_ms: Vec<f64>,
    /// Wall time inside timed operations.
    pub timed_ns: u64,
    /// Timed operations that completed.
    pub timed_ok: u64,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub rounds: usize,
    pub checks: BTreeMap<String, Tally>,
    /// Final state of the last round (tree bytes, cached rows, labels).
    pub state: String,
    /// Label sizes at the end of the last round, and of every round.
    pub labels: LabelSize,
    pub round_labels: Vec<LabelSize>,
    pub scheme_labels: BTreeMap<&'static str, LabelSize>,
    pub nodes: BTreeMap<String, u64>,
    pub batches: Vec<BatchCounts>,
    pub snapshot_rebuilds: u64,
    pub lanes: LaneSummary,
    started_ns: u64,
    /// A timed phase stops only after a whole number of these rounds,
    /// so every input variant weighs the same.
    cycle: usize,
}

impl Phase {
    /// A phase whose rounds cycle through `cycle` input variants.
    pub fn start(cycle: usize) -> Phase {
        Phase {
            started_ns: now_ns(),
            cycle: cycle.max(1),
            ..Phase::default()
        }
    }

    /// Whether another round should run.
    pub fn more(&self, stop: Stop) -> bool {
        match stop {
            Stop::Rounds(n) => self.rounds < n,
            Stop::Seconds(s) => {
                self.rounds == 0
                    || !self.rounds.is_multiple_of(self.cycle)
                    || (now_ns() - self.started_ns) as f64 / 1e9 < s
            }
        }
    }

    /// Record the label sizes a round ended with.
    pub fn round_labels(&mut self, size: LabelSize) {
        self.labels = size;
        self.round_labels.push(size);
    }

    /// Count one attempted operation and its outcome; a failure is
    /// tallied, never fatal.
    pub fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                None
            }
        }
    }

    /// Time `f` as one operation; returns its latency in ns and result.
    pub fn timed<T>(&mut self, f: impl FnOnce() -> Result<T, String>) -> (u64, Option<T>) {
        let t0 = now_ns();
        let r = f();
        let dt = now_ns() - t0;
        self.timed_ns += dt;
        let out = self.op(r);
        self.timed_ok += u64::from(out.is_some());
        (dt, out)
    }

    /// Make a round's workload servable [`SETUP_REPEATS`] times, timing
    /// each, and keep the last instance (earlier ones are dropped before
    /// the next is built, so peak memory holds one instance).
    pub fn setup<T>(&mut self, mut build: impl FnMut() -> Result<T, String>) -> Option<T> {
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            drop(kept.take());
            let t0 = now_ns();
            let built = build();
            self.setup_s.push((now_ns() - t0) as f64 / 1e9);
            kept = Some(self.op(built)?);
        }
        kept
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let t = self.checks.entry(name.to_string()).or_default();
        if ok {
            t.passed += 1;
        } else {
            t.failed += 1;
            if t.first_failure.is_none() {
                t.first_failure = Some(detail());
            }
        }
    }

    pub fn all_checks_pass(&self) -> bool {
        !self.checks.is_empty() && self.checks.values().all(|t| t.failed == 0)
    }
}
