//! What a workload run produces: the gated end-to-end metrics, the traced
//! per-layer metrics, and a human-readable report of every metric with
//! its unit and the sample counts behind each percentile.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, p50, tail};

/// Samples a tail percentile needs beyond it: at least ten, and at least
/// `share` of all samples. The rarer tails of a few thousand requests on a
/// shared two-core machine do not repeat within a tenth, so serve tails
/// use a tenth; simulate tails use a quarter (its CPU-bound solves are
/// tightly spread, so their p90 follows the machine's speed swings).
pub fn min_beyond(n: usize, share: f64) -> usize {
    ((n as f64 * share) as usize).max(10)
}

/// Latency samples in ms, by request class.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    /// `/assign` (serve) or a one-worker solve (simulate).
    pub assign: Vec<f64>,
    /// `/assign_batch` (serve) or a multi-worker solve (simulate).
    pub batch: Vec<f64>,
    /// `/complete`.
    pub complete: Vec<f64>,
    /// `/topk`, `/reputation`, `/stats` sent beside the writes.
    pub read: Vec<f64>,
    /// `GET /health` probes (traced pass only).
    pub health: Vec<f64>,
    /// Write acknowledged → replica applied the same epoch.
    pub lag: Vec<f64>,
}

impl Samples {
    /// Append `other`'s samples.
    pub fn extend(&mut self, other: &Samples) {
        self.assign.extend(&other.assign);
        self.batch.extend(&other.batch);
        self.complete.extend(&other.complete);
        self.read.extend(&other.read);
        self.health.extend(&other.health);
        self.lag.extend(&other.lag);
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Scripted operations attempted.
    pub attempted: usize,
    /// Scripted operations that failed.
    pub failed: usize,
    /// Correctness-gate failures (any fails the run).
    pub errors: Vec<String>,
    /// End-to-end metrics by name (the gated set).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Report lines: every measured metric with unit and sample counts.
    pub report: Vec<String>,
    /// Free-form context lines.
    pub notes: Vec<String>,
    /// VmHWM after the first pass, MB.
    pub peak_rss_mb: f64,
    /// A traced run: its one untraced pass is only the tracing baseline,
    /// so a tail it has too few samples for is not a failure.
    pub traced: bool,
}

impl Outcome {
    /// Record a context line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Record a metric in the report (and, if `gated`, in the result).
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &str,
        detail: &str,
        gated: bool,
    ) {
        let mut line = format!("metric {name} = {value:.6} {unit}");
        if !detail.is_empty() {
            let _ = write!(line, " ({detail})");
        }
        self.report.push(line);
        if gated {
            self.e2e.insert(name, value);
        }
    }

    /// A p50 with its sample count.
    pub fn p50_metric(&mut self, name: &'static str, samples: &[f64], gated: bool) {
        let detail = format!("n={}", samples.len());
        self.metric(name, p50(samples), "ms", &detail, gated);
    }

    /// A tail percentile (the tail rule) with its sample counts.
    pub fn tail_metric(&mut self, name: &'static str, samples: &[f64], share: f64, gated: bool) {
        let min = min_beyond(samples.len(), share);
        match tail(samples, min) {
            Some(t) => {
                let detail = format!("p{} of n={}, {} beyond", t.pct, t.n, t.beyond);
                self.metric(name, t.value, "ms", &detail, gated);
            }
            None => {
                let msg = format!(
                    "{name}: {} samples leave no percentile with {min} beyond it",
                    samples.len()
                );
                if self.traced {
                    self.notes.push(msg);
                } else {
                    self.errors.push(msg);
                }
            }
        }
    }

    /// The end-to-end metrics of a serve workload.
    pub fn serve_metrics(
        &mut self,
        s: &Samples,
        setup: &[f64],
        rps: &[f64],
        motivations: &[f64],
        replicated: bool,
    ) {
        self.metric(
            "setup_s",
            median(setup),
            "s",
            &format!("median of {} set-ups", setup.len()),
            true,
        );
        self.metric(
            "throughput_per_s",
            median(rps),
            "1/s",
            &format!("script requests per second, median of {} passes", rps.len()),
            true,
        );
        self.p50_metric("assign_p50_ms", &s.assign, true);
        self.tail_metric("assign_tail_ms", &s.assign, 0.1, true);
        self.p50_metric("batch_p50_ms", &s.batch, true);
        self.p50_metric("complete_p50_ms", &s.complete, false);
        self.p50_metric("read_p50_ms", &s.read, false);
        self.tail_metric("read_tail_ms", &s.read, 0.1, false);
        if replicated {
            self.p50_metric("replica_lag_ms", &s.lag, false);
        }
        let mean = motivations.iter().sum::<f64>() / motivations.len().max(1) as f64;
        self.metric(
            "motivation_mean",
            mean,
            "eq3",
            &format!("{} sets", motivations.len()),
            true,
        );
    }

    /// Record `error_share` and `peak_rss_mb` once the run is over.
    pub fn finish(&mut self) {
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let detail = format!("{} failed of {} attempted", self.failed, self.attempted);
        self.metric("error_share", share, "share", &detail, false);
        // Taken after the first pass: later passes reuse freed memory in
        // whichever allocator arenas their threads land on, which makes
        // the process-lifetime peak vary from run to run.
        let detail = "VmHWM of the process after set-up and its first pass";
        self.metric("peak_rss_mb", self.peak_rss_mb, "MB", detail, true);
    }
}

/// Peak resident set size of this process (which hosts the servers), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
