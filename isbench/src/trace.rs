//! In-memory spans for the traced run (`--trace 1`).
//!
//! Every timed public call is recorded as a span (a slash-separated path,
//! its start offset and its duration). Spans stay in memory until the run
//! ends and are then written out as JSON lines, so the recording adds no
//! I/O to the measured work. The recorder times its own bookkeeping, which
//! the run reports as its overhead.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

struct Span {
    path: String,
    start: Duration,
    dur: Duration,
}

/// A span recorder; a disabled one records nothing and costs nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    cost: Duration,
}

impl Tracer {
    /// A recorder whose span offsets count from now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span that started at `start` and lasted `dur`.
    pub fn record(&mut self, path: impl Into<String>, start: Instant, dur: Duration) {
        if !self.enabled {
            return;
        }
        let entered = Instant::now();
        self.spans.push(Span {
            path: path.into(),
            start: start.saturating_duration_since(self.origin),
            dur,
        });
        self.cost += entered.elapsed();
    }

    /// Runs `body`, recording it as span `path`; returns its result and
    /// duration (measured whether or not tracing is on).
    pub fn time<T>(&mut self, path: impl Into<String>, body: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = body();
        let dur = start.elapsed();
        self.record(path, start, dur);
        (out, dur)
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Time spent inside [`Tracer::record`], as a share of `wall`.
    pub fn overhead_share(&self, wall: Duration) -> f64 {
        self.cost.as_secs_f64() / wall.as_secs_f64()
    }

    /// Writes the spans as JSON lines to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"path\": \"{}\", \"start_s\": {}, \"dur_s\": {}}}",
                s.path.replace('\\', "\\\\").replace('"', "\\\""),
                s.start.as_secs_f64(),
                s.dur.as_secs_f64()
            );
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Where a traced run writes its spans: under the build directory
/// (`CARGO_TARGET_DIR`, else this package's `target/`).
pub fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    base.join("isbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}
