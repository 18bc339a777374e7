//! `serve-edit`: the daemon's edit loop over one TCP connection.
//!
//! The daemon runs in a child process (this binary's `daemon` mode) so
//! its peak memory is its own. A seeded stream of sessions is generated
//! up front: each session submits a base program (a Table-1 corpus spec,
//! a scenario-zoo spec or a freshly generated program), then a mix of
//! `mutate` edits sent with `(base ..)` and warm resubmits of the current
//! version — about 15% cold, 50% edit and 35% warm requests overall. The
//! stream length is fixed per `--seconds`, so every run with the same seed
//! sends the same requests in the same order and its failure count repeats
//! exactly.
//!
//! After the run every distinct program is checked again with a fresh
//! `mechanical_application(..).check()`, and each daemon verdict must
//! agree with it: pass or fail, the failing premise and its message, and
//! the reachable-configuration and edge counts of a pass.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use inseq_core::mechanical_application;
use inseq_fuzz::corpus::{table1_specs, zoo_specs};
use inseq_fuzz::{generate, mutate, GenConfig, MutateConfig};
use inseq_lang::serial::{canonical_hash, write_spec_line};
use inseq_lang::spec::ProgramSpec;
use inseq_serve::{Server, ServerConfig, DEFAULT_REQUEST_BUDGET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median, quantile, secs, tail};
use crate::trace::Tracer;
use crate::Report;

/// Sessions per requested second of run time. The stream is fixed per seed
/// and `--seconds`, so its failure count repeats exactly; on a 2-vCPU VM its
/// request loop takes 0.6–1.0 times the requested time, with host speed.
const SESSIONS_PER_SECOND: f64 = 250.0;

/// Daemon set-ups timed before the run (plus the run's own).
const SETUP_SAMPLES: usize = 10;

/// How long one request may take before the connection is given up.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(20);

/// The `daemon` mode: bind an ephemeral port with the default
/// configuration, print the address, serve until `(shutdown)`.
pub fn daemon_main() -> ExitCode {
    let server = match Server::bind(ServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("isbench daemon: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("{addr}");
            let _ = std::io::stdout().flush();
        }
        Err(e) => {
            eprintln!("isbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("isbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Cold,
    Edit,
    Warm,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Edit => "edit",
            Kind::Warm => "warm",
        }
    }
}

struct Request {
    kind: Kind,
    line: String,
    /// Index into the distinct programs of the stream.
    program: usize,
}

/// The seeded request stream and its distinct programs.
fn stream(seed: u64, sessions: usize) -> (Vec<Request>, Vec<ProgramSpec>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let table1 = table1_specs();
    let zoo = zoo_specs();
    let mut programs: Vec<ProgramSpec> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut requests = Vec::new();
    let mut push = |requests: &mut Vec<Request>, kind, spec: &ProgramSpec, base: Option<u64>| {
        let text = write_spec_line(spec);
        let program = *index.entry(text.clone()).or_insert_with(|| {
            programs.push(spec.clone());
            programs.len() - 1
        });
        let id = requests.len();
        let base = base.map_or(String::new(), |h| format!("(base \"{h:016x}\") "));
        requests.push(Request {
            kind,
            line: format!("(check (id \"r{id}\") {base}{text})\n"),
            program,
        });
    };
    for _ in 0..sessions {
        // A quarter Table-1 corpus specs, an eighth zoo specs, the rest
        // freshly generated programs.
        let mut current = match rng.gen_range(0..8) {
            0 | 1 => table1[rng.gen_range(0..table1.len())].1.clone(),
            2 => zoo[rng.gen_range(0..zoo.len())].1.clone(),
            _ => generate(&mut rng, &GenConfig::default()),
        };
        push(&mut requests, Kind::Cold, &current, None);
        // 3–8 follow-ups, each an edit with odds 50/85: overall about 15%
        // cold, 50% edit and 35% warm requests.
        for _ in 0..3 + rng.gen_range(0..6) {
            if rng.gen_range(0..85) < 50 {
                let edited = mutate(&mut rng, &current, &MutateConfig::default());
                push(
                    &mut requests,
                    Kind::Edit,
                    &edited,
                    Some(canonical_hash(&current)),
                );
                current = edited;
            } else {
                push(&mut requests, Kind::Warm, &current, None);
            }
        }
    }
    (requests, programs)
}

/// A verdict, from the daemon or from the reference check.
#[derive(Debug, PartialEq)]
enum Verdict {
    Pass {
        configs: u64,
        edges: u64,
    },
    Fail {
        premise: String,
        message: String,
    },
    /// The program does not build (the daemon answers `bad-request`).
    Rejected,
}

/// What the daemon answered to one request.
enum Answer {
    Verdict(Verdict),
    Unexpected(String),
    Dropped,
    TimedOut,
}

/// The value of `key` in a flat JSON line: a string (unescaped) or the raw
/// text of a number or boolean. Top-level keys precede the nested report,
/// so the first occurrence is the top-level one.
fn field(line: &str, key: &str) -> Option<String> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    if let Some(body) = rest.strip_prefix('"') {
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        None
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().to_owned())
    }
}

fn number(line: &str, key: &str) -> Option<u64> {
    field(line, key)?.parse().ok()
}

struct Daemon {
    child: Child,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn() -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading the daemon address: {e}"))?;
        match line.trim().parse() {
            Ok(addr) => Ok(Daemon { child, addr }),
            Err(_) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "daemon printed `{}` instead of its address",
                    line.trim()
                ))
            }
        }
    }

    /// Sends `(shutdown)` and waits for the process; returns its exit code
    /// (`Server::run` re-raises a connection thread's panic at shutdown).
    fn stop(mut self) -> Result<Option<i32>, String> {
        if let Ok(mut c) = Client::connect(self.addr) {
            let _ = c.send("(shutdown)\n");
            let _ = c.recv();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return Ok(status.code());
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit after (shutdown); killed".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    /// Never leaves a daemon behind, whichever way the run ends.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        self.stream.write_all(line.as_bytes())
    }

    /// The next response line; `Ok(None)` at end of stream.
    fn recv(&mut self) -> std::io::Result<Option<String>> {
        let mut line = String::new();
        match self.reader.read_line(&mut line)? {
            0 => Ok(None),
            _ => Ok(Some(line)),
        }
    }
}

/// One set-up sample: spawn the daemon and time it until the first pong.
fn setup_sample() -> Result<(Daemon, Duration), String> {
    let start = Instant::now();
    let daemon = Daemon::spawn()?;
    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    client.send("(ping)\n").map_err(|e| e.to_string())?;
    let pong = client
        .recv()
        .map_err(|e| e.to_string())?
        .unwrap_or_default();
    let took = start.elapsed();
    if !pong.contains("\"pong\"") {
        return Err(format!("expected a pong, got `{}`", pong.trim()));
    }
    Ok((daemon, took))
}

/// One request's timing and answer.
struct Exchange {
    ack: Option<Duration>,
    total: Duration,
    answer: Answer,
    full_hit: bool,
    obligations: u64,
    cached: u64,
}

fn exchange(client: &mut Client, line: &str) -> Exchange {
    let start = Instant::now();
    let mut ack = None;
    let done = |answer, ack| Exchange {
        ack,
        total: start.elapsed(),
        answer,
        full_hit: false,
        obligations: 0,
        cached: 0,
    };
    if client.send(line).is_err() {
        return done(Answer::Dropped, ack);
    }
    loop {
        let line = match client.recv() {
            Ok(Some(l)) => l,
            Ok(None) => return done(Answer::Dropped, ack),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return done(Answer::TimedOut, ack)
            }
            Err(_) => return done(Answer::Dropped, ack),
        };
        match field(&line, "type").as_deref() {
            Some("ack") => ack = Some(start.elapsed()),
            Some("obligation") => {}
            Some("verdict") => {
                let verdict = if field(&line, "passed").as_deref() == Some("true") {
                    Verdict::Pass {
                        configs: number(&line, "reachable_configs").unwrap_or(u64::MAX),
                        edges: number(&line, "edges").unwrap_or(u64::MAX),
                    }
                } else {
                    Verdict::Fail {
                        premise: field(&line, "premise").unwrap_or_default(),
                        message: field(&line, "message").unwrap_or_default(),
                    }
                };
                let mut out = done(Answer::Verdict(verdict), ack);
                out.full_hit = field(&line, "full_cache_hit").as_deref() == Some("true");
                out.obligations = number(&line, "obligations").unwrap_or(0);
                out.cached = number(&line, "cached_obligations").unwrap_or(0);
                return out;
            }
            Some("error") => {
                let reason = field(&line, "reason").unwrap_or_default();
                let message = field(&line, "message").unwrap_or_default();
                let answer = match reason.as_str() {
                    // A failed shared prefix (e.g. the budget was exceeded):
                    // the message is `<premise>: <violation>`.
                    "check-failed" => match message.split_once(": ") {
                        Some((premise, message)) => Answer::Verdict(Verdict::Fail {
                            premise: premise.to_owned(),
                            message: message.to_owned(),
                        }),
                        None => Answer::Unexpected(line.trim().to_owned()),
                    },
                    "bad-request" => Answer::Verdict(Verdict::Rejected),
                    _ => Answer::Unexpected(line.trim().to_owned()),
                };
                return done(answer, ack);
            }
            _ => return done(Answer::Unexpected(line.trim().to_owned()), ack),
        }
    }
}

/// The reference verdict: a fresh `check()` of the program, with the
/// daemon's default budget. `Err` carries a panic message.
#[allow(clippy::result_large_err)] // `check()`'s violation embeds its witness
fn reference(spec: &ProgramSpec) -> Result<Verdict, String> {
    let Ok(built) = spec.build() else {
        return Ok(Verdict::Rejected);
    };
    let app = mechanical_application(&built.program, built.init.clone(), DEFAULT_REQUEST_BUDGET);
    match catch_unwind(AssertUnwindSafe(|| app.check())) {
        Ok(Ok(report)) => Ok(Verdict::Pass {
            configs: report.reachable_configs as u64,
            edges: report.edges as u64,
        }),
        Ok(Err(v)) => Ok(Verdict::Fail {
            premise: v.premise().to_owned(),
            message: v.to_string(),
        }),
        Err(payload) => Err(payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_else(|| "panic".to_owned())),
    }
}

pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let sessions = (seconds * SESSIONS_PER_SECOND).ceil() as usize;
    let (requests, programs) = stream(seed, sessions);

    let mut setups = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let (daemon, took) = setup_sample()?;
        setups.push(secs(took));
        daemon.stop()?;
    }
    let (daemon, took) = setup_sample()?;
    setups.push(secs(took));

    let mut client = Client::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    let loop_started = Instant::now();
    let mut exchanges: Vec<Exchange> = Vec::with_capacity(requests.len());
    let mut reconnects = 0;
    for (i, req) in requests.iter().enumerate() {
        let start = Instant::now();
        let ex = exchange(&mut client, &req.line);
        if let Some(ack) = ex.ack {
            tracer.record(format!("r{i}/{}/ack", req.kind.name()), start, ack);
        }
        tracer.record(format!("r{i}/{}", req.kind.name()), start, ex.total);
        if matches!(ex.answer, Answer::Dropped | Answer::TimedOut) {
            // A connection thread died (or hung): carry on over a new one.
            reconnects += 1;
            client = Client::connect(daemon.addr).map_err(|e| format!("reconnect: {e}"))?;
        }
        exchanges.push(ex);
    }
    let loop_wall = loop_started.elapsed();
    let (stats_line, rss) = {
        client.send("(stats)\n").map_err(|e| e.to_string())?;
        let line = client
            .recv()
            .map_err(|e| e.to_string())?
            .unwrap_or_default();
        (line, crate::stats::peak_rss_mb(Some(daemon.child.id())))
    };
    drop(client);
    match daemon.stop()? {
        Some(0) => {}
        code => report.notes.push(format!(
            "daemon exited with {code:?} at shutdown (Server::run re-raises a connection thread's panic)"
        )),
    }

    // Check every answer against a fresh check() of the same program.
    let checks_started = Instant::now();
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let references: Vec<Result<Verdict, String>> = programs.iter().map(reference).collect();
    std::panic::set_hook(quiet);
    report.notes.push(format!(
        "request loop {:.2} s; reference checks {:.2} s",
        secs(loop_wall),
        secs(checks_started.elapsed())
    ));
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for (i, (req, ex)) in requests.iter().zip(&exchanges).enumerate() {
        report.attempted += 1;
        let expected = &references[req.program];
        let wrong = match (&ex.answer, expected) {
            (Answer::Verdict(got), Ok(want)) if got == want => None,
            (Answer::Verdict(got), Ok(want)) => Some((
                match (got, want) {
                    (Verdict::Pass { .. }, Verdict::Fail { .. }) => "daemon passed, check() failed",
                    (Verdict::Fail { .. }, Verdict::Pass { .. }) => "daemon failed, check() passed",
                    (Verdict::Fail { premise: a, .. }, Verdict::Fail { premise: b, .. })
                        if a != b =>
                    {
                        "different failing premise"
                    }
                    (Verdict::Fail { .. }, Verdict::Fail { .. }) => "different failure message",
                    (Verdict::Pass { .. }, Verdict::Pass { .. }) => "different counts",
                    _ => "different verdict",
                },
                format!("daemon {got:?}, check() {want:?}"),
            )),
            (Answer::Dropped, Err(panic)) => {
                Some(("connection dropped; check() panics", panic.clone()))
            }
            (Answer::Dropped, Ok(want)) => {
                Some(("connection dropped", format!("check() {want:?}")))
            }
            (Answer::TimedOut, _) => Some(("timed out", String::new())),
            (Answer::Verdict(got), Err(panic)) => Some((
                "check() panics",
                format!("daemon {got:?}, check() panicked: {panic}"),
            )),
            (Answer::Unexpected(line), _) => Some(("unexpected answer", line.clone())),
        };
        if let Some((class, detail)) = wrong {
            *counts.entry(class).or_default() += 1;
            let detail: String = detail.chars().take(300).collect();
            report
                .failures
                .push(format!("r{i} ({}): {class}: {detail}", req.kind.name()));
        }
    }
    let mut classes: Vec<_> = counts.into_iter().collect();
    classes.sort();
    report.notes.push(format!(
        "{} sessions, {} requests, {} distinct programs, {reconnects} reconnects; failures by class: {classes:?}",
        sessions,
        requests.len(),
        programs.len()
    ));

    // Latencies of answered requests.
    let ms = |d: Duration| 1e3 * secs(d);
    let answered = |kind: Option<Kind>| -> Vec<f64> {
        requests
            .iter()
            .zip(&exchanges)
            .filter(|(r, e)| {
                kind.is_none_or(|k| r.kind == k) && matches!(e.answer, Answer::Verdict(_))
            })
            .map(|(_, e)| ms(e.total))
            .collect()
    };
    let all = answered(None);
    if all.is_empty() {
        return Err("the daemon answered no request".to_owned());
    }
    // The median: the run-wide mean follows the few slowest requests.
    report.e2e("op_ms", median(&all));
    report.e2e("setup_s", median(&setups));
    report.e2e("peak_rss_mb", rss.ok_or("cannot read the daemon's VmHWM")?);

    let tail_or_nan = |xs: &[f64], q| tail(xs, q).unwrap_or(f64::NAN);
    report.layer("serve.latency_ms.p50", median(&all));
    report.layer("serve.latency_ms.p99", tail_or_nan(&all, 0.99));
    for (kind, p50, p99) in [
        (
            Kind::Warm,
            "serve.latency_ms.warm.p50",
            "serve.latency_ms.warm.p99",
        ),
        (
            Kind::Edit,
            "serve.latency_ms.edit.p50",
            "serve.latency_ms.edit.p99",
        ),
        (
            Kind::Cold,
            "serve.latency_ms.cold.p50",
            "serve.latency_ms.cold.p99",
        ),
    ] {
        let xs = answered(Some(kind));
        report.layer(p50, median(&xs));
        report.layer(p99, tail_or_nan(&xs, 0.99));
        report.notes.push(format!(
            "{}: {} answered, p50 {:.3} ms, p90 {:.3} ms",
            kind.name(),
            xs.len(),
            median(&xs),
            quantile(&xs, 0.9)
        ));
    }
    let acks: Vec<f64> = exchanges.iter().filter_map(|e| e.ack.map(ms)).collect();
    let after: Vec<f64> = exchanges
        .iter()
        .filter_map(|e| e.ack.map(|a| ms(e.total.saturating_sub(a))))
        .collect();
    report.layer("serve.ack_ms.p50", median(&acks));
    report.layer("serve.verdict_after_ack_ms.p50", median(&after));

    // Cache behaviour, from the daemon's own (stats) at the end of the run.
    let stat = |key| number(&stats_line, key).map(|v| v as f64);
    let (Some(oh), Some(om), Some(fh), Some(fm), Some(cached), Some(known)) = (
        stat("obligation_cache_hits"),
        stat("obligation_cache_misses"),
        stat("full_cache_hits"),
        stat("full_cache_misses"),
        stat("cached_obligations"),
        stat("known_programs"),
    ) else {
        return Err(format!("unreadable (stats) line `{}`", stats_line.trim()));
    };
    report.layer("core.incr.obligation_hit_ratio", oh / (oh + om));
    report.layer("core.incr.obligation_lookups", oh + om);
    report.layer("core.incr.full_hit_ratio", fh / (fh + fm));
    report.layer("core.incr.full_lookups", fh + fm);
    report.layer("core.incr.cached_obligations", cached);
    report.layer("serve.known_programs", known);
    let reruns: Vec<f64> = requests
        .iter()
        .zip(&exchanges)
        .filter(|(r, e)| r.kind == Kind::Edit && !e.full_hit && e.obligations > 0)
        .map(|(_, e)| (e.obligations - e.cached) as f64)
        .collect();
    report.layer("core.incr.rerun_obligations_per_edit", mean(&reruns));
    Ok(report)
}
