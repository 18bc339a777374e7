//! Cold vs warm request latency through the verification daemon, end to
//! end over a real TCP round trip; EXPERIMENTS.md records the measured
//! numbers.
//!
//! Four measurements isolate what the resident caches buy:
//!
//! * `daemon_start_ping_stop` — the fixed cost of spinning up a daemon
//!   (engine threads, listener) and tearing it down, so the cold number
//!   below can be read net of startup;
//! * `two_phase_commit/cold_fresh_daemon` — a fresh daemon's first 2PC
//!   check: full exploration plus every obligation discharged from
//!   scratch (startup and shutdown included);
//! * `two_phase_commit/warm_full_cache_hit` — the identical program
//!   resubmitted to a resident daemon: answered entirely from the
//!   whole-run cache, no exploration;
//! * `two_phase_commit/audit_edit_incremental` — a never-seen-before
//!   variant per request (a fresh `Audit` constant, footprint-disjoint
//!   from the rest of the protocol): the daemon re-explores and
//!   re-discharges only the `Audit`-involving obligations, serving the
//!   rest from cache.

use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};

use criterion::{criterion_group, criterion_main, Criterion};
use inseq_fuzz::corpus::table1_specs;
use inseq_kernel::Value;
use inseq_lang::build::int;
use inseq_lang::serial::write_spec_line;
use inseq_lang::spec::{ActionSpec, ProgramSpec, SpecStmt};
use inseq_lang::Sort;
use inseq_serve::{Server, ServerConfig};

const BUDGET: usize = 4_000;

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            stream,
        }
    }

    /// One write per request line: splitting the newline into a second
    /// segment makes Nagle + delayed ACK stall every round trip.
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(!line.is_empty(), "connection closed early");
        line
    }

    /// Submits `spec` and reads the stream through its final line.
    fn check(&mut self, spec: &ProgramSpec) {
        self.send(&format!(
            "(check (budget {BUDGET}) {})",
            write_spec_line(spec)
        ));
        loop {
            let line = self.recv();
            if line.contains("\"type\": \"verdict\"") {
                return;
            }
            assert!(
                !line.contains("\"type\": \"error\""),
                "daemon rejected the request: {line}"
            );
        }
    }
}

fn start_daemon() -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServerConfig::default()).expect("bind");
    let addr = server.local_addr().expect("local addr");
    (addr, thread::spawn(move || server.run()))
}

fn stop_daemon(addr: SocketAddr, runner: JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr);
    client.send("(shutdown)");
    let bye = client.recv();
    assert!(bye.contains("\"type\": \"bye\""), "unexpected: {bye}");
    runner
        .join()
        .expect("run thread panicked")
        .expect("run failed");
}

fn two_phase_commit_spec() -> ProgramSpec {
    table1_specs()
        .into_iter()
        .find(|(name, _)| *name == "two_phase_commit")
        .expect("2pc in corpus")
        .1
}

/// 2PC plus an `Audit` action over a fresh global, so each distinct
/// constant yields a never-submitted program whose edit is
/// footprint-disjoint from the rest of the protocol.
fn audited_2pc(audit_value: i64) -> ProgramSpec {
    let mut spec = two_phase_commit_spec();
    spec.globals
        .push(("audit".to_owned(), Sort::Int, Value::Int(0)));
    spec.pending.push(("Audit".to_owned(), Vec::new()));
    spec.actions.push(ActionSpec {
        name: "Audit".to_owned(),
        params: Vec::new(),
        locals: Vec::new(),
        body: vec![SpecStmt::Assign("audit".to_owned(), int(audit_value))],
    });
    spec
}

fn bench_serve_latency(c: &mut Criterion) {
    let two_pc = two_phase_commit_spec();
    let mut group = c.benchmark_group("serve_latency");
    group.sample_size(10);

    group.bench_function("daemon_start_ping_stop", |b| {
        b.iter(|| {
            let (addr, runner) = start_daemon();
            let mut client = Client::connect(addr);
            client.send("(ping)");
            assert!(client.recv().contains("\"type\": \"pong\""));
            drop(client);
            stop_daemon(addr, runner);
        });
    });

    group.bench_function("two_phase_commit/cold_fresh_daemon", |b| {
        b.iter(|| {
            let (addr, runner) = start_daemon();
            let mut client = Client::connect(addr);
            client.check(&two_pc);
            drop(client);
            stop_daemon(addr, runner);
        });
    });

    // Apples-to-apples baseline for the incremental measurement below:
    // the audited variant checked cold, from a fresh daemon each time.
    group.bench_function("two_phase_commit/audit_cold_fresh_daemon", |b| {
        b.iter(|| {
            let (addr, runner) = start_daemon();
            let mut client = Client::connect(addr);
            client.check(&audited_2pc(0));
            drop(client);
            stop_daemon(addr, runner);
        });
    });

    // One resident daemon for the warm and incremental measurements.
    let (addr, runner) = start_daemon();
    let mut client = Client::connect(addr);
    client.check(&two_pc);

    group.bench_function("two_phase_commit/warm_full_cache_hit", |b| {
        b.iter(|| client.check(&two_pc));
    });

    let next_constant = Cell::new(0i64);
    group.bench_function("two_phase_commit/audit_edit_incremental", |b| {
        b.iter(|| {
            let i = next_constant.get();
            next_constant.set(i + 1);
            client.check(&audited_2pc(i));
        });
    });

    group.finish();
    drop(client);
    stop_daemon(addr, runner);
}

criterion_group!(benches, bench_serve_latency);
criterion_main!(benches);
