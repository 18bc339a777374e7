//! The `fuzz` binary: generate → check → shrink → serialize.
//!
//! ```text
//! fuzz [--seed N] [--iters N] [--max-actions N] [--budget N]
//!      [--oracle NAME]... [--corpus-dir DIR]
//!      [--guided] [--workers N] [--reduce off|por|sym|both]
//!      [--time-limit SECS] [--trend-json FILE]
//! fuzz --replay FILE [--oracle NAME]... [--budget N]
//! fuzz --export-table1 [--corpus-dir DIR]
//! fuzz --export-zoo [--corpus-dir DIR]
//! ```
//!
//! `--guided` switches the campaign from blind generation to
//! coverage-guided corpus evolution (see `inseq_fuzz::campaign`);
//! `--trend-json` writes the coverage-over-time trend as one JSON document.
//!
//! Replay verifies any `;@` metadata recorded in the corpus file: the
//! entry must reproduce its recorded verdict, visited count, witness-trace
//! length, and coverage signature. A metadata block that is malformed or
//! lacks its `;@ seed` line is a usage error (exit 2), not a panic.
//!
//! Exit codes: `0` — every iteration agreed (and, for replay, metadata
//! verified); `1` — a disagreement or a stale corpus entry was found; `2`
//! — usage error, including unreadable or malformed corpus metadata.

use std::path::PathBuf;
use std::process::ExitCode;

use inseq_fuzz::campaign::{run_campaign, CampaignConfig};
use inseq_fuzz::corpus::{table1_specs, zoo_specs};
use inseq_fuzz::coverage::MeasureOptions;
use inseq_fuzz::meta::{phase_breakdown, ReplayMeta};
use inseq_fuzz::oracles::{disagrees, run_oracle, Oracle, OracleOutcome, DEFAULT_BUDGET};
use inseq_fuzz::shrink::shrink;
use inseq_fuzz::{generate, GenConfig};
use inseq_kernel::ReduceMode;
use inseq_lang::serial::{parse_spec, write_spec};
use inseq_lang::spec::ProgramSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Options {
    seed: u64,
    iters: u64,
    max_actions: usize,
    budget: usize,
    oracles: Vec<Oracle>,
    replay: Option<PathBuf>,
    corpus_dir: PathBuf,
    export_table1: bool,
    export_zoo: bool,
    guided: bool,
    workers: usize,
    reduce: ReduceMode,
    time_limit: Option<u64>,
    trend_json: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut opts = Options {
            seed: 0,
            iters: 200,
            max_actions: GenConfig::default().max_actions,
            budget: DEFAULT_BUDGET,
            oracles: Vec::new(),
            replay: None,
            corpus_dir: PathBuf::from("fuzz/corpus"),
            export_table1: false,
            export_zoo: false,
            guided: false,
            workers: 2,
            reduce: ReduceMode::Por,
            time_limit: None,
            trend_json: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--seed" => opts.seed = parse_num(&value("--seed")?)?,
                "--iters" => opts.iters = parse_num(&value("--iters")?)?,
                "--max-actions" => opts.max_actions = parse_num(&value("--max-actions")?)?,
                "--budget" => opts.budget = parse_num(&value("--budget")?)?,
                "--oracle" => {
                    let name = value("--oracle")?;
                    let oracle = Oracle::from_name(&name).ok_or_else(|| {
                        format!(
                            "unknown oracle `{name}`; known: {}",
                            Oracle::ALL.map(|o| o.name()).join(", ")
                        )
                    })?;
                    opts.oracles.push(oracle);
                }
                "--replay" => opts.replay = Some(PathBuf::from(value("--replay")?)),
                "--corpus-dir" => opts.corpus_dir = PathBuf::from(value("--corpus-dir")?),
                "--export-table1" => opts.export_table1 = true,
                "--export-zoo" => opts.export_zoo = true,
                "--guided" => opts.guided = true,
                "--workers" => opts.workers = parse_num(&value("--workers")?)?,
                "--reduce" => {
                    let mode = value("--reduce")?;
                    opts.reduce = match mode.as_str() {
                        "off" => ReduceMode::Off,
                        "por" => ReduceMode::Por,
                        "sym" => ReduceMode::Sym,
                        "both" => ReduceMode::Both,
                        other => return Err(format!("unknown reduce mode `{other}`")),
                    };
                }
                "--time-limit" => opts.time_limit = Some(parse_num(&value("--time-limit")?)?),
                "--trend-json" => opts.trend_json = Some(PathBuf::from(value("--trend-json")?)),
                "--help" | "-h" => return Err(String::new()),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        if opts.oracles.is_empty() {
            opts.oracles = Oracle::ALL.to_vec();
        }
        if opts.workers == 0 {
            return Err("--workers must be at least 1".into());
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("not a number: `{s}`"))
}

fn usage() {
    eprintln!(
        "usage: fuzz [--seed N] [--iters N] [--max-actions N] [--budget N] \
         [--oracle NAME]... [--corpus-dir DIR]\n\
         \x20           [--guided] [--workers N] [--reduce off|por|sym|both] \
         [--time-limit SECS] [--trend-json FILE]\n\
         \x20      fuzz --replay FILE [--oracle NAME]... [--budget N]\n\
         \x20      fuzz --export-table1 [--corpus-dir DIR]\n\
         \x20      fuzz --export-zoo [--corpus-dir DIR]\n\
         oracles: {}",
        Oracle::ALL.map(|o| o.name()).join(", ")
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            usage();
            return ExitCode::from(2);
        }
    };

    if opts.export_table1 {
        return export_table1(&opts);
    }
    if opts.export_zoo {
        return export_zoo(&opts);
    }
    if let Some(path) = &opts.replay {
        return replay(path.clone(), &opts);
    }
    if opts.guided {
        return guided_campaign(&opts);
    }
    campaign(&opts)
}

fn export_table1(opts: &Options) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.corpus_dir) {
        eprintln!("error: cannot create {}: {e}", opts.corpus_dir.display());
        return ExitCode::from(2);
    }
    for (name, spec) in table1_specs() {
        let path = opts.corpus_dir.join(format!("{name}.sexp"));
        let mut text = format!(
            "; Table 1 protocol `{name}` (P2 atomic-action program, tiny instance),\n\
             ; exported through the fuzz corpus format. Regenerate with\n\
             ; `fuzz --export-table1`.\n"
        );
        text.push_str(&write_spec(&spec));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn export_zoo(opts: &Options) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.corpus_dir) {
        eprintln!("error: cannot create {}: {e}", opts.corpus_dir.display());
        return ExitCode::from(2);
    }
    // Zoo entries record the verified-replay metadata (verdict, visited
    // count, witness length, coverage signature) at the default measure
    // options so `tests/zoo_replay.rs` can detect staleness. Measuring runs
    // the whole battery per protocol, so this takes a few seconds.
    let measure = MeasureOptions::default();
    for (name, spec) in zoo_specs() {
        let meta = inseq_fuzz::meta::record(&spec, 0, "promoted", &measure);
        let path = opts.corpus_dir.join(format!("{name}.sexp"));
        let mut text = format!(
            "; Scenario-zoo protocol `{name}` (see `inseq_protocols::zoo`),\n\
             ; promoted from the coverage-guided campaign and pinned with\n\
             ; verified-replay metadata. Regenerate with `fuzz --export-zoo`.\n{}",
            meta.render()
        );
        text.push_str(&write_spec(&spec));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

fn replay(path: PathBuf, opts: &Options) -> ExitCode {
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    let spec = match parse_spec(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    // Metadata problems are usage errors: a malformed block, or a block
    // that exists but lacks the seed the verification is keyed on.
    let meta = match ReplayMeta::parse(&text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };
    if !meta.is_empty() {
        if let Err(e) = meta.require_seed() {
            eprintln!("error: {}: {}", path.display(), e.message);
            return ExitCode::from(2);
        }
    }

    let mut failed = false;
    for &oracle in &opts.oracles {
        match run_oracle(oracle, &spec, opts.budget) {
            Ok(OracleOutcome::Checked) => println!("{oracle}: ok"),
            Ok(OracleOutcome::Skipped(why)) => println!("{oracle}: skipped ({why})"),
            Err(d) => {
                println!("{oracle}: DISAGREEMENT\n  {}", d.detail);
                failed = true;
            }
        }
    }

    if !meta.is_empty() {
        let measure = MeasureOptions {
            budget: opts.budget,
            workers: opts.workers,
            reduce: opts.reduce,
        };
        let mismatches = inseq_fuzz::meta::verify(&spec, &meta, &measure);
        if mismatches.is_empty() {
            println!("metadata: verified");
        } else {
            for m in &mismatches {
                println!("metadata: STALE — {m}");
            }
            failed = true;
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn guided_campaign(opts: &Options) -> ExitCode {
    let config = CampaignConfig {
        seed: opts.seed,
        iters: opts.iters,
        guided: true,
        gen: GenConfig {
            max_actions: opts.max_actions,
            ..GenConfig::default()
        },
        budget: opts.budget,
        workers: opts.workers,
        reduce: opts.reduce,
        time_limit: opts.time_limit.map(std::time::Duration::from_secs),
        ..CampaignConfig::default()
    };
    let mut progress = |iteration: u64, edges: usize| {
        if iteration.is_multiple_of(50) {
            println!("… {iteration}/{} iterations, {edges} edges", opts.iters);
        }
    };
    let result = run_campaign(&config, Some(&mut progress));

    println!(
        "guided campaign: {} iterations, {} coverage edges, {} corpus entries, {:.1} programs/sec",
        result.iterations,
        result.global.edges(),
        result.corpus.len(),
        result.programs_per_sec()
    );
    println!(
        "per-oracle wall clock:\n{}",
        phase_breakdown(&result.oracle_wall)
    );

    if let Some(path) = &opts.trend_json {
        if let Err(e) = std::fs::write(path, result.trend_json()) {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("trend written to {}", path.display());
    }

    match result.finding {
        None => ExitCode::SUCCESS,
        Some(finding) => report_disagreement(
            opts,
            finding.seed,
            &finding.spec,
            &finding.disagreement.detail,
            finding.disagreement.oracle,
        ),
    }
}

fn campaign(opts: &Options) -> ExitCode {
    let config = GenConfig {
        max_actions: opts.max_actions,
        ..GenConfig::default()
    };
    let mut checked = vec![0u64; Oracle::ALL.len()];
    let mut skipped = vec![0u64; Oracle::ALL.len()];
    for i in 0..opts.iters {
        let seed = opts.seed.wrapping_add(i);
        let spec = generate(&mut StdRng::seed_from_u64(seed), &config);
        for &oracle in &opts.oracles {
            let slot = Oracle::ALL.iter().position(|&o| o == oracle).unwrap();
            match run_oracle(oracle, &spec, opts.budget) {
                Ok(OracleOutcome::Checked) => checked[slot] += 1,
                Ok(OracleOutcome::Skipped(_)) => skipped[slot] += 1,
                Err(d) => return report_disagreement(opts, seed, &spec, &d.detail, oracle),
            }
        }
        if (i + 1) % 50 == 0 {
            println!("… {}/{} iterations", i + 1, opts.iters);
        }
    }
    println!(
        "fuzzed {} programs (seeds {}..{}), no disagreements",
        opts.iters,
        opts.seed,
        opts.seed.wrapping_add(opts.iters)
    );
    for &oracle in &opts.oracles {
        let slot = Oracle::ALL.iter().position(|&o| o == oracle).unwrap();
        println!(
            "  {:<12} checked {:>5}  skipped {:>5}",
            oracle.name(),
            checked[slot],
            skipped[slot]
        );
    }
    ExitCode::SUCCESS
}

fn report_disagreement(
    opts: &Options,
    seed: u64,
    spec: &ProgramSpec,
    detail: &str,
    oracle: Oracle,
) -> ExitCode {
    eprintln!("seed {seed}: oracle `{oracle}` disagreement:\n  {detail}");
    eprintln!("shrinking…");
    let budget = opts.budget;
    let small = shrink(spec, |candidate| disagrees(oracle, candidate, budget));
    eprintln!(
        "minimized to {} statement(s) across {} action(s)",
        small.stmt_count(),
        small.actions.len()
    );
    let meta = ReplayMeta {
        seed: Some(seed),
        kind: Some("generated".into()),
        oracle: Some(oracle.name().into()),
        ..ReplayMeta::default()
    };
    let mut text = format!(
        "; Minimized repro: oracle `{oracle}` disagreement.\n\
         ; Found by `fuzz --seed {seed} --iters 1 --oracle {oracle} --budget {budget}`.\n\
         ; Replay with `fuzz --replay <this file> --oracle {oracle}`.\n{}",
        meta.render()
    );
    text.push_str(&write_spec(&small));
    let path = opts
        .corpus_dir
        .join(format!("repro-{}-seed{seed}.sexp", oracle.name()));
    if let Err(e) =
        std::fs::create_dir_all(&opts.corpus_dir).and_then(|()| std::fs::write(&path, &text))
    {
        eprintln!("error: cannot write repro to {}: {e}", path.display());
        eprintln!("repro follows:\n{text}");
    } else {
        eprintln!("repro written to {}", path.display());
    }
    ExitCode::from(1)
}
