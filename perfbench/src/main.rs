//! The repository benchmark.
//!
//! `perfbench --workload <flood|churn|lossy> --seed <n> --seconds <s>
//! --trace <0|1> [--spans <file>]`
//!
//! Compiles the workload's scenario with the harness's schedule compiler
//! and drives the backend only through the `PubSub` facade, one open-loop
//! round at a time, in repeated passes until `--seconds` have elapsed.
//! With `--trace 0` the passes cycle through the workload's seeds, all
//! drawn from `--seed`, and it prints the end-to-end metrics of these
//! untraced passes; with `--trace 1` it alternates untraced and traced
//! passes of `--seed` alone and prints the per-layer metrics. Every pass
//! checks what the program hands back; any violation makes the result
//! `correct: false` and the exit code non-zero. The last line of standard output is the
//! result as one JSON object.

mod alloc;
mod client;
mod ledger;
mod report;
mod stats;
mod trace;
mod workloads;

use client::PassOut;
use report::Metrics;
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups an untraced run times for `setup_s`. Each bootstraps its own
/// seed, drawn from the run's seed: how many rounds the bootstrap needs
/// depends on the protocol's coin flips (10 to 33 on flood), so set-ups
/// of one seed alone would carry that spread into the median. They are
/// spread over the run between passes, because one set-up takes only
/// tens of milliseconds and a burst of load from elsewhere on the
/// machine would otherwise hit them all at once.
const SETUPS: u64 = 32;

/// The `i`-th seed drawn from a run's seed `seed`, for set-ups and for
/// the workload's seeds; seed 0 is the run's own seed.
fn derived_seed(seed: u64, i: u64) -> u64 {
    seed ^ (i << 32)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--spans" => spans = Some(value()?),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// Checks a pass against the first one of its seed: same deterministic
/// counters, and the same snapshot size when both took checkpoints.
fn compare_counts(first: &PassOut, other: &PassOut) -> Result<(), String> {
    if let (Some(a), Some(b)) = (first.snapshot_bytes, other.snapshot_bytes) {
        if a != b {
            return Err(format!(
                "snapshot size differs between passes: {a} vs {b} bytes"
            ));
        }
    }
    if first.counts == other.counts {
        return Ok(());
    }
    let key = first
        .counts
        .keys()
        .chain(other.counts.keys())
        .find(|k| first.counts.get(*k) != other.counts.get(*k))
        .expect("maps differ somewhere");
    Err(format!(
        "deterministic counter {key} differs between passes (traced: {} vs {}): {:?} vs {:?}",
        first.tracer.on(),
        other.tracer.on(),
        first.counts.get(key),
        other.counts.get(key)
    ))
}

/// What a run prints: the result's metrics, further figures shown only
/// in the table, the op accounting, and failed checks.
struct Outcome {
    metrics: Metrics,
    shown: Metrics,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// One line per pass, in the order they ran.
    passes: Vec<String>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let build = |i: u64| workloads::build(&args.workload, derived_seed(args.seed, i));
    let w = build(0).ok_or_else(|| {
        format!(
            "unknown workload {:?}; choose one of {:?}",
            args.workload,
            workloads::NAMES
        )
    })?;
    // The seeds the passes cycle through; a traced run keeps to one, so
    // its traced and untraced passes are comparable.
    let seeds = if args.trace { 1 } else { w.seeds };
    let ws: Vec<workloads::Workload> = std::iter::once(w)
        .chain((1..seeds).map(|i| build(i).expect("the name was checked above")))
        .collect();
    // Pass 0 warms the heap and caches up and is left out of the
    // timings; then the passes cycle through the seeds (a traced run
    // alternates untraced and traced passes). The first pass of each
    // seed is the reference its later passes must match count for
    // count, and it alone times checkpoints outside a traced run, which
    // frees the time for more passes.
    let mut passes: Vec<PassOut> = Vec::new();
    let mut seed_of: Vec<usize> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let least = 1 + if args.trace { 2 } else { ws.len() };
    loop {
        let i = passes.len();
        let seed = if i == 0 { 0 } else { (i - 1) % ws.len() };
        let traced = args.trace && i > 0 && i.is_multiple_of(2);
        let checkpoints = args.trace || !seed_of.contains(&seed);
        passes.push(client::run_pass(&ws[seed], traced, checkpoints)?);
        seed_of.push(seed);
        let done = start.elapsed().as_secs_f64() / args.seconds;
        let last = done >= 1.0 && passes.len() >= least;
        let due = match (args.trace, last) {
            (true, _) => 0,
            (false, true) => SETUPS,
            (false, false) => (SETUPS as f64 * done).ceil() as u64,
        };
        for i in setups.len() as u64..due {
            setups.push(client::setup_only(
                &build(i).expect("the name was checked above"),
            )?);
        }
        if last {
            break;
        }
    }
    let mut errors: Vec<String> = passes
        .iter()
        .flat_map(|p| p.errors.iter().cloned())
        .collect();
    let reference = |seed: usize| &passes[seed_of.iter().position(|&s| s == seed).unwrap()];
    for (p, &seed) in passes.iter().zip(&seed_of) {
        if let Err(e) = compare_counts(reference(seed), p) {
            errors.push(e);
        }
    }
    let timed = || passes.iter().zip(&seed_of).skip(1);
    let (metrics, shown) = if args.trace {
        let (traced, untraced): (Vec<&PassOut>, Vec<&PassOut>) =
            timed().map(|(p, _)| p).partition(|p| p.tracer.on());
        if let Some(path) = &args.spans {
            let last = traced.last().expect("a traced pass ran");
            let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            last.tracer
                .write_tsv(&mut out)
                .map_err(|e| format!("{path}: {e}"))?;
            std::io::Write::flush(&mut out).map_err(|e| format!("{path}: {e}"))?;
        }
        (report::per_layer(&traced, &untraced)?, Metrics::default())
    } else {
        let mut by_seed: Vec<Vec<&PassOut>> = vec![Vec::new(); ws.len()];
        for (p, &seed) in timed() {
            by_seed[seed].push(p);
        }
        let seed0: Vec<&PassOut> = passes
            .iter()
            .zip(&seed_of)
            .filter(|(_, &s)| s == 0)
            .map(|(p, _)| p)
            .collect();
        (
            report::end_to_end(&by_seed, &setups)?,
            report::outcomes(&passes[0], &seed0),
        )
    };
    for m in &metrics.0 {
        if !m.value.is_finite() {
            errors.push(format!("metric {} is not a finite number", m.name));
        }
    }
    let lines = passes
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "pass {} {} seed {}: setup {:.4} s ({} bootstrap rounds), schedule {:.4} s, run {:.4} s",
                i,
                match (i, p.tracer.on()) {
                    (0, _) => "warm-up",
                    (_, true) => "traced",
                    _ => "untraced",
                },
                seed_of[i],
                p.setup_s,
                p.counts["warm_rounds"],
                p.sched_s,
                p.run_s
            )
        })
        .collect();
    // Each seed's ops count once, however often its passes replayed them.
    let ops = |key: &str| (0..ws.len()).map(|s| reference(s).counts[key]).sum();
    Ok(Outcome {
        metrics,
        shown,
        attempted: ops("attempted"),
        failed: ops("failed"),
        errors,
        passes: lines,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed {} trace {} on {} cores",
        args.workload,
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in out.metrics.0.iter().chain(&out.shown.0) {
        println!(
            "# {:<36} {:>16.6} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for line in &out.passes {
        println!("# {line}");
    }
    println!(
        "# ops attempted {}, failed at the cap {}",
        out.attempted, out.failed
    );
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    let body: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.errors.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
