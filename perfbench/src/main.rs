//! The LOVO benchmark: one command, three workloads, end-to-end metrics with
//! tracing off and per-layer metrics with tracing on. See `README.md`.
//!
//! ```text
//! lovo-perfbench --workload adhoc|scoped|live|all [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is non-zero when a
//! correctness gate fails or the run could not complete.

mod adhoc;
mod common;
mod gen;
mod live;
mod measure;
mod report;
mod scoped;
mod trace;

use common::Run;
use gen::Workload;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    workload: Option<Workload>,
    run: Run,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut run = Run {
        seed: 1,
        window: Duration::from_secs(40),
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
        };
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => run.seed = number()?,
            "--seconds" => run.window = Duration::from_secs(number()?.clamp(1, 600)),
            "--trace" => run.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload adhoc|scoped|live|all is required".into());
    }
    Ok(Args { workload, run })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lovo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_one(workload, &args.run),
        None => run_all(&args.run),
    }
}

fn run_one(workload: Workload, run: &Run) -> ExitCode {
    let clients = measure::nproc().min(2);
    println!(
        "== lovo-perfbench workload={} seed={} seconds={} trace={} ==",
        workload.name(),
        run.seed,
        run.window.as_secs(),
        u8::from(run.trace)
    );
    println!("why: {}", workload.why());
    println!("machine: {}", measure::fingerprint());
    println!(
        "corpus: Bellevue generator, {} videos x {} frames; default LovoConfig, ServeConfig and ShardConfig",
        gen::VIDEOS,
        gen::FRAMES_PER_VIDEO
    );
    let tracer = Arc::new(trace::Tracer::new());
    let result = match workload {
        Workload::Adhoc => adhoc::run(run, clients, &tracer),
        Workload::Scoped => scoped::run(run, clients, &tracer),
        Workload::Live => live::run(run, &tracer),
    };
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("lovo-perfbench: {} failed: {e}", workload.name());
            return ExitCode::from(3);
        }
    };
    if run.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-seed{}.jsonl", workload.name(), run.seed));
        let header = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"machine\": \"{}\"}}",
            workload.name(),
            run.seed,
            measure::fingerprint()
        );
        match tracer.write(&path, &header) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("lovo-perfbench: could not write spans: {e}"),
        }
    }
    report.print();
    match report.json(run.trace) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("lovo-perfbench: {e}");
            return ExitCode::from(3);
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("lovo-perfbench: a correctness gate failed");
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in its own process so that each peak RSS is
/// its own, and fails if any of them fails.
fn run_all(run: &Run) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("lovo-perfbench: cannot locate own executable");
        return ExitCode::from(2);
    };
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.window.as_secs().to_string()])
            .args(["--trace", if run.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(workload.name());
        }
    }
    if failed.is_empty() {
        println!("all workloads passed");
        ExitCode::SUCCESS
    } else {
        println!("failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
