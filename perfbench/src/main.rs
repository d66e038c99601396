//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object: `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).
//! Writes the result file (environment, seed, sample counts) and, when
//! traced, the spans under `perfbench/out/`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use perfbench::bench::{environment, run, work_dir, RunSpec};
use perfbench::report::{result_file, result_line};
use perfbench::workload::{rank_main, Sizes, Workload};
use ppar_adapt::netrun::NetConfig;
use ppar_core::runtime::ModeSwitch;

/// A run must end within 180 s; one still going after this long is hung
/// and exits without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {workload:?} (one of {names:?})")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match NetConfig::from_env() {
        Ok(Some(cfg)) => {
            return match rank_main(cfg) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench rank: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: malformed rank environment: {e}");
            return ExitCode::FAILURE;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // A live reshape that escalates unwinds every simulated rank with a
    // `ModeSwitch` payload, which `launch_live` catches; keep it off stderr.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<ModeSwitch>() {
            default_hook(info);
        }
    }));
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {WATCHDOG:?}; exiting without a result");
        std::process::exit(3);
    });

    let out = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let sizes = Sizes::bench();
    let spec = RunSpec {
        workload: args.workload,
        sizes,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work: work_dir(&out, args.workload, args.seed),
    };
    let env = environment(&out, &sizes);
    eprintln!(
        "perfbench: workload {} seed {} for {} s, trace {} | nproc {} | rev {} | ckpt fs {} | LLC {} vs {:.0} MiB state | PPAR_STORE_SYNC {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        env.nproc,
        env.git_rev,
        env.ckpt_fs,
        env.llc,
        env.state_mib,
        env.store_sync
    );
    let outcome = run(&spec);
    let _ = std::fs::remove_dir_all(&spec.work);
    let correct = outcome.failed == 0;
    let report = &outcome.report;

    eprintln!(
        "{:<28} {:>14} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in report.metrics.iter().chain(&report.extra) {
        eprintln!(
            "{:<28} {:>14.6} {:<6} {:>7}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.note.map(|n| format!("  ({n})")).unwrap_or_default()
        );
    }
    for row in &report.notes {
        eprintln!("{row}");
    }
    eprintln!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let rows: Vec<_> = report
        .metrics
        .iter()
        .chain(&report.extra)
        .cloned()
        .collect();
    let file = result_file(
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        &env,
        correct,
        outcome.attempted,
        outcome.failed,
        &rows,
    );
    if let Err(e) = std::fs::write(out.join(format!("{tag}.json")), file) {
        eprintln!("perfbench: cannot write the result file: {e}");
    }
    if args.trace {
        if let Err(e) = outcome
            .tracer
            .write_jsonl(&out.join(format!("{tag}.spans.jsonl")))
        {
            eprintln!("perfbench: cannot write the spans: {e}");
        }
    }
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &report.metrics)
    );
    ExitCode::SUCCESS
}
