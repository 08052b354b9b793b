//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a detail line on stderr and, as the last line on stdout, the
//! result: `{"correct", "attempted", "failed", "metrics"}`.

use e2ebench::{run, Config, Workload};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// A run that hangs is killed from inside after this long, without a
/// result line.
const WATCHDOG: Duration = Duration::from_secs(170);

fn usage(msg: &str) -> ExitCode {
    eprintln!("e2ebench: {msg}");
    eprintln!(
        "usage: e2ebench --workload <mpi_pingpong|mpi_bulk|relay_churn> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        run: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Spans go next to the binary, inside the build directory:
/// `<target>/release/spans/<workload>-seed<n>.jsonl`.
fn write_spans(cfg: &Config, spans: &[e2ebench::trace::Span]) -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(Path::new(".")).join("spans");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.jsonl", cfg.workload.name(), cfg.seed));
    let mut out = BufWriter::new(File::create(&path)?);
    e2ebench::trace::write_jsonl(spans, &mut out)?;
    out.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => return usage(&e),
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("e2ebench: watchdog expired after {WATCHDOG:?}");
        std::process::exit(3);
    });
    match run(&cfg) {
        Ok(report) => {
            if cfg.trace {
                match write_spans(&cfg, &report.spans) {
                    Ok(path) => eprintln!("e2ebench: spans in {}", path.display()),
                    Err(e) => eprintln!("e2ebench: could not write spans: {e}"),
                }
            }
            eprintln!("{}", report.detail);
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
