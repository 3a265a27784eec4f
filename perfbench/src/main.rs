//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <policy-sweep|long-horizon|rack> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run sets the workload up several times, executes its cells once as
//! the reference, then repeats closed-loop passes (sweep, JSON, CSV)
//! for `--seconds`, checking every cell of every pass. The last line
//! of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod check;
mod layers;
mod metrics;
mod pass;
mod spans;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::check::sim_digest;
use crate::pass::pass;
use crate::spans::Spans;
use crate::stats::fastest;
use crate::workload::{set_up, Workload};
use neon_scenario::sweep::SweepCell;

/// Set-ups before the reference and before each pass.
const SETUPS_PER_PASS: usize = 4;
/// Passes a run makes even when `--seconds` is already spent.
const MIN_PASSES: usize = 3;

const USAGE: &str =
    "usage: perfbench --workload <policy-sweep|long-horizon|rack> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sets the workload up [`SETUPS_PER_PASS`] times, appending the host
/// seconds of each set-up and of its `toml_file`, `validate` and `plan`
/// phases to `times`. Returns the last set-up's cells.
fn set_up_repeatedly(
    w: Workload,
    seed: u64,
    times: &mut [Vec<f64>; 4],
    mut spans: Option<&mut Spans>,
) -> Result<Vec<SweepCell>, String> {
    let mut cells = Vec::new();
    for _ in 0..SETUPS_PER_PASS {
        if let Some(s) = spans.as_deref_mut() {
            s.enter("setup");
        }
        let setup = set_up(w, seed, spans.as_deref_mut())?;
        if let Some(s) = spans.as_deref_mut() {
            s.exit();
        }
        let phases = [setup.total(), setup.load, setup.validate, setup.plan];
        for (samples, d) in times.iter_mut().zip(phases) {
            samples.push(secs(d));
        }
        cells = setup.cells;
    }
    Ok(cells)
}

/// Runs the benchmark and returns the result line.
fn run(args: &Args) -> Result<String, String> {
    let w = args.workload;
    let mut spans = args.trace.then(Spans::new);

    // Set-ups recur before the reference and before every pass, so
    // their samples span the whole run like the passes do.
    let mut setups: [Vec<f64>; 4] = Default::default();
    let cells = set_up_repeatedly(w, args.seed, &mut setups, spans.as_mut())?;

    // The reference: every cell once, serially. Later passes must
    // reproduce its simulated rows cell for cell.
    let reference = pass(&cells, 1, None, None);
    let mut failed = reference.failed;
    let mut attempted = cells.len();

    let threads = w.threads();
    let (mut untraced, mut traced, mut cell_passes) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    while started.elapsed() < budget || untraced.len() + traced.len() < MIN_PASSES {
        set_up_repeatedly(w, args.seed, &mut setups, spans.as_mut())?;
        // A traced run rotates through an untraced pass, a traced pass
        // and a cell pass, so all three sample the same stretch of
        // host load; the ratio of the fastest traced and untraced
        // passes is the tracing overhead.
        let turn = untraced.len() + traced.len() + cell_passes.len();
        if let Some(s) = spans.as_mut().filter(|_| turn % 3 == 2) {
            cell_passes.push(layers::cell_pass(&cells, s));
            continue;
        }
        let trace_this = spans.is_some() && turn % 3 == 1;
        let p = pass(
            &cells,
            threads,
            Some(&reference.rows),
            spans.as_mut().filter(|_| trace_this),
        );
        attempted += cells.len();
        failed += p.failed;
        if trace_this {
            traced.push(secs(p.wall));
        } else {
            untraced.push(secs(p.wall));
        }
    }

    let digest = sim_digest(
        &reference
            .rows
            .iter()
            .map(|r| r.unwrap_or(0))
            .collect::<Vec<_>>(),
    );
    println!(
        "workload {} seed {}: {} cells on {threads} thread(s), {} simulated events per pass, {} passes",
        w.name(),
        args.seed,
        cells.len(),
        reference.events,
        untraced.len() + traced.len(),
    );
    println!("sim_digest {digest:016x}");
    let ms = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!("perfbench: untraced pass ms: {}", ms(&untraced));
    if !traced.is_empty() {
        eprintln!("perfbench: traced pass ms: {}", ms(&traced));
    }
    println!(
        "cell_error_rate {} ({failed} of {attempted} cells failed)",
        failed as f64 / attempted as f64
    );

    let mut values = BTreeMap::new();
    let defs = if let Some(mut spans) = spans {
        let t = layers::Traced {
            seed: args.seed,
            threads,
            cells: &cells,
            reference: &reference.outcome,
            setup: [setups[1].clone(), setups[2].clone(), setups[3].clone()],
            walls: (untraced, traced),
            cell_passes,
            bytes: reference.bytes,
        };
        values = layers::per_layer(&t, &mut spans)?;
        write_spans(w, args.seed, &spans);
        metrics::per_layer()
    } else {
        let wall_s = fastest(&untraced);
        values.insert("setup_s".to_string(), fastest(&setups[0]));
        values.insert("wall_s".to_string(), wall_s);
        values.insert(
            "sim_events_per_s".to_string(),
            reference.events as f64 / wall_s,
        );
        let rss = neon_scenario::driver::peak_rss_bytes().ok_or("VmHWM is unavailable")?;
        values.insert("peak_rss_bytes".to_string(), rss as f64);
        metrics::end_to_end()
    };
    metrics::result_line(&defs, &values, attempted, failed)
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(w: Workload, seed: u64, spans: &Spans) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-{seed}.jsonl", w.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
    match written {
        Ok(()) => eprintln!(
            "perfbench: {} spans written to {}",
            spans.all().len(),
            path.display()
        ),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
