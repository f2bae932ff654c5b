//! Flow benchmark for the DeepBurning reproduction.
//!
//! ```text
//! cargo run --release --manifest-path flowbench/Cargo.toml -- \
//!     --workload generate|verify|fullrtl --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is a closed loop: one job at a time, in one process, on
//! one thread. A run sets up its job list (several times, reporting the
//! median), runs one untimed warm-up pass that records reference outputs,
//! then times whole passes over the job list until `--seconds` have
//! elapsed. Every output is checked outside the timed region; a failed
//! check counts its operation as failed.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying the end-to-end metrics; with `--trace 1` an untraced pass is
//! followed by a traced pass that times every call into the library from
//! this crate's own code, and the JSON carries the per-layer metrics.
//! `--reference` prints the per-job reference rows of the README instead,
//! and `--self-check` shows that injected faults are caught. See
//! `flowbench/README.md` for the job lists and the layer map.

mod fullrtl;
mod generate;
mod record;
mod verify;

use record::{Layers, Pass};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// A run builds its job list at least this many times, and until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median. The floor
/// in time gives a sub-millisecond set-up enough samples for a steady
/// median.
const SETUP_REPEATS: usize = 9;
const SETUP_MIN_SECONDS: f64 = 0.2;

/// Receives one reference row: job, host s, analytic cycles, RTL cycles.
pub type RowSink<'a> = dyn FnMut(&str, f64, Option<u64>, Option<u64>) + 'a;

/// One workload: a fixed, seeded job list and the pass over it.
pub trait Workload {
    /// Runs one pass over the job list. The first pass of a run is the
    /// warm-up and records the reference outputs later passes are
    /// compared with. `layers` times each library call when enabled.
    fn pass(&mut self, layers: &mut Layers) -> Pass;

    /// The reference designs' simulated latency (s) and energy (J) per
    /// inference; the fault probes are not among them.
    fn reference_designs(&self) -> Vec<(f64, f64)>;

    /// Runs each job once, calling `row(job, host s, analytic cycles, RTL
    /// cycles)` right after it, for the README's reference table.
    fn reference_rows(&mut self, row: &mut RowSink);
}

/// The per-layer metrics, with their units, in the order printed.
const PER_LAYER: &[(&str, &str)] = &[
    ("model.parse_s", "s"),
    ("core.generate_s", "s"),
    ("core.constraint_iterations", "count"),
    ("compiler.compile_s", "s"),
    ("compiler.folding_s", "s"),
    ("compiler.memory_map_s", "s"),
    ("compiler.tiling_s", "s"),
    ("compiler.agu_s", "s"),
    ("compiler.schedule_s", "s"),
    ("compiler.lut_s", "s"),
    ("compiler.weight_layout_s", "s"),
    ("compiler.phases", "count"),
    ("core.assemble_s", "s"),
    ("core.resources_s", "s"),
    ("core.verilog_bytes", "bytes"),
    ("verilog.lint_s", "s"),
    ("verilog.emit_s", "s"),
    ("verilog.elaborate_s", "s"),
    ("sim.timing_s", "s"),
    ("sim.energy_s", "s"),
    ("tensor.forward_s", "s"),
    ("sim.functional_s", "s"),
    ("sim.diff_s", "s"),
    ("sim.counters_s", "s"),
    ("sim.diff.rtl_checked", "count"),
    ("sim.diff.skip_audited", "count"),
    ("lint.analyze_s", "s"),
    ("lint.chain_proven_layers", "count"),
    ("sim.fullrun_s", "s"),
    ("sim.fullrun.rtl_cycles", "cycles"),
    ("sim.fullrun.cycles_per_s", "cycles/s"),
    ("bench.trace_overhead_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reference: false,
        self_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--reference" => args.reference = true,
            "--self-check" => args.self_check = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !args.self_check && args.workload.is_empty() {
        return Err("--workload generate|verify|fullrtl is required".into());
    }
    Ok(args)
}

fn set_up(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "generate" => Box::new(generate::Generate::new(seed)?),
        "verify" => Box::new(verify::Verify::new(seed)?),
        "fullrtl" => Box::new(fullrtl::FullRtl::new(seed)?),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        f64::midpoint(values[n / 2 - 1], values[n / 2])
    }
}

/// Geometric mean, summed in sorted order so that it repeats exactly
/// whatever order the seeded job list visited the designs in.
fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut logs: Vec<f64> = values.map(f64::ln).collect();
    logs.sort_by(f64::total_cmp);
    (logs.iter().sum::<f64>() / logs.len().max(1) as f64).exp()
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args, start: Instant) -> Result<(), String> {
    // Set-up: build the job list several times; the first build is timed
    // from process start.
    let mut setups = Vec::new();
    let mut from = start;
    let mut workload = loop {
        let built = set_up(&args.workload, args.seed)?;
        setups.push(from.elapsed().as_secs_f64());
        from = Instant::now();
        if setups.len() >= SETUP_REPEATS && setups.iter().sum::<f64>() >= SETUP_MIN_SECONDS {
            break built;
        }
    };
    let setup_s = median(&mut setups);

    if args.reference {
        println!("| job | host s | analytic cycles | RTL cycles | peak RSS MiB |");
        println!("|---|---|---|---|---|");
        let cycles = |c: Option<u64>| c.map_or("—".to_string(), |c| c.to_string());
        workload.reference_rows(&mut |job, secs, analytic, rtl| {
            println!(
                "| {job} | {secs:.3} | {} | {} | {:.0} |",
                cycles(analytic),
                cycles(rtl),
                peak_rss_mb()
            );
        });
        return Ok(());
    }

    let warm_up = workload.pass(&mut Layers::off());
    report_unexpected("warm-up", &warm_up);

    let mut passes = Vec::new();
    if args.trace {
        let plain = workload.pass(&mut Layers::off());
        let tracer = deepburning_trace::Tracer::with_capacity(1 << 20);
        let mut layers = Layers::on();
        let traced = {
            let _installed = deepburning_trace::install(&tracer);
            workload.pass(&mut layers)
        };
        layers.read_tracer(&tracer);
        let fullrun_s = layers.get("sim.fullrun_s");
        if fullrun_s > 0.0 {
            layers.add(
                "sim.fullrun.cycles_per_s",
                layers.get("sim.fullrun.rtl_cycles") / fullrun_s,
            );
        }
        layers.add("bench.trace_overhead_s", traced.seconds - plain.seconds);
        write_trace(&args.workload, &tracer);
        passes.push(plain);
        passes.push(traced);
        let metrics: Vec<(&str, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect();
        finish(&passes, &metrics);
        return Ok(());
    }

    let budget = Duration::from_secs_f64(args.seconds);
    let timed = Instant::now();
    while passes.is_empty() || timed.elapsed() < budget {
        passes.push(workload.pass(&mut Layers::off()));
    }
    let mut pass_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    eprintln!("timed passes (s): {pass_s:?}");
    let designs = workload.reference_designs();
    let metrics = [
        ("setup_s", setup_s, "s"),
        ("pass_s", median(&mut pass_s), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
        (
            "accel_latency_us",
            geomean(designs.iter().map(|d| d.0 * 1e6)),
            "us_sim",
        ),
        (
            "accel_energy_uj",
            geomean(designs.iter().map(|d| d.1 * 1e6)),
            "uJ",
        ),
    ];
    finish(&passes, &metrics);
    Ok(())
}

fn report_unexpected(label: &str, pass: &Pass) {
    for failure in &pass.unexpected {
        eprintln!("{label}: FAILED {failure}");
    }
}

fn finish(passes: &[Pass], metrics: &[(&str, f64, &str)]) {
    let attempted = passes.iter().map(|p| p.attempted).sum();
    let failed = passes.iter().map(Pass::failed).sum();
    for (i, p) in passes.iter().enumerate() {
        report_unexpected(&format!("pass {i}"), p);
    }
    for known in passes.last().map_or(&[][..], |p| &p.known) {
        eprintln!("known fault: {known}");
    }
    let correct = passes.iter().all(|p| p.unexpected.is_empty());
    print_result(correct, attempted, failed, metrics);
}

/// Injects one fault per checked layer and shows that the benchmark's
/// own checks catch each one and count it as failed.
fn self_check() -> Result<(), String> {
    let mut pass = Pass::default();
    generate::self_check(&mut pass)?;
    verify::self_check(&mut pass)?;
    let caught = pass.failed() == pass.attempted;
    print_result(caught, pass.attempted, pass.failed(), &[]);
    if caught {
        Ok(())
    } else {
        Err("an injected fault was not caught".into())
    }
}

/// Writes the traced pass's spans as a Perfetto (Chrome trace-event) file.
fn write_trace(workload: &str, tracer: &deepburning_trace::Tracer) {
    let dir = std::path::Path::new("flowbench/target/traces");
    let path = dir.join(format!("{workload}.json"));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.chrome_trace()));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written ({}): {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("flowbench: {e}");
            return ExitCode::from(2);
        }
    };
    record::install_panic_hook();
    let outcome = if args.self_check {
        self_check()
    } else {
        run(&args, start)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flowbench: {e}");
            ExitCode::FAILURE
        }
    }
}
