//! `verify`: the differential check (`sim::diff_design` with default
//! options) of the small and micro zoo at every tier, over several seeded
//! inputs per design. Each run covers the f32 tensor reference, the
//! fixed-point functional view, per-block RTL, the counter replay and
//! `lint::analyze`. Designs are generated in set-up.

use crate::generate::TIERS;
use crate::record::{guarded, Layers, Pass};
use crate::{RowSink, Workload};
use deepburning_baselines::{pseudo_weights, zoo, Benchmark};
use deepburning_core::{generate, AcceleratorDesign};
use deepburning_lint::Severity;
use deepburning_sim::{
    diff_design, forward_latency, functional_forward_all, inference_energy, simulate_timing,
    verify_counters, DiffOptions, DiffReport, EnergyParams, SimEngine, TimingParams,
};
use deepburning_tensor::{forward_all, Tensor, WeightSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded inputs per design.
const INPUTS: usize = 3;

fn small_zoo() -> Vec<Benchmark> {
    vec![
        zoo::ann0(),
        zoo::ann1(),
        zoo::ann2(),
        zoo::cmac(),
        zoo::hopfield(),
        zoo::mnist(),
        zoo::cifar(),
        zoo::alexnet_micro(),
        zoo::nin_micro(),
    ]
}

/// Pseudo-random weights and `inputs` uniform inputs in [-1, 1) for one
/// benchmark, drawn from `seed` and the benchmark's name only.
pub fn seeded_data(bench: &Benchmark, seed: u64, inputs: usize) -> (WeightSet, Vec<Tensor>) {
    let salt = bench.name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    });
    let mut rng = StdRng::seed_from_u64(seed ^ salt);
    let weights = pseudo_weights(bench, &mut rng);
    let inputs = (0..inputs)
        .map(|_| {
            Tensor::from_fn(bench.network.input_shape(), |_, _, _| {
                rng.gen_range(-1.0..1.0f32)
            })
        })
        .collect();
    (weights, inputs)
}

/// Simulated latency (s) and energy (J) of one inference on `design`.
pub fn accel(design: &AcceleratorDesign) -> (f64, f64) {
    let params = TimingParams::default();
    let timing = simulate_timing(&design.compiled, &params);
    let energy = inference_energy(design, &timing, &EnergyParams::default());
    (forward_latency(design, &params), energy.total_j)
}

struct Job {
    label: String,
    bench: usize,
    design: AcceleratorDesign,
}

pub struct Verify {
    benches: Vec<(Benchmark, WeightSet, Vec<Tensor>)>,
    jobs: Vec<Job>,
}

impl Verify {
    pub fn new(seed: u64) -> Result<Verify, String> {
        let mut benches = Vec::new();
        let mut jobs = Vec::new();
        for (i, bench) in small_zoo().into_iter().enumerate() {
            for budget in TIERS {
                let design = generate(&bench.network, &budget)
                    .map_err(|e| format!("{} @ {}: {e}", bench.name, budget.tag()))?;
                jobs.push(Job {
                    label: format!("{} @ {}", bench.name, budget.tag()),
                    bench: i,
                    design,
                });
            }
            let (weights, inputs) = seeded_data(&bench, seed, INPUTS);
            benches.push((bench, weights, inputs));
        }
        Ok(Verify { benches, jobs })
    }
}

/// A clean report whose static analysis has nothing at warning level.
pub fn check_report(report: &DiffReport) -> Result<(), String> {
    if let Some(d) = report.first_divergence() {
        return Err(format!(
            "{} divergence(s), first: {d}",
            report.divergences.len()
        ));
    }
    let lint = report.lint.as_ref().ok_or("no static-analysis report")?;
    let warnings = lint.count_at(Severity::Warning);
    if warnings > 0 {
        return Err(format!("static analysis: {warnings} warning(s) or worse"));
    }
    Ok(())
}

impl Workload for Verify {
    fn pass(&mut self, layers: &mut Layers) -> Pass {
        let mut pass = Pass::default();
        let opts = DiffOptions::default();
        for job in &self.jobs {
            let (bench, weights, inputs) = &self.benches[job.bench];
            let net = &bench.network;
            for (i, input) in inputs.iter().enumerate() {
                let report = pass.timed(|| {
                    layers.time("sim.diff_s", || {
                        guarded(|| diff_design(&job.design, net, weights, input, &opts))
                    })
                });
                let outcome =
                    report
                        .and_then(|r| r.map_err(|e| e.to_string()))
                        .and_then(|report| {
                            if layers.enabled() {
                                attribute(&job.design, bench, weights, input, &report, layers);
                            }
                            check_report(&report)
                        });
                pass.record(&format!("{} input {i}", job.label), outcome, false);
            }
        }
        pass
    }

    fn reference_designs(&self) -> Vec<(f64, f64)> {
        self.jobs.iter().map(|j| accel(&j.design)).collect()
    }

    fn reference_rows(&mut self, row: &mut RowSink) {
        let opts = DiffOptions::default();
        for job in &self.jobs {
            let (bench, weights, inputs) = &self.benches[job.bench];
            let mut pass = Pass::default();
            let report =
                pass.timed(|| diff_design(&job.design, &bench.network, weights, &inputs[0], &opts));
            let rtl = report.ok().and_then(|r| r.counters.map(|c| c.rtl.cycles));
            let analytic = simulate_timing(&job.design.compiled, &TimingParams::default());
            row(&job.label, pass.seconds, Some(analytic.total_cycles), rtl);
        }
    }
}

/// Re-invokes the views `diff_design` runs internally, timing each one,
/// and counts the report's coverage.
fn attribute(
    design: &AcceleratorDesign,
    bench: &Benchmark,
    weights: &WeightSet,
    input: &Tensor,
    report: &DiffReport,
    layers: &mut Layers,
) {
    let net = &bench.network;
    let _ = layers.time("tensor.forward_s", || forward_all(net, weights, input));
    let _ = layers.time("sim.functional_s", || {
        functional_forward_all(
            net,
            weights,
            input,
            &design.compiled.luts,
            design.compiled.config.format,
        )
    });
    let _ = layers.time("sim.counters_s", || {
        verify_counters(
            &design.design,
            &design.compiled,
            &TimingParams::default(),
            DiffOptions::default().counter_beat_cap,
            SimEngine::default(),
        )
    });
    let _ = layers.time("lint.analyze_s", || {
        deepburning_lint::analyze(
            net,
            &design.compiled,
            &design.design,
            Some(weights),
            Some(&design.verilog),
        )
    });
    layers.add("sim.diff.rtl_checked", report.rtl_checked() as f64);
    layers.add("sim.diff.skip_audited", report.skip_audited().len() as f64);
    let chain_proven = report
        .lint
        .as_ref()
        .map_or(0, |l| l.proofs.iter().filter(|p| p.chain_proven).count());
    layers.add("lint.chain_proven_layers", chain_proven as f64);
}

/// An injected RTL fault is caught by the same check and counted as
/// failed.
pub fn self_check(pass: &mut Pass) -> Result<(), String> {
    let bench = zoo::ann0();
    let design =
        generate(&bench.network, &deepburning_core::Budget::Medium).map_err(|e| e.to_string())?;
    let (weights, inputs) = seeded_data(&bench, crate::DEFAULT_SEED, 1);
    let opts = DiffOptions {
        inject_rtl_fault: Some(1),
        ..DiffOptions::default()
    };
    let report = diff_design(&design, &bench.network, &weights, &inputs[0], &opts)
        .map_err(|e| e.to_string())?;
    pass.record("injected RTL fault", check_report(&report), true);
    Ok(())
}
