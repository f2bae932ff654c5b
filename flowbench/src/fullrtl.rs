//! `fullrtl`: one continuous control-top RTL run per design
//! (`sim::full_network_run` with default options), with DRAM memories,
//! over six zoo networks at DB-S and DB. Designs are generated in set-up.

use crate::record::{guarded, Layers, Pass};
use crate::verify::{accel, seeded_data};
use crate::{RowSink, Workload};
use deepburning_baselines::{zoo, Benchmark};
use deepburning_core::{assemble_control_top, generate, AcceleratorDesign, Budget};
use deepburning_sim::{
    full_network_run, simulate_timing, CounterSet, FullRunOptions, FullRunReport, SimEngine,
    TimingParams,
};
use deepburning_tensor::{Tensor, WeightSet};

struct Job {
    label: String,
    bench: Benchmark,
    weights: WeightSet,
    input: Tensor,
    design: AcceleratorDesign,
    /// Element count of the output blob, from shape inference.
    output_elements: usize,
}

pub struct FullRtl {
    jobs: Vec<Job>,
    /// Counter registers read back in the warm-up pass, per job.
    reference: Option<Vec<Option<CounterSet>>>,
}

impl FullRtl {
    pub fn new(seed: u64) -> Result<FullRtl, String> {
        let mut jobs = Vec::new();
        for bench in [
            zoo::mnist(),
            zoo::cifar(),
            zoo::alexnet_micro(),
            zoo::nin_micro(),
            zoo::cmac(),
            zoo::hopfield(),
        ] {
            let (weights, inputs) = seeded_data(&bench, seed, 1);
            let output_elements = bench
                .network
                .output_shape()
                .map_err(|e| format!("{}: {e}", bench.name))?
                .elements();
            for budget in [Budget::Small, Budget::Medium] {
                let label = format!("{} @ {}", bench.name, budget.tag());
                let design =
                    generate(&bench.network, &budget).map_err(|e| format!("{label}: {e}"))?;
                jobs.push(Job {
                    label,
                    bench: bench.clone(),
                    weights: weights.clone(),
                    input: inputs[0].clone(),
                    design,
                    output_elements,
                });
            }
        }
        Ok(FullRtl {
            jobs,
            reference: None,
        })
    }
}

fn check_run(job: &Job, run: &FullRunReport, reference: Option<&CounterSet>) -> Result<(), String> {
    if let Some(d) = run.divergences.first() {
        return Err(format!(
            "{} divergence(s), first: {d}",
            run.divergences.len()
        ));
    }
    if run.output_words != job.output_elements {
        return Err(format!(
            "{} output words checked, the output blob has {} elements",
            run.output_words, job.output_elements
        ));
    }
    if run.cycles.abs_diff(run.predicted_cycles) > run.cycle_slack {
        return Err(format!(
            "{} cycles, predicted {} ± {}",
            run.cycles, run.predicted_cycles, run.cycle_slack
        ));
    }
    if reference.is_some_and(|r| *r != run.rtl_counters) {
        return Err("the counter registers differ from the warm-up pass".into());
    }
    Ok(())
}

impl Workload for FullRtl {
    fn pass(&mut self, layers: &mut Layers) -> Pass {
        let mut pass = Pass::default();
        let opts = FullRunOptions::default();
        let mut counters = Vec::with_capacity(self.jobs.len());
        for (i, job) in self.jobs.iter().enumerate() {
            let run = pass.timed(|| {
                layers.time("sim.fullrun_s", || {
                    guarded(|| {
                        full_network_run(
                            &job.design,
                            &job.bench.network,
                            &job.weights,
                            &job.input,
                            &opts,
                        )
                    })
                })
            });
            let run = run.and_then(|r| r.map_err(|e| e.to_string()));
            if layers.enabled() {
                attribute(job, run.as_ref().ok(), layers);
            }
            counters.push(run.as_ref().ok().map(|r| r.rtl_counters));
            let reference = self.reference.as_ref().and_then(|r| r[i].as_ref());
            let outcome = run.and_then(|r| check_run(job, &r, reference));
            pass.record(&job.label, outcome, false);
        }
        self.reference.get_or_insert(counters);
        pass
    }

    fn reference_designs(&self) -> Vec<(f64, f64)> {
        self.jobs.iter().map(|j| accel(&j.design)).collect()
    }

    fn reference_rows(&mut self, row: &mut RowSink) {
        let opts = FullRunOptions::default();
        for job in &self.jobs {
            let mut pass = Pass::default();
            let run = pass.timed(|| {
                full_network_run(
                    &job.design,
                    &job.bench.network,
                    &job.weights,
                    &job.input,
                    &opts,
                )
            });
            let analytic = simulate_timing(&job.design.compiled, &TimingParams::default());
            row(
                &job.label,
                pass.seconds,
                Some(analytic.total_cycles),
                run.ok().map(|r| r.cycles),
            );
        }
    }
}

/// Re-elaborates the control top the run drives, and counts the run's
/// simulated cycles.
fn attribute(job: &Job, run: Option<&FullRunReport>, layers: &mut Layers) {
    let ctl = assemble_control_top(&job.bench.network, &job.design.compiled);
    let _ = layers.time("verilog.elaborate_s", || {
        SimEngine::default().elaborate(&ctl, &ctl.top)
    });
    if let Some(run) = run {
        layers.add("sim.fullrun.rtl_cycles", run.cycles as f64);
    }
}
