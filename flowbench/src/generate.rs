//! `generate`: the user's `simulate` flow, from script text to simulated
//! latency and energy, over the shipped scripts and the written-out zoo
//! at every budget tier.
//!
//! Per job: `model::parse_network` → `core::generate` →
//! `sim::simulate_timing` → `sim::inference_energy`. No RTL is simulated.

use crate::record::{guarded, Layers, Pass};
use crate::{RowSink, Workload};
use deepburning_baselines::zoo;
use deepburning_compiler::{
    build_memory_map, build_schedule, compile, generate_luts, plan_folding, plan_layer_tiling,
    plan_weight_layout, synthesize_agus,
};
use deepburning_core::{assemble_top, estimate_resources, generate, AcceleratorDesign, Budget};
use deepburning_model::{
    emit_prototxt, network_stats, parse_network, Layer, LayerKind, Network, Shape,
};
use deepburning_sim::{
    forward_latency, inference_energy, simulate_timing, EnergyParams, TimingParams,
};
use deepburning_verilog::{emit_design, lint_design};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hasher};

pub const TIERS: [Budget; 3] = [Budget::Small, Budget::Medium, Budget::Large];

/// The shipped scripts, with the name of the zoo network each describes.
const ASSETS: [(&str, &str); 6] = [
    ("alexnet", "Alexnet"),
    ("ann1_jpeg", "ANN-1"),
    ("cifar", "Cifar"),
    ("cmac", "CMAC"),
    ("hopfield", "Hopfield"),
    ("mnist", "MNIST"),
];

/// Weight streams longer than this are not checked element by element.
const WEIGHT_CHECK_CAP: usize = 1 << 20;

/// A convolution with a zero-sized kernel: must end in a typed error.
const KERNEL_ZERO: &str = r#"name: "kernel_zero"
layers { name: "data" type: INPUT top: "data"
         input_param { channels: 1 height: 8 width: 8 } }
layers { name: "conv" type: CONVOLUTION bottom: "data" top: "conv"
         param { num_output: 4 kernel_size: 0 stride: 1 } }
"#;

/// A zero-channel input feeding a zero-output layer: must end in a typed
/// error.
const ZERO_CHANNELS: &str = r#"name: "zero_channels"
layers { name: "data" type: INPUT top: "data"
         input_param { channels: 0 height: 1 width: 1 } }
layers { name: "fc" type: INNER_PRODUCT bottom: "data" top: "fc"
         param { num_output: 0 } }
"#;

/// A fault the program has today, probed by one job. The probe succeeds
/// once the program ends the job in a fitting design (`NoFit` only) or a
/// typed error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// The constraint loop returns a design over the budget envelope.
    NoFit,
    /// An invalid script that generates a design or panics.
    InvalidScript,
}

struct Job {
    label: String,
    script: String,
    budget: Budget,
    /// The network the script was written from.
    origin: Option<Network>,
    fault: Option<Fault>,
}

/// Outputs of a warm-up pass that later passes must reproduce.
#[derive(Default)]
struct Reference {
    digests: BTreeMap<String, u64>,
    /// `(latency s, energy J)` of every job that is not a fault probe.
    designs: Vec<(f64, f64)>,
}

pub struct Generate {
    jobs: Vec<Job>,
    reference: Option<Reference>,
}

impl Generate {
    pub fn new(seed: u64) -> Result<Generate, String> {
        let mut zoo_nets = zoo::all_benchmarks();
        zoo_nets.extend([
            zoo::alexnet_micro(),
            zoo::nin_micro(),
            zoo::googlenet_slice(),
        ]);
        let assets_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../assets");
        let mut sources = Vec::new();
        for (file, zoo_name) in ASSETS {
            let path = format!("{assets_dir}/{file}.prototxt");
            let script =
                std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let origin = zoo_nets
                .iter()
                .find(|b| b.name == zoo_name)
                .ok_or_else(|| format!("no zoo network {zoo_name}"))?;
            sources.push((format!("{file}.prototxt"), script, origin.network.clone()));
        }
        for bench in zoo_nets {
            sources.push((
                bench.name.to_string(),
                emit_prototxt(&bench.network),
                bench.network,
            ));
        }
        let mut jobs = Vec::new();
        for (name, script, origin) in sources {
            for budget in TIERS {
                let fault =
                    (name == "GoogleNet" && budget != Budget::Large).then_some(Fault::NoFit);
                jobs.push(Job {
                    label: format!("{name} @ {}", budget.tag()),
                    script: script.clone(),
                    budget,
                    origin: Some(origin.clone()),
                    fault,
                });
            }
        }
        for (name, script) in [
            ("kernel_zero", KERNEL_ZERO),
            ("zero_channels", ZERO_CHANNELS),
        ] {
            jobs.push(Job {
                label: format!("{name} @ DB"),
                script: script.to_string(),
                budget: Budget::Medium,
                origin: None,
                fault: Some(Fault::InvalidScript),
            });
        }
        jobs.shuffle(&mut StdRng::seed_from_u64(seed));
        Ok(Generate {
            jobs,
            reference: None,
        })
    }
}

impl Workload for Generate {
    fn pass(&mut self, layers: &mut Layers) -> Pass {
        let mut pass = Pass::default();
        let mut fresh = Reference::default();
        for job in &self.jobs {
            let outcome = run_job(job, &mut pass, layers, self.reference.as_ref(), &mut fresh);
            pass.record(&job.label, outcome, job.fault.is_some());
        }
        self.reference.get_or_insert(fresh);
        pass
    }

    fn reference_designs(&self) -> Vec<(f64, f64)> {
        self.reference
            .as_ref()
            .map(|r| r.designs.clone())
            .unwrap_or_default()
    }

    fn reference_rows(&mut self, row: &mut RowSink) {
        let mut jobs: Vec<&Job> = self.jobs.iter().collect();
        jobs.sort_by(|a, b| a.label.cmp(&b.label));
        for job in jobs {
            let mut pass = Pass::default();
            let cycles = match flow(job, &mut pass, &mut Layers::off()) {
                Ok(Ok(out)) => Some(out.timing_cycles),
                _ => None,
            };
            row(&job.label, pass.seconds, cycles, None);
        }
    }
}

struct FlowOutput {
    net: Network,
    design: AcceleratorDesign,
    timing_cycles: u64,
    energy_j: f64,
}

/// The timed flow of one job. The outer error is a panic; the inner one
/// is a typed error the program returned.
fn flow(
    job: &Job,
    pass: &mut Pass,
    layers: &mut Layers,
) -> Result<Result<FlowOutput, String>, String> {
    pass.timed(|| {
        guarded(|| {
            let net = layers
                .time("model.parse_s", || parse_network(&job.script))
                .map_err(|e| format!("parse: {e}"))?;
            let design = layers
                .time("core.generate_s", || generate(&net, &job.budget))
                .map_err(|e| format!("generate: {e}"))?;
            let timing = layers.time("sim.timing_s", || {
                simulate_timing(&design.compiled, &TimingParams::default())
            });
            let energy = layers.time("sim.energy_s", || {
                inference_energy(&design, &timing, &EnergyParams::default())
            });
            Ok(FlowOutput {
                net,
                design,
                timing_cycles: timing.total_cycles,
                energy_j: energy.total_j,
            })
        })
    })
}

fn run_job(
    job: &Job,
    pass: &mut Pass,
    layers: &mut Layers,
    reference: Option<&Reference>,
    fresh: &mut Reference,
) -> Result<(), String> {
    let out = match flow(job, pass, layers)? {
        Ok(out) => out,
        // A typed error is what a fault probe asks for.
        Err(_) if job.fault.is_some() => return Ok(()),
        Err(typed) => return Err(typed),
    };
    if layers.enabled() {
        attribute(&out.net, &out.design, layers);
        layers.add("core.verilog_bytes", out.design.verilog.len() as f64);
        if job.fault.is_none() {
            layers.add(
                "compiler.phases",
                out.design.compiled.folding.phases.len() as f64,
            );
        }
    }
    if job.fault == Some(Fault::InvalidScript) {
        return Err("an invalid script generated a design".into());
    }
    let design = &out.design;
    if !design.fits.0 {
        return Err(format!(
            "the constraint loop returned a design over the envelope \
             (utilisation {:.2}, {} lanes)",
            design.fits.1, design.config.lanes
        ));
    }
    let origin = job.origin.as_ref().unwrap_or(&out.net);
    same_network(&out.net, origin)?;
    check_work(origin, design, out.timing_cycles)?;
    check_weight_streams(&out.net, design)?;
    if !(out.energy_j.is_finite() && out.energy_j > 0.0 && out.timing_cycles > 0) {
        return Err(format!(
            "latency {} cycles, energy {} J",
            out.timing_cycles, out.energy_j
        ));
    }

    let mut hasher = DefaultHasher::new();
    hasher.write(design.verilog.as_bytes());
    let digest = hasher.finish();
    match reference {
        Some(r) if r.digests.get(&job.label) != Some(&digest) => {
            return Err("the emitted Verilog differs from the warm-up pass".into());
        }
        Some(_) => {}
        None => {
            fresh.digests.insert(job.label.clone(), digest);
            if job.fault.is_none() {
                let latency = forward_latency(design, &TimingParams::default());
                fresh.designs.push((latency, out.energy_j));
            }
        }
    }
    Ok(())
}

/// Re-invokes, on the design's final configuration, each stage that
/// `core::generate` runs internally, timing each one.
fn attribute(net: &Network, design: &AcceleratorDesign, layers: &mut Layers) {
    let cfg = &design.config;
    let _ = layers.time("compiler.compile_s", || compile(net, cfg));
    let Ok(folding) = layers.time("compiler.folding_s", || plan_folding(net, cfg)) else {
        return;
    };
    let map = layers.time("compiler.memory_map_s", || build_memory_map(net, cfg));
    let tiles = layers.time("compiler.tiling_s", || plan_layer_tiling(net, cfg));
    if let (Ok(map), Ok(tiles)) = (map, tiles) {
        let _ = layers.time("compiler.agu_s", || {
            synthesize_agus(net, &folding, &map, &tiles, cfg)
        });
    }
    let _ = layers.time("compiler.schedule_s", || build_schedule(&folding));
    let _ = layers.time("compiler.lut_s", || generate_luts(net, cfg));
    let _ = layers.time("compiler.weight_layout_s", || plan_weight_layout(net, cfg));
    let _ = layers.time("core.assemble_s", || assemble_top(net, &design.compiled));
    let _ = layers.time("core.resources_s", || {
        estimate_resources(net, &design.compiled)
    });
    let _ = layers.time("verilog.lint_s", || lint_design(&design.design));
    let _ = layers.time("verilog.emit_s", || emit_design(&design.design));
}

/// The parsed script has the layers and inferred shapes of the network it
/// was written from.
fn same_network(parsed: &Network, origin: &Network) -> Result<(), String> {
    let layers = |n: &Network| {
        n.layers()
            .iter()
            .map(|l| (l.name.clone(), l.kind.clone()))
            .collect::<Vec<_>>()
    };
    if layers(parsed) != layers(origin) {
        return Err("the parsed layers differ from the network the script describes".into());
    }
    if parsed.infer_shapes().ok() != origin.infer_shapes().ok() {
        return Err("the inferred shapes differ from the network the script describes".into());
    }
    Ok(())
}

/// The folding does all of the network's MACs, and the analytic latency
/// respects the compute roof: cycles × DSPs ≥ MACs.
fn check_work(net: &Network, design: &AcceleratorDesign, cycles: u64) -> Result<(), String> {
    let folded: u64 = design
        .compiled
        .folding
        .phases
        .iter()
        .map(|p| p.work.macs)
        .sum();
    let macs = network_stats(net).map_err(|e| e.to_string())?.total.macs;
    if folded != macs {
        return Err(format!(
            "the folding does {folded} MACs, the network {macs}"
        ));
    }
    let dsp = u128::from(design.resources.total.dsp.max(1));
    if u128::from(cycles) * dsp < u128::from(macs) {
        return Err(format!(
            "{cycles} cycles on {dsp} DSPs cannot retire {macs} MACs"
        ));
    }
    Ok(())
}

/// Each weighted layer's stream, produced with `WeightOrder::apply` on an
/// index buffer, matches [`Stream::check`]'s closed form.
fn check_weight_streams(net: &Network, design: &AcceleratorDesign) -> Result<(), String> {
    let shapes = net.infer_shapes().map_err(|e| e.to_string())?;
    for layer in net.layers() {
        if let Some(stream) = index_stream(layer, &shapes, design)? {
            stream.check().map_err(|e| format!("{}: {e}", layer.name))?;
        }
    }
    Ok(())
}

/// A `units × row` weight matrix as the design streams it: entry `i` is
/// the canonical index of the weight at stream position `i`.
struct Stream {
    weights: Vec<usize>,
    units: usize,
    row: usize,
    per_fold: usize,
}

/// The stream of one layer, or `None` for a layer without weights or over
/// [`WEIGHT_CHECK_CAP`].
fn index_stream(
    layer: &Layer,
    shapes: &BTreeMap<String, Shape>,
    design: &AcceleratorDesign,
) -> Result<Option<Stream>, String> {
    let input = layer
        .bottoms
        .first()
        .map_or(Shape::vector(0), |b| shapes[b]);
    let lanes = design.config.lanes.max(1) as usize;
    let (units, row, per_fold) = match &layer.kind {
        LayerKind::FullConnection(p) => (p.num_output, input.elements(), lanes),
        LayerKind::Convolution(p) => (
            p.num_output,
            (input.channels / p.group) * p.kernel_size * p.kernel_size,
            lanes,
        ),
        LayerKind::Recurrent { num_output, .. } => {
            (*num_output, input.elements() + num_output, lanes)
        }
        LayerKind::Associative { table_size, .. } => (*table_size, 1, 1),
        _ => return Ok(None),
    };
    let order = design
        .compiled
        .weight_layout
        .get(&layer.name)
        .ok_or_else(|| format!("{}: no weight order", layer.name))?;
    if units * row > WEIGHT_CHECK_CAP {
        return Ok(None);
    }
    let index: Vec<usize> = (0..units * row).collect();
    Ok(Some(Stream {
        weights: guarded(|| order.apply(&index))?,
        units,
        row,
        per_fold: per_fold.min(units.max(1)),
    }))
}

impl Stream {
    /// Fold-major, lane-interleaved order: units go in folds of
    /// `per_fold`; within a fold, each beat carries one column across the
    /// fold's units.
    fn check(&self) -> Result<(), String> {
        let Stream {
            units,
            row,
            per_fold,
            ..
        } = *self;
        if self.weights.len() != units * row {
            return Err(format!(
                "stream of {} weights, expected {}",
                self.weights.len(),
                units * row
            ));
        }
        let fold_len = per_fold * row;
        for (pos, &got) in self.weights.iter().enumerate() {
            let base = pos / fold_len * per_fold;
            let span = per_fold.min(units - base);
            let within = pos % fold_len;
            let expected = (base + within % span) * row + within / span;
            if got != expected {
                return Err(format!(
                    "stream position {pos} holds weight {got}, expected {expected}"
                ));
            }
        }
        Ok(())
    }
}

/// A wrongly permuted weight stream is caught by the same check and
/// counted as failed.
pub fn self_check(pass: &mut Pass) -> Result<(), String> {
    let net = zoo::ann0().network;
    let design = generate(&net, &Budget::Medium).map_err(|e| e.to_string())?;
    let shapes = net.infer_shapes().map_err(|e| e.to_string())?;
    let layer = net
        .layers()
        .iter()
        .find(|l| l.kind.has_weights())
        .ok_or("no weighted layer")?;
    let mut stream = index_stream(layer, &shapes, &design)?.ok_or("no weight stream")?;
    stream.check()?;
    let last = stream.weights.len() - 1;
    stream.weights.swap(0, last);
    pass.record("permuted weight stream", stream.check(), true);
    Ok(())
}
