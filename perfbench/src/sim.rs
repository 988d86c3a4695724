//! The two simulation workloads.
//!
//! `sweep_mcf` sweeps mcf over 144 Table-1 configurations: cpusim
//! does nearly all the work, and mcf's large footprint and long miss
//! stalls make per-configuration cost heavy-tailed, so a core-loop change
//! shows in every metric. `dse_applu` runs the paper's
//! Figure 2–6 pipeline on applu (sweep 1152 configurations, then
//! sampled DSE with NN-E, NN-S and LR-B at 1–5% and the select method,
//! then the selected model served through the daemon):
//! fitting and cross-validation dominate and the sweep is cheap per
//! configuration, so a fitting change shows here and not on `sweep_mcf`.
//!
//! Design points are drawn at random from all of Table 1, so every
//! parameter varies (every k-th lattice point would pin the
//! fastest-varying axes), and swept in lattice order over each
//! benchmark's fixed trace (the simulator's default trace seed), as a
//! SPEC binary and its reference input are fixed in the paper; a trace
//! drawn per seed would change the simulated work by tens of percent.
//! A quarter of the points is a fixed probe set, re-simulated alone for
//! the per-design-point latency; the seed draws the other three
//! quarters and the sampled-DSE seed.
//!
//! Untraced passes call the program's pipeline entry points
//! (`try_sweep_design_space`, `try_run_sampled_dse`). A traced run makes
//! one such pass, then mirrors it through the per-layer public functions
//! those entry points are built from, so each layer can be timed from
//! here; the mirror's outputs must equal the pipeline's bit for bit. The
//! mirror runs in rounds of one untraced and one traced pass, and the
//! tracing overhead is the difference between the two.

use crate::metrics::Outcome;
use crate::serving::{self, Served};
use crate::spans::{SpanId, Tracer};
use crate::stats::{self, Digest};
use crate::yardstick::{self, Meter};
use crate::Args;
use cpusim::core::{Core, PipelineStats};
use cpusim::trace::{ReplaySource, TraceGenerator};
use cpusim::{Benchmark, CpuConfig, DesignSpace, SimOptions, SimResult};
use dse::sampled::{draw_sample, SampledConfig, SampledRun, SamplingStrategy};
use fault::Result;
use linalg::dist::child_seed;
use mlmodels::ModelKind;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// What a simulation workload sweeps.
struct Plan {
    bench: Benchmark,
    /// Table-1 configurations swept (a 32nd and a quarter of 4608).
    configs: usize,
    instructions: u64,
}

const SWEEP_MCF: Plan = Plan {
    bench: Benchmark::Mcf,
    configs: 144,
    instructions: 20_000,
};

const DSE_APPLU: Plan = Plan {
    bench: Benchmark::Applu,
    configs: 1152,
    instructions: 8_000,
};

/// One design point in `PROBE_EVERY` belongs to the fixed probe set, which
/// is re-simulated alone through `cpusim::simulate`: those calls give the
/// per-design-point cost (`point_ref_p50`, `point_ref_p99`) and must
/// reproduce the sweep exactly.
const PROBE_EVERY: usize = 4;
/// Seed of the one draw of the probe set from Table 1.
const PROBE_SEED: u64 = 0x7AB1E1;
/// An untraced run sets up again before every pass, at least this many
/// times and for at least `SETUP_BATCH_S` seconds; `setup_s` is the
/// median of all its set-ups. Spread over the run like the passes, the
/// set-ups sample the host as the pass metrics do, not only at start-up.
const SETUP_REPS: usize = 7;
const SETUP_BATCH_S: f64 = 0.25;
const RATES: [f64; 5] = [0.01, 0.02, 0.03, 0.04, 0.05];
/// A timed sweep runs as this many calls, each followed by a sample of
/// the reference kernel.
const SWEEP_CALLS: usize = 8;
/// Kernel runs per reference sample after a phase of a pass (their
/// median is the sample); a probe re-simulation is followed by one run.
const PASS_REPS: usize = 3;

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn ns(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `k` distinct Table-1 design points in lattice order: the fixed probe
/// set of `probes` points plus points drawn by `seed`. Returns the space
/// and the positions of the probes in it.
fn design_points(k: usize, probes: usize, seed: u64) -> (DesignSpace, Vec<usize>) {
    let table1 = DesignSpace::table1();
    let fixed = table1.seeded_pool(PROBE_SEED, probes);
    let mut chosen: std::collections::BTreeSet<usize> = fixed.iter().copied().collect();
    for i in table1.seeded_pool(seed, k + probes) {
        if chosen.len() == k {
            break;
        }
        chosen.insert(i);
    }
    let probe_pos = chosen
        .iter()
        .enumerate()
        .filter(|(_, i)| fixed.contains(i))
        .map(|(pos, _)| pos)
        .collect();
    let configs = chosen.into_iter().map(|i| table1.config_at(i)).collect();
    (DesignSpace::from_configs(configs), probe_pos)
}

/// Lay out the design points and simulate the baseline design point, so
/// allocator, page tables and code are warm before anything is timed.
fn setup(plan: &Plan, opts: &SimOptions, seed: u64) -> (DesignSpace, Vec<usize>) {
    let points = design_points(
        plan.configs,
        plan.configs / PROBE_EVERY,
        child_seed(seed, 1),
    );
    std::hint::black_box(cpusim::simulate(plan.bench, CpuConfig::baseline(), opts));
    points
}

/// One batch of timed set-ups before a pass (a single one when traced).
/// Each set-up is followed by a run of the reference kernel and priced
/// like a probe re-simulation, then read in seconds at the reference
/// speed.
fn timed_setup(
    plan: &Plan,
    args: &Args,
    opts: &SimOptions,
    times: &mut Vec<f64>,
) -> (DesignSpace, Vec<usize>) {
    let (reps, min_s) = if args.trace {
        (1, 0.0)
    } else {
        (SETUP_REPS, SETUP_BATCH_S)
    };
    let mut meter = Meter::start(1, 1);
    let (mut n, mut spent) = (0, 0.0);
    loop {
        let (points, took) = meter.phase(|| setup(plan, opts, args.seed));
        n += 1;
        spent += took;
        if n >= reps && spent >= min_s {
            times.extend(meter.phase_units().map(|u| u * yardstick::NOMINAL_UNIT_S));
            return points;
        }
    }
}

fn report_setup(times: &[f64], passes: usize, out: &mut Outcome) {
    out.set("setup_s", stats::median(times));
    out.note(format!(
        "set-up: {} repetitions before {passes} passes, quartiles {:.6} / {:.6} / {:.6} s at the reference speed",
        times.len(),
        stats::quantile(times, 0.25),
        stats::median(times),
        stats::quantile(times, 0.75)
    ));
}

fn stat_words(s: &PipelineStats) -> [u64; 14] {
    [
        s.cycles,
        s.instructions,
        s.l1d_accesses,
        s.l1d_misses,
        s.l1i_accesses,
        s.l1i_misses,
        s.l2_accesses,
        s.l2_misses,
        s.l3_accesses,
        s.l3_misses,
        s.dtlb_misses,
        s.itlb_misses,
        s.branches,
        s.mispredicts,
    ]
}

/// Digest of (index, cycles, stats) over a sweep, in design-space order.
fn digest(results: &[SimResult]) -> String {
    let mut d = Digest::default();
    for (i, r) in results.iter().enumerate() {
        d.word(i as u64);
        d.word(r.cycles.to_bits());
        for w in stat_words(&r.stats) {
            d.word(w);
        }
    }
    d.hex()
}

/// Simulated thousands of instructions per reference unit of sweep cost.
fn sim_kinst(results: &[SimResult], units: f64) -> f64 {
    let insts: u64 = results.iter().map(|r| r.stats.instructions).sum();
    insts as f64 / units / 1e3
}

/// Count the sweep's simulations and its non-finite results.
fn count_sims(results: &[SimResult], out: &mut Outcome) {
    out.attempted += results.len() as u64;
    out.failed += results.iter().filter(|r| !r.cycles.is_finite()).count() as u64;
}

/// Re-simulate the probe points alone, each followed by one run of the
/// reference kernel; a call's CPU time over the mean of the runs right
/// before and after it is one design point's cost in reference units.
fn recheck(
    plan: &Plan,
    (space, probes): &(DesignSpace, Vec<usize>),
    opts: &SimOptions,
    results: &[SimResult],
    point_units: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let mut meter = Meter::start(1, 1);
    for &idx in probes {
        let (r, _) = meter.phase(|| cpusim::simulate(plan.bench, space.config_at(idx), opts));
        out.attempted += 1;
        let want = &results[idx];
        let same = r.cycles.to_bits() == want.cycles.to_bits()
            && stat_words(&r.stats) == stat_words(&want.stats);
        if !same {
            out.failed += 1;
        }
        out.check(same, || {
            format!(
                "config {idx}: simulate gives {} cycles, the sweep {}",
                r.cycles, want.cycles
            )
        });
    }
    point_units.extend(meter.phase_units());
}

/// Cache, TLB and predictor counts of a sweep, read from `PipelineStats`.
fn design_counts(results: &[SimResult], out: &mut Outcome) {
    let sum = |f: fn(&PipelineStats) -> u64| results.iter().map(|r| f(&r.stats)).sum::<u64>();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    out.set("core.sim_cycles", sum(|s| s.cycles) as f64);
    out.set(
        "cache.l1d_miss_ratio",
        ratio(sum(|s| s.l1d_misses), sum(|s| s.l1d_accesses)),
    );
    out.set(
        "cache.l2_miss_ratio",
        ratio(sum(|s| s.l2_misses), sum(|s| s.l2_accesses)),
    );
    out.set(
        "cache.l3_miss_ratio",
        ratio(sum(|s| s.l3_misses), sum(|s| s.l3_accesses)),
    );
    out.set("tlb.dtlb_misses", sum(|s| s.dtlb_misses) as f64);
    out.set(
        "bpred.mispredict_ratio",
        ratio(sum(|s| s.mispredicts), sum(|s| s.branches)),
    );
}

/// A sweep run through the per-layer functions `cpusim::runner` is built
/// from: materialize the trace, then `Core::run` per configuration,
/// fanned out on the same rayon shim.
struct Mirror {
    results: Vec<SimResult>,
    config_ns: Vec<u64>,
    trace_ns: u64,
    fanout_ns: u64,
}

fn mirror_sweep(
    tr: &Tracer,
    parent: SpanId,
    plan: &Plan,
    space: &DesignSpace,
    opts: &SimOptions,
) -> Mirror {
    let trace_start = Instant::now();
    let trace = {
        let _g = tr.enter("cpusim.trace", parent);
        TraceGenerator::for_benchmark(plan.bench, opts.seed).take_vec(opts.instructions as usize)
    };
    let trace_ns = ns(trace_start);
    let fan_start = Instant::now();
    let fan = tr.enter("sweep.fanout", parent);
    let fan_id = fan.id();
    let timed: Vec<(SimResult, u64)> = (0..space.len())
        .into_par_iter()
        .map(|idx| {
            let config = space.config_at(idx);
            let _g = tr.enter("cpusim.core", fan_id);
            let t = Instant::now();
            // The runner replays with the window-0 wrong-path seed.
            let mut src = ReplaySource::new(&trace, child_seed(opts.seed, 0));
            let stats = Core::new(config).run(&mut src, trace.len() as u64);
            let cycles = stats.cycles as f64;
            let result = SimResult {
                config,
                benchmark: plan.bench,
                cycles,
                stats,
            };
            (result, ns(t))
        })
        .collect();
    drop(fan);
    let fanout_ns = ns(fan_start);
    let (results, config_ns) = timed.into_iter().unzip();
    Mirror {
        results,
        config_ns,
        trace_ns,
        fanout_ns,
    }
}

/// Per-layer cpusim and fan-out metrics of traced sweeps.
fn sweep_layers(mirrors: &[Mirror], instructions: u64, out: &mut Outcome) {
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(mirrors[0].results.len())
        .max(1) as f64;
    let config_ms: Vec<f64> = mirrors
        .iter()
        .flat_map(|m| m.config_ns.iter().map(|&n| n as f64 / 1e6))
        .collect();
    let busy_s: Vec<f64> = mirrors
        .iter()
        .map(|m| m.config_ns.iter().sum::<u64>() as f64 / 1e9)
        .collect();
    let eff: Vec<f64> = mirrors
        .iter()
        .zip(&busy_s)
        .map(|(m, b)| b / (m.fanout_ns as f64 / 1e9 * workers))
        .collect();
    let gen: Vec<f64> = mirrors
        .iter()
        .map(|m| m.trace_ns as f64 / instructions as f64)
        .collect();
    let cycles: u64 = mirrors[0].results.iter().map(|r| r.stats.cycles).sum();
    out.set("trace.gen_ns_per_inst", stats::median(&gen));
    out.set("core.config_ms_p50", stats::quantile(&config_ms, 0.5));
    out.set("core.config_ms_p99", stats::quantile(&config_ms, 0.99));
    out.set(
        "core.ns_per_sim_cycle",
        stats::median(&busy_s) * 1e9 / cycles.max(1) as f64,
    );
    out.set("sweep.busy_s", stats::median(&busy_s));
    out.set("sweep.parallel_eff", stats::median(&eff));
    design_counts(&mirrors[0].results, out);
}

/// What one timed pass cost.
#[derive(Default)]
struct Costs {
    /// Pass cost in reference units, CPU seconds and wall seconds.
    units: Vec<f64>,
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// Simulated kinst per reference unit of the pass's sweep.
    sim_kinst: Vec<f64>,
    /// Cost of each probe re-simulation, in reference units.
    point_units: Vec<f64>,
}

impl Costs {
    fn pass(&mut self, meter: &Meter) {
        self.units.push(meter.units(meter.cpu_s));
        self.cpu_s.push(meter.cpu_s);
        self.wall_s.push(meter.wall_s);
    }

    /// Set the cost and throughput metrics every simulation workload shares.
    fn end_to_end(&self, out: &mut Outcome) {
        let p = &self.point_units;
        out.set("pass_ref", stats::median(&self.units));
        out.set("sim_kinst_per_ref", stats::median(&self.sim_kinst));
        out.set("point_ref_p50", stats::quantile(p, 0.5));
        out.set("point_ref_p99", stats::quantile(p, 0.99));
        out.note(format!(
            "passes: {:.1?} reference units, {:.3?} CPU s, {:.3?} wall s; design-point cost over {} re-simulations",
            self.units,
            self.cpu_s,
            self.wall_s,
            p.len()
        ));
        out.note(format!(
            "median pass: {:.3} CPU s, {:.3} wall s",
            stats::median(&self.cpu_s),
            stats::median(&self.wall_s)
        ));
    }
}

/// Threads a sweep fans out on: one rayon-shim worker per core.
fn fanout_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Sweep `space` as `SWEEP_CALLS` consecutive calls of
/// `try_sweep_design_space` on consecutive slices of it, each metered as
/// its own phase, so the reference kernel samples the host every second
/// or so of a long sweep. Every point is simulated on its own, so the
/// results equal one call's. Returns the results and their CPU seconds.
fn metered_sweep(
    meter: &mut Meter,
    plan: &Plan,
    space: &DesignSpace,
    opts: &SimOptions,
) -> Result<(Vec<SimResult>, f64)> {
    let n = space.len();
    let per = n.div_ceil(SWEEP_CALLS);
    let mut results = Vec::with_capacity(n);
    let mut cpu_s = 0.0;
    for lo in (0..n).step_by(per) {
        let part = DesignSpace::from_configs((lo..n.min(lo + per)).map(|i| space.config_at(i)).collect());
        let (sweep, cpu) = meter.phase(|| cpusim::try_sweep_design_space(&part, plan.bench, opts, None));
        results.extend(sweep?.results);
        cpu_s += cpu;
    }
    Ok((results, cpu_s))
}

/// Peak resident set at the end of the first pass: set-up plus one pass,
/// so the figure does not depend on how many passes fit in the budget.
fn first_pass_rss(passes: &[f64], out: &mut Outcome) {
    if passes.len() == 1 {
        out.set("peak_rss_mb", stats::peak_rss_mb());
    }
}

fn check_same_digest(digests: &[String], what: &str, out: &mut Outcome) {
    let first = &digests[0];
    out.check(digests.iter().all(|d| d == first), || {
        format!("{what} digests differ between passes: {digests:?}")
    });
}

/// Seconds the untraced and the traced phase get. A traced run makes one
/// untraced pass, as the reference its traced passes must reproduce.
fn budgets(args: &Args) -> (f64, f64) {
    if args.trace {
        (0.0, args.seconds / 2.0)
    } else {
        (args.seconds, 0.0)
    }
}

/// Run `pass` at least once, then again while another pass as long as
/// the last one still ends within `budget` seconds.
fn repeat(budget: f64, mut pass: impl FnMut() -> Result<()>) -> Result<()> {
    let start = Instant::now();
    let mut last = Instant::now();
    pass()?;
    while secs(start) + secs(last) <= budget {
        last = Instant::now();
        pass()?;
    }
    Ok(())
}

/// Run `mirror` untraced and then traced, round after round while
/// another round fits in `budget`. Returns the tracing overhead: the
/// median traced pass wall minus the median untraced one.
fn traced_rounds(
    budget: f64,
    tr: &Tracer,
    mut mirror: impl FnMut(&Tracer, SpanId) -> Result<()>,
) -> Result<f64> {
    let off = Tracer::new(false);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    repeat(budget, || {
        let t = Instant::now();
        mirror(&off, SpanId::ROOT)?;
        plain.push(secs(t));
        let t = Instant::now();
        let pass = tr.enter("bench.pass", SpanId::ROOT);
        mirror(tr, pass.id())?;
        drop(pass);
        traced.push(secs(t));
        Ok(())
    })?;
    Ok(stats::median(&traced) - stats::median(&plain))
}

fn sim_options(plan: &Plan) -> SimOptions {
    SimOptions {
        instructions: plan.instructions,
        ..Default::default()
    }
}

pub fn sweep_mcf(args: &Args, tr: &Tracer) -> Result<Outcome> {
    let plan = &SWEEP_MCF;
    let opts = sim_options(plan);
    let mut out = Outcome::default();
    let (untraced, traced) = budgets(args);

    let mut setup_times = Vec::new();
    let mut points = None;
    let mut costs = Costs::default();
    let mut digests = Vec::new();
    let mut cycles = 0u64;
    repeat(untraced, || {
        let points = &*points.insert(timed_setup(plan, args, &opts, &mut setup_times));
        let space = &points.0;
        let mut meter = Meter::start(fanout_threads(), PASS_REPS);
        let (results, sweep_cpu) = metered_sweep(&mut meter, plan, space, &opts)?;
        costs.pass(&meter);
        costs.sim_kinst.push(sim_kinst(&results, meter.units(sweep_cpu)));
        digests.push(digest(&results));
        count_sims(&results, &mut out);
        recheck(plan, points, &opts, &results, &mut costs.point_units, &mut out);
        cycles = results.iter().map(|r| r.stats.cycles).sum();
        first_pass_rss(&costs.units, &mut out);
        Ok(())
    })?;
    report_setup(&setup_times, costs.units.len(), &mut out);
    let (space, _) = &points.expect("at least one pass");
    check_same_digest(&digests, "sweep", &mut out);
    out.note(format!(
        "sweep {} configs x {} inst of {}: digest {} over (idx, cycles, stats), {} simulated cycles",
        space.len(),
        plan.instructions,
        plan.bench.name(),
        digests[0],
        cycles
    ));
    costs.end_to_end(&mut out);

    if args.trace {
        let mut mirrors = Vec::new();
        let overhead = traced_rounds(traced, tr, |tr, parent| {
            let m = mirror_sweep(tr, parent, plan, space, &opts);
            let d = digest(&m.results);
            out.check(d == digests[0], || {
                format!(
                    "mirrored sweep digest {d} differs from the pipeline's {}",
                    digests[0]
                )
            });
            mirrors.push(m);
            Ok(())
        })?;
        sweep_layers(&mirrors, plan.instructions, &mut out);
        out.set("tracing.overhead_s", overhead);
    }
    Ok(out)
}

/// Where `dse_applu` exports its fitted models, relative to the working
/// directory.
fn export_dir(seed: u64) -> String {
    format!(".bench_work/dse_applu-{seed}")
}

fn dse_config(plan: &Plan, seed: u64) -> SampledConfig {
    SampledConfig {
        sampling_rates: RATES.to_vec(),
        strategy: SamplingStrategy::Random,
        models: ModelKind::FIGURE2_ORDER.to_vec(),
        sim: sim_options(plan),
        seed: child_seed(seed, 2),
        estimate_errors: true,
        export_models: Some(export_dir(seed)),
    }
}

/// The artifact the select method picks at the highest sampling rate:
/// the model a user of the pipeline would serve.
fn selected_artifact(plan: &Plan, run: &SampledRun, seed: u64) -> Result<String> {
    let top = RATES.len() - 1;
    let chosen = dse::try_select_method_error(run, RATES[top])?.chosen;
    Ok(format!(
        "{}/{}_{}_r{top}.ppmodel",
        export_dir(seed),
        plan.bench.name(),
        chosen.abbrev()
    ))
}

/// Check a sampled run is complete and return its select-method errors,
/// one per rate.
fn check_run(run: &SampledRun, cfg: &SampledConfig, out: &mut Outcome) -> Vec<f64> {
    out.attempted += (cfg.sampling_rates.len() * cfg.models.len()) as u64;
    out.failed += run.dropped.len() as u64;
    out.check(run.dropped.is_empty(), || {
        format!("{} fits dropped: {:?}", run.dropped.len(), run.dropped)
    });
    for &rate in &cfg.sampling_rates {
        for &kind in &cfg.models {
            let ok = run.point(kind, rate).is_some_and(|p| {
                p.true_error.is_finite() && p.estimated.is_some_and(|e| e.max.is_finite())
            });
            out.check(ok, || {
                format!("{} at {rate}: missing or non-finite error", kind.abbrev())
            });
        }
    }
    cfg.sampling_rates
        .iter()
        .map(|&rate| match dse::try_select_method_error(run, rate) {
            Ok(s) => s.true_error,
            Err(e) => {
                out.check(false, || format!("select at {rate}: {e}"));
                f64::NAN
            }
        })
        .collect()
}

/// Per-layer times of the traced pipeline passes.
#[derive(Default)]
struct DseLayers {
    table_ns: u64,
    fit_ns: BTreeMap<&'static str, Vec<u64>>,
    cv_ns: BTreeMap<&'static str, Vec<u64>>,
    predict_ns: u64,
    predict_rows: u64,
}

/// The pipeline after the sweep, repeated through its per-layer public
/// functions with a span around each call. Returns the select-method
/// error per rate.
fn mirror_dse(
    tr: &Tracer,
    parent: SpanId,
    results: &[SimResult],
    cfg: &SampledConfig,
    layers: &mut DseLayers,
) -> Result<Vec<f64>> {
    let results: Vec<SimResult> = results
        .iter()
        .filter(|r| r.cycles.is_finite())
        .cloned()
        .collect();
    let t = Instant::now();
    let full = {
        let _g = tr.enter("dse.table", parent);
        dse::data::try_table_from_sweep(&results)?
    };
    layers.table_ns += ns(t);
    let n = full.n_rows();
    let mut select = Vec::new();
    for (ri, &rate) in cfg.sampling_rates.iter().enumerate() {
        // The sample size and seeds follow `try_run_sampled_dse`.
        let k = ((n as f64 * rate).round() as usize).max(8).min(n);
        let t = Instant::now();
        let sample = {
            let _g = tr.enter("dse.table", parent);
            let rows = draw_sample(
                cfg.strategy,
                &results,
                n,
                k,
                child_seed(cfg.seed, 0x5A + ri as u64),
            )?;
            full.select_rows(&rows)
        };
        layers.table_ns += ns(t);
        let mut best: Option<(f64, f64)> = None;
        for (mi, &kind) in cfg.models.iter().enumerate() {
            let train_seed = child_seed(cfg.seed, (ri as u64) << 8 | mi as u64);
            let t = Instant::now();
            let model = {
                let _g = tr.enter("mlmodels.fit", parent);
                mlmodels::try_train(kind, &sample, train_seed)?
            };
            layers.fit_ns.entry(kind.abbrev()).or_default().push(ns(t));
            let t = Instant::now();
            let preds = {
                let _g = tr.enter("mlmodels.predict", parent);
                model.predict(&full)
            };
            layers.predict_ns += ns(t);
            layers.predict_rows += n as u64;
            let (true_error, _) = linalg::stats::mape(&preds, full.target());
            let t = Instant::now();
            let est = {
                let _g = tr.enter("mlmodels.cv", parent);
                mlmodels::crossval::try_estimate_error(kind, &sample, child_seed(train_seed, 0xE5))?
            };
            layers.cv_ns.entry(kind.abbrev()).or_default().push(ns(t));
            // The select method: lowest estimated (max) error, first wins ties.
            if est.max.is_finite() && best.is_none_or(|(m, _)| est.max < m) {
                best = Some((est.max, true_error));
            }
        }
        select.push(best.map_or(f64::NAN, |(_, e)| e));
    }
    Ok(select)
}

pub fn dse_applu(args: &Args, tr: &Tracer) -> Result<Outcome> {
    let plan = &DSE_APPLU;
    let cfg = dse_config(plan, args.seed);
    let opts = cfg.sim;
    let mut out = Outcome::default();
    let (untraced, traced) = budgets(args);

    let mut setup_times = Vec::new();
    let mut points = None;
    let mut costs = Costs::default();
    let mut digests = Vec::new();
    let mut selects: Vec<Vec<f64>> = Vec::new();
    let mut served_path = String::new();
    let mut replays = Vec::new();
    repeat(untraced, || {
        let points = &*points.insert(timed_setup(plan, args, &opts, &mut setup_times));
        let space = &points.0;
        // Sweep, fit and serve, each followed by a sample of the reference
        // kernel.
        let mut meter = Meter::start(fanout_threads(), PASS_REPS);
        let (results, sweep_cpu) = metered_sweep(&mut meter, plan, space, &opts)?;
        let (fitted, _) = meter.phase(|| -> Result<_> {
            let run =
                dse::try_run_sampled_dse(plan.bench, space, &cfg, Some(results.clone()), None)?;
            let select = check_run(&run, &cfg, &mut out);
            let path = selected_artifact(plan, &run, args.seed)?;
            let served = Served::load(&path)?;
            Ok((select, path, served))
        });
        let (select, path, served) = fitted?;
        served_path = path;
        let (step, _) = meter.phase(|| {
            serving::replay(&served, child_seed(args.seed, 3), tr, SpanId::ROOT, &mut out)
        });
        let (step, answers) = step?;
        costs.pass(&meter);
        serving::check_predictions(&served, answers, &mut out)?;
        replays.push(step);
        costs.sim_kinst.push(sim_kinst(&results, meter.units(sweep_cpu)));
        digests.push(digest(&results));
        count_sims(&results, &mut out);
        recheck(plan, points, &opts, &results, &mut costs.point_units, &mut out);
        selects.push(select);
        first_pass_rss(&costs.units, &mut out);
        Ok(())
    })?;
    report_setup(&setup_times, costs.units.len(), &mut out);
    let (space, _) = &points.expect("at least one pass");
    check_same_digest(&digests, "sweep", &mut out);
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    out.check(selects.iter().all(|s| bits(s) == bits(&selects[0])), || {
        "select-method errors differ between passes".to_string()
    });
    let select_error_pct = stats::mean(&selects[0]);
    out.note(format!(
        "sweep {} configs x {} inst of {}: digest {}",
        space.len(),
        plan.instructions,
        plan.bench.name(),
        digests[0]
    ));
    out.note(format!(
        "select_error_pct {select_error_pct} % (true error of the select method, mean over rates {:?})",
        RATES
    ));
    let served = Served::load(&served_path)?;
    let replay_ms: Vec<f64> = replays
        .iter()
        .flat_map(|r| r.lat_ms.iter().copied())
        .collect();
    out.note(format!(
        "served {served_path} through the daemon: {} requests, latency from send p50 {:.3} ms, p99 {:.3} ms, {} failed, {} cache hits",
        replay_ms.len(),
        stats::quantile(&replay_ms, 0.5),
        stats::quantile(&replay_ms, 0.99),
        replays.iter().map(|r| r.failed).sum::<u64>(),
        replays.iter().map(|r| r.stats.cache_hits).sum::<u64>()
    ));
    costs.end_to_end(&mut out);

    if args.trace {
        let mut mirrors = Vec::new();
        let mut layers = DseLayers::default();
        let mut passes = 0u32;
        let mut mirror_replays = Vec::new();
        let overhead = traced_rounds(traced, tr, |tr, parent| {
            let m = mirror_sweep(tr, parent, plan, space, &opts);
            let select = mirror_dse(tr, parent, &m.results, &cfg, &mut layers)?;
            let seed = child_seed(args.seed, 3);
            let (step, answers) = serving::replay(&served, seed, tr, parent, &mut out)?;
            serving::check_predictions(&served, answers, &mut out)?;
            mirror_replays.push(step);
            passes += 1;
            let d = digest(&m.results);
            out.check(d == digests[0], || {
                format!(
                    "mirrored sweep digest {d} differs from the pipeline's {}",
                    digests[0]
                )
            });
            out.check(bits(&select) == bits(&selects[0]), || {
                format!(
                    "mirrored select errors {select:?} differ from the pipeline's {:?}",
                    selects[0]
                )
            });
            mirrors.push(m);
            Ok(())
        })?;
        sweep_layers(&mirrors, plan.instructions, &mut out);
        serving::serve_layers(&served, &mirror_replays, args.seed, tr, &mut out)?;
        out.set(
            "dse.table_ms",
            layers.table_ns as f64 / 1e6 / f64::from(passes),
        );
        for (kind, times) in &layers.fit_ns {
            out.set(&format!("fit.train_ms.{kind}"), mean_ms(times));
        }
        for (kind, times) in &layers.cv_ns {
            out.set(&format!("cv.estimate_ms.{kind}"), mean_ms(times));
        }
        out.set(
            "predict.ns_per_row",
            layers.predict_ns as f64 / layers.predict_rows.max(1) as f64,
        );
        out.set("tracing.overhead_s", overhead);
    }
    Ok(out)
}

fn mean_ms(times: &[u64]) -> f64 {
    times.iter().sum::<u64>() as f64 / 1e6 / times.len().max(1) as f64
}
