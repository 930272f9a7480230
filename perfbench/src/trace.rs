//! The traced run: a mirror of each workload's iteration built from the
//! public functions of every layer, with a span around each call.
//!
//! Spans are recorded by this benchmark around calls into the library, not
//! inside it. Calls made once per program or per report are spanned one at
//! a time. The per-cycle calls of the corner-batched replay (`CornerBank`
//! lanes, fault and surge, `PolicyBank`, `AdaptiveBank`) and the DTA
//! observer riding the characterization run are too small to span singly:
//! their joint span is split by the shares that cumulative calibration
//! passes over the same digests measure after the traced iterations (see
//! `README.md`).

use crate::stats;
use crate::workloads::{
    fresh_dir, query_kind, timed, worker_threads, Kind, PaperOutputs, Prepared, FLEET_SHARDS,
    QUERY_KINDS, QUERY_MIX,
};
use idca_bench::{
    merge_reports, sweep::PolicyJobOutcome, sweep::SweepJobOutcome, sweep::SWEEP_POLICIES,
    Ablations, Corpus, Experiments, ServeSession, SweepConfig, SweepReport, SweepShard,
    CHARACTERIZATION_SEED,
};
use idca_core::{
    eval::{compare_digest, SuiteSummary},
    policy::{ExecuteOnly, GenieOracle, InstructionBased, StaticClock},
    replay_digest, AdaptiveBank, AdaptiveConfig, AdaptiveOutcome, ClockGenerator, ClockPolicy,
    DelayLut, Drift, PolicyBank, RunOutcome,
};
use idca_gen::{generate_program, nth_seed};
use idca_pipeline::{
    DigestObserver, InterruptPlan, InterruptSpec, IrqPhase, PredecodedProgram, SimBuffers,
    SimConfig, Simulator, TimingDigest,
};
use idca_timing::{
    dta::DynamicTimingAnalysis, CellLibrary, CornerBank, FaultPlan, IrqTimeline, PowerModel,
    ProfileKind, Ps, PvtCorner, TimingModel,
};
use idca_workloads::{benchmark_suite, suite::characterization_workload, suite::par_map};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::ops::Range;
use std::path::Path;
use std::time::{Duration, Instant};

/// The joint span of the fused per-cycle replay walk, split by calibration.
const WALK: &str = "replay.walk";
/// The joint span of the characterization run (simulation, digest capture
/// and the streaming DTA), split by calibration.
const CHARACTERIZE: &str = "characterize";
/// Layers sharing the fused walk, in calibration-pass order: each pass adds
/// the next layer's calls to the previous pass.
const WALK_LAYERS: [&str; 5] = [
    "pipeline.digest.walk_ms",
    "timing.lanes.ms",
    "timing.fault.ms",
    "core.policy_bank.ms",
    "core.adaptive_bank.ms",
];

static IDEAL: ClockGenerator = ClockGenerator::Ideal;

/// Self time and counts per layer metric, plus the worker time parallel
/// sections added beyond the wall clock.
#[derive(Default)]
pub struct Spans {
    pub time: BTreeMap<&'static str, Duration>,
    pub counts: BTreeMap<&'static str, u64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Σ (workers − 1) × wall over parallel sections whose items carry
    /// spans: the thread time those spans could cover beyond the wall.
    pub extra_thread_time: Duration,
}

impl Spans {
    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (result, elapsed) = timed(f);
        *self.time.entry(name).or_default() += elapsed;
        result
    }

    /// [`Spans::span`] that also keeps the duration as a sample (µs).
    pub fn sampled<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (result, elapsed) = timed(f);
        *self.time.entry(name).or_default() += elapsed;
        self.samples
            .entry(name)
            .or_default()
            .push(elapsed.as_secs_f64() * 1e6);
        result
    }

    pub fn add(&mut self, name: &'static str, elapsed: Duration) {
        *self.time.entry(name).or_default() += elapsed;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn merge(&mut self, other: Spans) {
        for (name, d) in other.time {
            *self.time.entry(name).or_default() += d;
        }
        for (name, n) in other.counts {
            *self.counts.entry(name).or_default() += n;
        }
        for (name, mut s) in other.samples {
            self.samples.entry(name).or_default().append(&mut s);
        }
        self.extra_thread_time += other.extra_thread_time;
    }

    pub fn ms(&self, name: &str) -> f64 {
        self.time.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3)
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Moves the joint span `from` into `layers` in proportion to `shares`.
    fn split(&mut self, from: &str, layers: &[&'static str], shares: &[f64]) {
        let Some(total) = self.time.remove(from) else {
            return;
        };
        for (layer, share) in layers.iter().zip(shares) {
            *self.time.entry(layer).or_default() += total.mul_f64(*share);
        }
    }
}

/// Runs `f` over `items` on the parallel map, merging each item's spans
/// into `spans` and returning the results with each item's busy time and
/// worker.
fn par_spanned<T: Sync, R: Send>(
    items: &[T],
    spans: &mut Spans,
    f: impl Fn(&T, &mut Spans) -> R + Sync,
) -> Vec<(R, Duration, std::thread::ThreadId)> {
    let start = Instant::now();
    let results = par_map(items, |item| {
        let mut local = Spans::default();
        let (result, busy) = timed(|| f(item, &mut local));
        (result, local, busy, std::thread::current().id())
    });
    let workers = worker_threads().min(items.len()).max(1);
    spans.extra_thread_time += start.elapsed() * (workers as u32 - 1);
    results
        .into_iter()
        .map(|(result, local, busy, thread)| {
            spans.merge(local);
            (result, busy, thread)
        })
        .collect()
}

/// Corner-constant replay state of one sweep, built from public calls.
struct SweepSetup {
    corner_samples: Vec<PvtCorner>,
    static_periods: Vec<Ps>,
    static_requests: Vec<Ps>,
    lut_policy: InstructionBased,
    exec_only: ExecuteOnly,
    bank: CornerBank,
    plan: Option<FaultPlan>,
    irq: Option<InterruptSpec>,
    simulator: Simulator,
}

fn sweep_setup(config: &SweepConfig, spans: &mut Spans) -> SweepSetup {
    let (nominal, corner_samples, varied, bank) = spans.span("timing.model.ms", || {
        let nominal = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
        let corners: Vec<PvtCorner> = (0..config.corners)
            .map(|i| config.variation.sample_corner(config.master_seed, i))
            .collect();
        let varied: Vec<TimingModel> = corners
            .iter()
            .map(|corner| config.variation.apply(&nominal, corner))
            .collect();
        let bank = CornerBank::from_models(&varied);
        (nominal, corners, varied, bank)
    });
    let lut = spans.span("core.lut.ms", || {
        DelayLut::from_model(&nominal).scaled(1.0 + config.variation.margin())
    });
    SweepSetup {
        corner_samples,
        static_periods: varied.iter().map(TimingModel::static_period_ps).collect(),
        static_requests: varied
            .iter()
            .map(|model| StaticClock::of_model(model).period())
            .collect(),
        lut_policy: InstructionBased::new(lut.clone()),
        exec_only: ExecuteOnly::new(lut),
        bank,
        plan: config.faults.map(|spec| FaultPlan::new(&spec)),
        irq: config.active_interrupts(),
        simulator: Simulator::new(SimConfig {
            max_cycles: config.max_cycles,
            ..SimConfig::default()
        }),
    }
}

/// One worker's policy banks, kept across the seeds of a sweep.
struct Scratch {
    static_periods: Vec<Ps>,
    plan: Option<FaultPlan>,
    bank_static: PolicyBank<'static>,
    bank_lut: PolicyBank<'static>,
    bank_exec: PolicyBank<'static>,
    adaptive: AdaptiveBank<'static>,
}

impl Scratch {
    fn new(s: &SweepSetup) -> Scratch {
        let bank = |name: &str| {
            let bank = PolicyBank::new(name, s.static_periods.len(), &IDEAL);
            match s.plan {
                Some(plan) => bank.with_faults(plan),
                None => bank,
            }
        };
        let adaptive = AdaptiveBank::from_static_periods(
            s.static_periods.clone(),
            &AdaptiveConfig::default(),
            &IDEAL,
            None,
            Drift::None,
        );
        Scratch {
            static_periods: s.static_periods.clone(),
            plan: s.plan,
            bank_static: bank(SWEEP_POLICIES[0]),
            bank_lut: bank(SWEEP_POLICIES[1]),
            bank_exec: bank(SWEEP_POLICIES[2]),
            adaptive: match s.plan {
                Some(plan) => adaptive.with_faults(plan),
                None => adaptive,
            },
        }
    }

    fn reset(&mut self) {
        self.bank_static.reset();
        self.bank_lut.reset();
        self.bank_exec.reset();
        self.adaptive.reset(None);
    }
}

/// Runs `f` with this thread's scratch, built for `s` on first use and
/// reset otherwise (the span covers both).
fn with_scratch<R>(
    s: &SweepSetup,
    spans: &mut Spans,
    f: impl FnOnce(&mut Scratch, &mut Spans) -> R,
) -> R {
    thread_local! {
        static SCRATCH: RefCell<Option<Scratch>> = const { RefCell::new(None) };
    }
    SCRATCH.with(|cell| {
        let mut slot = cell.borrow_mut();
        let start = Instant::now();
        let scratch = match slot.as_mut() {
            Some(scratch)
                if scratch.static_periods == s.static_periods && scratch.plan == s.plan =>
            {
                scratch.reset();
                scratch
            }
            _ => slot.insert(Scratch::new(s)),
        };
        spans.add("bench.replay.scratch_ms", start.elapsed());
        f(scratch, spans)
    })
}

/// Runs `f` with this thread's simulation buffers.
fn with_buffers<R>(simulator: &Simulator, f: impl FnOnce(&mut SimBuffers) -> R) -> R {
    thread_local! {
        static BUFFERS: RefCell<Option<SimBuffers>> = const { RefCell::new(None) };
    }
    BUFFERS.with(|cell| {
        let mut slot = cell.borrow_mut();
        f(slot.get_or_insert_with(|| SimBuffers::for_config(simulator.config())))
    })
}

/// One seed's corner-batched walk. `LEVEL` selects how many layers run:
/// 0 walks the run-blocks only, 1 adds the `CornerBank` lanes, 2 faults and
/// the entry surge, 3 the `PolicyBank`s, 4 the `AdaptiveBank`: the full
/// walk of the sweep engine.
fn walk<const LEVEL: u8>(
    digest: &TimingDigest,
    s: &SweepSetup,
    scratch: &mut Scratch,
    timeline: Option<&IrqTimeline>,
    surge: f64,
) {
    let mut evaluator = s.bank.evaluator();
    let mut cursor = timeline.map(IrqTimeline::cursor);
    digest.for_each_run(|start, len, dc| {
        if LEVEL >= 3 {
            scratch
                .bank_lut
                .begin_block(s.lut_policy.digest_period_ps(start, dc));
            scratch
                .bank_exec
                .begin_block(s.exec_only.digest_period_ps(start, dc));
            scratch
                .bank_static
                .begin_block_per_corner(&s.static_requests);
        }
        for cycle in start..start + u64::from(len) {
            if LEVEL == 0 {
                black_box((cycle, dc));
                continue;
            }
            let entry = LEVEL >= 2
                && cursor
                    .as_mut()
                    .is_some_and(|cursor| cursor.phase(cycle) == IrqPhase::Entry);
            let lanes = evaluator.cycle_lanes(cycle, dc);
            if LEVEL >= 2 {
                if let Some(plan) = &s.plan {
                    lanes.apply_fault(plan, cycle);
                }
                if entry {
                    lanes.apply_surge(surge);
                }
            }
            let lanes = &*lanes;
            if LEVEL < 3 {
                black_box(lanes.max_lanes());
                continue;
            }
            let banks = [
                &mut scratch.bank_static,
                &mut scratch.bank_lut,
                &mut scratch.bank_exec,
            ];
            for bank in banks {
                if entry {
                    bank.observe_actuals_entry(lanes.max_lanes());
                } else {
                    bank.observe_actuals(lanes.max_lanes());
                }
            }
            if LEVEL >= 4 {
                scratch
                    .adaptive
                    .observe_cycle_lanes_phased(cycle, dc, lanes, entry);
            }
        }
    });
}

fn policy_row(o: RunOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: 0,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

fn adaptive_row(o: AdaptiveOutcome) -> PolicyJobOutcome {
    PolicyJobOutcome {
        violations: o.violations,
        entry_violations: o.entry_violations,
        mhz: o.effective_frequency_mhz,
        warmup_cycles: o.warmup_cycles,
        recovered_cycles: o.recovered_cycles,
        replay_penalty_cycles: o.replay_penalty_cycles,
        silent_risk_cycles: o.silent_risk_cycles,
        recovery_mhz: o.recovery_frequency_mhz,
    }
}

/// Phase 2 of one seed: the fused walk, then `finish` and the rows.
fn replay_seed(
    digest: &TimingDigest,
    s: &SweepSetup,
    seed_index: u32,
    spans: &mut Spans,
) -> Vec<SweepJobOutcome> {
    let timeline = s
        .irq
        .map(|spec| IrqTimeline::from_events(digest.events(), spec.penalty));
    let surge = s.irq.map_or(1.0, |spec| 1.0 + spec.surge);
    let runs = digest.run_count() as u64;
    spans.count("core.policy_bank.blocks", runs);
    spans.count(
        "timing.lanes.cycle_corners",
        digest.cycles() * s.static_periods.len() as u64,
    );
    with_scratch(s, spans, |scratch, local| {
        local.span(WALK, || {
            walk::<4>(digest, s, scratch, timeline.as_ref(), surge)
        });
        let summary = digest.summary();
        let (out_static, out_lut, out_exec) = local.span("core.policy_bank.ms", || {
            scratch.bank_static.finish(&summary);
            scratch.bank_lut.finish(&summary);
            scratch.bank_exec.finish(&summary);
            (
                scratch.bank_static.take_outcomes(),
                scratch.bank_lut.take_outcomes(),
                scratch.bank_exec.take_outcomes(),
            )
        });
        let out_adaptive = local.span("core.adaptive_bank.ms", || {
            scratch.adaptive.finish(&summary);
            scratch.adaptive.take_outcomes()
        });
        let (irq_entries, irq_handler_cycles) = timeline
            .as_ref()
            .map_or((0, 0), |t| (t.entries(), t.handler_cycles(summary.cycles)));
        s.corner_samples
            .iter()
            .zip(
                out_static
                    .into_iter()
                    .zip(out_lut)
                    .zip(out_exec)
                    .zip(out_adaptive),
            )
            .map(|(corner, (((st, lut), exec), adaptive))| SweepJobOutcome {
                seed_index,
                corner_index: corner.index,
                cycles: summary.cycles,
                irq_entries,
                irq_handler_cycles,
                policies: [
                    policy_row(st),
                    policy_row(lut),
                    policy_row(exec),
                    adaptive_row(adaptive),
                ],
            })
            .collect()
    })
}

/// Where phase 1 gets each seed's digest.
#[derive(Clone, Copy)]
enum Phase1<'a> {
    /// Generate, lower and simulate; store the encoded digest in the
    /// directory when one is given.
    Simulate(Option<&'a Path>),
    /// Read and decode the stored digest.
    Load(&'a Path),
}

fn entry_path(dir: &Path, seed_index: u32) -> std::path::PathBuf {
    dir.join(format!("{seed_index}.digest"))
}

/// Phase 1 of one seed.
fn acquire(
    config: &SweepConfig,
    s: &SweepSetup,
    seed_index: u32,
    phase1: Phase1<'_>,
    spans: &mut Spans,
) -> Result<TimingDigest, String> {
    if let Phase1::Load(dir) = phase1 {
        let bytes = spans
            .span("bench.cache.read_ms", || {
                std::fs::read(entry_path(dir, seed_index))
            })
            .map_err(|e| e.to_string())?;
        let digest = spans
            .span("pipeline.codec.decode_ms", || {
                TimingDigest::from_bytes(&bytes)
            })
            .map_err(|e| e.to_string())?;
        spans.count("pipeline.codec.bytes", bytes.len() as u64);
        spans.count("pipeline.codec.cycles", digest.cycles());
        return Ok(digest);
    }
    let program_seed = nth_seed(config.master_seed, u64::from(seed_index));
    let program = spans.span("gen.generate.ms", || {
        generate_program(program_seed, &config.gen)
    });
    spans.count("gen.generate.programs", 1);
    let attached = s.irq.map(|spec| {
        spans.span("pipeline.simulate.ms", || {
            let (program, plan) = InterruptPlan::attach(&program, &spec);
            let simulator = Simulator::new(s.simulator.config().clone()).with_interrupts(plan);
            (program, simulator)
        })
    });
    let (program, simulator) = match &attached {
        Some((program, simulator)) => (program, simulator),
        None => (&program, &s.simulator),
    };
    let pre = spans.span("pipeline.predecode.ms", || {
        PredecodedProgram::lower(program)
    });
    spans.count("pipeline.predecode.ops", pre.len() as u64);
    let digest = spans
        .span("pipeline.simulate.ms", || {
            with_buffers(simulator, |buffers| {
                let mut observer = DigestObserver::with_hints(pre.digest_hints());
                simulator.run_observed_predecoded_with_buffers(
                    &pre,
                    &mut [&mut observer],
                    buffers,
                )?;
                Ok::<_, idca_pipeline::PipelineError>(observer.into_digest())
            })
        })
        .map_err(|e| e.to_string())?;
    spans.count("pipeline.simulate.cycles", digest.cycles());
    if let Phase1::Simulate(Some(dir)) = phase1 {
        let bytes = spans.span("pipeline.codec.encode_ms", || digest.to_bytes());
        spans.count("pipeline.codec.bytes", bytes.len() as u64);
        spans.count("pipeline.codec.cycles", digest.cycles());
        spans
            .span("bench.cache.write_ms", || {
                std::fs::write(entry_path(dir, seed_index), &bytes)
            })
            .map_err(|e| e.to_string())?;
    }
    Ok(digest)
}

/// Per phase-2 section: the busiest worker's busy time and the mean.
#[derive(Default)]
struct Balance {
    max_busy: Duration,
    mean_busy: Duration,
}

/// The sweep over `seeds`, built from public calls; returns the partial
/// report (header of the full sweep) and the digests it replayed.
fn mirror_sweep(
    config: &SweepConfig,
    seeds: Range<u32>,
    phase1: Phase1<'_>,
    spans: &mut Spans,
    balance: &mut Balance,
) -> Result<(SweepReport, Vec<TimingDigest>), String> {
    let s = sweep_setup(config, spans);
    let indices: Vec<u32> = seeds.collect();
    let digests = par_spanned(&indices, spans, |&i, spans| {
        acquire(config, &s, i, phase1, spans)
    })
    .into_iter()
    .map(|(digest, _, _)| digest)
    .collect::<Result<Vec<_>, _>>()?;
    let positions: Vec<usize> = (0..indices.len()).collect();
    let replayed = par_spanned(&positions, spans, |&p, spans| {
        replay_seed(&digests[p], &s, indices[p], spans)
    });
    let mut busy: HashMap<std::thread::ThreadId, Duration> = HashMap::new();
    let mut jobs = Vec::with_capacity(indices.len() * s.corner_samples.len());
    for (rows, time, thread) in replayed {
        *busy.entry(thread).or_default() += time;
        jobs.extend(rows);
    }
    if let Some(max) = busy.values().max() {
        balance.max_busy += *max;
        balance.mean_busy += busy.values().sum::<Duration>() / busy.len() as u32;
    }
    let report = SweepReport {
        seeds: config.seeds,
        corners: config.corners,
        master_seed: config.master_seed,
        margin: config.variation.margin(),
        faults: config.faults,
        interrupts: config.active_interrupts(),
        corner_samples: s.corner_samples,
        jobs,
    };
    Ok((report, digests))
}

/// Experiments::prepare, built from public calls.
fn mirror_prepare(spans: &mut Spans) -> Result<Experiments, String> {
    let (library, model, conventional, power) = spans.span("timing.model.ms", || {
        let library = CellLibrary::fdsoi28();
        let power = PowerModel::new(library.clone());
        (
            library,
            TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized),
            TimingModel::at_nominal(ProfileKind::Conventional),
            power,
        )
    });
    let workload = spans.span("workloads.assemble.ms", || {
        characterization_workload(CHARACTERIZATION_SEED)
    });
    let pre = spans.span("pipeline.predecode.ms", || {
        PredecodedProgram::lower(&workload.program)
    });
    spans.count("pipeline.predecode.ops", pre.len() as u64);
    let (characterization, dta, characterization_digest) = spans
        .span(CHARACTERIZE, || {
            let mut dta = DynamicTimingAnalysis::streaming(&model);
            let mut digest = DigestObserver::new();
            let run = Simulator::new(SimConfig::default())
                .run_observed_predecoded(&pre, &mut [&mut dta, &mut digest])?;
            Ok::<_, idca_pipeline::PipelineError>((
                run.summary,
                dta.into_analysis(),
                digest.into_digest(),
            ))
        })
        .map_err(|e| e.to_string())?;
    let (raw_lut, lut) = spans.span("core.lut.ms", || {
        let raw = DelayLut::from_dta(&dta, 8);
        let guarded = raw.with_guardband(0.015);
        (raw, guarded)
    });
    let suite = spans.span("workloads.assemble.ms", benchmark_suite);
    let simulator = Simulator::new(SimConfig::default());
    let suite_digests = par_spanned(&suite, spans, |workload, spans| {
        let pre = spans.span("pipeline.predecode.ms", || {
            PredecodedProgram::lower(&workload.program)
        });
        spans.count("pipeline.predecode.ops", pre.len() as u64);
        let digest = spans.span("pipeline.simulate.ms", || {
            let mut observer = DigestObserver::new();
            simulator
                .run_observed_predecoded(&pre, &mut [&mut observer])
                .map(|_| observer.into_digest())
        });
        if let Ok(digest) = &digest {
            spans.count("pipeline.simulate.cycles", digest.cycles());
        }
        digest
    })
    .into_iter()
    .map(|(digest, _, _)| digest.map_err(|e| e.to_string()))
    .collect::<Result<Vec<_>, _>>()?;
    Ok(Experiments {
        model,
        conventional,
        library,
        power,
        characterization,
        dta,
        characterization_digest,
        suite_digests,
        raw_lut,
        lut,
        suite,
    })
}

/// Experiments::ablations, built from public calls.
fn mirror_ablations(exp: &Experiments, spans: &mut Spans) -> Ablations {
    let lut_policy = InstructionBased::new(exp.lut.clone());
    let replay =
        |policy: &dyn ClockPolicy, generator: &ClockGenerator| exp.fig8_with(policy, generator).1;
    let (ideal, quantized, discrete, execute_only, genie, conventional) =
        spans.span("core.replay.ms", || {
            let conventional_policy = InstructionBased::from_model(&exp.conventional);
            let indices: Vec<usize> = (0..exp.suite.len()).collect();
            let mut conventional = SuiteSummary::new();
            for comparison in par_map(&indices, |&i| {
                compare_digest(
                    &exp.conventional,
                    exp.suite[i].name.clone(),
                    &exp.suite_digests[i],
                    &conventional_policy,
                    &ClockGenerator::Ideal,
                )
            }) {
                conventional.push(comparison);
            }
            (
                replay(&lut_policy, &ClockGenerator::Ideal),
                replay(&lut_policy, &ClockGenerator::quantized_50ps()),
                replay(&lut_policy, &ClockGenerator::discrete(8, 900.0, 2100.0)),
                replay(&ExecuteOnly::new(exp.lut.clone()), &ClockGenerator::Ideal),
                replay(&GenieOracle::new(exp.model.clone()), &ClockGenerator::Ideal),
                conventional,
            )
        });
    let short = exp.characterization_digest.truncated(500);
    let short_dta = spans.span("timing.dta.ms", || {
        DynamicTimingAnalysis::replay_digest(&exp.model, &short)
    });
    let short_lut = spans.span("core.lut.ms", || DelayLut::from_dta(&short_dta, 1));
    let truncated_lut_violations = spans.span("core.replay.ms", || {
        let policy = InstructionBased::new(short_lut);
        par_map(&exp.suite_digests, |digest| {
            replay_digest(&exp.model, digest, &policy, &ClockGenerator::Ideal).violations
        })
        .into_iter()
        .sum()
    });
    let percent = |s: &SuiteSummary| (s.mean_speedup() - 1.0) * 100.0;
    Ablations {
        ideal_cg_percent: percent(&ideal),
        quantized_cg_percent: percent(&quantized),
        discrete_cg_percent: percent(&discrete),
        execute_only_percent: percent(&execute_only),
        conventional_profile_percent: percent(&conventional),
        genie_percent: percent(&genie),
        truncated_lut_violations,
    }
}

/// One traced `paper-repro` iteration; returns the rendered outputs and
/// the prepared state.
fn mirror_paper(spans: &mut Spans) -> Result<(String, Experiments), String> {
    let exp = mirror_prepare(spans)?;
    let outputs = PaperOutputs {
        fig5: spans.span("timing.dta.ms", || exp.fig5()),
        fig6: spans.span("timing.dta.ms", || exp.fig6()),
        table1: spans.span("timing.model.ms", || exp.table1()),
        table2: spans.span("core.lut.ms", || exp.table2()),
        fig7: spans.span("timing.dta.ms", || exp.fig7()),
        fig8: spans.span("core.replay.ms", || exp.fig8()),
        power: spans.span("core.vfs.ms", || exp.power_scaling()),
        ablations: mirror_ablations(&exp, spans),
        summary_fig5: spans.span("timing.dta.ms", || exp.fig5()),
        summary_fig8: spans.span("core.replay.ms", || exp.fig8().1),
    };
    let text = spans.span("bench.render.ms", || outputs.render());
    Ok((text, exp))
}

/// What the traced run measured.
pub struct Traced {
    pub spans: Spans,
    /// Wall of each traced iteration (ms).
    pub walls_ms: Vec<f64>,
    /// Σ layer self time ÷ thread time of the traced iterations.
    pub coverage: f64,
    /// Max ÷ mean worker busy time in phase 2 (0 without a sweep).
    pub worker_imbalance: f64,
    /// The digests of the last traced iteration.
    pub digests: Vec<TimingDigest>,
    /// Per traced iteration: does the mirror reproduce the reference?
    pub checks: Vec<Result<(), String>>,
}

/// Runs `iterations` traced iterations of `p` and the calibration passes.
pub fn run(p: &Prepared, iterations: usize, work_dir: &Path) -> Result<Traced, String> {
    let mut spans = Spans::default();
    let mut balance = Balance::default();
    let mut walls_ms = Vec::with_capacity(iterations);
    let mut checks = Vec::with_capacity(iterations);
    let mut digests = Vec::new();
    let mirror_cache = work_dir.join("mirror-cache");
    fresh_dir(&mirror_cache)?;
    // `sweep-corners` set-up, outside the traced walls: fill the store the
    // traced iterations load. Its digest encode and cache writes are the
    // only ones any workload makes, so they are reported from here.
    let mut setup_spans = Spans::default();
    if p.kind == Kind::SweepCorners {
        mirror_sweep(
            &p.config,
            0..p.config.seeds,
            Phase1::Simulate(Some(&mirror_cache)),
            &mut setup_spans,
            &mut Balance::default(),
        )?;
    }
    for _ in 0..iterations {
        let mut iteration = Spans::default();
        let (result, wall) =
            timed(|| mirror_iteration(p, &mirror_cache, &mut iteration, &mut balance));
        walls_ms.push(wall.as_secs_f64() * 1e3);
        let (text, report, iteration_digests) = result?;
        checks.push(
            if report.is_some() && report.as_ref() != p.report.as_ref() {
                Err("mirrored rows differ from the reference report".to_string())
            } else {
                crate::workloads::check_output(&p.reference, &text)
            },
        );
        digests = iteration_digests;
        spans.merge(iteration);
    }
    let thread_time: f64 =
        walls_ms.iter().sum::<f64>() + spans.extra_thread_time.as_secs_f64() * 1e3;
    match p.kind {
        Kind::PaperRepro => {
            let shares = calibrate_characterization()?;
            spans.split(
                CHARACTERIZE,
                &["pipeline.simulate_observed.ms", "timing.dta.ms"],
                &shares,
            );
        }
        Kind::SweepCorners | Kind::SweepFleet => {
            let shares = calibrate_walk(&p.config, &digests);
            spans.split(WALK, &WALK_LAYERS, &shares);
        }
    }
    let covered: f64 = spans.time.values().map(|d| d.as_secs_f64() * 1e3).sum();
    for name in ["pipeline.codec.encode_ms", "bench.cache.write_ms"] {
        if let Some(elapsed) = setup_spans.time.get(name) {
            spans.add(name, *elapsed);
        }
    }
    let worker_imbalance = if balance.mean_busy.is_zero() {
        0.0
    } else {
        balance.max_busy.as_secs_f64() / balance.mean_busy.as_secs_f64()
    };
    Ok(Traced {
        coverage: covered / thread_time,
        spans,
        walls_ms,
        worker_imbalance,
        digests,
        checks,
    })
}

type MirrorOutput = (String, Option<SweepReport>, Vec<TimingDigest>);

/// One traced iteration: rendered output, report and digests.
fn mirror_iteration(
    p: &Prepared,
    mirror_cache: &Path,
    spans: &mut Spans,
    balance: &mut Balance,
) -> Result<MirrorOutput, String> {
    match p.kind {
        Kind::PaperRepro => {
            let (text, exp) = mirror_paper(spans)?;
            let mut digests = exp.suite_digests;
            digests.push(exp.characterization_digest);
            Ok((text, None, digests))
        }
        Kind::SweepCorners => {
            let (report, digests) = mirror_sweep(
                &p.config,
                0..p.config.seeds,
                Phase1::Load(mirror_cache),
                spans,
                balance,
            )?;
            let text = spans.span("bench.render.ms", || report.render());
            Ok((text, Some(report), digests))
        }
        Kind::SweepFleet => {
            let mut parts = Vec::new();
            let mut digests = Vec::new();
            for index in 1..=FLEET_SHARDS {
                let shard = SweepShard::new(index, FLEET_SHARDS).map_err(|e| e.to_string())?;
                let (part, mut shard_digests) = mirror_sweep(
                    &p.config,
                    shard.seed_range(p.config.seeds),
                    Phase1::Simulate(None),
                    spans,
                    balance,
                )?;
                digests.append(&mut shard_digests);
                parts.push(spans.span("bench.shard.encode_ms", || part.to_bytes()));
            }
            let decoded = spans
                .span("bench.shard.decode_ms", || {
                    parts
                        .iter()
                        .map(|bytes| SweepReport::from_bytes(bytes))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let merged = spans
                .span("bench.merge.ms", || merge_reports(decoded))
                .map_err(|e| e.to_string())?;
            let text = spans.span("bench.render.ms", || merged.render());
            let session = spans
                .span("bench.serve.ingest_ms", || {
                    let mut corpus = Corpus::new();
                    corpus
                        .ingest(merged.clone())
                        .map(|()| ServeSession::new(corpus, None))
                })
                .map_err(|e| e.to_string())?;
            for (kind, line) in QUERY_MIX {
                let name = QUERY_KINDS[query_kind(kind)].1;
                let reply = spans.sampled(name, || session.query(black_box(line)));
                reply.map_err(|e| format!("query `{line}`: {e}"))?;
            }
            Ok((text, Some(merged), digests))
        }
    }
}

/// Shares of [`WALK_LAYERS`] in the fused walk: cumulative passes over
/// every digest on one thread, pass `k` adding layer `k`, each layer
/// charged the growth of its pass over the previous one.
fn calibrate_walk(config: &SweepConfig, digests: &[TimingDigest]) -> Vec<f64> {
    let s = sweep_setup(config, &mut Spans::default());
    let surge = s.irq.map_or(1.0, |spec| 1.0 + spec.surge);
    let mut passes = [Duration::ZERO; 5];
    for digest in digests {
        let timeline = s
            .irq
            .map(|spec| IrqTimeline::from_events(digest.events(), spec.penalty));
        let timeline = timeline.as_ref();
        with_scratch(&s, &mut Spans::default(), |scratch, _| {
            passes[0] += timed(|| walk::<0>(digest, &s, scratch, timeline, surge)).1;
            passes[1] += timed(|| walk::<1>(digest, &s, scratch, timeline, surge)).1;
            passes[2] += timed(|| walk::<2>(digest, &s, scratch, timeline, surge)).1;
            scratch.reset();
            passes[3] += timed(|| walk::<3>(digest, &s, scratch, timeline, surge)).1;
            scratch.reset();
            passes[4] += timed(|| walk::<4>(digest, &s, scratch, timeline, surge)).1;
        });
    }
    cumulative_shares(&passes)
}

/// Shares of (simulation with digest capture, streaming DTA) in the
/// characterization run: the fastest of three runs without the DTA
/// observer against the fastest of three with it.
fn calibrate_characterization() -> Result<Vec<f64>, String> {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let pre = PredecodedProgram::lower(&characterization_workload(CHARACTERIZATION_SEED).program);
    let simulator = Simulator::new(SimConfig::default());
    let mut best = [Duration::MAX; 2];
    for _ in 0..3 {
        for (slot, with_dta) in [(0, false), (1, true)] {
            let mut dta = DynamicTimingAnalysis::streaming(&model);
            let mut digest = DigestObserver::new();
            let (run, elapsed) = timed(|| {
                if with_dta {
                    simulator.run_observed_predecoded(&pre, &mut [&mut dta, &mut digest])
                } else {
                    simulator.run_observed_predecoded(&pre, &mut [&mut digest])
                }
            });
            run.map_err(|e| e.to_string())?;
            black_box(digest.into_digest());
            best[slot] = best[slot].min(elapsed);
        }
    }
    Ok(cumulative_shares(&best))
}

/// Each pass's growth over the previous one as a share of the last pass;
/// a pass faster than its predecessor (noise) is charged nothing.
fn cumulative_shares(passes: &[Duration]) -> Vec<f64> {
    let total = passes.last().map_or(0.0, Duration::as_secs_f64);
    if total == 0.0 {
        return vec![0.0; passes.len()];
    }
    let mut previous = 0.0;
    let growth: Vec<f64> = passes
        .iter()
        .map(|pass| {
            let t = pass.as_secs_f64();
            let g = (t - previous).max(0.0);
            previous = previous.max(t);
            g
        })
        .collect();
    let sum: f64 = growth.iter().sum();
    growth.iter().map(|g| g / sum).collect()
}

/// Run-block statistics of `digests`: unique-cycle ratio and the run
/// length at the 50th and 90th percentile over runs.
pub fn digest_stats(digests: &[TimingDigest]) -> (f64, f64, f64) {
    let cycles: u64 = digests.iter().map(TimingDigest::cycles).sum();
    let unique: usize = digests.iter().map(TimingDigest::unique_cycles).sum();
    let mut lengths = Vec::new();
    for digest in digests {
        digest.for_each_run(|_, len, _| lengths.push(f64::from(len)));
    }
    let ratio = if cycles == 0 {
        0.0
    } else {
        unique as f64 / cycles as f64
    };
    (
        ratio,
        stats::quantile(&lengths, 0.5),
        stats::quantile(&lengths, 0.9),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_shares_charge_each_pass_its_growth() {
        let passes = [1, 3, 3, 6, 10].map(Duration::from_millis);
        let shares = cumulative_shares(&passes);
        let expected = [0.1, 0.2, 0.0, 0.3, 0.4];
        for (share, want) in shares.iter().zip(expected) {
            assert!((share - want).abs() < 1e-9, "{shares:?}");
        }
    }

    #[test]
    fn paper_mirror_reproduces_the_library_outputs() {
        let (mirror, _) = mirror_paper(&mut Spans::default()).expect("mirror runs");
        let library = crate::workloads::paper_text(&Experiments::prepare());
        assert_eq!(mirror, library);
    }

    #[test]
    fn sweep_mirror_reproduces_banked_rows_with_faults_and_interrupts() {
        for kind in [Kind::SweepCorners, Kind::SweepFleet] {
            let mut config = crate::workloads::base_config(kind, 11).expect("specs parse");
            config.seeds = 5;
            config.corners = config.corners.min(9);
            let library = idca_bench::pvt_sweep(&config).expect("sweep runs");
            let (mirror, _) = mirror_sweep(
                &config,
                0..config.seeds,
                Phase1::Simulate(None),
                &mut Spans::default(),
                &mut Balance::default(),
            )
            .expect("mirror runs");
            assert_eq!(mirror, library, "{kind:?}");
        }
    }
}
