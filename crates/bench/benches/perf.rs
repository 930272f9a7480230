//! Perf harness for the hot paths: `run_observed` over the 14-kernel
//! suite, digest replay vs direct simulation on a generated program, and
//! the two-phase PVT sweep at 20×4 (vs the single-phase reference). This is
//! the wall-clock trajectory the repo tracks; `repro bench --json` turns
//! the same sweep measurement into `BENCH_sweep.json` for CI.

use criterion::{criterion_group, criterion_main, Criterion};
use idca_bench::sweep::{pvt_sweep, pvt_sweep_direct};
use idca_bench::SweepConfig;
use idca_core::{
    policy::{ClockPolicy, ExecuteOnly, InstructionBased, StaticClock},
    replay_digest, AdaptiveBank, AdaptiveConfig, ClockGenerator, DelayLut, Drift, PolicyBank,
    PolicyObserver,
};
use idca_gen::{generate_program, nth_seed, GenConfig};
use idca_pipeline::{CycleObserver, DigestObserver, SimBuffers, SimConfig, Simulator};
use idca_timing::{CornerBank, ProfileKind, Ps, TimingModel, VariationModel};
use idca_workloads::benchmark_suite;
use std::hint::black_box;

fn bench_run_observed_suite(c: &mut Criterion) {
    let suite = benchmark_suite();
    let simulator = Simulator::new(SimConfig::default());
    let mut group = c.benchmark_group("perf");
    group.sample_size(10);
    group.bench_function("run_observed_14_kernel_suite", |b| {
        let mut buffers = SimBuffers::for_config(simulator.config());
        b.iter(|| {
            let mut cycles = 0u64;
            for workload in &suite {
                let summary = simulator
                    .run_observed_with_buffers(black_box(&workload.program), &mut [], &mut buffers)
                    .expect("kernels run");
                cycles += summary.cycles;
            }
            cycles
        })
    });
    group.finish();
}

fn bench_digest_replay_vs_direct(c: &mut Criterion) {
    let model = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let simulator = Simulator::new(SimConfig::default());
    let program = generate_program(nth_seed(7, 0), &GenConfig::default());
    let static_policy = StaticClock::of_model(&model);
    let lut_policy = InstructionBased::from_model(&model);

    let mut observer = DigestObserver::new();
    simulator
        .run_observed(&program, &mut [&mut observer])
        .expect("program runs");
    let digest = observer.into_digest();

    let mut group = c.benchmark_group("perf");
    group.sample_size(20);
    group.bench_function("policy_eval_direct_simulation", |b| {
        b.iter(|| {
            let mut ob_static = PolicyObserver::new(&model, &static_policy, &ClockGenerator::Ideal);
            let mut ob_lut = PolicyObserver::new(&model, &lut_policy, &ClockGenerator::Ideal);
            simulator
                .run_observed(black_box(&program), &mut [&mut ob_static, &mut ob_lut])
                .expect("program runs");
            (ob_static.into_outcome(), ob_lut.into_outcome())
        })
    });
    group.bench_function("policy_eval_digest_replay", |b| {
        b.iter(|| {
            (
                replay_digest(
                    &model,
                    black_box(&digest),
                    &static_policy,
                    &ClockGenerator::Ideal,
                ),
                replay_digest(&model, &digest, &lut_policy, &ClockGenerator::Ideal),
            )
        })
    });
    group.finish();
}

fn bench_pvt_sweep(c: &mut Criterion) {
    let config = SweepConfig {
        seeds: 20,
        corners: 4,
        master_seed: 7,
        ..SweepConfig::default()
    };
    let mut group = c.benchmark_group("perf");
    group.sample_size(10);
    group.bench_function("pvt_sweep_20x4_two_phase", |b| {
        b.iter(|| pvt_sweep(black_box(&config)))
    });
    group.bench_function("pvt_sweep_20x4_direct_reference", |b| {
        b.iter(|| pvt_sweep_direct(black_box(&config)))
    });
    group.finish();
}

/// The corner-batched replay kernel in isolation: one digest walked once
/// against `M` corners through the SoA [`CycleLanes`] evaluation, the three
/// [`PolicyBank`]s and the [`AdaptiveBank`] — exactly the sweep's phase-2
/// inner loop — next to the lane-by-lane scalar reference it replaced.
fn bench_policy_bank_kernel(c: &mut Criterion) {
    let base = TimingModel::at_nominal(ProfileKind::CriticalRangeOptimized);
    let vm = VariationModel::default();
    let program = generate_program(nth_seed(7, 0), &GenConfig::default());
    let mut observer = DigestObserver::new();
    Simulator::new(SimConfig::default())
        .run_observed(&program, &mut [&mut observer])
        .expect("program runs");
    let digest = observer.into_digest();
    let summary = digest.summary();
    let lut_policy = InstructionBased::from_model(&base);
    let exec_policy = ExecuteOnly::new(DelayLut::from_model(&base));

    let mut group = c.benchmark_group("perf");
    group.sample_size(20);
    for corners in [8u32, 32] {
        let models: Vec<TimingModel> = (0..corners)
            .map(|i| vm.apply(&base, &vm.sample_corner(7, i)))
            .collect();
        let static_requests: Vec<Ps> = models
            .iter()
            .map(|m| StaticClock::of_model(m).period())
            .collect();
        let bank = CornerBank::from_models(&models);
        let id = format!("policy_bank_replay_{corners}_corners");
        group.bench_function(id.as_str(), |b| {
            let config = AdaptiveConfig::default();
            let mut bank_static = PolicyBank::new("static", models.len(), &ClockGenerator::Ideal);
            let mut bank_lut =
                PolicyBank::new("instruction-based", models.len(), &ClockGenerator::Ideal);
            let mut bank_exec =
                PolicyBank::new("execute-only", models.len(), &ClockGenerator::Ideal);
            let mut adaptive =
                AdaptiveBank::new(&models, &config, &ClockGenerator::Ideal, None, Drift::None);
            let mut evaluator = bank.evaluator();
            b.iter(|| {
                bank_static.reset();
                bank_lut.reset();
                bank_exec.reset();
                adaptive.reset(None);
                // Primed once per job, as the sweep primes it.
                bank_static.begin_block_per_corner(&static_requests);
                digest.for_each_run(|start, len, dc| {
                    bank_lut.begin_block(lut_policy.digest_period_ps(start, dc));
                    bank_exec.begin_block(exec_policy.digest_period_ps(start, dc));
                    for cycle in start..start + u64::from(len) {
                        let lanes = &*evaluator.cycle_lanes(cycle, dc);
                        bank_static.observe_actuals(lanes.max_lanes());
                        bank_lut.observe_actuals(lanes.max_lanes());
                        bank_exec.observe_actuals(lanes.max_lanes());
                        adaptive.observe_cycle_lanes_phased(cycle, dc, lanes, false);
                    }
                });
                bank_static.finish(&summary);
                bank_lut.finish(&summary);
                bank_exec.finish(&summary);
                adaptive.finish(&summary);
                (
                    bank_static.take_outcomes(),
                    bank_lut.take_outcomes(),
                    bank_exec.take_outcomes(),
                    adaptive.take_outcomes(),
                )
            })
        });
        let id = format!("scalar_observers_replay_{corners}_corners");
        group.bench_function(id.as_str(), |b| {
            b.iter(|| {
                let mut violations = 0u64;
                for (corner, model) in models.iter().enumerate() {
                    let static_policy = StaticClock::new(static_requests[corner]);
                    let mut ob_static =
                        PolicyObserver::new(model, &static_policy, &ClockGenerator::Ideal);
                    let mut ob_lut =
                        PolicyObserver::new(model, &lut_policy, &ClockGenerator::Ideal);
                    let mut ob_exec =
                        PolicyObserver::new(model, &exec_policy, &ClockGenerator::Ideal);
                    digest.for_each_cycle(|cycle, dc| {
                        let timing = model.digest_cycle_timing(cycle, dc);
                        ob_static.observe_digest_timed(cycle, dc, &timing);
                        ob_lut.observe_digest_timed(cycle, dc, &timing);
                        ob_exec.observe_digest_timed(cycle, dc, &timing);
                    });
                    ob_static.finish(&summary);
                    ob_lut.finish(&summary);
                    ob_exec.finish(&summary);
                    violations += ob_static.into_outcome().violations
                        + ob_lut.into_outcome().violations
                        + ob_exec.into_outcome().violations;
                }
                violations
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_run_observed_suite,
    bench_digest_replay_vs_direct,
    bench_pvt_sweep,
    bench_policy_bank_kernel
);
criterion_main!(benches);
