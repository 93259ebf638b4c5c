//! Machine-construction cost pin: builds the churn sweep's standalone
//! large cell (16 CPUs x 100k flow slots) and reports the build wall
//! time, which criterion divides down to a per-iteration figure — divide
//! by the flow count for ns/flow. The slab-provisioned bulk path should
//! hold this in the tens of ns/flow; a silent fall-back to incremental
//! `add_region` calls shows up here as a 10x+ regression, the same way
//! the sim-mem hot-path pins catch per-touch rot.

use affinity_sim::{DataplaneMode, ExperimentConfig, Machine, ServerWorkload, SteerSpec};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Flow-slot count of the pinned cell. 100k matches the churn sweep's
/// standalone large cell, the construction workload the bulk path was
/// built for.
const FLOWS: usize = 100_000;

fn churn_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::churn(
        16,
        FLOWS,
        SteerSpec {
            pin_processes: true,
            ..SteerSpec::flow_director()
        },
        DataplaneMode::Interrupt,
    );
    config.server = config.server.map(ServerWorkload::mice_only);
    config
}

/// One full `Machine::new` per iteration: region provisioning (6 regions
/// per flow), directory/page/generation sizing, arena + task + peer setup.
fn bench_build_churn_machine(c: &mut Criterion) {
    let config = churn_config();
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    group.bench_function("build_16cpu_100k_flow_churn_machine", |b| {
        b.iter(|| black_box(Machine::new(&config).expect("valid churn config")));
    });
    group.finish();
}

criterion_group!(benches, bench_build_churn_machine);
criterion_main!(benches);
