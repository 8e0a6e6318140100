//! E9 — SEM daemon token throughput vs worker count.
//!
//! Paper claim (§4): one online SEM serves the whole system; this bench
//! measures how token service over loopback TCP scales with the
//! daemon's pool workers on one host.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sempair_core::bf_ibe::Pkg;
use sempair_net::tcp::{drive_throughput, ServerConfig, TcpSemServer};
use sempair_pairing::CurveParams;
use std::time::Duration;

fn bench_server_throughput(c: &mut Criterion) {
    let curve = CurveParams::fast_insecure();
    let mut rng = StdRng::seed_from_u64(9001);
    let pkg = Pkg::setup(&mut rng, curve);
    let (_, sem_key) = pkg.extract_split(&mut rng, "load");
    let ct = pkg
        .params()
        .encrypt_full(&mut rng, "load", &[0u8; 32])
        .unwrap();

    let mut group = c.benchmark_group("e9/server_throughput");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    const REQUESTS: usize = 64;
    group.throughput(Throughput::Elements(REQUESTS as u64));
    for workers in [1usize, 2, 4, 8] {
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let server = TcpSemServer::bind_with("127.0.0.1:0", pkg.params().clone(), config).unwrap();
        server.install_ibe(sem_key.clone());
        group.bench_function(BenchmarkId::new("tokens", format!("w{workers}")), |b| {
            b.iter(|| {
                drive_throughput(&server, "load", &ct.u, workers.min(4), REQUESTS, 1).unwrap()
            })
        });
        server.shutdown();
    }
    group.finish();
}

fn bench_batched_endpoint(c: &mut Criterion) {
    let curve = CurveParams::fast_insecure();
    let mut rng = StdRng::seed_from_u64(9002);
    let pkg = Pkg::setup(&mut rng, curve);
    let (_, sem_key) = pkg.extract_split(&mut rng, "load");
    let ct = pkg
        .params()
        .encrypt_full(&mut rng, "load", &[0u8; 32])
        .unwrap();

    let mut group = c.benchmark_group("e9/batched_endpoint");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(1));
    group.warm_up_time(Duration::from_millis(300));
    const REQUESTS: usize = 64;
    group.throughput(Throughput::Elements(REQUESTS as u64));
    // Same request stream, same pairing work per token — the deltas
    // below are pure frame round-trip and pool-hop amortization.
    let server = TcpSemServer::bind("127.0.0.1:0", pkg.params().clone()).unwrap();
    server.install_ibe(sem_key.clone());
    group.bench_function("single_requests", |b| {
        b.iter(|| drive_throughput(&server, "load", &ct.u, 2, REQUESTS, 1).unwrap())
    });
    for batch in [4usize, 16, 32] {
        group.bench_function(BenchmarkId::new("batched", format!("b{batch}")), |b| {
            b.iter(|| drive_throughput(&server, "load", &ct.u, 2, REQUESTS, batch).unwrap())
        });
    }
    server.shutdown();
    group.finish();
}

criterion_group!(benches, bench_server_throughput, bench_batched_endpoint);
criterion_main!(benches);
