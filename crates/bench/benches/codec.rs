//! Criterion suite: BDI codec throughput in GiB/s of warp-register
//! payload (128 bytes per operation).
//!
//! Four input patterns span the compression classes: `uniform` (⟨4,0⟩),
//! `lane-affine` (⟨4,1⟩, the thread-index pattern), `narrow-range`
//! (⟨4,2⟩ wide strides) and `incompressible` (random lanes, stored
//! uncompressed). Each is measured through `compress`, `decompress` and
//! the early-exit `classify` of the warped-compression codec, plus the
//! full-BDI explorer and the FPC scan.
//!
//! Run `cargo bench --bench codec`; `CRITERION_FAST=1` (or `--test`)
//! reduces it to a smoke pass.

use bdi::{BdiCodec, ChoiceSet, WarpRegister, WARP_REGISTER_BYTES};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn patterns() -> Vec<(&'static str, WarpRegister)> {
    vec![
        ("uniform", WarpRegister::splat(0xABCD)),
        ("lane-affine", WarpRegister::from_fn(|t| 5000 + t as u32)),
        ("narrow-range", WarpRegister::from_fn(|t| 1000 * t as u32)),
        (
            "incompressible",
            WarpRegister::from_fn(|t| (t as u32 + 1).wrapping_mul(0x9E37_79B9)),
        ),
    ]
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/compress");
    group.throughput(Throughput::Bytes(WARP_REGISTER_BYTES as u64));
    let codec = BdiCodec::new(ChoiceSet::warped_compression());
    for (name, reg) in patterns() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &reg, |b, reg| {
            b.iter(|| black_box(codec.compress(black_box(reg))));
        });
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/decompress");
    group.throughput(Throughput::Bytes(WARP_REGISTER_BYTES as u64));
    let codec = BdiCodec::new(ChoiceSet::warped_compression());
    for (name, reg) in patterns() {
        let compressed = codec.compress(&reg);
        group.bench_with_input(
            BenchmarkId::from_parameter(name),
            &compressed,
            |b, compressed| {
                b.iter(|| black_box(codec.decompress(black_box(compressed))));
            },
        );
    }
    group.finish();
}

fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/classify");
    group.throughput(Throughput::Bytes(WARP_REGISTER_BYTES as u64));
    let codec = BdiCodec::new(ChoiceSet::warped_compression());
    for (name, reg) in patterns() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &reg, |b, reg| {
            b.iter(|| black_box(codec.classify(black_box(reg))));
        });
    }
    group.finish();
}

fn bench_explorer(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/explorer");
    group.throughput(Throughput::Bytes(WARP_REGISTER_BYTES as u64));
    for (name, reg) in patterns() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &reg, |b, reg| {
            b.iter(|| black_box(bdi::explore_best_choice(black_box(reg))));
        });
    }
    group.finish();
}

fn bench_fpc(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/fpc");
    group.throughput(Throughput::Bytes(WARP_REGISTER_BYTES as u64));
    for (name, reg) in patterns() {
        group.bench_with_input(BenchmarkId::from_parameter(name), &reg, |b, reg| {
            b.iter(|| black_box(bdi::fpc::compressed_bits(black_box(reg.as_lanes()))));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compress,
    bench_decompress,
    bench_classify,
    bench_explorer,
    bench_fpc,
);
criterion_main!(benches);
