//! Microbenchmarks for the UCP primitives: pattern-dispatched Union,
//! flat Extract, the container codec, and glob matching — the inner loops
//! of the conversion pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ucp_core::language::glob_match;
use ucp_core::ops::{extract_flat, union_tp};
use ucp_core::pattern::{FragmentSpec, ParamPattern};
use ucp_model::Partition;
use ucp_parallel::FlatLayout;
use ucp_storage::Container;
use ucp_tensor::{DetRng, Shape, Tensor};

fn bench_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("union_tp");
    let rng = DetRng::new(1);
    let full = Tensor::randn([1024, 512], 1.0, &rng.derive("w"));
    for tp in [2usize, 4, 8] {
        let partition = Partition::Shard { dim: 0 };
        let shards: Vec<Tensor> = (0..tp).map(|r| partition.shard(&full, tp, r)).collect();
        let pattern = ParamPattern::Fragment(FragmentSpec::Dim { dim: 0 });
        group.bench_with_input(BenchmarkId::new("dim0", tp), &shards, |b, shards| {
            b.iter(|| union_tp(&pattern, shards, false).unwrap())
        });
        let grouped = Partition::Grouped {
            dim: 0,
            sections: vec![512, 256, 256],
        };
        let gshards: Vec<Tensor> = (0..tp).map(|r| grouped.shard(&full, tp, r)).collect();
        let gpattern = ParamPattern::Fragment(FragmentSpec::Grouped {
            dim: 0,
            sections: vec![512, 256, 256],
        });
        group.bench_with_input(
            BenchmarkId::new("grouped_qkv", tp),
            &gshards,
            |b, shards| b.iter(|| union_tp(&gpattern, shards, false).unwrap()),
        );
    }
    // Replica verification cost (the corruption tripwire).
    let replicas = vec![full.clone(), full.clone()];
    group.bench_function("replicated_verified", |b| {
        b.iter(|| union_tp(&ParamPattern::Replicated, &replicas, true).unwrap())
    });
    group.bench_function("to_average", |b| {
        b.iter(|| union_tp(&ParamPattern::ToAverage, &replicas, false).unwrap())
    });
    group.finish();
}

fn bench_extract(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract_flat");
    for n_params in [10usize, 100, 1000] {
        let params: Vec<(String, Shape)> = (0..n_params)
            .map(|i| (format!("p{i:04}"), Shape::new([257])))
            .collect();
        let layout = FlatLayout::build(&params, 8, 4);
        let chunk = vec![1.0f32; layout.chunk];
        group.bench_with_input(
            BenchmarkId::from_parameter(n_params),
            &(layout, chunk),
            |b, (layout, chunk)| b.iter(|| extract_flat(layout, 1, chunk)),
        );
    }
    group.finish();
}

fn bench_container(c: &mut Criterion) {
    let mut group = c.benchmark_group("container_codec");
    let rng = DetRng::new(2);
    for elems in [1usize << 12, 1 << 16, 1 << 20] {
        let t = Tensor::randn([elems], 1.0, &rng.derive("payload"));
        let mut container = Container::new(r#"{"kind": "bench"}"#);
        container.push("data", t);
        let mut encoded = Vec::new();
        container.write_to(&mut encoded).unwrap();
        group.bench_with_input(BenchmarkId::new("encode", elems), &container, |b, c| {
            b.iter(|| {
                let mut out = Vec::with_capacity(c.encoded_len());
                c.write_to(&mut out).unwrap();
                out.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("decode", elems), &encoded, |b, bytes| {
            b.iter(|| Container::read_from(&mut std::io::Cursor::new(&bytes)).unwrap())
        });
    }
    group.finish();
}

fn bench_telemetry_disabled(c: &mut Criterion) {
    // The hot paths call these unconditionally; with the global recorder
    // disabled (the default) they must cost no more than a relaxed atomic
    // load. Any regression here slows every convert/load/save inner loop.
    let mut group = c.benchmark_group("telemetry_disabled");
    group.bench_function("enabled_check", |b| b.iter(ucp_telemetry::enabled));
    group.bench_function("count", |b| {
        b.iter(|| ucp_telemetry::count("bench/noop", 1))
    });
    group.bench_function("observe", |b| {
        b.iter(|| ucp_telemetry::observe("bench/noop_ns", 1234))
    });
    // A `save/` path: one that would also trace, so both loads are paid.
    group.bench_function("span_guard", |b| {
        b.iter(|| ucp_telemetry::span("save/noop_span"))
    });
    // The twin with only the tracer armed (the `ucp trace` configuration):
    // what a phase costs when it lands on the timeline but not in a report.
    group.bench_function("span_guard_trace_only", |b| {
        let rec = ucp_telemetry::Recorder::new_disabled();
        let tracer = ucp_telemetry::Tracer::new();
        let mut opened = 0u32;
        b.iter(|| {
            drop(ucp_telemetry::Span::open(&rec, &tracer, "save/noop_span"));
            opened += 1;
            if opened.is_multiple_of(4096) {
                // Bound the buffer: drop what was recorded and rebind.
                tracer.start();
                tracer.register(ucp_telemetry::trace::DRIVER_PID, "bench");
            }
        })
    });
    // The tracing layer shares the contract: while the global tracer is
    // disabled (the default), recording spans, collectives, and comm
    // edges must also reduce to one relaxed atomic load each.
    group.bench_function("trace_span_guard", |b| {
        b.iter(|| {
            ucp_telemetry::trace::span(ucp_telemetry::TraceCat::Compute, "bench/noop_trace_span")
        })
    });
    group.bench_function("trace_collective_guard", |b| {
        b.iter(|| ucp_telemetry::trace::collective("bench_noop", "0-3", 4096))
    });
    group.bench_function("trace_edge", |b| {
        b.iter(|| ucp_telemetry::trace::edge(true, 1, 4096))
    });
    group.finish();
}

fn bench_glob(c: &mut Criterion) {
    let cases = [
        (
            "layers.*.attention.query_key_value.weight",
            "layers.17.attention.query_key_value.weight",
        ),
        ("**.bias", "layers.17.mlp.dense_4h_to_h.bias"),
        ("embedding.**", "layers.17.mlp.dense_4h_to_h.weight"),
    ];
    c.bench_function("glob_match_3rules", |b| {
        b.iter(|| cases.iter().filter(|(g, n)| glob_match(g, n)).count())
    });
}

criterion_group!(
    benches,
    bench_union,
    bench_extract,
    bench_container,
    bench_telemetry_disabled,
    bench_glob
);
criterion_main!(benches);
