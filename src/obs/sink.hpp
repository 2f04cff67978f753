// The observability attachment point: a Sink bundles a metrics Registry, an
// event Tracer, and a causal SpanTracer. Simulation entry points take an
// optional `obs::Sink*` (null by default); instrumented code guards every
// record with one pointer test, so an un-instrumented run pays nothing
// beyond that branch.
//
//   obs::Sink sink;                      // owning bundle
//   config.sink = &sink;
//   auto report = sim::simulate(scheme, input, config);
//   write(metrics_path, sink.metrics.to_json());
//   write(trace_path, sink.trace.to_jsonl());
//   write(spans_path, sink.spans.to_jsonl());
#pragma once

#include <memory>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace vodbcast::obs {

struct Sink {
  Sink() = default;
  explicit Sink(std::size_t trace_capacity) : trace(trace_capacity) {}
  Sink(std::size_t trace_capacity, std::size_t span_capacity)
      : trace(trace_capacity), spans(span_capacity) {}

  /// An empty sink with this sink's ring capacities: the private shard one
  /// worker records into before merge_from folds it back.
  [[nodiscard]] std::unique_ptr<Sink> make_shard() const {
    return std::make_unique<Sink>(trace.capacity(), spans.capacity());
  }

  /// Folds a shard in (Registry, Tracer and SpanTracer merge_from). Shards
  /// folded in a fixed order give the same sink at any thread count.
  void merge_from(const Sink& shard) {
    metrics.merge_from(shard.metrics);
    trace.merge_from(shard.trace);
    spans.merge_from(shard.spans);
  }

  Registry metrics;
  Tracer trace;
  SpanTracer spans;
};

class Sampler;

/// Folds the sidecar drop counts — Tracer ring overwrites, SpanTracer ring
/// overwrites and (optionally) Sampler row drops — into first-class registry
/// counters (`obs.trace.dropped`, `obs.spans.dropped`, `obs.series.dropped`),
/// so exposition dumps and tools/metrics_check can gate on silent
/// truncation. Monotone top-up: callable repeatedly at any export point
/// without double counting. Defined in sampler.cpp.
void publish_drop_metrics(Sink& sink, const Sampler* sampler = nullptr);

}  // namespace vodbcast::obs
