// Out-of-program layer tracing for the ccascope benchmark.
//
// A Span times one call into a layer's public interface. Spans nest per
// thread: a span's self time is its duration minus the durations of the
// spans opened inside it, so a qdisc enqueue reached from a CCA-triggered
// send is charged to the qdisc, not to the CCA. A span with no LayerStat
// charges nobody and only hides its time from its parent.
//
// A span costs time of its own (two clock reads and the bookkeeping): part
// of it lands inside the span, part in its parent. measure_span_cost()
// measures both parts with empty spans, so readers can take them out.
//
// Counters are plain integers: a LayerStat belongs to one thread. The
// multi-threaded sweep workload times its cells with local clocks instead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

struct LayerStat {
  std::uint64_t calls{0};
  std::uint64_t nested{0};  ///< spans opened directly inside this layer's spans
  std::int64_t self_ns{0};
};

class Span {
 public:
  explicit Span(LayerStat* stat);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  LayerStat* stat_;
  Span* parent_;
  std::uint64_t nested_{0};
  std::int64_t children_ns_{0};
  std::int64_t start_ns_;
};

/// The cost of one span: `inner_ns` lands in the span's own self time,
/// `outer_ns` in its parent's.
struct SpanCost {
  double inner_ns{0.0};
  double outer_ns{0.0};
};

/// Times empty spans nested in one outer span on this thread; the median of
/// several trials. Call it with no span open.
[[nodiscard]] SpanCost measure_span_cost();

/// Named LayerStats of one traced round. References returned by layer()
/// stay valid for the tracer's lifetime (std::map never relocates nodes).
class Tracer {
 public:
  LayerStat& layer(const std::string& name) { return layers_[name]; }
  [[nodiscard]] const std::map<std::string, LayerStat>& layers() const { return layers_; }
  /// Spans closed so far, over all layers.
  [[nodiscard]] std::uint64_t spans() const {
    std::uint64_t n = 0;
    for (const auto& [name, st] : layers_) n += st.calls;
    return n;
  }

 private:
  std::map<std::string, LayerStat> layers_;
};

}  // namespace perfbench
