#include "trace.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

namespace {
// The innermost open span on this thread.
thread_local Span* tl_open = nullptr;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}
}  // namespace

Span::Span(LayerStat* stat) : stat_{stat}, parent_{tl_open} {
  tl_open = this;
  start_ns_ = now_ns();
}

Span::~Span() {
  const std::int64_t d = now_ns() - start_ns_;
  if (stat_ != nullptr) {
    ++stat_->calls;
    stat_->nested += nested_;
    stat_->self_ns += d - children_ns_;
  }
  tl_open = parent_;
  if (parent_ != nullptr) {
    parent_->children_ns_ += d;
    ++parent_->nested_;
  }
}

SpanCost measure_span_cost() {
  constexpr int kTrials = 15;
  constexpr int kSpans = 20000;
  std::vector<double> inner_ns;
  std::vector<double> outer_ns;
  for (int t = 0; t < kTrials; ++t) {
    LayerStat outer;
    LayerStat inner;
    {
      Span o{&outer};
      for (int i = 0; i < kSpans; ++i) Span s{&inner};
    }
    inner_ns.push_back(static_cast<double>(inner.self_ns) / kSpans);
    outer_ns.push_back(static_cast<double>(outer.self_ns) / kSpans);
  }
  return {median_of(inner_ns), median_of(outer_ns)};
}

}  // namespace perfbench
