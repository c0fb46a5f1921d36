// Decorators that time calls into ccascope's layer interfaces from outside
// the library. Each forwards every call to the object it wraps, unchanged,
// inside a Span charged to one LayerStat, so a decorated run simulates
// exactly what an undecorated one does (perfbench_selftest pins that).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "app/app.hpp"
#include "cca/cca.hpp"
#include "pipeline/stage.hpp"
#include "sim/packet.hpp"
#include "sim/qdisc.hpp"
#include "trace.hpp"

namespace perfbench {

namespace cc = ccc::cca;

/// cca::CongestionControl, timed per call (ACK, loss, RTO and every window
/// or pacing query the sender makes).
class TracedCca final : public cc::CongestionControl {
 public:
  TracedCca(std::unique_ptr<cc::CongestionControl> inner, LayerStat& stat)
      : inner_{std::move(inner)}, stat_{&stat} {}

  void on_ack(const cc::AckEvent& ev) override {
    Span s{stat_};
    inner_->on_ack(ev);
  }
  void on_loss(const cc::LossEvent& ev) override {
    Span s{stat_};
    inner_->on_loss(ev);
  }
  void on_rto(ccc::Time now) override {
    Span s{stat_};
    inner_->on_rto(now);
  }
  void on_idle_restart(ccc::Time now) override {
    Span s{stat_};
    inner_->on_idle_restart(now);
  }
  [[nodiscard]] ccc::ByteCount cwnd_bytes() const override {
    Span s{stat_};
    return inner_->cwnd_bytes();
  }
  [[nodiscard]] ccc::Rate pacing_rate() const override {
    Span s{stat_};
    return inner_->pacing_rate();
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] bool wants_ecn() const override {
    Span s{stat_};
    return inner_->wants_ecn();
  }
  void bind_metrics(ccc::telemetry::MetricRegistry& reg, const std::string& prefix) override {
    inner_->bind_metrics(reg, prefix);
  }

 private:
  std::unique_ptr<cc::CongestionControl> inner_;
  LayerStat* stat_;
};

/// sim::Qdisc, timed per call. QdiscStats live in the base class, so the
/// wrapper mirrors the inner qdisc's counters after every call that can
/// change them; readers of qdisc().stats() see the real numbers.
class TracedQdisc final : public ccc::sim::Qdisc {
 public:
  TracedQdisc(std::unique_ptr<ccc::sim::Qdisc> inner, LayerStat& stat)
      : inner_{std::move(inner)}, stat_{&stat} {}

  bool enqueue(const ccc::sim::Packet& pkt, ccc::Time now) override {
    bool admitted = false;
    {
      Span s{stat_};
      admitted = inner_->enqueue(pkt, now);
    }
    stats_ = inner_->stats();
    return admitted;
  }
  std::optional<ccc::sim::Packet> dequeue(ccc::Time now) override {
    std::optional<ccc::sim::Packet> pkt;
    {
      Span s{stat_};
      pkt = inner_->dequeue(now);
    }
    stats_ = inner_->stats();
    return pkt;
  }
  [[nodiscard]] ccc::Time next_ready(ccc::Time now) const override {
    Span s{stat_};
    return inner_->next_ready(now);
  }
  [[nodiscard]] ccc::ByteCount backlog_bytes() const override {
    Span s{stat_};
    return inner_->backlog_bytes();
  }
  [[nodiscard]] std::size_t backlog_packets() const override {
    Span s{stat_};
    return inner_->backlog_packets();
  }

 private:
  std::unique_ptr<ccc::sim::Qdisc> inner_;
  LayerStat* stat_;
};

/// app::App, timed per call. The inner app's data-ready hook is re-pointed
/// at this wrapper; the transport work that hook triggers is charged to
/// `transport` (nullptr: to nobody), never to the app.
class TracedApp final : public ccc::app::App {
 public:
  TracedApp(std::unique_ptr<ccc::app::App> inner, LayerStat& stat, LayerStat* transport)
      : inner_{std::move(inner)}, stat_{&stat} {
    inner_->set_data_ready_hook([this, transport] {
      Span s{transport};
      notify_data_ready();
    });
  }

  void on_start(ccc::Time now) override {
    Span s{stat_};
    inner_->on_start(now);
  }
  [[nodiscard]] ccc::ByteCount bytes_available(ccc::Time now) override {
    Span s{stat_};
    return inner_->bytes_available(now);
  }
  void consume(ccc::ByteCount n, ccc::Time now) override {
    Span s{stat_};
    inner_->consume(n, now);
  }
  void on_delivered(ccc::ByteCount total_bytes, ccc::Time now) override {
    Span s{stat_};
    inner_->on_delivered(total_bytes, now);
  }
  [[nodiscard]] bool finished(ccc::Time now) const override {
    Span s{stat_};
    return inner_->finished(now);
  }

 private:
  std::unique_ptr<ccc::app::App> inner_;
  LayerStat* stat_;
};

/// sim::PacketSink around an endpoint the caller keeps alive (a flow's
/// TcpReceiver); register it in the demux in the endpoint's place.
class TracedSink final : public ccc::sim::PacketSink {
 public:
  TracedSink(ccc::sim::PacketSink& inner, LayerStat& stat) : inner_{inner}, stat_{&stat} {}

  void deliver(const ccc::sim::Packet& pkt) override {
    Span s{stat_};
    inner_.deliver(pkt);
  }
  void deliver_batch(const ccc::sim::Packet* const* pkts, std::size_t n) override {
    Span s{stat_};
    inner_.deliver_batch(pkts, n);
  }

 private:
  ccc::sim::PacketSink& inner_;
  LayerStat* stat_;
};

/// pipeline::PullSource around a source the caller keeps alive.
class TracedPull final : public ccc::pipeline::PullSource {
 public:
  TracedPull(ccc::pipeline::PullSource& inner, LayerStat& stat) : inner_{inner}, stat_{&stat} {}

  ccc::pipeline::PullResult pull(std::vector<ccc::store::FlowView>& out,
                                 std::size_t max) override {
    Span s{stat_};
    return inner_.pull(out, max);
  }

 private:
  ccc::pipeline::PullSource& inner_;
  LayerStat* stat_;
};

}  // namespace perfbench
