#pragma once

// Host-time attribution for the traced benchmark run. Every layer procsim
// exposes through a public virtual interface (alloc::Allocator,
// sched::Scheduler, workload::Source, core::MetricsSink) is wrapped here from
// outside by a decorator that times each call as a span. Spans nest (a
// scheduler select() calls the allocator probe), so each span keeps its self
// time: its duration minus its children's. Only per-span totals and call
// counts are kept in memory; a backfill replication makes millions of probe
// calls, so spans are never stored one by one.
//
// The event kernel, the network and the SystemSim glue have no virtual seam;
// their time is the residual: replication wall time minus every span's self
// time.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "alloc/allocator.hpp"
#include "core/metrics_sink.hpp"
#include "sched/scheduler.hpp"
#include "workload/source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

enum class Span : std::size_t {
  kAllocate,  ///< Allocator::allocate
  kRelease,   ///< Allocator::release
  kProbe,     ///< Allocator::can_allocate / can_allocate_with_free
  kSelect,    ///< Scheduler::select, probes excluded
  kQueueOps,  ///< every other Scheduler call
  kReset,     ///< Source construction and reset(seed)
  kNextJob,   ///< Source::peek_arrival / next_job
  kSink,      ///< MetricsSink::on_job
  kBeginRun,  ///< run() entry to the first Source::peek_arrival
  kMirror,    ///< the allocator decorator's own occupancy mirror
  kCount,
};

/// Per-span self time and call counts, accumulated over any number of
/// replications.
class Profiler {
 public:
  void begin(Span s) { stack_.push_back(Frame{s, Clock::now(), 0.0}); }

  void end() {
    const Clock::time_point now = Clock::now();
    const Frame f = stack_.back();
    stack_.pop_back();
    const double total = std::chrono::duration<double>(now - f.start).count();
    const auto i = static_cast<std::size_t>(f.span);
    self_s_[i] += total - f.child_s;
    ++calls_[i];
    if (!stack_.empty()) stack_.back().child_s += total;
  }

  /// Closes the begin-run span if it is the innermost open span (the first
  /// peek_arrival of a run ends it).
  void end_begin_run() {
    if (!stack_.empty() && stack_.back().span == Span::kBeginRun) end();
  }

  [[nodiscard]] bool idle() const noexcept { return stack_.empty(); }
  [[nodiscard]] double self_s(Span s) const {
    return self_s_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] std::uint64_t calls(Span s) const {
    return calls_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] double total_self_s() const {
    double sum = 0;
    for (const double v : self_s_) sum += v;
    return sum;
  }

  class Scope {
   public:
    Scope(Profiler& p, Span s) : p_(p) { p_.begin(s); }
    ~Scope() { p_.end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Profiler& p_;
  };

 private:
  struct Frame {
    Span span;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Frame> stack_;
  std::array<double, static_cast<std::size_t>(Span::kCount)> self_s_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Span::kCount)> calls_{};
};

/// Times an allocation strategy. SystemSim reads the non-virtual
/// free_processors() and index() of the allocator it holds, so this decorator
/// keeps its own base-class occupancy in lock-step with the wrapped strategy:
/// every shipped strategy occupies exactly its Placement::blocks, and the
/// mirror replays them through occupy()/vacate(). The mirror is timed as its
/// own span, outside every layer, and checked against the strategy's free
/// count after each change.
class TimedAllocator final : public procsim::alloc::Allocator {
 public:
  TimedAllocator(std::unique_ptr<procsim::alloc::Allocator> inner, Profiler& prof)
      : Allocator(inner->geometry()), inner_(std::move(inner)), prof_(prof) {}

  [[nodiscard]] std::optional<procsim::alloc::Placement> allocate(
      const procsim::alloc::Request& req) override {
    std::optional<procsim::alloc::Placement> p;
    {
      Profiler::Scope s(prof_, Span::kAllocate);
      p = inner_->allocate(req);
    }
    if (p) {
      Profiler::Scope s(prof_, Span::kMirror);
      for (const procsim::mesh::SubMesh& b : p->blocks) occupy(b);
      check_mirror();
    }
    return p;
  }

  [[nodiscard]] bool can_allocate(const procsim::alloc::Request& req) const override {
    Profiler::Scope s(prof_, Span::kProbe);
    return inner_->can_allocate(req);
  }

  [[nodiscard]] bool can_allocate_with_free(
      const procsim::alloc::Request& req,
      const std::vector<procsim::mesh::SubMesh>& released) const override {
    Profiler::Scope s(prof_, Span::kProbe);
    return inner_->can_allocate_with_free(req, released);
  }

  void release(const procsim::alloc::Placement& placement) override {
    {
      Profiler::Scope s(prof_, Span::kRelease);
      inner_->release(placement);
    }
    Profiler::Scope s(prof_, Span::kMirror);
    for (const procsim::mesh::SubMesh& b : placement.blocks) vacate(b);
    check_mirror();
  }

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] bool is_noncontiguous() const override {
    return inner_->is_noncontiguous();
  }

  void reset() override {
    inner_->reset();
    Profiler::Scope s(prof_, Span::kMirror);
    Allocator::reset();
  }

  [[nodiscard]] const procsim::alloc::Allocator& inner() const noexcept { return *inner_; }

 private:
  void check_mirror() const {
    if (free_processors() != inner_->free_processors())
      throw std::logic_error("perfbench: allocator mirror diverged from " +
                             inner_->name());
  }

  std::unique_ptr<procsim::alloc::Allocator> inner_;
  Profiler& prof_;
};

/// Times a queueing discipline: select() self time (the allocator probes it
/// calls are their own span) and every other queue operation.
class TimedScheduler final : public procsim::sched::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<procsim::sched::Scheduler> inner, Profiler& prof)
      : inner_(std::move(inner)), prof_(prof) {}

  void enqueue(const procsim::sched::QueuedJob& job) override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    inner_->enqueue(job);
  }
  [[nodiscard]] std::size_t size() const override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    return inner_->size();
  }
  [[nodiscard]] procsim::sched::QueuedJob job_at(std::size_t pos) const override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    return inner_->job_at(pos);
  }
  [[nodiscard]] std::optional<std::size_t> select(
      const procsim::sched::AllocProbe& probe,
      const procsim::sched::SchedSnapshot& snap) override {
    Profiler::Scope s(prof_, Span::kSelect);
    return inner_->select(probe, snap);
  }
  procsim::sched::QueuedJob take(std::size_t pos) override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    return inner_->take(pos);
  }
  void on_start(const procsim::sched::QueuedJob& job, double now, std::int64_t allocated,
                const std::vector<procsim::mesh::SubMesh>& blocks) override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    inner_->on_start(job, now, allocated, blocks);
  }
  void on_complete(std::uint64_t job_id, double now) override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    inner_->on_complete(job_id, now);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void export_counters(
      std::vector<std::pair<std::string, std::uint64_t>>& out) const override {
    inner_->export_counters(out);
  }
  void clear() override {
    Profiler::Scope s(prof_, Span::kQueueOps);
    inner_->clear();
  }

 private:
  std::unique_ptr<procsim::sched::Scheduler> inner_;
  Profiler& prof_;
};

/// Times a job stream's pulls; its first peek_arrival of a run also closes
/// the begin-run span.
class TimedSource final : public procsim::workload::Source {
 public:
  TimedSource(procsim::workload::Source& inner, Profiler& prof)
      : inner_(inner), prof_(prof) {}

  [[nodiscard]] const std::string& name() const noexcept override { return inner_.name(); }
  [[nodiscard]] bool bounded() const noexcept override { return inner_.bounded(); }
  void reset(std::uint64_t seed) override {
    Profiler::Scope s(prof_, Span::kReset);
    inner_.reset(seed);
  }
  [[nodiscard]] std::optional<double> peek_arrival() override {
    prof_.end_begin_run();
    Profiler::Scope s(prof_, Span::kNextJob);
    return inner_.peek_arrival();
  }
  [[nodiscard]] std::optional<procsim::workload::Job> next_job() override {
    Profiler::Scope s(prof_, Span::kNextJob);
    return inner_.next_job();
  }

 private:
  procsim::workload::Source& inner_;
  Profiler& prof_;
};

/// Times the per-job record sink.
class TimedSink final : public procsim::core::MetricsSink {
 public:
  TimedSink(procsim::core::MetricsSink& inner, Profiler& prof)
      : inner_(inner), prof_(prof) {}
  void on_job(const procsim::core::JobRecord& record) override {
    Profiler::Scope s(prof_, Span::kSink);
    inner_.on_job(record);
  }

 private:
  procsim::core::MetricsSink& inner_;
  Profiler& prof_;
};

}  // namespace perfbench
