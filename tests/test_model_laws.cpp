// Model laws over the registry cross-product: every allocator, every
// scheduler spec and every workload source, on a mesh and on two stealing
// fleets, must conserve jobs and packets and satisfy Little's law for the
// queue and the utilization law. Each case is a drained run (no target, no
// warmup), so every arrival is counted by the run's statistics. A second
// suite holds every delivered packet of a contended mesh and fleet to the
// wormhole latency law: latency minus blocked time is the contention-free
// latency of its hop count.
//
// The network engine is the process default: run the binary under
// PROCSIM_NET_ENGINE=stepped or =verify to hold every engine to the laws.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "alloc/registry.hpp"
#include "core/experiment.hpp"
#include "core/experiment_spec.hpp"
#include "core/job_record_store.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"
#include "workload/source_registry.hpp"

namespace {

using namespace procsim;

constexpr std::size_t kJobs = 60;
constexpr double kLoad = 0.03;
constexpr double kRelTol = 1e-9;

/// Every scheduler spec: the registry's listing with `lookahead:<k>` at its
/// default window and the backfill grammar spelled out.
std::vector<std::string> sched_specs() {
  std::vector<std::string> out;
  for (const std::string& s : sched::known_schedulers()) {
    if (s == "lookahead:<k>") {
      out.push_back("lookahead:4");
    } else if (s == "backfill[:conservative][;shape]") {
      for (const char* v : {"backfill", "backfill:conservative", "backfill;shape",
                            "backfill:conservative;shape"})
        out.push_back(v);
    } else {
      out.push_back(s);
    }
  }
  return out;
}

/// Every workload kind, `swf:` replaying the bundled fixture.
std::vector<std::string> workload_specs() {
  std::vector<std::string> out = workload::known_sources();
  for (std::string& s : out)
    if (s == "swf:<path>") s = std::string("swf:") + PROCSIM_TEST_DATA_DIR + "/mini.swf";
  return out;
}

struct Machine {
  const char* label;
  const char* mesh;     // single-mesh axis, or
  const char* cluster;  // the fleet axis
  friend void PrintTo(const Machine& m, std::ostream* os) { *os << m.label; }
};

const Machine kMachines[] = {
    {"mesh", "16x16", ""},
    {"fleet", "", "4x(8x8);migrate=steal;lat=20"},
    {"hetero", "", "2x(8x8)+1x(12x10:MBS);balance=round_robin;migrate=steal;lat=50"},
};

using Case = std::tuple<std::string, std::string, std::string, Machine>;

/// A gtest-legal case name: every character but letters and digits becomes '_'.
std::string legal_name(std::string name) {
  for (char& c : name)
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) c = '_';
  return name;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  const auto& [alloc, sched, work, machine] = info.param;
  return legal_name(alloc + "_" + sched + "_" + work.substr(0, work.find(':')) + "_" +
                    machine.label);
}

void expect_close(double a, double b, const char* law) {
  EXPECT_LE(std::abs(a - b), kRelTol * std::max(std::abs(a), std::abs(b)))
      << law << ": " << a << " vs " << b;
}

class ModelLaws : public ::testing::TestWithParam<Case> {};

TEST_P(ModelLaws, HoldOnADrainedRun) {
  const auto& [alloc, sched, work, machine] = GetParam();
  core::ExperimentSpecStrings axes;
  axes.mesh = machine.mesh;
  axes.cluster = machine.cluster;
  axes.alloc = alloc;
  axes.sched = sched;
  axes.workload = work;
  core::ExperimentConfig cfg = core::parse_experiment_spec(axes);
  cfg.workload.load = kLoad;
  cfg.workload.job_count = kJobs;
  cfg.sys.target_completions = 0;      // drain
  cfg.sys.warmup_completions = 0;

  obs::Recorder rec;  // counters only
  core::JobRecordStore records;
  const core::RunMetrics m = core::run_probed(cfg, &rec, &records);
  const obs::Counters& c = rec.counters();

  ASSERT_GT(m.completed, 0u);
  // Job conservation. A steal re-queues its job on the thief, which counts
  // as an arrival of its own.
  EXPECT_EQ(c.jobs_started, m.completed);
  EXPECT_EQ(c.jobs_completed, m.completed);
  EXPECT_EQ(c.jobs_released, m.completed);
  EXPECT_EQ(records.size(), m.completed);
  EXPECT_EQ(c.jobs_arrived, m.completed + m.cluster.migrations);
  // Packet conservation.
  EXPECT_EQ(c.packets_injected, m.packets);
  EXPECT_EQ(c.packets_delivered, m.packets);
  EXPECT_EQ(m.packet_latency.count(), m.packets);

  double wait_sum = 0;
  double busy_area = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const core::JobRecord r = records.record(i);
    wait_sum += r.wait();
    busy_area += static_cast<double>(r.allocated) * r.service();
  }
  // Little's law for the queue: a stolen job is in no queue while it
  // migrates.
  expect_close(m.mean_queue_length * m.makespan, wait_sum - m.cluster.migration_latency,
               "queue length x makespan = total queued time");
  // Utilization law.
  const auto nodes = static_cast<double>(cfg.cluster ? cfg.cluster->total_nodes()
                                                     : cfg.sys.geom.nodes());
  expect_close(m.utilization * nodes * m.makespan, busy_area,
               "utilization x nodes x makespan = allocated node-time");
}

using LatencyCase = std::tuple<std::string, std::string, Machine>;

std::string latency_case_name(const ::testing::TestParamInfo<LatencyCase>& info) {
  const auto& [alloc, work, machine] = info.param;
  return legal_name(alloc + "_" + work + "_" + machine.label);
}

class PacketLatencyLaw : public ::testing::TestWithParam<LatencyCase> {};

// A header spends 1 + st cycles on each channel it acquires (injection, one
// per hop, ejection) besides the time it waits blocked, and the tail drains
// P_len cycles behind it, so for every packet latency - blocked =
// (hops + 1) * (1 + st) + P_len. Times are continuous, so both sides are
// compared to 1e-9 relative.
TEST_P(PacketLatencyLaw, HoldsForEveryDeliveredPacket) {
  const auto& [alloc, work, machine] = GetParam();
  core::ExperimentSpecStrings axes;
  axes.mesh = machine.mesh;
  axes.cluster = machine.cluster;
  axes.alloc = alloc;
  axes.sched = "FCFS";
  axes.workload = work;
  core::ExperimentConfig cfg = core::parse_experiment_spec(axes);
  cfg.workload.load = 0.01;
  cfg.workload.job_count = 150;
  cfg.sys.target_completions = 0;
  cfg.sys.warmup_completions = 0;

  obs::Recorder rec;
  rec.enable_trace();
  const core::RunMetrics m = core::run_probed(cfg, &rec, nullptr);
  const std::int64_t per_channel = 1 + cfg.sys.net.st;
  std::uint64_t delivered = 0;
  double blocked = 0;
  for (const obs::TraceRecord& r : rec.trace()->records()) {
    if (r.kind != static_cast<std::uint32_t>(obs::TraceKind::kPacketDeliver)) continue;
    ++delivered;
    blocked += r.v2;
    const auto base = static_cast<double>((static_cast<std::int64_t>(r.a) + 1) * per_channel +
                                          cfg.sys.net.packet_len);
    expect_close(r.v - r.v2, base, "latency - blocked = contention-free latency");
  }
  EXPECT_EQ(delivered, m.packets);
  EXPECT_GT(blocked, 0.0) << "the case no longer contends";
}

const Machine kContendedMachines[] = {
    {"mesh", "16x22", ""},
    {"fleet", "", "4x(16x22);migrate=steal;lat=20"},
};

INSTANTIATE_TEST_SUITE_P(
    ContendedMeshAndFleet, PacketLatencyLaw,
    ::testing::Combine(::testing::ValuesIn(alloc::known_allocators()),
                       ::testing::Values("real", "uniform"),
                       ::testing::ValuesIn(kContendedMachines)),
    latency_case_name);

INSTANTIATE_TEST_SUITE_P(
    RegistryCrossProduct, ModelLaws,
    ::testing::Combine(
        ::testing::ValuesIn(alloc::known_allocators()), ::testing::ValuesIn(sched_specs()),
        ::testing::ValuesIn(workload_specs()), ::testing::ValuesIn(kMachines)),
    case_name);

}  // namespace
