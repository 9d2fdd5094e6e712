// The observability contract, pinned:
//  * attaching an obs::Recorder never changes a simulated trajectory
//    (to_observations bit-identical attached vs detached);
//  * the trace formats round-trip losslessly (binary <-> memory, JSONL <->
//    memory, including awkward doubles);
//  * the counter registry's tallies agree with the run's own metrics.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/job_record_store.hpp"
#include "obs/counters.hpp"
#include "obs/gauge_sampler.hpp"
#include "obs/recorder.hpp"
#include "obs/trace.hpp"
#include "sched/registry.hpp"

namespace {

using procsim::core::ExperimentConfig;
using procsim::core::JobRecordStore;
using procsim::core::RunMetrics;
using procsim::core::run_once;
using procsim::core::run_probed;
using procsim::core::to_observations;
using procsim::obs::GaugeSampler;
using procsim::obs::Recorder;
using procsim::obs::TraceBuffer;
using procsim::obs::TraceKind;
using procsim::obs::TraceRecord;

ExperimentConfig small_config(std::uint64_t seed = 7) {
  ExperimentConfig cfg;
  cfg.sys.target_completions = 80;
  cfg.workload.job_count = 80;
  cfg.workload.stochastic.load = 0.02;
  cfg.seed = seed;
  return cfg;
}

std::vector<TraceRecord> awkward_records() {
  std::vector<TraceRecord> recs;
  TraceRecord a;
  a.t = 1.0 / 3.0;  // not exactly representable in any short decimal
  a.v = 1e300;
  a.v2 = -0.0;
  a.id = 0xFFFF'FFFF'FFFF'FFFFull;
  a.kind = static_cast<std::uint32_t>(TraceKind::kPacketDeliver);
  a.a = 4294967295u;
  a.f0 = -2147483647 - 1;
  a.f1 = 2147483647;
  a.f2 = -1;
  a.f3 = 0;
  recs.push_back(a);
  TraceRecord b;
  b.t = 4.9406564584124654e-324;  // smallest subnormal
  b.kind = static_cast<std::uint32_t>(TraceKind::kArrival);
  recs.push_back(b);
  TraceRecord c;  // all-default fields, smallest valid kind
  c.kind = static_cast<std::uint32_t>(TraceKind::kArrival);
  recs.push_back(c);
  return recs;
}

// ---------------------------------------------------------------- formats --

TEST(Trace, KindNamesRoundTrip) {
  for (std::uint32_t k = 1; k <= 12; ++k) {
    const auto kind = static_cast<TraceKind>(k);
    const std::string name = procsim::obs::kind_name(kind);
    EXPECT_NE(name, "unknown") << k;
    TraceKind back{};
    ASSERT_TRUE(procsim::obs::kind_from_name(name, back)) << name;
    EXPECT_EQ(back, kind);
  }
  TraceKind out{};
  EXPECT_FALSE(procsim::obs::kind_from_name("no_such_kind", out));
  EXPECT_STREQ(procsim::obs::kind_name(static_cast<TraceKind>(999)), "unknown");
}

TEST(Trace, BinaryRoundTripIsLossless) {
  TraceBuffer buf;
  for (const TraceRecord& r : awkward_records()) buf.append(r);
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  procsim::obs::write_binary(buf, io);
  std::vector<TraceRecord> back;
  std::string error;
  ASSERT_TRUE(procsim::obs::read_binary(io, back, &error)) << error;
  ASSERT_EQ(back.size(), buf.size());
  for (std::size_t i = 0; i < back.size(); ++i) EXPECT_EQ(back[i], buf.records()[i]);
  // -0.0 == 0.0 under operator==; pin the sign bit explicitly.
  EXPECT_TRUE(std::signbit(back[0].v2));
}

TEST(Trace, BinaryReaderRejectsCorruptStreams) {
  TraceBuffer buf;
  buf.append(TraceRecord{1.0, 0, 0, 1, 1, 0, 0, 0, 0, 0});
  std::stringstream io(std::ios::in | std::ios::out | std::ios::binary);
  procsim::obs::write_binary(buf, io);
  std::string bytes = io.str();

  std::vector<TraceRecord> out;
  std::string error;
  {  // truncated payload
    std::stringstream cut(bytes.substr(0, bytes.size() - 8),
                          std::ios::in | std::ios::binary);
    EXPECT_FALSE(procsim::obs::read_binary(cut, out, &error));
    EXPECT_FALSE(error.empty());
  }
  {  // bad magic
    std::string mangled = bytes;
    mangled[0] = 'X';
    std::stringstream bad(mangled, std::ios::in | std::ios::binary);
    EXPECT_FALSE(procsim::obs::read_binary(bad, out, &error));
  }
  {  // header alone, no records
    std::stringstream cut(bytes.substr(0, 10), std::ios::in | std::ios::binary);
    EXPECT_FALSE(procsim::obs::read_binary(cut, out, &error));
  }
}

TEST(Trace, JsonlRoundTripIsLossless) {
  const std::vector<TraceRecord> recs = awkward_records();
  std::stringstream io;
  procsim::obs::write_jsonl(recs, io);
  std::vector<TraceRecord> back;
  std::string error;
  ASSERT_TRUE(procsim::obs::read_jsonl(io, back, &error)) << error;
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i], recs[i]) << i;
    EXPECT_EQ(std::signbit(back[i].v2), std::signbit(recs[i].v2)) << i;
  }
}

TEST(Trace, JsonlReaderRejectsMalformedLines) {
  std::stringstream bad("{\"t\":1.0,\"kind\":\"arrival\"\n");
  std::vector<TraceRecord> out;
  std::string error;
  EXPECT_FALSE(procsim::obs::read_jsonl(bad, out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(Trace, ChromeTraceLooksLikeTraceEvents) {
  std::vector<TraceRecord> recs;
  recs.push_back({0.0, 0, 0, 0, static_cast<std::uint32_t>(TraceKind::kPassBegin),
                  1, 0, 0, 0, 0});
  recs.push_back({2.0, 0, 0, 0, static_cast<std::uint32_t>(TraceKind::kPassEnd), 3,
                  1, 1, 0, 0});
  recs.push_back({2.0, 6.0, 0, 42, static_cast<std::uint32_t>(TraceKind::kAllocSuccess),
                  1, 0, 0, 2, 3});
  recs.push_back({9.0, 7.0, 0, 42, static_cast<std::uint32_t>(TraceKind::kComplete),
                  0, 0, 0, 0, 0});
  std::stringstream out;
  procsim::obs::write_chrome_trace(recs, out);
  const std::string s = out.str();
  // Object wrapper format: {"traceEvents": [...]} (chrome://tracing loads it).
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(s.find("job 42"), std::string::npos);
  EXPECT_EQ(s.back() == '\n' ? s[s.size() - 2] : s.back(), '}');
}

// --------------------------------------------------------------- sampler ---

TEST(GaugeSamplerT, RejectsNonPositiveInterval) {
  EXPECT_THROW(GaugeSampler(0.0), std::invalid_argument);
  EXPECT_THROW(GaugeSampler(-1.0), std::invalid_argument);
}

TEST(GaugeSamplerT, StoresAndExportsSamples) {
  GaugeSampler s(10.0);
  EXPECT_DOUBLE_EQ(s.interval(), 10.0);
  GaugeSampler::Sample a;
  a.t = 10;
  a.queue_depth = 3;
  a.running_jobs = 2;
  a.busy_nodes = 64;
  a.free_nodes = 288;
  a.max_free_run = 16;
  a.largest_rect = 224;
  a.external_frag = 1.0 - 224.0 / 288.0;
  s.append(a);
  ASSERT_EQ(s.size(), 1u);
  const GaugeSampler::Sample back = s.sample(0);
  EXPECT_DOUBLE_EQ(back.t, a.t);
  EXPECT_EQ(back.queue_depth, a.queue_depth);
  EXPECT_EQ(back.largest_rect, a.largest_rect);
  EXPECT_DOUBLE_EQ(back.external_frag, a.external_frag);

  std::stringstream csv;
  s.write_csv(csv);
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_EQ(header, GaugeSampler::kCsvHeader);
  std::string row;
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_EQ(row.substr(0, 9), "10,3,2,64");

  s.clear();
  EXPECT_TRUE(s.empty());
}

// -------------------------------------------------------------- counters ---

TEST(CountersT, JsonHasFixedShapeAndExtras) {
  procsim::obs::Counters c;
  c.jobs_arrived = 5;
  c.schedule_passes = 2;
  c.index_frontier_bounds = 7;
  c.add_extra("backfill_reservations_honored", 3);
  c.add_timer("run_wall_s", 0.25);
  std::stringstream out;
  c.write_json(out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"jobs_arrived\": 5"), std::string::npos);
  EXPECT_NE(s.find("\"schedule_passes\": 2"), std::string::npos);
  EXPECT_NE(s.find("\"index_frontier_bounds\": 7"), std::string::npos);
  EXPECT_NE(s.find("backfill_reservations_honored"), std::string::npos);
  EXPECT_NE(s.find("run_wall_s"), std::string::npos);
  c.reset();
  EXPECT_EQ(c.jobs_arrived, 0u);
  EXPECT_TRUE(c.extras.empty());
  EXPECT_TRUE(c.timers.empty());
}

TEST(RecorderT, HooksTallyAndTraceIsOptIn) {
  Recorder rec;
  EXPECT_EQ(rec.trace(), nullptr);
  EXPECT_EQ(rec.sampler(), nullptr);
  rec.job_arrival(1.0, 1, 4, 4, 16);
  EXPECT_EQ(rec.counters().jobs_arrived, 1u);

  rec.enable_trace();
  ASSERT_NE(rec.trace(), nullptr);
  rec.job_arrival(2.0, 2, 4, 4, 16);
  rec.alloc_attempt(4, 4, 16);  // untimed hook stamps the last seen time
  ASSERT_EQ(rec.trace()->size(), 2u);
  EXPECT_DOUBLE_EQ(rec.trace()->records()[1].t, 2.0);

  rec.enable_telemetry(50.0);
  ASSERT_NE(rec.sampler(), nullptr);
  EXPECT_DOUBLE_EQ(rec.sampler()->interval(), 50.0);

  rec.reset_run();
  EXPECT_EQ(rec.counters().jobs_arrived, 0u);
  ASSERT_NE(rec.trace(), nullptr);  // enablement survives, data does not
  EXPECT_TRUE(rec.trace()->empty());
  EXPECT_TRUE(rec.sampler()->empty());
}

// ------------------------------------------------------------- invariance --

// A run stopped at its completion target, and one that drains its stream
// (target 0): the sampler tick queued after a drained run's last completion
// must not stretch it.
constexpr std::size_t kStopAndDrain[] = {80, 0};

TEST(Invariance, ObsProbeLeavesObservationsBitIdentical) {
  for (const std::size_t target : kStopAndDrain) {
    ExperimentConfig cfg = small_config();
    cfg.sys.target_completions = target;
    const std::map<std::string, double> detached = to_observations(run_once(cfg));
    cfg.obs_probe = true;
    const std::map<std::string, double> probed = to_observations(run_once(cfg));
    EXPECT_EQ(detached, probed) << target;  // bitwise: operator== on doubles
  }
}

TEST(Invariance, TraceOnlyRecorderLeavesEveryMetricIdentical) {
  const ExperimentConfig cfg = small_config(11);
  const RunMetrics off = run_once(cfg);

  Recorder rec;
  rec.enable_trace();
  const RunMetrics on = run_probed(cfg, &rec, nullptr);

  EXPECT_EQ(off.completed, on.completed);
  EXPECT_EQ(off.packets, on.packets);
  EXPECT_EQ(off.events, on.events);  // no sampler -> no extra events either
  EXPECT_EQ(off.turnaround.mean(), on.turnaround.mean());
  EXPECT_EQ(off.service.mean(), on.service.mean());
  EXPECT_EQ(off.packet_latency.mean(), on.packet_latency.mean());
  EXPECT_EQ(off.utilization, on.utilization);
  EXPECT_EQ(off.makespan, on.makespan);
  EXPECT_FALSE(rec.trace()->empty());
}

TEST(Invariance, TelemetryChangesOnlyTheEventCount) {
  for (const std::size_t target : kStopAndDrain) {
    ExperimentConfig cfg = small_config(13);
    cfg.sys.target_completions = target;
    const RunMetrics off = run_once(cfg);

    Recorder rec;
    rec.enable_telemetry(100.0);
    const RunMetrics on = run_probed(cfg, &rec, nullptr);

    EXPECT_EQ(off.completed, on.completed) << target;
    EXPECT_EQ(off.turnaround.mean(), on.turnaround.mean()) << target;
    EXPECT_EQ(off.utilization, on.utilization) << target;
    EXPECT_EQ(off.mean_queue_length, on.mean_queue_length) << target;
    EXPECT_EQ(off.makespan, on.makespan) << target;
    EXPECT_GE(on.events, off.events);  // sampler events ride along harmlessly

    ASSERT_NE(rec.sampler(), nullptr);
    ASSERT_FALSE(rec.sampler()->empty());
    EXPECT_EQ(rec.counters().telemetry_samples, rec.sampler()->size());
    double prev = -1;
    for (std::size_t i = 0; i < rec.sampler()->size(); ++i) {
      const GaugeSampler::Sample s = rec.sampler()->sample(i);
      EXPECT_GT(s.t, prev);
      prev = s.t;
      EXPECT_GE(s.external_frag, 0.0);
      EXPECT_LE(s.external_frag, 1.0);
      EXPECT_EQ(s.busy_nodes + s.free_nodes, 16 * 22);
    }
  }
}

// ------------------------------------------------------------- accounting --

TEST(Accounting, CountersAgreeWithRunMetrics) {
  const ExperimentConfig cfg = small_config(17);
  Recorder rec;
  rec.enable_trace();
  const RunMetrics m = run_probed(cfg, &rec, nullptr);
  const procsim::obs::Counters& c = rec.counters();

  EXPECT_EQ(c.jobs_completed, m.completed);
  EXPECT_EQ(c.jobs_released, c.jobs_completed);
  EXPECT_EQ(c.jobs_started, c.alloc_successes);
  EXPECT_GE(c.jobs_arrived, c.jobs_started);
  EXPECT_EQ(c.packets_delivered, m.packets);
  EXPECT_GE(c.packets_injected, c.packets_delivered);
  EXPECT_GT(c.schedule_passes, 0u);
  // FCFS always nominates the head and never consults the probe.
  EXPECT_EQ(c.probe_calls, 0u);
  EXPECT_EQ(c.nominations, c.alloc_attempts);  // every nominee is attempted
  EXPECT_EQ(c.alloc_attempts, c.alloc_successes + c.alloc_failures);
  EXPECT_EQ(c.sim_events, m.events);
  EXPECT_GT(c.index_first_fit_queries, 0u);  // GABL probes via the index
  // GABL carves on occupancies its previous pieces changed: the stale
  // frontier's answers reach the counters.
  EXPECT_GT(c.index_frontier_bounds, 0u);

  // Trace agrees with the registry where both saw the same stream.
  std::uint64_t completes = 0, arrivals = 0;
  for (const TraceRecord& r : rec.trace()->records()) {
    if (r.kind == static_cast<std::uint32_t>(TraceKind::kComplete)) ++completes;
    if (r.kind == static_cast<std::uint32_t>(TraceKind::kArrival)) ++arrivals;
  }
  EXPECT_EQ(completes, c.jobs_completed);
  EXPECT_EQ(arrivals, c.jobs_arrived);
}

TEST(Accounting, PhaseTimersAreOptIn) {
  const ExperimentConfig cfg = small_config(19);
  Recorder plain;
  (void)run_probed(cfg, &plain, nullptr);
  EXPECT_TRUE(plain.counters().timers.empty());

  Recorder timed;
  timed.enable_phase_timers();
  (void)run_probed(cfg, &timed, nullptr);
  ASSERT_FALSE(timed.counters().timers.empty());
  EXPECT_EQ(timed.counters().timers.front().first, "run_wall_s");
  EXPECT_GE(timed.counters().timers.front().second, 0.0);
}

TEST(Accounting, BackfillExportsReservationCounters) {
  ExperimentConfig cfg = small_config(23);
  cfg.scheduler = procsim::sched::SchedSpec(std::string("backfill"));
  cfg.workload.stochastic.load = 0.05;  // enough pressure to queue jobs
  Recorder rec;
  const RunMetrics m = run_probed(cfg, &rec, nullptr);
  EXPECT_EQ(m.completed, 80u);
  bool honored = false, broken = false;
  for (const auto& [name, value] : rec.counters().extras) {
    if (name == "backfill_reservations_honored") honored = true;
    if (name == "backfill_reservations_broken") broken = true;
    (void)value;
  }
  EXPECT_TRUE(honored);
  EXPECT_TRUE(broken);
  // Backfilling is probe-driven, unlike the ordered disciplines.
  EXPECT_GT(rec.counters().probe_calls, 0u);
}

TEST(Accounting, MbsRunBumpsFallbacksUnderPressure) {
  ExperimentConfig cfg = small_config(29);
  cfg.allocator = procsim::core::AllocatorSpec{"MBS"};
  cfg.workload.stochastic.load = 0.05;
  Recorder rec;
  (void)run_probed(cfg, &rec, nullptr);
  EXPECT_GT(rec.counters().alloc_attempts, 0u);
  // MBS on a non-power-of-two 16x22 mesh must split buddies sometimes.
  EXPECT_GT(rec.counters().alloc_fallbacks, 0u);
}

// ------------------------------------------------------------ job records --

TEST(JobRecords, JsonlMatchesCsvRowForRow) {
  const ExperimentConfig cfg = small_config(31);
  JobRecordStore store;
  Recorder rec;
  const RunMetrics m = run_probed(cfg, &rec, &store);
  ASSERT_EQ(store.size(), m.completed);

  std::stringstream csv, jsonl;
  store.write_csv(csv);
  store.write_jsonl(jsonl);

  std::string line;
  ASSERT_TRUE(std::getline(csv, line));  // header
  std::size_t csv_rows = 0;
  while (std::getline(csv, line)) ++csv_rows;
  std::size_t jsonl_rows = 0;
  while (std::getline(jsonl, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"id\":"), std::string::npos);
    EXPECT_NE(line.find("\"arrival\":"), std::string::npos);
    EXPECT_NE(line.find("\"alloc_length\":"), std::string::npos);
    ++jsonl_rows;
  }
  EXPECT_EQ(csv_rows, store.size());
  EXPECT_EQ(jsonl_rows, store.size());
}

}  // namespace
