// bench_swf_replay: multi-million-job SWF replay on a large mesh — the
// nightly soak of the event kernel and the arena job storage.
//
// Each replication streams the whole trace through its own FirstFit/FCFS
// SystemSim (one scheduling pass per arrival and per completion, as in every
// figure), seeded with des::substream_seed(base, rep) — the derivation
// run_replicated uses — so the per-rep metric rows, and the per-job record
// CSV of replication 0, are byte-identical no matter how many worker threads
// drain the replications.
// The nightly workflow runs this twice (--threads=1, --threads=2) and `cmp`s
// the CSVs.
//
//   bench_swf_replay --swf=trace.swf [--mesh=256] [--reps=2] [--threads=1]
//                    [--load=0.02] [--prefix=N] [--seed=S]
//                    [--out=REPLAY_metrics.csv] [--records=REPLAY_jobs.csv]
//
// A malformed, signed, trailing or out-of-range flag value exits 2 with one
// stderr line. Wall-clock and events/s go to stdout only — they must never
// enter the CSVs the determinism check compares.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc/registry.hpp"
#include "core/figure_runner.hpp"
#include "core/job_record_store.hpp"
#include "core/system_sim.hpp"
#include "des/rng.hpp"
#include "sched/ordered_scheduler.hpp"
#include "util/thread_pool.hpp"
#include "workload/source.hpp"
#include "workload/swf.hpp"

namespace {

using namespace procsim;
using Clock = std::chrono::steady_clock;

struct Options {
  std::string swf;
  std::int32_t mesh{256};
  std::size_t reps{2};
  std::size_t threads{1};
  double load{0.02};
  std::size_t prefix{0};
  std::uint64_t seed{0x5EEDULL};
  std::string out{"REPLAY_metrics.csv"};
  std::string records;
};

struct RepResult {
  core::RunMetrics metrics;
  double wall_secs{0};
};

constexpr const char* kProg = "bench_swf_replay";
constexpr std::uint64_t kMaxMesh = 4096;  // the largest side a mesh spec accepts

[[noreturn]] void usage_error(const std::string& msg) { core::usage_error(kProg, msg); }

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&arg] { return std::string(arg.substr(arg.find('=') + 1)); };
    const auto count = [&arg] { return core::parse_count_flag(kProg, arg); };
    if (arg.starts_with("--swf=")) {
      opt.swf = value();
    } else if (arg.starts_with("--mesh=")) {
      const std::uint64_t mesh = count();
      if (mesh == 0 || mesh > kMaxMesh)
        usage_error("--mesh=" + value() + " out of range (1.." + std::to_string(kMaxMesh) + ")");
      opt.mesh = static_cast<std::int32_t>(mesh);
    } else if (arg.starts_with("--reps=")) {
      opt.reps = count();
      if (opt.reps == 0) usage_error("--reps must be positive");
    } else if (arg.starts_with("--threads=")) {
      opt.threads = count();
    } else if (arg.starts_with("--load=")) {
      opt.load = core::parse_positive_flag(kProg, arg);
    } else if (arg.starts_with("--prefix=")) {
      opt.prefix = count();
    } else if (arg.starts_with("--seed=")) {
      opt.seed = count();
    } else if (arg.starts_with("--out=")) {
      opt.out = value();
    } else if (arg.starts_with("--records=")) {
      opt.records = value();
    } else {
      usage_error("unknown option '" + std::string(arg) + "'");
    }
  }
  if (opt.swf.empty()) usage_error("--swf=PATH is required");
  return opt;
}

/// One full replication: fresh allocator/scheduler/SystemSim, the shared
/// immutable trace, the rep's derived substream seed.
RepResult run_rep(const Options& opt,
                  const std::shared_ptr<const std::vector<workload::TraceJob>>& trace,
                  std::size_t rep, core::JobRecordStore* store) {
  const mesh::Geometry geom(opt.mesh, opt.mesh);
  core::SystemConfig cfg;
  cfg.geom = geom;
  cfg.target_completions = 0;  // the whole trace
  cfg.seed = des::substream_seed(opt.seed, rep);

  const auto allocator = alloc::make_allocator("FirstFit", geom, {.seed = 99});
  sched::OrderedScheduler scheduler(sched::Policy::kFcfs);
  core::SystemSim sim(cfg, *allocator, scheduler);
  sim.set_metrics_sink(store);

  workload::TraceReplayParams replay;
  replay.prefix = opt.prefix;
  workload::TraceSource source(trace, replay, opt.load, geom, "swf-replay");
  source.reset(cfg.seed);

  const auto t0 = Clock::now();
  RepResult result;
  result.metrics = sim.run(source);
  result.wall_secs = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

void write_metrics_csv(const std::string& path, const Options& opt,
                       const std::vector<RepResult>& reps) {
  std::ofstream out(path);
  if (!out) usage_error("cannot open --out file '" + path + "'");
  out << "rep,completed,events,packets,makespan,utilization,mean_queue_length,"
         "turnaround_mean,service_mean,packet_latency_mean,"
         "packet_blocking_mean\n";
  char line[512];
  for (std::size_t r = 0; r < reps.size(); ++r) {
    const core::RunMetrics& m = reps[r].metrics;
    std::snprintf(line, sizeof(line),
                  "%zu,%" PRIu64 ",%" PRIu64 ",%" PRIu64
                  ",%.10g,%.10g,%.10g,%.10g,%.10g,%.10g,%.10g\n",
                  r, m.completed, m.events, m.packets, m.makespan,
                  m.utilization, m.mean_queue_length, m.turnaround.mean(),
                  m.service.mean(), m.packet_latency.mean(),
                  m.packet_blocking.mean());
    out << line;
  }
  std::cout << "wrote " << path << " (" << reps.size() << " reps, load "
            << opt.load << ")\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::shared_ptr<const std::vector<workload::TraceJob>> trace;
  try {
    trace = workload::load_swf_file_shared(opt.swf, opt.mesh * opt.mesh);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }
  const std::size_t njobs =
      opt.prefix != 0 && opt.prefix < trace->size() ? opt.prefix : trace->size();
  std::cout << "trace: " << trace->size() << " records, replaying " << njobs
            << " per rep x " << opt.reps << " reps on " << opt.mesh << "x"
            << opt.mesh << "\n";

  // With --records, replication 0 additionally streams its per-job records
  // into the columnar store; the sink is observation-only, so rep 0's
  // trajectory matches the other reps' seeding exactly. Without it no store
  // is attached and nothing is buffered.
  core::JobRecordStore store;
  core::JobRecordStore* const rep0_store = opt.records.empty() ? nullptr : &store;
  std::vector<RepResult> results(opt.reps);
  const auto wall0 = Clock::now();
  if (opt.threads <= 1) {
    for (std::size_t r = 0; r < opt.reps; ++r)
      results[r] = run_rep(opt, trace, r, r == 0 ? rep0_store : nullptr);
  } else {
    util::ThreadPool pool(util::resolve_threads(opt.threads));
    util::parallel_for(&pool, opt.reps, [&](std::size_t r) {
      results[r] = run_rep(opt, trace, r, r == 0 ? rep0_store : nullptr);
    });
  }
  const double wall = std::chrono::duration<double>(Clock::now() - wall0).count();

  std::uint64_t total_events = 0;
  std::uint64_t total_jobs = 0;
  for (std::size_t r = 0; r < results.size(); ++r) {
    const core::RunMetrics& m = results[r].metrics;
    total_events += m.events;
    total_jobs += m.completed;
    std::cout << "  rep " << r << ": " << m.completed << " jobs, " << m.events
              << " events, " << results[r].wall_secs << " s ("
              << static_cast<double>(m.events) / results[r].wall_secs
              << " events/s)\n";
  }
  std::cout << "total: " << total_jobs << " jobs, " << total_events
            << " events in " << wall << " s wall ("
            << static_cast<double>(total_events) / wall
            << " events/s aggregate, " << opt.threads << " threads)\n";

  write_metrics_csv(opt.out, opt, results);
  if (!opt.records.empty()) {
    std::ofstream rec(opt.records);
    if (!rec) usage_error("cannot open --records file '" + opt.records + "'");
    store.write_csv(rec);
    std::cout << "wrote " << opt.records << " (" << store.size()
              << " per-job records, rep 0)\n";
  }
  return 0;
}
