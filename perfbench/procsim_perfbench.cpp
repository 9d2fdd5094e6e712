// procsim_perfbench: the measuring half of the procsim benchmark (run.py
// builds it, synthesises its inputs and checks the reference).
//
//   procsim_perfbench --workload W --seed N --seconds S --mode time|trace|check
//                     [--ref-seed N] [--swf PATH]... [--ref-swf PATH]...
//
// Every untraced replication goes through the public core::run_once path,
// seeded with des::substream_seed(seed, rep). Modes:
//   time   set up five times (parse and one warm-up replication), then
//          time untraced replications for S seconds, each a fresh seed, with
//          a calibration loop timed beside every set-up and replication;
//   trace  time untraced and traced replications alternately for S seconds.
//          The traced replication rebuilds run_once from outside with every
//          layer wrapped (layers.hpp) and a counters-only obs::Recorder, and
//          must reproduce the untraced statistics exactly;
//   check  only the reference items (--ref-seed), untimed.
// time and trace also run the reference items after the timed window. One
// JSON object goes to stdout; diagnostics go to stderr.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <queue>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_sim.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/experiment.hpp"
#include "des/rng.hpp"
#include "layers.hpp"
#include "obs/recorder.hpp"
#include "sched/registry.hpp"
#include "stats/job_metrics.hpp"
#include "workload/swf.hpp"

namespace {

using namespace procsim;
using perfbench::Clock;
using perfbench::Profiler;
using perfbench::Span;

const Clock::time_point g_process_start = Clock::now();

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// A workload is a list of cases (experiment configurations without a seed).
/// Item k runs case k mod C as replication k, so every timed replication has
/// its own seed and a run's figures average over many.
struct Workload {
  std::vector<core::ExperimentConfig> cases;
  /// Items whose statistics reference.json pins (run with the reference seed).
  std::vector<std::size_t> check_items;
  /// SWF traces the cases replay (empty for synthetic workloads).
  std::vector<std::string> swf_paths;

  [[nodiscard]] core::ExperimentConfig item(std::size_t k, std::uint64_t seed) const {
    core::ExperimentConfig cfg = cases[k % cases.size()];
    cfg.seed = des::substream_seed(seed, k);
    return cfg;
  }
};

/// fig02's 36 cells: 16x22, the synthetic Paragon stream, 600 completions
/// of a 1800-job prefix, st=3, Plen=8, think 50, {GABL, Paging(0), MBS} x
/// {FCFS, SSD} at the six turnaround loads. Cells are ordered as a Latin
/// square, so every run of six consecutive items covers each load and each
/// series once and a timed window that stops mid-cycle keeps the mix.
Workload paper_fig02() {
  const char* allocators[] = {"GABL", "Paging(0)", "MBS"};
  const sched::Policy policies[] = {sched::Policy::kFcfs, sched::Policy::kSsd};
  const double loads[] = {0.0005, 0.001, 0.002, 0.003, 0.004, 0.005};
  Workload w;
  for (std::size_t i = 0; i < 36; ++i) {
    const std::size_t load = i % 6;
    const std::size_t series = (i / 6 + i) % 6;
    core::ExperimentConfig cfg;
    cfg.sys.geom = mesh::Geometry(16, 22);
    cfg.sys.net.st = 3;
    cfg.sys.net.packet_len = 8;
    cfg.sys.think_time = 50;
    cfg.sys.target_completions = 600;
    cfg.workload.kind = core::WorkloadKind::kTrace;
    cfg.workload.replay.prefix = 1800;
    cfg.workload.load = loads[load];
    cfg.allocator = core::AllocatorSpec(allocators[series % 3]);
    cfg.scheduler = policies[series / 3];
    w.cases.push_back(cfg);
  }
  w.check_items = {0, 7, 14, 21, 28, 35};
  return w;
}

core::ExperimentConfig uniform_stochastic(mesh::Geometry geom, std::size_t jobs,
                                          double load) {
  core::ExperimentConfig cfg;
  cfg.sys.geom = geom;
  cfg.sys.target_completions = jobs;
  cfg.workload.kind = core::WorkloadKind::kStochastic;
  cfg.workload.job_count = jobs;
  cfg.workload.stochastic.side_dist = workload::SideDistribution::kUniform;
  cfg.workload.stochastic.mean_messages = 5.0;
  cfg.workload.stochastic.load = load;
  return cfg;
}

/// The paper's allocator at 128x128 churn scale with a saturated queue:
/// index writes and largest_free carving dominate. 800 jobs keep a
/// replication short enough that a run gives p90 ten samples beyond it even
/// when the machine runs at half speed.
Workload gabl_churn_128() {
  Workload w;
  core::ExperimentConfig cfg = uniform_stochastic(mesh::Geometry(128, 128), 800, 0.02);
  cfg.allocator = core::AllocatorSpec("GABL");
  cfg.scheduler = sched::Policy::kFcfs;
  w.cases.push_back(cfg);
  w.check_items = {0, 1, 2};
  return w;
}

/// Real-trace replay with a deep queue: FirstFit under shape-aware EASY
/// backfilling on 64x64, where the allocator index is read through probes.
/// One case per trace: how deep the queue gets depends on the trace, so a
/// run replays several to keep its cost from hinging on one.
Workload swf_backfill_64(const std::vector<std::string>& swf_paths, std::size_t prefix) {
  const auto spec = sched::parse_sched_spec("backfill;shape");
  if (!spec) throw std::logic_error("perfbench: backfill;shape does not parse");
  Workload w;
  for (const std::string& path : swf_paths) {
    core::ExperimentConfig cfg;
    cfg.sys.geom = mesh::Geometry(64, 64);
    cfg.sys.target_completions = 0;  // replay the whole prefix
    cfg.workload.kind = core::WorkloadKind::kTrace;
    cfg.workload.swf_path = path;
    cfg.workload.replay.prefix = prefix;
    cfg.workload.load = 0.5;
    cfg.allocator = core::AllocatorSpec("FirstFit");
    cfg.scheduler = *spec;
    w.cases.push_back(cfg);
  }
  w.check_items = {0, 1};
  w.swf_paths = swf_paths;
  return w;
}

/// The fleet: four 64x64 meshes behind the snapshot dispatcher with
/// latency-paying work stealing.
Workload fleet_steal_4x64() {
  Workload w;
  core::ExperimentConfig cfg = uniform_stochastic(mesh::Geometry(64, 64), 4000, 0.02);
  const char* spec = "4x(64x64);balance=improved;stale=10;migrate=steal;lat=100";
  std::string error;
  cfg.cluster = cluster::parse_cluster_spec(spec, &error);
  if (!cfg.cluster) throw std::logic_error("perfbench: bad cluster spec: " + error);
  cfg.sys.think_time = 50;
  cfg.sys.target_completions = 0;  // drain the stream
  cfg.allocator = core::AllocatorSpec("FirstFit");
  cfg.scheduler = sched::Policy::kFcfs;
  w.cases.push_back(cfg);
  w.check_items = {0, 1, 2};
  return w;
}

constexpr std::size_t kSwfPrefix = 1000;

Workload make_workload(const std::string& name, const std::vector<std::string>& swf_paths) {
  if (name == "paper_fig02") return paper_fig02();
  if (name == "gabl_churn_128") return gabl_churn_128();
  if (name == "swf_backfill_64") {
    if (swf_paths.size() < 2)
      throw std::invalid_argument("swf_backfill_64 needs at least two --swf traces");
    return swf_backfill_64(swf_paths, kSwfPrefix);
  }
  if (name == "fleet_steal_4x64") return fleet_steal_4x64();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// What set-up does before the first replication: parse the SWF traces (the
/// shared parses every replication's source then reuses).
void load_inputs(const Workload& w) {
  for (const std::string& path : w.swf_paths)
    (void)workload::load_swf_file_shared(path, w.cases.front().sys.geom.nodes());
}

// ---------------------------------------------------------------------------
// Simulated statistics: what a replication must reproduce
// ---------------------------------------------------------------------------

struct Stats {
  std::vector<std::pair<std::string, double>> fields;

  static Stats of(const core::RunMetrics& m) {
    Stats s;
    s.fields = {
        {"completed", static_cast<double>(m.completed)},
        {"makespan", m.makespan},
        {"turnaround", m.turnaround.mean()},
        {"service", m.service.mean()},
        {"packet_latency", m.packet_latency.mean()},
        {"packet_blocking", m.packet_blocking.mean()},
        {"packet_hops", m.packet_hops.mean()},
        {"utilization", m.utilization},
        {"mean_queue_length", m.mean_queue_length},
        {"packets", static_cast<double>(m.packets)},
        {"migrations", static_cast<double>(m.cluster.migrations)},
        {"stale_errors", static_cast<double>(m.cluster.stale_errors)},
        {"util_spread", m.cluster.spread()},
        // Compared within a process only; the reference ignores it.
        {"events", static_cast<double>(m.events)},
    };
    return s;
  }

  friend bool operator==(const Stats& a, const Stats& b) {
    if (a.fields.size() != b.fields.size()) return false;
    for (std::size_t i = 0; i < a.fields.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(a.fields[i].second) !=
          std::bit_cast<std::uint64_t>(b.fields[i].second))
        return false;
    }
    return true;
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (std::size_t i = 0; i < fields.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", fields[i].second);
      out += (i ? ", \"" : "\"") + fields[i].first + "\": " + buf;
    }
    return out + "}";
  }
};

/// Bookkeeping of every replication a process runs: throws and mismatches
/// count as failures.
struct Ledger {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<std::string> errors;
  std::map<std::size_t, Stats> first_seen;  ///< item -> first run's statistics

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }

  /// Records a replication of `item` that ran; a failure when it disagrees
  /// with the item's first run.
  void record(std::size_t item, const Stats& s) {
    ++attempted;
    const auto [it, fresh] = first_seen.emplace(item, s);
    if (!fresh && !(it->second == s))
      fail("item " + std::to_string(item) + " changed between runs: " + it->second.json() +
           " vs " + s.json());
  }
};

// ---------------------------------------------------------------------------
// The traced replication: run_once rebuilt from outside with layers wrapped
// ---------------------------------------------------------------------------

/// The deterministic counts a traced replication reports, from the recorder,
/// the strategy's index and the decorators.
enum Count : std::size_t {
  kEvents,
  kRebuckets,
  kCompleted,
  kPackets,
  kRunsBatched,
  kChannelBlocks,
  kTruncations,
  kAllocateCalls,
  kAllocAttempts,
  kAllocSuccesses,
  kFallbacks,
  kProbeCalls,
  kRecorderProbes,
  kFrontierPasses,
  kDescentQueries,
  kFirstFitQueries,
  kBestFitQueries,
  kSelectCalls,
  kPasses,
  kNominations,
  kMigrations,
  kStaleErrors,
  kCountKinds,
};
using Counts = std::array<std::uint64_t, kCountKinds>;

core::RunMetrics traced(const core::ExperimentConfig& cfg, Profiler& prof, Counts& counts) {
  counts = {};
  obs::Recorder recorder;  // counters only: no trace buffer, no telemetry
  stats::JobMetrics job_metrics;
  perfbench::TimedSink sink(job_metrics, prof);
  const std::uint64_t alloc0 = prof.calls(Span::kAllocate);
  const std::uint64_t probe0 = prof.calls(Span::kProbe);
  const std::uint64_t select0 = prof.calls(Span::kSelect);

  core::RunMetrics m;
  if (cfg.cluster) {
    // The fleet builds its meshes' allocators and schedulers inside
    // ClusterSim, out of reach of a decorator: their time stays in the
    // residual, and only the recorder's counts describe them.
    const cluster::ClusterSpec& spec = *cfg.cluster;
    const mesh::Geometry shape_geom = spec.meshes.front().geom;
    core::WorkloadSpec scaled = cfg.workload;
    scaled.load *= static_cast<double>(spec.total_nodes()) /
                   static_cast<double>(shape_geom.nodes());
    std::unique_ptr<workload::Source> source;
    {
      Profiler::Scope s(prof, Span::kReset);
      source = core::make_workload_source(scaled, shape_geom, cfg.sys.net.packet_len);
    }
    perfbench::TimedSource timed_source(*source, prof);
    timed_source.reset(cfg.seed);
    cluster::ClusterSimConfig ccfg;
    ccfg.spec = spec;
    ccfg.net = cfg.sys.net;
    ccfg.think_time = cfg.sys.think_time;
    ccfg.target_completions = cfg.sys.target_completions;
    ccfg.warmup_completions = cfg.sys.warmup_completions;
    ccfg.seed = cfg.seed;
    ccfg.max_events = cfg.sys.max_events;
    ccfg.event_engine = cfg.sys.event_engine;
    ccfg.recorder = &recorder;
    ccfg.default_alloc = cfg.allocator.label();
    ccfg.scheduler = cfg.scheduler;
    cluster::ClusterSim csim(std::move(ccfg));
    csim.set_metrics_sink(&sink);
    prof.begin(Span::kBeginRun);
    m = csim.run(timed_source);
    prof.end_begin_run();
  } else {
    auto inner = core::make_allocator(cfg.allocator, cfg.sys.geom, cfg.seed);
    inner->set_recorder(&recorder);  // SystemSim only reaches the decorator
    perfbench::TimedAllocator allocator(std::move(inner), prof);
    perfbench::TimedScheduler scheduler(core::make_scheduler(cfg.scheduler), prof);
    std::unique_ptr<workload::Source> source;
    {
      Profiler::Scope s(prof, Span::kReset);
      source = core::make_workload_source(cfg.workload, cfg.sys.geom, cfg.sys.net.packet_len);
    }
    perfbench::TimedSource timed_source(*source, prof);
    timed_source.reset(cfg.seed);
    core::SystemConfig sys = cfg.sys;
    sys.seed = cfg.seed ^ 0x5EEDF00DULL;
    sys.recorder = &recorder;
    core::SystemSim sim(sys, allocator, scheduler);
    sim.set_metrics_sink(&sink);
    prof.begin(Span::kBeginRun);
    m = sim.run(timed_source);
    prof.end_begin_run();
    // The decorator's mirror index answers no queries; the strategy's does.
    const mesh::OccupancyIndex::QueryStats& q = allocator.inner().index().query_stats();
    counts[kFrontierPasses] = q.frontier_passes;
    counts[kDescentQueries] = q.descent_queries;
    counts[kFirstFitQueries] = q.first_fit_queries;
    counts[kBestFitQueries] = q.best_fit_queries;
  }
  if (!prof.idle()) throw std::logic_error("perfbench: unbalanced spans");
  m.jobs.wait = job_metrics.wait();
  m.jobs.turnaround = job_metrics.turnaround();
  m.jobs.slowdown = job_metrics.bounded_slowdown();
  m.jobs.starved = static_cast<double>(job_metrics.starvation().count());

  // On the fleet the recorder's tallies stand in for the decorators' calls.
  const obs::Counters& c = recorder.counters();
  const bool wrapped = !cfg.cluster;
  counts[kEvents] = c.sim_events;
  counts[kRebuckets] = c.calendar_rebuckets;
  counts[kCompleted] = c.jobs_completed;
  counts[kPackets] = c.packets_injected;
  counts[kRunsBatched] = c.net_runs_batched;
  counts[kChannelBlocks] = c.channel_blocks;
  counts[kTruncations] = c.net_truncations;
  counts[kAllocateCalls] = wrapped ? prof.calls(Span::kAllocate) - alloc0 : c.alloc_attempts;
  counts[kAllocAttempts] = c.alloc_attempts;
  counts[kAllocSuccesses] = c.alloc_successes;
  counts[kFallbacks] = c.alloc_fallbacks;
  counts[kProbeCalls] = wrapped ? prof.calls(Span::kProbe) - probe0 : c.probe_calls;
  counts[kRecorderProbes] = c.probe_calls;
  counts[kFrontierPasses] += c.index_frontier_passes;
  counts[kDescentQueries] += c.index_descent_queries;
  counts[kFirstFitQueries] += c.index_first_fit_queries;
  counts[kBestFitQueries] += c.index_best_fit_queries;
  counts[kSelectCalls] = prof.calls(Span::kSelect) - select0;
  counts[kPasses] = c.schedule_passes;
  counts[kNominations] = c.nominations;
  counts[kMigrations] = m.cluster.migrations;
  counts[kStaleErrors] = m.cluster.stale_errors;
  return m;
}

// ---------------------------------------------------------------------------
// Output helpers
// ---------------------------------------------------------------------------

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9g", v[i]);
    out += (i ? ", " : "") + std::string(buf);
  }
  return out + "]";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Runs `fn`, booking a throw as a failed replication.
void guarded(Ledger& ledger, const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    ++ledger.attempted;
    ledger.fail(e.what());
  }
}

/// The reference items at `seed`, as JSON for run.py to compare.
std::string run_checks(const Workload& w, std::uint64_t seed, Ledger& ledger) {
  std::string out = "[";
  for (std::size_t i = 0; i < w.check_items.size(); ++i) {
    const std::size_t item = w.check_items[i];
    std::string stats = "null";
    guarded(ledger, [&] {
      stats = Stats::of(core::run_once(w.item(item, seed))).json();
      ++ledger.attempted;
    });
    out += (i ? ", " : "") + std::string("{\"item\": ") + std::to_string(item) +
           ", \"stats\": " + stats + "}";
  }
  return out + "]";
}

struct Options {
  std::string workload;
  std::uint64_t seed{1};
  std::uint64_t ref_seed{1};
  double seconds{10};
  std::string mode{"time"};
  std::vector<std::string> swf;
  std::vector<std::string> ref_swf;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--ref-seed") {
      o.ref_seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--mode") {
      o.mode = value;
    } else if (flag == "--swf") {
      o.swf.push_back(value);
    } else if (flag == "--ref-swf") {
      o.ref_swf.push_back(value);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.mode != "time" && o.mode != "trace" && o.mode != "check")
    throw std::invalid_argument("--mode must be time, trace or check");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

constexpr int kSetups = 5;

/// A fixed amount of simulator-shaped host work that no procsim code runs: a
/// binary-heap event queue of {time, seq, std::function} events whose
/// callbacks capture five words, 4096 pending. Machines shared with other
/// tenants drift in speed by tens of percent for seconds at a time; timed
/// next to every replication, this loop measures the speed at that moment so
/// run.py can scale replication times to a nominal speed. Of the loops tried
/// (pure ALU, pointer chases over 256 KB and 16 MB, a malloc-free event
/// queue), this one tracked the simulator's drift most closely.
volatile std::uint64_t g_calibration_sink = 0;

double calibration_ms() {
  struct Event {
    double time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };
  const Clock::time_point t0 = Clock::now();
  std::priority_queue<Event, std::vector<Event>, Later> queue;
  std::uint64_t seq = 0;
  std::uint64_t acc = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 4096; ++i) queue.push({static_cast<double>(i), seq++, [] {}});
  for (int k = 0; k < 20000; ++k) {
    Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint64_t a = x;
    const std::uint64_t b = acc;
    const std::uint64_t c = seq;
    queue.push({e.time + static_cast<double>(x % 4099), seq++,
                [a, b, c, k, &acc] { acc += a ^ b ^ c ^ static_cast<std::uint64_t>(k); }});
    e.fn();
  }
  g_calibration_sink = acc;
  return 1e3 * seconds_since(t0);
}

std::string time_mode(const Options& o, const Workload& w, Ledger& ledger) {
  // Set-up: input parse plus one warm-up replication. The first set-up is
  // measured from process start; the others re-parse from a cold cache.
  // Each is followed by a calibration, and each timed replication preceded
  // by one (the last also followed), so that run.py can scale every time to
  // the machine speed around it.
  std::vector<double> setup_s;
  std::vector<double> setup_cal_ms;
  for (int k = 0; k < kSetups; ++k) {
    Clock::time_point t0 = g_process_start;
    if (k > 0) {
      workload::clear_swf_cache();
      t0 = Clock::now();
    }
    load_inputs(w);
    guarded(ledger, [&] { ledger.record(0, Stats::of(core::run_once(w.item(0, o.seed)))); });
    setup_s.push_back(seconds_since(t0));
    setup_cal_ms.push_back(calibration_ms());
  }

  std::vector<double> rep_ms;
  std::vector<double> cal_ms;
  std::uint64_t completed = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 1; seconds_since(start) < o.seconds; ++k) {
    const core::ExperimentConfig cfg = w.item(k, o.seed);
    const double cal = calibration_ms();
    guarded(ledger, [&] {
      const Clock::time_point t0 = Clock::now();
      const core::RunMetrics m = core::run_once(cfg);
      rep_ms.push_back(1e3 * seconds_since(t0));
      cal_ms.push_back(cal);
      completed += m.completed;
      ledger.record(k, Stats::of(m));
    });
  }

  std::ostringstream out;
  cal_ms.push_back(calibration_ms());
  out << "\"setup_s\": " << json_list(setup_s)
      << ", \"setup_cal_ms\": " << json_list(setup_cal_ms) << ", \"rep_ms\": " << json_list(rep_ms)
      << ", \"cal_ms\": " << json_list(cal_ms) << ", \"completed\": " << completed;
  return out.str();
}

/// Per-replication means of the traced run's layer split and counts.
std::string layer_report(const Profiler& prof, const Counts& total, double n,
                         double traced_wall_s, double load_s, double overhead) {
  const auto per = [n](double v) { return v / n; };
  const auto count = [&](Count k) { return per(static_cast<double>(total[k])); };
  const auto ratio = [&](Count a, Count b) {
    return total[b] > 0 ? static_cast<double>(total[a]) / static_cast<double>(total[b]) : 0.0;
  };
  const auto ns_per = [&](Span s, Count k) {
    return total[k] > 0 ? 1e9 * prof.self_s(s) / static_cast<double>(total[k]) : 0.0;
  };
  const double residual_s = traced_wall_s - prof.total_self_s();
  const double events = static_cast<double>(total[kEvents]);
  const std::vector<std::pair<std::string, double>> layers = {
      {"des.events", count(kEvents)},
      {"des.events_per_job", ratio(kEvents, kCompleted)},
      {"des.calendar_rebuckets", count(kRebuckets)},
      {"core.residual_s", per(residual_s)},
      {"core.residual_ns_per_event", events > 0 ? 1e9 * residual_s / events : 0.0},
      {"core.begin_run_s", per(prof.self_s(Span::kBeginRun))},
      {"network.packets", count(kPackets)},
      {"network.runs_batched", count(kRunsBatched)},
      {"network.runs_per_packet", ratio(kRunsBatched, kPackets)},
      {"network.channel_blocks", count(kChannelBlocks)},
      {"network.truncations", count(kTruncations)},
      {"alloc.allocate_s", per(prof.self_s(Span::kAllocate))},
      {"alloc.allocate_ns", ns_per(Span::kAllocate, kAllocateCalls)},
      {"alloc.allocate_calls", count(kAllocateCalls)},
      {"alloc.success_ratio", ratio(kAllocSuccesses, kAllocAttempts)},
      {"alloc.fallbacks", count(kFallbacks)},
      {"alloc.release_s", per(prof.self_s(Span::kRelease))},
      {"mesh.frontier_passes", count(kFrontierPasses)},
      {"mesh.descent_queries", count(kDescentQueries)},
      {"mesh.first_fit_queries", count(kFirstFitQueries)},
      {"alloc.probe_s", per(prof.self_s(Span::kProbe))},
      {"alloc.probe_ns", ns_per(Span::kProbe, kProbeCalls)},
      {"alloc.probe_calls", count(kProbeCalls)},
      {"mesh.best_fit_queries", count(kBestFitQueries)},
      {"sched.select_s", per(prof.self_s(Span::kSelect))},
      {"sched.select_calls", count(kSelectCalls)},
      {"sched.passes", count(kPasses)},
      {"sched.probes_per_pass", ratio(kRecorderProbes, kPasses)},
      {"sched.nominations", count(kNominations)},
      {"sched.queue_ops_s", per(prof.self_s(Span::kQueueOps))},
      {"workload.load_s", load_s},
      {"workload.reset_s", per(prof.self_s(Span::kReset))},
      {"workload.next_job_s", per(prof.self_s(Span::kNextJob))},
      {"sink.on_job_s", per(prof.self_s(Span::kSink))},
      {"cluster.migrations", count(kMigrations)},
      {"cluster.stale_errors", count(kStaleErrors)},
      {"trace.mirror_s", per(prof.self_s(Span::kMirror))},
      {"trace.overhead_frac", overhead},
      {"trace.wall_s", per(traced_wall_s)},
  };
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.9g", layers[i].second);
    out += (i ? ", \"" : "\"") + layers[i].first + "\": " + buf;
  }
  return out + "}";
}

std::string trace_mode(const Options& o, const Workload& w, Ledger& ledger) {
  // Set-up: the workload layer's one-off load (SWF parse, source
  // construction and first reset), then one untraced and one traced warm-up.
  const Clock::time_point t_load = Clock::now();
  load_inputs(w);
  {
    const core::ExperimentConfig cfg = w.item(0, o.seed);
    const mesh::Geometry geom =
        cfg.cluster ? cfg.cluster->meshes.front().geom : cfg.sys.geom;
    core::make_workload_source(cfg.workload, geom, cfg.sys.net.packet_len)->reset(cfg.seed);
  }
  const double load_s = seconds_since(t_load);

  // Warm-up, which also checks that two traced runs of one replication give
  // identical counters.
  guarded(ledger, [&] {
    Profiler warm;
    Counts first;
    Counts second;
    ledger.record(0, Stats::of(core::run_once(w.item(0, o.seed))));
    ledger.record(0, Stats::of(traced(w.item(0, o.seed), warm, first)));
    ledger.record(0, Stats::of(traced(w.item(0, o.seed), warm, second)));
    if (first != second) ledger.fail("traced counters changed between runs");
  });

  Profiler prof;
  Counts total{};
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  double traced_wall_s = 0;
  double reps = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t k = 0; seconds_since(start) < o.seconds; ++k) {
    const std::size_t item = k + 1;
    const core::ExperimentConfig cfg = w.item(item, o.seed);
    guarded(ledger, [&] {
      // Alternate which runs first so drift in machine speed hits both.
      for (int leg = 0; leg < 2; ++leg) {
        if ((leg == 0) == (k % 2 == 0)) {
          const Clock::time_point t0 = Clock::now();
          const core::RunMetrics m = core::run_once(cfg);
          untraced_ms.push_back(1e3 * seconds_since(t0));
          ledger.record(item, Stats::of(m));
        } else {
          Counts counts;
          const Clock::time_point t0 = Clock::now();
          const core::RunMetrics m = traced(cfg, prof, counts);
          const double wall = seconds_since(t0);
          traced_ms.push_back(1e3 * wall);
          traced_wall_s += wall;
          reps += 1;
          ledger.record(item, Stats::of(m));
          for (std::size_t i = 0; i < kCountKinds; ++i) total[i] += counts[i];
        }
      }
    });
  }
  if (reps == 0) throw std::runtime_error("no traced replication completed");
  const double overhead = median(traced_ms) / median(untraced_ms) - 1.0;
  std::ostringstream out;
  out << "\"layers\": " << layer_report(prof, total, reps, traced_wall_s, load_s, overhead)
      << ", \"traced_ms\": " << json_list(traced_ms)
      << ", \"untraced_ms\": " << json_list(untraced_ms);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse(argc, argv);
    const Workload w = make_workload(o.workload, o.swf);
    Ledger ledger;
    std::string body;
    if (o.mode == "time") body = time_mode(o, w, ledger) + ", ";
    if (o.mode == "trace") body = trace_mode(o, w, ledger) + ", ";
    // The reference items replay their own trace when the workload has one.
    const Workload ref = w.swf_paths.empty() ? w : make_workload(o.workload, o.ref_swf);
    const std::string checks = run_checks(ref, o.ref_seed, ledger);
    std::string errors = "[";
    for (std::size_t i = 0; i < ledger.errors.size(); ++i)
      errors += (i ? ", " : "") + json_string(ledger.errors[i]);
    errors += "]";
    std::cout << "{" << body << "\"checks\": " << checks
              << ", \"attempted\": " << ledger.attempted << ", \"failed\": " << ledger.failed
              << ", \"errors\": " << errors << ", \"peak_rss_mb\": " << peak_rss_mb()
              << "}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "procsim_perfbench: " << e.what() << "\n";
    return 2;
  }
}
