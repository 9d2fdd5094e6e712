// procsim_sweep: generic sweep driver over the allocator/scheduler
// registries — any mesh size, any strategy pair, any workload family, any
// metric — the scenarios the hardcoded figure binaries cannot express.
//
//   procsim_sweep [--mesh=16x22[,32x32,...]] [--alloc=GABL,Paging(0),MBS]
//                 [--cluster='N"x("WxL[:ALLOC]")"[+...][;balance=P][;stale=T]
//                            [;migrate=steal][;lat=X]']
//                 [--sched=FCFS,SSD,SJF,LJF,lookahead:k,
//                         backfill[:conservative][;shape]]
//                 [--workload=uniform|exponential|real|swf:<path>|saturation|
//                            bursty[;key=value...]]
//                   (keys: load, jobs, mes, f = trace arrival factor,
//                    n/dist = saturation, b/phase = bursty)
//                 [--metric=turnaround|service|utilization|latency|blocking|
//                          hops|queue_length|wait_mean|wait_p50|wait_p95|
//                          wait_p99|wait_max|turnaround_p50|turnaround_p95|
//                          turnaround_p99|turnaround_max|slowdown_p50|
//                          slowdown_p95|slowdown_p99|slowdown_max|starved|
//                          util_spread|util_min|util_max|util_stddev|
//                          migrations|migration_latency|stale_errors]
//                 [--loads=0.005,0.01,...]
//                 [--fast] [--jobs=N] [--reps=N] [--seed=N] [--threads=N]
//                 [--telemetry=PATH[;dt=X]] [--counters[=PATH]]
//                 [--trace=PATH] [--job-records=PATH[.jsonl|.csv]]
//
// Every --flag=VALUE takes a non-empty VALUE and every comma list non-empty
// elements: `--workload=`, `--counters=`, `--loads=0.01,,0.02` or
// `--alloc=GABL,` is a usage error (one stderr line, exit 2), never the
// default or a dropped element. Bare `--counters` writes the counters JSON
// to stderr.
//
// --cluster runs every cell as a cluster::ClusterSim fleet (N meshes, one
// event clock, a pluggable dispatcher — see README "Cluster"); the cluster
// metrics (util_spread & co.) are only non-zero there. `--loads` stays the
// PER-MESH offered load. --cluster conflicts with --mesh and with the
// single-mesh observability flags; conflicts are rejected up front.
//
// The observability flags run ONE extra instrumented replication of the
// grid's first cell (same seed substream as that cell's first replication)
// after the sweep, writing its telemetry CSV / counters JSON / binary trace
// (convert with trace_convert) / per-job records. The grid CSV on stdout is
// byte-identical with or without them — the recorder contract.
//
// With one mesh the CSV has one row per load (the fig binaries' layout).
// With several meshes it has one row per mesh size at the first load — the
// large-mesh scaling scenario (16x16 ... 512x512). Output is byte-identical
// for any --threads value (see run_grid).
//
// Mesh sizes are accepted up to 4096x4096: node ids, sub-mesh areas, and
// channel counts are computed in int32 and stay in range through 4096^2
// (16,777,216 nodes; ~67M channels). 512x512 is the tested first-class scale
// — it runs in the CI index-oracle smoke (with PROCSIM_INDEX_CROSS_CHECK=1).
// Above 128x128 prefer --fast or small --jobs/--reps: event counts grow with
// the node count, and the saturation workload keeps the whole mesh busy.
//
// Allocator and scheduler names are resolved through alloc::make_allocator /
// sched::make_scheduler, and workloads beyond the three figure families
// through workload::make_source — SWF trace replay (`swf:<path>`), the
// saturation (backlogged-queue) setup behind the utilization figures, and
// the bursty MMPP stream — so every registry strategy and source is
// reachable; unknown names fail fast listing the known ones.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "cluster/cluster_spec.hpp"
#include "core/experiment_spec.hpp"
#include "core/job_record_store.hpp"
#include "des/rng.hpp"
#include "network/wormhole_network.hpp"
#include "obs/recorder.hpp"
#include "util/strings.hpp"
#include "workload/source_registry.hpp"

namespace {

using namespace procsim;

// One stderr line, exit 2: the CLI convention (core::usage_error). The
// flag grammar is the comment at the top of this file.
[[noreturn]] void usage_error(const std::string& msg) {
  core::usage_error("procsim_sweep", msg);
}

// The elements of a comma-separated list flag; an empty element
// ("0.01,,0.02", "GABL,") is a usage error, not a dropped item.
std::vector<std::string> split_csv(const std::string& s, const char* flag) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = s.find(',', start);
    out.push_back(s.substr(start, comma - start));
    if (out.back().empty())
      usage_error(std::string("empty element in ") + flag + "='" + s + "'");
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

// Matches `key` ("--mesh=") and takes the value after it. An empty value is
// a usage error: it never falls back to the flag's default.
bool take_value(const char* arg, const char* key, std::string& out) {
  const std::string_view k(key);
  if (std::string_view(arg).substr(0, k.size()) != k) return false;
  out = arg + k.size();
  if (out.empty()) usage_error("empty " + std::string(k.substr(0, k.size() - 1)));
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string mesh_arg = "16x22";
  bool mesh_given = false;
  std::string cluster_arg;
  std::string alloc_arg = "GABL,Paging(0),MBS";
  std::string sched_arg = "FCFS,SSD";
  std::string workload = "uniform";
  std::string metric = "turnaround";
  std::string loads_arg;
  std::string telemetry_path, counters_path, trace_path, job_records_path;
  bool counters_requested = false;
  double telemetry_dt = 100.0;

  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (take_value(argv[i], "--mesh=", value)) {
      mesh_arg = value;
      mesh_given = true;
    } else if (take_value(argv[i], "--cluster=", value)) {
      cluster_arg = value;
    } else if (take_value(argv[i], "--alloc=", value)) {
      alloc_arg = value;
    } else if (take_value(argv[i], "--sched=", value)) {
      sched_arg = value;
    } else if (take_value(argv[i], "--workload=", value)) {
      workload = value;
    } else if (take_value(argv[i], "--metric=", value)) {
      metric = value;
    } else if (take_value(argv[i], "--loads=", value)) {
      loads_arg = value;
    } else if (take_value(argv[i], "--telemetry=", value)) {
      // PATH[;dt=X] — the sampling interval rides in the same argument so
      // shell quoting stays one token: --telemetry='out.csv;dt=50'.
      const auto semi = value.find(';');
      telemetry_path = value.substr(0, semi);
      if (semi != std::string::npos) {
        const std::string rest = value.substr(semi + 1);
        if (rest.rfind("dt=", 0) != 0)
          usage_error("bad --telemetry option '" + rest + "' (expected dt=X)");
        const auto dt = util::parse_number<double>(std::string_view(rest).substr(3));
        if (!dt || *dt <= 0)
          usage_error("bad --telemetry dt '" + rest.substr(3) +
                      "' (expected a finite number > 0)");
        telemetry_dt = *dt;
      }
      if (telemetry_path.empty()) usage_error("empty --telemetry path");
    } else if (take_value(argv[i], "--counters=", value)) {
      counters_requested = true;
      counters_path = value;
    } else if (std::strcmp(argv[i], "--counters") == 0) {
      counters_requested = true;  // bare: JSON to stderr, stdout stays CSV
    } else if (take_value(argv[i], "--trace=", value)) {
      trace_path = value;
    } else if (take_value(argv[i], "--job-records=", value)) {
      job_records_path = value;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  const core::RunOptions opts =
      core::parse_run_options(static_cast<int>(passthrough.size()), passthrough.data());

  // --cluster conflict audit, before any parsing spends work. The
  // observability flags attach a single-mesh recorder/record-store to ONE
  // SystemSim run; a fleet has N of them, so the combination is rejected
  // rather than silently instrumenting only one member.
  const bool cluster_mode = !cluster_arg.empty();
  if (cluster_mode && mesh_given)
    usage_error("--cluster and --mesh are mutually exclusive "
                "(the cluster spec fixes every mesh geometry)");
  if (cluster_mode && (!telemetry_path.empty() || counters_requested ||
                       !trace_path.empty() || !job_records_path.empty()))
    usage_error("--telemetry/--counters/--trace/--job-records are "
                "single-mesh-only; drop them or drop --cluster");

  std::vector<mesh::Geometry> meshes;
  std::vector<std::string> mesh_labels;
  for (const std::string& ms : split_csv(mesh_arg, "--mesh")) {
    const auto geom = core::parse_mesh_geometry(ms);
    if (!geom) usage_error("bad mesh '" + ms + "' (expected WxL)");
    meshes.push_back(*geom);
    mesh_labels.push_back(std::to_string(geom->width()) + "x" +
                          std::to_string(geom->length()));
  }

  // Workload family template and its default load axis: the three figure
  // families keep their bench_common templates (and their exact CSV bytes);
  // anything else is a workload::make_source registry spec. Template choice
  // is driver policy; the axis itself is validated and applied below through
  // core::apply_experiment_spec, the shared fail-fast entry point.
  const auto wspec = workload::parse_source_spec(workload);
  core::ExperimentConfig base;
  std::vector<double> loads;
  bool saturation = false;
  const bool bare_family =
      wspec && wspec->arg.empty() && wspec->params.empty() &&
      (wspec->kind == "uniform" || wspec->kind == "exponential" ||
       wspec->kind == "real");
  if (bare_family) {
    if (wspec->kind == "uniform") {
      base = bench::stochastic_base(workload::SideDistribution::kUniform);
      loads = bench::loads_uniform();
    } else if (wspec->kind == "exponential") {
      base = bench::stochastic_base(workload::SideDistribution::kExponential);
      loads = bench::loads_exponential();
    } else {
      base = bench::trace_base();
      loads = bench::loads_real();
    }
  } else {
    base = bench::base_config();
    if (wspec && wspec->kind == "swf") {
      base.sys.target_completions = 600;  // the trace_base effort default
      loads = bench::loads_real();
    } else if (wspec && wspec->kind == "saturation") {
      saturation = true;
      loads = {1.0};
    } else {
      loads = bench::loads_uniform();
    }
  }

  // The grid-wide axes — workload, cluster — through the single
  // fail-fast entry point (unknown names exit listing the known kinds).
  {
    core::ExperimentSpecStrings axes;
    axes.workload = workload;
    axes.cluster = cluster_arg;
    try {
      core::apply_experiment_spec(axes, base);
    } catch (const std::exception& e) {
      usage_error(e.what());
    }
  }
  // The utilization-figure setup, in one row: there is no load axis when
  // every job is already waiting at t = 0.
  if (saturation) base = bench::saturated(base);
  if (!loads_arg.empty()) {
    // Saturation has no load axis: every job is already waiting at t = 0, so
    // sweeping loads would just recompute the identical row.
    if (saturation) usage_error("--loads does not apply to --workload=saturation");
    loads.clear();
    for (const std::string& s : split_csv(loads_arg, "--loads")) {
      const auto v = util::parse_number<double>(s);
      if (!v || *v <= 0)
        usage_error("bad load '" + s + "' (expected a finite number > 0)");
      loads.push_back(*v);
    }
  }

  // A metric typo is a usage error (exit 2), caught before the CSV header.
  try {
    core::check_metric(metric);
  } catch (const std::exception& e) {
    usage_error(e.what());
  }

  // Strategy pairs, through the same fail-fast entry point (misspellings
  // exit with the registry's known-name list). In cluster mode the --alloc
  // axis is the fleet's DEFAULT allocator — meshes whose spec group names
  // its own (e.g. "2x(16x16:MBS)") keep that one.
  struct SweepSeries {
    core::AllocatorSpec alloc;
    sched::SchedSpec sched;
    std::string label;
  };
  std::vector<SweepSeries> series;
  const std::vector<std::string> alloc_names = split_csv(alloc_arg, "--alloc");
  const std::vector<std::string> sched_names = split_csv(sched_arg, "--sched");
  for (const std::string& sn : sched_names) {
    for (const std::string& an : alloc_names) {
      core::ExperimentConfig labelled = base;
      core::ExperimentSpecStrings axes;
      axes.alloc = an;
      axes.sched = sn;
      try {
        core::apply_experiment_spec(axes, labelled);
      } catch (const std::exception& e) {
        usage_error(e.what());
      }
      series.push_back(
          SweepSeries{labelled.allocator, labelled.scheduler, labelled.series_label()});
    }
  }

  core::GridSpec grid;
  grid.cols.reserve(series.size());
  for (const SweepSeries& s : series) grid.cols.push_back(s.label);

  // Both layouts share one cell builder; only what the row axis selects —
  // the load or the mesh — differs. In cluster mode the spec fixes every
  // geometry, so the cell keeps base's (the fleet's first mesh).
  const bool scaling = !cluster_mode && meshes.size() > 1;
  const auto make_cell = [&](const mesh::Geometry& geom, double load,
                             const SweepSeries& s) {
    core::ExperimentConfig cfg = base;
    if (!cluster_mode) cfg.sys.geom = geom;
    cfg.allocator = s.alloc;
    cfg.scheduler = s.sched;
    core::set_offered_load(cfg, load);
    core::apply_effort(cfg, opts);
    return cfg;
  };

  std::cout << "# procsim_sweep: workload=" << workload << " metric=" << metric
            << " st=" << base.sys.net.st << " Plen=" << base.sys.net.packet_len
            << " net=" << network::net_engine_name(base.sys.net.engine) << "\n";
  if (!scaling) {
    // Fig-style layout: rows = loads on the one mesh (or the one fleet;
    // loads stay per-mesh offered load there).
    if (cluster_mode)
      std::cout << "# cluster=" << base.cluster->canonical << "\n";
    else
      std::cout << "# mesh=" << mesh_labels[0] << "\n";
    grid.corner = "load";
    for (const double load : loads) {
      std::ostringstream label;
      label << load;
      grid.rows.push_back(saturation ? "saturated" : label.str());
    }
    grid.cell = [&](std::size_t row, std::size_t col) {
      return make_cell(meshes[0], loads[row], series[col]);
    };
  } else {
    // Scaling scenario: rows = mesh sizes at the first load.
    std::cout << "# load=" << loads[0] << " (mesh scaling)\n";
    grid.corner = "mesh";
    grid.rows = mesh_labels;
    grid.cell = [&](std::size_t row, std::size_t col) {
      return make_cell(meshes[row], loads[0], series[col]);
    };
  }

  core::run_grid(grid, {{metric, &std::cout}}, opts, /*with_ci=*/true);

  // One instrumented replication of the first cell: same configuration and
  // seed substream as that cell's first replication, so the artifacts
  // describe a run the grid actually aggregated. The recorder attaches only
  // here — the grid CSV above is produced detached and must not change by a
  // byte whether or not any of these flags were given.
  const bool obs_requested = !telemetry_path.empty() || counters_requested ||
                             !trace_path.empty() || !job_records_path.empty();
  if (obs_requested) {
    obs::Recorder rec;
    if (!trace_path.empty()) rec.enable_trace();
    if (!telemetry_path.empty()) rec.enable_telemetry(telemetry_dt);
    rec.enable_phase_timers();
    core::JobRecordStore job_records;
    core::ExperimentConfig cfg = grid.cell(0, 0);
    cfg.seed = des::substream_seed(opts.seed, 0);
    (void)core::run_probed(cfg, &rec,
                           job_records_path.empty() ? nullptr : &job_records);

    const auto open_or_die = [](const std::string& path, bool binary,
                                std::ofstream& out) {
      out.open(path, binary ? std::ios::binary | std::ios::trunc
                            : std::ios::trunc);
      if (!out) {
        std::cerr << "procsim_sweep: cannot write " << path << "\n";
        std::exit(3);
      }
    };
    if (!telemetry_path.empty()) {
      std::ofstream out;
      open_or_die(telemetry_path, false, out);
      rec.sampler()->write_csv(out);
    }
    if (!trace_path.empty()) {
      std::ofstream out;
      open_or_die(trace_path, true, out);
      obs::write_binary(*rec.trace(), out);
    }
    if (!job_records_path.empty()) {
      std::ofstream out;
      open_or_die(job_records_path, false, out);
      const bool jsonl = job_records_path.size() >= 6 &&
                         job_records_path.rfind(".jsonl") ==
                             job_records_path.size() - 6;
      if (jsonl)
        job_records.write_jsonl(out);
      else
        job_records.write_csv(out);
    }
    if (counters_requested) {
      if (counters_path.empty()) {
        rec.counters().write_json(std::cerr);
        std::cerr << "\n";
      } else {
        std::ofstream out;
        open_or_die(counters_path, false, out);
        rec.counters().write_json(out);
        out << "\n";
      }
    }
  }
  return 0;
}
