#include "core/experiment_spec.hpp"

#include <stdexcept>
#include <string_view>

#include "cluster/cluster_spec.hpp"
#include "sched/registry.hpp"
#include "util/strings.hpp"
#include "workload/source_registry.hpp"

namespace procsim::core {

std::optional<mesh::Geometry> parse_mesh_geometry(const std::string& s) {
  const auto x = s.find_first_of("xX");
  if (x == std::string::npos) return std::nullopt;
  const std::string_view text = s;
  const auto w = util::parse_number<std::int32_t>(text.substr(0, x));
  const auto l = util::parse_number<std::int32_t>(text.substr(x + 1));
  if (!w || !l || *w <= 0 || *l <= 0 || *w > 4096 || *l > 4096) return std::nullopt;
  return mesh::Geometry(*w, *l);
}

void apply_experiment_spec(const ExperimentSpecStrings& axes,
                           ExperimentConfig& cfg) {
  if (!axes.mesh.empty() && !axes.cluster.empty())
    throw std::invalid_argument(
        "--mesh and --cluster are mutually exclusive (the cluster spec "
        "already fixes every mesh geometry)");
  if (!axes.mesh.empty()) {
    const auto geom = parse_mesh_geometry(axes.mesh);
    if (!geom)
      throw std::invalid_argument("bad mesh '" + axes.mesh +
                                  "' (expected WxL, sides 1..4096)");
    cfg.sys.geom = *geom;
    cfg.cluster.reset();
  }
  if (!axes.cluster.empty()) {
    std::string error;
    auto spec = cluster::parse_cluster_spec(axes.cluster, &error);
    if (!spec)
      throw std::invalid_argument("bad cluster spec '" + axes.cluster +
                                  "': " + error);
    cfg.cluster = std::move(*spec);
    // Workload shaping fallback: jobs are sized for the first mesh (see
    // ExperimentConfig::cluster), so keep sys.geom consistent with it.
    cfg.sys.geom = cfg.cluster->meshes.front().geom;
  }
  // AllocatorSpec's validating constructor throws listing known_allocators.
  if (!axes.alloc.empty()) cfg.allocator = AllocatorSpec{axes.alloc};
  if (!axes.sched.empty()) {
    const auto spec = sched::parse_sched_spec(axes.sched);
    if (!spec)
      throw std::invalid_argument("unknown scheduler '" + axes.sched +
                                  "' (known: " +
                                  sched::known_scheduler_list() + ")");
    cfg.scheduler = *spec;
  }
  if (!axes.workload.empty()) {
    const auto spec = workload::parse_source_spec(axes.workload);
    if (!spec)
      throw std::invalid_argument("unknown workload '" + axes.workload + "' (known: " +
                                  util::join(workload::known_sources()) + ")");
    const bool bare_family =
        spec->arg.empty() && spec->params.empty() &&
        (spec->kind == "uniform" || spec->kind == "exponential" ||
         spec->kind == "real");
    if (bare_family) {
      // The three figure families keep the template WorkloadSpec path so the
      // fixed-seed figure CSVs stay byte-identical with the spec API.
      cfg.workload.source_spec.clear();
      if (spec->kind == "real") {
        cfg.workload.kind = WorkloadKind::kTrace;
      } else {
        cfg.workload.kind = WorkloadKind::kStochastic;
        cfg.workload.stochastic.side_dist =
            spec->kind == "uniform" ? workload::SideDistribution::kUniform
                                    : workload::SideDistribution::kExponential;
      }
    } else {
      cfg.workload.source_spec = spec->canonical;
      // No stream-length override: the registry defaults apply (trace kinds
      // replay the whole file). Drivers' --jobs/--fast still cap it.
      cfg.workload.job_count = 0;
    }
    // Fail fast on bad option keys / unreadable SWF files before any cell
    // spends a replicated simulation on them (make_source validates values;
    // parse only validates syntax).
    if (!cfg.workload.source_spec.empty())
      (void)workload::make_source(cfg.workload.source_spec, cfg.sys.geom);
  }
}

ExperimentConfig parse_experiment_spec(const ExperimentSpecStrings& axes) {
  ExperimentConfig cfg;
  apply_experiment_spec(axes, cfg);
  return cfg;
}

}  // namespace procsim::core
