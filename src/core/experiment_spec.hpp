#pragma once

// Unified experiment-spec parsing: the single fail-fast entry point every
// driver lowers its flag parsing onto. Each axis — mesh/cluster, allocator,
// scheduler, workload — is a registry spec string; unknown names throw
// std::invalid_argument listing the known kinds, exactly like
// workload::make_source does, before any simulation time is spent. The
// network engine is not an axis: PROCSIM_NET_ENGINE selects it.

#include <optional>
#include <string>

#include "core/experiment.hpp"
#include "mesh/coord.hpp"

namespace procsim::core {

/// Raw string axes as a driver's flags collect them. An empty axis leaves the
/// config's current value alone, so drivers can layer a spec over a workload
/// template (bench_common's figure bases) without re-stating every field.
struct ExperimentSpecStrings {
  std::string mesh;      ///< "WxL", sides 1..4096 — the single-mesh axis
  std::string cluster;   ///< cluster::parse_cluster_spec grammar — the fleet axis
  std::string alloc;     ///< allocator registry name (alloc::known_allocators)
  std::string sched;     ///< scheduler registry spec (sched::known_schedulers)
  std::string workload;  ///< workload::make_source registry spec
};

/// "WxL" with both sides in 1..4096; nullopt when malformed. The shared
/// mesh-geometry grammar of `--mesh=` and the cluster spec's groups.
[[nodiscard]] std::optional<mesh::Geometry> parse_mesh_geometry(
    const std::string& s);

/// Parses every non-empty axis of `axes` and applies it to `cfg` in place.
/// Throws std::invalid_argument naming the offending axis and listing the
/// known kinds. `mesh` and `cluster` together is a conflict (the cluster
/// spec already fixes every mesh geometry). The three bare figure families
/// ("uniform" | "exponential" | "real", no options) keep the template
/// WorkloadSpec path — and its exact figure CSV bytes; any other workload
/// spec lowers onto workload::make_source with the registry's own stream
/// defaults (job_count 0, i.e. no driver-level cap).
void apply_experiment_spec(const ExperimentSpecStrings& axes,
                           ExperimentConfig& cfg);

/// apply_experiment_spec over a default-constructed ExperimentConfig.
[[nodiscard]] ExperimentConfig parse_experiment_spec(
    const ExperimentSpecStrings& axes);

}  // namespace procsim::core
