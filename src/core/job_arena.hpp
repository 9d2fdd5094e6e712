#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "mesh/coord.hpp"
#include "workload/job.hpp"

namespace procsim::core {

/// A running job's outgoing message streams in one flat layout: the source
/// nodes in ascending id, and per source a cursor and an end into one shared
/// destination vector. The vectors keep their capacity across slot reuse, so
/// a steady-state run builds streams allocation-free.
///
/// Sources iterate in ascending NodeId (the order of a job's first
/// injections, which assigns packet seqs) and each source's destinations
/// keep message-plan order. Every stored size is in the job's message count
/// m or its distinct-source count s, never its processor count k.
class StreamSet {
 public:
  /// Binds a job's plan to its compute nodes and groups it by source in one
  /// validating counting pass, then sorts the s distinct sources:
  /// O(m + s log s). Writes each source's stream index into `stream_of_node`
  /// (mesh-wide, indexed by NodeId), so `next_from` finds a delivery's
  /// stream with one read: entry i of node n is live iff i < sources() and
  /// source(i) == n, so stale entries left by earlier jobs need no clearing.
  /// Throws std::invalid_argument for an index out of range or a
  /// self-message. Keeps capacity.
  void build(std::span<const workload::MessagePlanEntry> plan,
             std::span<const mesh::NodeId> compute_nodes,
             std::span<std::uint32_t> stream_of_node);

  [[nodiscard]] std::size_t sources() const noexcept { return srcs_.size(); }
  [[nodiscard]] mesh::NodeId source(std::size_t i) const noexcept { return srcs_[i]; }
  [[nodiscard]] std::size_t messages() const noexcept { return dsts_.size(); }

  /// Next destination for the i-th source, advancing its cursor.
  [[nodiscard]] std::optional<mesh::NodeId> next_at(std::size_t i) noexcept {
    if (next_[i] == end_[i]) return std::nullopt;
    return dsts_[next_[i]++];
  }

  /// Next destination for source node `src`, found through the array `build`
  /// wrote (the per-delivery path). std::nullopt when the stream is
  /// exhausted; throws std::logic_error when `src` is not a source here.
  [[nodiscard]] std::optional<mesh::NodeId> next_from(
      mesh::NodeId src, std::span<const std::uint32_t> stream_of_node) {
    const std::uint32_t i = stream_of_node[static_cast<std::size_t>(src)];
    if (!is_stream_of(i, src))
      throw std::logic_error("StreamSet: delivery from unknown source stream");
    return next_at(i);
  }

  void clear() noexcept;

 private:
  [[nodiscard]] bool is_stream_of(std::uint32_t i, mesh::NodeId src) const noexcept {
    return i < srcs_.size() && srcs_[i] == src;
  }

  std::vector<mesh::NodeId> srcs_;     ///< ascending, unique
  std::vector<std::uint32_t> next_;    ///< per source: cursor into dsts_
  std::vector<std::uint32_t> end_;     ///< per source: one past the last
  std::vector<mesh::NodeId> dsts_;     ///< all destinations, grouped by source
};

/// Slot-reusing storage for every job the simulator currently tracks (queued
/// or running). Hot per-delivery fields — the packets-outstanding counter and
/// the start time — live in their own contiguous arrays (SoA), cold state
/// (the Job, its Placement, its StreamSet) in parallel slot vectors.
///
/// The slot index doubles as the network tag, making the delivery path a
/// direct array access; the id → slot hash map exists only for the scheduler
/// path, which speaks job ids. Released slots go to a free list and their
/// containers keep capacity, so long replays stop allocating once the peak
/// concurrent-job count is reached.
class JobArena {
 public:
  using Slot = std::uint32_t;

  /// Admits a job (at arrival) and returns its slot. Throws
  /// std::invalid_argument on a duplicate job id.
  [[nodiscard]] Slot acquire(workload::Job job);

  /// Frees the slot for reuse and forgets the id mapping.
  void release(Slot s);

  /// Removes the job from the slot and returns it (release + payload move).
  /// The inter-mesh migration path: the stolen job leaves this arena whole
  /// and re-enters another mesh's arena on re-queue — one resident copy ever.
  [[nodiscard]] workload::Job extract(Slot s);

  /// Forgets everything; keeps slot capacity for the next run.
  void clear();

  [[nodiscard]] std::size_t active() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return jobs_.size(); }
  [[nodiscard]] bool occupied(Slot s) const noexcept {
    return s < occupied_.size() && occupied_[s] != 0;
  }

  /// Slot behind a job id (the scheduler path); throws std::logic_error if
  /// the id is not resident.
  [[nodiscard]] Slot slot_of(std::uint64_t id) const;
  [[nodiscard]] bool contains(std::uint64_t id) const {
    return index_.find(id) != index_.end();
  }

  [[nodiscard]] workload::Job& job(Slot s) noexcept { return jobs_[s]; }
  [[nodiscard]] const workload::Job& job(Slot s) const noexcept { return jobs_[s]; }
  [[nodiscard]] alloc::Placement& placement(Slot s) noexcept { return placements_[s]; }
  [[nodiscard]] const alloc::Placement& placement(Slot s) const noexcept {
    return placements_[s];
  }
  [[nodiscard]] double& start_time(Slot s) noexcept { return start_time_[s]; }
  [[nodiscard]] std::int64_t& outstanding(Slot s) noexcept { return outstanding_[s]; }
  [[nodiscard]] StreamSet& streams(Slot s) noexcept { return streams_[s]; }

 private:
  // Hot (per-delivery) columns.
  std::vector<std::int64_t> outstanding_;
  std::vector<double> start_time_;
  // Cold columns.
  std::vector<workload::Job> jobs_;
  std::vector<alloc::Placement> placements_;
  std::vector<StreamSet> streams_;
  std::vector<char> occupied_;
  std::vector<Slot> free_;
  std::unordered_map<std::uint64_t, Slot> index_;
};

}  // namespace procsim::core
