#include "core/job_arena.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

namespace procsim::core {

void StreamSet::build(std::span<const workload::MessagePlanEntry> plan,
                      std::span<const mesh::NodeId> compute_nodes,
                      std::span<std::uint32_t> stream_of_node) {
  clear();
  const auto node = [&](std::int32_t i) { return compute_nodes[static_cast<std::size_t>(i)]; };
  // Validate, collect the sources in order of first appearance and count
  // each one's messages (end_, indexed by appearance).
  for (const auto& [si, di] : plan) {
    if (si < 0 || di < 0 || std::cmp_greater_equal(si, compute_nodes.size()) ||
        std::cmp_greater_equal(di, compute_nodes.size()) || si == di)
      throw std::invalid_argument("StreamSet: plan index out of range");
    const mesh::NodeId src = node(si);
    std::uint32_t& i = stream_of_node[static_cast<std::size_t>(src)];
    if (!is_stream_of(i, src)) {
      i = static_cast<std::uint32_t>(srcs_.size());
      srcs_.push_back(src);
      end_.push_back(0);
    }
    ++end_[i];
  }

  // Streams run in ascending node id. Sorting moves each count from its
  // appearance index (still in stream_of_node, read once per node before
  // it is overwritten) to its sorted one.
  next_.swap(end_);
  end_.resize(srcs_.size());
  std::sort(srcs_.begin(), srcs_.end());
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    std::uint32_t& appeared = stream_of_node[static_cast<std::size_t>(srcs_[i])];
    end_[i] = next_[appeared];
    appeared = static_cast<std::uint32_t>(i);
  }

  std::uint32_t offset = 0;
  for (std::size_t i = 0; i < srcs_.size(); ++i) {
    offset += end_[i];
    end_[i] = offset;
    next_[i] = offset;
  }
  // Filling back to front keeps each source's destinations in plan order
  // and leaves every cursor at its stream's first message.
  dsts_.resize(plan.size());
  for (auto it = plan.rbegin(); it != plan.rend(); ++it)
    dsts_[--next_[stream_of_node[static_cast<std::size_t>(node(it->first))]]] =
        node(it->second);
}

void StreamSet::clear() noexcept {
  srcs_.clear();
  next_.clear();
  end_.clear();
  dsts_.clear();
}

JobArena::Slot JobArena::acquire(workload::Job job) {
  const std::uint64_t id = job.id;
  Slot s;
  if (!free_.empty()) {
    s = free_.back();
  } else {
    if (jobs_.size() > std::numeric_limits<Slot>::max())
      throw std::length_error("JobArena: slot index overflow");
    s = static_cast<Slot>(jobs_.size());
    outstanding_.emplace_back();
    start_time_.emplace_back();
    jobs_.emplace_back();
    placements_.emplace_back();
    streams_.emplace_back();
    occupied_.push_back(0);
  }
  if (!index_.emplace(id, s).second)
    throw std::invalid_argument("JobArena: duplicate job id " + std::to_string(id));
  if (!free_.empty()) free_.pop_back();  // committed only after the id check
  outstanding_[s] = 0;
  start_time_[s] = 0;
  jobs_[s] = std::move(job);
  placements_[s] = alloc::Placement{};
  streams_[s].clear();
  occupied_[s] = 1;
  return s;
}

void JobArena::release(Slot s) {
  if (!occupied(s)) throw std::logic_error("JobArena: releasing a free slot");
  index_.erase(jobs_[s].id);
  jobs_[s] = workload::Job{};          // drop the message plan's memory
  placements_[s] = alloc::Placement{}; // drop the node list's memory
  occupied_[s] = 0;
  free_.push_back(s);
}

workload::Job JobArena::extract(Slot s) {
  if (!occupied(s)) throw std::logic_error("JobArena: extracting a free slot");
  workload::Job out = std::move(jobs_[s]);
  release(s);
  return out;
}

void JobArena::clear() {
  index_.clear();
  free_.clear();
  // Keep the slot vectors (and every StreamSet's capacity); only the job
  // payloads are dropped. The free list is rebuilt descending so the next
  // run reuses slot 0 first — the same slot sequence a fresh arena produces.
  for (std::size_t s = jobs_.size(); s-- > 0;) {
    jobs_[s] = workload::Job{};
    placements_[s] = alloc::Placement{};
    occupied_[s] = 0;
    free_.push_back(static_cast<Slot>(s));
  }
}

JobArena::Slot JobArena::slot_of(std::uint64_t id) const {
  const auto it = index_.find(id);
  if (it == index_.end())
    throw std::logic_error("JobArena: no slot for job id " + std::to_string(id));
  return it->second;
}

}  // namespace procsim::core
