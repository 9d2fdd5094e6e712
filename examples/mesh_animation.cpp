// mesh_animation: watch a 16×22 mesh fill and fragment under an allocation
// strategy. Jobs arrive stochastically, hold their processors for an
// exponential time, and depart; the mesh occupancy is printed as ASCII
// frames (one letter per job). Fragmentation is directly visible: GABL keeps
// rectangular islands, MBS scatters buddies, Paging compacts toward the
// first row.
//
//   ./mesh_animation [gabl|paging|mbs|random] [frames]
//
// frames is a whole number in 1..1000 (default 6). An unknown strategy or a
// bad frame count prints one line to stderr and exits with status 2.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/figure_runner.hpp"
#include "des/distributions.hpp"
#include "des/simulator.hpp"
#include "util/strings.hpp"
#include "workload/shape.hpp"

namespace {

using namespace procsim;

struct LiveJob {
  alloc::Placement placement;
  char letter;
};

void print_frame(const alloc::Allocator& allocator,
                 const std::map<std::uint64_t, LiveJob>& live, double now,
                 std::size_t queue_len) {
  const mesh::Geometry& g = allocator.geometry();
  std::vector<char> grid(static_cast<std::size_t>(g.nodes()), '.');
  for (const auto& [id, job] : live)
    for (const mesh::SubMesh& b : job.placement.blocks)
      for (std::int32_t y = b.y1; y <= b.y2; ++y)
        for (std::int32_t x = b.x1; x <= b.x2; ++x)
          grid[static_cast<std::size_t>(g.id(mesh::Coord{x, y}))] = job.letter;

  std::printf("t=%-9.0f busy=%d/%d jobs=%zu queued=%zu\n", now,
              g.nodes() - allocator.free_processors(), g.nodes(), live.size(),
              queue_len);
  for (std::int32_t y = g.length() - 1; y >= 0; --y) {
    for (std::int32_t x = 0; x < g.width(); ++x)
      std::printf("%c", grid[static_cast<std::size_t>(g.id(mesh::Coord{x, y}))]);
    std::printf("\n");
  }
  std::printf("\n");
}

/// The animated system: an FCFS queue in front of the allocator, driven by
/// three event kinds on one simulator (arrival, departure of job `b`, frame).
struct Animation {
  Animation(const core::AllocatorSpec& spec, mesh::Geometry g)
      : geom(g), allocator(core::make_allocator(spec, g, 7)) {}

  static void on_arrive(void* ctx, std::uint32_t, std::uint64_t) {
    // Poisson arrivals of near-square jobs sized like the Paragon trace.
    auto& a = *static_cast<Animation*>(ctx);
    const auto p = static_cast<std::int32_t>(des::sample_uniform_int(a.rng, 2, 96));
    const auto [w, l] = workload::shape_for_processors(p, a.geom);
    a.queue.emplace_back(alloc::Request{w, l, p}, a.next_id++);
    a.try_start();
    a.sim.schedule_in(des::sample_exponential(a.rng, 120.0), a.kind_arrive);
  }

  static void on_depart(void* ctx, std::uint32_t, std::uint64_t jid) {
    auto& a = *static_cast<Animation*>(ctx);
    a.allocator->release(a.live.at(jid).placement);
    a.live.erase(jid);
    a.try_start();  // departures unblock the FCFS head
  }

  static void on_frame(void* ctx, std::uint32_t, std::uint64_t) {
    auto& a = *static_cast<Animation*>(ctx);
    print_frame(*a.allocator, a.live, a.sim.now(), a.queue.size());
  }

  void try_start() {
    while (!queue.empty()) {
      const auto [req, id] = queue.front();
      auto placement = allocator->allocate(req);
      if (!placement) break;
      queue.erase(queue.begin());
      live.emplace(id, LiveJob{std::move(*placement), next_letter});
      next_letter = next_letter == 'Z' ? 'A' : static_cast<char>(next_letter + 1);
      sim.schedule_in(des::sample_exponential(rng, 600.0), kind_depart, 0, id);
    }
  }

  mesh::Geometry geom;
  std::unique_ptr<alloc::Allocator> allocator;
  des::Simulator sim;
  des::Xoshiro256SS rng{7};
  des::EventKind kind_arrive{sim.add_handler(&on_arrive, this)};
  des::EventKind kind_depart{sim.add_handler(&on_depart, this)};
  des::EventKind kind_frame{sim.add_handler(&on_frame, this)};
  std::map<std::uint64_t, LiveJob> live;
  std::vector<std::pair<alloc::Request, std::uint64_t>> queue;  // FCFS
  std::uint64_t next_id{0};
  char next_letter{'A'};
};

constexpr const char* kProg = "mesh_animation";
constexpr int kMaxFrames = 1000;

}  // namespace

int main(int argc, char** argv) {
  if (argc > 3)
    core::usage_error(kProg, "too many arguments (expected [gabl|paging|mbs|random] [frames])");
  core::AllocatorSpec spec;  // defaults to GABL
  if (argc > 1) {
    const std::string_view name = argv[1];
    if (name == "paging")
      spec = core::AllocatorSpec{"Paging(0)"};
    else if (name == "mbs")
      spec = core::AllocatorSpec{"MBS"};
    else if (name == "random")
      spec = core::AllocatorSpec{"Random"};
    else if (name != "gabl")
      core::usage_error(kProg, "unknown strategy '" + std::string(name) +
                                   "' (expected gabl, paging, mbs or random)");
  }
  int frames = 6;
  if (argc > 2) {
    const auto parsed = util::parse_number<int>(argv[2]);
    if (!parsed || *parsed < 1 || *parsed > kMaxFrames)
      core::usage_error(kProg, "bad frame count '" + std::string(argv[2]) +
                                   "' (expected a whole number in 1.." +
                                   std::to_string(kMaxFrames) + ")");
    frames = *parsed;
  }

  Animation a(spec, mesh::Geometry(16, 22));
  std::printf("strategy: %s — '.' free, letters = jobs\n\n", a.allocator->name().c_str());

  a.sim.schedule_in(0, a.kind_arrive);
  const double frame_dt = 1500;
  for (int f = 1; f <= frames; ++f) a.sim.schedule_at(f * frame_dt, a.kind_frame);
  a.sim.run_until(frames * frame_dt + 1);
  return 0;
}
