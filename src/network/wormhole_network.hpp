#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "des/simulator.hpp"
#include "mesh/coord.hpp"
#include "network/routing.hpp"

namespace procsim::obs {
class Recorder;
}  // namespace procsim::obs

namespace procsim::network {

/// Network advancement engines.
///
///  * kStepped  — the original per-hop oracle: one attempt per channel
///    acquisition (`1 + st` cycles each), O(hops) attempts per packet.
///  * kBatched  — hop-run advancement: a header acquires the maximal run of
///    currently-free consecutive path channels in one grant and files a
///    single arrival `run_len * (1 + st)` ahead, with the worm-slide releases
///    computed arithmetically. A run also continues through a held channel
///    whose known release comes no later than the header's arrival there (it
///    follows the holder). An uncontended packet costs O(1) attempts; a
///    contended one pays one attempt per blocking point. Delivery times,
///    blocked times, hop counts and waiter-FIFO order are bit-identical to
///    kStepped (both engines share one canonical arbitration core).
///  * kVerify   — a kBatched network that owns a second, kStepped network on
///    the same clock (its shadow), forwards every injection to it and
///    cross-checks per-packet deliveries and per-channel holder/waiter state
///    every network-active timestamp.
enum class NetEngine : std::uint8_t { kStepped, kBatched, kVerify };

/// The process-wide default: PROCSIM_NET_ENGINE if set
/// (stepped | batched | verify), else kBatched. Parsed once; any other value
/// prints one stderr line and exits 2, like a bad command-line flag.
[[nodiscard]] NetEngine default_net_engine();

/// Registry of engine modes (the names PROCSIM_NET_ENGINE accepts).
[[nodiscard]] NetEngine parse_net_engine(std::string_view name);
[[nodiscard]] const char* net_engine_name(NetEngine engine) noexcept;

/// Simulation parameters of the interconnect, names following the paper:
/// `st` cycles of routing delay per node, `packet_len` flits per packet
/// (P_len), one cycle per link per flit.
struct NetworkParams {
  std::int32_t st{3};
  std::int32_t packet_len{8};
  bool torus{false};
  NetEngine engine{default_net_engine()};
};

/// Completed-delivery record passed to the delivery sink.
struct Delivery {
  std::uint64_t tag{0};  ///< caller-defined (the owning job id)
  mesh::NodeId src{0};
  mesh::NodeId dst{0};
  double latency{0};   ///< injection -> last flit delivered
  double blocked{0};   ///< total time the header waited on busy channels
  std::int32_t hops{0};
};

/// Engine-level counters for one run (pulled into obs::Counters by
/// SystemSim). `run_len_hist` buckets maximal-run lengths at
/// 1, 2-3, 4-7, 8-15, 16-31, 32+ channels. Per-packet latency, blocking and
/// hop statistics are not kept here: they reach the delivery sink, and
/// SystemSim accumulates them behind its warmup gate.
struct NetStats {
  std::uint64_t injected{0};
  std::uint64_t delivered{0};
  std::uint64_t runs_batched{0};
  std::uint64_t follows{0};        ///< held channels a batched run continued through
  std::uint64_t run_len_hist[6]{};
  std::uint64_t truncations{0};    ///< runs rolled back (stolen reservations, lost follows)
  std::uint64_t batches{0};        ///< bucket events fired (one per filed timestamp)
  std::uint64_t passes{0};         ///< arbitration passes (verify: the primary's)
  std::uint64_t inline_passes{0};  ///< of those, run inside their bucket's event

  void reset() { *this = NetStats{}; }
};

/// Event-driven flit-level wormhole network.
///
/// Model (single-flit channel buffers, as in ProcSimity):
///  * A packet's header acquires the channels of its XY path one by one.
///    Crossing a channel takes 1 cycle; each router adds `st` cycles before
///    the next acquisition attempt.
///  * A blocked header waits in the channel's FIFO, holding everything it
///    already acquired — the defining behaviour of wormhole switching.
///  * A worm of P_len flits spans at most P_len consecutive channels:
///    acquiring path channel i releases path channel i-P_len one cycle later
///    (the worm slides forward).
///  * When the header is ejected at time t, the remaining flits drain one per
///    cycle: delivery completes at t + P_len and trailing channels release
///    back-to-front.
///
/// Arbitration is canonical and engine-independent: all acquisition attempts
/// at one timestamp are collected and resolved by a single arbitration pass
/// that runs after every other event at that timestamp, channels in ascending
/// id order, winner = min (attempt_time, injection_seq). Both cycle engines
/// share this core, which is what makes kBatched bit-identical to kStepped.
///
/// Work the network files for a later timestamp (a header's next attempt, an
/// ejection, a grant at a channel's release) is not one kernel event each:
/// it goes into that timestamp's bucket, and the bucket is one event, taking
/// the (time, seq) slot of the first work filed for it. The bucket applies
/// its work in filing order and runs the pass inline when nothing else is
/// due at its timestamp, since the pass would be the very next event.
///
/// A batched run does not stop at a held channel that it can follow: one
/// with no waiters and no other follower, whose holder's release is known
/// and no later than the header's arrival there. The header records itself
/// as the channel's follower and keeps reserving, up to P_len channels past
/// its first follow, so it never sets the release of a channel it does not
/// hold yet. A follow becomes an ordinary reservation (acquired at the
/// header's arrival) where the holder is lazily released and before the
/// follower acts again. An attempt that queued on the channel before the
/// release then steals that reservation, as it would any other; and the
/// follow is rolled back like a stolen reservation when the holder's own
/// roll-back drops that hold or its release.
///
/// One object is one engine, stepped or batched. Under kVerify the batched
/// network owns its shadow, a stepped WormholeNetwork on the same clock with
/// its own buckets and event kinds and no recorder or sink. The primary
/// forwards every injection to it, matches the two networks' deliveries and
/// compares their channels once neither has a pass armed at the timestamp.
///
/// Latency and blocking are accumulated per packet and reported through the
/// delivery sink.
class WormholeNetwork {
 public:
  /// Per-delivery sink: a raw function pointer + context instead of a
  /// std::function — the callback fires once per delivered packet, so it
  /// stays a direct call on the network's hot path.
  using DeliverySink = void (*)(void* ctx, const Delivery& d);

  WormholeNetwork(des::Simulator& sim, mesh::Geometry geom, NetworkParams params)
      : WormholeNetwork(sim, geom, params, nullptr) {}

  WormholeNetwork(const WormholeNetwork&) = delete;
  WormholeNetwork& operator=(const WormholeNetwork&) = delete;

  /// Injects one packet src -> dst at the current simulation time.
  /// Precondition: src != dst.
  void inject(mesh::NodeId src, mesh::NodeId dst, std::uint64_t tag);

  /// Invoked on every completed delivery (after stats().delivered counts it).
  void set_delivery_sink(DeliverySink sink, void* ctx) noexcept {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  /// Attaches (nullptr detaches) the observability recorder; observation-only,
  /// wired by SystemSim::run from SystemConfig::recorder.
  void set_recorder(obs::Recorder* rec) noexcept { rec_ = rec; }

  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return stats_.injected - stats_.delivered;
  }
  [[nodiscard]] const NetworkParams& params() const noexcept { return params_; }
  [[nodiscard]] const ChannelMap& channels() const noexcept { return map_; }

  /// Contention-free latency of one packet over `hops` mesh links, in whole
  /// cycles: every channel (injection, links, ejection) costs 1 cycle plus
  /// `st` routing before the next, and the tail drains P_len - 1 cycles
  /// behind the header. Simulation times are not integers (a job starts at
  /// a continuous arrival time), so a delivery's latency can differ from
  /// this in the last bit; both cycle engines add the per-hop 1 + st one
  /// hop at a time, which keeps them bit-identical to each other.
  [[nodiscard]] std::int64_t base_latency_cycles(std::int32_t hops) const noexcept {
    return (static_cast<std::int64_t>(hops) + 1) * (1 + params_.st) + params_.packet_len;
  }
  [[nodiscard]] double base_latency(std::int32_t hops) const noexcept {
    return static_cast<double>(base_latency_cycles(hops));
  }

  /// Drops all state between replications, including packets a run stopped
  /// early left in flight and their unmatched verify-mode deliveries; returns
  /// at once when nothing was injected since construction or the last reset.
  /// The simulator's pending events must be dropped with it
  /// (Simulator::reset), as SystemSim does: they name packets and channels
  /// that no longer exist.
  void reset();

 private:
  static constexpr double kNoRelease = std::numeric_limits<double>::infinity();

  // The waiter FIFO is intrusive (head/tail indices here, a `next_waiter`
  // link in Packet): a header blocks on at most one channel at a time, and a
  // per-channel container would cost one heap allocation per channel just to
  // default-construct — ~2M channels on a 512×512 mesh, rebuilt every
  // replication.
  struct Channel {
    std::int32_t holder{-1};     // packet pool index, -1 when free
    std::int32_t wait_head{-1};  // blocked packets, ascending (attempt, seq)
    std::int32_t wait_tail{-1};
    std::int32_t follower{-1};   // batched run that takes over at the holder's
                                 // release, -1 when none
    double acq_time{0};          // holder's (possibly future) acquisition time
    double rel_time{kNoRelease};  // known release time, +inf until learned
    std::uint32_t epoch{0};       // cancels stale filed grants on truncation
    bool reserved{false};         // held by a batched run's virtual (future)
                                  // acquisition, not a realized one — only
                                  // reservations can be truncated
    bool grant_scheduled{false};  // a grant is filed for rel_time
    bool dirty{false};            // queued for arbitration this timestamp
  };
  static_assert(sizeof(Channel) == 40, "the follower lives in existing padding");

  struct Packet {
    std::vector<ChannelId> path;
    std::int32_t next{0};          // next path index to attempt
    std::int32_t res_end{0};       // one past the last reserved or followed index
    std::int32_t next_waiter{-1};  // FIFO link while blocked on a channel
    std::uint64_t seq{0};          // injection order; arbitration tie-break
    std::uint32_t run_epoch{0};    // cancels stale filed attempts/ejections
    std::int32_t follow_lo{-1};    // first path index the run follows, -1 = none
    double follow_at{0};           // the header's arrival at follow_lo
    double inject_time{0};
    double attempt_time{0};        // when the pending attempt was made
    double blocked{0};
    std::uint64_t tag{0};
    mesh::NodeId src{0};
    mesh::NodeId dst{0};
    bool fresh_block{false};       // attempt not yet reported as blocked
  };

  struct Ejection {
    std::int32_t pkt;
    ChannelId ch;
    std::uint32_t epoch;  // packet run_epoch at registration
  };

  // Work filed for a later timestamp. `epoch` is the packet's run_epoch
  // (attempt, eject) or the channel's epoch (grant) when it was filed; a
  // truncation moves the epoch on, and the stale work then does nothing.
  enum class Work : std::uint8_t { kAttempt, kEject, kGrant };
  struct Registration {
    std::uint32_t id;  // packet pool index; channel id for kGrant
    std::uint32_t epoch;
    Work work;
  };

  // Everything filed for one timestamp, fired by one kernel event.
  struct Bucket {
    double time{0};
    std::vector<Registration> regs;  // in filing order
  };

  // Direct-mapped time -> open bucket index, slot = Fibonacci hash of the
  // time's bits. A collision only opens a second bucket (and event) for the
  // displaced time; the order of work is unchanged.
  static constexpr int kBucketBits = 10;
  static constexpr std::size_t kBucketSlots = std::size_t{1} << kBucketBits;
  [[nodiscard]] static std::size_t bucket_slot(double t) noexcept {
    return static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(t) * 0x9E3779B97F4A7C15ULL) >> (64 - kBucketBits));
  }

  // A run rolled back to path index `cut`, which its header reaches at
  // `arrive`; `cut` is -1 once a deeper roll-back of the same run made it moot.
  struct Rollback {
    std::int32_t pkt;
    std::int32_t cut;
    double arrive;
  };

  struct VerifyRec {
    double time{0};
    double latency{0};
    double blocked{0};
    std::int32_t hops{0};
    bool from_shadow{false};
  };

  // `owner` is null except for the shadow a kVerify network builds of itself.
  WormholeNetwork(des::Simulator& sim, mesh::Geometry geom, NetworkParams params,
                  WormholeNetwork* owner);

  // Event handlers (one registered kind each).
  static void on_pass(void* ctx, std::uint32_t, std::uint64_t);
  static void on_bucket(void* ctx, std::uint32_t bucket, std::uint64_t);
  static void on_deliver(void* ctx, std::uint32_t pkt, std::uint64_t);
  static void on_compare(void* ctx, std::uint32_t, std::uint64_t);

  [[nodiscard]] std::int32_t alloc_packet(mesh::NodeId src, mesh::NodeId dst,
                                          std::uint64_t tag);
  void register_attempt(std::int32_t pkt, double t);
  void enqueue_waiter(Channel& ch, std::int32_t pkt);
  void ensure_arbitration();
  void file(Work work, std::uint32_t id, std::uint32_t epoch, double t);
  [[nodiscard]] bool apply(const Registration& r, double t);
  void fire_bucket(std::uint32_t id);
  void mark_dirty(ChannelId ch);
  void run_pass();
  void arbitrate(ChannelId ch, double t);
  void grant(std::int32_t pkt, double t);
  void step_acquire(std::int32_t pkt, double t);
  void start_run(std::int32_t pkt, double t);
  [[nodiscard]] static std::int32_t run_index(const Packet& p, ChannelId ch) noexcept;
  [[nodiscard]] double follow_arrival(const Packet& p, std::int32_t k) const noexcept;
  inline void release_if_due(Channel& ch, ChannelId cid, double t);
  void hand_over(Channel& ch, ChannelId cid);
  static void take_follow(Channel& ch, double at) noexcept;
  void settle_follows(std::int32_t pkt);
  void drop_follower(ChannelId ch);
  void roll_back(double t);
  void set_release(ChannelId ch, double when);
  void complete(std::int32_t pkt, double t_eject);
  void deliver(std::int32_t pkt);
  void arm_compare();
  void verify_match(std::uint64_t id, const VerifyRec& rec);
  void verify_compare_states();

  des::Simulator& sim_;
  ChannelMap map_;
  NetworkParams params_;
  NetStats stats_;
  std::vector<Channel> channels_;
  std::vector<Packet> pool_;
  std::vector<std::int32_t> free_pool_;
  std::vector<ChannelId> dirty_;     // channels awaiting arbitration
  std::vector<Ejection> ejections_;  // completions this timestamp
  std::vector<Rollback> rollbacks_;  // runs to roll back (roll_back's worklist)
  std::uint64_t next_seq_{0};
  double arb_time_{-1.0};  // timestamp whose pass is armed (queued or running)
  std::vector<Bucket> buckets_;               // open and recycled buckets
  std::vector<std::uint32_t> free_buckets_;   // recycled buckets_ slots
  std::array<std::int32_t, kBucketSlots> bucket_index_;  // -1 = none open
  des::EventKind kind_pass_{0};
  des::EventKind kind_bucket_{0};
  des::EventKind kind_deliver_{0};
  des::EventKind kind_compare_{0};  // kVerify only
  DeliverySink sink_{nullptr};
  void* sink_ctx_{nullptr};
  obs::Recorder* rec_{nullptr};  ///< non-owning; null = observability off
  // Verify. `verifier_` is the network that matches this one's deliveries
  // and compares its channels: itself under kVerify, its owner for a
  // shadow, null otherwise. Both halves of a pair log the channels they
  // touch for the next comparison.
  WormholeNetwork* verifier_{nullptr};
  std::unique_ptr<WormholeNetwork> shadow_;  // kVerify only: the stepped twin
  std::vector<ChannelId> touched_;
  std::unordered_map<std::uint64_t, VerifyRec> verify_pending_;
  bool verify_cmp_armed_{false};  // a compare event is queued at this timestamp
};

}  // namespace procsim::network
