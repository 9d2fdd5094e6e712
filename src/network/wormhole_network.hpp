#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "des/simulator.hpp"
#include "mesh/coord.hpp"
#include "network/routing.hpp"
#include "stats/welford.hpp"

namespace procsim::obs {
class Recorder;
}  // namespace procsim::obs

namespace procsim::network {

/// Network advancement engines.
///
///  * kStepped  — the original per-hop oracle: one simulator event per
///    channel acquisition (`1 + st` cycles each), O(hops) events per packet.
///  * kBatched  — hop-run advancement: a header acquires the maximal run of
///    currently-free consecutive path channels in one event and schedules a
///    single arrival `run_len * (1 + st)` ahead, with the worm-slide releases
///    computed arithmetically. An uncontended packet costs O(1) events; a
///    contended one pays one event per blocking point. Delivery times,
///    blocked times, hop counts and waiter-FIFO order are bit-identical to
///    kStepped (both engines share one canonical arbitration core).
///  * kVerify   — runs kBatched as primary and kStepped as an in-process
///    shadow, lock-step cross-checking per-packet deliveries and per-channel
///    holder/waiter state every network-active timestamp.
///  * kAnalytic — contention-free base latency plus an M/M/1-style
///    per-channel utilization waiting term accumulated over the XY path.
///    One event per packet; trend-accurate, never byte-compared to the
///    cycle model (tolerance-banded in tests).
enum class NetEngine : std::uint8_t { kStepped, kBatched, kVerify, kAnalytic };

/// The process-wide default: PROCSIM_NET_ENGINE if set
/// (stepped | batched | verify | analytic), else kBatched. Parsed once.
[[nodiscard]] NetEngine default_net_engine();

/// Registry of engine modes (used by `procsim_sweep --net=`).
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

/// Aggregate network statistics for one simulation run.
struct NetworkMetrics {
  stats::Welford latency;
  stats::Welford blocking;
  stats::Welford hops;
  std::uint64_t injected{0};
  std::uint64_t delivered{0};

  void reset() { *this = NetworkMetrics{}; }
};

/// Engine-level counters for one run (pulled into obs::Counters by
/// SystemSim). `run_len_hist` buckets maximal-run lengths at
/// 1, 2-3, 4-7, 8-15, 16-31, 32+ channels.
struct NetStats {
  std::uint64_t runs_batched{0};
  std::uint64_t run_len_hist[6]{};
  std::uint64_t truncations{0};       ///< reservations stolen by earlier attempts
  std::uint64_t analytic_packets{0};

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
/// at one timestamp are collected and resolved by a single arbitration event
/// that runs after every other event at that timestamp, channels in ascending
/// id order, winner = min (attempt_time, injection_seq). Both cycle engines
/// share this core, which is what makes kBatched bit-identical to kStepped.
///
/// Latency and blocking are accumulated per packet and reported through both
/// the delivery sink (for per-job bookkeeping) and NetworkMetrics.
class WormholeNetwork {
 public:
  /// Per-delivery sink: a raw function pointer + context instead of a
  /// std::function — the callback fires once per delivered packet, so it
  /// stays a direct call on the network's hot path.
  using DeliverySink = void (*)(void* ctx, const Delivery& d);

  WormholeNetwork(des::Simulator& sim, mesh::Geometry geom, NetworkParams params);

  WormholeNetwork(const WormholeNetwork&) = delete;
  WormholeNetwork& operator=(const WormholeNetwork&) = delete;

  /// Injects one packet src -> dst at the current simulation time.
  /// Precondition: src != dst.
  void inject(mesh::NodeId src, mesh::NodeId dst, std::uint64_t tag);

  /// Invoked on every completed delivery (after metrics are updated).
  void set_delivery_sink(DeliverySink sink, void* ctx) noexcept {
    sink_ = sink;
    sink_ctx_ = ctx;
  }

  /// Attaches (nullptr detaches) the observability recorder; observation-only,
  /// wired by SystemSim::run from SystemConfig::recorder.
  void set_recorder(obs::Recorder* rec) noexcept { rec_ = rec; }

  [[nodiscard]] const NetworkMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const NetStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return metrics_.injected - metrics_.delivered;
  }
  [[nodiscard]] const NetworkParams& params() const noexcept { return params_; }
  [[nodiscard]] NetEngine engine() const noexcept { return params_.engine; }
  [[nodiscard]] const ChannelMap& channels() const noexcept { return map_; }

  /// Contention-free latency of one packet over `hops` mesh links, in whole
  /// cycles: every channel (injection, links, ejection) costs 1 cycle plus
  /// `st` routing before the next, and the tail drains P_len - 1 cycles
  /// behind the header. All cycle arithmetic in the engines routes through
  /// this integer form; simulation times are exact integers in double.
  [[nodiscard]] std::int64_t base_latency_cycles(std::int32_t hops) const noexcept {
    return (static_cast<std::int64_t>(hops) + 1) * (1 + params_.st) + params_.packet_len;
  }
  [[nodiscard]] double base_latency(std::int32_t hops) const noexcept {
    return static_cast<double>(base_latency_cycles(hops));
  }

  /// Cycles one channel is occupied by one uncontended crossing (the analytic
  /// mode's per-channel service time): held from acquisition until the worm
  /// slides P_len channels ahead.
  [[nodiscard]] std::int64_t channel_hold_cycles() const noexcept {
    return static_cast<std::int64_t>(params_.packet_len) * (1 + params_.st) + 1;
  }

  /// Drops all state between replications, including packets a run stopped
  /// early left in flight and their unmatched verify-mode deliveries. The
  /// simulator's pending events must be dropped with it (Simulator::reset),
  /// as SystemSim does: they name packets and channels that no longer exist.
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
    double acq_time{0};          // holder's (possibly future) acquisition time
    double rel_time{kNoRelease};  // known release time, +inf until learned
    std::uint32_t epoch{0};       // cancels stale grant events on truncation
    bool reserved{false};         // held by a batched run's virtual (future)
                                  // acquisition, not a realized one — only
                                  // reservations can be truncated
    bool grant_scheduled{false};  // a grant event targets rel_time
    bool dirty{false};            // queued for arbitration this timestamp
  };

  struct Packet {
    std::vector<ChannelId> path;
    std::int32_t next{0};          // next path index to attempt
    std::int32_t res_end{0};       // one past the last reserved path index
    std::int32_t next_waiter{-1};  // FIFO link while blocked on a channel
    std::uint64_t seq{0};          // injection order; arbitration tie-break
    std::uint32_t run_epoch{0};    // cancels stale arrival/run-end events
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

  // One cycle engine's complete state. stepped/batched share all mechanics
  // except the continuation after a grant; kVerify instantiates two.
  struct EngineState {
    bool stepped{false};
    bool shadow{false};  // verify shadow: no metrics/recorder/sink
    std::vector<Channel> channels;
    std::vector<Packet> pool;
    std::vector<std::int32_t> free_pool;
    std::vector<ChannelId> dirty;      // channels awaiting arbitration
    std::vector<Ejection> ejections;   // completions this timestamp
    std::vector<ChannelId> touched;    // verify: channels to cross-check
    std::uint64_t next_seq{0};
    double arb_time{-1.0};  // timestamp with a scheduled arbitration event
  };

  struct VerifyRec {
    double time{0};
    double latency{0};
    double blocked{0};
    std::int32_t hops{0};
    bool from_shadow{false};
  };

  // Event payloads: `a` is a packet pool index or a channel id, `b` is
  // stamp(st, epoch) — the epoch that cancels stale events, shifted past the
  // bit that says which engine state (primary or verify shadow) owns it.
  [[nodiscard]] static std::uint64_t stamp(const EngineState& st, std::uint32_t epoch) noexcept {
    return std::uint64_t{epoch} << 1 | (st.shadow ? 1U : 0U);
  }
  [[nodiscard]] static std::uint32_t epoch_of(std::uint64_t b) noexcept {
    return static_cast<std::uint32_t>(b >> 1);
  }
  [[nodiscard]] EngineState& state_of(std::uint64_t b) noexcept {
    return (b & 1U) != 0 ? *shadow_ : *primary_;
  }
  // Event handlers (one registered kind each).
  static void on_pass(void* ctx, std::uint32_t, std::uint64_t b);
  static void on_grant(void* ctx, std::uint32_t cid, std::uint64_t b);
  static void on_attempt(void* ctx, std::uint32_t pkt, std::uint64_t b);
  static void on_eject(void* ctx, std::uint32_t pkt, std::uint64_t b);
  static void on_deliver(void* ctx, std::uint32_t pkt, std::uint64_t b);
  static void on_analytic(void* ctx, std::uint32_t slot, std::uint64_t);

  [[nodiscard]] std::int32_t alloc_packet(EngineState& st, mesh::NodeId src,
                                          mesh::NodeId dst, std::uint64_t tag);
  void register_attempt(EngineState& st, std::int32_t pkt, double t);
  void ensure_arbitration(EngineState& st);
  void mark_dirty(EngineState& st, ChannelId ch);
  void run_pass(EngineState& st);
  void arbitrate(EngineState& st, ChannelId ch, double t);
  void grant(EngineState& st, std::int32_t pkt, double t);
  void step_acquire(EngineState& st, std::int32_t pkt, double t);
  void start_run(EngineState& st, std::int32_t pkt, double t);
  void truncate(EngineState& st, ChannelId ch, double t);
  void set_release(EngineState& st, ChannelId ch, double when);
  void complete(EngineState& st, std::int32_t pkt, double t_eject);
  void deliver(EngineState& st, std::int32_t pkt);
  void recycle(EngineState& st, std::int32_t pkt);
  void inject_analytic(mesh::NodeId src, mesh::NodeId dst, std::uint64_t tag);
  void verify_match(std::uint64_t id, const VerifyRec& rec);
  void verify_compare_states();
  void reset_state(EngineState& st);

  des::Simulator& sim_;
  ChannelMap map_;
  NetworkParams params_;
  NetworkMetrics metrics_;
  NetStats stats_;
  std::unique_ptr<EngineState> primary_;
  std::unique_ptr<EngineState> shadow_;  // kVerify only
  std::vector<double> busy_cycles_;      // kAnalytic per-channel utilization
  std::vector<Delivery> analytic_;       // kAnalytic deliveries in flight
  std::vector<std::uint32_t> analytic_free_;  // reusable analytic_ slots
  std::unordered_map<std::uint64_t, VerifyRec> verify_pending_;
  des::EventKind kind_pass_{0};
  des::EventKind kind_grant_{0};
  des::EventKind kind_attempt_{0};
  des::EventKind kind_eject_{0};
  des::EventKind kind_deliver_{0};
  des::EventKind kind_analytic_{0};
  bool verify_cmp_armed_{false};
  DeliverySink sink_{nullptr};
  void* sink_ctx_{nullptr};
  obs::Recorder* rec_{nullptr};  ///< non-owning; null = observability off
};

}  // namespace procsim::network
