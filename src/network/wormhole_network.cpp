#include "network/wormhole_network.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "obs/recorder.hpp"

namespace procsim::network {

namespace {

std::size_t run_len_bucket(std::int32_t n) noexcept {
  if (n <= 1) return 0;
  if (n <= 3) return 1;
  if (n <= 7) return 2;
  if (n <= 15) return 3;
  if (n <= 31) return 4;
  return 5;
}

}  // namespace

NetEngine default_net_engine() {
  static const NetEngine parsed = [] {
    const char* env = std::getenv("PROCSIM_NET_ENGINE");
    if (env == nullptr || *env == '\0') return NetEngine::kBatched;
    return parse_net_engine(env);
  }();
  return parsed;
}

NetEngine parse_net_engine(std::string_view name) {
  if (name == "stepped") return NetEngine::kStepped;
  if (name == "batched") return NetEngine::kBatched;
  if (name == "verify") return NetEngine::kVerify;
  if (name == "analytic") return NetEngine::kAnalytic;
  throw std::invalid_argument(
      "net engine must be stepped, batched, verify or analytic (got '" +
      std::string(name) + "')");
}

const char* net_engine_name(NetEngine engine) noexcept {
  switch (engine) {
    case NetEngine::kStepped: return "stepped";
    case NetEngine::kBatched: return "batched";
    case NetEngine::kVerify: return "verify";
    case NetEngine::kAnalytic: return "analytic";
  }
  return "?";
}

WormholeNetwork::WormholeNetwork(des::Simulator& sim, mesh::Geometry geom,
                                 NetworkParams params)
    : sim_(sim), map_(geom, params.torus), params_(params) {
  if (params.st < 0 || params.packet_len < 1)
    throw std::invalid_argument("WormholeNetwork: bad parameters");
  kind_pass_ = sim_.add_handler(&on_pass, this);
  kind_grant_ = sim_.add_handler(&on_grant, this);
  kind_attempt_ = sim_.add_handler(&on_attempt, this);
  kind_eject_ = sim_.add_handler(&on_eject, this);
  kind_deliver_ = sim_.add_handler(&on_deliver, this);
  kind_analytic_ = sim_.add_handler(&on_analytic, this);
  const auto n_channels = static_cast<std::size_t>(map_.channel_count());
  if (params_.engine == NetEngine::kAnalytic) {
    busy_cycles_.assign(n_channels, 0.0);
    return;
  }
  primary_ = std::make_unique<EngineState>();
  primary_->stepped = (params_.engine == NetEngine::kStepped);
  primary_->channels.resize(n_channels);
  if (params_.engine == NetEngine::kVerify) {
    shadow_ = std::make_unique<EngineState>();
    shadow_->stepped = true;
    shadow_->shadow = true;
    shadow_->channels.resize(n_channels);
  }
}

// ---------------------------------------------------------------------------
// Event handlers. The grant, attempt and eject continuations carry the
// channel or packet epoch they were scheduled under and do nothing once a
// truncation has moved it on.
// ---------------------------------------------------------------------------

void WormholeNetwork::on_pass(void* ctx, std::uint32_t, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  self->run_pass(self->state_of(b));
}

void WormholeNetwork::on_grant(void* ctx, std::uint32_t cid, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  EngineState& st = self->state_of(b);
  Channel& c = st.channels[cid];
  if (c.epoch != epoch_of(b)) return;
  c.grant_scheduled = false;
  self->mark_dirty(st, static_cast<ChannelId>(cid));
  self->ensure_arbitration(st);
}

void WormholeNetwork::on_attempt(void* ctx, std::uint32_t pkt, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  EngineState& st = self->state_of(b);
  if (st.pool[pkt].run_epoch != epoch_of(b)) return;
  self->register_attempt(st, static_cast<std::int32_t>(pkt), self->sim_.now());
}

void WormholeNetwork::on_eject(void* ctx, std::uint32_t pkt, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  EngineState& st = self->state_of(b);
  const Packet& p = st.pool[pkt];
  if (p.run_epoch != epoch_of(b)) return;
  st.ejections.push_back({static_cast<std::int32_t>(pkt), p.path.back(), p.run_epoch});
  self->ensure_arbitration(st);
}

void WormholeNetwork::on_deliver(void* ctx, std::uint32_t pkt, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  self->deliver(self->state_of(b), static_cast<std::int32_t>(pkt));
}

void WormholeNetwork::on_analytic(void* ctx, std::uint32_t slot, std::uint64_t) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  const Delivery d = self->analytic_[slot];
  self->analytic_free_.push_back(slot);
  self->metrics_.latency.add(d.latency);
  self->metrics_.blocking.add(d.blocked);
  self->metrics_.hops.add(static_cast<double>(d.hops));
  ++self->metrics_.delivered;
  if (self->rec_ != nullptr)
    self->rec_->packet_deliver(self->sim_.now(), d.tag, static_cast<std::int32_t>(d.src),
                               static_cast<std::int32_t>(d.dst), d.hops, d.latency,
                               d.blocked);
  if (self->sink_ != nullptr) self->sink_(self->sink_ctx_, d);
}

std::int32_t WormholeNetwork::alloc_packet(EngineState& st, mesh::NodeId src,
                                           mesh::NodeId dst, std::uint64_t tag) {
  std::int32_t idx;
  if (!st.free_pool.empty()) {
    idx = st.free_pool.back();
    st.free_pool.pop_back();
  } else {
    idx = static_cast<std::int32_t>(st.pool.size());
    st.pool.emplace_back();
  }
  Packet& p = st.pool[static_cast<std::size_t>(idx)];
  p.path = map_.route(src, dst);  // reuses pool slot; vector realloc amortises
  p.next = 0;
  p.res_end = 0;
  p.next_waiter = -1;
  p.seq = st.next_seq++;
  // run_epoch deliberately not reset: a recycled slot keeps growing it so any
  // straggler event stamped for the previous occupant can never match.
  p.inject_time = sim_.now();
  p.attempt_time = 0;
  p.blocked = 0;
  p.tag = tag;
  p.src = src;
  p.dst = dst;
  p.fresh_block = false;
  return idx;
}

void WormholeNetwork::inject(mesh::NodeId src, mesh::NodeId dst, std::uint64_t tag) {
  if (params_.engine == NetEngine::kAnalytic) {
    inject_analytic(src, dst, tag);
    return;
  }
  ++metrics_.injected;
  if (rec_ != nullptr)
    rec_->packet_inject(sim_.now(), tag, static_cast<std::int32_t>(src),
                        static_cast<std::int32_t>(dst));
  const std::int32_t p = alloc_packet(*primary_, src, dst, tag);
  register_attempt(*primary_, p, sim_.now());
  if (shadow_ != nullptr) {
    const std::int32_t s = alloc_packet(*shadow_, src, dst, tag);
    register_attempt(*shadow_, s, sim_.now());
  }
}

// Inserts `pkt` into the channel's waiter FIFO keyed by (attempt_time, seq).
// Insertion is at the tail except among same-instant attempts, so the walk
// is O(1) in practice.
namespace {
struct FifoKey {
  double t;
  std::uint64_t seq;
  [[nodiscard]] bool before(double ot, std::uint64_t oseq) const noexcept {
    return t < ot || (t == ot && seq < oseq);
  }
};
}  // namespace

void WormholeNetwork::register_attempt(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  p.attempt_time = t;
  p.fresh_block = true;
  const ChannelId cid = p.path[static_cast<std::size_t>(p.next)];
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  p.next_waiter = -1;
  if (ch.wait_tail < 0) {
    ch.wait_head = ch.wait_tail = pkt;
  } else {
    Packet& tail = st.pool[static_cast<std::size_t>(ch.wait_tail)];
    if (FifoKey{tail.attempt_time, tail.seq}.before(t, p.seq)) {
      tail.next_waiter = pkt;
      ch.wait_tail = pkt;
    } else {
      std::int32_t prev = -1;
      std::int32_t cur = ch.wait_head;
      while (cur >= 0) {
        const Packet& w = st.pool[static_cast<std::size_t>(cur)];
        if (FifoKey{t, p.seq}.before(w.attempt_time, w.seq)) break;
        prev = cur;
        cur = w.next_waiter;
      }
      p.next_waiter = cur;
      if (prev < 0)
        ch.wait_head = pkt;
      else
        st.pool[static_cast<std::size_t>(prev)].next_waiter = pkt;
      if (cur < 0) ch.wait_tail = pkt;
    }
  }
  mark_dirty(st, cid);
  ensure_arbitration(st);
}

void WormholeNetwork::mark_dirty(EngineState& st, ChannelId cid) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  if (ch.dirty) return;
  ch.dirty = true;
  st.dirty.push_back(cid);
  if (params_.engine == NetEngine::kVerify) st.touched.push_back(cid);
}

void WormholeNetwork::ensure_arbitration(EngineState& st) {
  const double now = sim_.now();
  if (st.arb_time == now) return;
  st.arb_time = now;
  sim_.schedule_at(now, kind_pass_, 0, stamp(st, 0));
}

// The canonical arbitration pass: runs once per network-active timestamp
// after every other event at that time, resolving contested channels in
// ascending id order, then flushing ejection completions sorted by ejection
// channel. Both engines funnel through here, which pins every tie-break to
// an engine-independent order.
void WormholeNetwork::run_pass(EngineState& st) {
  const double t = sim_.now();
  st.arb_time = -1.0;  // later registrations at this timestamp re-arm
  std::sort(st.dirty.begin(), st.dirty.end());
  for (std::size_t i = 0; i < st.dirty.size(); ++i) arbitrate(st, st.dirty[i], t);
  st.dirty.clear();
  std::sort(st.ejections.begin(), st.ejections.end(),
            [](const Ejection& a, const Ejection& b) { return a.ch < b.ch; });
  for (std::size_t i = 0; i < st.ejections.size(); ++i) {
    const Ejection& e = st.ejections[i];
    if (st.pool[static_cast<std::size_t>(e.pkt)].run_epoch == e.epoch)
      complete(st, e.pkt, t);
  }
  st.ejections.clear();
  if (params_.engine == NetEngine::kVerify && !verify_cmp_armed_) {
    verify_cmp_armed_ = true;
    sim_.at_batch_end([this] {
      verify_cmp_armed_ = false;
      verify_compare_states();
    });
  }
}

void WormholeNetwork::arbitrate(EngineState& st, ChannelId cid, double t) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.dirty = false;
  if (ch.holder >= 0 && ch.rel_time <= t) {  // lazy release
    ch.holder = -1;
    ch.acq_time = 0;
    ch.rel_time = kNoRelease;
    ch.reserved = false;
  }
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.reserved && ch.acq_time >= t) {
    // The holder only reserved this channel (acquisition at or after now):
    // an attempt with a smaller canonical key arrived first and steals it.
    // Realized acquisitions are never truncated — a holder granted at this
    // very timestamp may have leftover waiters with earlier attempt times,
    // and those already lost their arbitration.
    const Packet& w = st.pool[static_cast<std::size_t>(ch.wait_head)];
    const Packet& h = st.pool[static_cast<std::size_t>(ch.holder)];
    if (FifoKey{w.attempt_time, w.seq}.before(ch.acq_time, h.seq))
      truncate(st, cid, t);
  }
  if (ch.holder < 0 && ch.wait_head >= 0) {
    const std::int32_t winner = ch.wait_head;
    Packet& w = st.pool[static_cast<std::size_t>(winner)];
    ch.wait_head = w.next_waiter;
    if (ch.wait_head < 0) ch.wait_tail = -1;
    w.next_waiter = -1;
    w.blocked += t - w.attempt_time;
    w.fresh_block = false;
    grant(st, winner, t);
  }
  // Attempts that stayed blocked this pass are reported once, in FIFO order.
  for (std::int32_t i = ch.wait_head; i >= 0;
       i = st.pool[static_cast<std::size_t>(i)].next_waiter) {
    Packet& w = st.pool[static_cast<std::size_t>(i)];
    if (w.fresh_block) {
      w.fresh_block = false;
      if (rec_ != nullptr && !st.shadow) rec_->channel_block(t, w.tag, cid);
    }
  }
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.rel_time != kNoRelease &&
      !ch.grant_scheduled) {
    ch.grant_scheduled = true;
    sim_.schedule_at(ch.rel_time, kind_grant_, static_cast<std::uint32_t>(cid),
                     stamp(st, ch.epoch));
  }
}

void WormholeNetwork::grant(EngineState& st, std::int32_t pkt, double t) {
  if (st.stepped)
    step_acquire(st, pkt, t);
  else
    start_run(st, pkt, t);
}

// Stepped (oracle) continuation: acquire exactly one channel and schedule
// the next attempt 1 + st cycles ahead — O(hops) events per packet.
void WormholeNetwork::step_acquire(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const std::int32_t i = p.next;
  const ChannelId cid = p.path[static_cast<std::size_t>(i)];
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.holder = pkt;
  ch.acq_time = t;
  ch.rel_time = kNoRelease;
  ch.reserved = false;
  p.next = i + 1;
  p.res_end = i + 1;
  // The worm spans at most P_len channels: acquiring channel i slides the
  // tail out of channel i - P_len one cycle later.
  if (i >= params_.packet_len)
    set_release(st, p.path[static_cast<std::size_t>(i - params_.packet_len)], t + 1.0);
  if (static_cast<std::size_t>(i) + 1 == p.path.size()) {
    st.ejections.push_back({pkt, cid, p.run_epoch});  // flushed by this pass
  } else {
    sim_.schedule_at(t + static_cast<double>(1 + params_.st), kind_attempt_,
                     static_cast<std::uint32_t>(pkt), stamp(st, p.run_epoch));
  }
}

// Batched continuation: acquire the maximal run of currently-free consecutive
// path channels in one shot. Channels past the first are reservations with
// future acquisition times (t + k*(1+st)); worm-slide releases inside the run
// are computed arithmetically. One event total: the virtual arrival at the
// first non-free channel (or the ejection completion).
void WormholeNetwork::start_run(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const std::int32_t first = p.next;
  const std::int32_t plen = params_.packet_len;
  const std::int64_t step = 1 + params_.st;
  {
    Channel& head = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(first)])];
    head.holder = pkt;
    head.acq_time = t;
    head.rel_time = kNoRelease;
    head.reserved = false;
  }
  if (first >= plen)
    set_release(st, p.path[static_cast<std::size_t>(first - plen)], t + 1.0);
  if (params_.engine == NetEngine::kVerify)
    st.touched.push_back(p.path[static_cast<std::size_t>(first)]);
  std::int32_t j = first + 1;
  while (j < len) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(j)])];
    if (ch.holder >= 0 && ch.rel_time <= t) {  // lazy release
      ch.holder = -1;
      ch.acq_time = 0;
      ch.rel_time = kNoRelease;
      ch.reserved = false;
    }
    if (ch.holder >= 0 || ch.wait_head >= 0) break;
    const double vt = t + static_cast<double>(static_cast<std::int64_t>(j - first) * step);
    ch.holder = pkt;
    ch.acq_time = vt;
    ch.rel_time = kNoRelease;
    ch.reserved = true;
    if (j >= plen)
      set_release(st, p.path[static_cast<std::size_t>(j - plen)], vt + 1.0);
    if (params_.engine == NetEngine::kVerify)
      st.touched.push_back(p.path[static_cast<std::size_t>(j)]);
    ++j;
  }
  p.next = j;
  p.res_end = j;
  ++stats_.runs_batched;
  ++stats_.run_len_hist[run_len_bucket(j - first)];
  const std::uint32_t e = p.run_epoch;
  if (j == len) {
    const ChannelId ej = p.path[static_cast<std::size_t>(len - 1)];
    const double t_eject = st.channels[static_cast<std::size_t>(ej)].acq_time;
    if (t_eject == t) {
      st.ejections.push_back({pkt, ej, e});  // flushed by this pass
    } else {
      sim_.schedule_at(t_eject, kind_eject_, static_cast<std::uint32_t>(pkt), stamp(st, e));
    }
  } else {
    const double arrive = t + static_cast<double>(static_cast<std::int64_t>(j - first) * step);
    sim_.schedule_at(arrive, kind_attempt_, static_cast<std::uint32_t>(pkt), stamp(st, e));
  }
}

// An attempt with a smaller canonical key arrived before the reservation's
// acquisition time: the reservation (and everything the holder reserved
// downstream of it) is rolled back and the holder re-attempts at the time it
// would have arrived — exactly where the stepped engine's per-hop header
// would have been.
void WormholeNetwork::truncate(EngineState& st, ChannelId cid, double t) {
  Channel& target = st.channels[static_cast<std::size_t>(cid)];
  const std::int32_t victim = target.holder;
  Packet& p = st.pool[static_cast<std::size_t>(victim)];
  std::int32_t cut = p.res_end - 1;
  while (cut >= 0 && p.path[static_cast<std::size_t>(cut)] != cid) --cut;
  const double arrive = target.acq_time;
  for (std::int32_t m = cut; m < p.res_end; ++m) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(m)])];
    ch.holder = -1;
    ch.acq_time = 0;
    ch.rel_time = kNoRelease;
    ch.reserved = false;
    ++ch.epoch;
    ch.grant_scheduled = false;
  }
  // Slide releases of the worm's tail were computed from the freed
  // acquisitions; they are unknown again until the holder advances.
  for (std::int32_t m = std::max(0, cut - params_.packet_len); m < cut; ++m) {
    Channel& ch = st.channels[static_cast<std::size_t>(p.path[static_cast<std::size_t>(m)])];
    if (ch.holder == victim) {
      ch.rel_time = kNoRelease;
      ++ch.epoch;
      ch.grant_scheduled = false;
    }
  }
  ++p.run_epoch;  // cancels the pending arrival / ejection event
  p.next = cut;
  p.res_end = cut;
  ++stats_.truncations;
  if (arrive == t) {
    // Re-attempt right now: joins this very arbitration with its true key.
    p.attempt_time = t;
    p.fresh_block = true;
    p.next_waiter = -1;
    Channel& ch = target;
    if (ch.wait_tail < 0) {
      ch.wait_head = ch.wait_tail = victim;
    } else {
      std::int32_t prev = -1;
      std::int32_t cur = ch.wait_head;
      while (cur >= 0) {
        const Packet& w = st.pool[static_cast<std::size_t>(cur)];
        if (FifoKey{t, p.seq}.before(w.attempt_time, w.seq)) break;
        prev = cur;
        cur = w.next_waiter;
      }
      p.next_waiter = cur;
      if (prev < 0)
        ch.wait_head = victim;
      else
        st.pool[static_cast<std::size_t>(prev)].next_waiter = victim;
      if (cur < 0) ch.wait_tail = victim;
    }
  } else {
    sim_.schedule_at(arrive, kind_attempt_, static_cast<std::uint32_t>(victim),
                     stamp(st, p.run_epoch));
  }
}

void WormholeNetwork::set_release(EngineState& st, ChannelId cid, double when) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.rel_time = when;
  if (ch.wait_head >= 0 && !ch.grant_scheduled) {
    ch.grant_scheduled = true;
    sim_.schedule_at(when, kind_grant_, static_cast<std::uint32_t>(cid), stamp(st, ch.epoch));
  }
}

void WormholeNetwork::complete(EngineState& st, std::int32_t pkt, double t_eject) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const double t_done = t_eject + static_cast<double>(params_.packet_len);
  // Channels without a slide-release: the last min(P_len, len) drain
  // back-to-front behind the ejected header.
  const std::int32_t h = std::min(params_.packet_len, len);
  for (std::int32_t d = h - 1; d >= 0; --d)
    set_release(st, p.path[static_cast<std::size_t>(len - 1 - d)],
                t_done - static_cast<double>(d));
  sim_.schedule_at(t_done, kind_deliver_, static_cast<std::uint32_t>(pkt), stamp(st, 0));
}

void WormholeNetwork::deliver(EngineState& st, std::int32_t pkt) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  Delivery d;
  d.tag = p.tag;
  d.src = p.src;
  d.dst = p.dst;
  d.latency = sim_.now() - p.inject_time;
  d.blocked = p.blocked;
  d.hops = static_cast<std::int32_t>(p.path.size()) - 2;
  const std::uint64_t id = p.seq;
  if (st.shadow) {
    verify_match(id, VerifyRec{sim_.now(), d.latency, d.blocked, d.hops, true});
    recycle(st, pkt);
    return;
  }
  metrics_.latency.add(d.latency);
  metrics_.blocking.add(d.blocked);
  metrics_.hops.add(static_cast<double>(d.hops));
  ++metrics_.delivered;
  if (params_.engine == NetEngine::kVerify)
    verify_match(id, VerifyRec{sim_.now(), d.latency, d.blocked, d.hops, false});
  if (rec_ != nullptr)
    rec_->packet_deliver(sim_.now(), d.tag, static_cast<std::int32_t>(d.src),
                         static_cast<std::int32_t>(d.dst), d.hops, d.latency,
                         d.blocked);
  recycle(st, pkt);
  if (sink_ != nullptr) sink_(sink_ctx_, d);
}

void WormholeNetwork::recycle(EngineState& st, std::int32_t pkt) {
  st.pool[static_cast<std::size_t>(pkt)].path.clear();
  st.free_pool.push_back(pkt);
}

// Analytic fast mode: one event per packet. Latency is the contention-free
// base plus an M/M/1-style waiting term rho/(1-rho) * S per path channel,
// where rho is the channel's running utilization (busy cycles / elapsed
// time, capped at 0.95) and S = channel_hold_cycles(). Trend-accurate only:
// cross-validated against the cycle model with a tolerance band, never
// byte-compared.
void WormholeNetwork::inject_analytic(mesh::NodeId src, mesh::NodeId dst,
                                      std::uint64_t tag) {
  ++metrics_.injected;
  ++stats_.analytic_packets;
  if (rec_ != nullptr)
    rec_->packet_inject(sim_.now(), tag, static_cast<std::int32_t>(src),
                        static_cast<std::int32_t>(dst));
  const std::vector<ChannelId> path = map_.route(src, dst);
  const auto hops = static_cast<std::int32_t>(path.size()) - 2;
  const double service = static_cast<double>(channel_hold_cycles());
  const double elapsed = std::max(sim_.now(), 1.0);
  double wait = 0;
  for (const ChannelId cid : path) {
    const double rho =
        std::min(busy_cycles_[static_cast<std::size_t>(cid)] / elapsed, 0.95);
    wait += rho / (1.0 - rho) * service;
  }
  for (const ChannelId cid : path)
    busy_cycles_[static_cast<std::size_t>(cid)] += service;
  const double latency = static_cast<double>(base_latency_cycles(hops)) + wait;
  // The delivery waits in a slot-reused side table; the event carries the slot.
  std::uint32_t slot;
  if (analytic_free_.empty()) {
    slot = static_cast<std::uint32_t>(analytic_.size());
    analytic_.emplace_back();
  } else {
    slot = analytic_free_.back();
    analytic_free_.pop_back();
  }
  analytic_[slot] = Delivery{tag, src, dst, latency, wait, hops};
  sim_.schedule_at(sim_.now() + latency, kind_analytic_, slot);
}

void WormholeNetwork::verify_match(std::uint64_t id, const VerifyRec& rec) {
  auto it = verify_pending_.find(id);
  if (it == verify_pending_.end()) {
    verify_pending_.emplace(id, rec);
    return;
  }
  const VerifyRec& other = it->second;
  if (other.from_shadow == rec.from_shadow)
    throw std::logic_error("WormholeNetwork verify: duplicate delivery for packet " +
                           std::to_string(id));
  if (other.time != rec.time || other.latency != rec.latency ||
      other.blocked != rec.blocked || other.hops != rec.hops)
    throw std::logic_error(
        "WormholeNetwork verify: batched/stepped delivery mismatch for packet " +
        std::to_string(id) + " (time " + std::to_string(other.time) + " vs " +
        std::to_string(rec.time) + ", latency " + std::to_string(other.latency) +
        " vs " + std::to_string(rec.latency) + ", blocked " +
        std::to_string(other.blocked) + " vs " + std::to_string(rec.blocked) + ")");
  verify_pending_.erase(it);
}

// Lock-step state cross-check, run at the end of every network-active
// timestamp (after both engines' passes): for every channel either engine
// touched, the effective holder and the waiter FIFO (order included) must
// agree. Batched reservations whose acquisition lies in the future must be
// free in the stepped engine — the per-hop header has not arrived yet.
void WormholeNetwork::verify_compare_states() {
  const double t = sim_.now();
  std::vector<ChannelId> all;
  all.reserve(primary_->touched.size() + shadow_->touched.size());
  all.insert(all.end(), primary_->touched.begin(), primary_->touched.end());
  all.insert(all.end(), shadow_->touched.begin(), shadow_->touched.end());
  primary_->touched.clear();
  shadow_->touched.clear();
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto eff = [t](const EngineState& st, const Channel& c) -> std::int64_t {
    if (c.holder < 0 || c.rel_time <= t) return -1;
    return static_cast<std::int64_t>(
        st.pool[static_cast<std::size_t>(c.holder)].seq);
  };
  for (const ChannelId cid : all) {
    const Channel& a = primary_->channels[static_cast<std::size_t>(cid)];
    const Channel& b = shadow_->channels[static_cast<std::size_t>(cid)];
    if (a.holder >= 0 && a.acq_time > t) {
      if (eff(*shadow_, b) != -1)
        throw std::logic_error(
            "WormholeNetwork verify: stepped holds channel " +
            std::to_string(cid) + " that batched only reserved");
    } else if (eff(*primary_, a) != eff(*shadow_, b)) {
      throw std::logic_error("WormholeNetwork verify: holder mismatch on channel " +
                             std::to_string(cid) + " at t=" + std::to_string(t));
    }
    std::int32_t wa = a.wait_head;
    std::int32_t wb = b.wait_head;
    while (wa >= 0 && wb >= 0) {
      const Packet& pa = primary_->pool[static_cast<std::size_t>(wa)];
      const Packet& pb = shadow_->pool[static_cast<std::size_t>(wb)];
      if (pa.seq != pb.seq || pa.attempt_time != pb.attempt_time)
        throw std::logic_error(
            "WormholeNetwork verify: waiter FIFO mismatch on channel " +
            std::to_string(cid) + " at t=" + std::to_string(t));
      wa = pa.next_waiter;
      wb = pb.next_waiter;
    }
    if (wa >= 0 || wb >= 0)
      throw std::logic_error(
          "WormholeNetwork verify: waiter FIFO length mismatch on channel " +
          std::to_string(cid) + " at t=" + std::to_string(t));
  }
}

void WormholeNetwork::reset_state(EngineState& st) {
  std::fill(st.channels.begin(), st.channels.end(), Channel{});
  st.pool.clear();
  st.free_pool.clear();
  st.dirty.clear();
  st.ejections.clear();
  st.touched.clear();
  st.next_seq = 0;
  st.arb_time = -1.0;
}

void WormholeNetwork::reset() {
  if (primary_ != nullptr) reset_state(*primary_);
  if (shadow_ != nullptr) reset_state(*shadow_);
  std::fill(busy_cycles_.begin(), busy_cycles_.end(), 0.0);
  analytic_.clear();
  analytic_free_.clear();
  verify_pending_.clear();
  verify_cmp_armed_ = false;
  metrics_.reset();
  stats_.reset();
}

}  // namespace procsim::network
