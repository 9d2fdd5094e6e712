#include "network/wormhole_network.hpp"

#include <algorithm>
#include <cstdio>
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
    try {
      return parse_net_engine(env);
    } catch (const std::invalid_argument& e) {
      // First read by NetworkParams' default member initializer, where no
      // caller can catch, possibly on a worker thread: a usage error without
      // the static destructors std::exit would run under live threads.
      std::fprintf(stderr, "PROCSIM_NET_ENGINE: %s\n", e.what());
      std::fflush(stdout);
      std::_Exit(2);
    }
  }();
  return parsed;
}

NetEngine parse_net_engine(std::string_view name) {
  if (name == "stepped") return NetEngine::kStepped;
  if (name == "batched") return NetEngine::kBatched;
  if (name == "verify") return NetEngine::kVerify;
  throw std::invalid_argument("net engine must be stepped, batched or verify (got '" +
                              std::string(name) + "')");
}

const char* net_engine_name(NetEngine engine) noexcept {
  switch (engine) {
    case NetEngine::kStepped: return "stepped";
    case NetEngine::kBatched: return "batched";
    case NetEngine::kVerify: return "verify";
  }
  return "?";
}

WormholeNetwork::WormholeNetwork(des::Simulator& sim, mesh::Geometry geom,
                                 NetworkParams params)
    : sim_(sim), map_(geom, params.torus), params_(params) {
  if (params.st < 0 || params.packet_len < 1)
    throw std::invalid_argument("WormholeNetwork: bad parameters");
  kind_pass_ = sim_.add_handler(&on_pass, this);
  kind_bucket_ = sim_.add_handler(&on_bucket, this);
  kind_deliver_ = sim_.add_handler(&on_deliver, this);
  kind_compare_ = sim_.add_handler(&on_compare, this);
  bucket_index_.fill(-1);
  const auto n_channels = static_cast<std::size_t>(map_.channel_count());
  primary_.stepped = (params_.engine == NetEngine::kStepped);
  primary_.channels.resize(n_channels);
  if (params_.engine == NetEngine::kVerify) {
    shadow_ = std::make_unique<EngineState>();
    shadow_->stepped = true;
    shadow_->shadow = true;
    shadow_->channels.resize(n_channels);
  }
}

// ---------------------------------------------------------------------------
// Event handlers.
// ---------------------------------------------------------------------------

void WormholeNetwork::on_pass(void* ctx, std::uint32_t, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  self->run_pass(self->state_of(b));
}

void WormholeNetwork::on_bucket(void* ctx, std::uint32_t bucket, std::uint64_t) {
  static_cast<WormholeNetwork*>(ctx)->fire_bucket(bucket);
}

void WormholeNetwork::on_deliver(void* ctx, std::uint32_t pkt, std::uint64_t b) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  self->deliver(self->state_of(b), static_cast<std::int32_t>(pkt));
}

// Verify's state comparison runs once neither engine has a pass armed at
// this timestamp. While one has (a same-time injection re-armed an engine
// whose pass already ran, queueing that pass behind this event), it queues
// itself again behind that pass. It waits for nothing else, so the
// comparisons of several networks on one clock never queue behind each
// other forever. An injection from a later same-time event re-arms both
// engines, and their first pass queues a fresh comparison.
void WormholeNetwork::on_compare(void* ctx, std::uint32_t, std::uint64_t) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  const double now = self->sim_.now();
  if (self->primary_.arb_time == now || self->shadow_->arb_time == now) {
    self->sim_.schedule_at(now, self->kind_compare_);
    return;
  }
  self->verify_cmp_armed_ = false;
  self->verify_compare_states();
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
  map_.route(src, dst, p.path);  // into the pooled slot's path capacity
  p.next = 0;
  p.res_end = 0;
  p.next_waiter = -1;
  p.seq = st.next_seq++;
  // run_epoch deliberately not reset: a recycled slot keeps growing it so any
  // straggler work filed for the previous occupant can never match.
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
  ++stats_.injected;
  if (rec_ != nullptr)
    rec_->packet_inject(sim_.now(), tag, static_cast<std::int32_t>(src),
                        static_cast<std::int32_t>(dst));
  const std::int32_t p = alloc_packet(primary_, src, dst, tag);
  register_attempt(primary_, p, sim_.now());
  ensure_arbitration(primary_);
  if (shadow_ != nullptr) {
    const std::int32_t s = alloc_packet(*shadow_, src, dst, tag);
    register_attempt(*shadow_, s, sim_.now());
    ensure_arbitration(*shadow_);
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

// Queues the packet's attempt at its next path channel for the pass at `t`.
// The caller arms that pass: inject() through ensure_arbitration, a bucket
// after applying all of its work.
void WormholeNetwork::register_attempt(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  p.attempt_time = t;
  p.fresh_block = true;
  const ChannelId cid = p.path[static_cast<std::size_t>(p.next)];
  enqueue_waiter(st, st.channels[static_cast<std::size_t>(cid)], pkt);
  mark_dirty(st, cid);
}

// Sorted insertion by the packet's (attempt_time, seq), so the final FIFO
// does not depend on the order attempts are queued in.
void WormholeNetwork::enqueue_waiter(EngineState& st, Channel& ch, std::int32_t pkt) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const FifoKey key{p.attempt_time, p.seq};
  p.next_waiter = -1;
  if (ch.wait_tail < 0) {
    ch.wait_head = ch.wait_tail = pkt;
    return;
  }
  Packet& tail = st.pool[static_cast<std::size_t>(ch.wait_tail)];
  if (FifoKey{tail.attempt_time, tail.seq}.before(key.t, key.seq)) {
    tail.next_waiter = pkt;
    ch.wait_tail = pkt;
    return;
  }
  std::int32_t prev = -1;
  std::int32_t cur = ch.wait_head;
  while (cur >= 0) {
    const Packet& w = st.pool[static_cast<std::size_t>(cur)];
    if (key.before(w.attempt_time, w.seq)) break;
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
  sim_.schedule_at(now, kind_pass_, 0, state_bit(st));
}

// Files work for time `t` (always later than now) into t's bucket. The first
// filing for a timestamp opens the bucket and schedules its one event, which
// so takes the (time, seq) slot a per-work event for that filing would have.
void WormholeNetwork::file(const EngineState& st, Work work, std::uint32_t id,
                           std::uint32_t epoch, double t) {
  std::int32_t& slot = bucket_index_[bucket_slot(t)];
  if (slot < 0 || buckets_[static_cast<std::size_t>(slot)].time != t) {
    std::uint32_t b;
    if (free_buckets_.empty()) {
      b = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      b = free_buckets_.back();
      free_buckets_.pop_back();
    }
    buckets_[b].time = t;
    sim_.schedule_at(t, kind_bucket_, b);
    slot = static_cast<std::int32_t>(b);
  }
  buckets_[static_cast<std::size_t>(slot)].regs.push_back(
      Registration{id, epoch, work, st.shadow});
}

// Applies one filed work item unless a truncation made it stale; returns
// whether it fed this timestamp's pass.
bool WormholeNetwork::apply(EngineState& st, const Registration& r, double t) {
  switch (r.work) {
    case Work::kAttempt:
      if (st.pool[r.id].run_epoch != r.epoch) return false;
      register_attempt(st, static_cast<std::int32_t>(r.id), t);
      return true;
    case Work::kEject: {
      const Packet& p = st.pool[r.id];
      if (p.run_epoch != r.epoch) return false;
      st.ejections.push_back({static_cast<std::int32_t>(r.id), p.path.back(), r.epoch});
      return true;
    }
    case Work::kGrant: {
      Channel& c = st.channels[r.id];
      if (c.epoch != r.epoch) return false;
      c.grant_scheduled = false;
      mark_dirty(st, static_cast<ChannelId>(r.id));
      return true;
    }
  }
  return false;
}

// One bucket event: apply everything filed for this timestamp in filing
// order, then run or queue the passes it fed, in the order the states first
// asked for one. This reproduces a kernel event per work item exactly:
//  * work only feeds the pass at its own timestamp;
//  * that pass runs after every heap event at the timestamp anyway (it sits
//    on the same-time lane), so applying later work early changes nothing
//    it reads;
//  * epochs change only inside passes, so the staleness checks give the
//    answers they would have given at each item's own slot;
//  * the pass runs inline only when nothing else is due at this timestamp,
//    i.e. exactly when its lane event would have been the next one popped.
// Otherwise the pass is queued where the first work item's event would have
// queued it. The one case that moves a pass: when the bucket's first items
// went stale, it is queued at the bucket's slot instead of at the first live
// item's, earlier than per-item events would have put it. The only lane
// events it can then move ahead of are same-time arrivals and zero-latency
// migrations, whose fresh packets contend only for their own injection
// channels, where the larger seq loses every tie either way.
void WormholeNetwork::fire_bucket(std::uint32_t id) {
  const double t = sim_.now();
  ++stats_.batches;
  std::int32_t& slot = bucket_index_[bucket_slot(t)];
  if (slot == static_cast<std::int32_t>(id)) slot = -1;
  EngineState* fed[2]{};
  int n_fed = 0;
  std::vector<Registration>& regs = buckets_[id].regs;
  for (const Registration& r : regs) {
    EngineState& st = r.shadow ? *shadow_ : primary_;
    if (apply(st, r, t) && st.arb_time != t) {
      st.arb_time = t;
      fed[n_fed++] = &st;
    }
  }
  regs.clear();
  free_buckets_.push_back(id);
  if (n_fed == 0) return;
  if (sim_.queue().empty() || sim_.queue().next_time() > t) {
    for (int i = 0; i < n_fed; ++i) {
      if (!fed[i]->shadow) ++stats_.inline_passes;
      run_pass(*fed[i]);
    }
  } else {
    for (int i = 0; i < n_fed; ++i)
      sim_.schedule_at(t, kind_pass_, 0, state_bit(*fed[i]));
  }
}

// The canonical arbitration pass: runs once per network-active timestamp
// after every other event at that time, resolving contested channels in
// ascending id order, then flushing ejection completions sorted by ejection
// channel. Both engines funnel through here, which pins every tie-break to
// an engine-independent order.
void WormholeNetwork::run_pass(EngineState& st) {
  const double t = sim_.now();
  st.arb_time = -1.0;  // later registrations at this timestamp re-arm
  if (!st.shadow) ++stats_.passes;
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
    sim_.schedule_at(t, kind_compare_);
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
    file(st, Work::kGrant, static_cast<std::uint32_t>(cid), ch.epoch, ch.rel_time);
  }
}

void WormholeNetwork::grant(EngineState& st, std::int32_t pkt, double t) {
  if (st.stepped)
    step_acquire(st, pkt, t);
  else
    start_run(st, pkt, t);
}

// Stepped (oracle) continuation: acquire exactly one channel and file the
// next attempt 1 + st cycles ahead — O(hops) attempts per packet.
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
    file(st, Work::kAttempt, static_cast<std::uint32_t>(pkt), p.run_epoch,
         t + static_cast<double>(1 + params_.st));
  }
}

// Batched continuation: acquire the maximal run of currently-free consecutive
// path channels in one shot. Channels past the first are reservations with
// future acquisition times; worm-slide releases inside the run are computed
// arithmetically. One filed work item total: the virtual arrival at the
// first non-free channel (or the ejection completion). The k-th acquisition
// time is built by adding 1+st k times, exactly as the stepped engine's
// per-hop attempts do: t + k*(1+st) rounds once and can differ in the last
// bit when t (a job's start time) is not an integer.
void WormholeNetwork::start_run(EngineState& st, std::int32_t pkt, double t) {
  Packet& p = st.pool[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const std::int32_t first = p.next;
  const std::int32_t plen = params_.packet_len;
  const auto step = static_cast<double>(1 + params_.st);
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
  double vt = t;  // acquisition time of the last channel of the run
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
    vt += step;
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
    if (vt == t) {  // flushed by this pass
      st.ejections.push_back({pkt, p.path[static_cast<std::size_t>(len - 1)], e});
    } else {
      file(st, Work::kEject, static_cast<std::uint32_t>(pkt), e, vt);
    }
  } else {
    file(st, Work::kAttempt, static_cast<std::uint32_t>(pkt), e, vt + step);
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
  ++p.run_epoch;  // cancels the filed arrival / ejection
  p.next = cut;
  p.res_end = cut;
  ++stats_.truncations;
  if (arrive == t) {
    // Re-attempt right now: joins this very arbitration with its true key.
    p.attempt_time = t;
    p.fresh_block = true;
    enqueue_waiter(st, target, victim);
  } else {
    file(st, Work::kAttempt, static_cast<std::uint32_t>(victim), p.run_epoch, arrive);
  }
}

void WormholeNetwork::set_release(EngineState& st, ChannelId cid, double when) {
  Channel& ch = st.channels[static_cast<std::size_t>(cid)];
  ch.rel_time = when;
  if (ch.wait_head >= 0 && !ch.grant_scheduled) {
    ch.grant_scheduled = true;
    file(st, Work::kGrant, static_cast<std::uint32_t>(cid), ch.epoch, when);
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
  sim_.schedule_at(t_done, kind_deliver_, static_cast<std::uint32_t>(pkt), state_bit(st));
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
  ++stats_.delivered;
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
  st.free_pool.push_back(pkt);  // the path keeps its capacity for the next route
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

// Lock-step state cross-check, run by the compare event (on_compare) once
// both engines' passes at a network-active timestamp are done: for every
// channel either engine touched, the effective holder and the waiter FIFO
// (order included) must agree. Batched reservations whose acquisition lies
// in the future must be free in the stepped engine — the per-hop header has
// not arrived yet.
void WormholeNetwork::verify_compare_states() {
  const double t = sim_.now();
  std::vector<ChannelId> all;
  all.reserve(primary_.touched.size() + shadow_->touched.size());
  all.insert(all.end(), primary_.touched.begin(), primary_.touched.end());
  all.insert(all.end(), shadow_->touched.begin(), shadow_->touched.end());
  primary_.touched.clear();
  shadow_->touched.clear();
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto eff = [t](const EngineState& st, const Channel& c) -> std::int64_t {
    if (c.holder < 0 || c.rel_time <= t) return -1;
    return static_cast<std::int64_t>(
        st.pool[static_cast<std::size_t>(c.holder)].seq);
  };
  for (const ChannelId cid : all) {
    const Channel& a = primary_.channels[static_cast<std::size_t>(cid)];
    const Channel& b = shadow_->channels[static_cast<std::size_t>(cid)];
    if (a.holder >= 0 && a.acq_time > t) {
      if (eff(*shadow_, b) != -1)
        throw std::logic_error(
            "WormholeNetwork verify: stepped holds channel " +
            std::to_string(cid) + " that batched only reserved");
    } else if (eff(primary_, a) != eff(*shadow_, b)) {
      throw std::logic_error("WormholeNetwork verify: holder mismatch on channel " +
                             std::to_string(cid) + " at t=" + std::to_string(t));
    }
    std::int32_t wa = a.wait_head;
    std::int32_t wb = b.wait_head;
    while (wa >= 0 && wb >= 0) {
      const Packet& pa = primary_.pool[static_cast<std::size_t>(wa)];
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
  reset_state(primary_);
  if (shadow_ != nullptr) reset_state(*shadow_);
  verify_pending_.clear();
  buckets_.clear();
  free_buckets_.clear();
  bucket_index_.fill(-1);
  verify_cmp_armed_ = false;
  stats_.reset();
}

}  // namespace procsim::network
