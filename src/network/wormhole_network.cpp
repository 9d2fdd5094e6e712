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
                                 NetworkParams params, WormholeNetwork* owner)
    : sim_(sim), map_(geom, params.torus), params_(params), verifier_(owner) {
  if (params.st < 0 || params.packet_len < 1)
    throw std::invalid_argument("WormholeNetwork: bad parameters");
  kind_pass_ = sim_.add_handler(&on_pass, this);
  kind_bucket_ = sim_.add_handler(&on_bucket, this);
  kind_deliver_ = sim_.add_handler(&on_deliver, this);
  bucket_index_.fill(-1);
  channels_.resize(static_cast<std::size_t>(map_.channel_count()));
  if (params_.engine == NetEngine::kVerify) {
    kind_compare_ = sim_.add_handler(&on_compare, this);
    NetworkParams stepped = params_;
    stepped.engine = NetEngine::kStepped;
    shadow_.reset(new WormholeNetwork(sim, geom, stepped, this));
    verifier_ = this;
  }
}

// ---------------------------------------------------------------------------
// Event handlers.
// ---------------------------------------------------------------------------

void WormholeNetwork::on_pass(void* ctx, std::uint32_t, std::uint64_t) {
  static_cast<WormholeNetwork*>(ctx)->run_pass();
}

void WormholeNetwork::on_bucket(void* ctx, std::uint32_t bucket, std::uint64_t) {
  static_cast<WormholeNetwork*>(ctx)->fire_bucket(bucket);
}

void WormholeNetwork::on_deliver(void* ctx, std::uint32_t pkt, std::uint64_t) {
  static_cast<WormholeNetwork*>(ctx)->deliver(static_cast<std::int32_t>(pkt));
}

// Verify's state comparison runs once neither network has a pass armed at
// this timestamp. While one has (a same-time injection re-armed a network
// whose pass already ran, queueing that pass behind this event), it queues
// itself again behind that pass. It waits for nothing else, so the
// comparisons of several networks on one clock never queue behind each
// other forever. An injection from a later same-time event re-arms both
// networks, and their first pass queues a fresh comparison.
void WormholeNetwork::on_compare(void* ctx, std::uint32_t, std::uint64_t) {
  auto* self = static_cast<WormholeNetwork*>(ctx);
  const double now = self->sim_.now();
  if (self->arb_time_ == now || self->shadow_->arb_time_ == now) {
    self->sim_.schedule_at(now, self->kind_compare_);
    return;
  }
  self->verify_cmp_armed_ = false;
  self->verify_compare_states();
}

std::int32_t WormholeNetwork::alloc_packet(mesh::NodeId src, mesh::NodeId dst,
                                           std::uint64_t tag) {
  std::int32_t idx;
  if (!free_pool_.empty()) {
    idx = free_pool_.back();
    free_pool_.pop_back();
  } else {
    idx = static_cast<std::int32_t>(pool_.size());
    pool_.emplace_back();
  }
  Packet& p = pool_[static_cast<std::size_t>(idx)];
  map_.route(src, dst, p.path);  // into the pooled slot's path capacity
  p.next = 0;
  p.res_end = 0;
  p.next_waiter = -1;
  p.seq = next_seq_++;
  p.follow_lo = -1;
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
  register_attempt(alloc_packet(src, dst, tag), sim_.now());
  ensure_arbitration();
  if (shadow_ != nullptr) shadow_->inject(src, dst, tag);
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
void WormholeNetwork::register_attempt(std::int32_t pkt, double t) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  p.attempt_time = t;
  p.fresh_block = true;
  const ChannelId cid = p.path[static_cast<std::size_t>(p.next)];
  enqueue_waiter(channels_[static_cast<std::size_t>(cid)], pkt);
  mark_dirty(cid);
}

// Sorted insertion by the packet's (attempt_time, seq), so the final FIFO
// does not depend on the order attempts are queued in.
void WormholeNetwork::enqueue_waiter(Channel& ch, std::int32_t pkt) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  const FifoKey key{p.attempt_time, p.seq};
  p.next_waiter = -1;
  if (ch.wait_tail < 0) {
    ch.wait_head = ch.wait_tail = pkt;
    return;
  }
  Packet& tail = pool_[static_cast<std::size_t>(ch.wait_tail)];
  if (FifoKey{tail.attempt_time, tail.seq}.before(key.t, key.seq)) {
    tail.next_waiter = pkt;
    ch.wait_tail = pkt;
    return;
  }
  std::int32_t prev = -1;
  std::int32_t cur = ch.wait_head;
  while (cur >= 0) {
    const Packet& w = pool_[static_cast<std::size_t>(cur)];
    if (key.before(w.attempt_time, w.seq)) break;
    prev = cur;
    cur = w.next_waiter;
  }
  p.next_waiter = cur;
  if (prev < 0)
    ch.wait_head = pkt;
  else
    pool_[static_cast<std::size_t>(prev)].next_waiter = pkt;
  if (cur < 0) ch.wait_tail = pkt;
}

void WormholeNetwork::mark_dirty(ChannelId cid) {
  Channel& ch = channels_[static_cast<std::size_t>(cid)];
  if (ch.dirty) return;
  ch.dirty = true;
  dirty_.push_back(cid);
  if (verifier_ != nullptr) touched_.push_back(cid);
}

void WormholeNetwork::ensure_arbitration() {
  const double now = sim_.now();
  if (arb_time_ == now) return;
  arb_time_ = now;
  sim_.schedule_at(now, kind_pass_);
}

// Files work for time `t` (always later than now) into t's bucket. The first
// filing for a timestamp opens the bucket and schedules its one event, which
// so takes the (time, seq) slot a per-work event for that filing would have.
void WormholeNetwork::file(Work work, std::uint32_t id, std::uint32_t epoch, double t) {
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
  buckets_[static_cast<std::size_t>(slot)].regs.push_back(Registration{id, epoch, work});
}

// Applies one filed work item unless a truncation made it stale; returns
// whether it fed this timestamp's pass. A packet that acts again first takes
// over the channels its run follows (settle_follows files no work: the
// caller walks its bucket's items by reference).
bool WormholeNetwork::apply(const Registration& r, double t) {
  switch (r.work) {
    case Work::kAttempt:
      if (pool_[r.id].run_epoch != r.epoch) return false;
      if (pool_[r.id].follow_lo >= 0) settle_follows(static_cast<std::int32_t>(r.id));
      register_attempt(static_cast<std::int32_t>(r.id), t);
      return true;
    case Work::kEject: {
      const Packet& p = pool_[r.id];
      if (p.run_epoch != r.epoch) return false;
      if (p.follow_lo >= 0) settle_follows(static_cast<std::int32_t>(r.id));
      ejections_.push_back({static_cast<std::int32_t>(r.id), p.path.back(), r.epoch});
      return true;
    }
    case Work::kGrant: {
      Channel& c = channels_[r.id];
      if (c.epoch != r.epoch) return false;
      c.grant_scheduled = false;
      mark_dirty(static_cast<ChannelId>(r.id));
      return true;
    }
  }
  return false;
}

// One bucket event: apply everything filed for this timestamp in filing
// order, then run or queue the pass it fed. This reproduces a kernel event
// per work item exactly:
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
// Under kVerify the shadow's bucket for this timestamp is often still due,
// so the primary queues a pass that a lone batched network would run
// inline; only shadow events run in between, and they read and write only
// the shadow.
void WormholeNetwork::fire_bucket(std::uint32_t id) {
  const double t = sim_.now();
  ++stats_.batches;
  std::int32_t& slot = bucket_index_[bucket_slot(t)];
  if (slot == static_cast<std::int32_t>(id)) slot = -1;
  bool fed = false;
  std::vector<Registration>& regs = buckets_[id].regs;
  for (const Registration& r : regs) fed |= apply(r, t);
  regs.clear();
  free_buckets_.push_back(id);
  if (!fed || arb_time_ == t) return;
  arb_time_ = t;
  if (sim_.queue().empty() || sim_.queue().next_time() > t) {
    ++stats_.inline_passes;
    run_pass();
  } else {
    sim_.schedule_at(t, kind_pass_);
  }
}

// The canonical arbitration pass: runs once per network-active timestamp
// after every other event at that time, resolving contested channels in
// ascending id order, then flushing ejection completions sorted by ejection
// channel. Both engines funnel through here, which pins every tie-break to
// an engine-independent order.
void WormholeNetwork::run_pass() {
  const double t = sim_.now();
  arb_time_ = -1.0;  // later registrations at this timestamp re-arm
  ++stats_.passes;
  std::sort(dirty_.begin(), dirty_.end());
  for (std::size_t i = 0; i < dirty_.size(); ++i) arbitrate(dirty_[i], t);
  dirty_.clear();
  std::sort(ejections_.begin(), ejections_.end(),
            [](const Ejection& a, const Ejection& b) { return a.ch < b.ch; });
  for (std::size_t i = 0; i < ejections_.size(); ++i) {
    const Ejection& e = ejections_[i];
    if (pool_[static_cast<std::size_t>(e.pkt)].run_epoch == e.epoch) complete(e.pkt, t);
  }
  ejections_.clear();
  if (verifier_ != nullptr) verifier_->arm_compare();
}

// Lazy release: a holder whose release is due gives the channel up, to the
// run that follows it if there is one.
inline void WormholeNetwork::release_if_due(Channel& ch, ChannelId cid, double t) {
  if (ch.holder < 0 || ch.rel_time > t) return;
  if (ch.follower >= 0) {
    hand_over(ch, cid);
    return;
  }
  ch.holder = -1;
  ch.acq_time = 0;
  ch.rel_time = kNoRelease;
  ch.reserved = false;
}

void WormholeNetwork::arbitrate(ChannelId cid, double t) {
  Channel& ch = channels_[static_cast<std::size_t>(cid)];
  ch.dirty = false;
  release_if_due(ch, cid, t);
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.reserved && ch.acq_time >= t) {
    // The holder only reserved this channel (acquisition at or after now):
    // an attempt with a smaller canonical key arrived first and steals it.
    // Realized acquisitions are never truncated — a holder granted at this
    // very timestamp may have leftover waiters with earlier attempt times,
    // and those already lost their arbitration. A follow handed over by the
    // release above is stolen so by any attempt that queued before it.
    const Packet& w = pool_[static_cast<std::size_t>(ch.wait_head)];
    const Packet& h = pool_[static_cast<std::size_t>(ch.holder)];
    if (FifoKey{w.attempt_time, w.seq}.before(ch.acq_time, h.seq))
      rollbacks_.push_back({ch.holder, run_index(h, cid), ch.acq_time});
  }
  if (!rollbacks_.empty()) roll_back(t);
  if (ch.holder < 0 && ch.wait_head >= 0) {
    const std::int32_t winner = ch.wait_head;
    Packet& w = pool_[static_cast<std::size_t>(winner)];
    ch.wait_head = w.next_waiter;
    if (ch.wait_head < 0) ch.wait_tail = -1;
    w.next_waiter = -1;
    w.blocked += t - w.attempt_time;
    w.fresh_block = false;
    grant(winner, t);
  }
  // Attempts that stayed blocked this pass are reported once, in FIFO order.
  for (std::int32_t i = ch.wait_head; i >= 0;
       i = pool_[static_cast<std::size_t>(i)].next_waiter) {
    Packet& w = pool_[static_cast<std::size_t>(i)];
    if (w.fresh_block) {
      w.fresh_block = false;
      if (rec_ != nullptr) rec_->channel_block(t, w.tag, cid);
    }
  }
  if (ch.holder >= 0 && ch.wait_head >= 0 && ch.rel_time != kNoRelease &&
      !ch.grant_scheduled) {
    ch.grant_scheduled = true;
    file(Work::kGrant, static_cast<std::uint32_t>(cid), ch.epoch, ch.rel_time);
  }
}

void WormholeNetwork::grant(std::int32_t pkt, double t) {
  if (params_.engine == NetEngine::kStepped)
    step_acquire(pkt, t);
  else
    start_run(pkt, t);
}

// Stepped (oracle) continuation: acquire exactly one channel and file the
// next attempt 1 + st cycles ahead — O(hops) attempts per packet.
void WormholeNetwork::step_acquire(std::int32_t pkt, double t) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  const std::int32_t i = p.next;
  const ChannelId cid = p.path[static_cast<std::size_t>(i)];
  Channel& ch = channels_[static_cast<std::size_t>(cid)];
  ch.holder = pkt;
  ch.acq_time = t;
  ch.rel_time = kNoRelease;
  ch.reserved = false;
  p.next = i + 1;
  p.res_end = i + 1;
  // The worm spans at most P_len channels: acquiring channel i slides the
  // tail out of channel i - P_len one cycle later.
  if (i >= params_.packet_len)
    set_release(p.path[static_cast<std::size_t>(i - params_.packet_len)], t + 1.0);
  if (static_cast<std::size_t>(i) + 1 == p.path.size()) {
    ejections_.push_back({pkt, cid, p.run_epoch});  // flushed by this pass
  } else {
    file(Work::kAttempt, static_cast<std::uint32_t>(pkt), p.run_epoch,
         t + static_cast<double>(1 + params_.st));
  }
}

// Batched continuation: acquire the maximal run of currently-free consecutive
// path channels in one shot. Channels past the first are reservations with
// future acquisition times; worm-slide releases inside the run are computed
// arithmetically. One filed work item total: the virtual arrival at the
// first channel the run cannot take (or the ejection completion). The k-th
// acquisition time is built by adding 1+st k times, exactly as the stepped
// engine's per-hop attempts do: t + k*(1+st) rounds once and can differ in
// the last bit when t (a job's start time) is not an integer.
//
// A held channel does not stop the run when the header can follow its
// holder: nothing waits on it, no other run follows it, and the holder's
// known release comes no later than the header's arrival. The run then ends
// P_len channels past its first follow at the latest, so it sets the slide
// release of no channel it only follows. A packet enters here with no follows
// left (it settled them when it attempted).
void WormholeNetwork::start_run(std::int32_t pkt, double t) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const std::int32_t first = p.next;
  const std::int32_t plen = params_.packet_len;
  const auto step = static_cast<double>(1 + params_.st);
  {
    Channel& head = channels_[static_cast<std::size_t>(p.path[static_cast<std::size_t>(first)])];
    head.holder = pkt;
    head.acq_time = t;
    head.rel_time = kNoRelease;
    head.reserved = false;
  }
  if (first >= plen) set_release(p.path[static_cast<std::size_t>(first - plen)], t + 1.0);
  if (verifier_ != nullptr) touched_.push_back(p.path[static_cast<std::size_t>(first)]);
  double vt = t;  // acquisition time of the last channel of the run
  std::int32_t end = len;  // one past the run's last index
  std::int32_t j = first + 1;
  for (; j < end; ++j) {
    const ChannelId cid = p.path[static_cast<std::size_t>(j)];
    Channel& ch = channels_[static_cast<std::size_t>(cid)];
    release_if_due(ch, cid, t);
    const double arrive = vt + step;
    if (ch.holder < 0 && ch.wait_head < 0) {
      ch.holder = pkt;
      ch.acq_time = arrive;
      ch.rel_time = kNoRelease;
      ch.reserved = true;
    } else if (ch.wait_head < 0 && ch.follower < 0 && ch.rel_time <= arrive) {
      ch.follower = pkt;
      ++stats_.follows;
      if (p.follow_lo < 0) {
        p.follow_lo = j;
        p.follow_at = arrive;
        end = std::min(len, j + plen);
      }
    } else {
      break;
    }
    vt = arrive;
    if (j >= plen) set_release(p.path[static_cast<std::size_t>(j - plen)], vt + 1.0);
    if (verifier_ != nullptr) touched_.push_back(cid);
  }
  p.next = j;
  p.res_end = j;
  ++stats_.runs_batched;
  ++stats_.run_len_hist[run_len_bucket(j - first)];
  const std::uint32_t e = p.run_epoch;
  if (j == len) {
    if (vt == t) {  // flushed by this pass
      ejections_.push_back({pkt, p.path[static_cast<std::size_t>(len - 1)], e});
    } else {
      file(Work::kEject, static_cast<std::uint32_t>(pkt), e, vt);
    }
  } else {
    file(Work::kAttempt, static_cast<std::uint32_t>(pkt), e, vt + step);
  }
}

// Path index of channel `ch`, which the packet's current run holds or
// follows.
std::int32_t WormholeNetwork::run_index(const Packet& p, ChannelId ch) noexcept {
  std::int32_t k = p.res_end - 1;
  while (p.path[static_cast<std::size_t>(k)] != ch) --k;
  return k;
}

// The header's arrival at path index k (at or past its first follow), built
// by the same additions as the run's acquisition times.
double WormholeNetwork::follow_arrival(const Packet& p, std::int32_t k) const noexcept {
  const auto step = static_cast<double>(1 + params_.st);
  double at = p.follow_at;
  for (std::int32_t m = p.follow_lo; m < k; ++m) at += step;
  return at;
}

// The follower takes the channel over as a reservation, acquired at its
// header's arrival `at`.
void WormholeNetwork::take_follow(Channel& ch, double at) noexcept {
  ch.holder = ch.follower;
  ch.follower = -1;
  ch.acq_time = at;
  ch.rel_time = kNoRelease;
  ch.reserved = true;
}

// The holder's release is due and a run follows the channel. Out of line:
// release_if_due is on every run's path, and routing all of it through one
// out-of-line call read ~3 % slower on the paper's 16x22 traffic.
[[gnu::noinline]] void WormholeNetwork::hand_over(Channel& ch, ChannelId cid) {
  const Packet& f = pool_[static_cast<std::size_t>(ch.follower)];
  take_follow(ch, follow_arrival(f, run_index(f, cid)));
}

// The packet acts again, at or after its arrival at every channel its run
// follows, so each holder has released: the follows become reservations.
// Files no work.
void WormholeNetwork::settle_follows(std::int32_t pkt) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  const auto step = static_cast<double>(1 + params_.st);
  const std::int32_t end = std::min(p.res_end, p.follow_lo + params_.packet_len);
  double at = p.follow_at;
  for (std::int32_t k = p.follow_lo; k < end; ++k, at += step) {
    Channel& ch = channels_[static_cast<std::size_t>(p.path[static_cast<std::size_t>(k)])];
    if (ch.follower == pkt) take_follow(ch, at);  // else a reservation of its own
  }
  p.follow_lo = -1;
}

// Queues the roll-back of the run that follows channel `cid` to its arrival
// there: the hold or the release it counted on is gone.
void WormholeNetwork::drop_follower(ChannelId cid) {
  Channel& ch = channels_[static_cast<std::size_t>(cid)];
  if (ch.follower < 0) return;
  const Packet& f = pool_[static_cast<std::size_t>(ch.follower)];
  const std::int32_t k = run_index(f, cid);
  rollbacks_.push_back({ch.follower, k, follow_arrival(f, k)});
  ch.follower = -1;
}

// Rolls back every queued run from its cut: an attempt with a smaller
// canonical key arrived before a reservation's acquisition time, or a follow
// lost what it counted on. The reservations and follows from the cut on are
// given up, and slide releases computed from them are unknown again; a run
// that followed a hold or a release so dropped joins the worklist. Each
// rolled-back packet then re-attempts once, at its header's arrival at its
// deepest cut — exactly where the stepped engine's per-hop header would be.
void WormholeNetwork::roll_back(double t) {
  const std::int32_t plen = params_.packet_len;
  for (std::size_t i = 0; i < rollbacks_.size(); ++i) {  // drop_follower appends
    const std::int32_t pkt = rollbacks_[i].pkt;
    const std::int32_t cut = rollbacks_[i].cut;
    Packet& p = pool_[static_cast<std::size_t>(pkt)];
    if (cut >= p.res_end) {  // an earlier item cut this run deeper
      rollbacks_[i].cut = -1;
      continue;
    }
    for (std::int32_t m = cut; m < p.res_end; ++m) {
      const ChannelId cid = p.path[static_cast<std::size_t>(m)];
      Channel& ch = channels_[static_cast<std::size_t>(cid)];
      if (ch.follower == pkt) ch.follower = -1;  // the holder keeps its hold
      if (ch.holder != pkt) continue;
      drop_follower(cid);
      ch.holder = -1;
      ch.acq_time = 0;
      ch.rel_time = kNoRelease;
      ch.reserved = false;
      ++ch.epoch;
      ch.grant_scheduled = false;
    }
    // Slide releases of the worm's tail were computed from the freed
    // acquisitions; they are unknown again until the holder advances.
    for (std::int32_t m = std::max(0, cut - plen); m < cut; ++m) {
      const ChannelId cid = p.path[static_cast<std::size_t>(m)];
      Channel& ch = channels_[static_cast<std::size_t>(cid)];
      if (ch.holder != pkt) continue;
      drop_follower(cid);
      ch.rel_time = kNoRelease;
      ++ch.epoch;
      ch.grant_scheduled = false;
    }
    p.next = cut;
    p.res_end = cut;
    if (p.follow_lo >= cut) p.follow_lo = -1;
  }
  for (const Rollback& r : rollbacks_) {
    Packet& p = pool_[static_cast<std::size_t>(r.pkt)];
    if (r.cut != p.next) continue;  // moot, or cut deeper by a later item
    ++p.run_epoch;  // cancels the filed arrival / ejection
    ++stats_.truncations;
    if (r.arrive == t) {
      // Re-attempt right now: joins this very arbitration with its true key.
      if (p.follow_lo >= 0) settle_follows(r.pkt);
      p.attempt_time = t;
      p.fresh_block = true;
      enqueue_waiter(channels_[static_cast<std::size_t>(p.path[static_cast<std::size_t>(r.cut)])],
                     r.pkt);
    } else {
      file(Work::kAttempt, static_cast<std::uint32_t>(r.pkt), p.run_epoch, r.arrive);
    }
  }
  rollbacks_.clear();
}

void WormholeNetwork::set_release(ChannelId cid, double when) {
  Channel& ch = channels_[static_cast<std::size_t>(cid)];
  ch.rel_time = when;
  if (ch.wait_head >= 0 && !ch.grant_scheduled) {
    ch.grant_scheduled = true;
    file(Work::kGrant, static_cast<std::uint32_t>(cid), ch.epoch, when);
  }
}

void WormholeNetwork::complete(std::int32_t pkt, double t_eject) {
  Packet& p = pool_[static_cast<std::size_t>(pkt)];
  const auto len = static_cast<std::int32_t>(p.path.size());
  const double t_done = t_eject + static_cast<double>(params_.packet_len);
  // Channels without a slide-release: the last min(P_len, len) drain
  // back-to-front behind the ejected header.
  const std::int32_t h = std::min(params_.packet_len, len);
  for (std::int32_t d = h - 1; d >= 0; --d)
    set_release(p.path[static_cast<std::size_t>(len - 1 - d)], t_done - static_cast<double>(d));
  sim_.schedule_at(t_done, kind_deliver_, static_cast<std::uint32_t>(pkt));
}

void WormholeNetwork::deliver(std::int32_t pkt) {
  const Packet& p = pool_[static_cast<std::size_t>(pkt)];
  Delivery d;
  d.tag = p.tag;
  d.src = p.src;
  d.dst = p.dst;
  d.latency = sim_.now() - p.inject_time;
  d.blocked = p.blocked;
  d.hops = static_cast<std::int32_t>(p.path.size()) - 2;
  ++stats_.delivered;
  if (verifier_ != nullptr)
    verifier_->verify_match(
        p.seq, VerifyRec{sim_.now(), d.latency, d.blocked, d.hops, verifier_ != this});
  if (rec_ != nullptr)
    rec_->packet_deliver(sim_.now(), d.tag, static_cast<std::int32_t>(d.src),
                         static_cast<std::int32_t>(d.dst), d.hops, d.latency, d.blocked);
  free_pool_.push_back(pkt);  // the path keeps its capacity for the next route
  if (sink_ != nullptr) sink_(sink_ctx_, d);
}

// Queues this (primary) network's state comparison behind the pass that
// just ran, its own or its shadow's, once per timestamp.
void WormholeNetwork::arm_compare() {
  if (verify_cmp_armed_) return;
  verify_cmp_armed_ = true;
  sim_.schedule_at(sim_.now(), kind_compare_);
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
// both networks' passes at a network-active timestamp are done: for every
// channel either network touched, the effective holder and the waiter FIFO
// (order included) must agree. Batched reservations whose acquisition lies
// in the future must be free in the stepped shadow — the per-hop header has
// not arrived yet — and a batched follower whose header has arrived is the
// stepped holder.
void WormholeNetwork::verify_compare_states() {
  const double t = sim_.now();
  WormholeNetwork& stepped = *shadow_;
  std::vector<ChannelId> all;
  all.reserve(touched_.size() + stepped.touched_.size());
  all.insert(all.end(), touched_.begin(), touched_.end());
  all.insert(all.end(), stepped.touched_.begin(), stepped.touched_.end());
  touched_.clear();
  stepped.touched_.clear();
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const auto eff = [t](const WormholeNetwork& net, const Channel& c) -> std::int64_t {
    if (c.holder < 0 || c.rel_time <= t) return -1;
    return static_cast<std::int64_t>(net.pool_[static_cast<std::size_t>(c.holder)].seq);
  };
  for (const ChannelId cid : all) {
    const Channel& a = channels_[static_cast<std::size_t>(cid)];
    const Channel& b = stepped.channels_[static_cast<std::size_t>(cid)];
    const Packet* follower =
        a.follower >= 0 ? &pool_[static_cast<std::size_t>(a.follower)] : nullptr;
    if (follower != nullptr && follow_arrival(*follower, run_index(*follower, cid)) <= t) {
      // The follower's header has arrived: the stepped engine has it hold.
      if (static_cast<std::int64_t>(follower->seq) != eff(stepped, b))
        throw std::logic_error("WormholeNetwork verify: follower mismatch on channel " +
                               std::to_string(cid) + " at t=" + std::to_string(t));
    } else if (a.holder >= 0 && a.acq_time > t) {
      if (eff(stepped, b) != -1)
        throw std::logic_error("WormholeNetwork verify: stepped holds channel " +
                               std::to_string(cid) + " that batched only reserved");
    } else if (eff(*this, a) != eff(stepped, b)) {
      throw std::logic_error("WormholeNetwork verify: holder mismatch on channel " +
                             std::to_string(cid) + " at t=" + std::to_string(t));
    }
    std::int32_t wa = a.wait_head;
    std::int32_t wb = b.wait_head;
    while (wa >= 0 && wb >= 0) {
      const Packet& pa = pool_[static_cast<std::size_t>(wa)];
      const Packet& pb = stepped.pool_[static_cast<std::size_t>(wb)];
      if (pa.seq != pb.seq || pa.attempt_time != pb.attempt_time)
        throw std::logic_error("WormholeNetwork verify: waiter FIFO mismatch on channel " +
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

void WormholeNetwork::reset() {
  if (stats_.injected == 0) return;  // untouched: nothing to drop
  std::fill(channels_.begin(), channels_.end(), Channel{});
  pool_.clear();
  free_pool_.clear();
  dirty_.clear();
  ejections_.clear();
  rollbacks_.clear();
  next_seq_ = 0;
  arb_time_ = -1.0;
  buckets_.clear();
  free_buckets_.clear();
  bucket_index_.fill(-1);
  touched_.clear();
  verify_pending_.clear();
  verify_cmp_armed_ = false;
  stats_.reset();
  if (shadow_ != nullptr) shadow_->reset();
}

}  // namespace procsim::network
