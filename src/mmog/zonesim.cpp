#include "atlarge/mmog/zonesim.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "atlarge/fault/fault.hpp"
#include "atlarge/fault/injector.hpp"
#include "atlarge/obs/observability.hpp"
#include "atlarge/stats/rng.hpp"

namespace atlarge::mmog {
namespace detail {

constexpr std::uint64_t kAvatarMix = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kSpikeMix = 0xc2b2ae3d27d4eb4fULL;

/// Everything an avatar is: travels with it across LPs inside the
/// migration message.
struct AvatarState {
  std::uint64_t id = 0;
  double spawn = 0.0;
  double session_end = 0.0;
  stats::Rng rng{0};
};

struct Zone {
  std::unordered_map<std::uint64_t, AvatarState> residents;
  std::uint64_t actions = 0;
  std::uint64_t migrations = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t departures = 0;
  std::uint64_t churned = 0;
  std::uint64_t spikes_seen = 0;  // per-zone spike ordinal (layout-stable)
  obs::Digest sessions;
  std::uint64_t session_us = 0;
  /// Login capacity (eco autoscale binding); unlimited by default, which
  /// makes the full-zone branch unreachable.
  std::size_t capacity = std::numeric_limits<std::size_t>::max();
  std::deque<AvatarState> login_queue;  // FIFO, admitted as slots free up
  std::uint64_t queued_logins = 0;
};

// All mutable state is partitioned by zone, and a zone is touched only by
// the lane currently running its LP — the engine needs no locks.
struct ZoneEngine {
  const ZoneSimConfig* config = nullptr;
  sim::ShardedSimulation* sharded = nullptr;
  std::vector<Zone> zones;
  std::size_t lp_base = 0;  // zones live on LPs [lp_base, lp_base+lp_count)
  std::size_t lp_count = 1;

  std::size_t lp_of(std::size_t zone) const noexcept {
    return lp_base + zone % lp_count;
  }

  void depart(Zone& z, AvatarState& a, double now) {
    ++z.departures;
    const double session = now - a.spawn;
    z.sessions.add(session);
    z.session_us += static_cast<std::uint64_t>(session * 1e6 + 0.5);
  }

  void schedule_act(std::size_t zone, std::uint64_t avatar, double at) {
    sharded->lp(lp_of(zone)).schedule_at(
        at, [this, zone, avatar] { act(zone, avatar); });
  }

  /// A login (spawn or completed crossing) reaches the zone: admitted
  /// immediately unless the zone is at capacity, in which case it waits
  /// in the FIFO login queue.
  void arrive(std::size_t zone, AvatarState state, double now) {
    Zone& z = zones[zone];
    if (z.residents.size() >= z.capacity) {
      ++z.queued_logins;
      z.login_queue.push_back(std::move(state));
      return;
    }
    admit(z, zone, std::move(state), now);
  }

  void admit(Zone& z, std::size_t zone, AvatarState state, double now) {
    const double gap = state.rng.exponential(1.0 / config->act_mean);
    const std::uint64_t id = state.id;
    z.residents.emplace(id, std::move(state));
    schedule_act(zone, id, now + gap);
  }

  /// Admits queued logins into freed slots (no-op while the queue is
  /// empty, i.e. always without capacity caps).
  void drain_queue(std::size_t zone, double now) {
    Zone& z = zones[zone];
    while (!z.login_queue.empty() && z.residents.size() < z.capacity) {
      AvatarState state = std::move(z.login_queue.front());
      z.login_queue.pop_front();
      admit(z, zone, std::move(state), now);
    }
  }

  void cross(std::size_t zone, AvatarState state, double now) {
    ++zones[zone].arrivals;
    arrive(zone, std::move(state), now);
  }

  void act(std::size_t zone, std::uint64_t avatar) {
    Zone& z = zones[zone];
    const auto it = z.residents.find(avatar);
    if (it == z.residents.end()) return;  // kicked by a churn spike
    AvatarState& a = it->second;
    const double now = sharded->lp(lp_of(zone)).now();
    if (now >= a.session_end) {
      depart(z, a, now);
      z.residents.erase(it);
      drain_queue(zone, now);
      return;
    }
    ++z.actions;
    if (a.rng.bernoulli(config->migrate_prob) && config->zones > 1) {
      const std::size_t dst =
          a.rng.bernoulli(0.5) ? (zone + 1) % config->zones
                               : (zone + config->zones - 1) % config->zones;
      ++z.migrations;
      AvatarState moved = std::move(a);
      z.residents.erase(it);
      // The border crossing IS the lookahead: arrival lands one
      // crossing_time ahead, outside the current window.
      sharded->send(lp_of(zone), lp_of(dst), now + config->crossing_time,
                    moved.id,
                    [this, dst, state = std::move(moved)]() mutable {
                      cross(dst, std::move(state),
                            sharded->lp(lp_of(dst)).now());
                    });
      drain_queue(zone, now);
      return;
    }
    schedule_act(zone, avatar, now + a.rng.exponential(1.0 / config->act_mean));
  }

  void spawn(std::size_t zone, std::uint64_t avatar, double now) {
    AvatarState a;
    a.id = avatar;
    a.spawn = now;
    a.rng = stats::Rng(config->seed ^ (avatar * kAvatarMix));
    a.session_end = now + a.rng.exponential(1.0 / config->session_mean);
    arrive(zone, std::move(a), now);  // spawning is not a border crossing
  }

  // Churn spike on one zone: each resident is kicked by an independent
  // per-avatar hash draw, so the kicked set does not depend on map
  // iteration order or shard layout.
  void churn(std::size_t zone, double magnitude) {
    Zone& z = zones[zone];
    const std::uint64_t spike = z.spikes_seen++;
    const std::uint64_t base = config->seed ^
                               (static_cast<std::uint64_t>(zone) << 32 | spike)
                                   * kSpikeMix;
    for (auto it = z.residents.begin(); it != z.residents.end();) {
      stats::Rng draw(base ^ (it->first * kAvatarMix));
      if (draw.uniform() < magnitude) {
        ++z.churned;
        it = z.residents.erase(it);
      } else {
        ++it;
      }
    }
    drain_queue(zone, sharded->lp(lp_of(zone)).now());
  }
};

}  // namespace detail

std::vector<ZoneArrival> synthetic_zone_arrivals(std::size_t avatars,
                                                 std::size_t zones,
                                                 double spawn_window,
                                                 std::uint64_t seed) {
  std::vector<ZoneArrival> arrivals;
  arrivals.reserve(avatars);
  for (std::size_t i = 0; i < avatars; ++i) {
    stats::Rng rng(seed ^
                   (static_cast<std::uint64_t>(i + 1) * detail::kAvatarMix));
    ZoneArrival a;
    a.avatar = static_cast<std::uint64_t>(i);
    a.time = rng.uniform(0.0, spawn_window);
    a.zone = static_cast<std::uint32_t>(i % std::max<std::size_t>(1, zones));
    arrivals.push_back(a);
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const ZoneArrival& x, const ZoneArrival& y) {
              return x.time != y.time ? x.time < y.time : x.avatar < y.avatar;
            });
  return arrivals;
}

ZoneWorld::ZoneWorld(const ZoneSimConfig& config,
                     const std::vector<ZoneArrival>& arrivals,
                     sim::ShardedSimulation& sharded, std::size_t lp_base,
                     std::size_t lp_count)
    : engine_(std::make_unique<detail::ZoneEngine>()) {
  assert(lp_count >= 1 && lp_base + lp_count <= sharded.shards());
  engine_->config = &config;
  engine_->sharded = &sharded;
  engine_->zones.resize(std::max<std::size_t>(1, config.zones));
  engine_->lp_base = lp_base;
  engine_->lp_count = std::max<std::size_t>(
      1, std::min(lp_count, engine_->zones.size()));
  arrivals_ = &arrivals;
}

ZoneWorld::~ZoneWorld() = default;

void ZoneWorld::prepare() {
  detail::ZoneEngine& engine = *engine_;
  const ZoneSimConfig& config = *engine.config;
  sim::ShardedSimulation& sharded = *engine.sharded;

  // Per-LP injectors over the shared plan, attached before any avatar is
  // scheduled: injection events then carry the earliest sequence numbers
  // on every LP, so at tied timestamps a spike precedes the activity it
  // preempts regardless of layout. Each injector handles only the zones
  // its LP hosts.
  if (config.faults != nullptr && !config.faults->empty()) {
    injectors_.reserve(engine.lp_count);
    for (std::size_t l = engine.lp_base;
         l < engine.lp_base + engine.lp_count; ++l) {
      auto injector =
          std::make_unique<fault::Injector>(*config.faults, nullptr);
      injector->on_kind(
          fault::FaultKind::kChurnSpike,
          [&engine, l](const fault::FaultEvent& e) {
            const std::size_t zone = e.target % engine.zones.size();
            if (engine.lp_of(zone) != l) return;  // not hosted here
            engine.churn(zone, e.magnitude);
          });
      injector->attach(sharded.lp(l));
      injectors_.push_back(std::move(injector));
    }
  }

  // Seed the world through the same sorted-mailbox path as every other
  // cross-LP message: spawn order is then (time, avatar) on every layout.
  for (const ZoneArrival& a : *arrivals_) {
    const std::size_t zone = a.zone % engine.zones.size();
    const std::uint64_t avatar = a.avatar;
    const double at = a.time;
    sharded.send(engine.lp_of(zone), engine.lp_of(zone), at, avatar,
                 [&engine, zone, avatar, at] { engine.spawn(zone, avatar, at); });
  }
}

std::size_t ZoneWorld::lp_of(std::size_t zone) const {
  return engine_->lp_of(zone);
}

std::size_t ZoneWorld::population(std::size_t zone) const {
  return engine_->zones[zone].residents.size();
}

std::size_t ZoneWorld::queue_length(std::size_t zone) const {
  return engine_->zones[zone].login_queue.size();
}

void ZoneWorld::set_capacity(std::size_t zone, std::uint32_t capacity) {
  detail::ZoneEngine& engine = *engine_;
  engine.zones[zone].capacity = capacity;
  engine.drain_queue(zone, engine.sharded->lp(engine.lp_of(zone)).now());
}

ZoneSimResult ZoneWorld::collect() const {
  const detail::ZoneEngine& engine = *engine_;
  ZoneSimResult result;
  result.zone_actions.reserve(engine.zones.size());
  result.final_population.reserve(engine.zones.size());
  for (const detail::Zone& z : engine.zones) {
    result.actions += z.actions;
    result.migrations += z.migrations;
    result.arrivals += z.arrivals;
    result.departures += z.departures;
    result.churned += z.churned;
    result.residents += z.residents.size();
    result.zone_actions.push_back(z.actions);
    result.final_population.push_back(
        static_cast<std::uint32_t>(z.residents.size()));
    result.session_digest.merge(z.sessions);
    result.session_seconds_x1e6 += z.session_us;
    result.queued_logins += z.queued_logins;
  }
  return result;
}

ZoneSimResult simulate_zones(const ZoneSimConfig& config,
                             const std::vector<ZoneArrival>& arrivals) {
  sim::ShardOptions shard = config.shard;
  shard.shards = std::min(std::max<std::size_t>(1, shard.shards),
                          std::max<std::size_t>(1, config.zones));
  shard.lookahead = config.crossing_time;  // derived, not user-set
  sim::ShardedSimulation sharded(shard);

  obs::Observability* const plane = config.obs;
  if (plane != nullptr) plane->tracer.begin("mmog.zonesim", "mmog", 0.0);

  ZoneWorld world(config, arrivals, sharded, 0, sharded.shards());
  world.prepare();

  sharded.run_until(config.horizon);

  ZoneSimResult result = world.collect();
  result.windows = sharded.windows();
  result.messages = sharded.messages();

  if (plane != nullptr) {
    plane->metrics.counter("mmog.actions").add(result.actions);
    plane->metrics.counter("mmog.migrations").add(result.migrations);
    plane->metrics.counter("mmog.departures").add(result.departures);
    plane->metrics.counter("mmog.churn_kicked").add(result.churned);
    plane->metrics.gauge("mmog.residents")
        .set(static_cast<double>(result.residents));
    // Per-LP spans, merged in LP-id order (the obs boundary rule for
    // sharded runs: lane timing never dictates trace order).
    for (std::size_t l = 0; l < sharded.shards(); ++l) {
      plane->tracer.begin("mmog.zonesim.lp", "mmog", 0.0);
      plane->tracer.end("mmog.zonesim.lp", "mmog", config.horizon);
    }
    plane->tracer.end("mmog.zonesim", "mmog", config.horizon);
  }
  return result;
}

}  // namespace atlarge::mmog
