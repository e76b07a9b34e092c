// Ablation A6 (Sections 4.3 / 5.2): energy-aware buffer replacement vs
// latency-oriented LRU/CLOCK when hierarchy levels have unequal energy
// costs.
//
// "New caching and replacement policies will be needed, possibly involving
// a larger number of more diverse memory hierarchy levels."
//
// The harness replays a Zipfian page trace that mixes pages stored on a
// spinning disk (expensive to reload) and on an SSD (cheap to reload)
// through an undersized pool under each policy, and reports reload energy.

#include "bench_util.h"
#include "power/energy_meter.h"
#include "sim/clock.h"
#include "storage/buffer_pool.h"
#include "storage/hdd.h"
#include "storage/ssd.h"
#include "util/random.h"

namespace ecodb {
namespace {

constexpr int kAccesses = 40000;
constexpr uint32_t kHddPages = 256;
constexpr uint32_t kSsdPages = 256;
constexpr size_t kFrames = 128;

struct RunOutcome {
  double device_joules = 0;
  double hit_rate = 0;
};

RunOutcome RunTrace(storage::ReplacementPolicy policy) {
  sim::SimClock clock;
  power::EnergyMeter meter(&clock);
  storage::HddDevice hdd("hdd", power::HddSpec{}, &meter);
  storage::SsdDevice ssd("ssd", power::SsdSpec{}, &meter);

  storage::BufferPoolConfig config;
  config.num_frames = kFrames;
  config.policy = policy;
  storage::BufferPool pool(config, &clock, &meter);

  Rng rng(20090107);
  for (int i = 0; i < kAccesses; ++i) {
    // Zipfian rank over the combined page population; even ranks live on
    // the disk, odd ranks on the SSD, so hot sets straddle both devices.
    const uint64_t rank = rng.Zipf(kHddPages + kSsdPages, 0.7);
    if (rank % 2 == 0) {
      (void)pool.Access(storage::PageId{1, static_cast<uint32_t>(rank / 2)}, &hdd).value();
    } else {
      (void)pool.Access(storage::PageId{2, static_cast<uint32_t>(rank / 2)}, &ssd).value();
    }
  }
  clock.AdvanceTo(std::max(hdd.busy_until(), ssd.busy_until()));

  RunOutcome out;
  // Active (reload) energy only; idle floors are identical across policies.
  out.device_joules =
      meter.ChannelBusySeconds(hdd.channel()) * power::HddSpec{}.active_watts +
      meter.ChannelBusySeconds(ssd.channel()) * power::SsdSpec{}.active_watts;
  out.hit_rate = pool.stats().HitRate();
  return out;
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A6: buffer replacement policy vs reload energy",
      "Zipfian(0.7) trace over 512 pages split across a 15K disk and an "
      "SSD; 128-frame pool");

  bench::Table table({"policy", "reload energy (J)", "hit rate"});
  double lru = 0, clock_j = 0, energy_aware = 0;
  for (auto policy :
       {storage::ReplacementPolicy::kLru, storage::ReplacementPolicy::kClock,
        storage::ReplacementPolicy::kEnergyAware}) {
    const RunOutcome out = RunTrace(policy);
    table.AddRow({storage::ReplacementPolicyName(policy),
                  bench::Fmt("%.1f", out.device_joules),
                  bench::Fmt("%.3f", out.hit_rate)});
    switch (policy) {
      case storage::ReplacementPolicy::kLru:
        lru = out.device_joules;
        break;
      case storage::ReplacementPolicy::kClock:
        clock_j = out.device_joules;
        break;
      case storage::ReplacementPolicy::kEnergyAware:
        energy_aware = out.device_joules;
        break;
    }
  }
  table.Print();

  std::printf("energy-aware saves %.1f%% vs LRU and %.1f%% vs CLOCK\n",
              (1.0 - energy_aware / lru) * 100.0,
              (1.0 - energy_aware / clock_j) * 100.0);
  bench::ShapeCheck check(
      "energy-aware replacement uses least reload energy");
  check.Expect(energy_aware < lru, "energy-aware spends more than LRU");
  check.Expect(energy_aware < clock_j, "energy-aware spends more than CLOCK");
  return check.Report();
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
