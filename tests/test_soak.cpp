// Fleet soak: hundreds of admit/churn/evict/reap cycles -- with
// checkpoint/restore in the middle -- on one long-lived EngineHost, under a
// live-allocation counter. The contract: after a warmup that populates the
// process-wide caches (CRC table, stream locales), the fleet
// reaches an allocation steady state; tenant churn and snapshot traffic
// must not leak.
//
// Runs under the `soak` ctest label: scripts/check.sh and the sanitizer CI
// lanes exclude it (-LE soak); a dedicated Release CI lane runs it
// (`ctest -L soak`).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/sim_source.hpp"

// ------------------------------------------------- allocation instrumentation
//
// Plain (non-aligned) global new/delete, counted. The default aligned
// overloads stay untouched; they pair with themselves, so the counter stays
// consistent either way.

namespace {
std::atomic<std::int64_t> g_live_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
    void* p = std::malloc(size > 0 ? size : 1);
    if (p == nullptr) throw std::bad_alloc();
    g_live_allocations.fetch_add(1, std::memory_order_relaxed);
    return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept {
    if (p == nullptr) return;
    g_live_allocations.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace witrack {
namespace {

using geom::Vec3;

/// Short episodes (~16 frames) keep hundreds of full session lifetimes
/// affordable.
engine::EngineConfig churn_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<sim::LineWalkScript> churn_script() {
    return std::make_unique<sim::LineWalkScript>(Vec3{-0.2, 5, 0}, Vec3{0.2, 5, 0},
                                                 0.2, 1.0);
}

TEST(Soak, FleetChurnWithCheckpointsHoldsSteadyStateAllocations) {
    constexpr int kCycles = 300;
    constexpr int kWarmupCycles = 50;  // caches populated, baseline taken here
    constexpr std::int64_t kSlack = 256;

    engine::EngineHost host(
        engine::HostConfig{}.with_workers(1).with_max_sessions(4));

    auto admit = [&host](std::uint64_t seed) {
        return host.admit("s" + std::to_string(seed), churn_config(seed),
                          std::make_unique<engine::SimSource>(churn_config(seed),
                                                              churn_script()));
    };

    std::int64_t baseline = 0;
    std::size_t finished = 0, evicted = 0, restored = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
        const auto seed = static_cast<std::uint64_t>(9000 + cycle);
        const auto churned = admit(seed);
        const auto survivor = admit(seed + 100000);
        for (int i = 0; i < 3; ++i) host.step_all();
        ASSERT_TRUE(host.evict(churned, "tenant churn"));
        ++evicted;

        // Mid-soak (and once during warmup, so the snapshot path's one-time
        // allocations land in the baseline): drain a session to bytes and
        // resume it as a brand-new tenant on the same host.
        if (cycle == 10 || cycle == kCycles / 2) {
            std::ostringstream snapshot;
            host.checkpoint_session(survivor, snapshot);
            ASSERT_TRUE(host.evict(survivor, "drained to snapshot"));
            ++evicted;
            std::istringstream in(snapshot.str());
            const auto resumed = host.restore_session(
                "resumed", churn_config(seed + 100000),
                std::make_unique<engine::SimSource>(churn_config(seed + 100000),
                                                    churn_script()),
                in);
            EXPECT_EQ(host.session(resumed)->frames_processed(), 3u);
            ++restored;
        }

        host.run();  // drain every remaining tenant
        finished += host.reap();
        if (cycle == kWarmupCycles)
            baseline = g_live_allocations.load(std::memory_order_relaxed);
    }

    EXPECT_EQ(host.total_sessions(), 0u);
    EXPECT_GT(finished, static_cast<std::size_t>(kCycles));
    EXPECT_EQ(evicted, static_cast<std::size_t>(kCycles) + 2);
    EXPECT_EQ(restored, 2u);

    // Steady state: a quarter-thousand churn cycles past warmup moved the
    // live-allocation count by at most the slack (transient scratch that
    // happens to be alive at the sample points).
    const auto live = g_live_allocations.load(std::memory_order_relaxed);
    EXPECT_GT(baseline, 0);
    EXPECT_LE(live, baseline + kSlack);
}

}  // namespace
}  // namespace witrack
