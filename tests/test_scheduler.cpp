// Demand-driven scheduler suite. The contract under test: lazy schedules
// (TOF-only, localize-only) produce bit-identical TOF streams and positions
// vs. the full pipeline, on both sim and replay sources -- while
// demonstrably skipping the undemanded work. Plus stage-event delivery
// order, WorkerPool semantics, the no-subscriber TrackUpdateEvent skip, and
// the stage-stats snapshot/reset.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"
#include "engine/engine.hpp"
#include "engine/plugins.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"

#include "demand_stage.hpp"

namespace witrack {
namespace {

using core::PipelineOutputs;
using geom::Vec3;

// ------------------------------------------------------------ helpers

engine::EngineConfig walk_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<sim::LineWalkScript> walk_script() {
    return std::make_unique<sim::LineWalkScript>(Vec3{-1, 5, 0}, Vec3{1, 5, 0},
                                                 2.0, 1.0);
}

/// Every captured frame of a deterministic sim episode.
std::vector<sim::Scenario::Frame> captured_frames(std::uint64_t seed) {
    sim::Scenario scenario(engine::make_scenario_config(walk_config(seed)),
                           walk_script());
    std::vector<sim::Scenario::Frame> frames;
    sim::Scenario::Frame frame;
    while (scenario.next(frame)) frames.push_back(frame);
    return frames;
}

void expect_same_tof(const core::TofFrame& a, const core::TofFrame& b) {
    ASSERT_EQ(a.antennas.size(), b.antennas.size());
    EXPECT_EQ(a.time_s, b.time_s);
    for (std::size_t rx = 0; rx < a.antennas.size(); ++rx) {
        const auto& x = a.antennas[rx];
        const auto& y = b.antennas[rx];
        EXPECT_EQ(x.contour.detected, y.contour.detected);
        EXPECT_EQ(x.contour.round_trip_m, y.contour.round_trip_m);
        EXPECT_EQ(x.contour.power, y.contour.power);
        ASSERT_EQ(x.denoised_m.has_value(), y.denoised_m.has_value());
        if (x.denoised_m) {
            EXPECT_EQ(*x.denoised_m, *y.denoised_m);
        }
    }
}

void expect_same_track(const std::vector<core::TrackPoint>& a,
                       const std::vector<core::TrackPoint>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time_s, b[i].time_s);
        EXPECT_EQ(a[i].position.x, b[i].position.x);
        EXPECT_EQ(a[i].position.y, b[i].position.y);
        EXPECT_EQ(a[i].position.z, b[i].position.z);
        EXPECT_EQ(a[i].residual_rms, b[i].residual_rms);
    }
}

// -------------------------------------------------- PipelineOutputs algebra

TEST(PipelineOutputs, DependencyClosureAndQueries) {
    EXPECT_EQ(core::with_dependencies(PipelineOutputs::kSmoothedTrack),
              PipelineOutputs::kAll);
    EXPECT_EQ(core::with_dependencies(PipelineOutputs::kRawPosition),
              PipelineOutputs::kTof | PipelineOutputs::kRawPosition);
    EXPECT_EQ(core::with_dependencies(PipelineOutputs::kTof), PipelineOutputs::kTof);
    EXPECT_EQ(core::with_dependencies(PipelineOutputs::kNone),
              PipelineOutputs::kNone);
    EXPECT_TRUE(core::demands(PipelineOutputs::kAll, PipelineOutputs::kRawPosition));
    EXPECT_FALSE(core::demands(PipelineOutputs::kTof, PipelineOutputs::kRawPosition));
    EXPECT_EQ(core::to_string(PipelineOutputs::kNone), "none");
    EXPECT_EQ(core::to_string(PipelineOutputs::kAll), "tof|raw|smoothed");
    EXPECT_EQ(core::to_string(PipelineOutputs::kTof), "tof");
}

// ------------------------------------------------------- lazy tracker parity

TEST(Scheduler, TofOnlyIsBitIdenticalAndSkipsLocalization) {
    const auto frames = captured_frames(301);
    ASSERT_GT(frames.size(), 100u);
    const auto pipeline = walk_config(301).pipeline_config();
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);

    core::WiTrackTracker full(pipeline, array);
    core::WiTrackTracker lazy(pipeline, array);
    for (const auto& frame : frames) {
        const auto a = full.process_frame(frame.sweeps, frame.time_s);
        const auto b =
            lazy.process_frame(frame.sweeps, frame.time_s, PipelineOutputs::kTof);
        expect_same_tof(a.tof, b.tof);
        EXPECT_FALSE(b.raw.has_value());
        EXPECT_FALSE(b.smoothed.has_value());
    }
    // The skipped steps did no work: no positions were ever produced.
    EXPECT_GT(full.track().size(), 50u);
    EXPECT_TRUE(lazy.track().empty());
    EXPECT_TRUE(lazy.raw_track().empty());
}

TEST(Scheduler, LocalizeOnlyIsBitIdenticalAndSkipsSmoothing) {
    const auto frames = captured_frames(302);
    const auto pipeline = walk_config(302).pipeline_config();
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);

    core::WiTrackTracker full(pipeline, array);
    core::WiTrackTracker lazy(pipeline, array);
    for (const auto& frame : frames) {
        const auto a = full.process_frame(frame.sweeps, frame.time_s);
        const auto b = lazy.process_frame(frame.sweeps, frame.time_s,
                                          PipelineOutputs::kRawPosition);
        ASSERT_EQ(a.raw.has_value(), b.raw.has_value());
        if (a.raw) {
            EXPECT_EQ(a.raw->position.x, b.raw->position.x);
            EXPECT_EQ(a.raw->position.y, b.raw->position.y);
            EXPECT_EQ(a.raw->position.z, b.raw->position.z);
        }
        EXPECT_FALSE(b.smoothed.has_value());
    }
    expect_same_track(full.raw_track(), lazy.raw_track());
    EXPECT_GT(lazy.raw_track().size(), 50u);
    EXPECT_TRUE(lazy.track().empty());  // the Kalman smoother never ran
}

TEST(Scheduler, ReDemandedSmoothingRestartsInsteadOfExtrapolating) {
    // Demand churn (a TrackUpdateEvent subscriber leaving and returning)
    // must not feed the position Kalman a dt spanning the whole gap: the
    // filter restarts, so the first smoothed point of the new session is
    // the raw measurement itself, not a stale-velocity extrapolation.
    const auto frames = captured_frames(311);
    const auto pipeline = walk_config(311).pipeline_config();
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);
    core::WiTrackTracker tracker(pipeline, array);

    std::size_t i = 0;
    for (; i < 60; ++i)
        tracker.process_frame(frames[i].sweeps, frames[i].time_s);
    for (; i < 140; ++i)  // subscriber gone: TOF-only
        tracker.process_frame(frames[i].sweeps, frames[i].time_s,
                              core::PipelineOutputs::kTof);
    for (; i < frames.size(); ++i) {
        const auto result =
            tracker.process_frame(frames[i].sweeps, frames[i].time_s);
        if (!result.raw) continue;
        ASSERT_TRUE(result.smoothed.has_value());
        // Fresh filter: first update returns the measurement bit for bit.
        EXPECT_EQ(result.smoothed->position.x, result.raw->position.x);
        EXPECT_EQ(result.smoothed->position.y, result.raw->position.y);
        EXPECT_EQ(result.smoothed->position.z, result.raw->position.z);
        break;
    }
    ASSERT_LT(i, frames.size());  // the resumed session did produce a point
}

TEST(Scheduler, ReDemandAfterNoneMatchesFreshTracker) {
    // Demand dropping to kNone and returning later (a purely event-driven
    // stage set whose subscriber comes back) restarts every stateful step:
    // the resumed tracker's per-frame output is bit-identical to a tracker
    // that never saw the pre-gap frames at all.
    const auto frames = captured_frames(312);
    const auto pipeline = walk_config(312).pipeline_config();
    const auto array = geom::make_t_array({0, 0, 1.3}, 1.0);

    core::WiTrackTracker resumed(pipeline, array);
    std::size_t i = 0;
    for (; i < 80; ++i)
        resumed.process_frame(frames[i].sweeps, frames[i].time_s);
    for (; i < 120; ++i)
        resumed.process_frame(frames[i].sweeps, frames[i].time_s,
                              core::PipelineOutputs::kNone);

    core::WiTrackTracker fresh(pipeline, array);
    for (; i < frames.size(); ++i) {
        const auto a = resumed.process_frame(frames[i].sweeps, frames[i].time_s);
        const auto b = fresh.process_frame(frames[i].sweeps, frames[i].time_s);
        expect_same_tof(a.tof, b.tof);
        ASSERT_EQ(a.raw.has_value(), b.raw.has_value());
        ASSERT_EQ(a.smoothed.has_value(), b.smoothed.has_value());
        if (a.smoothed) {
            EXPECT_EQ(a.smoothed->position.x, b.smoothed->position.x);
            EXPECT_EQ(a.smoothed->position.y, b.smoothed->position.y);
            EXPECT_EQ(a.smoothed->position.z, b.smoothed->position.z);
        }
    }
    EXPECT_GT(fresh.track().size(), 20u);
}

// ------------------------------------------------------ engine-level laziness

/// Minimal TOF-consuming stage: records each frame's TOF observations.
class TofTapStage : public engine::AppStage {
  public:
    std::string_view name() const override { return "tof_tap"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult& result,
                  engine::EventBus&) override {
        frames.push_back(result.tof);
    }
    std::vector<core::TofFrame> frames;
};

TEST(Scheduler, EngineUnionsStageDemands) {
    // TOF-only stage set: the engine schedules just the TOF step...
    auto config = walk_config(304);
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(config, walk_script()));
    auto& tap = eng.emplace_stage<TofTapStage>();
    EXPECT_EQ(eng.demanded_outputs(), PipelineOutputs::kTof);
    eng.run();
    ASSERT_GT(tap.frames.size(), 100u);
    EXPECT_TRUE(eng.tracker().track().empty());
    EXPECT_TRUE(eng.tracker().raw_track().empty());

    // ...and its TOF stream matches the full serial pipeline bit for bit.
    auto full_config = walk_config(304);
    engine::Engine full(full_config, std::make_unique<engine::SimSource>(
                                         full_config, walk_script()));
    auto& full_tap = full.emplace_stage<TofTapStage>();
    full.bus().subscribe<engine::TrackUpdateEvent>(
        [](const engine::TrackUpdateEvent&) {});
    EXPECT_EQ(full.demanded_outputs(), PipelineOutputs::kAll);
    full.run();
    EXPECT_GT(full.tracker().track().size(), 50u);

    ASSERT_EQ(tap.frames.size(), full_tap.frames.size());
    for (std::size_t i = 0; i < tap.frames.size(); ++i)
        expect_same_tof(tap.frames[i], full_tap.frames[i]);
}

TEST(Scheduler, EngineDemandPolicy) {
    auto config = walk_config(305);
    {
        // Headless: nobody attached, full pipeline for tracker() readers.
        engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                       config, walk_script()));
        EXPECT_EQ(eng.demanded_outputs(), PipelineOutputs::kAll);
        // A purely event-driven stage set demands nothing.
        apps::ApplianceRegistry registry(0.5);
        apps::InsteonDriver driver;
        eng.emplace_stage<engine::ApplianceController>(registry, driver);
        EXPECT_EQ(eng.demanded_outputs(), PipelineOutputs::kNone);
        // The fall monitor adds raw positions (and their TOF dependency)
        // but never the smoother.
        eng.emplace_stage<engine::FallMonitorStage>();
        EXPECT_EQ(eng.demanded_outputs(),
                  PipelineOutputs::kTof | PipelineOutputs::kRawPosition);
    }
}

// ------------------------------------------------------ replay-source laziness

TEST(Scheduler, LazyScheduleParityOnReplaySource) {
    const std::string path = testing::TempDir() + "witrack_scheduler.wtrk";
    // Record a deterministic episode once.
    auto record_config = walk_config(307);
    engine::SimSource live(record_config, walk_script());
    {
        engine::Recorder recorder(path, live.fmcw(), live.array());
        engine::Frame frame;
        while (live.next(frame)) recorder.write(frame);
        ASSERT_GT(recorder.frames_written(), 100u);
    }

    auto run_replay = [&](PipelineOutputs outputs) {
        auto config = walk_config(307);
        engine::Engine eng(config, std::make_unique<engine::ReplaySource>(path));
        eng.emplace_stage<testing_support::DemandStage>(outputs);
        eng.run();
        return std::make_pair(eng.tracker().track(), eng.tracker().raw_track());
    };

    const auto [full_track, full_raw] = run_replay(PipelineOutputs::kAll);
    ASSERT_GT(full_track.size(), 50u);
    // Lazy replay: localize-only raw positions match the full run's.
    const auto [lazy_track, lazy_raw] = run_replay(PipelineOutputs::kRawPosition);
    EXPECT_TRUE(lazy_track.empty());
    expect_same_track(full_raw, lazy_raw);
    std::remove(path.c_str());
}

// ------------------------------------------ deterministic stage-event order

/// Publishes one PersonsEvent per frame carrying its stage tag in time_s,
/// but only while somebody listens.
class TaggedStage : public engine::AppStage {
  public:
    explicit TaggedStage(double tag) : tag_(tag) {}
    std::string_view name() const override { return "tagged"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&, const core::WiTrackTracker::FrameResult&,
                  engine::EventBus& bus) override {
        if (bus.subscriber_count<engine::PersonsEvent>() == 0) return;
        bus.publish(engine::PersonsEvent{tag_, {}, {}});
    }

  private:
    double tag_;
};

TEST(Scheduler, StageEventsDeliverInAttachmentOrder) {
    auto config = walk_config(308);
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(config, walk_script()));
    const std::vector<double> tags = {0.125, 0.250, 0.375};
    for (const double tag : tags) eng.emplace_stage<TaggedStage>(tag);
    std::vector<double> order;
    eng.bus().subscribe<engine::PersonsEvent>(
        [&](const engine::PersonsEvent& event) { order.push_back(event.time_s); });
    eng.run();

    // Every frame delivers one event per stage, in attachment order.
    ASSERT_GT(eng.frames_processed(), 100u);
    ASSERT_EQ(order.size(), tags.size() * eng.frames_processed());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], tags[i % tags.size()]) << "event " << i;
}

// ------------------------------------------------ TrackUpdateEvent laziness

TEST(Scheduler, TrackUpdateEventSkippedWithoutSubscribers) {
    auto config = walk_config(309);
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(config, walk_script()));
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(eng.step());
    EXPECT_EQ(eng.track_updates_published(), 0u);  // never even built

    std::size_t seen = 0;
    const auto token = eng.bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent&) { ++seen; });
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(eng.step());
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(eng.track_updates_published(), 10u);

    // Unsubscribing silences the channel again.
    EXPECT_TRUE(eng.bus().unsubscribe<engine::TrackUpdateEvent>(token));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(eng.step());
    EXPECT_EQ(seen, 10u);
    EXPECT_EQ(eng.track_updates_published(), 10u);
    EXPECT_EQ(eng.frames_processed(), 35u);
}

// ------------------------------------------------------ stage-stats snapshot

TEST(Scheduler, TakeStageStatsSnapshotsAndResets) {
    auto config = walk_config(310);
    engine::Engine eng(config,
                       std::make_unique<engine::SimSource>(config, walk_script()));
    eng.emplace_stage<engine::FallMonitorStage>();

    for (int i = 0; i < 25; ++i) ASSERT_TRUE(eng.step());
    const auto window1 = eng.take_stage_stats();
    // Application stages lead; the demanded pipeline steps' histogram
    // entries are appended after them (per-antenna samples for the per-RX
    // steps, so their frames count (frame, antenna) pairs).
    ASSERT_GE(window1.size(), 2u);
    EXPECT_EQ(window1[0].name, "fall_monitor");
    EXPECT_EQ(window1[0].frames, 25u);
    EXPECT_GT(window1[0].total_s, 0.0);
    EXPECT_GE(window1[0].max_s, window1[0].mean_s());
    EXPECT_EQ(window1[1].name, "pipeline.fft");
    for (std::size_t i = 1; i < window1.size(); ++i) {
        EXPECT_EQ(window1[i].name.rfind("pipeline.", 0), 0u) << window1[i].name;
        EXPECT_GT(window1[i].frames, 0u) << window1[i].name;
        EXPECT_GT(window1[i].total_s, 0.0) << window1[i].name;
        EXPECT_GE(window1[i].max_s, window1[i].mean_s()) << window1[i].name;
    }

    // The running aggregates restarted; the stage identity did not.
    ASSERT_EQ(eng.stage_stats().size(), 1u);
    EXPECT_EQ(eng.stage_stats()[0].frames, 0u);
    EXPECT_EQ(eng.stage_stats()[0].total_s, 0.0);
    EXPECT_EQ(eng.stage_stats()[0].max_s, 0.0);
    EXPECT_EQ(eng.stage_stats()[0].name, "fall_monitor");

    for (int i = 0; i < 10; ++i) ASSERT_TRUE(eng.step());
    const auto window2 = eng.take_stage_stats();
    EXPECT_EQ(window2[0].frames, 10u);  // only the new window
}

// -------------------------------------------------------------- WorkerPool

TEST(WorkerPool, ParallelForCoversEveryIndexExactlyOnce) {
    common::WorkerPool pool(4);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(kN, [&](std::size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);

    // Reusable: a second fan-out on the same pool works the same way.
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(100, [&](std::size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 4950u);
}

TEST(WorkerPool, ParallelForRethrowsBodyException) {
    common::WorkerPool pool(2);
    EXPECT_THROW(
        pool.parallel_for(64,
                          [](std::size_t i) {
                              if (i == 13) throw std::runtime_error("boom");
                          }),
        std::runtime_error);
    // The pool survives the exception and keeps scheduling.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, SubmitRunsJobsAndDrainsOnDestruction) {
    std::atomic<int> ran{0};
    {
        common::WorkerPool pool(2, /*queue_capacity=*/4);
        for (int i = 0; i < 64; ++i)
            pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        // Destructor drains the queue before joining.
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(WorkerPool, ZeroAndOneItemFanOutsRunInline) {
    common::WorkerPool pool(3);
    pool.parallel_for(0, [](std::size_t) { FAIL() << "no indices to run"; });
    int ran = 0;
    pool.parallel_for(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++ran;
    });
    EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace witrack
