// Fleet runtime suite. The contract under test: an EngineHost multiplexing
// heterogeneous sessions (sim + replay, different demand masks, faulted
// 4-RX radios) over one shared WorkerPool produces per-session output
// bit-identical to the same sessions run standalone on dedicated Engines --
// with sessions stepped serially or in parallel -- and the same lifecycle
// sequence at every worker count, while admission control, backpressure
// eviction, fault isolation and the round-boundary contract keep tenants
// from hurting each other. Plus WorkerPool multi-client and nesting
// semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.hpp"
#include "core/pipeline_steps.hpp"
#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/plugins.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "hw/fault_injector.hpp"

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

std::unique_ptr<sim::LineWalkScript> walk_script(double x0 = -1.0, double x1 = 1.0,
                                                 double duration_s = 2.0) {
    return std::make_unique<sim::LineWalkScript>(Vec3{x0, 5, 0}, Vec3{x1, 5, 0},
                                                 duration_s, 1.0);
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

void expect_same_tof(const core::TofFrame& a, const core::TofFrame& b) {
    ASSERT_EQ(a.antennas.size(), b.antennas.size());
    EXPECT_EQ(a.time_s, b.time_s);
    for (std::size_t rx = 0; rx < a.antennas.size(); ++rx) {
        const auto& x = a.antennas[rx];
        const auto& y = b.antennas[rx];
        EXPECT_EQ(x.contour.detected, y.contour.detected);
        EXPECT_EQ(x.contour.round_trip_m, y.contour.round_trip_m);
        ASSERT_EQ(x.denoised_m.has_value(), y.denoised_m.has_value());
        if (x.denoised_m) {
            EXPECT_EQ(*x.denoised_m, *y.denoised_m);
        }
    }
}

/// Record a deterministic sim episode to `path` once.
void record_episode(const std::string& path, std::uint64_t seed,
                    double duration_s = 2.0) {
    auto config = walk_config(seed);
    engine::SimSource live(config, walk_script(-1.0, 1.0, duration_s));
    engine::Recorder recorder(path, live.fmcw(), live.array());
    engine::Frame frame;
    while (live.next(frame)) recorder.write(frame);
    recorder.close();
}

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

/// Publishes one PersonsEvent from finish() -- probes whether episode
/// verdicts leak out of an evicted session.
class FinishProbeStage : public engine::AppStage {
  public:
    std::string_view name() const override { return "finish_probe"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {}
    void finish(engine::EventBus& bus) override {
        bus.publish(engine::PersonsEvent{0.0, {}, {}});
    }
};

/// Throws once at a chosen frame index -- the fault-isolation probe.
class FaultyStage : public engine::AppStage {
  public:
    explicit FaultyStage(std::size_t fail_at) : fail_at_(fail_at) {}
    std::string_view name() const override { return "faulty"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {
        if (++seen_ == fail_at_) throw std::runtime_error("tenant bug");
    }

  private:
    std::size_t fail_at_;
    std::size_t seen_ = 0;
};

// ------------------------------------------- heterogeneous fleet bit parity

/// Run the canonical 3-session heterogeneous fleet (full-demand sim walk,
/// TOF-only sim walk, localize-only replay) on one EngineHost and compare
/// every session's output bit for bit against dedicated standalone Engines.
void run_fleet_parity(std::size_t host_workers) {
    const std::string path = testing::TempDir() + "witrack_fleet_parity.wtrk";
    record_episode(path, 407);

    // --- standalone references (serial: the schedule-independent truth) ---
    auto full_config = walk_config(401);
    engine::Engine full_ref(full_config,
                            std::make_unique<engine::SimSource>(full_config,
                                                                walk_script()));
    full_ref.run();
    ASSERT_GT(full_ref.tracker().track().size(), 50u);

    auto tof_config = walk_config(402);
    engine::Engine tof_ref(tof_config, std::make_unique<engine::SimSource>(
                                           tof_config, walk_script(-0.5, 1.5)));
    auto& ref_tap = tof_ref.emplace_stage<TofTapStage>();
    tof_ref.run();
    ASSERT_GT(ref_tap.frames.size(), 100u);
    EXPECT_TRUE(tof_ref.tracker().track().empty());  // demand mask respected

    auto replay_config = walk_config(407);
    engine::Engine replay_ref(replay_config,
                              std::make_unique<engine::ReplaySource>(path));
    replay_ref.emplace_stage<testing_support::DemandStage>(PipelineOutputs::kRawPosition);
    replay_ref.run();
    ASSERT_GT(replay_ref.tracker().raw_track().size(), 50u);
    EXPECT_TRUE(replay_ref.tracker().track().empty());

    // --- the same three sessions multiplexed on one host ------------------
    engine::EngineHost host(engine::HostConfig{}
                                .with_workers(host_workers)
                                .with_max_sessions(8));
    const auto full_id = host.admit("home-a", walk_config(401),
                                    std::make_unique<engine::SimSource>(
                                        walk_config(401), walk_script()));
    const auto tof_id =
        host.admit("home-b", walk_config(402),
                   std::make_unique<engine::SimSource>(walk_config(402),
                                                       walk_script(-0.5, 1.5)));
    auto& host_tap = host.session(tof_id)->emplace_stage<TofTapStage>();
    const auto replay_id = host.admit(
        "replay-c", walk_config(407), std::make_unique<engine::ReplaySource>(path));
    host.session(replay_id)->emplace_stage<testing_support::DemandStage>(
        PipelineOutputs::kRawPosition);

    EXPECT_EQ(host.state(full_id), engine::SessionState::kAdmitted);
    host.run();
    EXPECT_EQ(host.state(full_id), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(tof_id), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(replay_id), engine::SessionState::kFinished);

    // Bit parity per session, regardless of schedule or co-tenants.
    expect_same_track(full_ref.tracker().track(),
                      host.session(full_id)->tracker().track());
    expect_same_track(full_ref.tracker().raw_track(),
                      host.session(full_id)->tracker().raw_track());
    ASSERT_EQ(ref_tap.frames.size(), host_tap.frames.size());
    for (std::size_t i = 0; i < ref_tap.frames.size(); ++i)
        expect_same_tof(ref_tap.frames[i], host_tap.frames[i]);
    EXPECT_TRUE(host.session(tof_id)->tracker().track().empty());
    expect_same_track(replay_ref.tracker().raw_track(),
                      host.session(replay_id)->tracker().raw_track());
    EXPECT_TRUE(host.session(replay_id)->tracker().track().empty());
    std::remove(path.c_str());
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalSerialHost) {
    run_fleet_parity(1);
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalSharedPoolHost) {
    run_fleet_parity(4);
}

TEST(Fleet, HeterogeneousSessionsBitIdenticalDefaultWorkers) {
    // workers = 0 resolves WITRACK_WORKERS -- the TSan CI job runs this
    // suite with WITRACK_WORKERS=4, flipping the whole fleet onto the
    // shared pool.
    run_fleet_parity(0);
}

// ------------------------------------ mixed fleet: parity and round order

/// One tenant of the mixed fleet. A host session and its standalone
/// reference are built from the same Tenant, so they see identical input.
struct Tenant {
    std::string name;
    std::uint64_t seed = 0;
    bool faulted = false;      ///< 4-RX radio with a seeded hw::FaultInjector
    std::size_t fail_at = 0;   ///< FaultyStage throws at this frame (0 = never)
    std::string replay;        ///< recording to replay ("" = simulate)
};

engine::EngineConfig tenant_config(const Tenant& tenant) {
    auto config = walk_config(tenant.seed);
    config.with_cross_array(tenant.faulted);
    return config;
}

std::unique_ptr<engine::FrameSource> tenant_source(const Tenant& tenant) {
    if (!tenant.replay.empty())
        return std::make_unique<engine::ReplaySource>(tenant.replay);
    auto source = std::make_unique<engine::SimSource>(
        tenant_config(tenant), walk_script(-1.0, 1.0, /*duration_s=*/1.0));
    if (tenant.faulted) {
        hw::FaultConfig faults;
        faults.dropout_rate = 0.05;
        faults.saturation_rate = 0.05;
        faults.seed = tenant.seed;
        source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
    }
    return source;
}

void wire_tenant(const Tenant& tenant, engine::Engine& engine) {
    // The whole chain runs for every tenant, whatever its other stages read.
    engine.emplace_stage<testing_support::DemandStage>(PipelineOutputs::kAll);
    if (tenant.fail_at > 0) engine.emplace_stage<FaultyStage>(tenant.fail_at);
}

/// What one host run of the mixed fleet leaves behind.
struct MixedFleetRun {
    std::vector<std::vector<core::TrackPoint>> tracks, raw_tracks;
    std::vector<QualityStats> quality;
    std::vector<std::size_t> rx;
    /// Every lifecycle change, one line per change, tagged with its round.
    std::vector<std::string> lifecycle;
    engine::FleetStats stats;
};

MixedFleetRun run_mixed_fleet(const std::vector<Tenant>& tenants,
                              std::size_t workers) {
    // One slot fewer than tenants: the last one admitted waits in the queue.
    engine::EngineHost host(engine::HostConfig{}
                                .with_workers(workers)
                                .with_max_sessions(tenants.size() - 1));
    std::vector<engine::SessionId> ids;
    for (const Tenant& tenant : tenants) {
        ids.push_back(host.admit(tenant.name, tenant_config(tenant),
                                 tenant_source(tenant)));
        wire_tenant(tenant, *host.session(ids.back()));
    }
    EXPECT_EQ(host.queued_sessions(), 1u);

    MixedFleetRun run;
    std::vector<engine::SessionState> last(ids.size(),
                                           engine::SessionState::kAdmitted);
    std::size_t queued = host.queued_sessions();
    while (host.active_sessions() + host.queued_sessions() > 0) {
        host.step_all();
        const std::string round = "round " + std::to_string(host.rounds()) + ": ";
        for (std::size_t i = 0; i < ids.size(); ++i) {
            const auto state = host.state(ids[i]);
            if (state == last[i]) continue;
            last[i] = state;
            run.lifecycle.push_back(round + tenants[i].name + " " +
                                    engine::to_string(state) + " at frame " +
                                    std::to_string(host.session(ids[i])->frames_processed()));
        }
        if (host.queued_sessions() != queued) {
            queued = host.queued_sessions();
            run.lifecycle.push_back(round + "promoted, " + std::to_string(queued) +
                                    " queued, " + tenants.back().name + " at frame " +
                                    std::to_string(host.session(ids.back())->frames_processed()));
        }
    }
    for (const auto id : ids) {
        const engine::Engine& session = *host.session(id);
        run.tracks.push_back(session.tracker().track());
        run.raw_tracks.push_back(session.tracker().raw_track());
        run.quality.push_back(session.quality_stats());
        run.rx.push_back(session.array().rx.size());
    }
    run.stats = host.take_fleet_stats();
    return run;
}

void expect_same_quality(const QualityStats& a, const QualityStats& b) {
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.degraded_frames, b.degraded_frames);
    EXPECT_EQ(a.rx_dropouts, b.rx_dropouts);
    EXPECT_EQ(a.saturated_rx, b.saturated_rx);
    EXPECT_EQ(a.health_sum, b.health_sum);
}

TEST(Fleet, MixedFleetParityAndRoundOrderAtOneAndFourWorkers) {
    const std::string path = testing::TempDir() + "witrack_fleet_short.wtrk";
    record_episode(path, 471, /*duration_s=*/0.4);

    // Eight tenants -- more than the four-worker pool's threads: 3-RX sims,
    // faulted 4-RX sims, a session whose stage throws at frame 12, a short
    // replay that runs dry mid-run, and a last tenant that starts queued.
    const std::vector<Tenant> tenants = {
        {"sim-a", 472, false, 0, ""},
        {"faulted-b", 473, /*faulted=*/true, 0, ""},
        {"throws-c", 474, false, /*fail_at=*/12, ""},
        {"replay-d", 475, false, 0, path},
        {"faulted-e", 476, /*faulted=*/true, 0, ""},
        {"sim-f", 477, false, 0, ""},
        {"sim-g", 478, false, 0, ""},
        {"queued-h", 479, false, 0, ""},
    };
    const MixedFleetRun serial = run_mixed_fleet(tenants, 1);
    const MixedFleetRun parallel = run_mixed_fleet(tenants, 4);

    // Every session, at both worker counts, bit-identical to a standalone
    // Engine -- up to the throwing frame for the evicted tenant.
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        SCOPED_TRACE(tenants[i].name);
        engine::Engine reference(tenant_config(tenants[i]),
                                 tenant_source(tenants[i]));
        wire_tenant(tenants[i], reference);
        if (tenants[i].fail_at > 0) {
            EXPECT_THROW(reference.run(), std::runtime_error);
        } else {
            reference.run();
        }
        ASSERT_FALSE(reference.tracker().raw_track().empty());
        for (const MixedFleetRun* run : {&serial, &parallel}) {
            expect_same_track(reference.tracker().track(), run->tracks[i]);
            expect_same_track(reference.tracker().raw_track(), run->raw_tracks[i]);
            expect_same_quality(reference.quality_stats(), run->quality[i]);
        }
        EXPECT_EQ(serial.rx[i], tenants[i].faulted ? 4u : 3u);
        if (tenants[i].faulted) {
            EXPECT_GT(serial.quality[i].rx_dropouts, 0u);
        }
    }

    // The same lifecycle, round for round, at both worker counts.
    EXPECT_EQ(serial.lifecycle, parallel.lifecycle);
    // The throwing tenant frees its slot at the end of round 12 (its 12th
    // frame never completes); the queued tenant is promoted then and steps
    // its first frame in round 13.
    const std::vector<std::string> expected_head = {
        "round 1: sim-a running at frame 1",
        "round 1: faulted-b running at frame 1",
        "round 1: throws-c running at frame 1",
        "round 1: replay-d running at frame 1",
        "round 1: faulted-e running at frame 1",
        "round 1: sim-f running at frame 1",
        "round 1: sim-g running at frame 1",
        "round 12: throws-c evicted at frame 11",
        "round 12: promoted, 0 queued, queued-h at frame 0",
        "round 13: queued-h running at frame 1",
    };
    ASSERT_GE(serial.lifecycle.size(), expected_head.size());
    for (std::size_t i = 0; i < expected_head.size(); ++i)
        EXPECT_EQ(serial.lifecycle[i], expected_head[i]);

    // Identical FleetStats counters.
    const auto& a = serial.stats;
    const auto& b = parallel.stats;
    EXPECT_EQ(a.sessions_admitted, 8u);
    EXPECT_EQ(a.sessions_finished, 7u);
    EXPECT_EQ(a.sessions_evicted, 1u);
    EXPECT_EQ(a.frames, b.frames);
    EXPECT_EQ(a.sessions_admitted, b.sessions_admitted);
    EXPECT_EQ(a.sessions_finished, b.sessions_finished);
    EXPECT_EQ(a.sessions_evicted, b.sessions_evicted);
    EXPECT_EQ(a.active_sessions, b.active_sessions);
    EXPECT_EQ(a.queued_sessions, b.queued_sessions);
    expect_same_quality(a.quality, b.quality);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        EXPECT_EQ(a.sessions[i].id, b.sessions[i].id);
        EXPECT_EQ(a.sessions[i].state, b.sessions[i].state);
        EXPECT_EQ(a.sessions[i].step.frames, b.sessions[i].step.frames);
        EXPECT_EQ(a.sessions[i].fault, b.sessions[i].fault);
    }
    EXPECT_NE(a.sessions[2].fault.find("tenant bug"), std::string::npos);
    std::remove(path.c_str());
}

// ------------------------------------------------------ round boundary

/// Calls back into the host from inside a round: a contract violation that
/// must turn into a clean eviction of the calling session.
class AdmittingStage : public engine::AppStage {
  public:
    explicit AdmittingStage(engine::EngineHost& host) : host_(&host) {}
    std::string_view name() const override { return "admitting"; }
    engine::Inputs required_inputs() const override {
        return engine::Inputs::kTof;
    }
    void on_frame(const engine::Frame&,
                  const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {
        host_->admit("nested", walk_config(499),
                     std::make_unique<engine::SimSource>(walk_config(499),
                                                         walk_script()));
    }

  private:
    engine::EngineHost* host_;
};

TEST(Fleet, AdmitInsideRoundThrowsAndEvictsOnlyThatSession) {
    engine::EngineHost host;
    const auto bad = host.admit("bad", walk_config(491),
                                std::make_unique<engine::SimSource>(
                                    walk_config(491), walk_script()));
    const auto good = host.admit("good", walk_config(492),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(492), walk_script()));
    host.session(bad)->emplace_stage<AdmittingStage>(host);

    host.run();
    EXPECT_EQ(host.state(bad), engine::SessionState::kEvicted);
    EXPECT_EQ(host.session(bad)->frames_processed(), 0u);  // frame 1 never completed
    EXPECT_EQ(host.state(good), engine::SessionState::kFinished);
    EXPECT_EQ(host.total_sessions(), 2u);  // the nested admit registered nothing
    const auto stats = host.take_fleet_stats();
    EXPECT_NE(stats.sessions[0].fault.find("inside step_all"), std::string::npos);

    auto ref_config = walk_config(492);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(), host.session(good)->tracker().track());
}

TEST(Fleet, RegistryCallsInsideRoundAreRefused) {
    engine::EngineHost host;
    const auto id = host.admit("s", walk_config(493),
                               std::make_unique<engine::SimSource>(
                                   walk_config(493), walk_script()));
    std::vector<std::string> refused;
    host.session(id)->bus().subscribe<engine::TrackUpdateEvent>(
        [&](const engine::TrackUpdateEvent&) {
            const auto attempt = [&](const char* what, const auto& call) {
                try {
                    call();
                } catch (const std::logic_error&) {
                    refused.push_back(what);
                }
            };
            attempt("evict", [&] { host.evict(id); });
            attempt("pause", [&] { host.pause(id); });
            attempt("resume", [&] { host.resume(id); });
            attempt("reap", [&] { host.reap(); });
            attempt("take_fleet_stats", [&] { host.take_fleet_stats(); });
            attempt("step_all", [&] { host.step_all(); });
        });
    EXPECT_EQ(host.step_all(), 1u);
    EXPECT_EQ(refused, (std::vector<std::string>{"evict", "pause", "resume", "reap",
                                                 "take_fleet_stats", "step_all"}));
    // The subscriber swallowed every refusal: the session is untouched, and
    // the same calls work between rounds.
    EXPECT_EQ(host.state(id), engine::SessionState::kRunning);
    EXPECT_EQ(host.take_fleet_stats().frames, 1u);
    EXPECT_TRUE(host.evict(id));
}

// ------------------------------------------------------ round-robin fairness

TEST(Fleet, StepAllIsFairRoundRobin) {
    engine::EngineHost host;
    const auto a = host.admit("a", walk_config(411),
                              std::make_unique<engine::SimSource>(
                                  walk_config(411), walk_script()));
    const auto b = host.admit("b", walk_config(412),
                              std::make_unique<engine::SimSource>(
                                  walk_config(412), walk_script()));
    for (int round = 1; round <= 10; ++round) {
        EXPECT_EQ(host.step_all(), 2u);  // one frame per session per round
        EXPECT_EQ(host.session(a)->frames_processed(),
                  static_cast<std::size_t>(round));
        EXPECT_EQ(host.session(b)->frames_processed(),
                  static_cast<std::size_t>(round));
    }
    EXPECT_EQ(host.rounds(), 10u);
    EXPECT_EQ(host.state(a), engine::SessionState::kRunning);

    // A frame budget stops between rounds.
    const std::size_t more = host.run(6);
    EXPECT_EQ(more, 6u);
}

// ------------------------------------------------------------ admission

TEST(Fleet, AdmissionCapQueuesAndPromotes) {
    engine::EngineHost host(
        engine::HostConfig{}.with_max_sessions(2).with_queue_when_full(true));
    const auto a = host.admit("a", walk_config(421),
                              std::make_unique<engine::SimSource>(
                                  walk_config(421), walk_script()));
    const auto b = host.admit("b", walk_config(422),
                              std::make_unique<engine::SimSource>(
                                  walk_config(422), walk_script()));
    const auto c = host.admit("c", walk_config(423),
                              std::make_unique<engine::SimSource>(
                                  walk_config(423), walk_script()));
    EXPECT_EQ(host.active_sessions(), 2u);
    EXPECT_EQ(host.queued_sessions(), 1u);

    // The queued session does not run while the fleet is at capacity.
    host.step_all();
    EXPECT_EQ(host.session(c)->frames_processed(), 0u);
    EXPECT_EQ(host.state(c), engine::SessionState::kAdmitted);

    // ...but finishes (promoted into a freed slot) by the end of the run,
    // with output identical to a dedicated Engine.
    host.run();
    EXPECT_EQ(host.state(a), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_EQ(host.state(c), engine::SessionState::kFinished);
    EXPECT_EQ(host.queued_sessions(), 0u);

    auto ref_config = walk_config(423);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(c)->tracker().track());
}

TEST(Fleet, AdmissionCapRejectsWhenQueueingDisabled) {
    engine::EngineHost host(
        engine::HostConfig{}.with_max_sessions(1).with_queue_when_full(false));
    host.admit("only", walk_config(424),
               std::make_unique<engine::SimSource>(walk_config(424),
                                                   walk_script()));
    EXPECT_THROW(host.admit("rejected", walk_config(425),
                            std::make_unique<engine::SimSource>(
                                walk_config(425), walk_script())),
                 std::runtime_error);
    EXPECT_EQ(host.total_sessions(), 1u);
}

// --------------------------------------------------- backpressure + faults

TEST(Fleet, PausedSessionAccruesLagAndIsEvicted) {
    engine::EngineHost host(engine::HostConfig{}.with_max_frame_lag(5));
    const auto slow = host.admit("slow", walk_config(431),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(431), walk_script()));
    const auto healthy = host.admit("healthy", walk_config(432),
                                    std::make_unique<engine::SimSource>(
                                        walk_config(432), walk_script()));
    for (int i = 0; i < 3; ++i) host.step_all();
    host.pause(slow);
    // 5 rounds of lag are tolerated; the 6th evicts.
    for (int i = 0; i < 5; ++i) host.step_all();
    EXPECT_EQ(host.state(slow), engine::SessionState::kRunning);
    host.step_all();
    EXPECT_EQ(host.state(slow), engine::SessionState::kEvicted);
    EXPECT_EQ(host.session(slow)->frames_processed(), 3u);

    // The surviving tenant is untouched: it finishes with output identical
    // to a dedicated Engine.
    host.run();
    EXPECT_EQ(host.state(healthy), engine::SessionState::kFinished);
    auto ref_config = walk_config(432);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(healthy)->tracker().track());

    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.sessions_evicted, 1u);
    EXPECT_EQ(stats.sessions_finished, 1u);
    ASSERT_EQ(stats.sessions.size(), 2u);
    EXPECT_NE(stats.sessions[0].fault.find("max_frame_lag"), std::string::npos);
}

TEST(Fleet, PauseResumeWithoutEviction) {
    engine::EngineHost host(engine::HostConfig{}.with_max_frame_lag(10));
    const auto id = host.admit("s", walk_config(433),
                               std::make_unique<engine::SimSource>(
                                   walk_config(433), walk_script()));
    host.step_all();
    host.pause(id);
    for (int i = 0; i < 4; ++i) host.step_all();
    EXPECT_EQ(host.session(id)->frames_processed(), 1u);
    host.resume(id);
    host.run();
    EXPECT_EQ(host.state(id), engine::SessionState::kFinished);

    // A resumed pull-source session lost nothing (frames were not consumed
    // while paused), so the track matches a dedicated Engine's exactly.
    auto ref_config = walk_config(433);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(), host.session(id)->tracker().track());
}

TEST(Fleet, ThrowingStageEvictsOnlyItsSession) {
    engine::EngineHost host;
    const auto bad = host.admit("bad", walk_config(441),
                                std::make_unique<engine::SimSource>(
                                    walk_config(441), walk_script()));
    const auto good = host.admit("good", walk_config(442),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(442), walk_script()));
    host.session(bad)->emplace_stage<FaultyStage>(/*fail_at=*/10);

    host.run();
    EXPECT_EQ(host.state(bad), engine::SessionState::kEvicted);
    EXPECT_EQ(host.state(good), engine::SessionState::kFinished);
    const auto stats = host.take_fleet_stats();
    EXPECT_NE(stats.sessions[0].fault.find("tenant bug"), std::string::npos);

    auto ref_config = walk_config(442);
    engine::Engine ref(ref_config, std::make_unique<engine::SimSource>(
                                       ref_config, walk_script()));
    ref.run();
    expect_same_track(ref.tracker().track(),
                      host.session(good)->tracker().track());
}

TEST(Fleet, ManualEvictionFreesSlotForQueuedSession) {
    engine::EngineHost host(engine::HostConfig{}.with_max_sessions(1));
    const auto a = host.admit("a", walk_config(443),
                              std::make_unique<engine::SimSource>(
                                  walk_config(443), walk_script()));
    const auto b = host.admit("b", walk_config(444),
                              std::make_unique<engine::SimSource>(
                                  walk_config(444), walk_script()));
    host.step_all();
    EXPECT_EQ(host.session(b)->frames_processed(), 0u);
    EXPECT_TRUE(host.evict(a, "tenant closed the app"));
    EXPECT_FALSE(host.evict(a));  // already terminal
    EXPECT_EQ(host.state(a), engine::SessionState::kEvicted);
    host.run();
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_GT(host.session(b)->frames_processed(), 100u);
}

TEST(Fleet, EvictedSessionEngineIsTerminallyInert) {
    // Eviction must hold even for a caller still holding the (readable)
    // Engine: no further frames process, and episode finish() verdicts --
    // computed from a half-processed stream -- are never published.
    engine::EngineHost host;
    const auto id = host.admit("doomed", walk_config(445),
                               std::make_unique<engine::SimSource>(
                                   walk_config(445), walk_script()));
    host.session(id)->emplace_stage<FinishProbeStage>();
    std::size_t verdicts = 0;
    host.session(id)->bus().subscribe<engine::PersonsEvent>(
        [&](const engine::PersonsEvent&) { ++verdicts; });

    for (int i = 0; i < 5; ++i) host.step_all();
    ASSERT_TRUE(host.evict(id, "test eviction"));

    engine::Engine* engine = host.session(id);
    EXPECT_FALSE(engine->step());
    EXPECT_EQ(engine->run(), 0u);
    engine->finish();
    EXPECT_EQ(engine->frames_processed(), 5u);
    EXPECT_EQ(verdicts, 0u);
    EXPECT_EQ(engine->session_state(), engine::SessionState::kEvicted);

    // A non-evicted session publishes its verdict exactly once, for
    // contrast.
    const auto ok = host.admit("ok", walk_config(446),
                               std::make_unique<engine::SimSource>(
                                   walk_config(446), walk_script()));
    host.session(ok)->emplace_stage<FinishProbeStage>();
    std::size_t ok_verdicts = 0;
    host.session(ok)->bus().subscribe<engine::PersonsEvent>(
        [&](const engine::PersonsEvent&) { ++ok_verdicts; });
    host.run();
    EXPECT_EQ(ok_verdicts, 1u);
}

TEST(Fleet, FinishedEngineRefusesFurtherFrames) {
    // finish() is terminal: once episode verdicts were delivered, no frame
    // may flow (it could never get episode closure).
    auto config = walk_config(449);
    engine::Engine eng(config, std::make_unique<engine::SimSource>(
                                   config, walk_script()));
    for (int i = 0; i < 5; ++i) ASSERT_TRUE(eng.step());
    eng.finish();
    EXPECT_EQ(eng.session_state(), engine::SessionState::kFinished);
    EXPECT_FALSE(eng.step());
    EXPECT_EQ(eng.run(), 0u);
    EXPECT_EQ(eng.frames_processed(), 5u);
}

TEST(Fleet, OutOfBandFinishPromotesQueuedSessionAndIsCounted) {
    // session() hands out the Engine*; a caller may drive a session to
    // completion outside the scheduler. The host must still notice the
    // freed slot (queued tenants run) and count the finish.
    engine::EngineHost host(engine::HostConfig{}.with_max_sessions(1));
    const auto a = host.admit("a", walk_config(452),
                              std::make_unique<engine::SimSource>(
                                  walk_config(452), walk_script()));
    const auto b = host.admit("b", walk_config(453),
                              std::make_unique<engine::SimSource>(
                                  walk_config(453), walk_script()));
    EXPECT_EQ(host.queued_sessions(), 1u);

    host.session(a)->run();  // out-of-band: not via step_all()
    EXPECT_EQ(host.state(a), engine::SessionState::kFinished);

    host.run();
    EXPECT_EQ(host.state(b), engine::SessionState::kFinished);
    EXPECT_GT(host.session(b)->frames_processed(), 100u);
    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.sessions_finished, 2u);
    EXPECT_EQ(stats.queued_sessions, 0u);
}

TEST(Fleet, ReapDropsTerminalSessionsOnly) {
    engine::EngineHost host;
    const auto done = host.admit("done", walk_config(447),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(447), walk_script()));
    host.run();
    const auto live = host.admit("live", walk_config(448),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(448), walk_script()));
    host.step_all();

    EXPECT_EQ(host.total_sessions(), 2u);
    EXPECT_EQ(host.reap(), 1u);  // only the finished session goes
    EXPECT_EQ(host.total_sessions(), 1u);
    EXPECT_EQ(host.session(done), nullptr);
    ASSERT_NE(host.session(live), nullptr);
    EXPECT_EQ(host.state(live), engine::SessionState::kRunning);
    EXPECT_EQ(host.reap(), 0u);

    // The reaped id is gone from telemetry; the survivor still rolls up.
    const auto stats = host.take_fleet_stats();
    ASSERT_EQ(stats.sessions.size(), 1u);
    EXPECT_EQ(stats.sessions[0].name, "live");
}

// ----------------------------------------------------------- fleet stats

TEST(Fleet, TakeFleetStatsSnapshotsAndResets) {
    engine::EngineHost host;
    const auto id = host.admit("s", walk_config(451),
                               std::make_unique<engine::SimSource>(
                                   walk_config(451), walk_script()));
    host.session(id)->emplace_stage<TofTapStage>();
    for (int i = 0; i < 25; ++i) host.step_all();

    auto window1 = host.take_fleet_stats();
    EXPECT_EQ(window1.frames, 25u);
    EXPECT_GT(window1.wall_s, 0.0);
    EXPECT_GT(window1.throughput_fps, 0.0);
    EXPECT_EQ(window1.sessions_admitted, 1u);
    EXPECT_EQ(window1.active_sessions, 1u);
    ASSERT_EQ(window1.sessions.size(), 1u);
    EXPECT_EQ(window1.sessions[0].name, "s");
    EXPECT_EQ(window1.sessions[0].step.frames, 25u);
    EXPECT_GT(window1.sessions[0].step.total_s, 0.0);
    EXPECT_GE(window1.sessions[0].step.max_s, window1.sessions[0].step.mean_s());
    // The per-stage rollup rides the same snapshot (take_stage_stats);
    // the demanded pipeline steps' histograms follow the application
    // stages.
    ASSERT_GE(window1.sessions[0].stages.size(), 2u);
    EXPECT_EQ(window1.sessions[0].stages[0].name, "tof_tap");
    EXPECT_EQ(window1.sessions[0].stages[0].frames, 25u);
    for (std::size_t i = 1; i < window1.sessions[0].stages.size(); ++i)
        EXPECT_EQ(window1.sessions[0].stages[i].name.rfind("pipeline.", 0), 0u);

    // The window reset: a second take right after 10 more frames reports
    // only the new window, on both levels.
    for (int i = 0; i < 10; ++i) host.step_all();
    auto window2 = host.take_fleet_stats();
    EXPECT_EQ(window2.frames, 10u);
    EXPECT_EQ(window2.sessions[0].step.frames, 10u);
    EXPECT_EQ(window2.sessions[0].stages[0].frames, 10u);
}

TEST(Fleet, LatencyLayersNestOnOneClock) {
    // Every layer records into the same histogram type on the same clock,
    // so the host step encloses the app stages plus the whole pipeline
    // frame, and the pipeline frame encloses its steps -- in every window.
    engine::EngineHost host(engine::HostConfig{}.with_workers(2));
    for (const std::uint64_t seed : {471u, 472u, 473u}) {
        const auto id = host.admit("s" + std::to_string(seed), walk_config(seed),
                                   std::make_unique<engine::SimSource>(
                                       walk_config(seed), walk_script()));
        host.session(id)->emplace_stage<engine::FallMonitorStage>();
        host.session(id)->emplace_stage<TofTapStage>();
    }
    const char* const steps[] = {"pipeline.fft",     "pipeline.subtract",
                                 "pipeline.contour", "pipeline.denoise",
                                 "pipeline.localize", "pipeline.smooth"};
    for (int window = 0; window < 3; ++window) {
        for (int i = 0; i < 20; ++i) host.step_all();
        const auto stats = host.take_fleet_stats();
        ASSERT_EQ(stats.sessions.size(), 3u);
        for (const auto& session : stats.sessions) {
            SCOPED_TRACE(session.name + " window " + std::to_string(window));
            EXPECT_EQ(session.step.frames, 20u);
            double app_s = 0.0, steps_s = 0.0;
            const engine::Engine::StageStats* frame = nullptr;
            for (const auto& stage : session.stages) {
                if (stage.name == "pipeline.frame") frame = &stage;
                else if (stage.name.rfind("pipeline.", 0) != 0) app_s += stage.total_s;
                else if (std::find(std::begin(steps), std::end(steps), stage.name) !=
                         std::end(steps))
                    steps_s += stage.total_s;
            }
            ASSERT_NE(frame, nullptr);
            EXPECT_EQ(frame->frames, session.step.frames);
            EXPECT_GT(steps_s, 0.0);
            EXPECT_GE(frame->total_s, steps_s);
            EXPECT_GE(session.step.total_s, app_s + frame->total_s);
        }
    }
}

// ------------------------------------------- WorkerPool multi-client safety

TEST(WorkerPoolFleet, InterleavedParallelForFromTwoClients) {
    // Two sessions' worth of concurrent parallel_for traffic on one shared
    // pool: every index of every fan-out runs exactly once, no cross-talk.
    common::WorkerPool pool(4);
    constexpr std::size_t kN = 256;
    constexpr int kRounds = 50;
    std::vector<std::atomic<int>> hits_a(kN), hits_b(kN);

    auto client = [&pool](std::vector<std::atomic<int>>& hits) {
        for (int round = 0; round < kRounds; ++round)
            pool.parallel_for(hits.size(), [&hits](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
    };
    std::thread a(client, std::ref(hits_a));
    std::thread b(client, std::ref(hits_b));
    a.join();
    b.join();
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_EQ(hits_a[i].load(), kRounds);
        EXPECT_EQ(hits_b[i].load(), kRounds);
    }
}

TEST(WorkerPoolFleet, NestedParallelForRunsInlineAndVisitsEveryPair) {
    // A parallel_for started from inside a share -- on a pool worker or on
    // the calling thread -- runs inline on that thread instead of queueing
    // behind its own pool.
    common::WorkerPool pool(3);
    constexpr std::size_t kOuter = 16, kInner = 64;
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    std::atomic<int> migrated{0};
    pool.parallel_for(kOuter, [&](std::size_t i) {
        const auto outer_thread = std::this_thread::get_id();
        pool.parallel_for(kInner, [&](std::size_t j) {
            if (std::this_thread::get_id() != outer_thread) migrated.fetch_add(1);
            hits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
        EXPECT_EQ(hits[k].load(), 1) << "i=" << k / kInner << " j=" << k % kInner;
    EXPECT_EQ(migrated.load(), 0);

    // Outside any share the pool fans out again.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPoolFleet, ExceptionInOneClientDoesNotPoisonTheOther) {
    common::WorkerPool pool(4);
    constexpr int kRounds = 25;
    std::atomic<int> faulty_throws{0};
    std::atomic<std::size_t> healthy_sum{0};

    std::thread faulty([&] {
        for (int round = 0; round < kRounds; ++round) {
            try {
                pool.parallel_for(64, [](std::size_t i) {
                    if (i == 13) throw std::runtime_error("tenant bug");
                });
            } catch (const std::runtime_error&) {
                faulty_throws.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    std::thread healthy([&] {
        for (int round = 0; round < kRounds; ++round)
            pool.parallel_for(100, [&](std::size_t i) {
                healthy_sum.fetch_add(i, std::memory_order_relaxed);
            });
    });
    faulty.join();
    healthy.join();
    // Every faulty fan-out rethrew on its own caller; every healthy fan-out
    // still covered all of its indices.
    EXPECT_EQ(faulty_throws.load(), kRounds);
    EXPECT_EQ(healthy_sum.load(), static_cast<std::size_t>(kRounds) * 4950u);

    // The pool survives both clients and keeps scheduling.
    std::atomic<int> ran{0};
    pool.parallel_for(8, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

}  // namespace
}  // namespace witrack
