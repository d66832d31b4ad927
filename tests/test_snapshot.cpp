// Session snapshot/restore suite. The contract under test: for the three
// canonical heterogeneous sessions (full-demand sim walk, TOF-only sim walk
// with a stateful stage, localize-only replay), snapshot at frame k +
// restore into a freshly built session == the uninterrupted run, bit for
// bit -- standalone and through EngineHost::checkpoint_session /
// restore_session, under the serial and the 4-worker shared-pool schedules.
// Plus the StateWriter/StateReader framing primitives and the rejection
// paths: truncated, corrupt, wrong-version and structurally mismatched
// snapshots all throw without disturbing the target engine or any live
// session on the host.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "core/pipeline_steps.hpp"
#include "engine/engine.hpp"
#include "engine/host.hpp"
#include "engine/plugins.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"

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

std::unique_ptr<sim::LineWalkScript> walk_script(double x0 = -1.0, double x1 = 1.0) {
    return std::make_unique<sim::LineWalkScript>(Vec3{x0, 5, 0}, Vec3{x1, 5, 0},
                                                 2.0, 1.0);
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
void record_episode(const std::string& path, std::uint64_t seed) {
    auto config = walk_config(seed);
    engine::SimSource live(config, walk_script());
    engine::Recorder recorder(path, live.fmcw(), live.array());
    engine::Frame frame;
    while (live.next(frame)) recorder.write(frame);
    recorder.close();
}

/// TOF-consuming stage whose whole history is snapshot state: after a
/// restore, `frames` must contain the pre-snapshot observations verbatim.
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
    void save_state(common::StateWriter& writer) const override {
        writer.u64(frames.size());
        for (const auto& frame : frames) core::save_state(writer, frame);
    }
    void load_state(common::StateReader& reader) override {
        frames.resize(reader.count(sizeof(double)));
        for (auto& frame : frames) core::load_state(reader, frame);
    }
    std::vector<core::TofFrame> frames;
};

// The three canonical session shapes, built fresh on demand so references,
// interrupted runs and restore targets are identically constructed.

std::unique_ptr<engine::Engine> make_full_session() {
    auto config = walk_config(501);
    return std::make_unique<engine::Engine>(
        config, std::make_unique<engine::SimSource>(config, walk_script()));
}

std::unique_ptr<engine::Engine> make_tof_session(TofTapStage** tap = nullptr) {
    auto config = walk_config(502);
    auto eng = std::make_unique<engine::Engine>(
        config,
        std::make_unique<engine::SimSource>(config, walk_script(-0.5, 1.5)));
    auto& stage = eng->emplace_stage<TofTapStage>();
    if (tap != nullptr) *tap = &stage;
    return eng;
}

std::unique_ptr<engine::Engine> make_replay_session(const std::string& path) {
    auto config = walk_config(507);
    config.with_outputs(PipelineOutputs::kRawPosition);
    return std::make_unique<engine::Engine>(
        config, std::make_unique<engine::ReplaySource>(path));
}

std::string snapshot_bytes(const engine::Engine& eng) {
    std::ostringstream out;
    eng.snapshot(out);
    return out.str();
}

// ------------------------------------------------- framing primitives

TEST(Serialize, WriterReaderFieldRoundTrip) {
    std::ostringstream out;
    common::StateWriter writer(out, 0xABCD1234u, 7);
    writer.begin_chunk("ONE ");
    writer.u8(200);
    writer.u32(0xDEADBEEFu);
    writer.u64(1ull << 50);
    writer.f64(-0.1);
    writer.boolean(true);
    writer.str("hello snapshot");
    writer.f64_vector({1.5, -2.5, 3.25});
    writer.vec3(Vec3{0.25, -0.5, 12.0});
    writer.end_chunk();
    writer.begin_chunk("TWO ");
    writer.u64(42);
    writer.end_chunk();
    writer.finish();

    std::istringstream in(out.str());
    common::StateReader reader(in, 0xABCD1234u, 7);
    reader.open_chunk("ONE ");
    EXPECT_EQ(reader.u8(), 200);
    EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
    EXPECT_EQ(reader.u64(), 1ull << 50);
    EXPECT_EQ(reader.f64(), -0.1);
    EXPECT_TRUE(reader.boolean());
    EXPECT_EQ(reader.str(), "hello snapshot");
    const auto v = reader.f64_vector();
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[1], -2.5);
    Vec3 p;
    reader.vec3(p);
    EXPECT_EQ(p.z, 12.0);
    reader.close_chunk();
    reader.open_chunk("TWO ");
    EXPECT_EQ(reader.u64(), 42u);
    reader.close_chunk();
}

TEST(Serialize, ReaderRejectsLayoutDrift) {
    std::ostringstream out;
    common::StateWriter writer(out, 1, 1);
    writer.begin_chunk("ONE ");
    writer.u64(1000);  // read below as an element count: far exceeds the chunk
    writer.u64(2);
    writer.end_chunk();
    writer.finish();
    const std::string bytes = out.str();

    {
        // A reader that leaves bytes behind decoded the wrong layout.
        std::istringstream in(bytes);
        common::StateReader reader(in, 1, 1);
        reader.open_chunk("ONE ");
        reader.u64();
        EXPECT_THROW(reader.close_chunk(), std::runtime_error);
    }
    {
        // ...and one that reads past the end hit a truncated field.
        std::istringstream in(bytes);
        common::StateReader reader(in, 1, 1);
        reader.open_chunk("ONE ");
        reader.u64();
        reader.u64();
        EXPECT_THROW(reader.u64(), std::runtime_error);
    }
    {
        // A corrupt element count cannot drive a huge allocation.
        std::istringstream in(bytes);
        common::StateReader reader(in, 1, 1);
        reader.open_chunk("ONE ");
        EXPECT_THROW(reader.count(sizeof(double)), std::runtime_error);
    }
    {
        // Positional layout: asking for the wrong tag fails loudly.
        std::istringstream in(bytes);
        common::StateReader reader(in, 1, 1);
        EXPECT_THROW(reader.open_chunk("TWO "), std::runtime_error);
    }
}

TEST(Serialize, RngRoundTripContinuesIdentically) {
    Rng rng(12345);
    for (int i = 0; i < 100; ++i) rng.uniform();  // advance into mid-sequence state
    rng.gaussian();  // leaves the second value of a Gaussian pair pending

    std::ostringstream out;
    common::StateWriter writer(out, 1, 1);
    writer.begin_chunk("RNG ");
    common::save_state(writer, rng);
    writer.end_chunk();
    writer.finish();

    std::istringstream in(out.str());
    common::StateReader reader(in, 1, 1);
    reader.open_chunk("RNG ");
    Rng restored;
    common::load_state(reader, restored);
    reader.close_chunk();
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(rng.gaussian(), restored.gaussian());
        EXPECT_EQ(rng.uniform(), restored.uniform());
    }
}

// --------------------------------------- standalone bit-identical resume

/// snapshot at frame k + restore into a fresh identically-built Engine ==
/// the uninterrupted run, bit for bit.
void expect_resume_parity(
    const std::function<std::unique_ptr<engine::Engine>()>& make_session,
    std::size_t k) {
    auto reference = make_session();
    reference->run();

    auto interrupted = make_session();
    for (std::size_t i = 0; i < k; ++i) ASSERT_TRUE(interrupted->step());
    const std::string bytes = snapshot_bytes(*interrupted);
    interrupted.reset();  // the original session is gone; only bytes remain

    auto resumed = make_session();
    std::istringstream in(bytes);
    resumed->restore(in);
    EXPECT_EQ(resumed->frames_processed(), k);
    EXPECT_EQ(resumed->session_state(), engine::SessionState::kRunning);
    resumed->run();

    EXPECT_EQ(resumed->frames_processed(), reference->frames_processed());
    expect_same_track(reference->tracker().track(), resumed->tracker().track());
    expect_same_track(reference->tracker().raw_track(),
                      resumed->tracker().raw_track());
}

TEST(Snapshot, FullSessionResumesBitIdentical) {
    expect_resume_parity([] { return make_full_session(); }, 60);
}

TEST(Snapshot, TofOnlySessionResumesBitIdenticalWithStageState) {
    TofTapStage* ref_tap = nullptr;
    auto reference = make_tof_session(&ref_tap);
    reference->run();
    ASSERT_GT(ref_tap->frames.size(), 100u);
    EXPECT_TRUE(reference->tracker().track().empty());  // demand mask held

    TofTapStage* live_tap = nullptr;
    auto interrupted = make_tof_session(&live_tap);
    for (int i = 0; i < 60; ++i) ASSERT_TRUE(interrupted->step());
    const std::string bytes = snapshot_bytes(*interrupted);
    interrupted.reset();

    TofTapStage* resumed_tap = nullptr;
    auto resumed = make_tof_session(&resumed_tap);
    std::istringstream in(bytes);
    resumed->restore(in);
    // The stage's pre-snapshot history came back with the session.
    ASSERT_EQ(resumed_tap->frames.size(), 60u);
    resumed->run();

    ASSERT_EQ(resumed_tap->frames.size(), ref_tap->frames.size());
    for (std::size_t i = 0; i < ref_tap->frames.size(); ++i)
        expect_same_tof(ref_tap->frames[i], resumed_tap->frames[i]);
    EXPECT_TRUE(resumed->tracker().track().empty());
}

TEST(Snapshot, ReplaySessionResumesBitIdentical) {
    const std::string path = testing::TempDir() + "witrack_snapshot_replay.wtrk";
    record_episode(path, 507);
    expect_resume_parity([&] { return make_replay_session(path); }, 60);
    std::remove(path.c_str());
}

TEST(Snapshot, ResumeParityNearEpisodeBoundaries) {
    // k = 1 (almost nothing happened yet) and k deep into the episode, past
    // background training and the first detections.
    expect_resume_parity([] { return make_full_session(); }, 1);
    expect_resume_parity([] { return make_full_session(); }, 140);
}

// ------------------------------------------------ fleet checkpoint parity

/// The canonical 3-session heterogeneous fleet, checkpointed mid-flight via
/// EngineHost::checkpoint_session, restored onto a brand-new host via
/// restore_session, and run to completion: every session's output matches
/// its uninterrupted standalone reference bit for bit.
void run_checkpoint_fleet_parity(std::size_t host_workers) {
    const std::string path = testing::TempDir() + "witrack_snapshot_fleet.wtrk";
    record_episode(path, 507);

    // --- uninterrupted standalone references -----------------------------
    auto full_ref = make_full_session();
    full_ref->run();
    ASSERT_GT(full_ref->tracker().track().size(), 50u);
    TofTapStage* ref_tap = nullptr;
    auto tof_ref = make_tof_session(&ref_tap);
    tof_ref->run();
    ASSERT_GT(ref_tap->frames.size(), 100u);
    auto replay_ref = make_replay_session(path);
    replay_ref->run();
    ASSERT_GT(replay_ref->tracker().raw_track().size(), 50u);

    // --- host A: run the fleet halfway, checkpoint every session ---------
    engine::EngineHost host_a(
        engine::HostConfig{}.with_workers(host_workers).with_max_sessions(8));
    const auto full_id = host_a.admit("home-a", walk_config(501),
                                      std::make_unique<engine::SimSource>(
                                          walk_config(501), walk_script()));
    const auto tof_id =
        host_a.admit("home-b", walk_config(502),
                     std::make_unique<engine::SimSource>(walk_config(502),
                                                         walk_script(-0.5, 1.5)));
    host_a.session(tof_id)->emplace_stage<TofTapStage>();
    auto rp_config = walk_config(507);
    rp_config.with_outputs(PipelineOutputs::kRawPosition);
    const auto replay_id = host_a.admit(
        "replay-c", rp_config, std::make_unique<engine::ReplaySource>(path));

    for (int round = 0; round < 40; ++round) host_a.step_all();
    ASSERT_EQ(host_a.session(full_id)->frames_processed(), 40u);

    std::ostringstream full_snap, tof_snap, replay_snap;
    host_a.checkpoint_session(full_id, full_snap);
    host_a.checkpoint_session(tof_id, tof_snap);
    host_a.checkpoint_session(replay_id, replay_snap);

    // --- host B: a different process's worth of fleet, resumed -----------
    engine::EngineHost host_b(
        engine::HostConfig{}.with_workers(host_workers).with_max_sessions(8));
    std::istringstream full_in(full_snap.str());
    const auto full_b = host_b.restore_session(
        "home-a", walk_config(501),
        std::make_unique<engine::SimSource>(walk_config(501), walk_script()),
        full_in);
    TofTapStage* host_tap = nullptr;
    std::istringstream tof_in(tof_snap.str());
    const auto tof_b = host_b.restore_session(
        "home-b", walk_config(502),
        std::make_unique<engine::SimSource>(walk_config(502),
                                            walk_script(-0.5, 1.5)),
        tof_in, [&](engine::Engine& eng) {
            host_tap = &eng.emplace_stage<TofTapStage>();
        });
    std::istringstream replay_in(replay_snap.str());
    const auto replay_b = host_b.restore_session(
        "replay-c", rp_config, std::make_unique<engine::ReplaySource>(path),
        replay_in);

    // Restored sessions resume mid-episode with fresh host identities.
    EXPECT_EQ(host_b.session(full_b)->frames_processed(), 40u);
    EXPECT_EQ(host_b.state(full_b), engine::SessionState::kRunning);
    ASSERT_NE(host_tap, nullptr);
    EXPECT_EQ(host_tap->frames.size(), 40u);

    host_b.run();
    EXPECT_EQ(host_b.state(full_b), engine::SessionState::kFinished);
    EXPECT_EQ(host_b.state(tof_b), engine::SessionState::kFinished);
    EXPECT_EQ(host_b.state(replay_b), engine::SessionState::kFinished);

    expect_same_track(full_ref->tracker().track(),
                      host_b.session(full_b)->tracker().track());
    expect_same_track(full_ref->tracker().raw_track(),
                      host_b.session(full_b)->tracker().raw_track());
    ASSERT_EQ(ref_tap->frames.size(), host_tap->frames.size());
    for (std::size_t i = 0; i < ref_tap->frames.size(); ++i)
        expect_same_tof(ref_tap->frames[i], host_tap->frames[i]);
    EXPECT_TRUE(host_b.session(tof_b)->tracker().track().empty());
    expect_same_track(replay_ref->tracker().raw_track(),
                      host_b.session(replay_b)->tracker().raw_track());
    EXPECT_TRUE(host_b.session(replay_b)->tracker().track().empty());
    std::remove(path.c_str());
}

TEST(Snapshot, FleetCheckpointRestoreBitIdenticalSerialHost) {
    run_checkpoint_fleet_parity(1);
}

TEST(Snapshot, FleetCheckpointRestoreBitIdenticalSharedPoolHost) {
    run_checkpoint_fleet_parity(4);
}

// ------------------------------------------------------- rejection paths

TEST(Snapshot, RejectsTruncatedCorruptAndForeignStreams) {
    auto session = make_full_session();
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(session->step());
    const std::string bytes = snapshot_bytes(*session);
    ASSERT_GT(bytes.size(), 64u);

    auto expect_rejected = [](const std::string& stream) {
        auto target = make_full_session();
        std::istringstream in(stream);
        EXPECT_THROW(target->restore(in), std::runtime_error);
        // Atomic rejection: the engine is exactly as constructed and still
        // runs the full episode, matching an untouched reference bit for bit.
        target->run();
        auto reference = make_full_session();
        reference->run();
        EXPECT_EQ(target->frames_processed(), reference->frames_processed());
        expect_same_track(reference->tracker().track(),
                          target->tracker().track());
    };

    // Truncated mid-chunk.
    expect_rejected(bytes.substr(0, bytes.size() / 2));
    // One flipped payload byte: the chunk CRC catches it.
    {
        std::string corrupt = bytes;
        corrupt[bytes.size() / 2] ^= 0x40;
        expect_rejected(corrupt);
    }
    // A future format version is refused, not misparsed.
    {
        std::string skewed = bytes;
        skewed[4] = 'B';
        skewed[5] = skewed[6] = skewed[7] = 0;
        expect_rejected(skewed);
    }
    // A foreign file is not a snapshot at all.
    {
        std::string foreign = bytes;
        foreign[0] ^= 0xFF;
        expect_rejected(foreign);
    }
    expect_rejected("definitely not a snapshot");
}

/// A current snapshot relabelled as `version` must be refused by name,
/// not parsed against the current layout.
void expect_version_refused(std::uint32_t version) {
    auto session = make_full_session();
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(session->step());
    std::string bytes = snapshot_bytes(*session);
    bytes.replace(sizeof(std::uint32_t), sizeof version,
                  reinterpret_cast<const char*>(&version), sizeof version);
    auto target = make_full_session();
    std::istringstream in(bytes);
    try {
        target->restore(in);
        FAIL() << "a version-" << version << " snapshot was accepted";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("unsupported snapshot version " +
                                             std::to_string(version)),
                  std::string::npos)
            << e.what();
    }
}

TEST(Snapshot, RefusesVersionThreeStreams) {
    // Version 3 carried the simulator RNGs as std::mt19937_64 text.
    expect_version_refused(3);
}

TEST(Snapshot, RefusesVersionFourStreams) {
    // Version 4 carried two tracker latency f64s inside "TRK ".
    expect_version_refused(4);
}

TEST(Snapshot, RefusesVersionFiveStreams) {
    // Version 5 carried each RX's background as a mode byte, a primed flag,
    // full 2049-bin half-spectrum planes, learned planes and a count.
    expect_version_refused(5);
}

TEST(Snapshot, RejectsStructuralMismatch) {
    // Snapshot a session with a stage; restoring into a stage-less engine
    // (or one with different stages) must throw, not misattribute state.
    auto with_stage = make_tof_session();
    for (int i = 0; i < 20; ++i) ASSERT_TRUE(with_stage->step());
    const std::string bytes = snapshot_bytes(*with_stage);

    auto bare = make_full_session();  // same pipeline, no stages
    std::istringstream in(bytes);
    EXPECT_THROW(bare->restore(in), std::runtime_error);

    auto wrong_stage = make_full_session();
    wrong_stage->emplace_stage<engine::FallMonitorStage>();
    std::istringstream in2(bytes);
    EXPECT_THROW(wrong_stage->restore(in2), std::runtime_error);
}

TEST(Snapshot, RestoreRequiresFreshEngine) {
    auto session = make_full_session();
    for (int i = 0; i < 10; ++i) ASSERT_TRUE(session->step());
    const std::string bytes = snapshot_bytes(*session);

    // A session that already processed frames refuses to be overwritten.
    std::istringstream in(bytes);
    EXPECT_THROW(session->restore(in), std::logic_error);
}

TEST(Snapshot, HostRejectsCorruptSnapshotWithoutDisturbingLiveSessions) {
    auto session = make_full_session();
    for (int i = 0; i < 30; ++i) ASSERT_TRUE(session->step());
    std::string corrupt = snapshot_bytes(*session);
    corrupt[corrupt.size() / 2] ^= 0x01;

    engine::EngineHost host;
    const auto live = host.admit("live", walk_config(501),
                                 std::make_unique<engine::SimSource>(
                                     walk_config(501), walk_script()));
    for (int i = 0; i < 25; ++i) host.step_all();

    std::istringstream in(corrupt);
    EXPECT_THROW(
        host.restore_session("resumed", walk_config(501),
                             std::make_unique<engine::SimSource>(
                                 walk_config(501), walk_script()),
                             in),
        std::runtime_error);
    // Nothing was registered...
    EXPECT_EQ(host.total_sessions(), 1u);
    // ...and the live session finishes exactly as if nothing happened.
    host.run();
    EXPECT_EQ(host.state(live), engine::SessionState::kFinished);
    auto reference = make_full_session();
    reference->run();
    expect_same_track(reference->tracker().track(),
                      host.session(live)->tracker().track());

    // checkpoint_session on an unknown id is the same contract as state().
    std::ostringstream sink;
    EXPECT_THROW(host.checkpoint_session(9999, sink), std::out_of_range);
}

}  // namespace
}  // namespace witrack
