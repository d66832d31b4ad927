// Frame codec suite. The contract under test: one byte layout carries a
// whole Frame -- time, ground truth, shape, quality plane and samples --
// through every transport; a faulted capture tracks bit-identically in
// process, replayed from disk and received over WTNF; version-1 inputs are
// refused through the existing paths; and a seeded mutation loop over both
// decoders finds no crash, no stray exception and no buffer sized past the
// validated shape.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hpp"
#include "engine/engine.hpp"
#include "engine/frame_codec.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "hw/fault_injector.hpp"
#include "net/datagram_source.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "sim/motion.hpp"

namespace witrack {
namespace {

using geom::Vec3;
using Bytes = std::vector<std::uint8_t>;

/// A 3-RX capture with 16-sample sweeps and at most 2 sweeps per frame:
/// small enough to mutate every byte, valid enough for ReplaySource.
FmcwParams tiny_fmcw() {
    FmcwParams fmcw;
    fmcw.sweep_duration_s = 16e-6;
    fmcw.sweeps_per_frame = 2;
    return fmcw;
}

const geom::ArrayGeometry kTinyArray = geom::make_t_array({0, 0, 1.3}, 1.0);

engine::FrameShape tiny_shape() { return engine::frame_shape(tiny_fmcw(), kTinyArray); }

engine::Frame tiny_frame(std::size_t sweeps, int persons, bool faulted) {
    engine::Frame frame;
    frame.time_s = 0.0125 * static_cast<double>(sweeps + persons);
    frame.sweeps.resize(3, sweeps, 16);
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = std::sin(0.37 * static_cast<double>(i)) - 0.25;
    if (persons > 0) frame.truth = engine::GroundTruth{Vec3{0.1, 4.5, -0.2}, std::nullopt};
    if (persons > 1) frame.truth->position2 = Vec3{1.0, 2.0, 3.0};
    if (faulted) {
        FrameQuality& q = frame.sweeps.quality();
        q.reset(3);
        q.clock_drift = true;
        q.rx[0].valid = false;
        q.rx[1].saturated = true;
        q.rx[1].jitter = true;
        q.rx[2].burst = true;
        q.rx[2].dropped_sweeps = 1;
        q.rx[2].short_sweeps = static_cast<std::uint32_t>(sweeps);
        q.recompute_health(sweeps);
    }
    return frame;
}

void expect_same_quality(const FrameQuality& a, const FrameQuality& b) {
    EXPECT_EQ(a.clock_drift, b.clock_drift);
    EXPECT_EQ(a.health, b.health);
    ASSERT_EQ(a.rx.size(), b.rx.size());
    for (std::size_t r = 0; r < a.rx.size(); ++r) {
        EXPECT_EQ(a.rx[r].valid, b.rx[r].valid) << "rx " << r;
        EXPECT_EQ(a.rx[r].saturated, b.rx[r].saturated) << "rx " << r;
        EXPECT_EQ(a.rx[r].jitter, b.rx[r].jitter) << "rx " << r;
        EXPECT_EQ(a.rx[r].burst, b.rx[r].burst) << "rx " << r;
        EXPECT_EQ(a.rx[r].dropped_sweeps, b.rx[r].dropped_sweeps) << "rx " << r;
        EXPECT_EQ(a.rx[r].short_sweeps, b.rx[r].short_sweeps) << "rx " << r;
    }
}

void expect_same_frame(const engine::Frame& a, const engine::Frame& b) {
    EXPECT_EQ(a.time_s, b.time_s);
    ASSERT_EQ(a.sweeps.num_rx(), b.sweeps.num_rx());
    ASSERT_EQ(a.sweeps.num_sweeps(), b.sweeps.num_sweeps());
    ASSERT_EQ(a.sweeps.samples_per_sweep(), b.sweeps.samples_per_sweep());
    EXPECT_EQ(std::memcmp(a.sweeps.data(), b.sweeps.data(),
                          a.sweeps.size() * sizeof(double)),
              0);
    ASSERT_EQ(a.truth.has_value(), b.truth.has_value());
    if (a.truth) {
        EXPECT_EQ(a.truth->position.x, b.truth->position.x);
        EXPECT_EQ(a.truth->position.y, b.truth->position.y);
        EXPECT_EQ(a.truth->position.z, b.truth->position.z);
        ASSERT_EQ(a.truth->position2.has_value(), b.truth->position2.has_value());
        if (a.truth->position2) {
            EXPECT_EQ(a.truth->position2->z, b.truth->position2->z);
        }
    }
    expect_same_quality(a.sweeps.quality(), b.sweeps.quality());
}

Bytes encode(const engine::Frame& frame) {
    Bytes body;
    engine::encode_frame(frame, body);
    return body;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

/// The file header a Recorder writes for the tiny capture.
Bytes tiny_recording_header() {
    const std::string path = temp_path("witrack_codec_header.wtrk");
    engine::Recorder(path, tiny_fmcw(), kTinyArray).close();
    std::ifstream in(path, std::ios::binary);
    Bytes header((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    std::remove(path.c_str());
    return header;
}

void write_file(const std::string& path, const Bytes& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- codec

TEST(FrameCodec, RoundTripCarriesEveryQualityField) {
    const engine::Frame frame = tiny_frame(2, 2, true);
    const FrameQuality& q = frame.sweeps.quality();
    ASSERT_TRUE(q.clock_drift && !q.rx[0].valid && q.rx[1].saturated &&
                q.rx[1].jitter && q.rx[2].burst && q.rx[2].dropped_sweeps == 1 &&
                q.rx[2].short_sweeps == 2);

    engine::Frame decoded;
    ASSERT_TRUE(engine::decode_frame(encode(frame), tiny_shape(), decoded));
    expect_same_frame(frame, decoded);

    // The same frame through a record stream, then a pristine one into the
    // same reused Frame: the stale flags must not survive.
    std::stringstream stream;
    for (const engine::Frame& record : {frame, tiny_frame(1, 0, false)}) {
        const Bytes body = encode(record);
        const std::uint64_t length = body.size();
        stream.write(reinterpret_cast<const char*>(&length), sizeof length);
        stream.write(reinterpret_cast<const char*>(body.data()),
                     static_cast<std::streamsize>(body.size()));
    }
    std::vector<std::uint8_t> scratch;
    engine::Frame reused;
    std::uint64_t length = 0;
    ASSERT_TRUE(stream.read(reinterpret_cast<char*>(&length), sizeof length));
    ASSERT_TRUE(engine::read_frame(stream, length, tiny_shape(), reused, scratch));
    expect_same_frame(frame, reused);
    ASSERT_TRUE(stream.read(reinterpret_cast<char*>(&length), sizeof length));
    ASSERT_TRUE(engine::read_frame(stream, length, tiny_shape(), reused, scratch));
    expect_same_frame(tiny_frame(1, 0, false), reused);
    EXPECT_TRUE(reused.sweeps.quality().rx.empty());
    EXPECT_TRUE(reused.sweeps.quality().pristine());
}

TEST(FrameCodec, ShapeOutsideTheCaptureIsRejectedUntouched) {
    const engine::FrameShape shape = tiny_shape();
    engine::Frame target = tiny_frame(1, 1, false);
    const engine::Frame before = target;
    const std::tuple<int, int, int> shapes[] = {{2, 1, 16}, {4, 1, 16}, {3, 0, 16},
                                                {3, 3, 16}, {3, 1, 15}, {3, 1, 17}};
    for (const auto& [rx, sweeps, samples] : shapes) {
        engine::Frame odd = tiny_frame(1, 2, true);
        odd.sweeps.resize(static_cast<std::size_t>(rx), static_cast<std::size_t>(sweeps),
                          static_cast<std::size_t>(samples));
        odd.sweeps.quality().reset(static_cast<std::size_t>(rx));
        EXPECT_FALSE(engine::decode_frame(encode(odd), shape, target))
            << rx << "x" << sweeps << "x" << samples;
        expect_same_frame(before, target);
    }
}

TEST(FrameCodec, EncodeRejectsAQualityPlaneOfTheWrongWidth) {
    engine::Frame frame = tiny_frame(1, 0, false);
    frame.sweeps.quality().reset(2);  // 2 lanes for a 3-RX frame
    Bytes body;
    EXPECT_THROW(engine::encode_frame(frame, body), std::invalid_argument);
}

TEST(FrameCodec, VersionOneInputsAreRefused) {
    const std::string path = temp_path("witrack_codec_v1.wtrk");
    Bytes file = tiny_recording_header();
    const std::uint32_t v1 = 1;
    std::memcpy(file.data() + sizeof(std::uint32_t), &v1, sizeof v1);
    write_file(path, file);
    try {
        engine::ReplaySource replay(path);
        FAIL() << "a version-1 recording was accepted";
    } catch (const std::runtime_error& error) {
        EXPECT_NE(std::string(error.what()).find("unsupported recording version"),
                  std::string::npos)
            << error.what();
    }
    std::remove(path.c_str());

    // A version-1 datagram is version skew, not CRC damage.
    auto datagrams = net::pack_frame(tiny_frame(1, 1, false), 5, 0);
    const std::uint16_t v1_wire = 1;
    auto queue = std::make_unique<net::QueueDatagramSource>();
    for (auto& datagram : datagrams) {
        std::memcpy(datagram.data() + 4, &v1_wire, sizeof v1_wire);
        queue->push(std::move(datagram));
    }
    queue->close();
    net::NetSourceConfig config;
    config.fmcw = tiny_fmcw();
    config.array = kTinyArray;
    net::NetSource source(std::move(queue), config);
    engine::Frame frame;
    EXPECT_FALSE(source.next(frame));
    EXPECT_EQ(source.net_stats()->version_skew, datagrams.size());
    EXPECT_EQ(source.net_stats()->crc_errors, 0u);
}

// ------------------------------------------------ quality transport

engine::EngineConfig four_rx_config() {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_cross_array(true).with_seed(11);
    return config;
}

std::unique_ptr<engine::SimSource> faulted_four_rx_source() {
    hw::FaultConfig faults;
    faults.dropout_rate = 0.02;
    faults.saturation_rate = 0.05;
    faults.sweep_drop_rate = 0.02;
    faults.sweep_short_rate = 0.02;
    faults.burst_rate = 0.02;
    faults.drift_rate = 0.03;
    faults.seed = 29;
    faults.schedule.push_back({hw::FaultWindow::Kind::kDropout, 0.8, 1.4, 3, 1.0});
    auto source = std::make_unique<engine::SimSource>(
        four_rx_config(),
        std::make_unique<sim::LineWalkScript>(Vec3{-1, 5, 0}, Vec3{1, 5, 0}, 2.0, 1.0));
    source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
    return source;
}

struct Tracked {
    std::vector<core::TrackPoint> track;
    QualityStats quality;
};

Tracked track(std::unique_ptr<engine::FrameSource> source) {
    engine::Engine eng(four_rx_config(), std::move(source));
    eng.run();
    return {eng.tracker().track(), eng.quality_stats()};
}

void expect_same_run(const Tracked& a, const Tracked& b) {
    ASSERT_EQ(a.track.size(), b.track.size());
    for (std::size_t i = 0; i < a.track.size(); ++i) {
        EXPECT_EQ(a.track[i].time_s, b.track[i].time_s);
        EXPECT_EQ(a.track[i].position.x, b.track[i].position.x);
        EXPECT_EQ(a.track[i].position.y, b.track[i].position.y);
        EXPECT_EQ(a.track[i].position.z, b.track[i].position.z);
        EXPECT_EQ(a.track[i].residual_rms, b.track[i].residual_rms);
    }
    EXPECT_EQ(a.quality.frames, b.quality.frames);
    EXPECT_EQ(a.quality.degraded_frames, b.quality.degraded_frames);
    EXPECT_EQ(a.quality.rx_dropouts, b.quality.rx_dropouts);
    EXPECT_EQ(a.quality.saturated_rx, b.quality.saturated_rx);
    EXPECT_EQ(a.quality.dropped_sweeps, b.quality.dropped_sweeps);
    EXPECT_EQ(a.quality.short_sweeps, b.quality.short_sweeps);
    EXPECT_EQ(a.quality.noise_bursts, b.quality.noise_bursts);
    EXPECT_EQ(a.quality.drift_frames, b.quality.drift_frames);
    EXPECT_EQ(a.quality.health_sum, b.quality.health_sum);
    EXPECT_EQ(a.quality.min_health, b.quality.min_health);
}

TEST(QualityTransport, FaultedCaptureTracksIdenticallyOnDiskAndWire) {
    const Tracked in_process = track(faulted_four_rx_source());
    ASSERT_GT(in_process.track.size(), 50u);
    ASSERT_GT(in_process.quality.rx_dropouts, 0u);
    ASSERT_GT(in_process.quality.saturated_rx, 0u);

    // Capture the same faulted stream once, to disk and to the wire.
    constexpr std::uint64_t kToken = 17;
    const std::string path = temp_path("witrack_codec_faulted.wtrk");
    auto queue = std::make_unique<net::QueueDatagramSource>();
    net::NetSourceConfig net_config;
    net_config.session_token = kToken;
    {
        auto live = faulted_four_rx_source();
        net_config.fmcw = live->fmcw();
        net_config.array = live->array();
        engine::Recorder recorder(path, live->fmcw(), live->array());
        engine::Frame frame;
        std::uint64_t seq = 0;
        while (live->next(frame)) {
            recorder.write(frame);
            for (auto& datagram : net::pack_frame(frame, kToken, seq))
                queue->push(std::move(datagram));
            ++seq;
        }
        recorder.close();
        queue->push(net::pack_end_of_stream(kToken, seq));
        queue->close();
    }

    const Tracked replayed = track(std::make_unique<engine::ReplaySource>(path));
    const Tracked received =
        track(std::make_unique<net::NetSource>(std::move(queue), net_config));
    expect_same_run(in_process, replayed);
    expect_same_run(in_process, received);
    std::remove(path.c_str());
}

// ------------------------------------------------ mutation loop

struct Field {
    std::size_t offset;
    std::size_t width;  ///< bytes; 8 with is_f64 = a double
    bool is_f64 = false;
};

/// The fixed head fields of the body layout (frame_codec.hpp).
constexpr Field kFields[] = {{0, 8, true}, {8, 8, true}, {16, 4}, {20, 4},
                             {24, 4},       {28, 2},       {30, 1}, {31, 1}};

/// A seed body and where its first quality lane starts (0: no lanes).
struct Seed {
    Bytes body;
    std::size_t lane = 0;
};

void put_uint(Bytes& body, const Field& f, std::uint64_t value) {
    std::memcpy(body.data() + f.offset, &value, f.width);  // little-endian host
}

/// Every decode of a mutated body must keep the decoders' contracts.
class MutationRig {
  public:
    MutationRig()
        : header_(tiny_recording_header()), path_(temp_path("witrack_codec_fuzz.wtrk")) {}
    ~MutationRig() { std::remove(path_.c_str()); }

    /// WTNF body decode: false or a frame of the validated shape, never a
    /// throw; a rejected body leaves the frame untouched.
    void wire(const Bytes& body) {
        engine::Frame frame = sentinel_;
        bool ok = false;
        try {
            ok = engine::decode_frame(body, shape_, frame);
        } catch (...) {
            ADD_FAILURE() << "decode_frame threw on a " << body.size() << "-byte body";
            return;
        }
        if (ok) {
            ++accepted_;
            check_shape(frame, "decode_frame");
        } else {
            ++rejected_;
            if (frame.time_s != sentinel_.time_s || !frame.truth ||
                frame.sweeps.num_sweeps() != sentinel_.sweeps.num_sweeps() ||
                !frame.sweeps.quality().rx.empty())
                ADD_FAILURE() << "a rejected body changed the frame";
        }
    }

    /// Replay: a recording holding `record` after a valid header. next()
    /// returns frames of the validated shape or throws std::runtime_error.
    void disk(const Bytes& record) {
        Bytes file = header_;
        file.insert(file.end(), record.begin(), record.end());
        write_file(path_, file);
        engine::Frame frame;
        try {
            engine::ReplaySource replay(path_);
            for (int i = 0; i < 4 && replay.next(frame); ++i) check_shape(frame, "next");
        } catch (const std::runtime_error&) {
        } catch (const std::exception& error) {
            ADD_FAILURE() << "ReplaySource threw a non-runtime_error: " << error.what();
        } catch (...) {
            ADD_FAILURE() << "ReplaySource threw a non-exception";
        }
        if (frame.sweeps.size() > max_samples())
            ADD_FAILURE() << "ReplaySource sized a buffer past the shape";
        ++cases_;
    }

    /// Replay of a recording whose header claims `num_rx` antennas,
    /// followed by a valid record: refused with std::runtime_error, never
    /// an allocation sized by the claim.
    void header_num_rx(std::uint64_t num_rx, const Bytes& record) {
        // The header ends with num_rx u64 and one Vec3 per antenna.
        Bytes file = header_;
        const std::size_t at = file.size() - sizeof num_rx - shape_.num_rx * sizeof(Vec3);
        std::memcpy(file.data() + at, &num_rx, sizeof num_rx);
        file.insert(file.end(), record.begin(), record.end());
        write_file(path_, file);
        try {
            engine::ReplaySource replay(path_);
            ADD_FAILURE() << "a header claiming " << num_rx << " antennas was accepted";
        } catch (const std::runtime_error&) {
        } catch (const std::exception& error) {
            ADD_FAILURE() << "num_rx " << num_rx
                          << ": ReplaySource threw a non-runtime_error: " << error.what();
        }
        ++cases_;
    }

    /// Both decoders on one body, the record carrying `length` as its prefix.
    void both(const Bytes& body, std::uint64_t length) {
        wire(body);
        Bytes record(sizeof length);
        std::memcpy(record.data(), &length, sizeof length);
        record.insert(record.end(), body.begin(), body.end());
        disk(record);
    }
    void both(const Bytes& body) { both(body, body.size()); }

    std::size_t cases() const { return cases_; }
    std::size_t accepted() const { return accepted_; }
    std::size_t rejected() const { return rejected_; }

  private:
    std::size_t max_samples() const {
        return shape_.num_rx * shape_.max_sweeps * shape_.samples_per_sweep;
    }
    void check_shape(const engine::Frame& frame, const char* who) {
        if (!shape_.admits(frame.sweeps) || frame.sweeps.size() > max_samples())
            ADD_FAILURE() << who << " produced a frame outside the validated shape";
        const std::size_t lanes = frame.sweeps.quality().rx.size();
        if (lanes != 0 && lanes != frame.sweeps.num_rx())
            ADD_FAILURE() << who << " produced a quality plane of " << lanes << " lanes";
    }

    const engine::FrameShape shape_ = tiny_shape();
    const Bytes header_;
    const std::string path_;
    const engine::Frame sentinel_ = tiny_frame(1, 1, false);
    std::size_t cases_ = 0, accepted_ = 0, rejected_ = 0;
};

TEST(FrameCodecFuzz, SeededMutationsOfBothDecoders) {
    const Seed corpus[] = {{encode(tiny_frame(2, 2, true)), 32 + 48},
                           {encode(tiny_frame(1, 0, false))},
                           {encode(tiny_frame(2, 1, true)), 32 + 24}};
    MutationRig rig;
    for (const auto& seed : corpus) rig.both(seed.body);
    EXPECT_EQ(rig.accepted(), std::size(corpus));

    // Recording headers claiming more antennas than a frame can carry
    // quality lanes for (u16).
    {
        const Bytes& body = corpus[0].body;
        const std::uint64_t length = body.size();
        Bytes record(sizeof length);
        std::memcpy(record.data(), &length, sizeof length);
        record.insert(record.end(), body.begin(), body.end());
        for (const std::uint64_t num_rx :
             {std::uint64_t{1} << 16, std::uint64_t{1} << 32, ~std::uint64_t{0}})
            rig.header_num_rx(num_rx, record);
    }

    // Truncation at every boundary, keeping the original length prefix.
    for (const auto& [body, lane] : corpus)
        for (std::size_t len = 0; len < body.size(); ++len)
            rig.both(Bytes(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len)),
                     body.size());

    // Shape, length, truth-flag and quality fields at their extremes.
    const std::uint64_t extremes[] = {0, 1, 2, 3, 4, 15, 16, 17, 0x7F, 0x80, 0xFF,
                                      0x100, 0xFFFF, 0x10000, 0x7FFFFFFF,
                                      0xFFFFFFFF, ~std::uint64_t{0}};
    const double f64_extremes[] = {std::nan(""), std::numeric_limits<double>::infinity(),
                                   -std::numeric_limits<double>::infinity(), -0.0,
                                   -1e-300, 1.0000000000000002, 1e308};
    for (const auto& [body, lane] : corpus) {
        std::vector<Field> fields(std::begin(kFields), std::end(kFields));
        if (lane != 0)
            fields.insert(fields.end(), {{lane, 1}, {lane + 1, 4}, {lane + 5, 4}});
        for (const Field& field : fields) {
            for (const std::uint64_t value : extremes) {
                if (field.is_f64) continue;
                Bytes mutated = body;
                put_uint(mutated, field, value);
                rig.both(mutated);
            }
            for (const double value : f64_extremes) {
                if (!field.is_f64) continue;
                Bytes mutated = body;
                std::memcpy(mutated.data() + field.offset, &value, sizeof value);
                rig.both(mutated);
            }
        }
        for (const std::uint64_t length : extremes) rig.both(body, length);
        for (std::size_t flags = 0; flags < 256; ++flags) {
            for (const std::size_t offset : {std::size_t{30}, std::size_t{31}, lane}) {
                if (offset == 0) continue;
                Bytes mutated = body;
                mutated[offset] = static_cast<std::uint8_t>(flags);
                rig.both(mutated);
            }
        }
    }

    // Seeded byte flips, with an occasional cut or extension, to 12000 cases.
    SplitMix64 rng(0x5EEDC0DEull);
    while (rig.cases() < 12000) {
        Bytes body = corpus[rng.next() % std::size(corpus)].body;
        const std::size_t flips = 1 + rng.next() % 4;
        for (std::size_t i = 0; i < flips; ++i) {
            const std::size_t at = rng.next() % body.size();
            body[at] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
        }
        switch (rng.next() % 8) {
            case 0: body.resize(rng.next() % body.size()); break;
            case 1: body.resize(body.size() + 1 + rng.next() % 64, 0xA5); break;
            default: break;
        }
        rig.both(body);
    }
    EXPECT_GE(rig.cases(), 10000u);
    EXPECT_GT(rig.rejected(), rig.cases() / 2);
}

}  // namespace
}  // namespace witrack
