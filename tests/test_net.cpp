// Network ingestion suite. The contract under test: frames shipped through
// the WTNF wire protocol into a NetSource-fed Engine produce output
// bit-identical to the same episode pulled from the in-process SimSource --
// over real loopback UDP datagrams -- and every way a link can misbehave
// (truncation, corruption, loss, reordering, duplication, version skew,
// foreign traffic) is counted in NetIngestStats and degrades the stream
// gracefully: gaps, never crashes, never silently corrupt frames. Plus the
// TCP control plane: PING/STATS/PAUSE/RESUME/EVICT/CHECKPOINT driving a
// live EngineHost over a socket.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <span>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hpp"
#include "common/serialize.hpp"
#include "engine/engine.hpp"
#include "engine/frame_codec.hpp"
#include "engine/host.hpp"
#include "engine/sim_source.hpp"
#include "hw/fault_injector.hpp"
#include "net/control_server.hpp"
#include "net/datagram_source.hpp"
#include "net/fault_injector.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "net/sequence_tracker.hpp"
#include "net/udp_socket.hpp"


// ---------------------------------------------------------------------------
// Allocation probe (as in test_frame_buffer): while an AllocationProbe is
// alive, every heap allocation is counted by size, so a test can assert
// that reassembly never sizes an allocation from a datagram's claims and
// that a warm NetSource makes no large allocation per frame.
//
// GCC pairs the visible std::free bodies below with the library declaration
// of operator new when inlining them into callers and reports a mismatch;
// the replacement set is in fact consistent (malloc in, free out).
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<bool> g_probing{false};
std::atomic<std::size_t> g_kib_allocations{0};  ///< of 1 KiB or more
std::atomic<std::size_t> g_largest_allocation{0};
}  // namespace

void* operator new(std::size_t size) {
    if (g_probing.load(std::memory_order_relaxed)) {
        if (size >= 1024) ++g_kib_allocations;
        std::size_t largest = g_largest_allocation.load();
        while (size > largest && !g_largest_allocation.compare_exchange_weak(largest, size)) {
        }
    }
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace witrack {
namespace {

class AllocationProbe {
  public:
    AllocationProbe() {
        g_kib_allocations = 0;
        g_largest_allocation = 0;
        g_probing = true;
    }
    ~AllocationProbe() { g_probing = false; }
    AllocationProbe(const AllocationProbe&) = delete;
    AllocationProbe& operator=(const AllocationProbe&) = delete;

    std::size_t kib_allocations() const { return g_kib_allocations; }
    std::size_t largest() const { return g_largest_allocation; }
};

using geom::Vec3;
using net::Datagram;
using net::DecodeStatus;

// ------------------------------------------------------------ helpers

engine::EngineConfig walk_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

std::unique_ptr<sim::LineWalkScript> walk_script(double seconds = 2.0) {
    return std::make_unique<sim::LineWalkScript>(Vec3{-1.0, 5, 0},
                                                 Vec3{1.0, 5, 0}, seconds, 1.0);
}

/// Capture a full sim episode as owned Frame copies.
std::vector<engine::Frame> record_frames(std::uint64_t seed,
                                         double seconds = 2.0) {
    auto config = walk_config(seed);
    engine::SimSource source(config, walk_script(seconds));
    std::vector<engine::Frame> frames;
    engine::Frame frame;
    while (source.next(frame)) frames.push_back(frame);
    return frames;
}

/// The shape a decoder must admit for tiny_frame(), reshaped or not.
engine::FrameShape shape_of(const engine::Frame& frame) {
    return {frame.sweeps.num_rx(), frame.sweeps.samples_per_sweep(),
            frame.sweeps.num_sweeps()};
}

/// The reassembly bound of a session whose shape is `frame`'s.
std::size_t body_bound(const engine::Frame& frame) {
    return engine::max_body_bytes(shape_of(frame));
}

/// A tiny frame whose body fits any MTU -- protocol unit-test fodder.
engine::Frame tiny_frame(double time_s = 0.25) {
    engine::Frame frame;
    frame.time_s = time_s;
    frame.sweeps.resize(2, 1, 4);
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = 0.5 * static_cast<double>(i) - 1.0;
    frame.truth = engine::GroundTruth{Vec3{0.1, 4.5, -0.2}, Vec3{1.0, 2.0, 3.0}};
    return frame;
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
            EXPECT_EQ(a.truth->position2->x, b.truth->position2->x);
            EXPECT_EQ(a.truth->position2->y, b.truth->position2->y);
            EXPECT_EQ(a.truth->position2->z, b.truth->position2->z);
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

/// The full datagram stream of an episode: every frame in seq order, the
/// end-of-stream marker last.
std::vector<Datagram> pack_episode(const std::vector<engine::Frame>& frames,
                                   std::uint64_t token,
                                   std::size_t mtu = net::kDefaultMtuBytes) {
    std::vector<Datagram> stream;
    for (std::size_t i = 0; i < frames.size(); ++i)
        for (auto& datagram : net::pack_frame(frames[i], token, i, mtu))
            stream.push_back(std::move(datagram));
    stream.push_back(net::pack_end_of_stream(token, frames.size()));
    return stream;
}

std::unique_ptr<net::NetSource> queue_source(
    std::vector<Datagram> stream, std::uint64_t token,
    net::SequenceTrackerConfig tracker = {}) {
    auto queue = std::make_unique<net::QueueDatagramSource>();
    for (auto& datagram : stream) queue->push(std::move(datagram));
    queue->close();
    net::NetSourceConfig config;
    config.session_token = token;
    config.tracker = tracker;
    return std::make_unique<net::NetSource>(std::move(queue), config);
}

// Header field offsets (see the layout table in net/frame_protocol.hpp).
constexpr std::size_t kOffVersion = 4;
constexpr std::size_t kOffFlags = 6;
constexpr std::size_t kOffFragIndex = 24;
constexpr std::size_t kOffFragCount = 26;
constexpr std::size_t kOffPayloadBytes = 28;

void patch16(Datagram& datagram, std::size_t offset, std::uint16_t value) {
    std::memcpy(datagram.data() + offset, &value, sizeof value);
}

/// Recompute and overwrite the trailing CRC, so field-tampering tests
/// exercise the header validation rather than tripping the CRC check.
void reseal(Datagram& datagram) {
    const std::uint32_t crc =
        common::crc32(datagram.data(), datagram.size() - net::kTrailerBytes);
    std::memcpy(datagram.data() + datagram.size() - net::kTrailerBytes, &crc,
                sizeof crc);
}

DecodeStatus decode(const Datagram& datagram) {
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    return net::decode_datagram(datagram, header, payload);
}

/// `datagram` with its fragment index and count rewritten, resealed.
Datagram reindexed(Datagram datagram, std::uint16_t index, std::uint16_t count) {
    patch16(datagram, kOffFragIndex, index);
    patch16(datagram, kOffFragCount, count);
    reseal(datagram);
    return datagram;
}

/// `datagram` with its payload cut or padded (0xA5) to `bytes`, resealed.
Datagram resized_payload(const Datagram& datagram, std::size_t bytes) {
    const std::size_t old = datagram.size() - net::kHeaderBytes - net::kTrailerBytes;
    Datagram out(net::kHeaderBytes + bytes + net::kTrailerBytes, 0xA5);
    std::memcpy(out.data(), datagram.data(), net::kHeaderBytes + std::min(old, bytes));
    const auto length = static_cast<std::uint32_t>(bytes);
    std::memcpy(out.data() + kOffPayloadBytes, &length, sizeof length);
    reseal(out);
    return out;
}

/// Decode `datagram` and offer it; false when it does not decode.
bool offer(net::SequenceTracker& tracker, const Datagram& datagram) {
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    if (net::decode_datagram(datagram, header, payload) != DecodeStatus::kOk) return false;
    tracker.offer(header, payload);
    return true;
}

// ------------------------------------------------------ wire protocol

TEST(FrameProtocol, SingleFragmentRoundTrip) {
    const engine::Frame frame = tiny_frame();
    const auto datagrams = net::pack_frame(frame, 42, 7);
    ASSERT_EQ(datagrams.size(), 1u);
    EXPECT_LE(datagrams[0].size(), net::kDefaultMtuBytes);

    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(datagrams[0], header, payload),
              DecodeStatus::kOk);
    EXPECT_EQ(header.token, 42u);
    EXPECT_EQ(header.frame_seq, 7u);
    EXPECT_EQ(header.fragment_index, 0u);
    EXPECT_EQ(header.fragment_count, 1u);
    EXPECT_FALSE(header.end_of_stream());
    std::vector<std::uint8_t> body;
    engine::encode_frame(frame, body);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(), body.begin(), body.end()));

    engine::Frame decoded;
    ASSERT_TRUE(engine::decode_frame(payload, shape_of(frame), decoded));
    expect_same_frame(frame, decoded);
}

TEST(FrameProtocol, MultiFragmentRoundTrip) {
    engine::Frame frame = tiny_frame(1.5);
    frame.truth.reset();
    frame.sweeps.resize(3, 1, 500);  // 12 KB body: ~9 fragments at MTU 1400
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = std::sin(0.01 * static_cast<double>(i));

    const auto datagrams = net::pack_frame(frame, 9, 0);
    ASSERT_GT(datagrams.size(), 4u);
    for (const auto& datagram : datagrams)
        EXPECT_LE(datagram.size(), net::kDefaultMtuBytes);

    net::SequenceTracker tracker(body_bound(frame));
    for (const auto& datagram : datagrams) {
        net::FrameHeader header;
        std::span<const std::uint8_t> payload;
        ASSERT_EQ(net::decode_datagram(datagram, header, payload),
                  DecodeStatus::kOk);
        EXPECT_EQ(header.fragment_count, datagrams.size());
        tracker.offer(header, payload);
    }
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 0u);
    engine::Frame decoded;
    ASSERT_TRUE(engine::decode_frame(body, shape_of(frame), decoded));
    expect_same_frame(frame, decoded);
}

TEST(FrameProtocol, EndOfStreamMarker) {
    const Datagram eos = net::pack_end_of_stream(5, 160);
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(eos, header, payload), DecodeStatus::kOk);
    EXPECT_TRUE(header.end_of_stream());
    EXPECT_EQ(header.frame_seq, 160u);
    EXPECT_TRUE(payload.empty());
}

TEST(FrameProtocol, PackRejectsUnusableMtu) {
    EXPECT_THROW(net::pack_frame(tiny_frame(), 1, 0,
                                 net::kHeaderBytes + net::kTrailerBytes),
                 std::invalid_argument);
}

TEST(FrameProtocol, PackRejectsFragmentCountOverflow) {
    engine::Frame frame = tiny_frame();
    frame.truth.reset();
    frame.sweeps.resize(4, 1, 2500);  // 80 KB body
    // 1-byte payloads would need ~80000 fragments: over the u16 count.
    EXPECT_THROW(net::pack_frame(frame, 1, 0,
                                 net::kHeaderBytes + net::kTrailerBytes + 1),
                 std::invalid_argument);
}

TEST(FrameProtocol, TornDatagramPaths) {
    const Datagram good = net::pack_frame(tiny_frame(), 3, 0)[0];
    ASSERT_EQ(decode(good), DecodeStatus::kOk);

    // Too short to even hold a header.
    Datagram torn(good.begin(), good.begin() + 20);
    EXPECT_EQ(decode(torn), DecodeStatus::kTruncated);

    // Tail cut off: total length disagrees with payload_len.
    torn = good;
    torn.pop_back();
    EXPECT_EQ(decode(torn), DecodeStatus::kTruncated);

    // Not our protocol at all.
    torn = good;
    torn[0] ^= 0xFF;
    EXPECT_EQ(decode(torn), DecodeStatus::kBadMagic);

    // Version skew is judged BEFORE the CRC (a future revision may move the
    // CRC field), so a bumped version is reported as skew even though the
    // CRC no longer matches.
    torn = good;
    patch16(torn, kOffVersion, net::kProtocolVersion + 1);
    EXPECT_EQ(decode(torn), DecodeStatus::kVersionSkew);

    // One flipped payload bit: CRC catches it.
    torn = good;
    torn[net::kHeaderBytes] ^= 0x01;
    EXPECT_EQ(decode(torn), DecodeStatus::kBadCrc);
}

TEST(FrameProtocol, MalformedHeaderPaths) {
    const Datagram good = net::pack_frame(tiny_frame(), 3, 0)[0];

    // fragment_count == 0 can index nothing.
    Datagram bad = good;
    patch16(bad, kOffFragCount, 0);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // fragment_index out of range.
    bad = good;
    patch16(bad, kOffFragIndex, 5);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // End-of-stream markers carry no payload.
    bad = good;
    patch16(bad, kOffFlags, net::kFlagEndOfStream);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);

    // payload_len * fragment_count blowing past the frame body cap: needs
    // an MTU-sized payload (~1.4 KB) so 65535 fragments exceed 64 MiB.
    engine::Frame wide = tiny_frame();
    wide.sweeps.resize(3, 1, 500);
    bad = net::pack_frame(wide, 3, 0)[0];
    ASSERT_GT(bad.size(), 1024u + net::kHeaderBytes + net::kTrailerBytes);
    patch16(bad, kOffFragCount, 0xFFFF);
    reseal(bad);
    EXPECT_EQ(decode(bad), DecodeStatus::kMalformed);
}

TEST(FrameProtocol, BodyShapeMismatchRejected) {
    const engine::Frame frame = tiny_frame();
    const auto datagrams = net::pack_frame(frame, 1, 0);
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    ASSERT_EQ(net::decode_datagram(datagrams[0], header, payload),
              DecodeStatus::kOk);

    // Corrupt the num_rx shape field inside the body: rejected, not
    // misinterpreted.
    std::vector<std::uint8_t> body(payload.begin(), payload.end());
    constexpr std::size_t kNumRxOffset = 16;  // after time and health, f64 each
    std::uint32_t bogus_rx = 7;
    std::memcpy(body.data() + kNumRxOffset, &bogus_rx, sizeof bogus_rx);
    engine::Frame decoded;
    EXPECT_FALSE(engine::decode_frame(body, shape_of(frame), decoded));

    // Truncated body: same verdict.
    std::vector<std::uint8_t> short_body(payload.begin(), payload.end() - 8);
    EXPECT_FALSE(engine::decode_frame(short_body, shape_of(frame), decoded));

    // A self-consistent body of another capture's shape: rejected too.
    EXPECT_TRUE(engine::decode_frame(payload, shape_of(frame), decoded));
    engine::FrameShape other = shape_of(frame);
    ++other.samples_per_sweep;
    EXPECT_FALSE(engine::decode_frame(payload, other, decoded));
}

// --------------------------------------------------- sequence tracking

/// offer() every datagram of `frame_seq` packed from a tiny frame.
void offer_frame(net::SequenceTracker& tracker, std::uint64_t frame_seq,
                 std::uint64_t token = 1) {
    const auto datagrams =
        net::pack_frame(tiny_frame(0.1 * static_cast<double>(frame_seq)),
                        token, frame_seq);
    for (const auto& datagram : datagrams) ASSERT_TRUE(offer(tracker, datagram));
}

TEST(SequenceTracker, InOrderDelivery) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    for (std::uint64_t seq = 0; seq < 5; ++seq) offer_frame(tracker, seq);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    for (std::uint64_t want = 0; want < 5; ++want) {
        ASSERT_TRUE(tracker.pop(seq, body));
        EXPECT_EQ(seq, want);
    }
    EXPECT_FALSE(tracker.pop(seq, body));
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().reorders, 0u);
    EXPECT_EQ(tracker.stats().duplicates, 0u);
}

TEST(SequenceTracker, ReorderedFramesDeliveredInOrder) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    offer_frame(tracker, 1);  // arrives first
    offer_frame(tracker, 0);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 0u);
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 1u);
    EXPECT_GE(tracker.stats().reorders, 1u);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
}

TEST(SequenceTracker, FlushAccountsGapsAgainstEndOfStream) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    offer_frame(tracker, 0);
    offer_frame(tracker, 1);
    offer_frame(tracker, 3);  // 2 never arrives
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    const Datagram eos = net::pack_end_of_stream(1, 5);  // 4 never arrives
    ASSERT_EQ(net::decode_datagram(eos, header, payload), DecodeStatus::kOk);
    tracker.offer(header, payload);
    EXPECT_TRUE(tracker.end_of_stream_seen());

    tracker.flush();
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    std::vector<std::uint64_t> delivered;
    while (tracker.pop(seq, body)) delivered.push_back(seq);
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{0, 1, 3}));
    EXPECT_EQ(tracker.stats().frame_gaps, 2u);  // seqs 2 and 4
    EXPECT_EQ(tracker.pending_frames(), 0u);
}

TEST(SequenceTracker, DuplicateAndLateFragmentsCounted) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    // Frame 1 arrives twice while the hole at 0 blocks delivery: the
    // second copy is a duplicate of a frame still parked in the tracker.
    offer_frame(tracker, 1);
    offer_frame(tracker, 1);
    EXPECT_GE(tracker.stats().duplicates, 1u);

    offer_frame(tracker, 0);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    ASSERT_TRUE(tracker.pop(seq, body));
    ASSERT_TRUE(tracker.pop(seq, body));
    offer_frame(tracker, 0);  // after the frame's book closed: late
    EXPECT_GE(tracker.stats().late_fragments, 1u);
}

TEST(SequenceTracker, WindowOverflowWritesOffTheHole) {
    net::SequenceTracker tracker(body_bound(tiny_frame()), {.window_frames = 4});
    // Frame 0 never arrives; 1..4 pending stalls delivery until the window
    // fills, then 0 is written off and everything flows.
    for (std::uint64_t seq = 1; seq <= 3; ++seq) offer_frame(tracker, seq);
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    EXPECT_FALSE(tracker.pop(seq, body));  // still hoping for frame 0
    offer_frame(tracker, 5);               // frontier - next == window
    std::vector<std::uint64_t> delivered;
    while (tracker.pop(seq, body)) delivered.push_back(seq);
    EXPECT_EQ(delivered, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(tracker.stats().frame_gaps, 1u);
}

/// Pop everything deliverable.
std::vector<std::uint64_t> drain_seqs(net::SequenceTracker& tracker) {
    std::vector<std::uint64_t> delivered;
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> body;
    while (tracker.pop(seq, body)) delivered.push_back(seq);
    return delivered;
}

std::vector<std::uint64_t> seq_run(std::uint64_t first, std::size_t count) {
    std::vector<std::uint64_t> seqs;
    for (std::size_t i = 0; i < count; ++i) seqs.push_back(first + i);  // wraps at 2^64
    return seqs;
}

TEST(SequenceTracker, OutlierSeqDoesNotWriteOffTheStream) {
    // One CRC-valid frame far ahead of the stream (a stray or forged
    // datagram) is held aside: it writes nothing off, the next in-range
    // datagram drops it, and every genuine frame is still delivered.
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    offer_frame(tracker, 0);
    offer_frame(tracker, 1);
    const std::size_t forged = net::pack_frame(tiny_frame(), 1, 0).size();
    offer_frame(tracker, std::uint64_t{1} << 62);
    EXPECT_EQ(tracker.pending_frames(), 1u);  // the held outlier
    for (std::uint64_t seq = 2; seq < 10; ++seq) offer_frame(tracker, seq);
    EXPECT_EQ(drain_seqs(tracker), seq_run(0, 10));
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().late_fragments, 0u);
    EXPECT_EQ(tracker.stats().reorders, 0u);
    EXPECT_EQ(tracker.stats().seq_resyncs, 0u);
    EXPECT_EQ(tracker.stats().malformed, forged);  // displaced by frame 2
    EXPECT_EQ(tracker.pending_frames(), 0u);
    // An outlier after the last genuine frame stays held until flush().
    offer_frame(tracker, std::uint64_t{1} << 62);
    EXPECT_EQ(tracker.pending_frames(), 1u);
    tracker.flush();
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().malformed, 2 * forged);  // unconfirmed at the end
    EXPECT_EQ(tracker.pending_frames(), 0u);
}

TEST(SequenceTracker, SenderRestartResyncsOnItsSecondFrame) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));  // R = 32
    for (std::uint64_t seq = 0; seq < 100; ++seq) offer_frame(tracker, seq);
    EXPECT_EQ(drain_seqs(tracker), seq_run(0, 100));
    // The sender restarts its counter: its first frame is held, its second
    // confirms the new range, and both are delivered.
    offer_frame(tracker, 0);
    EXPECT_TRUE(drain_seqs(tracker).empty());
    for (std::uint64_t seq = 1; seq < 20; ++seq) offer_frame(tracker, seq);
    EXPECT_EQ(drain_seqs(tracker), seq_run(0, 20));
    // A straggler of the retired range is late, not a new range.
    offer_frame(tracker, 99);
    tracker.flush();
    EXPECT_EQ(tracker.stats().seq_resyncs, 1u);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().late_fragments, 1u);
    EXPECT_EQ(tracker.stats().malformed, 0u);
    EXPECT_EQ(tracker.stats().reorders, 0u);
}

TEST(SequenceTracker, ResyncWritesOffAtMostTheOldWindow) {
    net::SequenceTracker tracker(body_bound(tiny_frame()), {.window_frames = 4});
    offer_frame(tracker, 0);
    offer_frame(tracker, 2);  // 1 is missing: 2 waits
    offer_frame(tracker, 1000);
    offer_frame(tracker, 1001);
    EXPECT_EQ(drain_seqs(tracker), (std::vector<std::uint64_t>{0, 2, 1000, 1001}));
    EXPECT_EQ(tracker.stats().seq_resyncs, 1u);
    EXPECT_EQ(tracker.stats().frame_gaps, 1u);  // seq 1, not 998 seqs
}

TEST(SequenceTracker, OldDatagramsAmidLiveTrafficRewindNothing) {
    // Genuine datagrams of two adjacent frames delivered long ago (delayed,
    // duplicated or replayed) arrive more than R behind the stream, each
    // followed by live traffic: neither confirms a new range, nothing is
    // delivered twice, and the live frames are neither late nor gaps.
    net::SequenceTracker tracker(body_bound(tiny_frame()));  // R = 32
    const std::size_t per_frame = net::pack_frame(tiny_frame(), 1, 0).size();
    for (std::uint64_t seq = 0; seq < 1005; ++seq) offer_frame(tracker, seq);
    offer_frame(tracker, 900);
    offer_frame(tracker, 1005);
    offer_frame(tracker, 901);
    for (std::uint64_t seq = 1006; seq < 1100; ++seq) offer_frame(tracker, seq);
    tracker.flush();
    EXPECT_EQ(drain_seqs(tracker), seq_run(0, 1100));
    EXPECT_EQ(tracker.stats().seq_resyncs, 0u);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().late_fragments, 0u);
    EXPECT_EQ(tracker.stats().reorders, 0u);
    EXPECT_EQ(tracker.stats().malformed, 2 * per_frame);  // the two old frames
}

TEST(SequenceTracker, OutageLongerThanFourWindowsCountsOneResync) {
    // 40 consecutive frames lost (R = 32): the first frame after the
    // outage is held, the second confirms the new range. The jump counts
    // one seq_resyncs, not 40 gaps.
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    for (std::uint64_t seq = 0; seq < 100; ++seq)
        if (seq < 40 || seq >= 80) offer_frame(tracker, seq);
    ASSERT_TRUE(offer(tracker, net::pack_end_of_stream(1, 100)));
    tracker.flush();
    std::vector<std::uint64_t> want = seq_run(0, 40);
    for (std::uint64_t seq = 80; seq < 100; ++seq) want.push_back(seq);
    EXPECT_EQ(drain_seqs(tracker), want);
    EXPECT_EQ(tracker.stats().seq_resyncs, 1u);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().late_fragments, 0u);
    EXPECT_EQ(tracker.stats().malformed, 0u);
    EXPECT_EQ(tracker.pending_frames(), 0u);
}

TEST(SequenceTracker, CounterWrapFlowsOn) {
    // A sender whose counter starts near 2^64 - 1 and wraps: the tracker
    // syncs to it on its second frame, writes off the one frame lost at
    // the top of the counter, and delivers on across the wrap.
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    const std::uint64_t start = UINT64_MAX - 9;
    for (std::uint64_t seq = start; seq != UINT64_MAX; ++seq) offer_frame(tracker, seq);
    // UINT64_MAX itself is lost.
    for (std::uint64_t seq = 0; seq < 10; ++seq) offer_frame(tracker, seq);
    std::vector<std::uint64_t> want = seq_run(start, 9);
    for (std::uint64_t seq = 0; seq < 10; ++seq) want.push_back(seq);
    EXPECT_EQ(drain_seqs(tracker), want);
    tracker.flush();
    EXPECT_EQ(tracker.stats().seq_resyncs, 1u);  // syncing to the sender
    EXPECT_EQ(tracker.stats().frame_gaps, 1u);
    EXPECT_EQ(tracker.stats().late_fragments, 0u);
    EXPECT_EQ(tracker.stats().malformed, 0u);

    // A restart whose first two frames straddle the top of the counter
    // resyncs from the second: the first is dropped as malformed.
    net::SequenceTracker straddle(body_bound(tiny_frame()));
    for (std::uint64_t seq = 0; seq < 100; ++seq) offer_frame(straddle, seq);
    EXPECT_EQ(drain_seqs(straddle), seq_run(0, 100));
    offer_frame(straddle, UINT64_MAX);
    for (std::uint64_t seq = 0; seq < 3; ++seq) offer_frame(straddle, seq);
    EXPECT_EQ(drain_seqs(straddle), seq_run(0, 3));
    EXPECT_EQ(straddle.stats().seq_resyncs, 1u);
    EXPECT_EQ(straddle.stats().malformed, net::pack_frame(tiny_frame(), 1, 0).size());
    EXPECT_EQ(straddle.stats().frame_gaps, 0u);

    // Delivered up to the top of the counter, flush() writes nothing off:
    // its bound saturates instead of wrapping to 0.
    net::SequenceTracker top(body_bound(tiny_frame()));
    for (std::uint64_t seq = UINT64_MAX - 3; seq != 0; ++seq) offer_frame(top, seq);
    EXPECT_EQ(drain_seqs(top), seq_run(UINT64_MAX - 3, 4));
    top.flush();
    EXPECT_EQ(top.stats().frame_gaps, 0u);
}

TEST(SequenceTracker, OutlierEndOfStreamEndsNothing) {
    net::SequenceTracker tracker(body_bound(tiny_frame()));
    for (std::uint64_t seq = 0; seq < 5; ++seq) offer_frame(tracker, seq);
    net::FrameHeader header;
    std::span<const std::uint8_t> payload;
    const Datagram eos = net::pack_end_of_stream(1, std::uint64_t{1} << 63);
    ASSERT_EQ(net::decode_datagram(eos, header, payload), DecodeStatus::kOk);
    tracker.offer(header, payload);
    EXPECT_FALSE(tracker.end_of_stream_seen());
    EXPECT_EQ(tracker.stats().malformed, 1u);
    tracker.flush();
    EXPECT_EQ(drain_seqs(tracker), seq_run(0, 5));
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
}

TEST(SequenceTracker, SeededForgedSeqsMoveNothing) {
    // Each case sends frames 0..n-1 with some genuinely lost, and slips in
    // CRC-valid datagrams at random 64-bit seqs. A forged seq is an outlier
    // (two landing within a window of each other has probability ~2^-58),
    // so it writes nothing off and resyncs nothing: every frame not lost
    // is delivered, the lost ones are the only gaps, and each forgery is
    // counted malformed once it is displaced or flushed.
    SplitMix64 bits(2027);
    for (std::size_t c = 0; c < 200; ++c) {
        SCOPED_TRACE(c);
        const std::size_t n = 20 + bits.next() % 60;
        net::SequenceTracker tracker(
            body_bound(tiny_frame()),
            net::SequenceTrackerConfig{.window_frames = 1 + bits.next() % 8});
        std::vector<std::uint64_t> want;
        std::size_t lost = 0;
        std::size_t forged = 0;
        for (std::uint64_t seq = 0; seq < n; ++seq) {
            if (bits.next() % 10 == 0) {
                const std::uint64_t stray = bits.next();
                for (const auto& datagram : net::pack_frame(tiny_frame(), 1, stray)) {
                    ASSERT_TRUE(offer(tracker, datagram));
                    ++forged;
                }
            }
            if (seq + 1 < n && bits.next() % 8 == 0) {
                ++lost;
                continue;
            }
            offer_frame(tracker, seq);
            want.push_back(seq);
        }
        ASSERT_TRUE(offer(tracker, net::pack_end_of_stream(1, n)));
        tracker.flush();
        EXPECT_EQ(drain_seqs(tracker), want);
        EXPECT_EQ(tracker.stats().frame_gaps, lost);
        EXPECT_EQ(tracker.stats().malformed, forged);
        EXPECT_EQ(tracker.stats().seq_resyncs, 0u);
        EXPECT_EQ(tracker.stats().late_fragments, 0u);
        EXPECT_EQ(tracker.pending_frames(), 0u);
    }
}

/// A frame of 3 x 500 samples: a 12 KB body, 9 fragments at the default MTU.
engine::Frame wide_frame() {
    engine::Frame frame = tiny_frame(1.5);
    frame.sweeps.resize(3, 1, 500);
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = std::sin(0.01 * static_cast<double>(i));
    return frame;
}

std::vector<std::uint8_t> encoded(const engine::Frame& frame) {
    std::vector<std::uint8_t> body;
    engine::encode_frame(frame, body);
    return body;
}

TEST(SequenceTracker, FragmentsArePlacedInAnyArrivalOrder) {
    const engine::Frame frame = wide_frame();
    const auto want = encoded(frame);
    auto datagrams = net::pack_frame(frame, 1, 0);
    ASSERT_GT(datagrams.size(), 4u);

    net::SequenceTracker tracker(body_bound(frame));
    std::vector<std::uint8_t> body;
    std::uint64_t seq = 0;
    // Last fragment first (it waits for the chunk), then the rest reversed.
    for (auto it = datagrams.rbegin(); it != datagrams.rend(); ++it)
        ASSERT_TRUE(offer(tracker, *it));
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(body, want);

    // Interleaved: odd indices, then even ones, last fragment in the middle.
    datagrams = net::pack_frame(frame, 1, 1);
    for (std::size_t start : {1u, 0u})
        for (std::size_t i = start; i < datagrams.size(); i += 2)
            ASSERT_TRUE(offer(tracker, datagrams[i]));
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 1u);
    EXPECT_EQ(body, want);
    EXPECT_EQ(tracker.stats().malformed, 0u);
}

TEST(SequenceTracker, MidStreamJoinTakesEarlierFramesAsLate) {
    // A tracker that joins mid-stream syncs to frames 1000 and 1001 from
    // their first fragments; frames 999 and 998, reordered behind them,
    // then arrive before anything is delivered. They are late fragments of
    // the range the tracker joined, not a second new range, so 1000 and
    // 1001 are neither written off nor delivered twice.
    const engine::Frame frame = wide_frame();
    net::SequenceTracker tracker(body_bound(frame));
    const auto f1000 = net::pack_frame(frame, 1, 1000);
    const auto f1001 = net::pack_frame(frame, 1, 1001);
    ASSERT_TRUE(offer(tracker, f1000[0]));
    ASSERT_TRUE(offer(tracker, f1001[0]));
    std::size_t stragglers = 0;
    for (const std::uint64_t seq : {999u, 998u}) {
        for (const auto& datagram : net::pack_frame(frame, 1, seq)) {
            ASSERT_TRUE(offer(tracker, datagram));
            ++stragglers;
        }
    }
    for (const auto* datagrams : {&f1000, &f1001})
        for (std::size_t i = 1; i < datagrams->size(); ++i)
            ASSERT_TRUE(offer(tracker, (*datagrams)[i]));
    tracker.flush();
    EXPECT_EQ(drain_seqs(tracker), (std::vector<std::uint64_t>{1000, 1001}));
    EXPECT_EQ(tracker.stats().seq_resyncs, 1u);  // joining the stream
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
    EXPECT_EQ(tracker.stats().late_fragments, stragglers);
    EXPECT_EQ(tracker.stats().malformed, 0u);
}

TEST(SequenceTracker, UnequalFragmentLengthsAreMalformed) {
    const engine::Frame frame = wide_frame();
    const auto want = encoded(frame);
    net::SequenceTracker tracker(body_bound(frame));
    std::vector<std::uint8_t> body;
    std::uint64_t seq = 0;

    // The chunk is known first: a shorter non-last fragment, a last
    // fragment longer than the chunk and an empty fragment are all dropped,
    // and the genuine fragments still complete the frame.
    auto datagrams = net::pack_frame(frame, 1, 0);
    const std::size_t chunk = net::kDefaultMtuBytes - net::kHeaderBytes - net::kTrailerBytes;
    ASSERT_TRUE(offer(tracker, datagrams[0]));
    ASSERT_TRUE(offer(tracker, resized_payload(datagrams[1], chunk - 8)));
    ASSERT_TRUE(offer(tracker, resized_payload(datagrams.back(), chunk + 1)));
    ASSERT_TRUE(offer(tracker, resized_payload(datagrams[2], 0)));
    EXPECT_EQ(tracker.stats().malformed, 3u);
    for (std::size_t i = 1; i < datagrams.size(); ++i)
        ASSERT_TRUE(offer(tracker, datagrams[i]));
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(body, want);

    // The last fragment first: a non-last fragment shorter than it cannot
    // be the frame's chunk.
    datagrams = net::pack_frame(frame, 1, 1);
    const std::size_t last = datagrams.back().size() - net::kHeaderBytes - net::kTrailerBytes;
    ASSERT_GT(last, 8u);
    ASSERT_TRUE(offer(tracker, datagrams.back()));
    ASSERT_TRUE(offer(tracker, resized_payload(datagrams[0], last - 8)));
    EXPECT_EQ(tracker.stats().malformed, 4u);
    for (const auto& datagram : datagrams) ASSERT_TRUE(offer(tracker, datagram));
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 1u);
    EXPECT_EQ(body, want);

    // An empty fragment first: it carries no chunk and is dropped too.
    datagrams = net::pack_frame(frame, 1, 2);
    ASSERT_TRUE(offer(tracker, resized_payload(datagrams[1], 0)));
    EXPECT_EQ(tracker.stats().malformed, 5u);
    for (const auto& datagram : datagrams) ASSERT_TRUE(offer(tracker, datagram));
    ASSERT_TRUE(tracker.pop(seq, body));
    EXPECT_EQ(seq, 2u);
    EXPECT_EQ(body, want);
    EXPECT_EQ(tracker.stats().frame_gaps, 0u);
}

TEST(SequenceTracker, SeededMutationLoopDeliversOnlyPackedBodies) {
    // Each case packs a few small frames at a small MTU, then drops,
    // duplicates, forges and shuffles the datagrams. A forgery rewrites a
    // fragment's index and count, or resizes its payload, and reseals it
    // so it passes the CRC. Forgeries the frame cannot hold (an index past
    // the count, a count past the shape bound) must never reach a body. The
    // rest move real bytes, so their frame may come out as a body no sender
    // packed; for those seqs only the bound is checked. Every other body
    // must equal the one packed for its seq, seqs come out ascending, and
    // delivered + frame_gaps accounts for every seq sent.
    constexpr std::size_t kCases = 10000;
    constexpr int kMaxSamples = 24;
    const std::size_t bound = engine::max_body_bytes({2, kMaxSamples, 1});
    Rng rng(2024);
    std::size_t delivered_total = 0;
    std::size_t forged_total = 0;
    for (std::size_t c = 0; c < kCases; ++c) {
        const std::size_t mtu =
            net::kHeaderBytes + net::kTrailerBytes + static_cast<std::size_t>(rng.uniform_int(16, 160));
        const auto num_frames = static_cast<std::size_t>(rng.uniform_int(1, 5));
        std::vector<std::vector<std::uint8_t>> bodies(num_frames);
        std::vector<bool> forged(num_frames, false);
        std::vector<Datagram> stream;
        for (std::size_t seq = 0; seq < num_frames; ++seq) {
            engine::Frame frame = tiny_frame(0.1 * static_cast<double>(seq));
            frame.sweeps.resize(2, 1, static_cast<std::size_t>(rng.uniform_int(1, kMaxSamples)));
            for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
                frame.sweeps.data()[i] = rng.uniform(-1.0, 1.0);
            if (rng.chance(0.5)) frame.truth.reset();
            engine::encode_frame(frame, bodies[seq]);
            for (auto& datagram : net::pack_frame(frame, 1, seq, mtu)) {
                if (rng.chance(0.1)) continue;  // dropped
                if (rng.chance(0.08)) {
                    net::FrameHeader header;
                    std::span<const std::uint8_t> payload;
                    ASSERT_EQ(net::decode_datagram(datagram, header, payload), DecodeStatus::kOk);
                    const std::uint16_t count = header.fragment_count;
                    if (rng.chance(0.5)) stream.push_back(datagram);  // the genuine copy too
                    ++forged_total;
                    switch (rng.uniform_int(0, 3)) {
                        case 0:  // an index past the count
                            datagram = reindexed(datagram,
                                                 static_cast<std::uint16_t>(count + rng.uniform_int(0, 3)),
                                                 count);
                            break;
                        case 1:  // a count no frame of the shape has
                            datagram = reindexed(datagram, 0, 0xFFFF);
                            break;
                        case 2:  // a real index, the wrong bytes
                            datagram = reindexed(
                                datagram, static_cast<std::uint16_t>(rng.uniform_int(0, count - 1)),
                                count);
                            forged[seq] = true;
                            break;
                        default:  // another length, the empty payload included
                            datagram = resized_payload(
                                datagram, static_cast<std::size_t>(rng.uniform_int(
                                              0, static_cast<int>(payload.size()) + 8)));
                            forged[seq] = true;
                            break;
                    }
                }
                stream.push_back(datagram);
                if (rng.chance(0.1)) stream.push_back(datagram);  // duplicated
            }
        }
        for (std::size_t i = 0; i + 1 < stream.size(); ++i)
            if (rng.chance(0.3))
                std::swap(stream[i], stream[std::min(stream.size() - 1,
                                                     i + static_cast<std::size_t>(rng.uniform_int(1, 4)))]);
        stream.push_back(net::pack_end_of_stream(1, num_frames));

        net::SequenceTracker tracker(
            bound, net::SequenceTrackerConfig{
                       .window_frames = static_cast<std::size_t>(rng.uniform_int(1, 4))});
        std::vector<std::uint8_t> body;
        std::uint64_t seq = 0;
        std::size_t delivered = 0;
        bool any = false;
        std::uint64_t previous = 0;
        const auto drain = [&] {
            while (tracker.pop(seq, body)) {
                ASSERT_LT(seq, num_frames) << "case " << c;
                ASSERT_TRUE(!any || seq > previous) << "case " << c;
                ASSERT_LE(body.size(), bound) << "case " << c;
                if (!forged[seq]) {
                    ASSERT_EQ(body, bodies[seq]) << "case " << c << " seq " << seq;
                }
                any = true;
                previous = seq;
                ++delivered;
            }
        };
        for (const auto& datagram : stream) {
            offer(tracker, datagram);
            drain();
        }
        tracker.flush();
        drain();
        ASSERT_EQ(delivered + tracker.stats().frame_gaps, num_frames) << "case " << c;
        ASSERT_EQ(tracker.pending_frames(), 0u) << "case " << c;
        delivered_total += delivered;
    }
    EXPECT_GT(delivered_total, kCases);
    EXPECT_GT(forged_total, kCases / 10);
}

// ------------------------------------------------------------ NetSource

TEST(NetSource, CleanQueueStreamDeliversEveryFrameBitwise) {
    const auto frames = record_frames(301, 0.5);
    ASSERT_GT(frames.size(), 10u);
    auto source = queue_source(pack_episode(frames, 11), 11);
    net::NetSource* net_source = source.get();

    engine::Frame frame;
    std::size_t delivered = 0;
    while (source->next(frame)) {
        ASSERT_LT(delivered, frames.size());
        expect_same_frame(frames[delivered], frame);
        ++delivered;
    }
    EXPECT_EQ(delivered, frames.size());

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->frames_delivered, frames.size());
    EXPECT_EQ(stats->frame_gaps, 0u);
    EXPECT_EQ(stats->crc_errors, 0u);
    EXPECT_GT(stats->datagrams, frames.size());  // multi-fragment frames
    EXPECT_GT(stats->bytes, 0u);
}

TEST(NetSource, CountsUndecodableAndForeignDatagrams) {
    const auto frames = record_frames(302, 0.25);
    auto stream = pack_episode(frames, 21);

    Datagram truncated = stream[0];
    truncated.resize(10);
    Datagram bad_magic = stream[0];
    bad_magic[0] ^= 0xFF;
    Datagram skewed = stream[0];
    patch16(skewed, kOffVersion, net::kProtocolVersion + 3);
    Datagram corrupt = stream[0];
    corrupt[net::kHeaderBytes] ^= 0x10;
    const Datagram foreign = net::pack_frame(tiny_frame(), 99, 0)[0];

    // Splice the junk in ahead of the real stream.
    std::vector<Datagram> noisy{truncated, bad_magic, skewed, corrupt, foreign};
    for (auto& datagram : stream) noisy.push_back(std::move(datagram));

    auto source = queue_source(std::move(noisy), 21);
    net::NetSource* net_source = source.get();
    engine::Frame frame;
    std::size_t delivered = 0;
    while (source->next(frame)) ++delivered;
    EXPECT_EQ(delivered, frames.size());

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->truncated, 1u);
    EXPECT_EQ(stats->bad_magic, 1u);
    EXPECT_EQ(stats->version_skew, 1u);
    EXPECT_EQ(stats->crc_errors, 1u);
    EXPECT_EQ(stats->foreign_token, 1u);
    EXPECT_EQ(stats->frame_gaps, 0u);  // the real copy of frame 0 still came
}

TEST(NetSource, IdleTimeoutEndsTheStream) {
    // A queue that never closes and never receives: silence. The source
    // must give up after idle_timeout_s, not hang the engine forever.
    auto queue = std::make_unique<net::QueueDatagramSource>();
    net::NetSourceConfig config;
    config.session_token = 1;
    config.idle_timeout_s = 0.05;
    config.poll_interval_ms = 1;
    net::NetSource source(std::move(queue), config);
    engine::Frame frame;
    EXPECT_FALSE(source.next(frame));
    const auto stats = source.net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->idle_timeouts, 1u);
}

TEST(NetSource, MisShapedFrameIsDroppedWithoutEvictingTheSession) {
    // One CRC-valid frame whose sweeps are one sample short: fed to the
    // pipeline it would throw and evict the session. It must be counted as
    // malformed and skipped instead.
    auto frames = record_frames(305);
    ASSERT_GT(frames.size(), 20u);
    FrameBuffer& odd = frames[10].sweeps;
    odd.resize(odd.num_rx(), odd.num_sweeps(), odd.samples_per_sweep() - 1);

    engine::EngineHost host;
    const auto id = host.admit("misshaped", walk_config(305),
                               queue_source(pack_episode(frames, 3), 3));
    host.run();
    EXPECT_EQ(host.state(id), engine::SessionState::kFinished);
    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.net.malformed, 1u);
    EXPECT_EQ(stats.net.frames_delivered, frames.size() - 1);
    EXPECT_EQ(stats.net.frame_gaps, 0u);
}

TEST(NetSource, OversizedFragmentClaimsAreMalformedWithoutLargeAllocation) {
    // Fragments whose count x length cannot fit the session's shape: each
    // is counted malformed before any body buffer exists, so none of them
    // allocates even one bound-sized buffer, let alone what they claim.
    net::NetSourceConfig config;
    config.session_token = 4;
    const std::size_t bound =
        engine::max_body_bytes(engine::frame_shape(config.fmcw, config.array));
    const Datagram wide = net::pack_frame(wide_frame(), 4, 0)[0];
    const Datagram tiny = net::pack_frame(tiny_frame(), 4, 0)[0];
    const std::size_t tiny_payload = tiny.size() - net::kHeaderBytes - net::kTrailerBytes;
    const auto tiny_count = static_cast<std::uint16_t>(bound / tiny_payload + 2);
    const std::vector<Datagram> hostile{
        reindexed(wide, 0, 49000),      // ~64 MiB claimed, under the wire cap
        reindexed(wide, 48999, 49000),  // the same claim from its last fragment
        reindexed(tiny, 0, tiny_count), // just past the bound
    };
    for (const auto& datagram : hostile) ASSERT_EQ(decode(datagram), DecodeStatus::kOk);

    auto queue = std::make_unique<net::QueueDatagramSource>();
    for (const auto& datagram : hostile) queue->push(datagram);
    queue->close();
    net::NetSource source(std::move(queue), config);
    engine::Frame frame;
    {
        AllocationProbe probe;
        EXPECT_FALSE(source.next(frame));
        EXPECT_LT(probe.largest(), bound);
    }
    EXPECT_EQ(source.net_stats()->malformed, hostile.size());
    EXPECT_EQ(source.net_stats()->frames_delivered, 0u);
}

TEST(NetSource, WarmNextMakesNoLargeAllocationPerFrame) {
    // One frame's datagrams at a time, as a radio streams them: once the
    // tracker's body buffers are recycled, next() copies each fragment
    // once and allocates nothing of 1 KiB or more.
    const auto frames = record_frames(306, 0.5);
    ASSERT_GT(frames.size(), 10u);
    auto queue = std::make_unique<net::QueueDatagramSource>();
    net::QueueDatagramSource* pending = queue.get();
    net::NetSourceConfig config;
    config.session_token = 6;
    net::NetSource source(std::move(queue), config);
    engine::Frame frame;
    constexpr std::size_t kWarmup = 3;
    std::size_t large = 0;
    for (std::size_t seq = 0; seq < frames.size(); ++seq) {
        for (auto& datagram : net::pack_frame(frames[seq], 6, seq))
            pending->push(std::move(datagram));
        bool got = false;
        {
            AllocationProbe probe;
            got = source.next(frame);
            if (seq >= kWarmup) large += probe.kib_allocations();
        }
        ASSERT_TRUE(got);
        expect_same_frame(frames[seq], frame);
    }
    EXPECT_EQ(large, 0u);
}

// -------------------------------------------------- fault injection

TEST(FaultInjector, DeterministicForAGivenSeed) {
    const auto frames = record_frames(303, 0.25);
    net::FaultConfig config;
    config.drop_rate = 0.1;
    config.duplicate_rate = 0.05;
    config.corrupt_rate = 0.05;
    config.reorder_rate = 0.1;
    config.seed = 77;

    net::FaultInjector a(config), b(config);
    const auto out_a = a.apply(pack_episode(frames, 5));
    const auto out_b = b.apply(pack_episode(frames, 5));
    ASSERT_EQ(out_a.size(), out_b.size());
    for (std::size_t i = 0; i < out_a.size(); ++i) EXPECT_EQ(out_a[i], out_b[i]);
    EXPECT_EQ(a.counters().dropped, b.counters().dropped);
    EXPECT_EQ(a.counters().corrupted, b.counters().corrupted);

    net::FaultInjector c(net::FaultConfig{.seed = 78});
    EXPECT_GT(a.counters().dropped, 0u);
    EXPECT_GT(a.counters().corrupted, 0u);
    EXPECT_GT(a.counters().duplicated, 0u);
    EXPECT_GT(a.counters().reordered, 0u);
    (void)c;
}

TEST(FaultInjector, DropDecisionsPinnedPerSeed) {
    // The first 64 drop decisions for two seeds, as a keep-mask over
    // datagrams tagged 0..63: recorded when the injector carried its own
    // splitmix64 copy, so the shared generator must reproduce them exactly
    // (the net-lossy drop pattern depends on it).
    const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
        {1, 0xee919dfc76079573ull},
        {0xC0FFEE, 0x167e791d1783715bull},
    };
    for (const auto& [seed, kept_mask] : pinned) {
        net::FaultConfig config;
        config.drop_rate = 0.5;
        config.seed = seed;
        config.protect_last = false;
        net::FaultInjector injector(config);
        std::vector<Datagram> stream;
        for (std::uint8_t i = 0; i < 64; ++i) stream.push_back(Datagram{i});
        std::uint64_t kept = 0;
        for (const auto& d : injector.apply(std::move(stream))) kept |= 1ull << d[0];
        EXPECT_EQ(kept, kept_mask) << "seed " << seed;
    }
}

TEST(FaultInjector, FaultedStreamDegradesGracefully) {
    const auto frames = record_frames(304, 1.0);
    ASSERT_GT(frames.size(), 40u);

    net::FaultConfig fault;
    fault.drop_rate = 0.03;
    fault.duplicate_rate = 0.02;
    fault.corrupt_rate = 0.02;
    fault.reorder_rate = 0.05;
    fault.seed = 1234;  // protect_last defaults true: the EOS marker lands
    net::FaultInjector injector(fault);
    auto source = queue_source(injector.apply(pack_episode(frames, 7)), 7);
    net::NetSource* net_source = source.get();

    std::map<double, std::size_t> by_time;
    for (std::size_t i = 0; i < frames.size(); ++i)
        by_time[frames[i].time_s] = i;

    engine::Frame frame;
    std::size_t delivered = 0;
    std::size_t last_index = 0;
    bool first = true;
    while (source->next(frame)) {
        // Every delivered frame is bit-exact (corruption never leaks
        // through the CRC) and order is preserved across the holes.
        const auto it = by_time.find(frame.time_s);
        ASSERT_NE(it, by_time.end());
        expect_same_frame(frames[it->second], frame);
        if (!first) {
            EXPECT_GT(it->second, last_index);
        }
        last_index = it->second;
        first = false;
        ++delivered;
    }

    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    // Exact bookkeeping: every sent frame was delivered or counted as a
    // gap; every corrupted datagram is exactly one CRC error; every
    // surplus duplicate surfaced as a duplicate or a late fragment.
    EXPECT_EQ(stats->frames_delivered, delivered);
    EXPECT_EQ(stats->frames_delivered + stats->frame_gaps, frames.size());
    EXPECT_EQ(stats->crc_errors, injector.counters().corrupted);
    EXPECT_EQ(stats->duplicates + stats->late_fragments,
              injector.counters().duplicated);
    EXPECT_GT(stats->frame_gaps, 0u);
    EXPECT_GT(stats->reorders, 0u);
    EXPECT_LE(stats->reorders, injector.counters().reordered);
}

TEST(FaultInjector, FaultedEngineSessionSurvivesEndToEnd) {
    const auto frames = record_frames(305, 1.0);
    net::FaultConfig fault;
    fault.drop_rate = 0.05;
    fault.corrupt_rate = 0.03;
    fault.reorder_rate = 0.05;
    fault.seed = 4321;
    net::FaultInjector injector(fault);
    auto source = queue_source(injector.apply(pack_episode(frames, 3)), 3);

    engine::EngineHost host;
    const auto id = host.admit("lossy-home", walk_config(305), std::move(source));
    host.run();
    EXPECT_EQ(host.state(id), engine::SessionState::kFinished);

    const auto stats = host.take_fleet_stats();
    EXPECT_EQ(stats.net.frames_delivered + stats.net.frame_gaps, frames.size());
    EXPECT_GT(stats.net.frame_gaps, 0u);
    ASSERT_EQ(stats.sessions.size(), 1u);
    ASSERT_TRUE(stats.sessions[0].net.has_value());
    EXPECT_EQ(stats.sessions[0].net->frames_delivered,
              stats.net.frames_delivered);
    // The degraded session still tracked: fewer points than a clean run,
    // but a track, and the process is alive to tell.
    EXPECT_GT(host.session(id)->tracker().track().size(), 0u);
}

// ------------------------------------------- loopback UDP end-to-end

TEST(LoopbackE2E, NetFedEngineIsBitIdenticalToSimFed) {
    const auto config = walk_config(808);

    // Reference: the same episode pulled straight from the simulator.
    engine::Engine reference(
        config, std::make_unique<engine::SimSource>(config, walk_script()));
    reference.run();
    ASSERT_GT(reference.tracker().track().size(), 50u);

    const auto frames = record_frames(808);
    ASSERT_GT(frames.size(), 100u);

    // Receiver: a real UDP socket feeding a NetSource feeding an Engine.
    auto socket = std::make_unique<net::UdpSocket>();
    const std::uint16_t ingest_port = socket->local_port();
    net::NetSourceConfig net_config;
    {
        engine::SimSource shape(config, walk_script());
        net_config.fmcw = shape.fmcw();
        net_config.array = shape.array();
    }
    net_config.session_token = 77;
    net_config.idle_timeout_s = 30.0;  // CI boxes stall; silence is not expected
    auto source =
        std::make_unique<net::NetSource>(std::move(socket), net_config);
    net::NetSource* net_source = source.get();
    engine::Engine netted(config, std::move(source));

    // Interleave sender and receiver: ship one frame's datagrams, pumping
    // the socket every few sends so the kernel receive buffer (typically
    // ~208 KB, about two fast-capture frames) never overflows, then step
    // the engine through that frame.
    net::UdpSocket sender;
    for (std::size_t seq = 0; seq < frames.size(); ++seq) {
        const auto datagrams = net::pack_frame(frames[seq], 77, seq);
        std::size_t sent = 0;
        for (const auto& datagram : datagrams) {
            sender.send_to(ingest_port, datagram);
            if (++sent % 16 == 0) net_source->pump();
        }
        ASSERT_TRUE(netted.step());
    }
    const Datagram eos = net::pack_end_of_stream(77, frames.size());
    sender.send_to(ingest_port, eos);
    netted.run();  // drains the stream end, finishes the session

    expect_same_track(reference.tracker().track(), netted.tracker().track());
    const auto stats = net_source->net_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->frames_delivered, frames.size());
    EXPECT_EQ(stats->frame_gaps, 0u);
    EXPECT_EQ(stats->crc_errors, 0u);
    EXPECT_EQ(stats->idle_timeouts, 0u);
}

// -------------------------------------------------- TCP control plane

/// Drive a request through a single-threaded server + client pair: the
/// server only makes progress when poll()ed, so interleave until the
/// response line lands.
std::string roundtrip(net::ControlServer& server, net::ControlClient& client,
                      const std::string& line) {
    client.send(line);
    std::string response;
    for (int i = 0; i < 5000; ++i) {
        server.poll();
        if (client.try_receive(response)) return response;
    }
    throw std::runtime_error("control response never arrived: " + line);
}

TEST(ControlPlane, PingAndUnknownCommand) {
    engine::EngineHost host;
    net::ControlServer server(host);
    ASSERT_GT(server.port(), 0u);
    net::ControlClient client(server.port());
    EXPECT_EQ(roundtrip(server, client, "PING"), "OK pong");
    EXPECT_EQ(roundtrip(server, client, "FLY"), "ERR unknown command FLY");
    EXPECT_EQ(roundtrip(server, client, "PAUSE nine"),
              "ERR usage: PAUSE <id>");
}

TEST(ControlPlane, StatsScrapeIsJson) {
    engine::EngineHost host;
    const auto id = host.admit(
        "home-a", walk_config(401),
        std::make_unique<engine::SimSource>(walk_config(401), walk_script(0.5)));
    for (int i = 0; i < 10; ++i) host.step_all();

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response = roundtrip(server, client, "STATS");
    ASSERT_EQ(response.rfind("OK {", 0), 0u);
    const std::string json = response.substr(3);
    EXPECT_NE(json.find("\"sessions\":["), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"home-a\""), std::string::npos);
    EXPECT_NE(json.find("\"frames\":10"), std::string::npos);
    EXPECT_NE(json.find("\"net\":{"), std::string::npos);
    (void)id;
}

TEST(ControlPlane, HealthScrapeReportsDegradationNonDestructively) {
    engine::EngineHost host;
    auto source = std::make_unique<engine::SimSource>(walk_config(405),
                                                      walk_script(1.0));
    hw::FaultConfig faults;
    faults.dropout_rate = 0.2;
    faults.seed = 9;
    source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
    host.admit("degraded-home", walk_config(405), std::move(source));
    for (int i = 0; i < 30; ++i) host.step_all();

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response = roundtrip(server, client, "HEALTH");
    ASSERT_EQ(response.rfind("OK {", 0), 0u);
    EXPECT_NE(response.find("\"name\":\"degraded-home\""), std::string::npos);
    EXPECT_NE(response.find("\"health\":"), std::string::npos);
    EXPECT_NE(response.find("\"degraded\":true"), std::string::npos);
    EXPECT_NE(response.find("\"rx_dropouts\":"), std::string::npos);
    // Unlike STATS, HEALTH never resets a window: polling it twice in a
    // row (no frames in between) returns the identical document.
    EXPECT_EQ(roundtrip(server, client, "HEALTH"), response);

    // The destructive scrape carries the fleet-level quality rollup.
    const std::string stats = roundtrip(server, client, "STATS");
    EXPECT_NE(stats.find("\"quality\":{"), std::string::npos);
    EXPECT_NE(stats.find("\"sessions_restarted\":0"), std::string::npos);
    EXPECT_NE(stats.find("\"degraded_frames\":"), std::string::npos);
}

TEST(ControlPlane, PauseResumeEvictLifecycle) {
    engine::EngineHost host;
    const auto id = host.admit(
        "home-b", walk_config(402),
        std::make_unique<engine::SimSource>(walk_config(402), walk_script()));
    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string id_str = std::to_string(id);

    EXPECT_EQ(roundtrip(server, client, "PAUSE " + id_str), "OK paused " + id_str);
    EXPECT_EQ(host.step_all(), 0u);  // the only session is paused

    EXPECT_EQ(roundtrip(server, client, "RESUME " + id_str),
              "OK resumed " + id_str);
    EXPECT_GT(host.step_all(), 0u);

    EXPECT_EQ(roundtrip(server, client, "EVICT " + id_str + " operator test"),
              "OK evicted " + id_str);
    EXPECT_EQ(host.state(id), engine::SessionState::kEvicted);
    EXPECT_EQ(roundtrip(server, client, "EVICT " + id_str),
              "ERR session unknown or already terminal");
    // Unknown ids come back as errors, not exceptions.
    EXPECT_EQ(roundtrip(server, client, "PAUSE 99999").rfind("ERR", 0), 0u);
}

TEST(ControlPlane, CheckpointScrapedSessionRestoresBitIdentical) {
    const std::string path = testing::TempDir() + "witrack_control_ckpt.wtrk";

    engine::Engine reference(
        walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()));
    reference.run();

    engine::EngineHost host;
    const auto id = host.admit(
        "home-c", walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()));
    for (int i = 0; i < 40; ++i) host.step_all();  // mid-episode

    net::ControlServer server(host);
    net::ControlClient client(server.port());
    const std::string response =
        roundtrip(server, client, "CHECKPOINT " + std::to_string(id) + " " + path);
    ASSERT_EQ(response.rfind("OK checkpointed", 0), 0u);

    // Restore the drained state onto a fresh host and run both to the end:
    // the restored session must land exactly where the original does.
    std::ifstream snapshot(path, std::ios::binary);
    ASSERT_TRUE(snapshot.good());
    engine::EngineHost other;
    const auto restored = other.restore_session(
        "home-c-restored", walk_config(403),
        std::make_unique<engine::SimSource>(walk_config(403), walk_script()),
        snapshot);
    host.run();
    other.run();
    expect_same_track(reference.tracker().track(),
                      host.session(id)->tracker().track());
    expect_same_track(reference.tracker().track(),
                      other.session(restored)->tracker().track());
    std::remove(path.c_str());
}

}  // namespace
}  // namespace witrack
