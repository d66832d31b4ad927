#include "engine/frame_codec.hpp"

#include <bit>
#include <istream>
#include <optional>

#include "common/serialize.hpp"

namespace witrack::engine {

namespace {

/// Offsets 0-31 of the layout table, as one padding-free block.
struct FixedHead {
    double time_s;
    double health;
    std::uint32_t num_rx;
    std::uint32_t num_sweeps;
    std::uint32_t samples;
    std::uint16_t lanes;
    std::uint8_t truth_flags;
    std::uint8_t frame_flags;
};
static_assert(sizeof(FixedHead) == 32 && std::is_trivially_copyable_v<FixedHead>);

constexpr std::size_t kLaneBytes = 9;
constexpr std::uint8_t kPerson1 = 1u << 0;
constexpr std::uint8_t kPerson2 = 1u << 1;
constexpr std::uint8_t kClockDrift = 1u << 0;
/// Lane flag bit i carries the i-th of these.
constexpr bool RxQuality::*kLaneFlags[] = {&RxQuality::valid, &RxQuality::saturated,
                                          &RxQuality::jitter, &RxQuality::burst};

/// Bytes of truth and lane records between the fixed head and the samples.
std::size_t rest_bytes(const FixedHead& h) {
    return std::popcount(h.truth_flags) * sizeof(geom::Vec3) + h.lanes * kLaneBytes;
}

std::size_t sample_bytes(const Frame& frame) {
    return frame.sweeps.size() * sizeof(double);
}

/// A fixed head that fits `shape` and a body of exactly `body_bytes`.
bool valid(const FixedHead& h, std::uint64_t body_bytes, const FrameShape& shape) {
    // admits() bounds the shape before the sample byte count is multiplied.
    return shape.admits(h.num_rx, h.num_sweeps, h.samples) &&
           (h.truth_flags & ~(kPerson1 | kPerson2)) == 0 && h.truth_flags != kPerson2 &&
           (h.frame_flags & ~kClockDrift) == 0 && h.health >= 0.0 && h.health <= 1.0 &&
           (h.lanes == 0 || h.lanes == h.num_rx) &&
           body_bytes == sizeof h + rest_bytes(h) + std::uint64_t{h.num_rx} *
                                                        h.num_sweeps * h.samples *
                                                        sizeof(double);
}

/// Decode the truth and lane records of a valid head from `rest` (exactly
/// rest_bytes(h) long); only then commit time, truth and quality to
/// `frame` and shape its FrameBuffer for the samples.
bool decode_rest(const FixedHead& h, std::span<const std::uint8_t> rest, Frame& frame) {
    std::optional<GroundTruth> truth;
    if (h.truth_flags & kPerson1) get_raw(rest, truth.emplace().position);
    if (h.truth_flags & kPerson2) get_raw(rest, truth->position2.emplace());
    FrameQuality quality;
    quality.clock_drift = (h.frame_flags & kClockDrift) != 0;
    quality.health = h.health;
    quality.rx.resize(h.lanes);
    for (RxQuality& lane : quality.rx) {
        std::uint8_t flags = 0;
        get_raw(rest, flags);
        get_raw(rest, lane.dropped_sweeps);
        get_raw(rest, lane.short_sweeps);
        if ((flags >> std::size(kLaneFlags)) != 0 || lane.dropped_sweeps > h.num_sweeps ||
            lane.short_sweeps > h.num_sweeps)
            return false;
        for (std::size_t i = 0; i < std::size(kLaneFlags); ++i)
            lane.*kLaneFlags[i] = ((flags >> i) & 1u) != 0;
    }

    frame.time_s = h.time_s;
    frame.truth = truth;
    FrameBuffer& b = frame.sweeps;
    if (b.num_rx() != h.num_rx || b.num_sweeps() != h.num_sweeps ||
        b.samples_per_sweep() != h.samples)
        b.resize(h.num_rx, h.num_sweeps, h.samples);
    b.quality() = std::move(quality);
    return true;
}

}  // namespace

FrameShape frame_shape(const FmcwParams& fmcw, const geom::ArrayGeometry& array) {
    return {array.rx.size(), fmcw.samples_per_sweep(), fmcw.sweeps_per_frame};
}

std::size_t max_body_bytes(const FrameShape& shape) {
    return sizeof(FixedHead) + 2 * sizeof(geom::Vec3) + shape.num_rx * kLaneBytes +
           shape.num_rx * shape.max_sweeps * shape.samples_per_sweep * sizeof(double);
}

void encode_frame(const Frame& frame, std::vector<std::uint8_t>& body) {
    const FrameBuffer& b = frame.sweeps;
    const FrameQuality& quality = b.quality();
    if (!quality.rx.empty() && quality.rx.size() != b.num_rx())
        throw std::invalid_argument("encode_frame: quality plane width is not num_rx");
    const std::uint8_t truth_flags =
        !frame.truth ? 0 : frame.truth->position2 ? kPerson1 | kPerson2 : kPerson1;
    const FixedHead h{frame.time_s,
                      quality.health,
                      static_cast<std::uint32_t>(b.num_rx()),
                      static_cast<std::uint32_t>(b.num_sweeps()),
                      static_cast<std::uint32_t>(b.samples_per_sweep()),
                      static_cast<std::uint16_t>(quality.rx.size()),
                      truth_flags,
                      quality.clock_drift ? kClockDrift : std::uint8_t{0}};

    body.resize(sizeof h + rest_bytes(h) + sample_bytes(frame));
    std::span<std::uint8_t> out(body);
    put_raw(out, h);
    if (frame.truth) put_raw(out, frame.truth->position);
    if (truth_flags & kPerson2) put_raw(out, *frame.truth->position2);
    for (const RxQuality& lane : quality.rx) {
        std::uint8_t flags = 0;
        for (std::size_t i = 0; i < std::size(kLaneFlags); ++i)
            flags |= static_cast<std::uint8_t>((lane.*kLaneFlags[i] ? 1u : 0u) << i);
        put_raw(out, flags);
        put_raw(out, lane.dropped_sweeps);
        put_raw(out, lane.short_sweeps);
    }
    put_bytes(out, b.data(), sample_bytes(frame));
}

bool decode_frame(std::span<const std::uint8_t> body, const FrameShape& shape,
                  Frame& frame) {
    FixedHead h{};
    std::span<const std::uint8_t> in = body;
    // valid() pins the body length, so the rest and the samples are in range.
    if (!get_raw(in, h) || !valid(h, body.size(), shape) ||
        !decode_rest(h, in.first(rest_bytes(h)), frame))
        return false;
    if (!frame.sweeps.empty())
        std::memcpy(frame.sweeps.data(), in.data() + rest_bytes(h), sample_bytes(frame));
    return true;
}

bool read_frame(std::istream& in, std::uint64_t body_bytes, const FrameShape& shape,
                Frame& frame, std::vector<std::uint8_t>& scratch) {
    FixedHead h{};
    if (!common::read_raw(in, h) || !valid(h, body_bytes, shape)) return false;
    scratch.resize(rest_bytes(h));
    if (!in.read(reinterpret_cast<char*>(scratch.data()),
                 static_cast<std::streamsize>(scratch.size())) ||
        !decode_rest(h, scratch, frame))
        return false;
    in.read(reinterpret_cast<char*>(frame.sweeps.data()),
            static_cast<std::streamsize>(sample_bytes(frame)));
    return static_cast<bool>(in);
}

}  // namespace witrack::engine
