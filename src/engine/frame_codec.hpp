// The one byte layout of a Frame, shared by recordings (engine/replay.hpp)
// and WTNF datagram bodies (net/frame_protocol.hpp). Native endianness,
// doubles verbatim: every transport reproduces the in-process frame --
// samples, ground truth, quality plane -- bit for bit.
//
// Body, version 2 of both formats (both refuse version 1):
//
//   offset  size  field
//        0     8  time_s         f64
//        8     8  health         f64  quality-plane health, in [0, 1]
//       16     4  num_rx         u32
//       20     4  num_sweeps     u32
//       24     4  samples        u32  per sweep
//       28     2  quality lanes  u16  0 (no per-lane flags) or num_rx
//       30     1  truth flags    u8   bit 0 person 1, bit 1 person 2 (needs bit 0)
//       31     1  frame flags    u8   bit 0 clock drift
//       32  24*p  truth          f64 x3 per flagged person
//        -   9*L  per lane       flags u8 (bit 0 valid, 1 saturated, 2 jitter,
//                                3 burst) | dropped sweeps u32 | short sweeps u32
//        -     -  samples        f64 x num_rx*num_sweeps*samples, rx-major
//
// Decoding checks every field before it touches the frame: the shape must
// be the capture's (FrameShape), lengths must agree exactly, flags must be
// known and lane counts must fit. An accepted body replaces the frame's
// time, truth and whole quality plane, so a reused Frame keeps no stale
// flags.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "engine/frame_source.hpp"

namespace witrack::engine {

/// The frames one capture admits: exactly its antennas and sweep length,
/// and 1 to max_sweeps sweeps.
struct FrameShape {
    std::size_t num_rx = 0;
    std::size_t samples_per_sweep = 0;
    std::size_t max_sweeps = 0;

    bool admits(std::size_t rx, std::size_t sweeps, std::size_t samples) const {
        return rx == num_rx && samples == samples_per_sweep && sweeps >= 1 &&
               sweeps <= max_sweeps;
    }
    bool admits(const FrameBuffer& b) const {
        return admits(b.num_rx(), b.num_sweeps(), b.samples_per_sweep());
    }
};

FrameShape frame_shape(const FmcwParams& fmcw, const geom::ArrayGeometry& array);

/// The longest body `shape` admits: max_sweeps sweeps, two people of truth
/// and a lane record per antenna. Every body decode_frame accepts for the
/// shape is at most this long.
std::size_t max_body_bytes(const FrameShape& shape);

/// The bounded byte writer: copy `len` bytes to the front of `out` and
/// advance past them. Writing past the end is an encoder bug and throws
/// std::logic_error.
inline void put_bytes(std::span<std::uint8_t>& out, const void* data, std::size_t len) {
    if (len > out.size()) throw std::logic_error("put_bytes: overflow");
    if (len != 0) std::memcpy(out.data(), data, len);
    out = out.subspan(len);
}

template <typename T>
void put_raw(std::span<std::uint8_t>& out, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    put_bytes(out, &value, sizeof value);
}

/// The bounded byte reader: copy the front of `in` into `value` and advance
/// past it; false, consuming nothing, when `in` is too short.
template <typename T>
bool get_raw(std::span<const std::uint8_t>& in, T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (in.size() < sizeof value) return false;
    std::memcpy(&value, in.data(), sizeof value);
    in = in.subspan(sizeof value);
    return true;
}

/// Replace `body` with the encoding of `frame`. Throws std::invalid_argument
/// on a quality plane whose width is neither 0 nor num_rx.
void encode_frame(const Frame& frame, std::vector<std::uint8_t>& body);

/// Decode one whole body. Never throws; false rejects the body and leaves
/// `frame` untouched.
bool decode_frame(std::span<const std::uint8_t> body, const FrameShape& shape,
                  Frame& frame);

/// Read a body of `body_bytes` from `in`, its samples straight into the
/// FrameBuffer. False when it does not decode; the stream's failbit then
/// tells a truncated body from a corrupt one. Samples cut short leave the
/// frame partly overwritten.
bool read_frame(std::istream& in, std::uint64_t body_bytes, const FrameShape& shape,
                Frame& frame, std::vector<std::uint8_t>& scratch);

}  // namespace witrack::engine
