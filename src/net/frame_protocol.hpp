// The UDP frame wire protocol: how one frame travels from a remote radio
// to a NetSource. The frame is encoded as one frame_codec body (layout
// table in engine/frame_codec.hpp) and split into MTU-sized datagrams,
// each framed by a fixed header and a trailing CRC32 (the one CRC
// implementation in the tree, common::crc32):
//
//   offset  field
//        0  magic          u32   "WTNF"
//        4  version        u16   kProtocolVersion
//        6  flags          u16   bit 0 = end-of-stream marker
//        8  session token  u64   sender identity (0 = unclaimed)
//       16  frame seq      u64   monotonically increasing per sender
//       24  fragment index u16   0-based position within the frame
//       26  fragment count u16   total fragments of this frame (>= 1)
//       28  payload bytes  u32   length of the body slice that follows
//       32  payload        ...   body bytes [index*chunk, ...)
//     32+n  crc32          u32   over header + payload (bytes [0, 32+n))
//
// Every fragment except the last carries exactly the same payload length,
// chunk = mtu - header - crc, and the last carries 1 to chunk bytes. So
// fragment i is body bytes [i * chunk, i * chunk + length), and a receiver
// copies it straight to that offset of the frame's body, in any arrival
// order, without waiting for its predecessors (net/sequence_tracker.hpp).
// decode_datagram bounds fragment count x length only by the protocol-wide
// kMaxFrameBodyBytes; the receiver then bounds each frame by its session's
// shape (engine::max_body_bytes), a far tighter cap, before it allocates or
// places anything.
//
// The CRC is CRC-32/ISO-HDLC (common::crc32); its slicing-by-8 form computes
// the same checksum as the byte-at-a-time definition, so the trailer is the
// one every version-2 sender wrote. The end-of-stream marker is a payload-less
// datagram whose frame seq is one past the last frame sent; it lets the
// receiver account frames that were lost entirely at the tail.
//
// Decoding never throws and never trusts a length field: every torn-down
// path (truncated datagram, foreign magic, version skew including version
// 1, CRC mismatch, nonsense fragment fields) maps to a DecodeStatus the
// caller counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "engine/frame_source.hpp"

namespace witrack::net {

inline constexpr std::uint32_t kProtocolMagic = 0x464E5457u;  // "WTNF"
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::uint16_t kFlagEndOfStream = 1u << 0;

/// Header (32 bytes) + trailing CRC32 frame every datagram.
inline constexpr std::size_t kHeaderBytes = 32;
inline constexpr std::size_t kTrailerBytes = 4;

/// Default datagram budget: safely under the 1500-byte Ethernet MTU.
inline constexpr std::size_t kDefaultMtuBytes = 1400;

/// Upper bound on one reassembled frame body, whatever the session. A
/// hostile fragment count must fail cleanly, not drive a giant allocation
/// (same discipline as common::kMaxChunkBytes); SequenceTracker narrows it
/// to the session's shape.
inline constexpr std::size_t kMaxFrameBodyBytes = std::size_t{1} << 26;

using Datagram = std::vector<std::uint8_t>;

/// Decoded view of one datagram's header fields.
struct FrameHeader {
    std::uint64_t token = 0;
    std::uint64_t frame_seq = 0;
    std::uint16_t fragment_index = 0;
    std::uint16_t fragment_count = 1;
    std::uint16_t flags = 0;
    bool end_of_stream() const { return (flags & kFlagEndOfStream) != 0; }
};

enum class DecodeStatus {
    kOk,
    kTruncated,    ///< shorter than a header, or length field disagrees
    kBadMagic,     ///< not a WiTrack net-frame datagram
    kVersionSkew,  ///< a protocol version this build does not speak
    kBadCrc,       ///< bit damage in flight
    kMalformed,    ///< header decoded but its fields are nonsense
};

/// Encode `frame` into datagrams of at most `mtu_bytes` each. Throws
/// std::invalid_argument as engine::encode_frame does, when the frame cannot
/// fit 65535 fragments at this MTU, or when the MTU carries no payload.
std::vector<Datagram> pack_frame(const engine::Frame& frame,
                                 std::uint64_t token, std::uint64_t frame_seq,
                                 std::size_t mtu_bytes = kDefaultMtuBytes);

/// The end-of-stream marker: `end_seq` is one past the last frame's seq.
Datagram pack_end_of_stream(std::uint64_t token, std::uint64_t end_seq);

/// Validate and decode one datagram. On kOk, `header` holds the decoded
/// fields and `payload` views the body slice inside `bytes` (valid only as
/// long as `bytes` is). On any other status both outputs are unspecified.
DecodeStatus decode_datagram(std::span<const std::uint8_t> bytes,
                             FrameHeader& header,
                             std::span<const std::uint8_t>& payload);

}  // namespace witrack::net
