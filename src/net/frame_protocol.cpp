#include "net/frame_protocol.hpp"

#include <limits>
#include <stdexcept>

#include "common/serialize.hpp"
#include "engine/frame_codec.hpp"

namespace witrack::net {

namespace {

using engine::get_raw;
using engine::put_bytes;
using engine::put_raw;

Datagram make_datagram(std::uint16_t flags, std::uint64_t token,
                       std::uint64_t frame_seq, std::uint16_t fragment_index,
                       std::uint16_t fragment_count,
                       std::span<const std::uint8_t> payload) {
    Datagram out(kHeaderBytes + payload.size() + kTrailerBytes);
    std::span<std::uint8_t> writer(out);
    put_raw(writer, kProtocolMagic);
    put_raw(writer, kProtocolVersion);
    put_raw(writer, flags);
    put_raw(writer, token);
    put_raw(writer, frame_seq);
    put_raw(writer, fragment_index);
    put_raw(writer, fragment_count);
    put_raw(writer, static_cast<std::uint32_t>(payload.size()));
    put_bytes(writer, payload.data(), payload.size());
    put_raw(writer, common::crc32(out.data(), out.size() - kTrailerBytes));
    return out;
}

}  // namespace

std::vector<Datagram> pack_frame(const engine::Frame& frame,
                                 std::uint64_t token, std::uint64_t frame_seq,
                                 std::size_t mtu_bytes) {
    if (mtu_bytes <= kHeaderBytes + kTrailerBytes)
        throw std::invalid_argument("pack_frame: mtu leaves no payload room");
    const std::size_t chunk = mtu_bytes - kHeaderBytes - kTrailerBytes;

    Datagram body;
    engine::encode_frame(frame, body);

    const std::size_t fragments = (body.size() + chunk - 1) / chunk;
    if (fragments > std::numeric_limits<std::uint16_t>::max())
        throw std::invalid_argument(
            "pack_frame: frame needs " + std::to_string(fragments) +
            " fragments, exceeding the u16 fragment count at mtu " +
            std::to_string(mtu_bytes));

    std::vector<Datagram> out;
    out.reserve(fragments);
    for (std::size_t i = 0; i < fragments; ++i) {
        const std::size_t offset = i * chunk;
        const std::size_t len = std::min(chunk, body.size() - offset);
        out.push_back(make_datagram(
            0, token, frame_seq, static_cast<std::uint16_t>(i),
            static_cast<std::uint16_t>(fragments),
            {body.data() + offset, len}));
    }
    return out;
}

Datagram pack_end_of_stream(std::uint64_t token, std::uint64_t end_seq) {
    return make_datagram(kFlagEndOfStream, token, end_seq, 0, 1, {});
}

DecodeStatus decode_datagram(std::span<const std::uint8_t> bytes,
                             FrameHeader& header,
                             std::span<const std::uint8_t>& payload) {
    if (bytes.size() < kHeaderBytes + kTrailerBytes)
        return DecodeStatus::kTruncated;

    std::span<const std::uint8_t> reader = bytes;
    std::uint32_t magic = 0;
    std::uint16_t version = 0;
    std::uint32_t payload_bytes = 0;
    get_raw(reader, magic);
    if (magic != kProtocolMagic) return DecodeStatus::kBadMagic;
    get_raw(reader, version);
    // Version is judged before the CRC on purpose: a future protocol
    // revision may move or widen the CRC field, so "I cannot speak this
    // version" must not be misreported as bit damage.
    if (version != kProtocolVersion) return DecodeStatus::kVersionSkew;
    get_raw(reader, header.flags);
    get_raw(reader, header.token);
    get_raw(reader, header.frame_seq);
    get_raw(reader, header.fragment_index);
    get_raw(reader, header.fragment_count);
    get_raw(reader, payload_bytes);

    if (bytes.size() != kHeaderBytes + payload_bytes + kTrailerBytes)
        return DecodeStatus::kTruncated;
    std::uint32_t stored_crc = 0;
    std::span<const std::uint8_t> trailer = bytes.last(kTrailerBytes);
    get_raw(trailer, stored_crc);
    if (common::crc32(bytes.data(), bytes.size() - kTrailerBytes) != stored_crc)
        return DecodeStatus::kBadCrc;

    if (header.fragment_count == 0 ||
        header.fragment_index >= header.fragment_count)
        return DecodeStatus::kMalformed;
    if (header.end_of_stream() &&
        (payload_bytes != 0 || header.fragment_count != 1))
        return DecodeStatus::kMalformed;
    // The reassembled body is bounded by fragment_count equal-size slices;
    // reject anything that could exceed the frame body cap up front.
    if (static_cast<std::size_t>(payload_bytes) *
            static_cast<std::size_t>(header.fragment_count) >
        kMaxFrameBodyBytes)
        return DecodeStatus::kMalformed;

    payload = bytes.subspan(kHeaderBytes, payload_bytes);
    return DecodeStatus::kOk;
}

}  // namespace witrack::net
