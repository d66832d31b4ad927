#include "net/net_source.hpp"

#include <chrono>
#include <utility>

#include "net/frame_protocol.hpp"

namespace witrack::net {

NetSource::NetSource(std::unique_ptr<DatagramSource> source,
                     NetSourceConfig config)
    : config_(std::move(config)),
      shape_(engine::frame_shape(config_.fmcw, config_.array)),
      source_(std::move(source)),
      tracker_(engine::max_body_bytes(shape_), config_.tracker) {
    if (config_.session_token != 0) {
        adopted_token_ = config_.session_token;
        token_known_ = true;
    }
}

bool NetSource::pump() {
    bool any = false;
    while (source_->receive(datagram_)) {
        any = true;
        FrameHeader header;
        std::span<const std::uint8_t> payload;
        switch (decode_datagram(datagram_, header, payload)) {
            case DecodeStatus::kOk: break;
            case DecodeStatus::kTruncated: ++stats_.truncated; continue;
            case DecodeStatus::kBadMagic: ++stats_.bad_magic; continue;
            case DecodeStatus::kVersionSkew: ++stats_.version_skew; continue;
            case DecodeStatus::kBadCrc: ++stats_.crc_errors; continue;
            case DecodeStatus::kMalformed: ++stats_.malformed; continue;
        }
        if (!token_known_) {
            adopted_token_ = header.token;
            token_known_ = true;
        } else if (header.token != adopted_token_) {
            ++stats_.foreign_token;
            continue;
        }
        ++stats_.datagrams;
        stats_.bytes += datagram_.size();
        tracker_.offer(header, payload);
    }
    return any;
}

bool NetSource::deliver(engine::Frame& frame) {
    std::uint64_t seq = 0;
    while (tracker_.pop(seq, body_)) {
        if (engine::decode_frame(body_, shape_, frame)) {
            ++stats_.frames_delivered;
            return true;
        }
        // A body that reassembled but does not decode to this session's
        // shape: every datagram passed its CRC, so the sender packed garbage.
        // Count it, drop it, go on; the pipeline would evict the session.
        ++stats_.malformed;
    }
    return false;
}

bool NetSource::next(engine::Frame& frame) {
    if (finished_) return false;
    using Clock = std::chrono::steady_clock;
    auto idle_since = Clock::now();
    while (!draining_) {
        if (pump()) idle_since = Clock::now();
        if (deliver(frame)) return true;

        const bool ended =
            tracker_.end_of_stream_seen() || source_->exhausted();
        if (!ended) {
            if (source_->wait(config_.poll_interval_ms)) continue;
            const std::chrono::duration<double> idle = Clock::now() - idle_since;
            if (idle.count() < config_.idle_timeout_s) continue;
            ++stats_.idle_timeouts;
        }
        // Stream over (cleanly or by silence): release everything still
        // pending, account the holes, hand out the stragglers.
        tracker_.flush();
        draining_ = true;
    }
    if (deliver(frame)) return true;
    finished_ = true;
    return false;
}

std::optional<engine::NetIngestStats> NetSource::net_stats() const {
    engine::NetIngestStats merged = stats_;
    merged += tracker_.stats();
    return merged;
}

}  // namespace witrack::net
