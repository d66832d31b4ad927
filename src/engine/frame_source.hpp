// The one ingestion seam of the streaming engine: every producer of
// baseband frames -- the simulator, a recorded session on disk, or a WTNF
// datagram stream off the network -- implements FrameSource, and
// everything downstream (Engine, Recorder, tests) consumes frames through
// it without knowing which world they came from.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "common/constants.hpp"
#include "common/frame_buffer.hpp"
#include "geom/array_geometry.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::engine {

/// Reference positions for evaluation. The simulator fills them from the
/// motion script (the paper's VICON stand-in) and the replay format
/// preserves them; a network stream (net::NetSource) leaves them empty.
struct GroundTruth {
    geom::Vec3 position;                    ///< person 1 body centre
    std::optional<geom::Vec3> position2;    ///< person 2, if present
};

/// One frame of baseband sweeps plus capture metadata. The FrameBuffer is
/// reused across next() calls, so a long-lived Frame keeps the streaming
/// loop allocation-free at steady state.
struct Frame {
    double time_s = 0.0;
    FrameBuffer sweeps;                 ///< contiguous rx-major baseband
    std::optional<GroundTruth> truth;   ///< evaluation reference, if known
};

/// Ingestion counters of a network-fed source (net::NetSource), cumulative
/// over the source's lifetime. Defined here -- not in src/net/ -- because
/// this is the seam where EngineHost reads them into FleetStats without the
/// engine layer depending on the network layer. Datagram-level counters
/// (crc_errors, truncated, bad_magic, version_skew) cover datagrams that
/// never decoded; frame-level counters (frame_gaps, reorders, duplicates,
/// late_fragments, seq_resyncs) come from per-sender sequence tracking.
struct NetIngestStats {
    std::uint64_t datagrams = 0;         ///< datagrams accepted (decoded OK)
    std::uint64_t bytes = 0;             ///< payload + header bytes accepted
    std::uint64_t frames_delivered = 0;  ///< frames handed to the Engine
    /// Frame seqs never delivered, except those a resync jumped over: an
    /// outage of more than 4 reassembly windows counts one seq_resyncs.
    std::uint64_t frame_gaps = 0;
    std::uint64_t reorders = 0;          ///< datagrams that arrived out of order
    std::uint64_t duplicates = 0;        ///< fragments already held
    std::uint64_t late_fragments = 0;    ///< fragments of already-closed frames
    std::uint64_t crc_errors = 0;        ///< datagrams dropped: CRC mismatch
    std::uint64_t truncated = 0;         ///< datagrams dropped: short/length skew
    std::uint64_t bad_magic = 0;         ///< datagrams dropped: not our protocol
    std::uint64_t version_skew = 0;      ///< datagrams dropped: unknown version
    std::uint64_t malformed = 0;         ///< dropped: bad datagram header or frame body
    std::uint64_t foreign_token = 0;     ///< datagrams dropped: wrong session token
    std::uint64_t idle_timeouts = 0;     ///< next() gave up waiting for frames
    std::uint64_t seq_resyncs = 0;       ///< jumps to a new frame-seq range

    NetIngestStats& operator+=(const NetIngestStats& other) {
        datagrams += other.datagrams;
        bytes += other.bytes;
        frames_delivered += other.frames_delivered;
        frame_gaps += other.frame_gaps;
        reorders += other.reorders;
        duplicates += other.duplicates;
        late_fragments += other.late_fragments;
        crc_errors += other.crc_errors;
        truncated += other.truncated;
        bad_magic += other.bad_magic;
        version_skew += other.version_skew;
        malformed += other.malformed;
        foreign_token += other.foreign_token;
        idle_timeouts += other.idle_timeouts;
        seq_resyncs += other.seq_resyncs;
        return *this;
    }
};

class FrameSource {
  public:
    virtual ~FrameSource() = default;

    /// Produce the next frame into `frame`; false when the stream has ended.
    virtual bool next(Frame& frame) = 0;

    /// Antenna geometry of the deployment this stream was captured with.
    virtual const geom::ArrayGeometry& array() const = 0;

    /// FMCW parameters the sweeps were generated with.
    virtual const FmcwParams& fmcw() const = 0;

    /// Serialize the stream cursor (and any generator state) so a restored
    /// session resumes at the exact frame a snapshot was taken. Sources
    /// that cannot be resumed (e.g. a network stream) keep the throwing
    /// default, which makes Engine::snapshot fail loudly instead of
    /// producing a snapshot that silently restarts the stream.
    virtual void save_state(common::StateWriter&) const {
        throw std::runtime_error("FrameSource: source does not support snapshots");
    }

    /// Restore the cursor written by save_state into a freshly-constructed
    /// source. Symmetric with save_state; same throwing default.
    virtual void load_state(common::StateReader&) {
        throw std::runtime_error("FrameSource: source does not support snapshots");
    }

    /// Network ingestion counters, for sources fed over the wire
    /// (net::NetSource overrides this). In-process sources have none.
    virtual std::optional<NetIngestStats> net_stats() const { return std::nullopt; }
};

}  // namespace witrack::engine
