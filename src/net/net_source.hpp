// NetSource: the fourth FrameSource. Where SimSource synthesizes frames and
// ReplaySource reads them from disk, NetSource reassembles them from a
// datagram stream -- a UdpSocket bound to an ingest port in deployment, or a
// QueueDatagramSource in the deterministic fault-injection rigs. Every way
// the wire can misbehave lands in a NetIngestStats counter that Engine and
// EngineHost surface into FleetStats; none of them can crash the pipeline.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "engine/frame_codec.hpp"
#include "engine/frame_source.hpp"
#include "net/datagram_source.hpp"
#include "net/sequence_tracker.hpp"

namespace witrack::net {

struct NetSourceConfig {
    FmcwParams fmcw;
    /// Deployment geometry of the remote sender (the wire carries sweeps,
    /// not geometry). Default matches the simulator's T array.
    geom::ArrayGeometry array = geom::make_t_array({0.0, 0.0, 1.3}, 1.0);

    /// Expected session token; datagrams carrying any other token are
    /// dropped (foreign_token). 0 adopts the first token seen.
    std::uint64_t session_token = 0;

    /// Seconds of silence (no datagram at all) before next() gives up on
    /// the sender, flushes what it has, and ends the stream.
    double idle_timeout_s = 5.0;

    /// How long one wait on the datagram source blocks before the idle
    /// clock is checked again.
    int poll_interval_ms = 20;

    SequenceTrackerConfig tracker;
};

class NetSource final : public engine::FrameSource {
  public:
    NetSource(std::unique_ptr<DatagramSource> source, NetSourceConfig config);

    /// Blocks (in poll_interval_ms slices) until an in-order frame is
    /// reassembled. False -- the stream is over -- after an end-of-stream
    /// marker, when an in-memory source is exhausted, or after
    /// idle_timeout_s of silence; whichever ends it, pending complete
    /// frames are flushed out first and missing seqs are counted as gaps.
    bool next(engine::Frame& frame) override;

    const geom::ArrayGeometry& array() const override { return config_.array; }
    const FmcwParams& fmcw() const override { return config_.fmcw; }

    /// Live ingestion counters: datagram-level accounting merged with the
    /// sequence tracker's frame-level accounting.
    std::optional<engine::NetIngestStats> net_stats() const override;

    /// Drain every datagram currently pending on the source into the
    /// tracker without blocking. next() calls this itself; an external
    /// event loop (the interleaved send/step test rig does) calls it to
    /// keep the kernel socket buffer from overflowing between frames.
    /// Returns true when at least one datagram arrived.
    bool pump();

    // save_state/load_state keep the throwing FrameSource defaults: a
    // network stream has no replayable cursor, so snapshotting a net-fed
    // session fails loudly (checkpoint its engine after eviction instead).

  private:
    bool deliver(engine::Frame& frame);

    NetSourceConfig config_;
    engine::FrameShape shape_;  ///< what config_ admits; bounds reassembly
    std::unique_ptr<DatagramSource> source_;
    SequenceTracker tracker_;
    engine::NetIngestStats stats_;   ///< datagram-level counters
    std::uint64_t adopted_token_ = 0;
    bool token_known_ = false;
    bool draining_ = false;  ///< stream ended, handing out flushed stragglers
    bool finished_ = false;
    std::vector<std::uint8_t> datagram_;  ///< receive scratch, reused
    std::vector<std::uint8_t> body_;      ///< last body popped, handed back to the tracker
};

}  // namespace witrack::net
