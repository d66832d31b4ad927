// The streaming Engine: the per-session unit of the library. It pulls
// frames from any FrameSource, runs the paper's realtime pipeline
// demand-driven (only the steps some attached stage or subscriber asked
// for -- a TOF-only stage set never pays for localization or Kalman
// smoothing), publishes a TrackUpdateEvent per frame when anybody listens,
// and drives the attached application stages with per-stage latency
// accounting -- the paper's < 75 ms budget (Section 7) is observable per
// stage.
//
//   source (sim | replay | net) --> Engine --> EventBus --> subscribers
//                                      |
//                                      +--> AppStages (fall, pointing, ...)
//
// step() is serial code: the per-RX TOF chains run one antenna after
// another and the stages run in attachment order on the calling thread.
// Parallelism is a fleet decision: inside an engine::EngineHost the Engine
// is one session, and the host steps whole sessions in parallel on its
// WorkerPool -- see engine/host.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/latency.hpp"
#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"
#include "engine/config.hpp"
#include "engine/events.hpp"
#include "engine/frame_source.hpp"
#include "engine/stage.hpp"

namespace witrack::engine {

/// Session snapshot wire format (Engine::snapshot / Engine::restore):
/// the chunked, versioned, CRC-framed layout of common/serialize.hpp with
/// this magic. Layout (version 2):
///
///   header:  magic u32 "WTSS" | version u32
///   "ENG ":  frames u64 | track_updates_published u64 | finished u8 |
///            session_state u8 | session_id u64
///   "TRK ":  WiTrackTracker state (demand set, histories, step state)
///   "SRC ":  FrameSource cursor (replay frame index, or sim RNG + motion)
///   "STG ":  stage count u64 | per stage: name str | stage state
///   "END ":  empty terminator chunk
///
/// Version 2 reframed the background-subtractor history inside "TRK ":
/// the complex spectra became bulk-framed SoA re/im planes (one f64_vector
/// record per plane) instead of per-element interleaved doubles.
///
/// Version 3 (hw-robustness plane) appended the session's cumulative
/// QualityStats to "ENG ", an hw_valid flag to every serialized
/// AntennaFrame inside "TRK ", and -- for sim sources with a fault
/// injector attached -- the injector's RNG cursor and counters to "SRC ".
///
/// Version 4 replaced the simulator's two std::mt19937_64 text dumps
/// inside "SRC " (~6 KB each) with the fixed-width splitmix64 Rng state:
/// counter u64 | has_spare u8 | spare f64.
///
/// Version 5 dropped the tracker's two latency f64s from "TRK ": timing
/// is not session state.
///
/// Version 6 cut each RX's background model to the frame differencer over
/// the tracked band: two planes of tracked_band() f64s (empty while
/// unprimed), without the mode byte, the primed flag, the learned planes
/// and the training count.
inline constexpr std::uint32_t kSnapshotMagic = 0x53535457u;  // "WTSS"
inline constexpr std::uint32_t kSnapshotVersion = 6;

/// Lifecycle of one tracking session:
///
///   Admitted --> Running --> Draining --> Finished
///       \____________\____________\-----> Evicted
///
/// Admitted: constructed (or queued by a host at capacity), no frame
/// processed yet. Running: frames flowing. Draining: the source is
/// exhausted but the stages' episode-scoped finish() work has not been
/// delivered. Finished: finish() done. Evicted: terminally removed by an
/// EngineHost (backpressure, a faulting stage, or operator request) --
/// episode finish() work is NOT delivered for evicted sessions.
/// A standalone Engine walks the same machine driving itself (step()/run()
/// advance the state); it simply never reaches Evicted.
enum class SessionState : std::uint8_t {
    kAdmitted,
    kRunning,
    kDraining,
    kFinished,
    kEvicted,
};

/// "admitted" / "running" / "draining" / "finished" / "evicted".
const char* to_string(SessionState state);

class Engine {
  public:
    /// The Engine owns its source, so the session is one self-contained
    /// object with no lifetime fine print (and the shape an EngineHost
    /// admits). Throws std::invalid_argument on a null source.
    Engine(EngineConfig config, std::unique_ptr<FrameSource> source);

    /// Attach an application stage (attach() runs immediately).
    void add_stage(std::unique_ptr<AppStage> stage);

    /// Construct and attach a stage in place; returns a reference that
    /// stays valid for the Engine's lifetime.
    template <typename Stage, typename... Args>
    Stage& emplace_stage(Args&&... args) {
        auto stage = std::make_unique<Stage>(std::forward<Args>(args)...);
        Stage& ref = *stage;
        add_stage(std::move(stage));
        return ref;
    }

    /// Process one frame: pull, run the demanded pipeline steps, publish,
    /// run stages. False when the source is exhausted (the session enters
    /// Draining; stages are NOT finished -- finish() or run() does that)
    /// or when the session reached a terminal state (Finished/Evicted: no
    /// further frames may flow once episode verdicts were delivered).
    bool step();

    /// Stream until the source ends, then finish() every stage. Returns the
    /// number of frames processed by this call.
    std::size_t run();

    /// Deliver every stage's episode-scoped finish() work exactly once and
    /// move the session to Finished. Idempotent; run() calls it, and an
    /// EngineHost calls it when a session drains. A no-op on an evicted
    /// session: its episode was aborted, so no verdicts are published.
    void finish();

    /// The union of stage demands and event-bus subscriptions that the next
    /// step() will schedule (already closed over step dependencies). With
    /// no stages and no TrackUpdateEvent subscribers the Engine assumes a
    /// headless caller reading tracker() directly and runs everything.
    core::PipelineOutputs demanded_outputs() const;

    /// Session identity within an EngineHost (0 for a standalone Engine).
    std::uint64_t session_id() const { return session_id_; }

    /// Where this session is in its lifecycle (see SessionState).
    SessionState session_state() const { return state_; }

    EventBus& bus() { return bus_; }
    const EventBus& bus() const { return bus_; }

    core::WiTrackTracker& tracker() { return tracker_; }
    const core::WiTrackTracker& tracker() const { return tracker_; }

    const EngineConfig& config() const { return config_; }
    const core::PipelineConfig& pipeline_config() const { return pipeline_; }
    const geom::ArrayGeometry& array() const { return source_->array(); }
    std::size_t frames_processed() const { return frames_; }

    /// TrackUpdateEvents actually built and delivered: stays at zero while
    /// nobody subscribes (the Engine skips constructing the event entirely).
    std::size_t track_updates_published() const { return track_updates_published_; }

    /// Network ingestion counters of this session's source (std::nullopt
    /// for in-process sources; filled by net::NetSource). EngineHost rolls
    /// these into FleetStats per session.
    std::optional<NetIngestStats> net_stats() const { return source_->net_stats(); }

    /// Cumulative hardware-quality accounting over every frame this session
    /// pulled (one accumulate per frame, from the frame's quality plane).
    /// All-healthy streams show frames == frames_processed() and every
    /// fault counter at zero. EngineHost reads deltas of this for its
    /// health watchdog and rolls it into FleetStats.
    const QualityStats& quality_stats() const { return quality_stats_; }

    /// Latency per application stage: the histogram covers the per-frame
    /// on_frame() calls; the one-shot finish() work (episode-scoped
    /// analysis) is reported separately in finish_s.
    struct StageStats : common::LatencyHistogram {
        std::string name;
        double finish_s = 0.0;
    };
    const std::vector<StageStats>& stage_stats() const { return stage_stats_; }

    /// Snapshot the per-stage stats and reset the running histograms and
    /// finish_s, so a long-running deployment can poll per-window
    /// percentiles without restarting the Engine. Stage names persist
    /// across snapshots. After the attached application stages, the
    /// snapshot appends one "pipeline.*" entry per core pipeline step
    /// (fft, subtract, contour, denoise, localize, smooth) and
    /// "pipeline.frame" for the whole tracker call -- per-antenna samples
    /// for the per-RX steps, so `frames` counts (frame, antenna) pairs
    /// there. Steps with no samples in the window are omitted.
    std::vector<StageStats> take_stage_stats();

    /// Serialize the full session state -- tracker, stages, source cursor,
    /// lifecycle -- into `out` (layout documented at kSnapshotMagic).
    /// Restoring the snapshot into an identically-built Engine resumes the
    /// session bit-identically to never having stopped. Throws
    /// std::runtime_error if the source cannot be resumed (a network
    /// stream) or the sink fails.
    void snapshot(std::ostream& out) const;

    /// Load a snapshot into this Engine, which must be freshly constructed
    /// with the same config, an equivalent source, and the same stages in
    /// the same order as the snapshotted session. The whole stream is
    /// validated (magic, version, per-chunk CRC) before any state is
    /// touched, so a truncated/corrupt/wrong-version snapshot throws
    /// std::runtime_error and leaves the Engine exactly as constructed.
    void restore(std::istream& in);

  private:
    friend class EngineHost;  ///< admission identity + eviction transitions

    /// Drive every stage with the tracker's persistent per-frame result.
    void run_stages(const core::WiTrackTracker::FrameResult& result);

    void set_session_id(std::uint64_t id) { session_id_ = id; }
    void mark_evicted() { state_ = SessionState::kEvicted; }

    EngineConfig config_;
    std::unique_ptr<FrameSource> owned_source_;
    FrameSource* source_;             ///< owned_source_.get(), never null
    core::PipelineConfig pipeline_;   ///< resolved once (fmcw applied)
    EventBus bus_;
    core::WiTrackTracker tracker_;
    std::vector<std::unique_ptr<AppStage>> stages_;
    std::vector<StageStats> stage_stats_;
    Frame frame_;                     ///< reused across step() calls
    QualityStats quality_stats_;      ///< per-frame quality plane, aggregated
    std::size_t frames_ = 0;
    std::size_t track_updates_published_ = 0;
    bool finished_ = false;           ///< stage finish() already delivered
    std::uint64_t session_id_ = 0;    ///< assigned by EngineHost::admit
    SessionState state_ = SessionState::kAdmitted;
};

}  // namespace witrack::engine
