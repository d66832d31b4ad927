// WiTrack facade: the full realtime pipeline of paper Section 7 composed
// from the demand-schedulable steps (TofEstimator -> Localizer -> SmoothStep)
// plus per-step and whole-frame latency histograms (the paper reports
// < 75 ms from signal reception to 3D output). Callers that only need part
// of the chain pass a PipelineOutputs demand set and the undemanded steps
// are skipped entirely -- a TOF-only consumer never pays for the ellipsoid
// solve or the Kalman smoothing.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/frame_buffer.hpp"
#include "core/localize.hpp"
#include "core/params.hpp"
#include "core/pipeline_steps.hpp"
#include "core/tof.hpp"
#include "geom/array_geometry.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

class WiTrackTracker {
  public:
    WiTrackTracker(const PipelineConfig& config, const geom::ArrayGeometry& array);

    struct FrameResult {
        TofFrame tof;                       ///< per-antenna observations
        std::optional<TrackPoint> raw;      ///< unsmoothed solver output
        std::optional<TrackPoint> smoothed; ///< Kalman-smoothed 3D position
        PipelineOutputs computed = PipelineOutputs::kNone;  ///< steps that ran
        /// Track confidence for this frame: the frame's hardware health
        /// score, zeroed when localization was demanded but produced no
        /// fix. 1.0 on every pristine frame, dips while faults are active
        /// and recovers with the hardware.
        double confidence = 1.0;
    };

    /// Process one frame of sweeps (contiguous rx-major storage) through the
    /// full chain. This is the realtime hot path; FrameBuffer is the only
    /// ingestion type. The returned result is a persistent member reused
    /// every frame (capacity-reusing, so the steady state is
    /// allocation-free) -- copy it or consume it before the next frame.
    const FrameResult& process_frame(const FrameBuffer& frame, double time_s) {
        return process_frame(frame, time_s, PipelineOutputs::kAll);
    }

    /// Demand-driven variant: run only the steps needed to produce
    /// `demanded` (closed over dependencies -- demanding the smoothed track
    /// implies localization and TOF). Undemanded FrameResult fields are left
    /// empty and undemanded stateful steps do not advance; re-demanding the
    /// smoothed track after a gap restarts the position filter (no stale
    /// cross-gap extrapolation), so the smoothing session begins fresh.
    const FrameResult& process_frame(const FrameBuffer& frame, double time_s,
                                     PipelineOutputs demanded);

    /// Per-pipeline-step latency (Section 4 chain: fft, subtract, contour,
    /// denoise from the TOF estimator; localize and smooth from this
    /// tracker) and the whole process_frame() call, which encloses them.
    /// take_step_stats() returns and resets the window.
    struct PipelineStepStats {
        TofEstimator::StepStats tof;
        common::LatencyHistogram localize, smooth, frame;
    };
    PipelineStepStats take_step_stats() {
        return {tof_.take_step_stats(), std::exchange(localize_steps_, {}),
                std::exchange(smooth_steps_, {}), std::exchange(frame_latency_, {})};
    }

    /// Whole-frame process_frame() latency since the last take_step_stats().
    const common::LatencyHistogram& frame_latency() const { return frame_latency_; }

    /// All smoothed track points so far (bounded by
    /// PipelineConfig::max_track_history when a cap is set).
    const std::vector<TrackPoint>& track() const { return track_; }

    /// Unsmoothed per-frame solver outputs. Fast transients (a fall takes
    /// ~0.4 s) survive here; the smoothed track trades them for lower noise.
    const std::vector<TrackPoint>& raw_track() const { return raw_track_; }

    std::size_t frames_processed() const { return frames_; }

    TofEstimator& tof_estimator() { return tof_; }
    const Localizer& localizer() const { return localizer_; }

    void reset();

    /// Serialize the full tracker state: demand bookkeeping, track
    /// histories and every step's mutable state. Timing is not state.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    /// Enforce max_track_history with amortized O(1) block trimming.
    void trim_history(std::vector<TrackPoint>& track);

    PipelineConfig config_;
    TofEstimator tof_;
    Localizer localizer_;  ///< stateless beyond its solver: safe to skip
    SmoothStep smooth_step_;
    PipelineOutputs prev_demanded_ = PipelineOutputs::kNone;
    FrameResult result_;  ///< persistent per-frame result, reused every frame
    common::LatencyHistogram localize_steps_, smooth_steps_, frame_latency_;
    std::vector<TrackPoint> track_;
    std::vector<TrackPoint> raw_track_;
    std::size_t frames_ = 0;
};

}  // namespace witrack::core
