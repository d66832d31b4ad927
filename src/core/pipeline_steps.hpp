// The paper's realtime chain (Section 7) split into composable steps --
// TofStep (per-antenna range FFT + contour + denoise), LocalizeStep
// (ellipsoid intersection) and SmoothStep (3D Kalman) -- scheduled
// demand-driven: a consumer that only needs TOF observations (multi-person,
// pointing) never pays for localization or smoothing. PipelineOutputs is
// the demand vocabulary shared by the steps, WiTrackTracker and the
// engine's AppStage::required_inputs().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/frame_buffer.hpp"
#include "core/localize.hpp"
#include "core/params.hpp"
#include "core/tof.hpp"
#include "dsp/kalman.hpp"
#include "geom/array_geometry.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

/// Which pipeline products a consumer demands. Downstream bits imply their
/// upstream dependencies (resolved by with_dependencies): the smoothed
/// track needs a raw position, which needs the TOF observations.
enum class PipelineOutputs : std::uint8_t {
    kNone = 0,
    kTof = 1u << 0,            ///< per-antenna TOF observations
    kRawPosition = 1u << 1,    ///< unsmoothed ellipsoid-solver output
    kSmoothedTrack = 1u << 2,  ///< Kalman-smoothed 3D track
    kAll = kTof | kRawPosition | kSmoothedTrack,
};

constexpr PipelineOutputs operator|(PipelineOutputs a, PipelineOutputs b) {
    return static_cast<PipelineOutputs>(static_cast<std::uint8_t>(a) |
                                        static_cast<std::uint8_t>(b));
}
constexpr PipelineOutputs operator&(PipelineOutputs a, PipelineOutputs b) {
    return static_cast<PipelineOutputs>(static_cast<std::uint8_t>(a) &
                                        static_cast<std::uint8_t>(b));
}
inline PipelineOutputs& operator|=(PipelineOutputs& a, PipelineOutputs b) {
    return a = a | b;
}

constexpr bool any(PipelineOutputs v) { return v != PipelineOutputs::kNone; }

/// True when `set` contains every bit of `bits`.
constexpr bool demands(PipelineOutputs set, PipelineOutputs bits) {
    return (set & bits) == bits;
}

/// Close a demand set over the step dependencies (smoothed -> raw -> TOF).
constexpr PipelineOutputs with_dependencies(PipelineOutputs v) {
    if (any(v & PipelineOutputs::kSmoothedTrack)) v |= PipelineOutputs::kRawPosition;
    if (any(v & PipelineOutputs::kRawPosition)) v |= PipelineOutputs::kTof;
    return v;
}

/// Human-readable demand set, e.g. "tof|raw" ("none" when empty).
std::string to_string(PipelineOutputs v);

/// Step 1: raw sweeps -> per-antenna TOF observations (Section 4 end to
/// end). Owns the TofEstimator, which runs the per-RX FFT/contour/denoise
/// chains one antenna after another.
class TofStep {
  public:
    TofStep(const PipelineConfig& config, std::size_t num_rx)
        : estimator_(config, num_rx) {}

    void run(const FrameBuffer& frame, double time_s, TofFrame& out) {
        out = estimator_.process_frame(frame, time_s);
    }

    TofEstimator& estimator() { return estimator_; }
    const TofEstimator& estimator() const { return estimator_; }

    void reset() { estimator_.reset(); }

    void save_state(common::StateWriter& writer) const {
        estimator_.save_state(writer);
    }
    void load_state(common::StateReader& reader) { estimator_.load_state(reader); }

  private:
    TofEstimator estimator_;
};

/// Step 2: TOF observations -> unsmoothed 3D position (Section 5).
/// Stateless beyond its solver: safe to skip for any number of frames.
class LocalizeStep {
  public:
    LocalizeStep(const geom::ArrayGeometry& array, const PipelineConfig& config)
        : localizer_(array, config) {}

    std::optional<TrackPoint> run(const TofFrame& tof) const {
        return localizer_.locate(tof);
    }

    const Localizer& localizer() const { return localizer_; }

  private:
    Localizer localizer_;
};

/// Step 3: raw positions -> Kalman-smoothed track. Stateful (filter state
/// and inter-frame dt bookkeeping advance only on frames where the step
/// runs), so a session either demands smoothing throughout or not at all.
class SmoothStep {
  public:
    explicit SmoothStep(const PipelineConfig& config);

    /// Advance the dt bookkeeping and, when a raw position is present, fuse
    /// it; must be called on every frame the smoothed track is demanded.
    /// `health` is the frame's quality score (FrameQuality::health): at 1.0
    /// (the default, and every pristine frame) the step is bit-identical
    /// to its pre-quality behavior. Below 1.0 the filter deweights the
    /// measurement (noise widened by 1 / max(health, floor)) and rejects
    /// it outright -- coasting on velocity instead -- when its innovation
    /// exceeds the configured gate, so one fault-corrupted fix cannot
    /// teleport the track.
    std::optional<TrackPoint> run(const std::optional<TrackPoint>& raw,
                                  double time_s, double health = 1.0);

    void reset();

    /// Serialize the filter and the inter-frame dt bookkeeping.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    dsp::PositionKalman filter_;
    double frame_duration_s_;
    double quality_noise_floor_;
    double gate_innovation_m_;
    double last_time_s_ = 0.0;
    bool have_last_time_ = false;
};

}  // namespace witrack::core
