// The paper's realtime chain (Section 7) runs as three steps -- TOF
// estimation (per-antenna range FFT + contour + denoise, TofEstimator),
// localization (ellipsoid intersection, Localizer) and smoothing (3D
// Kalman, SmoothStep) -- scheduled demand-driven: a consumer that only
// needs TOF observations (multi-person, pointing) never pays for
// localization or smoothing. PipelineOutputs is the demand vocabulary
// shared by the steps, WiTrackTracker and the engine's
// AppStage::required_inputs().
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/localize.hpp"
#include "core/params.hpp"
#include "dsp/kalman.hpp"

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

/// 3D position smoothing: process noise [m/s^2] and per-fix measurement
/// noise [m] of the position Kalman filter (the multi-person tracker
/// doubles the measurement noise).
inline constexpr double kPositionProcessNoise = 2.0;
inline constexpr double kPositionMeasurementNoise = 0.14;

/// Quality-aware smoothing (hw-robustness plane). On frames whose health
/// score h < 1 the position filter widens its measurement noise by
/// 1 / max(h, kQualityNoiseFloor) -- degraded fixes pull the state gently
/// instead of yanking it -- and a measurement whose innovation (distance
/// from the predicted position) exceeds kQualityGateInnovationM is
/// rejected outright: the filter coasts on its velocity for that frame
/// rather than teleporting onto a fault-corrupted fix. Healthy frames
/// (h == 1) are untouched bit for bit.
inline constexpr double kQualityNoiseFloor = 0.25;
inline constexpr double kQualityGateInnovationM = 0.8;

/// Raw positions -> Kalman-smoothed track. Stateful (filter state
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
    /// measurement (noise widened by 1 / max(health, kQualityNoiseFloor))
    /// and rejects it outright -- coasting on velocity instead -- when its
    /// innovation exceeds kQualityGateInnovationM, so one fault-corrupted
    /// fix cannot teleport the track.
    std::optional<TrackPoint> run(const std::optional<TrackPoint>& raw,
                                  double time_s, double health = 1.0);

    void reset();

    /// Serialize the filter and the inter-frame dt bookkeeping.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    dsp::PositionKalman filter_;
    double frame_duration_s_;
    double last_time_s_ = 0.0;
    bool have_last_time_ = false;
};

}  // namespace witrack::core
