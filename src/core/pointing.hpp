// Pointing-direction estimation (paper Section 6.1). The user stands still
// and raises an arm toward a target, holds, then drops it. Because the body
// is static, only the arm survives background subtraction; its reflection
// surface is far smaller than a moving body's, which is how WiTrack
// distinguishes a gesture from whole-body motion.
//
// Pipeline: segment the TOF stream into the lift and drop bursts separated
// by silence -> robust-regress each antenna's round-trip distance over each
// burst -> localize the regressed endpoints -> direction = start->end of
// the lift, mirrored by the drop, averaged.
#pragma once

#include <optional>
#include <vector>

#include "core/localize.hpp"
#include "core/params.hpp"
#include "core/tof.hpp"
#include "geom/array_geometry.hpp"

namespace witrack::core {

struct PointingResult {
    geom::Vec3 direction;        ///< unit pointing direction
    double azimuth_rad = 0.0;    ///< atan2(x, y): 0 = straight ahead (+y)
    double elevation_rad = 0.0;
    geom::Vec3 hand_start;       ///< localized hand rest position
    geom::Vec3 hand_end;         ///< localized extended position
    double mean_extent_m = 0.0;  ///< reflection-extent statistic used to gate
    bool used_both_bursts = false;
};

class PointingEstimator {
  public:
    PointingEstimator(const PipelineConfig& pipeline, const geom::ArrayGeometry& array);

    /// Analyze a recorded gesture episode (TOF frames from TofEstimator).
    /// Returns nullopt when no valid pointing gesture is found (including
    /// when the motion looks like a whole body rather than an arm).
    std::optional<PointingResult> analyze(const std::vector<TofFrame>& frames) const;

    /// True when the episode's motion has arm-scale reflection extent.
    bool looks_like_body_part(const std::vector<TofFrame>& frames) const;

  private:
    struct Burst {
        std::size_t begin = 0, end = 0;  // frame index range [begin, end)
        double t_begin = 0.0, t_end = 0.0;
    };

    std::vector<Burst> segment(const std::vector<TofFrame>& frames) const;

    /// Regress one antenna's distances across a burst and return the
    /// (start, end) round trips, or nullopt if too few detections.
    std::optional<std::pair<double, double>> regress_antenna(
        const std::vector<TofFrame>& frames, const Burst& burst,
        std::size_t antenna) const;

    std::optional<std::pair<geom::Vec3, geom::Vec3>> burst_endpoints(
        const std::vector<TofFrame>& frames, const Burst& burst) const;

    Localizer localizer_;
    std::size_t num_rx_;
};

}  // namespace witrack::core
