// 3D localization stage (paper Section 5): turn the three (or more)
// denoised round-trip distances into a 3D body-centre position via the
// ellipsoid-intersection solver, then compensate for the body
// surface-to-centre depth the way the paper's VICON comparison does
// (Section 8a).
#pragma once

#include <cstddef>
#include <optional>

#include "core/params.hpp"
#include "core/tof.hpp"
#include "geom/array_geometry.hpp"
#include "geom/solver.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

struct TrackPoint {
    double time_s = 0.0;
    geom::Vec3 position;        ///< estimated body centre (world frame)
    double residual_rms = 0.0;  ///< solver consistency metric [m]
    bool clamped = false;       ///< solver clamped y into the antenna plane
};

/// Value-type serialization for track history (tracker, fall window).
void save_state(common::StateWriter& writer, const TrackPoint& point);
void load_state(common::StateReader& reader, TrackPoint& point);

/// Bytes one TrackPoint takes in a snapshot (bounds a snapshot's point count).
inline constexpr std::size_t kTrackPointStateBytes = 5 * sizeof(double) + 1;

class Localizer {
  public:
    Localizer(const geom::ArrayGeometry& array, const PipelineConfig& config);

    /// Localize one TOF frame; nullopt until every antenna has a distance.
    /// When the frame's quality plane marked RX lanes dead (hardware
    /// dropout), localization falls back to the valid-antenna subset: the
    /// paper's geometry is over-determined with 4 antennas, so >= 3 live
    /// lanes still fix a 3D position (a temporary sub-array solver, built
    /// only on degraded frames -- the healthy path never pays for it).
    std::optional<TrackPoint> locate(const TofFrame& frame) const;

    /// Localize explicit round-trip distances (used by the pointing
    /// estimator for hand positions; `compensate_depth=false` because a
    /// hand is a point, not an extended body).
    std::optional<TrackPoint> locate_round_trips(const std::vector<double>& round_trips,
                                                 double time_s,
                                                 bool compensate_depth = true) const;

    const geom::EllipsoidSolver& solver() const { return solver_; }

  private:
    /// Shared tail of every locate path: solve on `solver`, then apply the
    /// surface-depth compensation and elevation clamp.
    std::optional<TrackPoint> locate_with(const geom::EllipsoidSolver& solver,
                                          const std::vector<double>& round_trips,
                                          double time_s,
                                          bool compensate_depth) const;

    geom::EllipsoidSolver solver_;
    PipelineConfig config_;
};

}  // namespace witrack::core
