// Multi-person tracking extension (paper Section 10). With two movers, each
// antenna observes two TOFs; any choice of one TOF per antenna defines an
// ellipsoid-intersection candidate, giving up to 8 candidate positions of
// which only 2 are real. The paper suggests disambiguating with trajectory
// continuity -- exactly what this tracker does: each person is a 3D
// constant-velocity Kalman track, and every frame the pair of candidates
// that best matches the predicted positions (while staying mutually
// exclusive per antenna where possible) is selected.
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/localize.hpp"
#include "core/params.hpp"
#include "core/pipeline_steps.hpp"
#include "core/tof.hpp"
#include "dsp/kalman.hpp"
#include "geom/array_geometry.hpp"

namespace witrack::core {

class MultiPersonTracker {
  public:
    MultiPersonTracker(const PipelineConfig& config, const geom::ArrayGeometry& array,
                       std::size_t max_people = 2);

    struct PersonEstimate {
        geom::Vec3 position;
        bool fresh = false;  ///< updated this frame (vs coasted prediction)
    };

    /// Process one TOF frame that carries multi-peak contours
    /// (config.contour_peaks >= max_people).
    std::vector<PersonEstimate> process(const TofFrame& frame, double time_s);

    std::size_t max_people() const { return max_people_; }

    /// Serialize per-person filter tracks and the inter-frame bookkeeping.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    struct Track {
        dsp::PositionKalman filter{kPositionProcessNoise,
                                   kPositionMeasurementNoise * 2.0};
        bool initialized = false;
        std::size_t misses = 0;  ///< consecutive frames without a candidate
    };

    /// Candidate positions from all combinations of per-antenna peaks.
    std::vector<TrackPoint> candidates(const TofFrame& frame, double time_s) const;

    PipelineConfig config_;
    Localizer localizer_;
    std::size_t max_people_;
    std::vector<Track> tracks_;
    double last_time_s_ = 0.0;
    bool have_time_ = false;
};

}  // namespace witrack::core
