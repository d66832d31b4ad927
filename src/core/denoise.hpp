// TOF denoising (paper Section 4.4): outlier rejection against impossible
// jumps, interpolation (hold) while the person is static, and Kalman
// smoothing of each antenna's round-trip distance stream.
#pragma once

#include <cstddef>
#include <optional>

#include "core/contour.hpp"
#include "core/params.hpp"
#include "dsp/kalman.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

/// After this many consecutive contour jumps beyond
/// PipelineConfig::max_contour_jump_m the track re-locks (Section 4.4).
inline constexpr std::size_t kReacquireFrames = 40;
/// A persistent *closer* contour re-locks much faster: the direct body
/// path is always the shortest (Section 4.3), so a stable closer echo
/// means the track was sitting on dynamic multipath.
inline constexpr std::size_t kReacquireCloserFrames = 6;

class TofDenoiser {
  public:
    explicit TofDenoiser(const PipelineConfig& config);

    /// Feed one contour observation (dt seconds after the previous one);
    /// returns the denoised round-trip distance, or nullopt before the
    /// first detection.
    std::optional<double> update(const ContourPoint& contour, double dt);

    /// Number of consecutive outliers currently being rejected.
    std::size_t outlier_streak() const { return outlier_streak_; }

    bool tracking() const { return last_value_.has_value(); }

    /// Last accepted (filtered) round-trip distance, if any.
    const std::optional<double>& last_value() const { return last_value_; }

    void reset();

    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    void accept(double measurement, double dt);

    double max_contour_jump_m_;
    dsp::ScalarKalman kalman_;
    std::optional<double> last_value_;
    std::size_t outlier_streak_ = 0;
    std::size_t closer_streak_ = 0;
};

}  // namespace witrack::core
