#include "core/denoise.hpp"

#include <cmath>

#include "common/serialize.hpp"

namespace witrack::core {

namespace {

/// Process noise of each antenna's round-trip Kalman filter [m/s^2 scale].
constexpr double kKalmanProcessNoise = 1.5;

}  // namespace

TofDenoiser::TofDenoiser(const PipelineConfig& config)
    : max_contour_jump_m_(config.max_contour_jump_m),
      kalman_(kKalmanProcessNoise, config.kalman_measurement_noise) {}

void TofDenoiser::accept(double measurement, double dt) {
    last_value_ = kalman_.update(measurement, dt);
    outlier_streak_ = 0;
}

std::optional<double> TofDenoiser::update(const ContourPoint& contour, double dt) {
    if (!contour.detected) {
        // Interpolation (Section 4.4): a static person produces no
        // background-subtracted energy; hold the last estimate.
        outlier_streak_ = 0;
        return last_value_;
    }

    if (!last_value_) {
        accept(contour.round_trip_m, dt);
        return last_value_;
    }

    const double jump = std::abs(contour.round_trip_m - *last_value_);

    if (jump > max_contour_jump_m_) {
        ++outlier_streak_;
        const bool closer = contour.round_trip_m < *last_value_;
        closer_streak_ = closer ? closer_streak_ + 1 : 0;
        // A stable closer echo means the track was riding dynamic multipath
        // (the direct path is always shortest, Section 4.3): re-lock fast.
        // A farther echo needs much more persistence (lost track).
        const bool relock =
            (closer && closer_streak_ >= kReacquireCloserFrames) ||
            outlier_streak_ >= kReacquireFrames;
        if (relock) {
            kalman_.reset();
            accept(contour.round_trip_m, dt);
            closer_streak_ = 0;
        }
        return last_value_;
    }

    closer_streak_ = 0;
    accept(contour.round_trip_m, dt);
    return last_value_;
}

void TofDenoiser::reset() {
    kalman_.reset();
    last_value_.reset();
    outlier_streak_ = 0;
    closer_streak_ = 0;
}

void TofDenoiser::save_state(common::StateWriter& writer) const {
    kalman_.save_state(writer);
    writer.boolean(last_value_.has_value());
    writer.f64(last_value_.value_or(0.0));
    writer.u64(outlier_streak_);
    writer.u64(closer_streak_);
}

void TofDenoiser::load_state(common::StateReader& reader) {
    kalman_.load_state(reader);
    const bool have_last = reader.boolean();
    const double last = reader.f64();
    last_value_ = have_last ? std::optional<double>(last) : std::nullopt;
    outlier_streak_ = static_cast<std::size_t>(reader.u64());
    closer_streak_ = static_cast<std::size_t>(reader.u64());
}

}  // namespace witrack::core
