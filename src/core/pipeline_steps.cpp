#include "core/pipeline_steps.hpp"

#include <algorithm>
#include <cmath>

#include "common/serialize.hpp"

namespace witrack::core {

std::string to_string(PipelineOutputs v) {
    std::string out;
    const auto append = [&out](const char* name) {
        if (!out.empty()) out += '|';
        out += name;
    };
    if (any(v & PipelineOutputs::kTof)) append("tof");
    if (any(v & PipelineOutputs::kRawPosition)) append("raw");
    if (any(v & PipelineOutputs::kSmoothedTrack)) append("smoothed");
    return out.empty() ? "none" : out;
}

SmoothStep::SmoothStep(const PipelineConfig& config)
    : filter_(kPositionProcessNoise, kPositionMeasurementNoise),
      frame_duration_s_(config.fmcw.frame_duration_s()) {}

std::optional<TrackPoint> SmoothStep::run(const std::optional<TrackPoint>& raw,
                                          double time_s, double health) {
    const double dt =
        have_last_time_ ? (time_s - last_time_s_) : frame_duration_s_;
    last_time_s_ = time_s;
    have_last_time_ = true;

    if (!raw) return std::nullopt;

    double noise_scale = 1.0;
    if (health < 1.0) {
        noise_scale = 1.0 / std::max(health, kQualityNoiseFloor);
        if (filter_.initialized()) {
            // Innovation gate: compare the degraded fix against the
            // constant-velocity prediction. A fix further than the gate is
            // a fault artifact, not human motion -- hold the filter on its
            // prediction for this frame instead of fusing it.
            const auto pos = filter_.position();
            const auto vel = filter_.velocity();
            const double dx = raw->position.x - (pos.x + vel.x * dt);
            const double dy = raw->position.y - (pos.y + vel.y * dt);
            const double dz = raw->position.z - (pos.z + vel.z * dt);
            if (std::sqrt(dx * dx + dy * dy + dz * dz) > kQualityGateInnovationM) {
                const auto coasted = filter_.predict_only(dt);
                TrackPoint point = *raw;
                point.position = {coasted.x, coasted.y, coasted.z};
                return point;
            }
        }
    }
    const auto smoothed = filter_.update(
        {raw->position.x, raw->position.y, raw->position.z}, dt, noise_scale);
    TrackPoint point = *raw;
    point.position = {smoothed.x, smoothed.y, smoothed.z};
    return point;
}

void SmoothStep::reset() {
    filter_.reset();
    have_last_time_ = false;
}

void SmoothStep::save_state(common::StateWriter& writer) const {
    filter_.save_state(writer);
    writer.f64(last_time_s_);
    writer.boolean(have_last_time_);
}

void SmoothStep::load_state(common::StateReader& reader) {
    filter_.load_state(reader);
    last_time_s_ = reader.f64();
    have_last_time_ = reader.boolean();
}

}  // namespace witrack::core
