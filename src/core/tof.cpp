#include "core/tof.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace witrack::core {

TofEstimator::TofEstimator(const PipelineConfig& config, std::size_t num_rx)
    : config_(config),
      processor_(config.fmcw),
      contour_(config) {
    if (num_rx == 0) throw std::invalid_argument("TofEstimator: need >= 1 antenna");
    const std::size_t band = tracked_band(config_, processor_.usable_bins(),
                                          processor_.bin_round_trip_m());
    per_rx_.reserve(num_rx);
    for (std::size_t i = 0; i < num_rx; ++i) per_rx_.emplace_back(config_, band);
    lane_flags_.resize(num_rx, kLaneOk);
}

void TofEstimator::latch_quality(const FrameBuffer& frame) {
    const FrameQuality& quality = frame.quality();
    lane_flags_.assign(per_rx_.size(), kLaneOk);
    if (quality.rx.empty()) return;  // pristine frame: nothing to latch
    for (std::size_t rx = 0; rx < per_rx_.size(); ++rx) {
        if (!quality.lane_valid(rx))
            lane_flags_[rx] = kLaneDead;
        else if (quality.lane_saturated(rx))
            lane_flags_[rx] = kLaneSaturated;
    }
}

void TofEstimator::mark_dead(AntennaFrame& out) {
    out.contour = ContourPoint{};
    out.denoised_m.reset();
    out.peaks.clear();
    out.profile.clear();
    out.hw_valid = false;
}

void TofEstimator::process_rx(std::size_t rx, const FrameBuffer& frame,
                              double dt, AntennaFrame& out) {
    if (lane_flags_[rx] == kLaneDead) {
        mark_dead(out);
        return;
    }
    auto& antenna_state = per_rx_[rx];
    {
        common::ScopedLatency timer(step_stats_.fft);
        processor_.process_into(frame.antenna(rx), frame.num_sweeps(), profile_);
    }
    {
        // A saturated lane still localizes off its subtracted profile, but
        // the clipped spectrum must not become the previous frame the next
        // one subtracts: read-only subtraction.
        common::ScopedLatency timer(step_stats_.subtract);
        antenna_state.background.subtract_into(
            profile_, magnitude_,
            /*update_history=*/lane_flags_[rx] != kLaneSaturated);
    }

    // The output frame is persistent: reset the fields this frame may not
    // write (clear()/copy-assign reuse capacity, so no allocations).
    out.hw_valid = true;
    out.contour = ContourPoint{};
    out.peaks.clear();
    contour_scratch_.start_frame();  // new profile: drop the noise-floor cache

    if (!magnitude_.empty()) {
        common::ScopedLatency timer(step_stats_.contour);
        if (config_.contour_peaks > 1) {
            contour_.extract_peaks_into(magnitude_, profile_.bin_round_trip_m,
                                        config_.contour_peaks, contour_scratch_,
                                        out.peaks);
            out.contour = out.peaks.empty() ? ContourPoint{} : out.peaks.front();
        } else {
            out.contour = contour_.extract(magnitude_, profile_.bin_round_trip_m,
                                           contour_scratch_);
        }

        // Gated re-detection: if the global contour missed (weak echo)
        // or jumped implausibly (multipath grabbed the contour), look
        // for the person near where continuity says she must be.
        const auto& last = antenna_state.denoiser.last_value();
        if (last && config_.gate_window_m > 0.0) {
            bool need_gate = !out.contour.detected;
            if (!need_gate)
                need_gate = out.contour.round_trip_m >
                            *last + config_.max_contour_jump_m;
            if (!need_gate) {
                antenna_state.gated_streak = 0;
            } else if (antenna_state.gated_streak < config_.gate_max_streak) {
                const auto gated = contour_.extract_near(
                    magnitude_, profile_.bin_round_trip_m, *last,
                    config_.gate_window_m, contour_scratch_, config_.gate_relax);
                if (gated.detected) {
                    out.contour = gated;
                    ++antenna_state.gated_streak;
                }
            }
        }
    }
    {
        common::ScopedLatency timer(step_stats_.denoise);
        out.denoised_m = antenna_state.denoiser.update(out.contour, dt);
    }
    if (config_.record_profiles)
        out.profile = magnitude_;
    else
        out.profile.clear();
}

const TofFrame& TofEstimator::process_frame(const FrameBuffer& frame,
                                            double time_s) {
    if (frame.num_rx() < per_rx_.size())
        throw std::invalid_argument("TofEstimator: missing antenna in sweep data");

    frame_out_.time_s = time_s;
    frame_out_.antennas.resize(per_rx_.size());
    latch_quality(frame);

    const double dt = config_.fmcw.frame_duration_s();

    for (std::size_t rx = 0; rx < per_rx_.size(); ++rx)
        process_rx(rx, frame, dt, frame_out_.antennas[rx]);
    return frame_out_;
}

void TofEstimator::reset() {
    for (auto& antenna : per_rx_) {
        antenna.background.reset();
        antenna.denoiser.reset();
        antenna.gated_streak = 0;
    }
}

void TofEstimator::save_state(common::StateWriter& writer) const {
    writer.u64(per_rx_.size());
    for (const auto& antenna : per_rx_) {
        antenna.background.save_state(writer);
        antenna.denoiser.save_state(writer);
        writer.u64(antenna.gated_streak);
    }
}

void TofEstimator::load_state(common::StateReader& reader) {
    const auto num_rx = static_cast<std::size_t>(reader.u64());
    if (num_rx != per_rx_.size())
        throw std::runtime_error("TofEstimator: snapshot antenna count mismatch");
    for (auto& antenna : per_rx_) {
        antenna.background.load_state(reader);
        antenna.denoiser.load_state(reader);
        antenna.gated_streak = static_cast<std::size_t>(reader.u64());
    }
}

void save_state(common::StateWriter& writer, const ContourPoint& point) {
    writer.boolean(point.detected);
    writer.f64(point.round_trip_m);
    writer.f64(point.power);
    writer.f64(point.noise_floor);
    writer.f64(point.extent_m);
}

void load_state(common::StateReader& reader, ContourPoint& point) {
    point.detected = reader.boolean();
    point.round_trip_m = reader.f64();
    point.power = reader.f64();
    point.noise_floor = reader.f64();
    point.extent_m = reader.f64();
}

void save_state(common::StateWriter& writer, const AntennaFrame& antenna) {
    save_state(writer, antenna.contour);
    writer.boolean(antenna.denoised_m.has_value());
    writer.f64(antenna.denoised_m.value_or(0.0));
    writer.u64(antenna.peaks.size());
    for (const auto& peak : antenna.peaks) save_state(writer, peak);
    writer.f64_vector(antenna.profile);
    writer.boolean(antenna.hw_valid);
}

void load_state(common::StateReader& reader, AntennaFrame& antenna) {
    load_state(reader, antenna.contour);
    const bool have_denoised = reader.boolean();
    const double denoised = reader.f64();
    antenna.denoised_m =
        have_denoised ? std::optional<double>(denoised) : std::nullopt;
    antenna.peaks.resize(reader.count(sizeof(double)));
    for (auto& peak : antenna.peaks) load_state(reader, peak);
    antenna.profile = reader.f64_vector();
    antenna.hw_valid = reader.boolean();
}

void save_state(common::StateWriter& writer, const TofFrame& frame) {
    writer.f64(frame.time_s);
    writer.u64(frame.antennas.size());
    for (const auto& antenna : frame.antennas) save_state(writer, antenna);
}

void load_state(common::StateReader& reader, TofFrame& frame) {
    frame.time_s = reader.f64();
    frame.antennas.resize(reader.count(sizeof(double)));
    for (auto& antenna : frame.antennas) load_state(reader, antenna);
}

}  // namespace witrack::core
