#include "hw/frontend.hpp"

#include <stdexcept>

#include "common/serialize.hpp"

namespace witrack::hw {

using witrack::rf::BodyScatterer;

FmcwFrontend::FmcwFrontend(FrontendConfig config, witrack::rf::Channel channel, Rng rng)
    : config_(std::move(config)),
      channel_(std::move(channel)),
      rng_(rng),
      mixer_(config_.fmcw, config_.nonlinearity) {
    config_.fmcw.validate();
    noise_stddev_ = config_.noise.sample_stddev(config_.fmcw.sample_rate_hz);
    for (std::size_t i = 0; i < channel_.num_rx(); ++i) {
        highpass_.emplace_back(config_.highpass_cutoff_hz, config_.fmcw.sample_rate_hz);
        adc_.emplace_back(config_.adc_bits);
    }
    rebuild_static_cache();
}

void FmcwFrontend::rebuild_static_cache() {
    static_cache_.clear();
    static_cache_.reserve(channel_.num_rx());
    for (std::size_t i = 0; i < channel_.num_rx(); ++i) {
        const auto paths = channel_.static_paths(i);
        static_cache_.push_back(mixer_.synthesize(paths));
    }
}

void FmcwFrontend::capture_sweep_into(witrack::FrameBuffer& frame,
                                      std::size_t sweep_index,
                                      std::span<const BodyScatterer> body) {
    const std::size_t n = config_.fmcw.samples_per_sweep();
    if (frame.num_rx() != channel_.num_rx() || frame.samples_per_sweep() != n)
        throw std::invalid_argument("FmcwFrontend: frame shape mismatch");

    // Sweep-to-sweep repeatability jitter is common to all receivers (it
    // originates in the shared transmit chain).
    const double jitter = rng_.gaussian(config_.static_gain_jitter);

    for (std::size_t rx = 0; rx < channel_.num_rx(); ++rx) {
        auto sweep = frame.sweep(rx, sweep_index);
        const auto& cached = static_cache_[rx];
        const double gain = 1.0 + jitter;
        for (std::size_t i = 0; i < n; ++i) sweep[i] = cached[i] * gain;

        if (!body.empty()) {
            const auto paths = channel_.body_paths(rx, body);
            mixer_.synthesize(paths, sweep);
        }

        if (noise_stddev_ > 0.0) rng_.add_gaussian(sweep, noise_stddev_);

        highpass_[rx].process_in_place(sweep);

        if (!adc_[rx].calibrated()) adc_[rx].calibrate(sweep);
        adc_[rx].process(sweep);
    }
}

void FmcwFrontend::save_state(common::StateWriter& writer) const {
    common::save_state(writer, rng_);
    writer.u64(highpass_.size());
    for (const auto& highpass : highpass_) highpass.save_state(writer);
    for (const auto& adc : adc_) adc.save_state(writer);
}

void FmcwFrontend::load_state(common::StateReader& reader) {
    common::load_state(reader, rng_);
    const auto num_rx = static_cast<std::size_t>(reader.u64());
    if (num_rx != highpass_.size() || adc_.size() != highpass_.size())
        throw std::runtime_error("FmcwFrontend: snapshot antenna count mismatch");
    for (auto& highpass : highpass_) highpass.load_state(reader);
    for (auto& adc : adc_) adc.load_state(reader);
}

}  // namespace witrack::hw
