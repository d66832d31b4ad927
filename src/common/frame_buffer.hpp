// Contiguous storage for one frame of baseband sweeps.
//
// The realtime path used to move every frame through
// std::vector<std::vector<std::vector<double>>> (sweep x rx x sample): tens
// of small heap blocks per frame, gathered into yet more copies before the
// range FFT. FrameBuffer replaces that with a single rx-major allocation --
// all sweeps of one antenna are contiguous, so the sweep averager consumes
// an antenna's data in one linear pass -- and std::span row views, so no
// stage needs to copy.
//
// Layout: data[rx * num_sweeps * samples + sweep * samples + i].
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

#include "common/frame_quality.hpp"

namespace witrack {

class FrameBuffer {
  public:
    FrameBuffer() = default;

    FrameBuffer(std::size_t num_rx, std::size_t num_sweeps,
                std::size_t samples_per_sweep) {
        resize(num_rx, num_sweeps, samples_per_sweep);
    }

    /// Reshape and zero all samples; storage is reused when capacity
    /// suffices, so calling this once per frame on a long-lived buffer does
    /// not allocate at steady state. Producers that overwrite every sample
    /// anyway (e.g. the sweep capture loop) can skip the call when the
    /// shape is unchanged and save the fill.
    void resize(std::size_t num_rx, std::size_t num_sweeps,
                std::size_t samples_per_sweep) {
        num_rx_ = num_rx;
        num_sweeps_ = num_sweeps;
        samples_ = samples_per_sweep;
        data_.assign(num_rx * num_sweeps * samples_per_sweep, 0.0);
    }

    std::size_t num_rx() const { return num_rx_; }
    std::size_t num_sweeps() const { return num_sweeps_; }
    std::size_t samples_per_sweep() const { return samples_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double* data() { return data_.data(); }
    const double* data() const { return data_.data(); }

    /// The frame's hardware-health side channel. Default-constructed
    /// (pristine) unless a fault source marked the frame; producers that
    /// reuse a buffer across frames are responsible for re-arming it
    /// (hw::FaultInjector::apply resets it every call).
    FrameQuality& quality() { return quality_; }
    const FrameQuality& quality() const { return quality_; }

    /// One baseband sweep of one antenna (samples_per_sweep doubles).
    std::span<double> sweep(std::size_t rx, std::size_t s) {
        check_rx(rx);
        check_sweep(s);
        return {data_.data() + offset(rx, s), samples_};
    }
    std::span<const double> sweep(std::size_t rx, std::size_t s) const {
        check_rx(rx);
        check_sweep(s);
        return {data_.data() + offset(rx, s), samples_};
    }

    /// All sweeps of one antenna, contiguous (num_sweeps * samples doubles).
    std::span<double> antenna(std::size_t rx) {
        check_rx(rx);
        return {data_.data() + offset(rx, 0), num_sweeps_ * samples_};
    }
    std::span<const double> antenna(std::size_t rx) const {
        check_rx(rx);
        return {data_.data() + offset(rx, 0), num_sweeps_ * samples_};
    }

    double& at(std::size_t rx, std::size_t s, std::size_t i) {
        check_rx(rx);
        check_sweep(s);
        if (i >= samples_) throw std::out_of_range("FrameBuffer: sample index");
        return data_[offset(rx, s) + i];
    }
    double at(std::size_t rx, std::size_t s, std::size_t i) const {
        return const_cast<FrameBuffer*>(this)->at(rx, s, i);
    }

  private:
    std::size_t offset(std::size_t rx, std::size_t s) const {
        return (rx * num_sweeps_ + s) * samples_;
    }
    void check_rx(std::size_t rx) const {
        if (rx >= num_rx_) throw std::out_of_range("FrameBuffer: rx index");
    }
    void check_sweep(std::size_t s) const {
        if (s >= num_sweeps_) throw std::out_of_range("FrameBuffer: sweep index");
    }

    std::size_t num_rx_ = 0;
    std::size_t num_sweeps_ = 0;
    std::size_t samples_ = 0;
    std::vector<double> data_;
    FrameQuality quality_;
};

}  // namespace witrack
