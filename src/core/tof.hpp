// Per-antenna TOF estimation chain (paper Section 4 end to end): sweep
// averaging + range FFT -> background subtraction -> bottom-contour
// extraction -> denoising, for each receive antenna independently. The
// antennas run one after another on one SweepProcessor and one set of
// scratch buffers; only the background model, denoiser and gate streak
// are kept per antenna.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/frame_buffer.hpp"
#include "common/latency.hpp"
#include "core/background.hpp"
#include "core/contour.hpp"
#include "core/denoise.hpp"
#include "core/params.hpp"
#include "core/range_fft.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

/// Per-antenna observations for one frame.
struct AntennaFrame {
    ContourPoint contour;                 ///< raw bottom-contour observation
    std::optional<double> denoised_m;     ///< cleaned round-trip distance
    std::vector<ContourPoint> peaks;      ///< multi-peak output (if enabled)
    std::vector<double> profile;          ///< subtracted magnitudes (if recording)
    /// False when the frame's quality plane declared this RX lane dead
    /// (hardware dropout): the chain was skipped, denoised_m is empty, and
    /// the lane's background/denoiser state was held, not updated.
    bool hw_valid = true;
};

struct TofFrame {
    double time_s = 0.0;
    std::vector<AntennaFrame> antennas;

    bool all_valid() const {
        if (antennas.empty()) return false;
        for (const auto& a : antennas)
            if (!a.denoised_m) return false;
        return true;
    }

    std::vector<double> round_trips() const {
        std::vector<double> d;
        d.reserve(antennas.size());
        for (const auto& a : antennas) d.push_back(a.denoised_m.value_or(0.0));
        return d;
    }

    /// True when at least `quorum` antennas saw motion this frame.
    bool motion_detected(std::size_t quorum = 2) const {
        std::size_t n = 0;
        for (const auto& a : antennas)
            if (a.contour.detected) ++n;
        return n >= quorum;
    }

    /// Mean reflection extent across detecting antennas (arm-vs-body
    /// discriminator, Section 6.1).
    double mean_extent_m() const {
        double acc = 0.0;
        std::size_t n = 0;
        for (const auto& a : antennas)
            if (a.contour.detected) {
                acc += a.contour.extent_m;
                ++n;
            }
        return n > 0 ? acc / static_cast<double>(n) : 0.0;
    }
};

class TofEstimator {
  public:
    TofEstimator(const PipelineConfig& config, std::size_t num_rx);

    /// Process one frame of raw sweeps (contiguous rx-major storage). This
    /// is the realtime hot path: zero heap allocations at steady state.
    /// The returned frame is a persistent member reused every call -- copy
    /// it (capacity-reusing copy-assign) or consume it before the next
    /// frame. FrameBuffer is the only ingestion type.
    const TofFrame& process_frame(const FrameBuffer& frame, double time_s);

    /// Per-step latency of the analysis chain (range FFT, background
    /// subtract, contour+gating, denoise), one sample per antenna per
    /// frame. take_step_stats() returns and resets the window.
    struct StepStats {
        common::LatencyHistogram fft, subtract, contour, denoise;
    };
    StepStats take_step_stats() { return std::exchange(step_stats_, StepStats{}); }

    const PipelineConfig& config() const { return config_; }
    std::size_t num_rx() const { return per_rx_.size(); }

    void reset();

    /// Serialize per-antenna history/streak state (background band,
    /// denoiser, gate streak). Scratch buffers and the FFT processor are
    /// rebuilt per frame and are not part of the state.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    struct PerAntenna {
        BackgroundSubtractor background;
        TofDenoiser denoiser;
        std::size_t gated_streak = 0;  ///< consecutive gate-rescued frames
        PerAntenna(const PipelineConfig& config, std::size_t band)
            : background(band), denoiser(config) {}
    };

    /// One antenna's full chain: range FFT -> background subtraction ->
    /// contour -> gating -> denoise.
    void process_rx(std::size_t rx, const FrameBuffer& frame, double dt,
                    AntennaFrame& out);

    /// Latch the frame's quality plane into lane_flags_ (once per frame,
    /// before any per-RX work).
    void latch_quality(const FrameBuffer& frame);

    /// Emit the dead-lane observation: empty, hw_valid=false, per-antenna
    /// state untouched (background and denoiser hold across the dropout).
    static void mark_dead(AntennaFrame& out);

    PipelineConfig config_;
    SweepProcessor processor_;
    ContourTracker contour_;
    std::vector<PerAntenna> per_rx_;
    RangeProfile profile_;            ///< reused across antennas and frames
    std::vector<double> magnitude_;   ///< subtracted profile, reused
    ContourScratch contour_scratch_;  ///< contour workspace, reused
    StepStats step_stats_;
    TofFrame frame_out_;              ///< persistent result frame

    /// Per-lane quality latched from the current frame: kLaneOk runs the
    /// unchanged chain, kLaneSaturated excludes the frame from background
    /// history, kLaneDead skips the chain entirely.
    enum : std::uint8_t { kLaneOk = 0, kLaneSaturated = 1, kLaneDead = 2 };
    std::vector<std::uint8_t> lane_flags_;
};

/// Value-type serialization for recorded TOF observations (used by stages
/// that keep TofFrame history, e.g. the pointing window). The loaders read
/// into a local and assign only once the whole value has read back, so a
/// rejected stream leaves the target untouched.
///
/// Smallest encodings, which bound element counts on load: a ContourPoint
/// is a flag and four doubles; an AntennaFrame is its contour, the
/// denoised flag and value, the peak and profile counts and the hw_valid
/// flag; a TofFrame is its time and antenna count.
inline constexpr std::size_t kContourPointStateBytes = 1 + 4 * sizeof(double);
inline constexpr std::size_t kAntennaFrameMinStateBytes =
    kContourPointStateBytes + 1 + sizeof(double) + 2 * sizeof(std::uint64_t) + 1;
inline constexpr std::size_t kTofFrameMinStateBytes =
    sizeof(double) + sizeof(std::uint64_t);
void save_state(common::StateWriter& writer, const ContourPoint& point);
void load_state(common::StateReader& reader, ContourPoint& point);
void save_state(common::StateWriter& writer, const AntennaFrame& antenna);
void load_state(common::StateReader& reader, AntennaFrame& antenna);
void save_state(common::StateWriter& writer, const TofFrame& frame);
void load_state(common::StateReader& reader, TofFrame& frame);

}  // namespace witrack::core
