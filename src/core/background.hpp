// Background subtraction (paper Section 4.2). Static reflectors -- walls,
// furniture, the "flash effect" -- keep constant TOF, so subtracting the
// previous frame's complex spectrum from the current one (X_t - X_{t-1})
// cancels them while preserving anything that moved. A person who stands
// perfectly still cancels too.
//
// The differencer covers only the tracked band: bins [0, band), where the
// band is tracked_band() of the pipeline config (core/contour.hpp), the
// bins contour detection and gated re-detection read. Bins above it are
// never differenced, stored or snapshotted.
#pragma once

#include <cstddef>
#include <vector>

#include "core/range_fft.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::core {

class BackgroundSubtractor {
  public:
    /// `band`: bins [0, band) of every profile are differenced. Profiles
    /// must carry at least `band` usable bins.
    explicit BackgroundSubtractor(std::size_t band) : band_(band) {}

    /// Subtract the previous frame and return the magnitude profile over
    /// the band. Returns an empty vector for the first frame (no previous
    /// frame yet). The magnitude contract is sqrt(re^2 + im^2) (see
    /// dsp/tail_kernels.hpp) -- within ~2.5 ulp of the exact magnitude,
    /// identical across SIMD dispatch levels.
    std::vector<double> subtract(const RangeProfile& profile);

    /// In-place variant: writes the magnitude profile into `out`, reusing
    /// its storage (empty when there is nothing to difference yet). The
    /// difference, the magnitude and the history update are fused into one
    /// SIMD pass over the band -- no per-frame copy -- and the whole path
    /// is allocation-free at steady state.
    ///
    /// `update_history=false` computes the same magnitudes bit for bit but
    /// leaves the stored history untouched -- how a saturated frame is
    /// subtracted without its clipped spectrum becoming the next frame's
    /// background. An unprimed subtractor then stays unprimed (the damaged
    /// frame never becomes frame one of the differencer).
    void subtract_into(const RangeProfile& profile, std::vector<double>& out,
                       bool update_history = true);

    void reset();

    /// Serialize the previous frame's band (two empty planes when
    /// unprimed). load_state accepts only planes of equal length that are
    /// empty or exactly the band, and leaves the subtractor untouched when
    /// it rejects a stream.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    // History mirrors RangeProfile's SoA layout (separate re/im planes,
    // always equal length) so the subtract kernels stream every operand
    // with unit stride. Empty until the first frame primes it.
    std::size_t band_;
    std::vector<double> prev_re_, prev_im_;
};

}  // namespace witrack::core
