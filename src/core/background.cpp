#include "core/background.hpp"

#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"
#include "dsp/tail_kernels.hpp"

namespace witrack::core {

std::vector<double> BackgroundSubtractor::subtract(const RangeProfile& profile) {
    std::vector<double> magnitude;
    subtract_into(profile, magnitude);
    return magnitude;
}

void BackgroundSubtractor::subtract_into(const RangeProfile& profile,
                                         std::vector<double>& out,
                                         bool update_history) {
    if (profile.usable_bins < band_)
        throw std::invalid_argument("BackgroundSubtractor: profile narrower than the band");

    if (prev_re_.empty()) {
        out.clear();  // nothing to difference yet
        // A quarantined (saturated) frame must not become the differencer's
        // first stored frame either.
        if (!update_history) return;
        // First frame. assign() reuses capacity once warm.
        prev_re_.assign(profile.re.data(), profile.re.data() + band_);
        prev_im_.assign(profile.im.data(), profile.im.data() + band_);
        return;
    }
    out.resize(band_);
    if (!update_history) {
        // Read-only difference against the held history: with scale 1.0
        // the scaled kernel's magnitudes are bit-identical to
        // diff_magnitude's (the *1.0 products are IEEE-exact), and the
        // stored planes stay as they were.
        dsp::tail::scaled_diff_magnitude(profile.re.data(), profile.im.data(),
                                         prev_re_.data(), prev_im_.data(), 1.0,
                                         out.data(), band_);
        return;
    }
    // Fused difference + magnitude + history update: one SIMD pass reads
    // the stored frame and replaces it in place.
    dsp::tail::diff_magnitude(profile.re.data(), profile.im.data(),
                              prev_re_.data(), prev_im_.data(), out.data(), band_);
}

void BackgroundSubtractor::reset() {
    prev_re_.clear();
    prev_im_.clear();
}

void BackgroundSubtractor::save_state(common::StateWriter& writer) const {
    writer.f64_vector(prev_re_);
    writer.f64_vector(prev_im_);
}

void BackgroundSubtractor::load_state(common::StateReader& reader) {
    std::vector<double> re = reader.f64_vector();
    std::vector<double> im = reader.f64_vector();
    if (re.size() != im.size() || (!re.empty() && re.size() != band_))
        throw std::runtime_error("BackgroundSubtractor: plane size mismatch");
    prev_re_ = std::move(re);
    prev_im_ = std::move(im);
}

}  // namespace witrack::core
