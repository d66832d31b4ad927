#include "core/background.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

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
    // Difference, magnitude and (unless the frame is quarantined) the
    // history update in one pass that replaces the stored frame in place.
    const double* re = profile.re.data();
    const double* im = profile.im.data();
    for (std::size_t i = 0; i < band_; ++i) {
        const double dr = re[i] - prev_re_[i];
        const double di = im[i] - prev_im_[i];
        out[i] = std::sqrt(dr * dr + di * di);
        if (update_history) {
            prev_re_[i] = re[i];
            prev_im_[i] = im[i];
        }
    }
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
