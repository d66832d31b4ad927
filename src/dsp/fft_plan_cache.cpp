#include "dsp/fft_plan_cache.hpp"

namespace witrack::dsp {

std::shared_ptr<const Fft> FftPlanCache::complex_plan(std::size_t n,
                                                      std::size_t n_nonzero) {
    const Key key{n, Fft::effective_nonzero(n, n_nonzero)};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = complex_.find(key);
        if (it != complex_.end()) return it->second;
    }
    // Build outside the lock: table construction is the expensive part, and
    // a RealFft built below re-enters this method for its half plan.
    auto plan = std::make_shared<const Fft>(n, key.second);
    std::lock_guard<std::mutex> lock(mutex_);
    // First insert wins, so every caller observes one pointer per shape
    // even when two threads raced on the build.
    auto [it, inserted] = complex_.emplace(key, std::move(plan));
    (void)inserted;
    return it->second;
}

std::shared_ptr<const RealFft> FftPlanCache::real_plan(std::size_t n,
                                                       std::size_t n_nonzero) {
    // RealFft's own normalization: 0 (or past the end) means dense.
    const Key key{n, (n_nonzero == 0 || n_nonzero > n) ? n : n_nonzero};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = real_.find(key);
        if (it != real_.end()) return it->second;
    }
    auto plan = std::make_shared<const RealFft>(n, *this, key.second);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = real_.emplace(key, std::move(plan));
    (void)inserted;
    return it->second;
}

std::size_t FftPlanCache::cached_plans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return complex_.size() + real_.size();
}

FftPlanCache& FftPlanCache::global() {
    static FftPlanCache cache;
    return cache;
}

}  // namespace witrack::dsp
