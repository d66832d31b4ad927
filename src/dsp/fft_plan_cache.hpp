// Shared FFT plan cache: one immutable plan per transform *shape* -- size
// plus input pruning -- handed out as shared_ptr so any number of
// SweepProcessor lanes, across any number of tracking sessions in one
// process, reuse the same twiddle tables and Bluestein chirp spectra
// instead of each recomputing them. Plans are immutable after construction
// (Fft/RealFft expose only const entry points; all per-call storage lives
// in the caller's FftScratch), so sharing one plan between threads is safe.
//
// Pruned and unpruned plans of one size are distinct cache entries: a
// Fft(4096) and a Fft(4096, n_nonzero=2500) run different butterfly
// schedules, so they are keyed by (size, effective n_nonzero). Keys are
// normalized through Fft::effective_nonzero, so requests that degrade to
// dense (non-power-of-two sizes, n_nonzero of 0 or >= n) share the dense
// entry instead of duplicating it.
//
// The process-global instance (FftPlanCache::global()) is the default for
// every pipeline component; an EngineHost may carry its own cache when a
// deployment wants per-tenant isolation of the (tiny) table memory.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "dsp/fft.hpp"

namespace witrack::dsp {

class FftPlanCache {
  public:
    FftPlanCache() = default;
    FftPlanCache(const FftPlanCache&) = delete;
    FftPlanCache& operator=(const FftPlanCache&) = delete;

    /// Shared complex plan for size n (built on first request), optionally
    /// pruned to a nonzero input prefix of n_nonzero samples. Thread-safe;
    /// concurrent first requests for the same shape converge on one plan.
    std::shared_ptr<const Fft> complex_plan(std::size_t n,
                                            std::size_t n_nonzero = 0);

    /// Shared real-input plan for shape (n, n_nonzero). Its internal
    /// half-length (or odd-N fallback) complex plan comes from this cache
    /// too, so a RealFft(4096, nz=2500) and any other consumer of the
    /// pruned Fft(2048, nz=1250) share tables.
    std::shared_ptr<const RealFft> real_plan(std::size_t n,
                                             std::size_t n_nonzero = 0);

    /// Distinct plans currently cached (complex + real), for telemetry.
    std::size_t cached_plans() const;

    /// The process-wide cache every component defaults to.
    static FftPlanCache& global();

  private:
    using Key = std::pair<std::size_t, std::size_t>;  // (size, n_nonzero)

    mutable std::mutex mutex_;
    std::map<Key, std::shared_ptr<const Fft>> complex_;
    std::map<Key, std::shared_ptr<const RealFft>> real_;
};

}  // namespace witrack::dsp
