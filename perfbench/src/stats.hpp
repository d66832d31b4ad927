// Statistics helpers of the whole-frame fleet benchmark: the percentile
// estimator every reported timing and error goes through, the tail-support
// rule, bounded per-window quantiles, ratios that always carry their base,
// and the digest that proves two replays of the same bytes produced the
// same track.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Samples of an n-sample set that rank strictly above the q-th percentile
/// (nearest-rank definition: the percentile is order statistic ceil(q n)).
/// A tail percentile resting on fewer than ten samples is one or two
/// outliers, not a distribution.
constexpr std::size_t samples_beyond(std::size_t n, double percentile) {
    // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
    const double rank = percentile / 100.0 * static_cast<double>(n) - 1e-9;
    auto whole = static_cast<std::size_t>(rank);
    if (static_cast<double>(whole) < rank) ++whole;  // ceil, for rank >= 0
    return n > whole ? n - whole : 0;
}

/// Quantile q in (0, 1) of an ascending-sorted sample, Harrell-Davis
/// style: a weighted mean of the order statistics near rank q n, the
/// weights a normal approximation of the Beta((n+1) q, (n+1)(1-q))
/// distribution of that rank. A single order statistic jumps between modes
/// when q lands on the boundary of a clustered sample -- a fleet round's
/// latencies cluster by the session's position in the round, and with 8
/// equal sessions the median sits exactly between two clusters -- while
/// this estimate moves smoothly. NaN for an empty sample.
inline double quantile(const std::vector<double>& sorted, double q) {
    const std::size_t n = sorted.size();
    if (n == 0) return std::numeric_limits<double>::quiet_NaN();
    if (n == 1) return sorted[0];
    const double nd = static_cast<double>(n);
    const double sd = std::sqrt(q * (1.0 - q) / (nd + 2.0));
    const auto cdf = [&](double x) {
        return 0.5 * std::erfc(-(x - q) / (sd * std::sqrt(2.0)));
    };
    // Weights beyond 8 sd are below 1e-15: sum only the window.
    const double lo = std::max(0.0, std::floor((q - 8.0 * sd) * nd));
    const double hi = std::min(nd, std::ceil((q + 8.0 * sd) * nd) + 1.0);
    double weighted = 0.0;
    double total = 0.0;
    for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i) {
        const double w = cdf(static_cast<double>(i + 1) / nd) -
                         cdf(static_cast<double>(i) / nd);
        weighted += w * sorted[i];
        total += w;
    }
    return total > 0.0 ? weighted / total : sorted[static_cast<std::size_t>(q * (nd - 1.0))];
}

/// Quantiles of consecutive windows of `window` samples. A window is
/// reduced to its quantiles as soon as it is full and its samples are
/// dropped, so memory stays bounded however long the run or fast the
/// frames; a final partial window is never reported.
class WindowQuantiles {
  public:
    WindowQuantiles(std::size_t window, std::vector<double> qs)
        : window_(window), qs_(std::move(qs)), per_window_(qs_.size()) {
        current_.reserve(window_);
    }

    void add(double value) {
        current_.push_back(value);
        if (current_.size() < window_) return;
        std::sort(current_.begin(), current_.end());
        for (std::size_t i = 0; i < qs_.size(); ++i)
            per_window_[i].push_back(quantile(current_, qs_[i]));
        current_.clear();
    }

    std::size_t windows() const { return per_window_.empty() ? 0 : per_window_[0].size(); }
    /// Quantile qs[i] of every complete window, in order.
    const std::vector<double>& per_window(std::size_t i) const { return per_window_[i]; }

  private:
    std::size_t window_;
    std::vector<double> qs_;
    std::vector<std::vector<double>> per_window_;
    std::vector<double> current_;
};

/// A share of some base count, never reported without that base.
struct Ratio {
    std::uint64_t part = 0;
    std::uint64_t base = 0;
    double value() const {
        return base > 0 ? static_cast<double>(part) / static_cast<double>(base) : 0.0;
    }
};

/// "0.6412 (6412 of 10000 frames generated)": the one rendering of a ratio.
inline std::string describe(const Ratio& ratio, const char* base_name) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.4f (%llu of %llu %s)", ratio.value(),
                  static_cast<unsigned long long>(ratio.part),
                  static_cast<unsigned long long>(ratio.base), base_name);
    return buf;
}

/// FNV-1a over the exact bits of a track: per update its time, whether a
/// smoothed fix exists, and the fix. Two sessions fed the same bytes must
/// agree bit for bit.
class TrackDigest {
  public:
    void add(double time_s, bool has_fix, double x, double y, double z) {
        mix(time_s);
        const std::uint8_t flag = has_fix ? 1 : 0;
        mix_bytes(&flag, 1);
        if (!has_fix) return;
        mix(x);
        mix(y);
        mix(z);
    }
    std::uint64_t value() const { return hash_; }

  private:
    void mix(double value) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        mix_bytes(&bits, sizeof bits);
    }
    void mix_bytes(const void* data, std::size_t size) {
        const auto* bytes = static_cast<const std::uint8_t*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            hash_ ^= bytes[i];
            hash_ *= 0x100000001b3ULL;
        }
    }

    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// splitmix64 finalizer: every per-session seed the benchmark uses derives
/// from the workload seed through this, tagged by purpose.
inline std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t purpose,
                                 std::uint64_t slot, std::uint64_t episode) {
    return mix64(mix64(mix64(seed ^ mix64(purpose)) ^ slot) ^ episode);
}

}  // namespace perfbench
