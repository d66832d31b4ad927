#include "net/fault_injector.hpp"

#include <utility>

namespace witrack::net {

// Seeded exactly like hw::FaultInjector: the same seed gives the same
// splitmix64 stream (common/random.hpp).
FaultInjector::FaultInjector(FaultConfig config)
    : config_(config), rng_(config.seed + SplitMix64::kGamma) {}

std::vector<Datagram> FaultInjector::apply(std::vector<Datagram> stream) {
    if (stream.empty()) return stream;
    const std::size_t last = stream.size() - 1;

    std::vector<Datagram> out;
    out.reserve(stream.size());
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const bool protect = config_.protect_last && i == last;
        // At most one fault per datagram (drop beats duplicate beats
        // corrupt), so each counter maps to exactly one observable
        // consequence -- a corrupted datagram is one CRC error, never a
        // corrupted duplicate that shows up as two.
        if (!protect && rng_.roll(config_.drop_rate)) {
            ++counters_.dropped;
            continue;
        }
        if (!protect && rng_.roll(config_.duplicate_rate)) {
            ++counters_.duplicated;
            out.push_back(stream[i]);
        } else if (!protect && rng_.roll(config_.corrupt_rate) &&
                   stream[i].size() >= kHeaderBytes + kTrailerBytes) {
            // Flip one byte past the header (payload when there is one, the
            // CRC trailer otherwise): the magic/version/length fields stay
            // intact, so the damage always surfaces as exactly one CRC
            // error -- never reclassified as bad magic or a truncation.
            Datagram& d = stream[i];
            const std::size_t region = d.size() - kHeaderBytes;
            d[kHeaderBytes + rng_.next() % region] ^= 0x5A;
            ++counters_.corrupted;
        }
        out.push_back(std::move(stream[i]));
    }

    // Pairwise adjacent swaps; the (protected) final datagram never moves.
    if (out.size() >= 2) {
        const std::size_t stop = out.size() - (config_.protect_last ? 2 : 1);
        for (std::size_t i = 0; i < stop; ++i) {
            if (rng_.roll(config_.reorder_rate)) {
                std::swap(out[i], out[i + 1]);
                ++counters_.reordered;
                ++i;  // the swapped pair is settled
            }
        }
    }
    return out;
}

}  // namespace witrack::net
