// Deterministic network misbehavior for the loopback rigs: given the exact
// datagram stream a sender would emit, produce the stream a bad link would
// deliver -- dropped, duplicated, corrupted, reordered -- from a seeded RNG,
// so every degradation test and bench run is reproducible bit for bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "net/frame_protocol.hpp"

namespace witrack::net {

struct FaultConfig {
    double drop_rate = 0.0;       ///< P(datagram never arrives)
    double duplicate_rate = 0.0;  ///< P(datagram arrives twice)
    double corrupt_rate = 0.0;    ///< P(one payload byte flipped)
    double reorder_rate = 0.0;    ///< P(datagram swaps with its successor)
    std::uint64_t seed = 1;
    /// Keep the final datagram intact and last. With the sender's
    /// end-of-stream marker last, it pins the stream bound, which makes
    /// gap accounting exact: gaps == frames sent - frames delivered.
    bool protect_last = true;
};

class FaultInjector {
  public:
    /// Datagrams damaged so far, cumulative across apply() calls. Each
    /// counter matches a NetIngestStats consequence exactly (every
    /// corrupted datagram is one crc_errors, etc.).
    struct Counters {
        std::uint64_t dropped = 0;
        std::uint64_t duplicated = 0;
        std::uint64_t corrupted = 0;
        std::uint64_t reordered = 0;
    };

    explicit FaultInjector(FaultConfig config);

    /// Run the stream through the configured faults, in causal order:
    /// drop, duplicate, corrupt, then pairwise reorder.
    std::vector<Datagram> apply(std::vector<Datagram> stream);

    const Counters& counters() const { return counters_; }

  private:
    FaultConfig config_;
    Counters counters_;
    SplitMix64 rng_;
};

}  // namespace witrack::net
