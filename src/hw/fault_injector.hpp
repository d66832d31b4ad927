// Deterministic hardware misbehavior for the front-end rigs: given the
// exact baseband frame a healthy FMCW front end would capture, produce the
// frame a degrading one would deliver -- dead antennas, clipped ADCs,
// dropped sweeps, drifting clocks, noise bursts -- from a seeded RNG, so
// every degradation test and bench campaign reproduces bit for bit.
//
// Same discipline as net::FaultInjector (PR 7): splitmix64 randomness
// pinned by standard arithmetic, at most one *disabling* fault per lane
// (a dropout beats everything else on that lane), and every injected
// fault increments exactly one counter that maps 1:1 to a FrameQuality
// flag the pipeline observes -- which is what makes exact
// injector <-> pipeline accounting testable.
//
// Faults fire two ways, composable in one run:
//  - rates: per-frame / per-lane / per-sweep Bernoulli rolls, seeded;
//  - schedule: FaultWindow timeline entries that force a fault over
//    [start_s, end_s) deterministically (no roll) -- the building block
//    of scripted campaigns ("drop RX 2 from t=5s to t=9s").
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/frame_buffer.hpp"
#include "common/random.hpp"

namespace witrack::common {
class StateWriter;
class StateReader;
}  // namespace witrack::common

namespace witrack::hw {

/// One scheduled fault: `kind` is forced on over [start_s, end_s) for
/// lane `rx` (-1 = every lane). `magnitude` refines the fault by kind:
/// saturation clip level, drift ppm, or burst gain; ignored otherwise.
struct FaultWindow {
    enum class Kind : std::uint8_t {
        kDropout,     ///< lane dead: sweeps zeroed
        kSaturation,  ///< lane clipped at magnitude * lane peak
        kDrift,       ///< timebase off by magnitude ppm (whole frame)
        kBurst,       ///< impulsive noise burst, magnitude x lane RMS
        kSweepDrop,   ///< per-sweep zeroing at rate `magnitude`
        kSweepShort,  ///< per-sweep truncation at rate `magnitude`
    };
    Kind kind = Kind::kDropout;
    double start_s = 0.0;
    double end_s = std::numeric_limits<double>::infinity();
    int rx = -1;             ///< target lane; -1 = all lanes
    double magnitude = 1.0;  ///< kind-specific (level / ppm / gain / rate)
};

struct FaultConfig {
    double sweep_drop_rate = 0.0;    ///< P(sweep zeroed) per (rx, sweep)
    double sweep_short_rate = 0.0;   ///< P(sweep tail lost) per (rx, sweep)
    double saturation_rate = 0.0;    ///< P(lane clips) per (rx, frame)
    double saturation_level = 0.25;  ///< clip at level * lane peak
    double dropout_rate = 0.0;       ///< P(lane dead) per (rx, frame)
    double drift_rate = 0.0;         ///< P(clock drift) per frame
    double drift_ppm = 200.0;        ///< resample factor 1 + ppm * 1e-6
    double burst_rate = 0.0;         ///< P(noise burst) per (rx, frame)
    double burst_gain = 8.0;         ///< burst amplitude vs lane RMS
    std::uint64_t seed = 1;
    std::vector<FaultWindow> schedule;  ///< scripted timeline, on top of rates
};

class FaultInjector {
  public:
    /// Faults injected so far, cumulative across apply() calls. Field for
    /// field this mirrors the fault counters of QualityStats: every
    /// increment here is one FrameQuality flag the pipeline aggregates, so
    /// injector counters and pipeline counters must agree exactly.
    struct Counters {
        std::uint64_t rx_dropouts = 0;     ///< lane-frames killed
        std::uint64_t saturated_rx = 0;    ///< lane-frames clipped
        std::uint64_t dropped_sweeps = 0;  ///< sweeps zeroed
        std::uint64_t short_sweeps = 0;    ///< sweeps truncated
        std::uint64_t noise_bursts = 0;    ///< lane-frames hit by a burst
        std::uint64_t drift_frames = 0;    ///< frames resampled for drift
    };

    explicit FaultInjector(FaultConfig config);

    /// Damage one captured frame in place and mark frame.quality()
    /// accordingly (the plane is reset first, so reused buffers never
    /// carry stale flags). Deterministic order -- frame-level drift
    /// decision, then per lane: dropout (beats everything), saturation,
    /// burst, then the per-sweep drop/short rolls.
    void apply(FrameBuffer& frame, double time_s);

    const Counters& counters() const { return counters_; }
    const FaultConfig& config() const { return config_; }

    /// RNG cursor + counters, so a restored session replays the exact
    /// fault tail it would have seen uninterrupted. The config/schedule
    /// are not serialized: like the simulator's frontend config, they are
    /// reconstructed by whoever rebuilds the source.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    /// Most recent schedule entry active for (kind, time, rx), or nullptr.
    const FaultWindow* active_window(FaultWindow::Kind kind, double time_s,
                                     int rx) const;

    void kill_lane(FrameBuffer& frame, std::size_t rx);
    void saturate_lane(FrameBuffer& frame, std::size_t rx, double level);
    void burst_lane(FrameBuffer& frame, std::size_t rx, double gain);
    void drift_frame(FrameBuffer& frame, double ppm);

    FaultConfig config_;
    Counters counters_;
    SplitMix64 rng_;
    std::vector<double> scratch_;  ///< drift resample staging (one sweep)
};

/// Parse a "key=value,key=value" fault spec -- the WITRACK_HW_FAULTS
/// environment format, also accepted by scenario files and witrackd's
/// ADMIT sim.
/// Keys: dropout, saturation, sat_level, sweep_drop, sweep_short, drift,
/// drift_ppm, burst, burst_gain, seed. Rates must be in [0, 1]. Throws
/// std::invalid_argument naming the offending key on anything malformed.
FaultConfig parse_fault_spec(const std::string& spec);

}  // namespace witrack::hw
