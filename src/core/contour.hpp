// Bottom-contour tracking (paper Section 4.3). Among all strong reflectors
// that survive background subtraction, the direct body reflection has
// travelled the shortest path, so WiTrack tracks the *closest* local
// maximum that is substantially above the noise floor -- not the strongest
// peak, which may be dynamic multipath.
#pragma once

#include <cstddef>
#include <vector>

#include "core/params.hpp"
#include "core/range_fft.hpp"
#include "dsp/peaks.hpp"

namespace witrack::core {

struct ContourPoint {
    bool detected = false;
    double round_trip_m = 0.0;  ///< sub-bin interpolated round-trip distance
    double power = 0.0;         ///< magnitude at the contour peak
    double noise_floor = 0.0;   ///< estimated per-frame noise floor
    /// Power-weighted spread (std dev, meters) of the above-threshold
    /// energy: small for an arm, large for a whole moving body (Section 6.1).
    double extent_m = 0.0;
};

/// Preallocated workspace for contour extraction (one antenna's contour
/// calls within one frame; reused across antennas). Owns every buffer the extraction entry points
/// need -- there are no band copies and no per-call allocations once the
/// buffers are warm -- plus the per-frame noise-floor cache: the first
/// extraction of a frame computes the usable-band floor, and every later
/// call against the same band (the gated re-detection pass in particular)
/// reuses it, so one antenna estimates its floor exactly once per frame.
/// Call start_frame() when a new magnitude profile arrives.
struct ContourScratch {
    std::vector<double> floor_samples;  ///< nth_element workspace
    std::vector<double> candidates;     ///< peak-candidate mask plane
    std::vector<dsp::Peak> peaks;       ///< windowed find_peaks output
    std::vector<ContourPoint> points;   ///< single-point extraction staging

    bool floor_valid = false;
    std::size_t floor_lo = 0, floor_hi = 0;  ///< band the cache covers
    double floor_value = 0.0;

    /// Invalidate the noise-floor cache (new frame / new profile).
    void start_frame() { floor_valid = false; }
};

/// End (exclusive) of the band contour detection reads: bins [0, band)
/// cover round trips up to config.max_round_trip_m, capped at `bins`. The
/// usable window's upper edge and the background subtractor's width both
/// come from here, so the two cannot drift apart.
std::size_t tracked_band(const PipelineConfig& config, std::size_t bins,
                         double bin_round_trip_m);

class ContourTracker {
  public:
    explicit ContourTracker(const PipelineConfig& config) : config_(config) {}

    /// Extract the bottom contour from one subtracted magnitude profile.
    ContourPoint extract(const std::vector<double>& magnitude,
                        double bin_round_trip_m, ContourScratch& scratch) const;

    /// Multi-person extension: the `max_peaks` closest qualifying local
    /// maxima, nearest first, written into `out` (cleared; storage reused).
    void extract_peaks_into(const std::vector<double>& magnitude,
                            double bin_round_trip_m, std::size_t max_peaks,
                            ContourScratch& scratch,
                            std::vector<ContourPoint>& out) const;

    /// The strongest (not closest) peak -- the alternative the paper rejects;
    /// kept for the ablation bench.
    ContourPoint extract_strongest(const std::vector<double>& magnitude,
                                   double bin_round_trip_m,
                                   ContourScratch& scratch) const;

    /// Gated re-detection around a predicted round trip: once a track is
    /// established, a weaker echo near the prediction is still the person
    /// (human motion is continuous, Section 4.4), so the detection
    /// threshold relaxes by `relax` inside +/- window_m of `center_m`.
    /// Reuses the frame's cached noise floor when the scratch already
    /// carries it (the floor always comes from the full usable band).
    ContourPoint extract_near(const std::vector<double>& magnitude,
                              double bin_round_trip_m, double center_m,
                              double window_m, ContourScratch& scratch,
                              double relax = 0.5) const;

    /// Convenience overloads with a private throwaway scratch: identical
    /// results, but each call allocates. Tests and ablation benches only;
    /// the pipeline threads a persistent ContourScratch.
    ContourPoint extract(const std::vector<double>& magnitude,
                         double bin_round_trip_m) const;
    std::vector<ContourPoint> extract_peaks(const std::vector<double>& magnitude,
                                            double bin_round_trip_m,
                                            std::size_t max_peaks) const;
    ContourPoint extract_strongest(const std::vector<double>& magnitude,
                                   double bin_round_trip_m) const;
    ContourPoint extract_near(const std::vector<double>& magnitude,
                              double bin_round_trip_m, double center_m,
                              double window_m, double relax = 0.5) const;

  private:
    double measure_extent(const std::vector<double>& magnitude, double threshold,
                          std::size_t lo, std::size_t hi,
                          double bin_round_trip_m) const;

    PipelineConfig config_;
};

}  // namespace witrack::core
