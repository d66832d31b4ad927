// Pipeline configuration for the WiTrack processing chain (paper Sections
// 4, 5, 7). Defaults follow the paper where it is explicit (sweep geometry,
// 5-sweep averaging) and use calibrated values elsewhere. The range FFT is
// not configured here: SweepProcessor always Hann-windows the averaged
// sweep and zero-pads it to the next power of two. Calibrated values that
// no deployment varies are named constants next to the code that reads
// them: the contour threshold and band edge (core/contour), the relock
// rules and round-trip process noise (core/denoise), the gate relaxation
// (core/tof) and the 3D smoothing noise and quality gate
// (core/pipeline_steps).
#pragma once

#include <cstddef>

#include "common/constants.hpp"

namespace witrack::core {

struct PipelineConfig {
    FmcwParams fmcw;

    /// Ignore beat frequencies corresponding to round trips below this:
    /// there lie Tx leakage and the front wall flash (the upper edge is
    /// kMaxRoundTripM, core/contour.hpp).
    double min_round_trip_m = 2.0;

    /// Outlier rejection (Section 4.4): the paper rejects contour jumps of
    /// several meters within milliseconds ("a person cannot move much in
    /// 12.5 ms", Fig. 3c shows 5 m jumps removed). Sub-meter frame-to-frame
    /// bounce between body parts (legs vs torso) is real signal that the
    /// Kalman filter absorbs, so the threshold sits between the two scales.
    double max_contour_jump_m = 1.2;

    /// Gated re-detection (track-before-detect): when the global bottom
    /// contour misses or jumps implausibly while a track exists, re-search
    /// within +/- gate_window_m of the last estimate at a relaxed detection
    /// threshold. Follows from the paper's continuity argument (Section
    /// 4.4); disable by setting gate_window_m = 0.
    double gate_window_m = 0.7;

    /// Kalman denoising of each antenna's round-trip stream. Measurement
    /// noise is sized for limb-vs-torso contour bounce, not just FFT-bin
    /// noise, so the filter smooths across body articulation.
    double kalman_measurement_noise = 0.15;   ///< m, per-frame round-trip noise

    /// Surface-to-centre depth compensation applied by the localizer
    /// (Section 8a: VICON reports the body centre; WiTrack ranges to the
    /// body surface).
    double surface_depth_m = 0.11;

    /// Keep per-frame subtracted profiles for figures / gesture analysis.
    bool record_profiles = false;

    /// Number of closest local maxima extracted per frame (1 for single-
    /// person tracking; 2+ enables the multi-person extension).
    std::size_t contour_peaks = 1;

    /// Upper bound on the tracker's retained history (smoothed and raw
    /// track points). 0 keeps everything -- right for offline episode
    /// analysis; long-running deployments set a cap so memory stays
    /// bounded. Trimming drops the oldest points in amortized O(1) blocks,
    /// so between trims up to 2x the cap may be briefly retained.
    std::size_t max_track_history = 0;
};

}  // namespace witrack::core
