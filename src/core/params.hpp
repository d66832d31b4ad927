// Pipeline configuration for the WiTrack processing chain (paper Sections
// 4, 5, 7). Defaults follow the paper where it is explicit (sweep geometry,
// 5-sweep averaging) and use calibrated values elsewhere. The range FFT is
// not configured here: SweepProcessor always Hann-windows the averaged
// sweep and zero-pads it to the next power of two.
#pragma once

#include <cstddef>

#include "common/constants.hpp"

namespace witrack::core {

struct PipelineConfig {
    FmcwParams fmcw;

    /// Contour detection: a local maximum counts as motion when its
    /// magnitude exceeds noise_floor * contour_threshold (paper Section 4.3
    /// "substantially above the noise floor").
    double contour_threshold = 5.0;

    /// Ignore beat frequencies corresponding to round trips outside this
    /// band: below min lies Tx leakage and the front wall flash; above max
    /// only noise (paper Fig. 3 displays up to 30 m).
    double min_round_trip_m = 2.0;
    double max_round_trip_m = 28.0;

    /// Outlier rejection (Section 4.4): the paper rejects contour jumps of
    /// several meters within milliseconds ("a person cannot move much in
    /// 12.5 ms", Fig. 3c shows 5 m jumps removed). Sub-meter frame-to-frame
    /// bounce between body parts (legs vs torso) is real signal that the
    /// Kalman filter absorbs, so the threshold sits between the two scales.
    /// After `reacquire_frames` consecutive rejections the track re-locks.
    double max_contour_jump_m = 1.2;
    double max_speed_mps = 5.0;  ///< used by sanity checks and gating slack
    std::size_t reacquire_frames = 40;
    /// A persistent *closer* contour re-locks much faster: the direct body
    /// path is always the shortest (Section 4.3), so a stable closer echo
    /// means the track was sitting on dynamic multipath.
    std::size_t reacquire_closer_frames = 6;

    /// Gated re-detection (track-before-detect): when the global bottom
    /// contour misses or jumps implausibly while a track exists, re-search
    /// within +/- gate_window_m of the last estimate at gate_relax times
    /// the detection threshold. Follows from the paper's continuity
    /// argument (Section 4.4); disable by setting gate_window_m = 0.
    double gate_window_m = 0.7;
    double gate_relax = 0.75;
    /// Stop gating after this many consecutive gated-only detections so a
    /// genuinely lost track falls back to global reacquisition.
    std::size_t gate_max_streak = 24;

    /// Kalman denoising of each antenna's round-trip stream. Measurement
    /// noise is sized for limb-vs-torso contour bounce, not just FFT-bin
    /// noise, so the filter smooths across body articulation.
    double kalman_process_noise = 1.5;        ///< m/s^2 scale
    double kalman_measurement_noise = 0.15;   ///< m, per-frame round-trip noise

    /// Surface-to-centre depth compensation applied by the localizer
    /// (Section 8a: VICON reports the body centre; WiTrack ranges to the
    /// body surface).
    double surface_depth_m = 0.11;

    /// 3D position smoothing.
    double position_process_noise = 2.0;      ///< m/s^2
    double position_measurement_noise = 0.14; ///< m

    /// Quality-aware smoothing (hw-robustness plane). On frames whose
    /// health score h < 1 the position filter widens its measurement noise
    /// by 1 / max(h, quality_noise_floor) -- degraded fixes pull the state
    /// gently instead of yanking it -- and a measurement whose innovation
    /// (distance from the predicted position) exceeds
    /// quality_gate_innovation_m is rejected outright: the filter coasts
    /// on its velocity for that frame rather than teleporting onto a
    /// fault-corrupted fix. Healthy frames (h == 1) are untouched bit for
    /// bit. Setting quality_gate_innovation_m = 0 disables the gate.
    double quality_noise_floor = 0.25;
    double quality_gate_innovation_m = 0.8;

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
