// Fall detection (paper Section 6.2): a fall is a *fast* elevation drop of
// more than one third of the person's standing elevation that ends *near
// the ground*. Checking the final elevation alone cannot separate a fall
// from sitting on the floor; the drop rate disambiguates ("people fall
// quicker than they sit").
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/localize.hpp"

namespace witrack::core {

enum class Activity { kWalk, kSitChair, kSitFloor, kFall };

std::string activity_name(Activity activity);

struct FallDetectorConfig {
    double ground_level_m = 0.45;    ///< final elevation below this = "on the ground"
    double min_drop_fraction = 1.0 / 3.0;  ///< significant elevation change
    double max_fall_duration_s = 0.62;     ///< 15-85% drop time separating fall from sit
    double smoothing_window_s = 0.40;      ///< median-filter window before analysis
};

class FallDetector {
  public:
    explicit FallDetector(FallDetectorConfig config = FallDetectorConfig{})
        : config_(config) {}

    struct Analysis {
        Activity activity = Activity::kWalk;
        double initial_elevation_m = 0.0;
        double final_elevation_m = 0.0;
        double drop_fraction = 0.0;
        double drop_duration_s = 0.0;  ///< 10-90% transition time (0 if no drop)
    };

    /// Offline classification of one recorded episode, as in the paper's
    /// 132-experiment study (the data files were processed offline).
    Analysis analyze(std::span<const TrackPoint> track) const;
    Activity classify(std::span<const TrackPoint> track) const {
        return analyze(track).activity;
    }

    /// Streaming interface: push raw track points; returns an Analysis
    /// once a completed fall is detected (at most once per descent). Each
    /// point reruns analyze() on the last 6 s, except while an alert is
    /// latched (the result would be discarded). Once the window is full, a
    /// push allocates nothing.
    std::optional<Analysis> push(const TrackPoint& point);

    const FallDetectorConfig& config() const { return config_; }

    /// Serialize the streaming state (analysis window, low-state latch).
    /// load_state assigns nothing unless the whole state reads back.
    void save_state(common::StateWriter& writer) const;
    void load_state(common::StateReader& reader);

  private:
    /// Buffers one analysis reuses, so a warm detector allocates nothing.
    struct Scratch {
        std::vector<double> z;       ///< median-filtered elevations
        std::vector<double> sorted;  ///< raw elevations of one median window, ascending
        std::vector<double> order;   ///< head or tail samples for a percentile
    };

    Analysis analyze(std::span<const TrackPoint> track, Scratch& scratch) const;
    void smooth_elevations(std::span<const TrackPoint> track, double dt,
                           Scratch& scratch) const;

    FallDetectorConfig config_;
    // Streaming state: the live window is window_[head_, size). Trimming
    // advances head_; the dead prefix is dropped only when the buffer is
    // full, so neither trimming nor appending moves the window every frame.
    std::vector<TrackPoint> window_;
    std::size_t head_ = 0;
    bool in_low_state_ = false;
    double standing_level_at_alert_ = 0.0;
    Scratch scratch_;
};

/// Bytes one Analysis takes in a snapshot (bounds a snapshot's alert count).
inline constexpr std::size_t kAnalysisStateBytes = 1 + 4 * sizeof(double);

/// Value-type serialization for retained alert history (fall-monitor ring).
void save_state(common::StateWriter& writer, const FallDetector::Analysis& analysis);
void load_state(common::StateReader& reader, FallDetector::Analysis& analysis);

}  // namespace witrack::core
