// Streaming fall monitor: wraps the tracker's elevation stream with the
// fall detector and fires a callback on detected falls -- the elderly
// monitoring application of paper Section 1 / 6.2. Inside the streaming
// engine it runs as engine::FallMonitorStage, which feeds it every raw
// track point and publishes each alert as a FallEvent.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/fall.hpp"
#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"

namespace witrack::apps {

class FallMonitor {
  public:
    using FallCallback = std::function<void(const core::FallDetector::Analysis&)>;

    /// What this application consumes from the pipeline: the *raw*
    /// (unsmoothed) track -- falls live in the ~0.4 s transient that
    /// smoothing blurs away, and the smoothed track is never read. The
    /// engine plugin forwards this so a fall-only deployment skips the
    /// position Kalman entirely.
    static constexpr core::PipelineOutputs kRequiredInputs =
        core::PipelineOutputs::kRawPosition;

    /// `max_alerts` bounds the retained alert history: a monitor that runs
    /// for months keeps the most recent alerts and drops the oldest, so
    /// memory stays constant. 0 keeps everything (short offline episodes).
    explicit FallMonitor(core::FallDetectorConfig config = core::FallDetectorConfig{},
                         std::size_t max_alerts = 64)
        : detector_(config), max_alerts_(max_alerts) {}

    void on_fall(FallCallback callback) { callback_ = std::move(callback); }

    /// Feed each raw track point; invokes the callback on detection.
    void push(const core::TrackPoint& point) {
        const auto analysis = detector_.push(point);
        if (analysis) {
            if (max_alerts_ > 0 && alerts_.size() >= max_alerts_)
                alerts_.erase(alerts_.begin());  // ring: drop the oldest
            alerts_.push_back(*analysis);
            ++total_alerts_;
            if (callback_) callback_(*analysis);
        }
    }

    /// The most recent alerts (bounded by max_alerts).
    const std::vector<core::FallDetector::Analysis>& alerts() const { return alerts_; }

    /// Lifetime alert count (keeps counting after the ring wraps).
    std::size_t total_alerts() const { return total_alerts_; }

    std::size_t max_alerts() const { return max_alerts_; }

    /// Serialize the detector state, the alert ring, and the lifetime
    /// count; the callback is wiring, not state, and stays with the target.
    void save_state(common::StateWriter& writer) const {
        detector_.save_state(writer);
        writer.u64(total_alerts_);
        writer.u64(alerts_.size());
        for (const auto& alert : alerts_) core::save_state(writer, alert);
    }

    /// Assigns nothing unless the whole state reads back.
    void load_state(common::StateReader& reader) {
        core::FallDetector detector(detector_.config());
        detector.load_state(reader);
        const auto total_alerts = static_cast<std::size_t>(reader.u64());
        std::vector<core::FallDetector::Analysis> alerts(
            reader.count(core::kAnalysisStateBytes));
        for (auto& alert : alerts) core::load_state(reader, alert);
        detector_ = std::move(detector);
        total_alerts_ = total_alerts;
        alerts_ = std::move(alerts);
    }

  private:
    core::FallDetector detector_;
    FallCallback callback_;
    std::size_t max_alerts_;
    std::size_t total_alerts_ = 0;
    std::vector<core::FallDetector::Analysis> alerts_;
};

}  // namespace witrack::apps
