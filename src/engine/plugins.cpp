#include "engine/plugins.hpp"

#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace witrack::engine {

// ------------------------------------------------------- FallMonitorStage

void FallMonitorStage::on_frame(const Frame& frame,
                                const core::WiTrackTracker::FrameResult& result,
                                EventBus& bus) {
    if (!result.raw) return;
    // The raw (unsmoothed) track preserves the ~0.4 s fall transient that
    // position smoothing would blur away.
    const std::size_t before = monitor_.total_alerts();
    monitor_.push(*result.raw);
    if (monitor_.total_alerts() > before)
        bus.publish(FallEvent{frame.time_s, monitor_.alerts().back()});
}

// ---------------------------------------------------------- PointingStage

void PointingStage::attach(const StageContext& context, EventBus& bus) {
    (void)bus;
    estimator_.emplace(context.pipeline, context.array);
    frames_.clear();
}

void PointingStage::on_frame(const Frame& frame,
                             const core::WiTrackTracker::FrameResult& result,
                             EventBus& bus) {
    (void)frame;
    (void)bus;
    frames_.push_back(result.tof);
    // Sliding window: trim in blocks once the history doubles the cap, so
    // an endless live stream stays bounded at amortized O(1) per frame.
    if (frames_.size() >= 2 * kMaxFrames)
        frames_.erase(frames_.begin(),
                      frames_.begin() +
                          static_cast<std::ptrdiff_t>(frames_.size() - kMaxFrames));
}

void PointingStage::finish(EventBus& bus) {
    if (!estimator_) return;
    if (const auto pointing = estimator_->analyze(frames_))
        bus.publish(PointingEvent{*pointing});
}

void PointingStage::save_state(common::StateWriter& writer) const {
    writer.u64(frames_.size());
    for (const auto& frame : frames_) core::save_state(writer, frame);
}

void PointingStage::load_state(common::StateReader& reader) {
    std::vector<core::TofFrame> frames(reader.count(core::kTofFrameMinStateBytes));
    for (auto& frame : frames) core::load_state(reader, frame);
    frames_ = std::move(frames);
}

// ---------------------------------------------------- ApplianceController

void ApplianceController::attach(const StageContext& context, EventBus& bus) {
    (void)context;
    bus.subscribe<PointingEvent>([this](const PointingEvent& event) {
        last_actuated_ = registry_->actuate(event.pointing, *driver_);
    });
}

void ApplianceController::save_state(common::StateWriter& writer) const {
    writer.boolean(last_actuated_.has_value());
    writer.str(last_actuated_.value_or(""));
}

void ApplianceController::load_state(common::StateReader& reader) {
    const bool actuated = reader.boolean();
    auto name = reader.str();
    last_actuated_ =
        actuated ? std::optional<std::string>(std::move(name)) : std::nullopt;
}

// ------------------------------------------------------- MultiPersonStage

void MultiPersonStage::attach(const StageContext& context, EventBus& bus) {
    (void)bus;
    if (context.pipeline.contour_peaks < max_people_)
        throw std::invalid_argument(
            "MultiPersonStage: pipeline.contour_peaks must be >= max_people "
            "(use EngineConfig::with_contour_peaks)");
    tracker_.emplace(context.pipeline, context.array, max_people_);
}

void MultiPersonStage::on_frame(const Frame& frame,
                                const core::WiTrackTracker::FrameResult& result,
                                EventBus& bus) {
    auto people = tracker_->process(result.tof, frame.time_s);
    bus.publish(PersonsEvent{frame.time_s, std::move(people), frame.truth});
}

void MultiPersonStage::save_state(common::StateWriter& writer) const {
    if (!tracker_)
        throw std::logic_error("MultiPersonStage: save_state before attach");
    tracker_->save_state(writer);
}

void MultiPersonStage::load_state(common::StateReader& reader) {
    if (!tracker_)
        throw std::logic_error("MultiPersonStage: load_state before attach");
    tracker_->load_state(reader);
}

}  // namespace witrack::engine
