// Pluggable application stages. An AppStage is the engine-resident form of
// an application (fall monitoring, pointing control, multi-person): it sees
// every processed frame, keeps whatever state it needs, and talks to the
// rest of the world exclusively through the event bus. Stages run in
// attachment order on the thread stepping their Engine, so a stage
// observes the same-frame events of every stage attached before it.
#pragma once

#include <string_view>

#include "core/pipeline_steps.hpp"
#include "core/tracker.hpp"
#include "engine/config.hpp"
#include "engine/events.hpp"
#include "engine/frame_source.hpp"

namespace witrack::engine {

/// Demand vocabulary for AppStage::required_inputs(): which pipeline
/// products the stage consumes (Inputs::kTof, Inputs::kRawPosition,
/// Inputs::kSmoothedTrack). The Engine unions the demands of every
/// attached stage (plus event-bus subscriptions) and schedules only the
/// pipeline steps someone asked for.
using Inputs = core::PipelineOutputs;

/// Everything a stage may need to build its own estimators, valid for the
/// lifetime of the Engine that attached it.
struct StageContext {
    const EngineConfig& config;
    const core::PipelineConfig& pipeline;   ///< resolved (fmcw applied)
    const geom::ArrayGeometry& array;
};

class AppStage {
  public:
    virtual ~AppStage() = default;

    /// Stable name used in per-stage latency accounting.
    virtual std::string_view name() const = 0;

    /// The pipeline products this stage reads from FrameResult. The default
    /// demands everything, so existing stages keep seeing the full pipeline;
    /// override to let the Engine skip undemanded steps (a TOF-only stage
    /// set never pays for localization or smoothing). Must be stable for
    /// the lifetime of the stage.
    virtual Inputs required_inputs() const { return Inputs::kAll; }

    /// Called once when the stage is added to an Engine; build estimators
    /// from the context and register any event subscriptions here.
    virtual void attach(const StageContext& context, EventBus& bus) {
        (void)context;
        (void)bus;
    }

    /// Called for every processed frame, after the Engine has published its
    /// TrackUpdateEvent. `result` carries the full per-frame pipeline
    /// output (TOF observations, raw and smoothed positions).
    virtual void on_frame(const Frame& frame,
                          const core::WiTrackTracker::FrameResult& result,
                          EventBus& bus) = 0;

    /// Called once when the source is exhausted (Engine::run) so
    /// episode-scoped stages (e.g. pointing) can publish their verdict.
    virtual void finish(EventBus& bus) { (void)bus; }

    /// Serialize per-stage mutable state into an Engine snapshot. Stateless
    /// stages keep the empty defaults; stages that accumulate history (the
    /// fall-monitor alert ring, the pointing TOF window) override both
    /// symmetrically so a restored session resumes bit-identically.
    virtual void save_state(common::StateWriter&) const {}
    virtual void load_state(common::StateReader&) {}
};

}  // namespace witrack::engine
