// Test stage that pins a session's demand set the way production does:
// through AppStage::required_inputs(). It reads nothing and publishes
// nothing, so attaching it changes only which pipeline steps run.
#pragma once

#include <string_view>

#include "engine/stage.hpp"

namespace witrack::testing_support {

class DemandStage : public engine::AppStage {
  public:
    explicit DemandStage(engine::Inputs demand) : demand_(demand) {}
    std::string_view name() const override { return "demand"; }
    engine::Inputs required_inputs() const override { return demand_; }
    void on_frame(const engine::Frame&, const core::WiTrackTracker::FrameResult&,
                  engine::EventBus&) override {}

  private:
    engine::Inputs demand_;
};

}  // namespace witrack::testing_support
