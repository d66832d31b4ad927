// FrameSource over the simulator: wraps sim::Scenario, translating the one
// EngineConfig into the ScenarioConfig the simulator expects and forwarding
// ground-truth poses so subscribers can evaluate tracking error live.
//
// A hw::FaultInjector can ride on the source (explicitly, from a scenario
// file, or via the WITRACK_HW_FAULTS environment variable): every captured
// frame is damaged in place before the engine sees it, exactly where a
// degrading front end would sit.
#pragma once

#include <memory>

#include "engine/config.hpp"
#include "engine/frame_source.hpp"
#include "hw/fault_injector.hpp"
#include "sim/motion.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_file.hpp"

namespace witrack::engine {

/// Build the simulator configuration for a deployment described by
/// EngineConfig (the single place the two config types meet).
sim::ScenarioConfig make_scenario_config(const EngineConfig& config);

class SimSource : public FrameSource {
  public:
    /// Simulate `script` (and optionally a second person) under the
    /// deployment described by `config`.
    SimSource(const EngineConfig& config, std::unique_ptr<sim::MotionScript> script,
              std::unique_ptr<sim::MotionScript> second_script = nullptr);

    /// Instantiate a parsed scenario file: motion scripts, deployment and
    /// (when the spec schedules any) the fault injector, all data-driven.
    explicit SimSource(const sim::ScenarioSpec& spec);

    bool next(Frame& frame) override;
    const geom::ArrayGeometry& array() const override { return scenario_->array(); }
    const FmcwParams& fmcw() const override { return scenario_->config().fmcw; }

    const sim::Scenario& scenario() const { return *scenario_; }

    /// Attach (or replace/remove, with nullptr) the hardware fault
    /// injector. Without one, captured frames are bit-identical to a
    /// fault-free build.
    void set_fault_injector(std::unique_ptr<hw::FaultInjector> injector) {
        injector_ = std::move(injector);
    }
    const hw::FaultInjector* fault_injector() const { return injector_.get(); }

    /// Snapshot cursor: the scenario (frame index + RNG + motion state)
    /// plus, when a fault injector is attached, its RNG cursor and
    /// counters -- so a restored sim session resumes bit-identically,
    /// faults included.
    void save_state(common::StateWriter& writer) const override;
    void load_state(common::StateReader& reader) override;

  private:
    /// WITRACK_HW_FAULTS: attach an injector parsed from the environment
    /// when none is configured (the CI fault-matrix lane's hook).
    void attach_env_injector();

    std::unique_ptr<sim::Scenario> scenario_;
    std::unique_ptr<hw::FaultInjector> injector_;
};

}  // namespace witrack::engine
