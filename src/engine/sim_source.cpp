#include "engine/sim_source.hpp"

#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace witrack::engine {

sim::ScenarioConfig make_scenario_config(const EngineConfig& config) {
    sim::ScenarioConfig scenario;
    scenario.fmcw = config.fmcw;
    scenario.through_wall = config.through_wall;
    scenario.antenna_separation_m = config.antenna_separation_m;
    scenario.device_height_m = config.device_height_m;
    scenario.noise = config.noise;
    scenario.seed = config.seed;
    scenario.fast_capture = config.fast_capture;
    scenario.model_sweep_nonlinearity = config.model_sweep_nonlinearity;
    scenario.second_person = config.second_person;
    scenario.cross_array = config.cross_array;
    return scenario;
}

SimSource::SimSource(const EngineConfig& config,
                     std::unique_ptr<sim::MotionScript> script,
                     std::unique_ptr<sim::MotionScript> second_script)
    : scenario_(std::make_unique<sim::Scenario>(make_scenario_config(config),
                                                std::move(script),
                                                std::move(second_script))) {
    attach_env_injector();
}

SimSource::SimSource(const sim::ScenarioSpec& spec)
    : scenario_(sim::make_scenario(spec)),
      injector_(sim::make_fault_injector(spec)) {
    attach_env_injector();
}

void SimSource::attach_env_injector() {
    if (injector_) return;
    const char* spec = std::getenv("WITRACK_HW_FAULTS");
    if (spec == nullptr || *spec == '\0') return;
    // A malformed spec throws (loudly): a fault campaign silently running
    // fault-free would green-light tests that never saw a fault.
    injector_ = std::make_unique<hw::FaultInjector>(hw::parse_fault_spec(spec));
}

bool SimSource::next(Frame& frame) {
    sim::Pose pose;
    std::optional<sim::Pose> pose2;
    if (!scenario_->next_into(frame.time_s, frame.sweeps, pose, pose2))
        return false;
    if (injector_) injector_->apply(frame.sweeps, frame.time_s);
    GroundTruth truth;
    truth.position = pose.center;
    if (pose2) truth.position2 = pose2->center;
    frame.truth = truth;
    return true;
}

void SimSource::save_state(common::StateWriter& writer) const {
    scenario_->save_state(writer);
    writer.boolean(injector_ != nullptr);
    if (injector_) injector_->save_state(writer);
}

void SimSource::load_state(common::StateReader& reader) {
    scenario_->load_state(reader);
    if (reader.boolean() != (injector_ != nullptr))
        throw std::runtime_error("SimSource: snapshot fault-injector mismatch");
    if (injector_) injector_->load_state(reader);
}

}  // namespace witrack::engine
