#include "sim/human.hpp"

#include <algorithm>
#include <cmath>

#include "common/serialize.hpp"

namespace witrack::sim {

using geom::Vec3;
using rf::BodyScatterer;

HumanModel::HumanModel(HumanParams params, Rng rng)
    : params_(params), rng_(rng) {
    torso_ = {rf::rcs::torso()};
    head_ = {rf::rcs::head()};
    arm_left_ = {rf::rcs::arm()};
    arm_right_ = {rf::rcs::arm()};
    leg_left_ = {rf::rcs::leg()};
    leg_right_ = {rf::rcs::leg()};
    hand_ = {rf::rcs::hand()};
}

void HumanModel::refresh_fluctuations(double activity) {
    auto refresh = [&](Part& part) {
        if (!fluctuations_initialized_) {
            part.rcs_now = part.rcs.sample(rng_);
            part.phase_now = rng_.uniform(0.0, 2.0 * M_PI);
            return;
        }
        if (activity <= 0.0) return;  // frozen: static body cancels in subtraction
        // Exponentially correlated scintillation: mix toward a fresh draw at
        // a rate proportional to how much the body is articulating.
        const double mix = std::min(0.5, 0.5 * activity);
        part.rcs_now = (1.0 - mix) * part.rcs_now + mix * part.rcs.sample(rng_);
        part.phase_now += rng_.gaussian(0.6 * activity);
    };
    refresh(torso_);
    refresh(head_);
    refresh(arm_left_);
    refresh(arm_right_);
    refresh(leg_left_);
    refresh(leg_right_);
    refresh(hand_);
    fluctuations_initialized_ = true;
}

std::vector<BodyScatterer> HumanModel::update(const Pose& pose, double dt,
                                              const Vec3& device_position) {
    const Vec3 prev_center = center_;
    center_ = pose.center;

    const double activity =
        pose.body_static ? 0.0 : std::clamp(pose.speed_mps / 1.0, 0.0, 1.0);

    // Gait phase advances with stride rate (~stride length 0.7 m).
    if (activity > 0.0 && dt > 0.0)
        gait_phase_ += 2.0 * M_PI * (pose.speed_mps / 0.7) * dt;

    // Ornstein-Uhlenbeck wander of the dominant reflection point; frozen
    // when the body is static so background subtraction can cancel it.
    if (activity > 0.0 && dt > 0.0) {
        const double tau = 0.4;
        const double sigma_h = params_.gait_wander_m * activity;
        const double sigma_v = params_.vertical_wander_m * activity;
        const double decay = dt / tau;
        wander_x_ += -wander_x_ * decay + sigma_h * std::sqrt(2.0 * decay) * rng_.gaussian();
        wander_y_ += -wander_y_ * decay + sigma_h * std::sqrt(2.0 * decay) * rng_.gaussian();
        wander_z_ += -wander_z_ * decay + sigma_v * std::sqrt(2.0 * decay) * rng_.gaussian();
    }

    refresh_fluctuations(activity);

    // Direction toward the device (horizontal): the radar ranges to the body
    // surface facing it, not the body centre.
    Vec3 toward = device_position - center_;
    toward.z = 0.0;
    toward = toward.norm() > 1e-9 ? toward.normalized() : Vec3{0.0, -1.0, 0.0};
    const Vec3 lateral{-toward.y, toward.x, 0.0};

    // Direction of travel for limb swing.
    Vec3 travel = center_ - prev_center;
    travel.z = 0.0;
    travel = travel.norm() > 1e-9 ? travel.normalized() : lateral;

    const double ps = pose.posture_scale;
    const double swing = 0.30 * std::min(pose.speed_mps, 1.5) / 1.5;
    const double arm_swing = swing * 0.8;

    auto clamp_floor = [](Vec3 p) {
        p.z = std::max(p.z, 0.05);
        return p;
    };

    std::vector<BodyScatterer> out;
    out.reserve(7);

    // Torso: the dominant echo, at the device-facing surface, with wander.
    {
        Vec3 p = center_ + toward * params_.torso_half_depth_m +
                 lateral * wander_x_ + toward * wander_y_;
        p.z += 0.10 * ps + wander_z_;
        out.push_back({clamp_floor(p), torso_.rcs_now, torso_.phase_now});
    }
    // Head.
    {
        Vec3 p = center_;
        p.z += (0.50 + 0.05) * ps * (params_.height_m / 1.75);
        out.push_back({clamp_floor(p), head_.rcs_now, head_.phase_now});
    }
    // Arms (skip the swing model if an explicit hand pose drives a gesture).
    {
        const double s = std::sin(gait_phase_);
        Vec3 left = center_ - lateral * params_.shoulder_half_width_m +
                    travel * (arm_swing * s);
        left.z += 0.15 * ps;
        Vec3 right = center_ + lateral * params_.shoulder_half_width_m -
                     travel * (arm_swing * s);
        right.z += 0.15 * ps;
        out.push_back({clamp_floor(left), arm_left_.rcs_now, arm_left_.phase_now});
        out.push_back({clamp_floor(right), arm_right_.rcs_now, arm_right_.phase_now});
    }
    // Legs (counter-phase swing).
    {
        const double s = std::sin(gait_phase_ + M_PI);
        Vec3 left = center_ - lateral * 0.10 + travel * (swing * s);
        left.z -= 0.55 * ps * (params_.height_m / 1.75) * 0.85;
        left.z += 0.55 * (1 - ps);  // posture collapse keeps legs near ground
        Vec3 right = center_ + lateral * 0.10 - travel * (swing * s);
        right.z = left.z;
        // Seated or prone legs fold under the body and reflect far less
        // toward the device than standing legs do.
        const double leg_visibility = 0.25 + 0.75 * ps;
        out.push_back({clamp_floor(left), leg_left_.rcs_now * leg_visibility,
                       leg_left_.phase_now});
        out.push_back({clamp_floor(right), leg_right_.rcs_now * leg_visibility,
                       leg_right_.phase_now});
    }
    // Explicit hand (pointing gesture): hand plus a forearm midpoint.
    if (pose.hand) {
        const Vec3 shoulder = center_ + lateral * params_.shoulder_half_width_m +
                              Vec3{0, 0, 0.18 * ps};
        out.push_back({clamp_floor(*pose.hand), hand_.rcs_now, hand_.phase_now});
        out.push_back({clamp_floor(geom::lerp(shoulder, *pose.hand, 0.55)),
                       hand_.rcs_now * 0.8, hand_.phase_now + 0.7});
    }
    return out;
}

void HumanModel::save_state(common::StateWriter& writer) const {
    common::save_state(writer, rng_);
    writer.vec3(center_);
    writer.f64(gait_phase_);
    writer.f64(wander_x_);
    writer.f64(wander_y_);
    writer.f64(wander_z_);
    // Parts serialize in the same fixed order refresh_fluctuations draws in.
    for (const Part* part : {&torso_, &head_, &arm_left_, &arm_right_, &leg_left_,
                             &leg_right_, &hand_}) {
        writer.f64(part->rcs_now);
        writer.f64(part->phase_now);
    }
    writer.boolean(fluctuations_initialized_);
}

void HumanModel::load_state(common::StateReader& reader) {
    common::load_state(reader, rng_);
    reader.vec3(center_);
    gait_phase_ = reader.f64();
    wander_x_ = reader.f64();
    wander_y_ = reader.f64();
    wander_z_ = reader.f64();
    for (Part* part : {&torso_, &head_, &arm_left_, &arm_right_, &leg_left_,
                       &leg_right_, &hand_}) {
        part->rcs_now = reader.f64();
        part->phase_now = reader.f64();
    }
    fluctuations_initialized_ = reader.boolean();
}

}  // namespace witrack::sim
