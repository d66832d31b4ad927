#include "rf/channel.hpp"

#include <algorithm>
#include <cmath>

#include "common/units.hpp"

namespace witrack::rf {

namespace {
constexpr double kFourPi = 4.0 * M_PI;
}

Channel::Channel(ChannelConfig config, Antenna tx, std::vector<Antenna> rx, Scene scene)
    : config_(std::move(config)),
      tx_(tx),
      rx_(std::move(rx)),
      scene_(std::move(scene)),
      lambda_(config_.fmcw.center_wavelength_m()) {
    config_.fmcw.validate();
}

double Channel::traversal_gain(const geom::Vec3& a, const geom::Vec3& b) const {
    double gain = 1.0;
    for (const auto& wall : scene_.walls)
        if (wall.segment_crosses(a, b)) gain *= from_db(-wall.material().traversal_loss_db);
    return gain;
}

double Channel::bistatic_amplitude(double d_tx, double d_rx, double rcs, double g_tx,
                                   double g_rx) const {
    d_tx = std::max(d_tx, 0.1);
    d_rx = std::max(d_rx, 0.1);
    const double power = config_.fmcw.tx_power_w * g_tx * g_rx * lambda_ * lambda_ * rcs /
                         (kFourPi * kFourPi * kFourPi * d_tx * d_tx * d_rx * d_rx);
    return std::sqrt(power);
}

PathList Channel::static_paths(std::size_t rx_index) const {
    const Antenna& rx = rx_.at(rx_index);
    PathList paths;

    // Direct Tx->Rx leakage: always present, short delay, strong.
    {
        PropagationPath leak;
        leak.round_trip_m = std::max(tx_.position.distance_to(rx.position), 0.05);
        leak.amplitude =
            std::sqrt(config_.fmcw.tx_power_w * from_db(config_.tx_rx_coupling_db));
        leak.kind = PathKind::kTxLeakage;
        paths.push_back(leak);
    }

    // Wall speculars (the flash effect): one image per panel that offers a
    // geometric bounce Tx -> wall -> Rx.
    for (const auto& wall : scene_.walls) {
        const auto bounce = wall.specular_point(tx_.position, rx.position);
        if (!bounce) continue;
        const double d = tx_.position.distance_to(*bounce) +
                         bounce->distance_to(rx.position);
        const double g_tx = tx_.gain_toward(*bounce);
        const double g_rx = rx.gain_toward(*bounce);
        // Friis one-bounce with the wall's reflection loss.
        const double power = config_.fmcw.tx_power_w * g_tx * g_rx * lambda_ *
                             lambda_ / (kFourPi * kFourPi * d * d) *
                             from_db(-wall.material().reflection_loss_db);
        PropagationPath p;
        p.round_trip_m = d;
        p.amplitude = std::sqrt(power);
        p.kind = PathKind::kStaticClutter;
        paths.push_back(p);
    }

    // Furniture / point clutter via the radar equation, attenuated by any
    // wall each leg crosses.
    for (const auto& reflector : scene_.clutter) {
        const double d_tx = tx_.position.distance_to(reflector.position);
        const double d_rx = rx.position.distance_to(reflector.position);
        double amp = bistatic_amplitude(d_tx, d_rx, reflector.rcs_m2,
                                        tx_.gain_toward(reflector.position),
                                        rx.gain_toward(reflector.position));
        amp *= std::sqrt(traversal_gain(tx_.position, reflector.position) *
                         traversal_gain(reflector.position, rx.position));
        PropagationPath p;
        p.round_trip_m = d_tx + d_rx;
        p.amplitude = amp;
        p.phase_rad = M_PI;  // metallic-ish reflection inversion
        p.kind = PathKind::kStaticClutter;
        paths.push_back(p);
    }

    return paths;
}

void Channel::add_body_paths_for_scatterer(std::size_t rx_index, const BodyScatterer& s,
                                           PathList& out) const {
    const Antenna& rx = rx_.at(rx_index);
    const double d_tx = tx_.position.distance_to(s.position);
    const double d_rx = rx.position.distance_to(s.position);
    const double leg_tx_gain = traversal_gain(tx_.position, s.position);

    // Direct body echo.
    {
        double amp = bistatic_amplitude(d_tx, d_rx, s.rcs_m2,
                                        tx_.gain_toward(s.position),
                                        rx.gain_toward(s.position));
        amp *= std::sqrt(leg_tx_gain * traversal_gain(s.position, rx.position));
        PropagationPath p;
        p.round_trip_m = d_tx + d_rx;
        p.amplitude = amp;
        p.phase_rad = s.phase_rad;
        p.kind = PathKind::kBodyDirect;
        out.push_back(p);
    }

    if (!config_.enable_dynamic_multipath) return;

    // First-order bounces involving one wall, via the image method:
    //   Tx -> body -> wall -> Rx   (mirror the receiver)
    //   Tx -> wall -> body -> Rx   (mirror the transmitter)
    for (const auto& wall : scene_.walls) {
        const double reflect_amp = db_to_amplitude(-wall.material().reflection_loss_db);

        if (wall.specular_point(s.position, rx.position)) {
            const geom::Vec3 rx_image = wall.mirror(rx.position);
            const double d_bounce = s.position.distance_to(rx_image);
            double amp = bistatic_amplitude(d_tx, d_bounce, s.rcs_m2,
                                            tx_.gain_toward(s.position),
                                            rx.gain_toward(wall.mirror(s.position)));
            amp *= reflect_amp * std::sqrt(leg_tx_gain);
            PropagationPath p;
            p.round_trip_m = d_tx + d_bounce;
            p.amplitude = amp;
            p.phase_rad = s.phase_rad + M_PI;
            p.kind = PathKind::kBodyMultipath;
            out.push_back(p);
        }

        if (wall.specular_point(tx_.position, s.position)) {
            const geom::Vec3 tx_image = wall.mirror(tx_.position);
            const double d_bounce = s.position.distance_to(tx_image);
            double amp = bistatic_amplitude(d_bounce, d_rx, s.rcs_m2,
                                            tx_.gain_toward(wall.mirror(s.position)),
                                            rx.gain_toward(s.position));
            amp *= reflect_amp *
                   std::sqrt(traversal_gain(s.position, rx.position));
            PropagationPath p;
            p.round_trip_m = d_bounce + d_rx;
            p.amplitude = amp;
            p.phase_rad = s.phase_rad + M_PI;
            p.kind = PathKind::kBodyMultipath;
            out.push_back(p);
        }
    }
}

PathList Channel::body_paths(std::size_t rx_index,
                             std::span<const BodyScatterer> body) const {
    PathList paths;
    paths.reserve(body.size() * 3);
    for (const auto& s : body) add_body_paths_for_scatterer(rx_index, s, paths);

    // Prune negligible contributions relative to the strongest body path.
    double peak = 0.0;
    for (const auto& p : paths) peak = std::max(peak, p.amplitude);
    const double floor = peak * config_.prune_relative_amplitude;
    paths.erase(std::remove_if(paths.begin(), paths.end(),
                               [floor](const PropagationPath& p) {
                                   return p.amplitude < floor;
                               }),
                paths.end());
    return paths;
}

}  // namespace witrack::rf
