// Radio tomographic imaging (RTI) baseline [Wilson & Patwari, IEEE TMC'10;
// paper Section 2]. The paper positions WiTrack against radio tomography:
// a dense network of RSSI sensors whose n^2 links dim when a person crosses
// them; a regularized inversion of the link-shadowing measurements yields an
// attenuation image whose blob is the person.
//
// This is a complete, self-contained implementation: perimeter sensor
// placement, the NeSh ellipse link-weight model, per-link shadowing
// measurements with noise, Tikhonov-regularized image reconstruction
// (precomputed Cholesky), and blob-centroid target extraction. The
// bench_baseline_rti harness runs the same trajectories through WiTrack and
// RTI to reproduce the paper's ">5x more accurate in 2D" comparison.
#pragma once

#include <cstddef>
#include <vector>

#include "common/random.hpp"
#include "geom/vec3.hpp"
#include "sim/environment.hpp"

namespace witrack::baseline {

/// The network's geometry, link model and regularization are fixed
/// constants (rti.cpp); only the measurement noise is configurable.
struct RtiConfig {
    double rssi_noise_db = 1.3;      ///< per-link measurement noise
};

class RtiNetwork {
  public:
    RtiNetwork(RtiConfig config, const sim::MotionBounds& area, Rng rng);

    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t num_links() const { return links_.size(); }
    std::size_t grid_cells() const { return grid_x_ * grid_y_; }

    /// Simulate one RSSI snapshot: per-link attenuation change (dB) caused
    /// by a person standing at `person` (z ignored; RTI is 2D).
    std::vector<double> measure(const geom::Vec3& person);

    /// Reconstruct the attenuation image from a measurement and return the
    /// estimated 2D position (z = 0).
    geom::Vec3 estimate(const std::vector<double>& link_shadow_db) const;

    /// Convenience: measure + estimate.
    geom::Vec3 locate(const geom::Vec3& person);

    /// Attenuation image of the last estimate() call (row-major, y-major),
    /// for inspection and tests.
    const std::vector<double>& last_image() const { return last_image_; }

    const std::vector<geom::Vec3>& nodes() const { return nodes_; }

  private:
    struct Link {
        std::size_t a, b;
        double length;
    };

    double link_shadowing(const Link& link, const geom::Vec3& person) const;
    double cell_x(std::size_t ix) const;
    double cell_y(std::size_t iy) const;

    RtiConfig config_;
    sim::MotionBounds area_;
    Rng rng_;
    std::vector<geom::Vec3> nodes_;
    std::vector<Link> links_;
    std::size_t grid_x_ = 0, grid_y_ = 0;

    // Precomputed reconstruction operator M = (W^T W + a I)^-1 W^T,
    // cells x links, so estimate() is one mat-vec.
    std::vector<double> reconstruction_;  // row-major cells x links
    mutable std::vector<double> last_image_;
};

/// Distance from point p to the segment [a, b] in the xy plane.
double point_segment_distance_2d(const geom::Vec3& p, const geom::Vec3& a,
                                 const geom::Vec3& b);

}  // namespace witrack::baseline
