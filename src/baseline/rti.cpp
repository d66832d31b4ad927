#include "baseline/rti.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace witrack::baseline {

using geom::Vec3;

double point_segment_distance_2d(const Vec3& p, const Vec3& a, const Vec3& b) {
    const double abx = b.x - a.x, aby = b.y - a.y;
    const double apx = p.x - a.x, apy = p.y - a.y;
    const double len_sq = abx * abx + aby * aby;
    double t = len_sq > 0.0 ? (apx * abx + apy * aby) / len_sq : 0.0;
    t = std::clamp(t, 0.0, 1.0);
    const double cx = a.x + t * abx, cy = a.y + t * aby;
    return std::hypot(p.x - cx, p.y - cy);
}

namespace {

constexpr std::size_t kNodes = 24;          ///< sensors on the area perimeter
constexpr double kGridCellM = 0.25;         ///< reconstruction grid resolution
constexpr double kEllipseWidthM = 0.50;     ///< NeSh weight ellipse width (lambda)
constexpr double kShadowDb = 6.0;           ///< attenuation of a fully crossed link
constexpr double kFadingFraction = 0.8;     ///< multiplicative multipath fading on shadowed links
constexpr double kRegularization = 20.0;    ///< Tikhonov weight
constexpr double kPerimeterMarginM = 0.5;   ///< sensors sit this far outside the area
static_assert(kNodes >= 6, "RtiNetwork: too few nodes");

/// Dense Cholesky solve of (A) X = B where A is n x n SPD (row-major) and B
/// is n x m. Used once at construction to precompute the reconstruction
/// operator.
void cholesky_solve_in_place(std::vector<double>& a, std::vector<double>& b,
                             std::size_t n, std::size_t m) {
    // Factor A = L L^T in place (lower triangle).
    for (std::size_t j = 0; j < n; ++j) {
        double diag = a[j * n + j];
        for (std::size_t k = 0; k < j; ++k) diag -= a[j * n + k] * a[j * n + k];
        if (diag <= 0.0) throw std::runtime_error("RTI: matrix not positive definite");
        const double ljj = std::sqrt(diag);
        a[j * n + j] = ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double v = a[i * n + j];
            for (std::size_t k = 0; k < j; ++k) v -= a[i * n + k] * a[j * n + k];
            a[i * n + j] = v / ljj;
        }
    }
    // Solve L Y = B, then L^T X = Y, column by column.
    for (std::size_t col = 0; col < m; ++col) {
        for (std::size_t i = 0; i < n; ++i) {
            double v = b[i * m + col];
            for (std::size_t k = 0; k < i; ++k) v -= a[i * n + k] * b[k * m + col];
            b[i * m + col] = v / a[i * n + i];
        }
        for (std::size_t ii = n; ii-- > 0;) {
            double v = b[ii * m + col];
            for (std::size_t k = ii + 1; k < n; ++k)
                v -= a[k * n + ii] * b[k * m + col];
            b[ii * m + col] = v / a[ii * n + ii];
        }
    }
}

}  // namespace

RtiNetwork::RtiNetwork(RtiConfig config, const sim::MotionBounds& area, Rng rng)
    : config_(config), area_(area), rng_(rng) {
    // Sensors evenly spaced around the rectangle perimeter, slightly outside
    // the monitored area, at torso height.
    const double x0 = area.x_min - kPerimeterMarginM;
    const double x1 = area.x_max + kPerimeterMarginM;
    const double y0 = area.y_min - kPerimeterMarginM;
    const double y1 = area.y_max + kPerimeterMarginM;
    const double perimeter = 2.0 * ((x1 - x0) + (y1 - y0));
    for (std::size_t i = 0; i < kNodes; ++i) {
        double s = perimeter * static_cast<double>(i) / static_cast<double>(kNodes);
        Vec3 p{0, 0, 1.0};
        if (s < x1 - x0) {
            p.x = x0 + s;
            p.y = y0;
        } else if ((s -= x1 - x0) < y1 - y0) {
            p.x = x1;
            p.y = y0 + s;
        } else if ((s -= y1 - y0) < x1 - x0) {
            p.x = x1 - s;
            p.y = y1;
        } else {
            s -= x1 - x0;
            p.x = x0;
            p.y = y1 - s;
        }
        nodes_.push_back(p);
    }

    for (std::size_t a = 0; a < nodes_.size(); ++a)
        for (std::size_t b = a + 1; b < nodes_.size(); ++b) {
            const double len = std::hypot(nodes_[a].x - nodes_[b].x,
                                          nodes_[a].y - nodes_[b].y);
            if (len < 1.0) continue;  // adjacent nodes: no tomographic value
            links_.push_back({a, b, len});
        }

    // Only cells whose centers lie inside the monitored area: the person
    // never stands outside it, so a cell there could only hold noise that
    // wins the image peak.
    auto cells_across = [&](double extent) {
        return std::max<std::size_t>(
            1, static_cast<std::size_t>(extent / kGridCellM + 0.5));
    };
    grid_x_ = cells_across(area.x_max - area.x_min);
    grid_y_ = cells_across(area.y_max - area.y_min);
    const std::size_t cells = grid_x_ * grid_y_;
    const std::size_t links = links_.size();

    // NeSh weights: a cell contributes to a link when it lies inside the
    // link's ellipse (approximated by distance to the segment), scaled by
    // 1/sqrt(link length).
    std::vector<double> w(links * cells, 0.0);
    for (std::size_t l = 0; l < links; ++l) {
        const auto& link = links_[l];
        const double inv_sqrt_len = 1.0 / std::sqrt(link.length);
        for (std::size_t iy = 0; iy < grid_y_; ++iy)
            for (std::size_t ix = 0; ix < grid_x_; ++ix) {
                const Vec3 cell{cell_x(ix), cell_y(iy), 0.0};
                const double d =
                    point_segment_distance_2d(cell, nodes_[link.a], nodes_[link.b]);
                if (d < kEllipseWidthM / 2.0)
                    w[l * cells + ix + iy * grid_x_] = inv_sqrt_len;
            }
    }

    // Precompute M = (W^T W + a I)^-1 W^T (cells x links).
    std::vector<double> wtw(cells * cells, 0.0);
    for (std::size_t l = 0; l < links; ++l)
        for (std::size_t i = 0; i < cells; ++i) {
            const double wi = w[l * cells + i];
            if (wi == 0.0) continue;
            for (std::size_t j = 0; j < cells; ++j)
                wtw[i * cells + j] += wi * w[l * cells + j];
        }
    for (std::size_t i = 0; i < cells; ++i) wtw[i * cells + i] += kRegularization;

    std::vector<double> wt(cells * links);
    for (std::size_t l = 0; l < links; ++l)
        for (std::size_t c = 0; c < cells; ++c) wt[c * links + l] = w[l * cells + c];

    cholesky_solve_in_place(wtw, wt, cells, links);
    reconstruction_ = std::move(wt);
}

double RtiNetwork::cell_x(std::size_t ix) const {
    return area_.x_min + (static_cast<double>(ix) + 0.5) * kGridCellM;
}

double RtiNetwork::cell_y(std::size_t iy) const {
    return area_.y_min + (static_cast<double>(iy) + 0.5) * kGridCellM;
}

double RtiNetwork::link_shadowing(const Link& link, const Vec3& person) const {
    const double d =
        point_segment_distance_2d(person, nodes_[link.a], nodes_[link.b]);
    const double half = kEllipseWidthM / 2.0;
    if (d >= half) return 0.0;
    // Shadowing tapers as the person moves off the link axis; longer links
    // are shadowed less (energy spreads around the body).
    return kShadowDb * (1.0 - d / half) / std::sqrt(link.length);
}

std::vector<double> RtiNetwork::measure(const Vec3& person) {
    std::vector<double> y(links_.size());
    for (std::size_t l = 0; l < links_.size(); ++l) {
        const double shadow = link_shadowing(links_[l], person);
        // Multipath makes the shadowing depth itself unreliable, on top of
        // additive RSSI noise -- the core accuracy limit of RTI.
        // Two statements, so the draw order (fading, then noise) is fixed
        // rather than left to the compiler's operand evaluation order.
        const double fading = kFadingFraction * rng_.gaussian();
        y[l] = shadow * (1.0 + fading) + rng_.gaussian(config_.rssi_noise_db);
    }
    return y;
}

Vec3 RtiNetwork::estimate(const std::vector<double>& link_shadow_db) const {
    if (link_shadow_db.size() != links_.size())
        throw std::invalid_argument("RtiNetwork: measurement size mismatch");
    const std::size_t cells = grid_x_ * grid_y_;
    last_image_.assign(cells, 0.0);
    for (std::size_t c = 0; c < cells; ++c) {
        double acc = 0.0;
        const double* row = &reconstruction_[c * links_.size()];
        for (std::size_t l = 0; l < links_.size(); ++l) acc += row[l] * link_shadow_db[l];
        last_image_[c] = acc;
    }

    // Blob extraction: intensity-weighted centroid of cells within 80% of
    // the peak.
    double peak = 0.0;
    for (double v : last_image_) peak = std::max(peak, v);
    if (peak <= 0.0) {
        return {(area_.x_min + area_.x_max) / 2.0, (area_.y_min + area_.y_max) / 2.0, 0.0};
    }
    const double cut = 0.8 * peak;
    double wx = 0.0, wy = 0.0, wsum = 0.0;
    for (std::size_t iy = 0; iy < grid_y_; ++iy)
        for (std::size_t ix = 0; ix < grid_x_; ++ix) {
            const double v = last_image_[ix + iy * grid_x_];
            if (v < cut) continue;
            wx += v * cell_x(ix);
            wy += v * cell_y(iy);
            wsum += v;
        }
    return {wx / wsum, wy / wsum, 0.0};
}

Vec3 RtiNetwork::locate(const Vec3& person) { return estimate(measure(person)); }

}  // namespace witrack::baseline
