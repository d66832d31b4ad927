// Geometry tests: vectors, ellipsoids, and the ellipsoid-intersection
// localizer (closed form vs Gauss-Newton, noise behaviour, over-constrained
// arrays).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "common/random.hpp"
#include "geom/array_geometry.hpp"
#include "geom/ellipsoid.hpp"
#include "geom/solver.hpp"
#include "geom/vec3.hpp"

namespace witrack::geom {
namespace {

std::vector<double> round_trips_for(const ArrayGeometry& g, const Vec3& p) {
    std::vector<double> d;
    for (const auto& rx : g.rx) d.push_back(p.distance_to(g.tx) + p.distance_to(rx));
    return d;
}

// ------------------------------------------------------------------- Vec3

TEST(Vec3Test, Arithmetic) {
    const Vec3 a{1, 2, 3}, b{4, -5, 6};
    EXPECT_DOUBLE_EQ((a + b).x, 5.0);
    EXPECT_DOUBLE_EQ((a - b).y, 7.0);
    EXPECT_DOUBLE_EQ((a * 2.0).z, 6.0);
    EXPECT_DOUBLE_EQ((2.0 * a).z, 6.0);
    EXPECT_DOUBLE_EQ(a.dot(b), 12.0);
}

TEST(Vec3Test, CrossProductOrthogonality) {
    const Vec3 a{1, 2, 3}, b{-2, 1, 4};
    const Vec3 c = a.cross(b);
    EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
    EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
    const Vec3 x{1, 0, 0}, y{0, 1, 0};
    const Vec3 z = x.cross(y);
    EXPECT_DOUBLE_EQ(z.z, 1.0);
}

TEST(Vec3Test, NormAndNormalize) {
    const Vec3 v{3, 4, 0};
    EXPECT_DOUBLE_EQ(v.norm(), 5.0);
    EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 0.0);  // zero-safe
}

TEST(Vec3Test, AngleBetween) {
    EXPECT_NEAR(angle_between({1, 0, 0}, {0, 1, 0}), M_PI / 2.0, 1e-12);
    EXPECT_NEAR(angle_between({1, 0, 0}, {1, 0, 0}), 0.0, 1e-6);
    EXPECT_NEAR(angle_between({1, 0, 0}, {-1, 0, 0}), M_PI, 1e-6);
}

TEST(Vec3Test, Lerp) {
    const Vec3 p = lerp({0, 0, 0}, {10, 20, -10}, 0.25);
    EXPECT_DOUBLE_EQ(p.x, 2.5);
    EXPECT_DOUBLE_EQ(p.y, 5.0);
    EXPECT_DOUBLE_EQ(p.z, -2.5);
}

// -------------------------------------------------------------- Ellipsoid

TEST(EllipsoidTest, ResidualSignConvention) {
    const Ellipsoid e({-1, 0, 0}, {1, 0, 0}, 4.0);
    EXPECT_NEAR(e.residual({0, std::sqrt(3.0), 0}), 0.0, 1e-12);  // on surface (b=sqrt(3))
    EXPECT_LT(e.residual({0, 0, 0}), 0.0);                        // inside
    EXPECT_GT(e.residual({0, 5, 0}), 0.0);                        // outside
}

TEST(EllipsoidTest, RejectsDegenerateAxis) {
    EXPECT_THROW(Ellipsoid({0, 0, 0}, {2, 0, 0}, 1.0), std::invalid_argument);
}

TEST(EllipsoidTest, GradientMatchesNumericDerivative) {
    const Ellipsoid e({-0.5, 0.2, 0}, {1, 0, -0.3}, 6.0);
    const Vec3 p{1.0, 2.0, 0.5};
    const Vec3 g = e.gradient(p);
    const double h = 1e-7;
    const double gx = (e.residual(p + Vec3{h, 0, 0}) - e.residual(p - Vec3{h, 0, 0})) / (2 * h);
    const double gy = (e.residual(p + Vec3{0, h, 0}) - e.residual(p - Vec3{0, h, 0})) / (2 * h);
    const double gz = (e.residual(p + Vec3{0, 0, h}) - e.residual(p - Vec3{0, 0, h})) / (2 * h);
    EXPECT_NEAR(g.x, gx, 1e-6);
    EXPECT_NEAR(g.y, gy, 1e-6);
    EXPECT_NEAR(g.z, gz, 1e-6);
}

TEST(EllipsoidTest, SemiMinorAxisShrinksWithFocalDistance) {
    // Paper Section 9.3: at fixed round-trip distance, moving the foci apart
    // "squashes" the ellipsoid. Verify monotonicity.
    double prev = 1e9;
    for (double sep : {0.25, 0.5, 1.0, 1.5}) {
        const Ellipsoid e({-sep, 0, 0}, {sep, 0, 0}, 8.0);
        EXPECT_LT(e.semi_minor_axis(), prev);
        prev = e.semi_minor_axis();
    }
}

// ----------------------------------------------------------- ArrayGeometry

TEST(ArrayGeometryTest, TArrayLayout) {
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    ASSERT_EQ(g.num_rx(), 3u);
    EXPECT_DOUBLE_EQ(g.rx[0].x, -1.0);
    EXPECT_DOUBLE_EQ(g.rx[1].x, 1.0);
    EXPECT_DOUBLE_EQ(g.rx[2].z, 0.3);  // 1 m below Tx
    EXPECT_NO_THROW(g.validate());
    EXPECT_THROW(make_t_array({0, 0, 0}, -1.0), std::invalid_argument);
}

TEST(ArrayGeometryTest, CrossArrayAddsFourthAntenna) {
    const auto g = make_cross_array({0, 0, 1.0}, 0.5);
    ASSERT_EQ(g.num_rx(), 4u);
    EXPECT_DOUBLE_EQ(g.rx[3].z, 1.5);
}

TEST(ArrayGeometryTest, ValidateRequiresThreeRx) {
    ArrayGeometry g;
    g.tx = {0, 0, 0};
    g.rx = {{1, 0, 0}, {-1, 0, 0}};
    EXPECT_THROW(g.validate(), std::invalid_argument);
}

// ----------------------------------------------------------------- Solver

TEST(SolverTest, ExactRecoveryClosedForm) {
    const auto g = make_t_array({0, 0, 1.5}, 1.0);
    const EllipsoidSolver solver(g);
    EXPECT_TRUE(solver.planar());
    const Vec3 truth{1.2, 4.0, 1.1};
    const auto result = solver.solve_closed_form(round_trips_for(g, truth));
    ASSERT_TRUE(result.valid);
    EXPECT_NEAR(result.position.x, truth.x, 1e-9);
    EXPECT_NEAR(result.position.y, truth.y, 1e-9);
    EXPECT_NEAR(result.position.z, truth.z, 1e-9);
    EXPECT_LT(result.residual_rms, 1e-9);
}

TEST(SolverTest, GaussNewtonMatchesClosedForm) {
    const auto g = make_t_array({0.5, -0.2, 1.0}, 0.75);
    const EllipsoidSolver solver(g);
    const Vec3 truth{-0.8, 5.5, 0.4};
    const auto d = round_trips_for(g, truth);
    const auto cf = solver.solve_closed_form(d);
    const auto gn = solver.solve_gauss_newton(d, g.tx + Vec3{0, 3, 0});
    ASSERT_TRUE(cf.valid);
    ASSERT_TRUE(gn.valid);
    EXPECT_NEAR(cf.position.distance_to(gn.position), 0.0, 1e-6);
}

struct SolverGridCase {
    double x, y, z;
};

class SolverGrid : public ::testing::TestWithParam<SolverGridCase> {};

TEST_P(SolverGrid, RecoversPositionAcrossTheRoom) {
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    const Vec3 truth{GetParam().x, GetParam().y, GetParam().z};
    const auto result = solver.solve(round_trips_for(g, truth));
    ASSERT_TRUE(result.valid);
    EXPECT_NEAR(result.position.distance_to(truth), 0.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    RoomSweep, SolverGrid,
    ::testing::Values(SolverGridCase{0, 3, 1.0}, SolverGridCase{-2, 3, 1.0},
                      SolverGridCase{2, 3, 1.0}, SolverGridCase{0, 6, 1.0},
                      SolverGridCase{-2.5, 8, 0.5}, SolverGridCase{2.5, 8, 2.0},
                      SolverGridCase{1, 10, 1.5}, SolverGridCase{-1, 4, 0.2},
                      SolverGridCase{0.3, 5, 2.2}, SolverGridCase{-3, 9, 1.2}),
    [](const ::testing::TestParamInfo<SolverGridCase>& info) {
        return "Case" + std::to_string(info.index);
    });

TEST(SolverTest, OverConstrainedFourAntennaArray) {
    const auto g = make_cross_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    const Vec3 truth{1.0, 5.0, 0.8};
    const auto result = solver.solve(round_trips_for(g, truth));
    ASSERT_TRUE(result.valid);
    EXPECT_NEAR(result.position.distance_to(truth), 0.0, 1e-6);
}

TEST(SolverTest, FourthAntennaImprovesNoiseRobustness) {
    const auto g3 = make_t_array({0, 0, 1.3}, 1.0);
    const auto g4 = make_cross_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver s3(g3), s4(g4);
    const Vec3 truth{0.7, 5.0, 1.1};
    Rng rng(77);
    double err3 = 0.0, err4 = 0.0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        auto d3 = round_trips_for(g3, truth);
        auto d4 = round_trips_for(g4, truth);
        for (auto& d : d3) d += rng.gaussian(0.03);
        for (auto& d : d4) d += rng.gaussian(0.03);
        const auto r3 = s3.solve(d3);
        const auto r4 = s4.solve(d4);
        if (r3.valid) err3 += r3.position.distance_to(truth);
        if (r4.valid) err4 += r4.position.distance_to(truth);
    }
    EXPECT_LT(err4, err3);  // extra constraint helps (paper Section 5)
}

TEST(SolverTest, ErrorGrowsWithRange) {
    // Paper Section 9.2: for fixed antenna separation, the same TOF noise
    // produces larger position error at larger range.
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    Rng rng(123);
    double near_err = 0.0, far_err = 0.0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        for (double range : {3.0, 9.0}) {
            const Vec3 truth{0.5, range, 1.0};
            auto d = round_trips_for(g, truth);
            for (auto& v : d) v += rng.gaussian(0.02);
            const auto r = solver.solve(d);
            if (!r.valid) continue;
            (range < 5.0 ? near_err : far_err) += r.position.distance_to(truth);
        }
    }
    EXPECT_LT(near_err, far_err);
}

TEST(SolverTest, ErrorShrinksWithSeparation) {
    // Paper Section 9.3: larger antenna separation squashes the ellipsoids
    // and reduces the error for the same TOF noise.
    Rng rng(321);
    const Vec3 truth{0.5, 5.0, 1.0};
    double err_small = 0.0, err_large = 0.0;
    const int trials = 400;
    for (int t = 0; t < trials; ++t) {
        for (double sep : {0.25, 2.0}) {
            const auto g = make_t_array({0, 0, 1.3}, sep);
            const EllipsoidSolver solver(g);
            auto d = round_trips_for(g, truth);
            for (auto& v : d) v += rng.gaussian(0.02);
            const auto r = solver.solve(d);
            if (!r.valid) continue;
            (sep < 1.0 ? err_small : err_large) += r.position.distance_to(truth);
        }
    }
    EXPECT_LT(err_large, err_small);
}

TEST(SolverTest, XErrorExceedsYError) {
    // Paper Section 9.1: antennas lie along x, so the ellipses have their
    // major radius along x and the same TOF error projects larger onto x.
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    Rng rng(55);
    std::vector<double> ex, ey;
    for (int t = 0; t < 2000; ++t) {
        const Vec3 truth{rng.uniform(-2, 2), rng.uniform(3, 8), rng.uniform(0.5, 1.8)};
        auto d = round_trips_for(g, truth);
        for (auto& v : d) v += rng.gaussian(0.02);
        const auto r = solver.solve(d);
        if (!r.valid) continue;
        ex.push_back(std::abs(r.position.x - truth.x));
        ey.push_back(std::abs(r.position.y - truth.y));
    }
    double mx = 0, my = 0;
    for (double v : ex) mx += v;
    for (double v : ey) my += v;
    EXPECT_GT(mx / ex.size(), my / ey.size());
}

TEST(SolverTest, RejectsImpossibleMeasurements) {
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    // Round trip shorter than the Tx-Rx separation is geometrically
    // impossible.
    const auto result = solver.solve_closed_form({0.5, 0.5, 0.5});
    EXPECT_FALSE(result.valid);
}

TEST(SolverTest, MeasurementCountMismatchThrows) {
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    EXPECT_THROW(solver.solve_closed_form({4.0, 4.0}), std::invalid_argument);
    EXPECT_THROW(solver.solve_gauss_newton({4.0, 4.0}, {0, 1, 0}),
                 std::invalid_argument);
}

TEST(SolverTest, ClampsWhenNoiseBreaksConsistency) {
    // Target nearly in the antenna plane: noise can push y^2 negative; the
    // solver should clamp rather than fail.
    const auto g = make_t_array({0, 0, 1.3}, 1.0);
    const EllipsoidSolver solver(g);
    const Vec3 truth{1.0, 0.05, 1.3};
    auto d = round_trips_for(g, truth);
    d[0] += 0.05;  // inconsistent perturbation
    const auto result = solver.solve_closed_form(d);
    ASSERT_TRUE(result.valid);
    EXPECT_GE(result.position.y, 0.0);
}

TEST(SolverTest, CollocatedAntennasRejectedAtConstruction) {
    ArrayGeometry g;
    g.tx = {0, 0, 0};
    g.rx = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
    EXPECT_THROW(EllipsoidSolver{g}, std::invalid_argument);
}

TEST(SolverTest, CollinearAntennasRejectedAtConstruction) {
    ArrayGeometry g;
    g.tx = {0, 0, 0};
    g.rx = {{-1, 0, 0}, {1, 0, 0}, {2, 0, 0}};
    EXPECT_THROW(EllipsoidSolver{g}, std::invalid_argument);
}

}  // namespace
}  // namespace witrack::geom
