// Tests of the benchmark's own statistics: the tail-support rule, the
// smoothed quantile estimator, per-window quantiles, ratio rendering and
// the track digest.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {
namespace {

TEST(PercentileSupport, TenSamplesBeyondP99NeedsAThousand) {
    // p99 of 1000 samples is rank 990: exactly 10 beyond it, the fewest a
    // tail percentile may rest on. One sample fewer leaves 9.
    static_assert(samples_beyond(1000, 99.0) == 10);
    EXPECT_EQ(samples_beyond(999, 99.0), 9u);
    EXPECT_EQ(samples_beyond(10000, 99.9), 10u);
    EXPECT_EQ(samples_beyond(20, 50.0), 10u);
    EXPECT_EQ(samples_beyond(0, 99.0), 0u);
}

TEST(WindowQuantiles, ReducesEachFullWindowAndDropsThePartialOne) {
    WindowQuantiles windows(1000, {0.5, 0.99});
    // Window w holds 1000 values in [w, w + 1); a partial third window follows.
    for (int w = 0; w < 2; ++w)
        for (int i = 0; i < 1000; ++i) windows.add(w + i / 1000.0);
    for (int i = 0; i < 999; ++i) windows.add(100.0);
    ASSERT_EQ(windows.windows(), 2u);
    // per_window(i)[w]: quantile i of window w.
    EXPECT_NEAR(windows.per_window(0)[0], 0.5, 1e-3);
    EXPECT_NEAR(windows.per_window(1)[0], 0.99, 1e-3);
    EXPECT_NEAR(windows.per_window(0)[1], 1.5, 1e-3);
    EXPECT_NEAR(windows.per_window(1)[1], 1.99, 1e-3);
    windows.add(100.0);  // completes the third window
    ASSERT_EQ(windows.windows(), 3u);
    EXPECT_DOUBLE_EQ(windows.per_window(0)[2], 100.0);
}

TEST(Quantile, MatchesOrderStatisticsOnSymmetricData) {
    std::vector<double> values;
    for (int i = 1; i <= 1001; ++i) values.push_back(i);
    // Harrell-Davis places quantile q of n ranks near rank q n + 1/2.
    EXPECT_NEAR(quantile(values, 0.5), 501.0, 1e-9);
    EXPECT_NEAR(quantile(values, 0.9), 0.9 * 1001 + 0.5, 0.05);
    EXPECT_NEAR(quantile(values, 0.99), 0.99 * 1001 + 0.5, 0.05);
    EXPECT_EQ(quantile({7.0}, 0.5), 7.0);
    EXPECT_EQ(quantile(std::vector<double>(50, 3.0), 0.99), 3.0);
    EXPECT_TRUE(std::isnan(quantile({}, 0.5)));
}

TEST(Quantile, MedianOfTwoEqualClustersSitsBetweenThem) {
    // Two sessions per round: half the latencies near 1 ms, half near 2 ms.
    // A single order statistic flips between the clusters when one sample
    // moves across; the smoothed estimate stays between them.
    std::vector<double> values;
    for (int i = 0; i < 500; ++i) values.push_back(1.0 + i * 1e-4);
    for (int i = 0; i < 500; ++i) values.push_back(2.0 + i * 1e-4);
    const double median = quantile(values, 0.5);
    EXPECT_GT(median, 1.04);
    EXPECT_LT(median, 1.96);
    std::vector<double> shifted(values.begin() + 1, values.end());
    shifted.push_back(2.06);
    EXPECT_NEAR(quantile(shifted, 0.5), median, 0.1);
}

TEST(Ratio, AlwaysRenderedWithItsBase) {
    const Ratio delivered{640, 1000};
    EXPECT_DOUBLE_EQ(delivered.value(), 0.64);
    const std::string text = describe(delivered, "frames sent");
    EXPECT_NE(text.find("0.6400"), std::string::npos) << text;
    EXPECT_NE(text.find("640 of 1000 frames sent"), std::string::npos) << text;
    // An empty base reads as zero, and still shows the base.
    EXPECT_EQ(Ratio{}.value(), 0.0);
    EXPECT_NE(describe(Ratio{}, "frames generated").find("0 of 0 frames generated"),
              std::string::npos);
}

TEST(TrackDigest, SameTrackSameDigest) {
    TrackDigest a, b;
    for (int i = 0; i < 100; ++i) {
        a.add(i * 0.0125, i % 7 != 0, 0.1 * i, 5.0, 1.0);
        b.add(i * 0.0125, i % 7 != 0, 0.1 * i, 5.0, 1.0);
    }
    EXPECT_EQ(a.value(), b.value());
}

TEST(TrackDigest, DetectsAnyBitChangeOrReorder) {
    TrackDigest base, changed, reordered, lost_fix;
    base.add(0.0, true, 1.0, 2.0, 3.0);
    base.add(0.0125, true, 1.5, 2.0, 3.0);
    changed.add(0.0, true, 1.0, 2.0, 3.0);
    changed.add(0.0125, true, std::nextafter(1.5, 2.0), 2.0, 3.0);
    reordered.add(0.0125, true, 1.5, 2.0, 3.0);
    reordered.add(0.0, true, 1.0, 2.0, 3.0);
    lost_fix.add(0.0, true, 1.0, 2.0, 3.0);
    lost_fix.add(0.0125, false, 0.0, 0.0, 0.0);
    EXPECT_NE(base.value(), changed.value());
    EXPECT_NE(base.value(), reordered.value());
    EXPECT_NE(base.value(), lost_fix.value());
}

TEST(DeriveSeed, DistinctPerPurposeSlotAndEpisode) {
    const std::uint64_t s = derive_seed(1, 1, 0, 0);
    EXPECT_EQ(s, derive_seed(1, 1, 0, 0));
    EXPECT_NE(s, derive_seed(2, 1, 0, 0));
    EXPECT_NE(s, derive_seed(1, 2, 0, 0));
    EXPECT_NE(s, derive_seed(1, 1, 1, 0));
    EXPECT_NE(s, derive_seed(1, 1, 0, 1));
    EXPECT_NE(derive_seed(1, 1, 1, 0), derive_seed(1, 1, 0, 1));
}

}  // namespace
}  // namespace perfbench
