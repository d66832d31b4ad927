// Unit tests for src/common: FMCW parameter derivations (paper Eq. 1-4),
// unit conversions, the deterministic RNG, the latency histogram and the
// CRC-32 that frames snapshot chunks and WTNF datagrams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "common/cli.hpp"
#include "common/constants.hpp"
#include "common/latency.hpp"
#include "common/random.hpp"
#include "common/serialize.hpp"
#include "common/units.hpp"
#include "net/frame_protocol.hpp"

namespace witrack {
namespace {

TEST(FmcwParams, PaperDefaultsMatchSection4) {
    FmcwParams p;
    EXPECT_DOUBLE_EQ(p.bandwidth_hz, 1.69e9);
    EXPECT_DOUBLE_EQ(p.sweep_duration_s, 2.5e-3);
    EXPECT_EQ(p.samples_per_sweep(), 2500u);
    EXPECT_EQ(p.sweeps_per_frame, 5u);
    EXPECT_NEAR(p.frame_duration_s(), 12.5e-3, 1e-12);
    EXPECT_NEAR(p.frame_rate_hz(), 80.0, 1e-9);
}

TEST(FmcwParams, RangeResolutionIsEightPointEightCentimeters) {
    // Eq. 3: resolution = C / 2B = 8.87 cm for B = 1.69 GHz.
    FmcwParams p;
    EXPECT_NEAR(p.range_resolution_m(), 0.0887, 0.0005);
}

TEST(FmcwParams, RoundTripBinIsTwiceTheResolution) {
    FmcwParams p;
    EXPECT_NEAR(p.round_trip_bin_m(), 2.0 * p.range_resolution_m(), 1e-9);
}

TEST(FmcwParams, SlopeMatchesBandwidthOverSweepTime) {
    FmcwParams p;
    EXPECT_NEAR(p.slope(), 1.69e9 / 2.5e-3, 1.0);
}

TEST(FmcwParams, BeatFrequencyFollowsEqOne) {
    // Eq. 1: TOF = df / slope. A 10 m round trip -> TOF = 33.36 ns.
    FmcwParams p;
    const double tof = 10.0 / kSpeedOfLight;
    const double beat = p.beat_frequency_hz(tof);
    EXPECT_NEAR(beat / p.slope(), tof, 1e-15);
}

TEST(FmcwParams, MaxRoundTripExceedsPaperSpectrogramRange) {
    // The paper's spectrograms (Fig. 3) display up to 30 m round trip; the
    // 1 MS/s digitizer must cover that unambiguously.
    FmcwParams p;
    EXPECT_GT(p.max_round_trip_m(), 30.0);
}

TEST(FmcwParams, ValidateRejectsBadConfigs) {
    FmcwParams p;
    p.bandwidth_hz = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = FmcwParams{};
    p.sweeps_per_frame = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = FmcwParams{};
    EXPECT_NO_THROW(p.validate());
}

TEST(Units, DbRoundTrip) {
    EXPECT_NEAR(from_db(to_db(123.456)), 123.456, 1e-9);
    EXPECT_NEAR(to_db(100.0), 20.0, 1e-12);
    EXPECT_NEAR(amplitude_to_db(10.0), 20.0, 1e-12);
}

TEST(Units, DbmWattRoundTrip) {
    EXPECT_NEAR(watt_to_dbm(0.75e-3), -1.2494, 1e-3);  // the paper's 0.75 mW
    EXPECT_NEAR(dbm_to_watt(watt_to_dbm(0.5)), 0.5, 1e-12);
}

TEST(Units, AngleConversions) {
    EXPECT_NEAR(deg_to_rad(180.0), M_PI, 1e-12);
    EXPECT_NEAR(rad_to_deg(M_PI / 2.0), 90.0, 1e-12);
    EXPECT_NEAR(wrap_angle(3.0 * M_PI), M_PI, 1e-9);
    EXPECT_NEAR(wrap_angle(-3.0 * M_PI), M_PI, 1e-9);
}

TEST(Rng, DeterministicForSameSeed) {
    Rng a(7), b(7);
    for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(7), b(8);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        if (a.uniform() == b.uniform()) ++equal;
    EXPECT_LT(equal, 5);
}

TEST(Rng, GaussianMoments) {
    Rng rng(123);
    double sum = 0.0, sum2 = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian(2.0, 1.0);
        sum += v;
        sum2 += v * v;
    }
    const double mean = sum / n;
    const double var = sum2 / n - mean * mean;
    EXPECT_NEAR(mean, 1.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, RayleighMean) {
    Rng rng(5);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += rng.rayleigh(1.0);
    EXPECT_NEAR(sum / n, std::sqrt(M_PI / 2.0), 0.02);
}

TEST(Rng, ForkedStreamsAreDecorrelated) {
    Rng parent(9);
    Rng a = parent.fork(0);
    Rng b = parent.fork(1);
    double corr = 0.0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) corr += (a.uniform() - 0.5) * (b.uniform() - 0.5);
    EXPECT_NEAR(corr / n, 0.0, 0.01);
}

TEST(SplitMix64, MatchesReferenceOutputs) {
    // First outputs of the reference splitmix64.c for state 1234567.
    SplitMix64 gen(1234567);
    const std::uint64_t expected[] = {6457827717110365317ull, 3203168211198807973ull,
                                      9817491932198370423ull, 4593380528125082431ull,
                                      16408922859458223821ull};
    for (const std::uint64_t want : expected) EXPECT_EQ(gen.next(), want);
}

TEST(Rng, GoldenStreams) {
    // The simulator's output is a function of these streams. They are pinned
    // by integer arithmetic plus IEEE double ops (and libm's log), so they
    // must not move across standard libraries or dispatch levels.
    struct Golden {
        std::uint64_t seed;
        double uniform[6];
        double gaussian[6];
        int uniform_int[12];  // uniform_int(-3, 9)
    };
    const Golden golden[] = {
        {0x5eedca11f00dbeefull,
         {0x1.d57e2d93c79a0p-6, 0x1.30fb3deafae3fp-1, 0x1.fa4ad4755b052p-2,
          0x1.8670deac6b8acp-3, 0x1.0cd74a9aa5269p-1, 0x1.acea54095e740p-1},
         {-0x1.8b85fa2d00b7bp-2, 0x1.411c661c8b1e9p-4, -0x1.98f681c42ee5bp-6,
          -0x1.62a677c71cd3ap+0, 0x1.7ab0b28e22d00p-4, 0x1.3eb6753e57f0fp+0},
         {6, -2, -3, 1, 9, 7, 0, 5, -1, 7, 2, 7}},
        {7919,
         {0x1.0db5ae128cc50p-2, 0x1.a91b6f4c9d965p-1, 0x1.ec23fc15bca40p-7,
          0x1.b0cb408e166d1p-1, 0x1.a63488b25eb30p-1, 0x1.5f35e18c771ccp-3},
         {-0x1.0faac5b73dae6p-1, 0x1.7b38b575a2b09p-1, 0x1.9597659c07159p-2,
          -0x1.9a73f12cd2cf7p-2, 0x1.3abf417e4a497p+0, -0x1.3a5f4aa449457p+0},
         {-3, -1, 9, 3, 3, 3, 1, 3, 4, 3, -2, 6}},
    };
    for (const auto& g : golden) {
        SCOPED_TRACE(g.seed);
        Rng u(g.seed), n(g.seed), k(g.seed);
        for (const double want : g.uniform) EXPECT_EQ(u.uniform(), want);
        for (const double want : g.gaussian) EXPECT_EQ(n.gaussian(), want);
        for (const int want : g.uniform_int) EXPECT_EQ(k.uniform_int(-3, 9), want);
    }
}

TEST(Rng, GaussianDistribution) {
    // Standard-normal shape from 200k draws: mean, variance and kurtosis
    // within ~5 standard errors, and a chi-square over 20 equiprobable bins
    // against the df = 19, p = 0.001 critical value.
    constexpr int kDraws = 200000;
    constexpr int kBins = 20;
    constexpr double kChiSquareCritical = 43.82;

    // Bin edges: the standard-normal quantiles at j / kBins, by bisection
    // on the CDF.
    std::vector<double> edges;
    for (int j = 1; j < kBins; ++j) {
        const double p = static_cast<double>(j) / kBins;
        double lo = -10.0, hi = 10.0;
        for (int it = 0; it < 200; ++it) {
            const double mid = 0.5 * (lo + hi);
            (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
        }
        edges.push_back(0.5 * (lo + hi));
    }

    Rng rng(2024);
    std::vector<int> counts(kBins, 0);
    double m1 = 0.0, m2 = 0.0, m4 = 0.0;
    for (int i = 0; i < kDraws; ++i) {
        const double z = rng.gaussian();
        m1 += z;
        m2 += z * z;
        m4 += z * z * z * z;
        ++counts[std::upper_bound(edges.begin(), edges.end(), z) - edges.begin()];
    }
    m1 /= kDraws;
    m2 /= kDraws;
    m4 /= kDraws;
    EXPECT_NEAR(m1, 0.0, 5.0 / std::sqrt(kDraws));
    EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / kDraws));
    EXPECT_NEAR(m4 / (m2 * m2), 3.0, 5.0 * std::sqrt(24.0 / kDraws));

    const double expected = static_cast<double>(kDraws) / kBins;
    double chi2 = 0.0;
    for (const int c : counts) chi2 += (c - expected) * (c - expected) / expected;
    EXPECT_LT(chi2, kChiSquareCritical);
}

TEST(Rng, AddGaussianMatchesRepeatedDraws) {
    // Odd lengths, so the pending second value of a pair crosses call
    // boundaries in both directions.
    Rng bulk(99), single(99);
    std::vector<double> a(2501, 0.5);
    std::vector<double> b = a;
    bulk.add_gaussian(std::span<double>(a).first(7), 3.0);
    for (std::size_t i = 0; i < 7; ++i) b[i] += single.gaussian(3.0);
    EXPECT_EQ(bulk.gaussian(3.0), single.gaussian(3.0));
    bulk.add_gaussian(a, 3.0);
    for (auto& v : b) v += single.gaussian(3.0);
    for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]) << i;
}

TEST(Rng, UniformIntCoversRangeUniformly) {
    Rng rng(31);
    constexpr int kDraws = 60000;
    std::vector<int> counts(6, 0);
    for (int i = 0; i < kDraws; ++i) {
        const int v = rng.uniform_int(1, 6);
        ASSERT_GE(v, 1);
        ASSERT_LE(v, 6);
        ++counts[v - 1];
    }
    // df = 5, p = 0.001 critical value.
    double chi2 = 0.0;
    for (const int c : counts) chi2 += (c - kDraws / 6.0) * (c - kDraws / 6.0) / (kDraws / 6.0);
    EXPECT_LT(chi2, 20.52);
    EXPECT_EQ(rng.uniform_int(4, 4), 4);
    for (int i = 0; i < 100; ++i) {
        rng.uniform_int(std::numeric_limits<int>::min(),
                        std::numeric_limits<int>::max());
        const int w = rng.uniform_int(-2, -1);
        EXPECT_TRUE(w == -2 || w == -1);
    }
}

TEST(Cli, ParsesKeyValueAndFlags) {
    const char* argv[] = {"prog", "--experiments", "17", "--csv", "/tmp/x.csv", "--quick"};
    CliArgs args(6, const_cast<char**>(argv));
    EXPECT_EQ(args.get_int("experiments", 0), 17);
    EXPECT_EQ(args.get("csv"), "/tmp/x.csv");
    EXPECT_TRUE(args.quick());
    EXPECT_FALSE(args.has("seconds"));
    EXPECT_EQ(args.get_int("seconds", 60), 60);
}

TEST(Cli, SeedDefaultsAndOverrides) {
    const char* argv[] = {"prog", "--seed", "1234"};
    CliArgs args(3, const_cast<char**>(argv));
    EXPECT_EQ(args.get_seed(), 1234u);
    CliArgs empty(0, nullptr);
    EXPECT_EQ(empty.get_seed(99), 99u);
}

// ------------------------------------------------------- latency histogram

/// Log-uniform samples from 100 ns to 100 ms, the range frame timings span.
std::vector<double> latency_samples(std::uint64_t seed, std::size_t n) {
    Rng rng(seed);
    std::vector<double> out(n);
    for (double& s : out) s = 1e-7 * std::pow(10.0, rng.uniform(0.0, 6.0));
    return out;
}

TEST(LatencyHistogram, EmptyReadsAllZeros) {
    const common::LatencyHistogram h;
    EXPECT_EQ(h.frames, 0u);
    EXPECT_EQ(h.total_s, 0.0);
    EXPECT_EQ(h.max_s, 0.0);
    EXPECT_EQ(h.mean_s(), 0.0);
    EXPECT_EQ(h.quantile_s(0.5), 0.0);
    EXPECT_EQ(h.quantile_s(1.0), 0.0);
    EXPECT_LT(sizeof h, 2048u);
}

TEST(LatencyHistogram, QuantilesWithinOneBucketOfTheExactQuantile) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        auto samples = latency_samples(seed, 5000);
        common::LatencyHistogram h;
        for (const double s : samples) h.add(s);
        std::sort(samples.begin(), samples.end());
        EXPECT_EQ(h.frames, samples.size());
        EXPECT_EQ(h.max_s, samples.back());
        for (const double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0}) {
            const auto rank = std::max<std::size_t>(
                1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size()))));
            const double exact = samples[rank - 1];
            // A bucket is at most 1/8 of its lower bound wide (plus the
            // nanosecond the sample was truncated to).
            EXPECT_NEAR(h.quantile_s(q), exact, exact / 8.0 + 1e-9)
                << "seed " << seed << " q " << q;
        }
        EXPECT_EQ(h.quantile_s(1.0), h.max_s);
    }
}

TEST(LatencyHistogram, MergeEqualsAddingEverySampleToOne) {
    const auto a_samples = latency_samples(11, 700);
    const auto b_samples = latency_samples(12, 1300);
    common::LatencyHistogram a, b, all;
    for (const double s : a_samples) a.add(s), all.add(s);
    for (const double s : b_samples) b.add(s), all.add(s);
    a.merge(b);
    EXPECT_EQ(a.frames, all.frames);
    EXPECT_EQ(a.counts, all.counts);
    EXPECT_EQ(a.max_s, all.max_s);
    EXPECT_NEAR(a.total_s, all.total_s, 1e-12 * all.total_s);
    for (const double q : {0.5, 0.9, 0.99}) EXPECT_EQ(a.quantile_s(q), all.quantile_s(q));
}

TEST(LatencyHistogram, ResetEmptiesEverything) {
    common::LatencyHistogram h;
    for (const double s : latency_samples(5, 100)) h.add(s);
    h.reset();
    const common::LatencyHistogram empty;
    EXPECT_EQ(h.frames, 0u);
    EXPECT_EQ(h.total_s, 0.0);
    EXPECT_EQ(h.max_s, 0.0);
    EXPECT_EQ(h.counts, empty.counts);
    EXPECT_EQ(h.quantile_s(0.99), 0.0);
}

TEST(LatencyHistogram, SamplesPastTheTopBucketClampButKeepMaxExact) {
    common::LatencyHistogram h;
    h.add(1e-3);
    h.add(10.0);
    h.add(123.456);
    EXPECT_EQ(h.frames, 3u);
    EXPECT_EQ(h.max_s, 123.456);
    EXPECT_DOUBLE_EQ(h.total_s, 1e-3 + 10.0 + 123.456);
    EXPECT_EQ(h.counts.back(), 2u);
    EXPECT_EQ(h.quantile_s(1.0), 123.456);
    EXPECT_GT(h.quantile_s(0.5), 4.0);  // the top bucket starts near 2^32 ns
    EXPECT_LE(h.quantile_s(0.5), h.max_s);
}

TEST(LatencyHistogram, ScopedLatencyRecordsOneSampleOnTheProfileClock) {
    common::LatencyHistogram h;
    const std::uint64_t start = common::profile_ticks();
    {
        const common::ScopedLatency timer(h);
        volatile double sink = 0.0;
        for (int i = 0; i < 1000; ++i) sink = sink + std::sqrt(static_cast<double>(i));
    }
    const double outer = common::seconds_since(start);
    EXPECT_EQ(h.frames, 1u);
    EXPECT_GT(h.total_s, 0.0);
    EXPECT_LE(h.total_s, outer);
}

// ------------------------------------------------------------------ CRC-32

/// The definition, one byte per step: what common::crc32 must equal.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t len) {
    std::uint32_t crc = ~0u;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return ~crc;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<std::uint8_t> bytes(n);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.next());
    return bytes;
}

TEST(Crc32, IsoHdlcCheckValue) {
    const char check[] = "123456789";
    EXPECT_EQ(common::crc32(check, 9), 0xCBF43926u);
    EXPECT_EQ(common::crc32(check, 0), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
    // Lengths 0-2048 from start offsets 0-7 cover every alignment and
    // every tail the eight-byte loop leaves.
    const auto bytes = random_bytes(2048 + 8, 17);
    for (std::size_t offset = 0; offset < 8; ++offset)
        for (std::size_t len = 0; len <= 2048; ++len)
            ASSERT_EQ(common::crc32(bytes.data() + offset, len),
                      crc32_bytewise(bytes.data() + offset, len))
                << "offset " << offset << " length " << len;
}

TEST(Crc32, ChainedCallsEqualOneCall) {
    // StateWriter frames a chunk as crc32(payload, crc32(len, crc32(tag))).
    const auto bytes = random_bytes(1000, 23);
    const std::uint32_t whole = common::crc32(bytes.data(), bytes.size());
    for (const std::size_t cut : {0, 1, 4, 7, 12, 13, 500, 999, 1000}) {
        std::uint32_t crc = common::crc32(bytes.data(), cut);
        crc = common::crc32(bytes.data() + cut, bytes.size() - cut, crc);
        EXPECT_EQ(crc, whole) << "cut at " << cut;
    }
    std::uint32_t crc = common::crc32(bytes.data(), 4);
    crc = common::crc32(bytes.data() + 4, 8, crc);
    crc = common::crc32(bytes.data() + 12, bytes.size() - 12, crc);
    EXPECT_EQ(crc, whole);
}

TEST(Crc32, PinnedSnapshotChunkCrcs) {
    // Chunk CRCs of this stream as the byte-at-a-time CRC wrote them: a
    // snapshot saved before still verifies.
    std::stringstream stream;
    {
        common::StateWriter writer(stream, 0x54534554u, 1);
        writer.begin_chunk("DATA");
        writer.u64(0x0123456789ABCDEFull);
        writer.f64(0.25);
        writer.end_chunk();
        writer.finish();
    }
    const std::string bytes = stream.str();
    ASSERT_EQ(bytes.size(), 56u);
    // header 8 | tag 4 | length 8 | payload 16 | crc at 36 | END chunk
    std::uint32_t data_crc = 0, end_crc = 0;
    std::memcpy(&data_crc, bytes.data() + 36, sizeof data_crc);
    std::memcpy(&end_crc, bytes.data() + bytes.size() - 4, sizeof end_crc);
    EXPECT_EQ(data_crc, 0xC848A3F5u);
    EXPECT_EQ(end_crc, 0x428B111Fu);

    common::StateReader reader(stream, 0x54534554u, 1);
    reader.open_chunk("DATA");
    EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(reader.f64(), 0.25);
    reader.close_chunk();
}

/// The trailer of a WTNF datagram: its last four bytes.
std::uint32_t trailer(const net::Datagram& datagram) {
    std::uint32_t crc = 0;
    std::memcpy(&crc, datagram.data() + datagram.size() - net::kTrailerBytes, sizeof crc);
    return crc;
}

TEST(Crc32, PinnedWtnfTrailersMatchVersionTwoSenders) {
    // Trailers of these exact datagrams as the byte-at-a-time CRC of
    // protocol version 2 computed them: a receiver built today must accept
    // what earlier v2 senders put on the wire, byte for byte.
    ASSERT_EQ(net::kProtocolVersion, 2);
    engine::Frame frame;
    frame.time_s = 0.25;
    frame.sweeps.resize(2, 1, 4);
    for (std::size_t i = 0; i < frame.sweeps.size(); ++i)
        frame.sweeps.data()[i] = 0.5 * static_cast<double>(i) - 1.0;
    frame.truth = engine::GroundTruth{geom::Vec3{0.1, 4.5, -0.2}, std::nullopt};
    const auto datagrams = net::pack_frame(frame, 0x0123456789ABCDEFull, 42);
    ASSERT_EQ(datagrams.size(), 1u);
    ASSERT_EQ(datagrams[0].size(), 156u);
    EXPECT_EQ(trailer(datagrams[0]), 0x4FFF7E9Fu);

    const auto eos = net::pack_end_of_stream(0x0123456789ABCDEFull, 43);
    ASSERT_EQ(eos.size(), 36u);
    EXPECT_EQ(trailer(eos), 0x9EA9184Au);
}

}  // namespace
}  // namespace witrack
