#include "hw/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/serialize.hpp"

namespace witrack::hw {

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), rng_(config_.seed + SplitMix64::kGamma) {}

const FaultWindow* FaultInjector::active_window(FaultWindow::Kind kind,
                                                double time_s, int rx) const {
    // Last matching entry wins, so a later schedule line can refine an
    // earlier blanket one ("all lanes clip" ... "but RX 1 clips harder").
    const FaultWindow* hit = nullptr;
    for (const auto& w : config_.schedule) {
        if (w.kind != kind) continue;
        if (time_s < w.start_s || time_s >= w.end_s) continue;
        if (w.rx >= 0 && rx >= 0 && w.rx != rx) continue;
        hit = &w;
    }
    return hit;
}

void FaultInjector::kill_lane(FrameBuffer& frame, std::size_t rx) {
    auto lane = frame.antenna(rx);
    std::fill(lane.begin(), lane.end(), 0.0);
}

void FaultInjector::saturate_lane(FrameBuffer& frame, std::size_t rx,
                                  double level) {
    auto lane = frame.antenna(rx);
    double peak = 0.0;
    for (double v : lane) peak = std::max(peak, std::abs(v));
    const double clip = level * peak;
    for (double& v : lane) v = std::clamp(v, -clip, clip);
}

void FaultInjector::burst_lane(FrameBuffer& frame, std::size_t rx,
                               double gain) {
    const std::size_t samples = frame.samples_per_sweep();
    if (samples == 0 || frame.num_sweeps() == 0) return;
    const std::size_t s = rng_.next() % frame.num_sweeps();
    auto sweep = frame.sweep(rx, s);
    double sum_sq = 0.0;
    for (double v : sweep) sum_sq += v * v;
    double rms = std::sqrt(sum_sq / static_cast<double>(samples));
    if (rms == 0.0) rms = 1.0;  // a dead-quiet lane still shows the burst
    const double amp = gain * rms;
    const std::size_t len = std::min(samples, std::max<std::size_t>(4, samples / 8));
    const std::size_t start = rng_.next() % (samples - len + 1);
    // Alternating-sign impulse train: broadband, so it smears across range
    // bins the way a real interferer does instead of biasing one bin.
    for (std::size_t i = 0; i < len; ++i)
        sweep[start + i] += (i & 1) ? -amp : amp;
}

void FaultInjector::drift_frame(FrameBuffer& frame, double ppm) {
    // A drifted sweep clock stretches the baseband time axis by
    // (1 + ppm * 1e-6): resample each sweep with linear interpolation.
    const double factor = 1.0 + ppm * 1e-6;
    const std::size_t samples = frame.samples_per_sweep();
    if (samples < 2) return;
    for (std::size_t rx = 0; rx < frame.num_rx(); ++rx) {
        for (std::size_t s = 0; s < frame.num_sweeps(); ++s) {
            auto sweep = frame.sweep(rx, s);
            scratch_.assign(sweep.begin(), sweep.end());
            for (std::size_t i = 0; i < samples; ++i) {
                double pos = static_cast<double>(i) * factor;
                if (pos > static_cast<double>(samples - 1))
                    pos = static_cast<double>(samples - 1);
                const auto i0 = static_cast<std::size_t>(pos);
                const double frac = pos - static_cast<double>(i0);
                const std::size_t i1 = std::min(i0 + 1, samples - 1);
                sweep[i] = scratch_[i0] * (1.0 - frac) + scratch_[i1] * frac;
            }
        }
    }
}

void FaultInjector::apply(FrameBuffer& frame, double time_s) {
    const std::size_t num_rx = frame.num_rx();
    FrameQuality& q = frame.quality();
    q.reset(num_rx);
    if (frame.empty()) return;

    // Frame-level drift decision first, so per-lane randomness never
    // perturbs whether this frame drifts.
    const FaultWindow* dw =
        active_window(FaultWindow::Kind::kDrift, time_s, -1);
    const bool drift = dw != nullptr || rng_.roll(config_.drift_rate);
    const double drift_ppm = dw ? dw->magnitude : config_.drift_ppm;

    for (std::size_t rx = 0; rx < num_rx; ++rx) {
        const int lane = static_cast<int>(rx);
        // A dropout beats every other fault on the lane (like drop beats
        // duplicate in the net injector): the lane contributes exactly one
        // rx_dropouts count and nothing else, so counters and FrameQuality
        // flags stay in 1:1 correspondence.
        if (active_window(FaultWindow::Kind::kDropout, time_s, lane) ||
            rng_.roll(config_.dropout_rate)) {
            kill_lane(frame, rx);
            q.rx[rx].valid = false;
            ++counters_.rx_dropouts;
            continue;
        }
        if (const auto* w =
                active_window(FaultWindow::Kind::kSaturation, time_s, lane);
            w != nullptr || rng_.roll(config_.saturation_rate)) {
            saturate_lane(frame, rx, w ? w->magnitude : config_.saturation_level);
            q.rx[rx].saturated = true;
            ++counters_.saturated_rx;
        }
        if (const auto* w =
                active_window(FaultWindow::Kind::kBurst, time_s, lane);
            w != nullptr || rng_.roll(config_.burst_rate)) {
            burst_lane(frame, rx, w ? w->magnitude : config_.burst_gain);
            q.rx[rx].burst = true;
            ++counters_.noise_bursts;
        }
        // Per-sweep faults: a schedule window overrides the base rate.
        const auto* wd =
            active_window(FaultWindow::Kind::kSweepDrop, time_s, lane);
        const auto* ws =
            active_window(FaultWindow::Kind::kSweepShort, time_s, lane);
        const double drop_rate = wd ? wd->magnitude : config_.sweep_drop_rate;
        const double short_rate = ws ? ws->magnitude : config_.sweep_short_rate;
        if (drop_rate > 0.0 || short_rate > 0.0) {
            for (std::size_t s = 0; s < frame.num_sweeps(); ++s) {
                if (rng_.roll(drop_rate)) {
                    auto sweep = frame.sweep(rx, s);
                    std::fill(sweep.begin(), sweep.end(), 0.0);
                    ++q.rx[rx].dropped_sweeps;
                    ++counters_.dropped_sweeps;
                } else if (rng_.roll(short_rate)) {
                    auto sweep = frame.sweep(rx, s);
                    std::fill(sweep.begin() +
                                  static_cast<std::ptrdiff_t>(sweep.size() / 2),
                              sweep.end(), 0.0);
                    ++q.rx[rx].short_sweeps;
                    ++counters_.short_sweeps;
                }
            }
        }
    }

    if (drift) {
        drift_frame(frame, drift_ppm);
        q.clock_drift = true;
        for (std::size_t rx = 0; rx < num_rx; ++rx)
            if (q.rx[rx].valid) q.rx[rx].jitter = true;
        ++counters_.drift_frames;
    }

    q.recompute_health(frame.num_sweeps());
}

void FaultInjector::save_state(common::StateWriter& writer) const {
    writer.u64(rng_.state());
    writer.u64(counters_.rx_dropouts);
    writer.u64(counters_.saturated_rx);
    writer.u64(counters_.dropped_sweeps);
    writer.u64(counters_.short_sweeps);
    writer.u64(counters_.noise_bursts);
    writer.u64(counters_.drift_frames);
}

void FaultInjector::load_state(common::StateReader& reader) {
    rng_.set_state(reader.u64());
    counters_.rx_dropouts = reader.u64();
    counters_.saturated_rx = reader.u64();
    counters_.dropped_sweeps = reader.u64();
    counters_.short_sweeps = reader.u64();
    counters_.noise_bursts = reader.u64();
    counters_.drift_frames = reader.u64();
}

namespace {

double parse_double(const std::string& key, const std::string& value) {
    std::size_t used = 0;
    double parsed = 0.0;
    try {
        parsed = std::stod(value, &used);
    } catch (const std::exception&) {
        throw std::invalid_argument("hw fault spec: bad value for '" + key +
                                    "': '" + value + "'");
    }
    if (used != value.size() || !std::isfinite(parsed))
        throw std::invalid_argument("hw fault spec: bad value for '" + key +
                                    "': '" + value + "'");
    return parsed;
}

double parse_rate(const std::string& key, const std::string& value) {
    const double rate = parse_double(key, value);
    if (rate < 0.0 || rate > 1.0)
        throw std::invalid_argument("hw fault spec: '" + key +
                                    "' must be in [0, 1], got '" + value + "'");
    return rate;
}

std::string trim(const std::string& s) {
    const auto begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos) return {};
    const auto end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

}  // namespace

FaultConfig parse_fault_spec(const std::string& spec) {
    FaultConfig config;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t comma = std::min(spec.find(',', pos), spec.size());
        const std::string entry = trim(spec.substr(pos, comma - pos));
        pos = comma + 1;
        if (entry.empty()) continue;
        const std::size_t eq = entry.find('=');
        if (eq == std::string::npos)
            throw std::invalid_argument(
                "hw fault spec: expected key=value, got '" + entry + "'");
        const std::string key = trim(entry.substr(0, eq));
        const std::string value = trim(entry.substr(eq + 1));
        if (key == "dropout") {
            config.dropout_rate = parse_rate(key, value);
        } else if (key == "saturation") {
            config.saturation_rate = parse_rate(key, value);
        } else if (key == "sat_level") {
            config.saturation_level = parse_double(key, value);
            if (config.saturation_level <= 0.0)
                throw std::invalid_argument(
                    "hw fault spec: 'sat_level' must be > 0");
        } else if (key == "sweep_drop") {
            config.sweep_drop_rate = parse_rate(key, value);
        } else if (key == "sweep_short") {
            config.sweep_short_rate = parse_rate(key, value);
        } else if (key == "drift") {
            config.drift_rate = parse_rate(key, value);
        } else if (key == "drift_ppm") {
            config.drift_ppm = parse_double(key, value);
        } else if (key == "burst") {
            config.burst_rate = parse_rate(key, value);
        } else if (key == "burst_gain") {
            config.burst_gain = parse_double(key, value);
            if (config.burst_gain < 0.0)
                throw std::invalid_argument(
                    "hw fault spec: 'burst_gain' must be >= 0");
        } else if (key == "seed") {
            try {  // digits only: std::stoull would wrap a sign ("-1")
                if (value.empty() ||
                    value.find_first_not_of("0123456789") != std::string::npos)
                    throw std::invalid_argument(value);
                config.seed = std::stoull(value);
            } catch (const std::exception&) {
                throw std::invalid_argument(
                    "hw fault spec: bad value for 'seed': '" + value + "'");
            }
        } else {
            throw std::invalid_argument("hw fault spec: unknown key '" + key +
                                        "'");
        }
    }
    return config;
}

}  // namespace witrack::hw
