#include "core/multi.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/serialize.hpp"

namespace witrack::core {

MultiPersonTracker::MultiPersonTracker(const PipelineConfig& config,
                                       const geom::ArrayGeometry& array,
                                       std::size_t max_people)
    : config_(config),
      localizer_(array, config),
      max_people_(max_people),
      tracks_(max_people) {}

std::vector<TrackPoint> MultiPersonTracker::candidates(const TofFrame& frame,
                                                       double time_s) const {
    // Enumerate one peak choice per antenna (cartesian product, bounded by
    // peaks-per-antenna <= contour_peaks, so at most contour_peaks^3 for a
    // T array).
    std::vector<TrackPoint> result;
    const std::size_t n_rx = frame.antennas.size();
    std::vector<std::size_t> counts(n_rx, 0);
    for (std::size_t rx = 0; rx < n_rx; ++rx) {
        counts[rx] = frame.antennas[rx].peaks.size();
        if (counts[rx] == 0) return result;  // an antenna saw nothing
    }

    std::vector<std::size_t> choice(n_rx, 0);
    while (true) {
        std::vector<double> round_trips(n_rx);
        for (std::size_t rx = 0; rx < n_rx; ++rx)
            round_trips[rx] = frame.antennas[rx].peaks[choice[rx]].round_trip_m;
        if (auto point = localizer_.locate_round_trips(round_trips, time_s, true);
            point && point->residual_rms < 0.6 && std::abs(point->position.x) < 8.0 &&
            point->position.y > 0.5 && point->position.y < 15.0)
            result.push_back(*point);

        // Advance the mixed-radix counter.
        std::size_t rx = 0;
        while (rx < n_rx && ++choice[rx] == counts[rx]) {
            choice[rx] = 0;
            ++rx;
        }
        if (rx == n_rx) break;
    }
    return result;
}

std::vector<MultiPersonTracker::PersonEstimate> MultiPersonTracker::process(
    const TofFrame& frame, double time_s) {
    const double dt = have_time_ ? std::max(1e-4, time_s - last_time_s_)
                                 : config_.fmcw.frame_duration_s();
    last_time_s_ = time_s;
    have_time_ = true;

    auto cands = candidates(frame, time_s);
    std::vector<PersonEstimate> out(tracks_.size());
    std::vector<bool> cand_used(cands.size(), false);

    // Greedy assignment: each initialized track grabs its nearest candidate
    // (within a gate); uninitialized tracks then adopt leftover candidates.
    for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
        auto& track = tracks_[ti];
        if (!track.initialized) continue;
        // Gate against a *copy* of the filter so a missed frame does not
        // advance the state -- otherwise a lost track coasts away at its
        // last velocity forever.
        auto probe = track.filter;
        const auto predicted = probe.predict_only(dt);
        double best_cost = std::numeric_limits<double>::infinity();
        std::size_t best = cands.size();
        for (std::size_t ci = 0; ci < cands.size(); ++ci) {
            if (cand_used[ci]) continue;
            const geom::Vec3 p = cands[ci].position;
            const double cost =
                std::hypot(p.x - predicted.x, p.y - predicted.y, p.z - predicted.z) +
                cands[ci].residual_rms;
            if (cost < best_cost) {
                best_cost = cost;
                best = ci;
            }
        }
        // Continuity gate: a person cannot move more than ~1 m between
        // frames plus noise slack.
        if (best < cands.size() && best_cost < 1.2) {
            cand_used[best] = true;
            const auto& p = cands[best].position;
            const auto filtered = track.filter.update({p.x, p.y, p.z}, dt);
            out[ti] = {{filtered.x, filtered.y, filtered.z}, true};
            track.misses = 0;
        } else {
            const auto held = track.filter.position();
            out[ti] = {{held.x, held.y, held.z}, false};
            // A track that keeps missing has lost its person: release it so
            // it can re-initialize from fresh candidates.
            if (++track.misses > 80) {
                track.filter.reset();
                track.initialized = false;
            }
        }
    }

    for (std::size_t ti = 0; ti < tracks_.size(); ++ti) {
        auto& track = tracks_[ti];
        if (track.initialized) continue;
        // Prefer the strongest remaining candidate (lowest residual).
        double best_res = std::numeric_limits<double>::infinity();
        std::size_t best = cands.size();
        for (std::size_t ci = 0; ci < cands.size(); ++ci) {
            if (cand_used[ci]) continue;
            if (cands[ci].residual_rms < best_res) {
                best_res = cands[ci].residual_rms;
                best = ci;
            }
        }
        if (best < cands.size()) {
            cand_used[best] = true;
            const auto& p = cands[best].position;
            track.filter.update({p.x, p.y, p.z}, dt);
            track.initialized = true;
            out[ti] = {p, true};
        }
    }
    return out;
}

void MultiPersonTracker::save_state(common::StateWriter& writer) const {
    writer.u64(tracks_.size());
    for (const auto& track : tracks_) {
        track.filter.save_state(writer);
        writer.boolean(track.initialized);
        writer.u64(track.misses);
    }
    writer.f64(last_time_s_);
    writer.boolean(have_time_);
}

void MultiPersonTracker::load_state(common::StateReader& reader) {
    const auto count = static_cast<std::size_t>(reader.u64());
    if (count != tracks_.size())
        throw std::runtime_error("MultiPersonTracker: snapshot track count mismatch");
    for (auto& track : tracks_) {
        track.filter.load_state(reader);
        track.initialized = reader.boolean();
        track.misses = static_cast<std::size_t>(reader.u64());
    }
    last_time_s_ = reader.f64();
    have_time_ = reader.boolean();
}

}  // namespace witrack::core
