#include "core/tracker.hpp"

#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace witrack::core {

namespace {

void save_track(common::StateWriter& writer, const std::vector<TrackPoint>& track) {
    writer.u64(track.size());
    for (const auto& point : track) save_state(writer, point);
}

std::vector<TrackPoint> load_track(common::StateReader& reader) {
    std::vector<TrackPoint> track(reader.count(kTrackPointStateBytes));
    for (auto& point : track) load_state(reader, point);
    return track;
}

}  // namespace

WiTrackTracker::WiTrackTracker(const PipelineConfig& config,
                               const geom::ArrayGeometry& array)
    : config_(config),
      tof_(config, array.rx.size()),
      localizer_(array, config),
      smooth_step_(config) {}

const WiTrackTracker::FrameResult& WiTrackTracker::process_frame(
    const FrameBuffer& frame, double time_s, PipelineOutputs demanded) {
    const common::ScopedLatency timer(frame_latency_);
    demanded = with_dependencies(demanded);

    // A step re-demanded after undemanded frames (e.g. a subscriber
    // returned) restarts from clean state rather than resuming from a
    // stale one: the TOF chain would otherwise background-subtract a
    // minutes-old profile and gate around a stale denoiser track, and the
    // position filter would extrapolate stale velocity across the whole
    // gap. Resets are no-ops on fresh state, so a stable demand set
    // (including frame 0) is bit-identical to before.
    if (demands(demanded, PipelineOutputs::kTof) &&
        !demands(prev_demanded_, PipelineOutputs::kTof))
        tof_.reset();
    if (demands(demanded, PipelineOutputs::kSmoothedTrack) &&
        !demands(prev_demanded_, PipelineOutputs::kSmoothedTrack))
        smooth_step_.reset();
    prev_demanded_ = demanded;

    // result_ is persistent: reset the fields this frame may not write
    // (clear() and copy-assign below reuse capacity -- no allocations).
    result_.computed = demanded;
    result_.raw.reset();
    result_.smoothed.reset();

    const double health = frame.quality().health;

    if (demands(demanded, PipelineOutputs::kTof)) {
        result_.tof = tof_.process_frame(frame, time_s);
    } else {
        result_.tof.time_s = 0.0;
        result_.tof.antennas.clear();
    }

    if (demands(demanded, PipelineOutputs::kRawPosition)) {
        common::ScopedLatency timer(localize_steps_);
        result_.raw = localizer_.locate(result_.tof);
        if (result_.raw) {
            raw_track_.push_back(*result_.raw);
            trim_history(raw_track_);
        }
    }

    if (demands(demanded, PipelineOutputs::kSmoothedTrack)) {
        common::ScopedLatency timer(smooth_steps_);
        result_.smoothed = smooth_step_.run(result_.raw, time_s, health);
        if (result_.smoothed) {
            track_.push_back(*result_.smoothed);
            trim_history(track_);
        }
    }

    // Confidence: the hardware health of this frame, zeroed when
    // localization was demanded but could not produce a fix at all.
    result_.confidence =
        demands(demanded, PipelineOutputs::kRawPosition) && !result_.raw
            ? 0.0
            : health;
    ++frames_;
    return result_;
}

void WiTrackTracker::trim_history(std::vector<TrackPoint>& track) {
    // Trim only once the history doubles the cap, so each erase moves cap
    // elements after cap insertions: amortized O(1) per frame.
    const std::size_t cap = config_.max_track_history;
    if (cap == 0 || track.size() < 2 * cap) return;
    track.erase(track.begin(),
                track.begin() + static_cast<std::ptrdiff_t>(track.size() - cap));
}

void WiTrackTracker::reset() {
    tof_.reset();
    smooth_step_.reset();
    prev_demanded_ = PipelineOutputs::kNone;
    track_.clear();
    raw_track_.clear();
    frames_ = 0;
}

void WiTrackTracker::save_state(common::StateWriter& writer) const {
    // prev_demanded_ is part of the state: restoring it suppresses the
    // demand-gap reset on the first post-restore frame, so a stable demand
    // set resumes exactly where the snapshot left off.
    writer.u8(static_cast<std::uint8_t>(prev_demanded_));
    writer.u64(frames_);
    save_track(writer, track_);
    save_track(writer, raw_track_);
    tof_.save_state(writer);
    smooth_step_.save_state(writer);
}

void WiTrackTracker::load_state(common::StateReader& reader) {
    // Everything reads into locals (the steps into copies) and is assigned
    // only once the whole state has read back: a rejected stream leaves
    // the tracker untouched.
    const auto demanded = reader.u8();
    if (demanded & ~static_cast<std::uint8_t>(PipelineOutputs::kAll))
        throw std::runtime_error("WiTrackTracker: corrupt demand set in snapshot");
    const auto frames = static_cast<std::size_t>(reader.u64());
    auto track = load_track(reader);
    auto raw_track = load_track(reader);
    TofEstimator tof = tof_;
    tof.load_state(reader);
    SmoothStep smooth_step = smooth_step_;
    smooth_step.load_state(reader);

    prev_demanded_ = static_cast<PipelineOutputs>(demanded);
    frames_ = frames;
    track_ = std::move(track);
    raw_track_ = std::move(raw_track);
    tof_ = std::move(tof);
    smooth_step_ = std::move(smooth_step);
}

}  // namespace witrack::core
