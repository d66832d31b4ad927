#include "engine/engine.hpp"

#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/serialize.hpp"

namespace witrack::engine {

const char* to_string(SessionState state) {
    switch (state) {
        case SessionState::kAdmitted: return "admitted";
        case SessionState::kRunning: return "running";
        case SessionState::kDraining: return "draining";
        case SessionState::kFinished: return "finished";
        case SessionState::kEvicted: return "evicted";
    }
    return "unknown";
}

Engine::Engine(EngineConfig config, std::unique_ptr<FrameSource> source)
    : config_(std::move(config)),
      owned_source_(std::move(source)),
      source_([&]() -> FrameSource* {
          if (owned_source_ == nullptr)
              throw std::invalid_argument("Engine: null FrameSource");
          return owned_source_.get();
      }()),
      pipeline_([&] {
          // The source knows the FMCW parameters its sweeps were captured
          // with (a replayed recording carries its own); they override the
          // config so the pipeline can never process with the wrong sweep
          // geometry.
          auto pipeline = config_.pipeline_config();
          pipeline.fmcw = source_->fmcw();
          return pipeline;
      }()),
      tracker_(pipeline_, source_->array()) {
    // Keep the stored config coherent with the resolved pipeline: stages
    // and subscribers reading config().fmcw must see what the pipeline
    // actually runs with.
    config_.fmcw = pipeline_.fmcw;
}

void Engine::add_stage(std::unique_ptr<AppStage> stage) {
    const StageContext context{config_, pipeline_, source_->array()};
    stage->attach(context, bus_);
    stage_stats_.push_back(StageStats{{}, std::string(stage->name())});
    stages_.push_back(std::move(stage));
}

core::PipelineOutputs Engine::demanded_outputs() const {
    core::PipelineOutputs demanded = core::PipelineOutputs::kNone;
    for (const auto& stage : stages_) demanded |= stage->required_inputs();
    // A TrackUpdateEvent carries the TOF summary plus raw and smoothed
    // positions, so one subscriber demands the whole chain.
    const bool track_subscribers = bus_.subscriber_count<TrackUpdateEvent>() > 0;
    if (track_subscribers) demanded |= core::PipelineOutputs::kAll;
    // Headless operation -- no stages, no track subscribers -- means the
    // caller drives step() by hand and reads tracker() directly; keep the
    // full pipeline running for them.
    if (stages_.empty() && !track_subscribers) return core::PipelineOutputs::kAll;
    return core::with_dependencies(demanded);
}

bool Engine::step() {
    // Finished and Evicted are terminal: once the stages' episode verdicts
    // were delivered (or the session was removed), no further frame may
    // flow -- post-verdict frames could never get episode closure.
    if (state_ == SessionState::kFinished || state_ == SessionState::kEvicted)
        return false;
    if (!source_->next(frame_)) {
        // Source exhausted: the session drains (stages still owe their
        // episode-scoped finish() work).
        if (state_ == SessionState::kAdmitted || state_ == SessionState::kRunning)
            state_ = SessionState::kDraining;
        return false;
    }
    if (state_ == SessionState::kAdmitted) state_ = SessionState::kRunning;
    quality_stats_.accumulate(frame_.sweeps.quality());

    const auto& result =
        tracker_.process_frame(frame_.sweeps, frame_.time_s, demanded_outputs());

    // Skip even constructing the event when nobody listens: a headless
    // deployment pays nothing for the publish path.
    if (bus_.subscriber_count<TrackUpdateEvent>() > 0) {
        TrackUpdateEvent update;
        update.time_s = frame_.time_s;
        update.motion_detected = result.tof.motion_detected();
        update.raw = result.raw;
        update.smoothed = result.smoothed;
        update.truth = frame_.truth;
        update.confidence = result.confidence;
        bus_.publish(update);
        ++track_updates_published_;
    }

    run_stages(result);

    ++frames_;
    return true;
}

void Engine::run_stages(const core::WiTrackTracker::FrameResult& result) {
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        const common::ScopedLatency timer(stage_stats_[i]);
        stages_[i]->on_frame(frame_, result, bus_);
    }
}

std::size_t Engine::run() {
    std::size_t processed = 0;
    while (step()) ++processed;
    finish();
    return processed;
}

void Engine::finish() {
    // Stages finish once per Engine: a second run() (or run() after a
    // manual step() loop) must not re-publish episode events. An evicted
    // session's episode was aborted, not completed -- its stages never
    // publish verdicts computed from a half-processed stream.
    if (finished_ || state_ == SessionState::kEvicted) return;
    finished_ = true;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
        const std::uint64_t start = common::profile_ticks();
        stages_[i]->finish(bus_);
        // Episode-scoped work (e.g. the pointing analysis) is accounted
        // separately so the per-frame histogram stays meaningful.
        stage_stats_[i].finish_s += common::seconds_since(start);
    }
    state_ = SessionState::kFinished;
}

void Engine::snapshot(std::ostream& out) const {
    common::StateWriter writer(out, kSnapshotMagic, kSnapshotVersion);

    writer.begin_chunk("ENG ");
    writer.u64(frames_);
    writer.u64(track_updates_published_);
    writer.boolean(finished_);
    writer.u8(static_cast<std::uint8_t>(state_));
    writer.u64(session_id_);
    // Quality accounting (snapshot v3): a restored session keeps reporting
    // cumulative fault counters, so injector <-> pipeline accounting stays
    // exact across a checkpoint/restore cycle.
    writer.u64(quality_stats_.frames);
    writer.u64(quality_stats_.degraded_frames);
    writer.u64(quality_stats_.rx_dropouts);
    writer.u64(quality_stats_.saturated_rx);
    writer.u64(quality_stats_.dropped_sweeps);
    writer.u64(quality_stats_.short_sweeps);
    writer.u64(quality_stats_.noise_bursts);
    writer.u64(quality_stats_.drift_frames);
    writer.f64(quality_stats_.health_sum);
    writer.f64(quality_stats_.min_health);
    writer.end_chunk();

    writer.begin_chunk("TRK ");
    tracker_.save_state(writer);
    writer.end_chunk();

    writer.begin_chunk("SRC ");
    source_->save_state(writer);
    writer.end_chunk();

    writer.begin_chunk("STG ");
    writer.u64(stages_.size());
    for (const auto& stage : stages_) {
        writer.str(stage->name());
        stage->save_state(writer);
    }
    writer.end_chunk();

    writer.finish();
}

void Engine::restore(std::istream& in) {
    if (frames_ != 0 || state_ != SessionState::kAdmitted)
        throw std::logic_error("Engine: restore requires a freshly constructed Engine");

    // The reader validates the entire stream (magic, version, every chunk's
    // CRC) in its constructor: any corruption throws here, before a single
    // field below is applied, so this Engine stays exactly as constructed.
    common::StateReader reader(in, kSnapshotMagic, kSnapshotVersion);

    reader.open_chunk("ENG ");
    const auto frames = static_cast<std::size_t>(reader.u64());
    const auto updates = static_cast<std::size_t>(reader.u64());
    const bool finished = reader.boolean();
    const auto state = reader.u8();
    const auto session_id = reader.u64();
    QualityStats quality;
    quality.frames = reader.u64();
    quality.degraded_frames = reader.u64();
    quality.rx_dropouts = reader.u64();
    quality.saturated_rx = reader.u64();
    quality.dropped_sweeps = reader.u64();
    quality.short_sweeps = reader.u64();
    quality.noise_bursts = reader.u64();
    quality.drift_frames = reader.u64();
    quality.health_sum = reader.f64();
    quality.min_health = reader.f64();
    if (state > static_cast<std::uint8_t>(SessionState::kEvicted))
        throw std::runtime_error("Engine: corrupt session state in snapshot");
    reader.close_chunk();

    reader.open_chunk("TRK ");
    tracker_.load_state(reader);
    reader.close_chunk();

    reader.open_chunk("SRC ");
    source_->load_state(reader);
    reader.close_chunk();

    reader.open_chunk("STG ");
    const auto stage_count = static_cast<std::size_t>(reader.u64());
    if (stage_count != stages_.size())
        throw std::runtime_error("Engine: snapshot stage count mismatch");
    for (auto& stage : stages_) {
        const auto name = reader.str();
        if (name != stage->name())
            throw std::runtime_error("Engine: snapshot stage mismatch, expected '" +
                                     std::string(stage->name()) + "', found '" +
                                     name + "'");
        stage->load_state(reader);
    }
    reader.close_chunk();

    frames_ = frames;
    track_updates_published_ = updates;
    finished_ = finished;
    state_ = static_cast<SessionState>(state);
    session_id_ = session_id;
    quality_stats_ = quality;
}

std::vector<Engine::StageStats> Engine::take_stage_stats() {
    std::vector<StageStats> snapshot = stage_stats_;
    for (auto& stats : stage_stats_) stats = StageStats{{}, std::move(stats.name)};
    // Append the core pipeline's histograms (same snapshot-and-reset
    // window) in the same StageStats shape, so FleetStats rollups and the
    // control plane's JSON pick them up with no further plumbing.
    const auto steps = tracker_.take_step_stats();
    const std::pair<const char*, const common::LatencyHistogram&> pipeline[] = {
        {"pipeline.fft", steps.tof.fft},         {"pipeline.subtract", steps.tof.subtract},
        {"pipeline.contour", steps.tof.contour}, {"pipeline.denoise", steps.tof.denoise},
        {"pipeline.localize", steps.localize},   {"pipeline.smooth", steps.smooth},
        {"pipeline.frame", steps.frame}};
    for (const auto& [name, latency] : pipeline)
        if (latency.frames > 0) snapshot.push_back(StageStats{latency, name});
    return snapshot;
}

}  // namespace witrack::engine
