#include "engine/host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace witrack::engine {

namespace {

/// HostConfig::workers resolved to the pool width actually used: 0 defers
/// to WITRACK_WORKERS; absent, malformed or absurd values mean serial (1).
std::size_t resolve_worker_count(std::size_t configured) {
    if (configured > 0) return configured;
    const char* env = std::getenv("WITRACK_WORKERS");
    if (env == nullptr) return 1;
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    // Malformed, negative (strtoul wraps a leading minus), or absurd values
    // fall back to serial rather than crash spawning threads at startup.
    constexpr unsigned long kMaxWorkers = 256;
    if (end == env || *end != '\0' || value == 0 || value > kMaxWorkers) return 1;
    return static_cast<std::size_t>(value);
}

double steady_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes) --
/// session names and fault reasons are operator-provided free text.
void append_json_string(std::string& out, const std::string& text) {
    out += '"';
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_field(std::string& out, const char* key, std::uint64_t value,
                  bool leading_comma = true) {
    if (leading_comma) out += ',';
    out += '"';
    out += key;
    out += "\":";
    out += std::to_string(value);
}

void append_field(std::string& out, const char* key, double value,
                  bool leading_comma = true) {
    if (leading_comma) out += ',';
    char buf[64];
    std::snprintf(buf, sizeof buf, "\"%s\":%.6g", key, value);
    out += buf;
}

/// Every latency renders the same way: samples, then mean, p50, p99 and
/// max in milliseconds.
void append_latency(std::string& out, const common::LatencyHistogram& latency,
                    bool leading_comma = true) {
    append_field(out, "frames", latency.frames, leading_comma);
    append_field(out, "mean_ms", latency.mean_s() * 1e3);
    append_field(out, "p50_ms", latency.quantile_s(0.5) * 1e3);
    append_field(out, "p99_ms", latency.quantile_s(0.99) * 1e3);
    append_field(out, "max_ms", latency.max_s * 1e3);
}

void append_quality(std::string& out, const QualityStats& quality) {
    out += "{";
    append_field(out, "frames", quality.frames, false);
    append_field(out, "degraded_frames", quality.degraded_frames);
    append_field(out, "rx_dropouts", quality.rx_dropouts);
    append_field(out, "saturated_rx", quality.saturated_rx);
    append_field(out, "dropped_sweeps", quality.dropped_sweeps);
    append_field(out, "short_sweeps", quality.short_sweeps);
    append_field(out, "noise_bursts", quality.noise_bursts);
    append_field(out, "drift_frames", quality.drift_frames);
    append_field(out, "mean_health", quality.mean_health());
    append_field(out, "min_health", quality.min_health);
    out += "}";
}

void append_net(std::string& out, const NetIngestStats& net) {
    out += "{";
    append_field(out, "datagrams", net.datagrams, false);
    append_field(out, "bytes", net.bytes);
    append_field(out, "frames_delivered", net.frames_delivered);
    append_field(out, "frame_gaps", net.frame_gaps);
    append_field(out, "reorders", net.reorders);
    append_field(out, "duplicates", net.duplicates);
    append_field(out, "late_fragments", net.late_fragments);
    append_field(out, "crc_errors", net.crc_errors);
    append_field(out, "truncated", net.truncated);
    append_field(out, "bad_magic", net.bad_magic);
    append_field(out, "version_skew", net.version_skew);
    append_field(out, "malformed", net.malformed);
    append_field(out, "foreign_token", net.foreign_token);
    append_field(out, "idle_timeouts", net.idle_timeouts);
    append_field(out, "seq_resyncs", net.seq_resyncs);
    out += "}";
}

}  // namespace

std::string to_json(const FleetStats& stats) {
    std::string out;
    out.reserve(256 + stats.sessions.size() * 192);
    out += "{";
    append_field(out, "frames", static_cast<std::uint64_t>(stats.frames), false);
    append_field(out, "wall_s", stats.wall_s);
    append_field(out, "throughput_fps", stats.throughput_fps);
    append_field(out, "sessions_admitted",
                 static_cast<std::uint64_t>(stats.sessions_admitted));
    append_field(out, "sessions_finished",
                 static_cast<std::uint64_t>(stats.sessions_finished));
    append_field(out, "sessions_evicted",
                 static_cast<std::uint64_t>(stats.sessions_evicted));
    append_field(out, "active_sessions",
                 static_cast<std::uint64_t>(stats.active_sessions));
    append_field(out, "queued_sessions",
                 static_cast<std::uint64_t>(stats.queued_sessions));
    append_field(out, "sessions_restarted",
                 static_cast<std::uint64_t>(stats.sessions_restarted));
    out += ",\"net\":";
    append_net(out, stats.net);
    out += ",\"quality\":";
    append_quality(out, stats.quality);
    out += ",\"sessions\":[";
    for (std::size_t i = 0; i < stats.sessions.size(); ++i) {
        const SessionStats& session = stats.sessions[i];
        if (i > 0) out += ',';
        out += "{";
        append_field(out, "id", static_cast<std::uint64_t>(session.id), false);
        out += ",\"name\":";
        append_json_string(out, session.name);
        out += ",\"state\":\"";
        out += to_string(session.state);
        out += '"';
        out += ",\"step\":{";
        append_latency(out, session.step, false);
        out += "}";
        append_field(out, "health", session.recent_health);
        if (session.restarts > 0)
            append_field(out, "restarts",
                         static_cast<std::uint64_t>(session.restarts));
        if (session.quality.degraded_frames > 0) {
            out += ",\"quality\":";
            append_quality(out, session.quality);
        }
        if (!session.fault.empty()) {
            out += ",\"fault\":";
            append_json_string(out, session.fault);
        }
        if (!session.stages.empty()) {
            out += ",\"stages\":[";
            for (std::size_t s = 0; s < session.stages.size(); ++s) {
                const Engine::StageStats& stage = session.stages[s];
                if (s > 0) out += ',';
                out += "{\"name\":";
                append_json_string(out, stage.name);
                append_latency(out, stage);
                out += "}";
            }
            out += "]";
        }
        if (session.net) {
            out += ",\"net\":";
            append_net(out, *session.net);
        }
        out += "}";
    }
    out += "]}";
    return out;
}

EngineHost::EngineHost(HostConfig config)
    : config_(config),
      workers_(resolve_worker_count(config.workers)) {
    if (config_.max_sessions == 0)
        throw std::invalid_argument("EngineHost: max_sessions must be >= 1");
    if (workers_ > 1) pool_ = std::make_unique<common::WorkerPool>(workers_);
    window_started_s_ = steady_seconds();
}

SessionId EngineHost::admit(std::string name, EngineConfig config,
                            std::unique_ptr<FrameSource> source) {
    require_round_boundary("admit");
    const bool full = active_sessions() >= config_.max_sessions;
    if (full && !config_.queue_when_full)
        throw std::runtime_error("EngineHost: admission rejected, " +
                                 std::to_string(config_.max_sessions) +
                                 " sessions already active");

    auto session = std::make_unique<Session>();
    session->id = next_id_++;
    session->name = std::move(name);
    session->queued = full;
    session->engine = std::make_unique<Engine>(std::move(config), std::move(source));
    session->engine->set_session_id(session->id);
    const SessionId id = session->id;
    sessions_.push_back(std::move(session));
    ++admitted_total_;
    return id;
}

SessionId EngineHost::admit_restartable(
    std::string name, EngineConfig config, SourceFactory factory,
    const std::function<void(Engine&)>& wire_stages) {
    require_round_boundary("admit_restartable");
    if (!factory)
        throw std::invalid_argument(
            "EngineHost: admit_restartable needs a source factory");
    auto source = factory();
    // Wire the initial incarnation exactly as a restart would.
    EngineConfig config_copy = config;
    const SessionId id = admit(std::move(name), std::move(config),
                               std::move(source));
    Session* session = find(id);
    session->engine_config = std::move(config_copy);
    session->factory = std::move(factory);
    session->wire_stages = wire_stages;
    if (session->wire_stages) session->wire_stages(*session->engine);
    return id;
}

void EngineHost::checkpoint_session(SessionId id, std::ostream& out) const {
    const Session* session = find(id);
    if (session == nullptr)
        throw std::out_of_range("EngineHost: unknown session " + std::to_string(id));
    session->engine->snapshot(out);
}

SessionId EngineHost::restore_session(
    std::string name, EngineConfig config, std::unique_ptr<FrameSource> source,
    std::istream& snapshot, const std::function<void(Engine&)>& wire_stages) {
    require_round_boundary("restore_session");
    const bool full = active_sessions() >= config_.max_sessions;
    if (full && !config_.queue_when_full)
        throw std::runtime_error("EngineHost: admission rejected, " +
                                 std::to_string(config_.max_sessions) +
                                 " sessions already active");

    // Build and restore the Engine BEFORE registering anything: a corrupt
    // snapshot throws out of restore() and the host -- including every live
    // session -- is left exactly as it was.
    auto engine = std::make_unique<Engine>(std::move(config), std::move(source));
    if (wire_stages) wire_stages(*engine);
    engine->restore(snapshot);

    auto session = std::make_unique<Session>();
    session->id = next_id_++;
    session->name = std::move(name);
    session->queued = full;
    session->engine = std::move(engine);
    session->engine->set_session_id(session->id);
    const SessionId id = session->id;
    sessions_.push_back(std::move(session));
    ++admitted_total_;
    return id;
}

EngineHost::Session* EngineHost::find(SessionId id) {
    for (auto& session : sessions_)
        if (session->id == id) return session.get();
    return nullptr;
}

const EngineHost::Session* EngineHost::find(SessionId id) const {
    for (const auto& session : sessions_)
        if (session->id == id) return session.get();
    return nullptr;
}

Engine* EngineHost::session(SessionId id) {
    Session* found = find(id);
    return found != nullptr ? found->engine.get() : nullptr;
}

const Engine* EngineHost::session(SessionId id) const {
    const Session* found = find(id);
    return found != nullptr ? found->engine.get() : nullptr;
}

SessionState EngineHost::state(SessionId id) const {
    const Session* found = find(id);
    if (found == nullptr)
        throw std::out_of_range("EngineHost: unknown session id " +
                                std::to_string(id));
    return found->engine->session_state();
}

void EngineHost::pause(SessionId id) {
    require_round_boundary("pause");
    Session* found = find(id);
    if (found != nullptr) found->paused = true;
}

void EngineHost::resume(SessionId id) {
    require_round_boundary("resume");
    Session* found = find(id);
    if (found == nullptr) return;
    found->paused = false;
    found->lag = 0;
}

bool EngineHost::terminal(const Session& session) const {
    const SessionState state = session.engine->session_state();
    return state == SessionState::kFinished || state == SessionState::kEvicted;
}

bool EngineHost::evict(SessionId id, std::string reason) {
    require_round_boundary("evict");
    Session* found = find(id);
    if (found == nullptr || terminal(*found)) return false;
    evict_session(*found, std::move(reason));
    promote_queued();
    return true;
}

void EngineHost::evict_session(Session& session, std::string reason) {
    session.fault = std::move(reason);
    session.engine->mark_evicted();
    session.accounted = true;
    ++evicted_total_;
}

void EngineHost::promote_queued() {
    // FIFO promotion in admission order: the vector already is that order.
    for (auto& session : sessions_) {
        if (active_sessions() >= config_.max_sessions) return;
        if (session->queued && !terminal(*session)) session->queued = false;
    }
}

std::size_t EngineHost::reap() {
    require_round_boundary("reap");
    settle();  // count (and promote around) out-of-band finishes first
    const std::size_t before = sessions_.size();
    std::erase_if(sessions_, [this](const std::unique_ptr<Session>& session) {
        return terminal(*session);
    });
    return before - sessions_.size();
}

std::size_t EngineHost::active_sessions() const {
    std::size_t count = 0;
    for (const auto& session : sessions_)
        if (!session->queued && !terminal(*session)) ++count;
    return count;
}

std::size_t EngineHost::queued_sessions() const {
    std::size_t count = 0;
    for (const auto& session : sessions_)
        if (session->queued && !terminal(*session)) ++count;
    return count;
}

void EngineHost::settle() {
    // Sessions can reach a terminal state outside the scheduler: session()
    // hands out the Engine*, and a caller may run()/finish() it directly.
    // Catch up the lifetime counters and hand the freed slots to the queue,
    // so an out-of-band finish never starves a queued tenant.
    for (auto& session : sessions_) {
        if (session->accounted || !terminal(*session)) continue;
        session->accounted = true;
        if (session->engine->session_state() == SessionState::kFinished)
            ++finished_total_;
        else
            ++evicted_total_;
        promote_queued();
    }
}

void EngineHost::require_round_boundary(const char* operation) const {
    if (in_round_)
        throw std::logic_error(std::string("EngineHost: ") + operation +
                               " called inside step_all(); sessions change "
                               "only between rounds");
}

std::size_t EngineHost::step_all() {
    require_round_boundary("step_all");
    settle();
    in_round_ = true;
    struct RoundEnd {
        bool& in_round;
        ~RoundEnd() { in_round = false; }
    } round_end{in_round_};

    // Phase 1, serial pick: each schedulable session consumes exactly one
    // frame per round, in a stable admission order.
    ready_.clear();
    for (const auto& owned : sessions_) {
        Session& session = *owned;
        if (session.queued || terminal(session)) continue;
        if (session.paused) {
            lag_session(session);
            continue;
        }
        ready_.push_back(&session);
    }

    // Phase 2, parallel step: sessions share no mutable state, and each
    // records its own outcome, so the step order does not matter.
    if (pool_ != nullptr) {
        pool_->parallel_for(ready_.size(),
                            [this](std::size_t i) { step_session(*ready_[i]); });
    } else {
        for (Session* session : ready_) step_session(*session);
    }

    // Phase 3, serial apply in admission order: the same counters and the
    // same lifecycle sequence at every worker count.
    std::size_t processed = 0;
    for (Session* session : ready_) {
        switch (session->outcome) {
            case Outcome::kProduced:
                session->lag = 0;
                ++processed;
                ++frames_window_;
                break;
            case Outcome::kExhausted:
                session->accounted = true;
                ++finished_total_;
                break;
            case Outcome::kThrew:
                // Fault isolation: the throwing session is evicted; the
                // remaining sessions keep their slots and their state.
                evict_session(*session, std::move(session->error));
                break;
        }
    }
    promote_queued();
    watch_health();
    ++rounds_;
    return processed;
}

void EngineHost::step_session(Session& session) {
    const std::uint64_t start = common::profile_ticks();
    try {
        if (session.engine->step()) {
            session.step.add(common::seconds_since(start));
            session.outcome = Outcome::kProduced;
        } else {
            // Source exhausted: Draining -> deliver the episode finish()
            // work -> Finished; phase 3 hands the slot on.
            session.engine->finish();
            session.outcome = Outcome::kExhausted;
        }
    } catch (const std::exception& error) {
        session.outcome = Outcome::kThrew;
        session.error = std::string("step() threw: ") + error.what();
    } catch (...) {
        session.outcome = Outcome::kThrew;
        session.error = "step() threw a non-std exception";
    }
}

void EngineHost::watch_health() {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        Session& session = *sessions_[i];
        if (session.queued || terminal(session)) continue;
        // Quality deltas since the last round roll into this session's
        // tumbling watchdog window. Restarts keep the marks consistent:
        // the restored engine resumes the cumulative counters.
        const QualityStats& cumulative = session.engine->quality_stats();
        if (cumulative.frames < session.mark_frames) {
            // Caller restored this engine out-of-band to an older cursor;
            // re-anchor instead of producing a negative delta.
            session.mark_frames = cumulative.frames;
            session.mark_health_sum = cumulative.health_sum;
            continue;
        }
        session.window_frames += cumulative.frames - session.mark_frames;
        session.window_health_sum +=
            cumulative.health_sum - session.mark_health_sum;
        session.mark_frames = cumulative.frames;
        session.mark_health_sum = cumulative.health_sum;
        if (session.window_frames == 0) continue;
        session.recent_health = session.window_health_sum /
                                static_cast<double>(session.window_frames);
        if (session.window_frames < config_.health_window) continue;
        const double window_health = session.recent_health;
        session.window_frames = 0;
        session.window_health_sum = 0.0;
        if (config_.health_threshold <= 0.0 || !session.factory) continue;
        if (window_health >= config_.health_threshold) continue;
        if (session.restarts >= config_.max_restarts) {
            evict_session(session,
                          "health " + std::to_string(window_health) +
                              " below threshold after " +
                              std::to_string(session.restarts) + " restarts");
            promote_queued();
            continue;
        }
        restart_session(session);
    }
}

void EngineHost::restart_session(Session& session) {
    try {
        // In-memory checkpoint -> fresh engine (fresh source from the
        // factory, stages re-wired) -> restore -> swap into the same
        // record. Siblings never observe any of it.
        std::stringstream snapshot;
        session.engine->snapshot(snapshot);
        auto engine =
            std::make_unique<Engine>(session.engine_config, session.factory());
        if (session.wire_stages) session.wire_stages(*engine);
        engine->restore(snapshot);
        // The snapshot does not carry timing: keep the outgoing engine's
        // window so the stage rollup still covers every frame it stepped.
        for (auto& stage : session.engine->take_stage_stats())
            session.carried_stages.push_back(std::move(stage));
        session.engine = std::move(engine);
        session.engine->set_session_id(session.id);
        ++session.restarts;
        ++restarts_total_;
    } catch (const std::exception& error) {
        evict_session(session,
                      std::string("watchdog restart failed: ") + error.what());
        promote_queued();
    }
}

void EngineHost::lag_session(Session& session) {
    // Backpressure: a session that cannot consume its frames falls
    // behind the stream one frame per round. A live radio drops
    // those frames on the floor; past the configured lag the
    // session's tracking state is stale beyond recovery and the
    // host reclaims the slot.
    ++session.lag;
    if (config_.max_frame_lag > 0 && session.lag > config_.max_frame_lag) {
        evict_session(session,
                      "frame lag " + std::to_string(session.lag) +
                          " exceeded max_frame_lag " +
                          std::to_string(config_.max_frame_lag));
    }
}

bool EngineHost::progress_possible() const {
    for (const auto& session : sessions_) {
        if (session->queued || terminal(*session)) continue;
        if (!session->paused) return true;
        // A paused session still progresses toward eviction when lag is
        // bounded; with max_frame_lag == 0 it would spin forever.
        if (config_.max_frame_lag > 0) return true;
    }
    return false;
}

std::size_t EngineHost::run(std::size_t max_frames) {
    std::size_t processed = 0;
    for (;;) {
        settle();  // out-of-band finishes free slots before the check below
        if (!progress_possible()) break;
        if (max_frames > 0 && processed >= max_frames) break;
        processed += step_all();
    }
    return processed;
}

FleetStats EngineHost::take_fleet_stats() {
    require_round_boundary("take_fleet_stats");
    FleetStats stats;
    const double now_s = steady_seconds();
    stats.frames = frames_window_;
    stats.wall_s = now_s - window_started_s_;
    stats.throughput_fps =
        stats.wall_s > 0.0 ? static_cast<double>(stats.frames) / stats.wall_s : 0.0;
    stats.sessions_admitted = admitted_total_;
    stats.sessions_finished = finished_total_;
    stats.sessions_evicted = evicted_total_;
    stats.active_sessions = active_sessions();
    stats.queued_sessions = queued_sessions();
    stats.sessions_restarted = restarts_total_;

    stats.sessions.reserve(sessions_.size());
    for (auto& session : sessions_) {
        SessionStats rollup;
        rollup.id = session->id;
        rollup.name = session->name;
        rollup.state = session->engine->session_state();
        rollup.step = std::exchange(session->step, {});
        // Replaced engines' entries first, then the live engine's: one
        // entry per stage name, histograms merged.
        auto stages = std::exchange(session->carried_stages, {});
        for (auto& stage : session->engine->take_stage_stats())
            stages.push_back(std::move(stage));
        for (auto& stage : stages) {
            const auto same = std::find_if(
                rollup.stages.begin(), rollup.stages.end(),
                [&stage](const Engine::StageStats& s) { return s.name == stage.name; });
            if (same == rollup.stages.end()) {
                rollup.stages.push_back(std::move(stage));
                continue;
            }
            same->merge(stage);
            same->finish_s += stage.finish_s;
        }
        rollup.fault = session->fault;
        rollup.net = session->engine->net_stats();
        if (rollup.net) stats.net += *rollup.net;
        rollup.quality = session->engine->quality_stats();
        stats.quality += rollup.quality;
        rollup.recent_health = session->recent_health;
        rollup.restarts = session->restarts;
        stats.sessions.push_back(std::move(rollup));

    }

    frames_window_ = 0;
    window_started_s_ = now_s;
    return stats;
}

std::string to_json(const std::vector<EngineHost::SessionHealth>& sessions) {
    std::string out;
    out.reserve(64 + sessions.size() * 256);
    out += "{\"sessions\":[";
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const EngineHost::SessionHealth& session = sessions[i];
        if (i > 0) out += ',';
        out += "{";
        append_field(out, "id", static_cast<std::uint64_t>(session.id), false);
        out += ",\"name\":";
        append_json_string(out, session.name);
        out += ",\"state\":\"";
        out += to_string(session.state);
        out += '"';
        append_field(out, "health", session.recent_health);
        out += ",\"degraded\":";
        out += session.degraded ? "true" : "false";
        append_field(out, "restarts",
                     static_cast<std::uint64_t>(session.restarts));
        out += ",\"quality\":";
        append_quality(out, session.quality);
        out += "}";
    }
    out += "]}";
    return out;
}

std::vector<EngineHost::SessionHealth> EngineHost::session_health() const {
    std::vector<SessionHealth> out;
    out.reserve(sessions_.size());
    for (const auto& session : sessions_) {
        SessionHealth health;
        health.id = session->id;
        health.name = session->name;
        health.state = session->engine->session_state();
        health.quality = session->engine->quality_stats();
        health.recent_health = session->recent_health;
        health.restarts = session->restarts;
        health.degraded = session->recent_health < 1.0;
        out.push_back(std::move(health));
    }
    return out;
}

}  // namespace witrack::engine
