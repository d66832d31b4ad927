// Outside-in probes of the whole-frame fleet benchmark. Nothing here
// reaches inside the library: a FrameSource decorator times each source
// call, an event-bus subscriber stamps each TrackUpdateEvent, and the
// driving loop stamps each EngineHost::step_all round. Every probe belongs
// to one session and is touched only by the thread stepping that session,
// so sessions stepped in parallel never share a probe.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "engine/events.hpp"
#include "engine/frame_source.hpp"
#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// One traced interval. `parent` is the id of the span that caused it (0 =
/// none); session and frame identify the frame it belongs to.
struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::uint32_t session = 0;
    std::uint64_t frame = 0;
};

/// Round state the driving thread writes between step_all() rounds and
/// every session's probes read inside one (the host's round hands-off
/// order these accesses).
struct RoundClock {
    std::int64_t start_ns = 0;   ///< when the current round began
    std::uint64_t span_id = 0;   ///< id of the current round's span
    bool record_latency = false; ///< untraced measured phase: record frame latency
    bool tracing = false;        ///< traced phase: record per-layer spans
};

/// Span ids: rounds count up from 1; a session's spans carry its index in
/// the top bits so ids stay unique without any shared counter.
inline std::uint64_t session_span_id(std::uint32_t session, std::uint64_t seq) {
    return (static_cast<std::uint64_t>(session) + 1) << 40 | seq;
}

/// Everything the benchmark learns about one session from outside.
class SessionProbe {
  public:
    SessionProbe(std::uint32_t session, const RoundClock& clock, const char* source_layer,
                 double settle_s)
        : session_(session), clock_(&clock), source_layer_(source_layer),
          settle_s_(settle_s) {}
    SessionProbe(const SessionProbe&) = delete;
    SessionProbe& operator=(const SessionProbe&) = delete;

    /// Stamp every TrackUpdateEvent of `bus`. The probe must outlive the
    /// bus's Engine.
    void subscribe(witrack::engine::EventBus& bus) {
        bus.subscribe<witrack::engine::TrackUpdateEvent>(
            [this](const witrack::engine::TrackUpdateEvent& event) { on_track(event); });
    }

    /// Source-call boundaries, reported by TimingSource.
    void source_begin() { source_begin_ns_ = now_ns(); }
    void source_end(bool produced) {
        source_end_ns_ = now_ns();
        if (!produced || !clock_->tracing) return;
        source_us.push_back(static_cast<double>(source_end_ns_ - source_begin_ns_) * 1e-3);
        spans.push_back({source_layer_, source_begin_ns_, source_end_ns_,
                         session_span_id(session_, span_seq_++), clock_->span_id,
                         session_, tracked});
    }

    // ------------------------------------------------------- observations
    std::uint64_t tracked = 0;         ///< TrackUpdateEvents seen
    std::vector<double> latency_ms;    ///< round start -> event; the driver drains it
    std::vector<double> source_us;     ///< source call, traced rounds
    std::vector<double> core_us;       ///< source return -> event, traced rounds
    std::vector<double> error_m;       ///< smoothed-vs-truth, after settle_s
    std::vector<Span> spans;           ///< traced rounds only
    TrackDigest digest;

  private:
    void on_track(const witrack::engine::TrackUpdateEvent& event) {
        const std::int64_t t = now_ns();
        if (clock_->record_latency)
            latency_ms.push_back(static_cast<double>(t - clock_->start_ns) * 1e-6);
        if (clock_->tracing) {
            core_us.push_back(static_cast<double>(t - source_end_ns_) * 1e-3);
            spans.push_back({"core.frame", source_end_ns_, t,
                             session_span_id(session_, span_seq_++), clock_->span_id,
                             session_, tracked});
        }
        const auto& fix = event.smoothed;
        digest.add(event.time_s, fix.has_value(), fix ? fix->position.x : 0.0,
                   fix ? fix->position.y : 0.0, fix ? fix->position.z : 0.0);
        if (fix && event.truth && event.time_s >= settle_s_) {
            const auto d = fix->position - event.truth->position;
            error_m.push_back(std::sqrt(d.x * d.x + d.y * d.y + d.z * d.z));
        }
        ++tracked;
    }

    std::uint32_t session_;
    const RoundClock* clock_;
    const char* source_layer_;
    double settle_s_;
    std::int64_t source_begin_ns_ = 0;
    std::int64_t source_end_ns_ = 0;
    std::uint64_t span_seq_ = 0;
};

/// FrameSource decorator: forwards to the wrapped source (net_stats too, so
/// the host still sees a network session's counters) and reports each
/// next() call's boundaries to the session's probe. Snapshots keep the
/// throwing default: the benchmark never checkpoints a session.
class TimingSource final : public witrack::engine::FrameSource {
  public:
    TimingSource(std::unique_ptr<witrack::engine::FrameSource> inner, SessionProbe& probe)
        : inner_(std::move(inner)), probe_(&probe) {}

    bool next(witrack::engine::Frame& frame) override {
        probe_->source_begin();
        const bool produced = inner_->next(frame);
        probe_->source_end(produced);
        return produced;
    }
    const witrack::geom::ArrayGeometry& array() const override { return inner_->array(); }
    const witrack::FmcwParams& fmcw() const override { return inner_->fmcw(); }
    std::optional<witrack::engine::NetIngestStats> net_stats() const override {
        return inner_->net_stats();
    }

  private:
    std::unique_ptr<witrack::engine::FrameSource> inner_;
    SessionProbe* probe_;
};

}  // namespace perfbench
