// EngineHost: the multi-session fleet runtime. One process serving many
// concurrent tracking sessions (homes, rooms, replayed captures) hosts one
// EngineHost; each session is an Engine owning its FrameSource, and the
// host owns everything worth sharing:
//
//   sources (sim | replay | net)
//      │ admit()                 ┌──────────────┐
//      ▼                         │  EngineHost  │
//   Session 1..N  ◄── step_all ──┤  scheduler   │
//      │  session fan-out        └──┬────────┬──┘
//      ▼                            ▼        ▼
//   shared common::WorkerPool            FleetStats
//
// The scheduler is fair round-robin: every running session processes
// exactly one frame per step_all() round, so no tenant starves another.
// A round runs in three phases, with the same code at every worker count:
//
//   1. pick   (serial)   settle, then select the ready sessions in
//                        admission order; paused sessions accrue lag.
//   2. step   (parallel) WorkerPool::parallel_for over the ready sessions;
//                        each steps its Engine (finish() when its source
//                        ran dry) and records its own outcome and time.
//   3. apply  (serial)   in admission order: counters, finishes,
//                        evictions of sessions that threw, then promotion
//                        of queued sessions into freed slots.
//
// Sessions share no mutable state, so they step concurrently. This is the
// only level of parallelism: a session's step() is serial code (per-RX
// TOF chains, then stages in attachment order) on the thread stepping it,
// and a round with one ready session steps it on the calling thread.
// Lifecycle changes land at the round's end, so a queued session promoted
// by a finish, eviction or lag eviction steps from the next round on. The
// registry itself changes only between rounds: admit, evict, pause,
// resume, reap and take_fleet_stats called from inside step_all (a stage
// or subscriber) throw std::logic_error.
//
// Admission control (max_sessions, reject-or-queue), backpressure (a
// session that cannot consume frames for more than max_frame_lag rounds is
// evicted -- a live radio would have dropped those frames anyway), and
// fault isolation (a session whose stage throws is evicted; siblings are
// untouched) keep one misbehaving tenant from taking the fleet down.
// Per-session output is bit-identical to the same Engine run standalone
// (tests/test_fleet.cpp proves it at 1 and 4 workers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/worker_pool.hpp"
#include "engine/engine.hpp"

namespace witrack::engine {

using SessionId = std::uint64_t;

struct HostConfig {
    /// Threads that step a round's sessions in parallel on the host's
    /// WorkerPool; each session's own step() is serial. 0 = read the
    /// WITRACK_WORKERS environment variable (absent, malformed or > 256 ->
    /// serial), so CI and operators can flip a whole binary to the
    /// parallel schedule without touching call sites; 1 = serial.
    std::size_t workers = 0;

    /// Running-session cap (admission control). Sessions admitted beyond it
    /// are queued (queue_when_full) or rejected with std::runtime_error.
    std::size_t max_sessions = 16;

    /// true: admit() past the cap parks the session Admitted until a slot
    /// frees (FIFO promotion). false: admit() past the cap throws.
    bool queue_when_full = true;

    /// Backpressure: consecutive scheduler rounds a session may sit unable
    /// to consume frames (paused) before the host evicts it. 0 = never
    /// evict on lag.
    std::size_t max_frame_lag = 0;

    /// Self-healing watchdog: when > 0, a restartable session (see
    /// admit_restartable) whose mean frame health over one health_window
    /// of frames stays below this threshold is auto-checkpointed and
    /// restarted in place -- same session id, state resumed from the
    /// checkpoint -- up to max_restarts times, then evicted. Siblings are
    /// untouched either way. 0 disables the watchdog (health is still
    /// tracked and reported).
    double health_threshold = 0.0;

    /// Frames per watchdog evaluation window (tumbling, per session).
    std::size_t health_window = 64;

    /// Watchdog restarts allowed per session before it is evicted.
    std::size_t max_restarts = 3;

    // ------------------------------------------------------ fluent builder
    HostConfig& with_workers(std::size_t count) {
        workers = count;
        return *this;
    }
    HostConfig& with_max_sessions(std::size_t count) {
        max_sessions = count;
        return *this;
    }
    HostConfig& with_queue_when_full(bool queue) {
        queue_when_full = queue;
        return *this;
    }
    HostConfig& with_max_frame_lag(std::size_t rounds) {
        max_frame_lag = rounds;
        return *this;
    }
    HostConfig& with_health_threshold(double threshold) {
        health_threshold = threshold;
        return *this;
    }
    HostConfig& with_health_window(std::size_t frames) {
        health_window = frames;
        return *this;
    }
    HostConfig& with_max_restarts(std::size_t count) {
        max_restarts = count;
        return *this;
    }
};

/// Per-session rollup inside FleetStats. The step histogram (one sample
/// per frame processed) covers the window since the last
/// take_fleet_stats(); stages comes from the
/// session's Engine::take_stage_stats() (same snapshot-and-reset contract),
/// including the stats of engines a watchdog restart replaced during the
/// window.
struct SessionStats {
    SessionId id = 0;
    std::string name;
    SessionState state = SessionState::kAdmitted;
    common::LatencyHistogram step; ///< host-observed step() per frame
    std::vector<Engine::StageStats> stages;
    std::string fault;             ///< eviction reason, if evicted
    /// Network ingestion counters (cumulative over the source's lifetime,
    /// NOT reset per window) for sessions fed by a net::NetSource; empty
    /// for in-process sources.
    std::optional<NetIngestStats> net;
    /// Hardware-quality rollup (cumulative over the session's lifetime,
    /// carried across checkpoint/restore and watchdog restarts).
    QualityStats quality;
    /// Mean frame health over the most recent watchdog window.
    double recent_health = 1.0;
    /// Watchdog restarts this session has survived.
    std::size_t restarts = 0;
};

/// Fleet-wide telemetry window: take_fleet_stats() snapshots and resets the
/// per-window aggregates (frames, wall clock, per-session rollups); the
/// lifetime session counters are cumulative.
struct FleetStats {
    std::size_t frames = 0;            ///< frames processed this window
    double wall_s = 0.0;               ///< wall clock covered by the window
    double throughput_fps = 0.0;       ///< frames / wall_s (0 when idle)
    std::size_t sessions_admitted = 0; ///< lifetime
    std::size_t sessions_finished = 0; ///< lifetime
    std::size_t sessions_evicted = 0;  ///< lifetime
    std::size_t active_sessions = 0;   ///< currently holding a slot
    std::size_t queued_sessions = 0;   ///< waiting for a slot
    /// Sum of the network ingestion counters over every currently
    /// registered network-fed session (cumulative, like the per-session
    /// counters -- reaped sessions leave the sum).
    NetIngestStats net;
    /// Sum of the hardware-quality counters over every currently
    /// registered session (cumulative, like net).
    QualityStats quality;
    /// Watchdog restarts performed over the host's lifetime.
    std::size_t sessions_restarted = 0;
    std::vector<SessionStats> sessions;
};

/// Compact single-line JSON rendering of a fleet telemetry snapshot -- the
/// one FleetStats serialization, shared by the control plane's stats
/// scrape (net::ControlServer "STATS") and the witrackd periodic log line,
/// so dashboards parse one shape. Every latency (host step, each stage,
/// each pipeline.* step) renders as frames, mean_ms, p50_ms, p99_ms and
/// max_ms.
std::string to_json(const FleetStats& stats);

class EngineHost {
  public:
    explicit EngineHost(HostConfig config = HostConfig{});

    /// Admit one session: the host wraps the source in an Engine and
    /// schedules it. Past max_sessions the
    /// session is queued (queue_when_full) or the call throws
    /// std::runtime_error. Returns the session's id.
    SessionId admit(std::string name, EngineConfig config,
                    std::unique_ptr<FrameSource> source);

    /// Builds a fresh FrameSource for each incarnation of a restartable
    /// session (initial admission and every watchdog restart).
    using SourceFactory = std::function<std::unique_ptr<FrameSource>()>;

    /// Admit a session the self-healing watchdog may restart: the factory
    /// supplies the source (now, and again on each restart), `wire_stages`
    /// re-attaches the session's stages and subscribers to the rebuilt
    /// Engine. On restart the old engine is checkpointed in memory and a
    /// fresh one restored from it into the SAME session record (same id);
    /// a failed restart evicts the session instead. Requires
    /// HostConfig::health_threshold > 0 for restarts to actually trigger.
    SessionId admit_restartable(
        std::string name, EngineConfig config, SourceFactory factory,
        const std::function<void(Engine&)>& wire_stages = {});

    /// Serialize one session's full state (tracker, stages, source cursor;
    /// Engine::snapshot wire format) into `out` so it can drain to disk and
    /// resume here or on another host. Unknown id -> std::out_of_range.
    void checkpoint_session(SessionId id, std::ostream& out) const;

    /// Admit a session reconstructed from a snapshot: the Engine is built
    /// exactly as admit() would build it, `wire_stages` (may be empty)
    /// attaches the same stages the checkpointed session had -- same types,
    /// same order -- and the snapshot is applied before scheduling. A
    /// truncated/corrupt/unknown-version snapshot throws std::runtime_error
    /// and nothing is registered: live sessions are untouched. Returns the
    /// restored session's (new) id.
    SessionId restore_session(std::string name, EngineConfig config,
                              std::unique_ptr<FrameSource> source,
                              std::istream& snapshot,
                              const std::function<void(Engine&)>& wire_stages = {});

    /// The session's Engine (attach stages, subscribe to its bus, read its
    /// tracker). nullptr for an unknown id. Valid until the host dies --
    /// finished and evicted sessions stay inspectable.
    Engine* session(SessionId id);
    const Engine* session(SessionId id) const;

    /// Lifecycle state (kAdmitted for queued sessions). Unknown id ->
    /// std::out_of_range.
    SessionState state(SessionId id) const;

    /// Stop / resume scheduling one session. A paused session accrues frame
    /// lag each round and is evicted past HostConfig::max_frame_lag.
    void pause(SessionId id);
    void resume(SessionId id);

    /// Terminally remove a session from scheduling (its Engine stays
    /// readable; episode finish() work is not delivered). False when the
    /// id is unknown or the session already reached a terminal state.
    bool evict(SessionId id, std::string reason = "operator eviction");

    /// One fair round: every running session processes exactly one frame,
    /// the ready sessions stepping in parallel on the host's pool. At the
    /// round's end, draining sessions are finished, faulting sessions
    /// evicted and queued sessions promoted into freed slots (they step
    /// from the next round). Returns frames processed.
    std::size_t step_all();

    /// Round-robin until every session is Finished/Evicted, or until at
    /// least `max_frames` frames were processed this call (0 = no budget;
    /// the budget is checked between rounds, so the final round may
    /// overshoot by up to one frame per session). Returns frames processed.
    std::size_t run(std::size_t max_frames = 0);

    /// Drop every Finished/Evicted session from the registry, returning how
    /// many were reaped. Terminal sessions stay readable until this is
    /// called (handy for tests and post-mortems), but a server with tenant
    /// churn must reap periodically or the registry grows one retired
    /// Engine per connection; reaping invalidates those sessions' Engine
    /// pointers and removes them from future FleetStats.
    std::size_t reap();

    /// Sessions currently holding a slot (Admitted-but-scheduled, Running
    /// or Draining) / waiting for one.
    std::size_t active_sessions() const;
    std::size_t queued_sessions() const;
    std::size_t total_sessions() const { return sessions_.size(); }

    /// Completed step_all() rounds.
    std::size_t rounds() const { return rounds_; }

    /// Resolved shared-pool width (1 = serial) and the pool itself
    /// (nullptr when serial).
    std::size_t workers() const { return workers_; }
    common::WorkerPool* worker_pool() { return pool_.get(); }

    const HostConfig& config() const { return config_; }

    /// Snapshot fleet telemetry and reset the per-window aggregates (host
    /// frame/wall counters, per-session step timings, per-stage stats).
    FleetStats take_fleet_stats();

    /// One session's health, as the watchdog sees it. Cumulative quality
    /// counters plus the most recent tumbling-window mean health.
    struct SessionHealth {
        SessionId id = 0;
        std::string name;
        SessionState state = SessionState::kAdmitted;
        QualityStats quality;        ///< cumulative (survives restarts)
        double recent_health = 1.0;  ///< last watchdog-window mean
        std::size_t restarts = 0;    ///< watchdog restarts survived
        bool degraded = false;       ///< recent_health < 1: faults active
    };

    /// Health snapshot of every registered session. Non-destructive --
    /// unlike take_fleet_stats() this resets nothing, so the control
    /// plane's HEALTH probe can poll without disturbing the STATS window.
    std::vector<SessionHealth> session_health() const;

    /// Watchdog restarts performed over the host's lifetime.
    std::size_t sessions_restarted() const { return restarts_total_; }

  private:
    /// What one session's step did in the current round. Written only by
    /// the thread stepping that session (phase 2), read in phase 3.
    enum class Outcome : std::uint8_t { kProduced, kExhausted, kThrew };

    struct Session {
        SessionId id = 0;
        std::string name;
        std::unique_ptr<Engine> engine;
        bool queued = false;
        bool paused = false;
        bool accounted = false;        ///< terminal transition already counted
        std::size_t lag = 0;           ///< consecutive rounds without a frame
        common::LatencyHistogram step; ///< window: produced frames' step()
        std::string fault;
        Outcome outcome = Outcome::kProduced;  ///< this round's step
        std::string error;                     ///< kThrew: the reason
        /// Self-healing wiring: empty factory = not restartable.
        EngineConfig engine_config;
        SourceFactory factory;
        std::function<void(Engine&)> wire_stages;
        std::size_t restarts = 0;
        /// Stage stats taken from engines replaced by a watchdog restart
        /// this window, unmerged; take_fleet_stats() folds them by name.
        std::vector<Engine::StageStats> carried_stages;
        /// Watchdog accounting: engine quality counters already consumed
        /// (marks) and the current tumbling health window.
        std::uint64_t mark_frames = 0;
        double mark_health_sum = 0.0;
        std::uint64_t window_frames = 0;
        double window_health_sum = 0.0;
        double recent_health = 1.0;
    };

    Session* find(SessionId id);
    const Session* find(SessionId id) const;
    bool terminal(const Session& session) const;
    void evict_session(Session& session, std::string reason);
    void promote_queued();
    void settle();
    bool progress_possible() const;

    /// Throws std::logic_error when called from inside step_all().
    void require_round_boundary(const char* operation) const;
    /// Phase 2 body: step one ready session and record its outcome.
    static void step_session(Session& session);
    /// Backpressure accounting for a paused session (phase 1); may evict
    /// the session past max_frame_lag.
    void lag_session(Session& session);
    /// Roll every session's engine quality deltas into its watchdog window
    /// and trigger restarts/evictions; runs once per step_all() round.
    void watch_health();
    /// Checkpoint + rebuild + restore one session in place (same record,
    /// same id). A failed restart evicts the session.
    void restart_session(Session& session);

    HostConfig config_;
    std::size_t workers_ = 1;
    std::unique_ptr<common::WorkerPool> pool_;  ///< shared; only workers_ > 1
    std::vector<std::unique_ptr<Session>> sessions_;  ///< admission order
    std::vector<Session*> ready_;      ///< this round's picks, reused
    bool in_round_ = false;            ///< step_all() is running
    SessionId next_id_ = 1;
    std::size_t rounds_ = 0;
    std::size_t frames_window_ = 0;
    double window_started_s_ = 0.0;    ///< steady-clock origin of the window
    std::size_t admitted_total_ = 0;
    std::size_t finished_total_ = 0;
    std::size_t evicted_total_ = 0;
    std::size_t restarts_total_ = 0;
};

/// Compact single-line JSON rendering of a session-health snapshot -- the
/// control plane's HEALTH response body.
std::string to_json(const std::vector<EngineHost::SessionHealth>& sessions);

}  // namespace witrack::engine
