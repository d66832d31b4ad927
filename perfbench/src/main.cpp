// perfbench_fleet: the whole-frame fleet benchmark. It drives the public
// API -- EngineHost, Engine, the FrameSources, net::pack_frame -- from one
// process and measures what a deployment sees per frame: source, pipeline,
// stages and the host round together, plus tracking accuracy against the
// simulator's ground truth. See perfbench/README.md for the workloads and
// the metric map.
//
// Run (normally through perfbench/run.py, which builds this first):
//   perfbench_fleet --workload sim-fleet|replay-session|net-lossy
//                   --seed N --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// untraced and then traced for S seconds each, prints the per-layer metrics
// and the tracing overhead, and writes the spans to DIR. The last line of
// stdout is one JSON object: correct, attempted, failed, metrics. Any failed
// correctness check makes the exit code nonzero.
#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/worker_pool.hpp"
#include "dsp/simd.hpp"
#include "engine/host.hpp"
#include "engine/plugins.hpp"
#include "engine/replay.hpp"
#include "engine/sim_source.hpp"
#include "hw/fault_injector.hpp"
#include "net/datagram_source.hpp"
#include "net/fault_injector.hpp"
#include "net/frame_protocol.hpp"
#include "net/net_source.hpp"
#include "probes.hpp"
#include "sim/environment.hpp"
#include "sim/motion.hpp"
#include "stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace witrack;
namespace pb = perfbench;

namespace {

// Thread budget: a host pool of 3 workers plus the calling thread.
// replay-session uses the calling thread alone (see ReplaySession).
constexpr std::size_t kThreads = 4;
// Set-up is repeated and its median reported, so one slow page-in does
// not read as a regression.
constexpr std::size_t kSetups = 3;
// Rounds stepped during set-up, so caches and lazy plans are warm when
// the clock starts.
constexpr std::size_t kWarmupRounds = 16;
// Tracking error counts only after the Kalman filter settles.
constexpr double kSettleS = 2.5;
// Sanity ceiling on the 90th-percentile tracking error: far above the
// paper's 10-20 cm, far below a track that lost the person.
constexpr double kErrorCeilingM = 1.0;
// Length of one simulated walk: a sim-fleet episode, or one recording the
// other two workloads replay.
constexpr double kWalkS = 12.0;
// Recordings made at set-up. Tracking error varies from walk to walk far
// more than within one, so accuracy is taken over many independent inputs:
// the first two episodes of sim-fleet's 8 sessions, every recording once
// on replay-session, and every recording twice (under different drop
// seeds) on net-lossy.
constexpr std::size_t kRecordings = 8;
constexpr std::size_t kAccuracyEpisodes = 2;
// Datagram loss on net-lossy, and the reassembly window it relies on.
constexpr double kNetDropRate = 0.01;
constexpr std::size_t kNetWindow = 8;
// Spans kept in memory for the trace file.
constexpr std::size_t kMaxSpans = 200000;
// Throughput is sampled in windows of this share of the measured phase.
constexpr std::size_t kWindows = 40;
// Latency quantiles are taken per window of this many consecutive frames:
// each window's p99 rests on exactly 10 samples beyond it.
constexpr std::size_t kLatencyWindow = 1000;
static_assert(pb::samples_beyond(kLatencyWindow, 99.0) >= 10,
              "a latency window must hold 10 samples beyond its p99");
// Interference from other tenants of the host only ever slows a window
// down, never speeds it up. The timings therefore report the
// least-disturbed quartile of windows: the upper quartile of window
// rates and the lower quartile of per-window latency quantiles. A burst
// that spoils up to three quarters of the windows leaves them unchanged.
constexpr double kQuietQuartile = 0.25;

// Seed purposes: every scenario, fault and drop seed derives from the
// workload seed through derive_seed(seed, purpose, slot, episode).
enum Purpose : std::uint64_t { kNoise = 1, kWalk = 2, kHwFault = 3, kNetDrop = 4, kToken = 5 };

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string workdir = ".";
};

/// Correctness ledger: every failed check is one failed operation.
struct Gate {
    std::uint64_t failed = 0;
    void check(bool ok, const std::string& what) {
        if (ok) return;
        ++failed;
        if (failed <= 20) std::printf("check FAILED: %s\n", what.c_str());
    }
};

/// Samples by layer name, in microseconds unless the name says otherwise.
using Samples = std::map<std::string, std::vector<double>>;

/// What the run accumulates from every harvested session.
struct Totals {
    std::uint64_t generated = 0;   ///< frames the sources produced / were sent
    std::uint64_t tracked = 0;     ///< TrackUpdateEvents
    std::uint64_t net_gaps = 0;
    std::uint64_t evictions = 0;
    /// p50 and p99 of each window of frame latencies, untraced phase.
    pb::WindowQuantiles latency_ms{kLatencyWindow, {0.5, 0.99}};
    std::vector<double> accuracy_m;  ///< the workload's accuracy set
    std::size_t accuracy_sessions = 0;
    Samples layer_us;
    std::vector<pb::Span> spans;
    std::uint64_t spans_dropped = 0;
    std::uint64_t hw_frames = 0, hw_degraded = 0, hw_rx_dropouts = 0;
    std::uint64_t net_frames_sent = 0, net_delivered = 0;
    std::uint64_t net_datagrams_sent = 0, net_bytes_sent = 0, net_frames_packed = 0;
    std::map<std::string, double> stage_s;  ///< FleetStats stage rollups, traced phase
    std::uint64_t stage_frames = 0;

    void keep(const pb::Span& span) {
        if (spans.size() < kMaxSpans)
            spans.push_back(span);
        else
            ++spans_dropped;
    }
};

/// One admission slot of the fleet and the session currently holding it.
struct Slot {
    std::size_t index = 0;
    std::size_t episode = 0;
    engine::SessionId id = 0;
    std::unique_ptr<pb::SessionProbe> probe;
    const hw::FaultInjector* injector = nullptr;  ///< faulted sim sessions
    // net-lossy generator state for the current session
    net::QueueDatagramSource* queue = nullptr;    ///< owned by the session
    std::unique_ptr<engine::ReplaySource> reader;
    std::unique_ptr<net::FaultInjector> drops;
    std::uint64_t token = 0;
    std::uint64_t sent = 0;
    std::vector<bool> damaged;  ///< per frame sent: lost at least one datagram
    bool closed = false;
};

// ---------------------------------------------------------------- workloads

class Workload {
  public:
    virtual ~Workload() = default;
    virtual const char* source_layer() const = 0;
    virtual std::size_t slots() const = 0;
    /// Set-up input generation (simulate and record), if any; `sim_us`
    /// collects per-frame simulator timings when non-null.
    virtual void make_inputs(std::vector<double>* /*sim_us*/) {}
    /// The next session's source for `slot` (slot.episode is current).
    virtual std::unique_ptr<engine::FrameSource> make_source(Slot& slot) = 0;
    /// Work the driving thread does before each round (net generator).
    virtual void before_round(std::vector<Slot>&, engine::EngineHost&, bool, Totals&) {}
    /// Workload-specific checks on a session that reached a terminal state.
    virtual void harvest(Slot&, const engine::Engine&, Totals&, Gate&) {}
    /// Whether episode `episode` of slot `slot` belongs to the accuracy
    /// set (see kRecordings). The set is fixed per seed, so the tracking
    /// error is too.
    virtual bool accuracy_episode(std::size_t slot, std::size_t episode) const = 0;
    virtual std::size_t accuracy_sessions() const = 0;
    /// Whether sessions run a FallMonitorStage after the pipeline, as a
    /// deployed fleet does. replay-session leaves it out so the pipeline
    /// and replay decode are what it measures.
    virtual bool fall_monitor() const { return true; }
    /// Workers of the host's pool; the calling thread steps as well.
    virtual std::size_t workers() const { return kThreads - 1; }
    /// Whether a session's frame accounting is exact while it is still
    /// running (in-process sources), so the run may stop it mid-episode
    /// once the accuracy set is done. A network session has frames in
    /// flight and must drain to its end-of-stream instead.
    virtual bool exact_midway() const { return true; }
};

/// A random-waypoint walk through the wall of the lab room.
std::unique_ptr<sim::MotionScript> walk(std::uint64_t seed) {
    const auto bounds = sim::make_lab_environment().bounds;
    return std::make_unique<sim::RandomWaypointWalk>(bounds, kWalkS, Rng(seed), 0.5, 1.3,
                                                     0.2, 0.57 * sim::HumanParams{}.height_m);
}

engine::EngineConfig sim_config(std::uint64_t seed) {
    engine::EngineConfig config;
    config.with_fast_capture(true).with_seed(seed);
    return config;
}

class SimFleet final : public Workload {
  public:
    explicit SimFleet(std::uint64_t seed) : seed_(seed) {}
    const char* source_layer() const override { return "sim.next"; }
    std::size_t slots() const override { return 8; }
    bool accuracy_episode(std::size_t, std::size_t episode) const override {
        return episode < kAccuracyEpisodes;
    }
    std::size_t accuracy_sessions() const override { return slots() * kAccuracyEpisodes; }

    std::unique_ptr<engine::FrameSource> make_source(Slot& slot) override {
        const bool faulted = slot.index >= 6;  // the 4-RX pair
        auto config = sim_config(pb::derive_seed(seed_, kNoise, slot.index, slot.episode));
        config.with_cross_array(faulted);
        auto source = std::make_unique<engine::SimSource>(
            config, walk(pb::derive_seed(seed_, kWalk, slot.index, slot.episode)));
        slot.injector = nullptr;
        if (faulted) {
            hw::FaultConfig faults;
            faults.dropout_rate = 0.01;
            faults.saturation_rate = 0.01;
            faults.seed = pb::derive_seed(seed_, kHwFault, slot.index, slot.episode);
            source->set_fault_injector(std::make_unique<hw::FaultInjector>(faults));
            slot.injector = source->fault_injector();
        }
        return source;
    }

    void harvest(Slot& slot, const engine::Engine& engine, Totals& totals,
                 Gate& gate) override {
        if (slot.injector == nullptr) return;
        const auto& q = engine.quality_stats();
        const auto& c = slot.injector->counters();
        const std::string who = "sim-fleet slot " + std::to_string(slot.index) +
                                " episode " + std::to_string(slot.episode);
        gate.check(q.rx_dropouts == c.rx_dropouts && q.saturated_rx == c.saturated_rx &&
                       q.dropped_sweeps == c.dropped_sweeps &&
                       q.short_sweeps == c.short_sweeps &&
                       q.noise_bursts == c.noise_bursts && q.drift_frames == c.drift_frames,
                   who + ": quality counters differ from the injector's");
        gate.check(c.rx_dropouts > 0 && c.saturated_rx > 0,
                   who + ": the fault injector never fired");
        totals.hw_frames += q.frames;
        totals.hw_degraded += q.degraded_frames;
        totals.hw_rx_dropouts += q.rx_dropouts;
    }

  private:
    std::uint64_t seed_;
};

/// Shared by the two workloads that replay set-up recordings. The
/// recordings live in memory-backed files (memfd), so neither writing them
/// nor replaying them waits on a disk another tenant may be using.
class RecordedWorkload : public Workload {
  public:
    explicit RecordedWorkload(std::uint64_t seed) : seed_(seed), frames_(kRecordings) {
        for (std::size_t i = 0; i < kRecordings; ++i) {
            const int fd = memfd_create("perfbench-recording", MFD_CLOEXEC);
            if (fd < 0) {
                for (const int open_fd : fds_) close(open_fd);
                throw std::runtime_error("memfd_create failed");
            }
            fds_.push_back(fd);
            paths_.push_back("/proc/self/fd/" + std::to_string(fd));
        }
    }
    ~RecordedWorkload() override {
        for (const int fd : fds_) close(fd);
    }
    RecordedWorkload(const RecordedWorkload&) = delete;
    RecordedWorkload& operator=(const RecordedWorkload&) = delete;

    /// Simulate and record the walks, one per thread of the budget.
    void make_inputs(std::vector<double>* sim_us) override {
        std::vector<std::vector<double>> timings(kRecordings);
        common::WorkerPool pool(kThreads - 1);
        pool.parallel_for(kRecordings, [&](std::size_t i) {
            engine::SimSource live(sim_config(pb::derive_seed(seed_, kNoise, i, 0)),
                                   walk(pb::derive_seed(seed_, kWalk, i, 0)));
            engine::Recorder recorder(paths_[i], live.fmcw(), live.array());
            engine::Frame frame;
            for (;;) {
                const std::int64_t t0 = pb::now_ns();
                if (!live.next(frame)) break;
                if (sim_us != nullptr)
                    timings[i].push_back(static_cast<double>(pb::now_ns() - t0) * 1e-3);
                recorder.write(frame);
            }
            recorder.close();
            frames_[i] = recorder.frames_written();
        });
        if (sim_us != nullptr)
            for (const auto& t : timings) sim_us->insert(sim_us->end(), t.begin(), t.end());
    }

  protected:
    std::uint64_t seed_;
    std::vector<int> fds_;
    std::vector<std::string> paths_;
    std::vector<std::uint64_t> frames_;
};

class ReplaySession final : public RecordedWorkload {
  public:
    using RecordedWorkload::RecordedWorkload;
    const char* source_layer() const override { return "replay.next"; }
    std::size_t slots() const override { return 1; }
    bool fall_monitor() const override { return false; }
    /// With one session per round, the host's pool would serve only the
    /// per-RX fan-out inside the frame. That fan-out costs more than it
    /// saves on a ~35 us frame, and its cross-core wake-ups set the tail
    /// latency by how the hypervisor schedules the idle cores, not by the
    /// code. Stepping on the calling thread alone keeps the pipeline and
    /// replay decode what this workload measures.
    std::size_t workers() const override { return 0; }
    /// Pass p replays recording p mod kRecordings.
    bool accuracy_episode(std::size_t, std::size_t episode) const override {
        return episode < kRecordings;
    }
    std::size_t accuracy_sessions() const override { return kRecordings; }

    std::unique_ptr<engine::FrameSource> make_source(Slot& slot) override {
        return std::make_unique<engine::ReplaySource>(paths_[slot.episode % kRecordings]);
    }

    void harvest(Slot& slot, const engine::Engine& engine, Totals&, Gate& gate) override {
        const std::size_t recording = slot.episode % kRecordings;
        const std::string who = "replay-session pass " + std::to_string(slot.episode);
        gate.check(engine.frames_processed() == frames_[recording],
                   who + ": replayed " + std::to_string(engine.frames_processed()) +
                       " of " + std::to_string(frames_[recording]) + " recorded frames");
        const std::uint64_t digest = slot.probe->digest.value();
        if (!first_digest_[recording]) first_digest_[recording] = digest;
        gate.check(digest == *first_digest_[recording],
                   who + ": track digest differs from the first pass over recording " +
                       std::to_string(recording));
    }

  private:
    std::optional<std::uint64_t> first_digest_[kRecordings];
};

class NetLossy final : public RecordedWorkload {
  public:
    using RecordedWorkload::RecordedWorkload;
    const char* source_layer() const override { return "net.next"; }
    std::size_t slots() const override { return 4; }
    bool exact_midway() const override { return false; }
    /// Slot s streams recording (s + 4 e) mod kRecordings in episode e.
    bool accuracy_episode(std::size_t slot, std::size_t episode) const override {
        return slot + slots() * episode < kAccuracyEpisodes * kRecordings;
    }
    std::size_t accuracy_sessions() const override { return kAccuracyEpisodes * kRecordings; }

    std::unique_ptr<engine::FrameSource> make_source(Slot& slot) override {
        slot.token = pb::derive_seed(seed_, kToken, slot.index, slot.episode) | 1;
        slot.reader = std::make_unique<engine::ReplaySource>(
            paths_[recording(slot.index, slot.episode)]);
        net::FaultConfig faults;
        faults.drop_rate = kNetDropRate;
        faults.seed = pb::derive_seed(seed_, kNetDrop, slot.index, slot.episode);
        faults.protect_last = false;  // the end-of-stream marker is sent unfaulted
        slot.drops = std::make_unique<net::FaultInjector>(faults);
        slot.sent = 0;
        slot.damaged.clear();
        slot.closed = false;

        auto queue = std::make_unique<net::QueueDatagramSource>();
        slot.queue = queue.get();
        net::NetSourceConfig config;
        config.fmcw = slot.reader->fmcw();
        config.array = slot.reader->array();
        config.session_token = slot.token;
        config.tracker.window_frames = kNetWindow;
        return std::make_unique<net::NetSource>(std::move(queue), config);
    }

    /// The same-thread generator. Before every round each queue is topped
    /// up to at least window+1 frames past what its session resolved
    /// (delivered or wrote off), as a radio streaming ahead of its
    /// consumer would be. NetSource::next spins on an open, empty queue
    /// until its idle timeout, so the top-up also continues until the
    /// session's next frame is certain to come out: the first intact frame
    /// past the resolved ones is next in line, or far enough behind the
    /// newest frame sent that the reassembly window writes off every
    /// damaged frame before it. A lost frame is written off, never waited
    /// out.
    void before_round(std::vector<Slot>& slots, engine::EngineHost& host, bool tracing,
                      Totals& totals) override {
        for (Slot& slot : slots) {
            if (slot.queue == nullptr) continue;
            const auto stats = host.session(slot.id)->net_stats().value_or(
                engine::NetIngestStats{});
            const std::uint64_t resolved = stats.frames_delivered + stats.frame_gaps;
            while (!slot.closed && (slot.sent - resolved < kNetWindow + 1 ||
                                    !next_frame_certain(slot, resolved)))
                send_one(slot, tracing, totals);
        }
    }

    void harvest(Slot& slot, const engine::Engine& engine, Totals& totals,
                 Gate& gate) override {
        const auto stats = engine.net_stats().value_or(engine::NetIngestStats{});
        const std::string who = "net-lossy slot " + std::to_string(slot.index) +
                                " episode " + std::to_string(slot.episode);
        const std::uint64_t recorded = frames_[recording(slot.index, slot.episode)];
        gate.check(slot.closed && slot.sent == recorded,
                   who + ": generator sent " + std::to_string(slot.sent) + " of " +
                       std::to_string(recorded) + " frames");
        gate.check(stats.frames_delivered == slot.probe->tracked,
                   who + ": delivered frames differ from track updates");
        gate.check(stats.idle_timeouts == 0, who + ": NetSource waited out its idle timeout");
        totals.net_frames_sent += slot.sent;
        totals.net_delivered += stats.frames_delivered;
        slot.queue = nullptr;
        slot.reader.reset();
    }

  private:
    std::size_t recording(std::size_t slot, std::size_t episode) const {
        return (slot + slots() * episode) % kRecordings;
    }

    static bool next_frame_certain(const Slot& slot, std::uint64_t resolved) {
        std::uint64_t intact = resolved;
        while (intact < slot.sent && slot.damaged[intact]) ++intact;
        if (intact == slot.sent) return false;
        // A hole at seq h is written off once a frame >= h + window arrived.
        return intact == resolved || slot.sent - intact >= kNetWindow;
    }

    void send_one(Slot& slot, bool tracing, Totals& totals) {
        std::int64_t t0 = pb::now_ns();
        if (!slot.reader->next(frame_)) {
            slot.queue->push(net::pack_end_of_stream(slot.token, slot.sent));
            slot.queue->close();
            slot.closed = true;
            return;
        }
        std::int64_t t1 = pb::now_ns();
        auto datagrams = net::pack_frame(frame_, slot.token, slot.sent);
        const std::int64_t t2 = pb::now_ns();
        if (tracing) {
            const auto session = static_cast<std::uint32_t>(slot.index);
            totals.layer_us["replay.next"].push_back(static_cast<double>(t1 - t0) * 1e-3);
            totals.layer_us["net.pack"].push_back(static_cast<double>(t2 - t1) * 1e-3);
            totals.keep({"gen.replay.next", t0, t1, 0, 0, session, slot.sent});
            totals.keep({"net.pack", t1, t2, 0, 0, session, slot.sent});
        }
        ++totals.net_frames_packed;
        totals.net_datagrams_sent += datagrams.size();
        for (const auto& datagram : datagrams) totals.net_bytes_sent += datagram.size();
        const std::size_t packed = datagrams.size();
        auto delivered = slot.drops->apply(std::move(datagrams));
        slot.damaged.push_back(delivered.size() != packed);
        for (auto& datagram : delivered) slot.queue->push(std::move(datagram));
        ++slot.sent;
    }

    engine::Frame frame_;
};

// -------------------------------------------------------------------- fleet

/// One EngineHost serving the workload's slots, stepped by this thread.
class Fleet {
  public:
    Fleet(Workload& workload, const Options& options, pb::RoundClock& clock,
          Totals& totals, Gate& gate)
        : workload_(&workload), options_(&options), clock_(&clock), totals_(&totals),
          gate_(&gate),
          host_(engine::HostConfig{}
                    .with_workers(workload.workers())
                    .with_max_sessions(workload.slots())
                    .with_queue_when_full(false)),
          slots_(workload.slots()) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            slots_[i].index = i;
            admit(slots_[i]);
        }
    }

    /// One step_all() round, with the generator's top-up before it.
    std::size_t round() {
        workload_->before_round(slots_, host_, clock_->tracing, *totals_);
        clock_->start_ns = pb::now_ns();
        clock_->span_id = ++rounds_;
        const std::size_t frames = host_.step_all();
        const std::int64_t end = pb::now_ns();
        if (clock_->tracing) {
            totals_->layer_us["host.round"].push_back(
                static_cast<double>(end - clock_->start_ns) * 1e-3);
            totals_->keep({"host.round", clock_->start_ns, end, clock_->span_id, 0, 0, 0});
        }
        for (Slot& slot : slots_) {
            if (!slot.probe) continue;
            for (const double ms : slot.probe->latency_ms) totals_->latency_ms.add(ms);
            slot.probe->latency_ms.clear();
        }
        return frames;
    }

    /// Harvest every session that reached a terminal state and give its
    /// slot the next episode -- while draining, only an episode the
    /// accuracy set still needs.
    void refill(bool draining) {
        std::vector<std::unique_ptr<pb::SessionProbe>> retired;
        for (Slot& slot : slots_) {
            if (!slot.probe || !terminal(slot)) continue;
            harvest(slot);
            retired.push_back(std::move(slot.probe));
        }
        if (retired.empty()) return;
        if (clock_->tracing) collect_stage_stats();
        host_.reap();   // destroys the engines, and with them the subscriptions
        retired.clear();  // ... so the probes may go now
        for (Slot& slot : slots_) {
            if (slot.probe) continue;
            if (draining && !workload_->accuracy_episode(slot.index, slot.episode + 1))
                continue;
            ++slot.episode;
            admit(slot);
        }
    }

    /// Step until the accuracy set is complete and every session whose
    /// accounting is only exact at its end has ended; then harvest what
    /// is left, running sessions included.
    void drain() {
        for (;;) {
            refill(true);
            bool done = true;
            for (const Slot& slot : slots_) {
                const bool must_finish =
                    workload_->accuracy_episode(slot.index, slot.episode) ||
                    !workload_->exact_midway();
                if (slot.probe && must_finish) done = false;
            }
            if (done) break;
            round();
        }
        for (Slot& slot : slots_)
            if (slot.probe) harvest(slot);
    }

    /// Fold the host's stage rollups (fall_monitor, pipeline.*) into the
    /// totals. Each call snapshots and resets the host's window.
    void collect_stage_stats() {
        const auto stats = host_.take_fleet_stats();
        totals_->stage_frames += stats.frames;
        for (const auto& session : stats.sessions)
            for (const auto& stage : session.stages)
                totals_->stage_s[stage.name] += stage.total_s;
    }
    void reset_stage_stats() { host_.take_fleet_stats(); }

  private:
    bool terminal(const Slot& slot) const {
        const auto state = host_.state(slot.id);
        return state == engine::SessionState::kFinished ||
               state == engine::SessionState::kEvicted;
    }

    void admit(Slot& slot) {
        slot.probe = std::make_unique<pb::SessionProbe>(
            static_cast<std::uint32_t>(slot.index), *clock_, workload_->source_layer(),
            kSettleS);
        auto source = workload_->make_source(slot);
        if (options_->trace)
            source = std::make_unique<pb::TimingSource>(std::move(source), *slot.probe);
        slot.id = host_.admit(options_->workload + "-" + std::to_string(slot.index),
                              engine::EngineConfig{}, std::move(source));
        engine::Engine& session = *host_.session(slot.id);
        if (workload_->fall_monitor()) session.emplace_stage<engine::FallMonitorStage>();
        slot.probe->subscribe(session.bus());
    }

    void harvest(Slot& slot) {
        const engine::Engine& session = *host_.session(slot.id);
        const bool ended = terminal(slot);
        pb::SessionProbe& probe = *slot.probe;
        Totals& totals = *totals_;
        const auto net = session.net_stats();
        const std::uint64_t gaps = net ? net->frame_gaps : 0;
        const std::uint64_t generated = net ? slot.sent : session.frames_processed();
        const std::string who = options_->workload + " slot " + std::to_string(slot.index) +
                                " episode " + std::to_string(slot.episode);

        gate_->check(session.session_state() != engine::SessionState::kEvicted,
                     who + ": session was evicted");
        if (session.session_state() == engine::SessionState::kEvicted) ++totals.evictions;
        gate_->check(generated == probe.tracked + gaps,
                     who + ": generated " + std::to_string(generated) + " != tracked " +
                         std::to_string(probe.tracked) + " + net gaps " +
                         std::to_string(gaps));
        if (ended) workload_->harvest(slot, session, totals, *gate_);

        totals.generated += generated;
        totals.tracked += probe.tracked;
        totals.net_gaps += gaps;
        if (ended && workload_->accuracy_episode(slot.index, slot.episode)) {
            totals.accuracy_m.insert(totals.accuracy_m.end(), probe.error_m.begin(),
                                     probe.error_m.end());
            ++totals.accuracy_sessions;
        }
        auto& source = totals.layer_us[workload_->source_layer()];
        source.insert(source.end(), probe.source_us.begin(), probe.source_us.end());
        auto& core = totals.layer_us["core.frame"];
        core.insert(core.end(), probe.core_us.begin(), probe.core_us.end());
        for (const auto& span : probe.spans) totals.keep(span);
    }

    Workload* workload_;
    const Options* options_;
    pb::RoundClock* clock_;
    Totals* totals_;
    Gate* gate_;
    engine::EngineHost host_;
    std::vector<Slot> slots_;
    std::uint64_t rounds_ = 0;
};

// ------------------------------------------------------------------ helpers

double sorted_quantile(std::vector<double>& values, double q) {
    std::sort(values.begin(), values.end());
    return pb::quantile(values, q);
}

struct Phase {
    std::uint64_t frames = 0;
    double seconds = 0.0;
    std::vector<double> window_fps;  ///< frames/s of each window, in order
    /// Upper quartile of the window rates (see kQuietQuartile).
    double fps() const {
        auto rates = window_fps;
        return rates.empty() ? 0.0 : sorted_quantile(rates, 1.0 - kQuietQuartile);
    }
};

/// Closed loop: round after round for `seconds`, refilling finished slots.
Phase run_phase(Fleet& fleet, pb::RoundClock& clock, double seconds, bool tracing) {
    clock.record_latency = !tracing;
    clock.tracing = tracing;
    if (tracing) fleet.reset_stage_stats();
    Phase phase;
    const std::int64_t t0 = pb::now_ns();
    const auto limit = static_cast<std::int64_t>(seconds * 1e9);
    const std::int64_t window = limit / static_cast<std::int64_t>(kWindows);
    std::int64_t window_start = t0;
    std::uint64_t window_frames = 0;
    std::int64_t now = t0;
    while (now - t0 < limit) {
        const std::size_t frames = fleet.round();
        phase.frames += frames;
        window_frames += frames;
        fleet.refill(false);
        now = pb::now_ns();
        if (now - window_start >= window) {
            phase.window_fps.push_back(static_cast<double>(window_frames) * 1e9 /
                                       static_cast<double>(now - window_start));
            window_start = now;
            window_frames = 0;
        }
    }
    phase.seconds = static_cast<double>(now - t0) * 1e-9;
    if (tracing) fleet.collect_stage_stats();
    clock.record_latency = false;
    clock.tracing = false;
    return phase;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Metric rows in print order; the JSON result line repeats them.
struct Metrics {
    struct Row {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Row> rows;

    void add(const std::string& name, double value, const std::string& unit,
             const std::string& detail) {
        rows.push_back({name, value, unit});
        std::printf("  %-28s %14.6g %-6s %s\n", name.c_str(), value, unit.c_str(),
                    detail.c_str());
    }
    /// A timing or error quantile with its sample count.
    void add_quantile(const std::string& name, std::vector<double>& values, double q,
                      const std::string& unit) {
        const double value = values.empty() ? 0.0 : sorted_quantile(values, q);
        add(name, value, unit, "n=" + std::to_string(values.size()));
    }
    void add_ratio(const std::string& name, const pb::Ratio& ratio, const char* base_name) {
        add(name, ratio.value(), "ratio", pb::describe(ratio, base_name));
    }
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.rows.size(); ++i) {
        const auto& row = metrics.rows[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                    row.name.c_str(), row.value, row.unit.c_str());
    }
    std::printf("}}\n");
}

void write_trace(const std::string& path, const Totals& totals) {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) throw std::runtime_error("cannot write " + path);
    std::fprintf(out, "name,start_ns,end_ns,id,parent,session,frame\n");
    for (const auto& s : totals.spans)
        std::fprintf(out, "%s,%lld,%lld,%llu,%llu,%u,%llu\n", s.name,
                     static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.session,
                     static_cast<unsigned long long>(s.frame));
    if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

Options parse(int argc, char** argv) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
        const std::string value = argv[++i];
        if (arg == "--workload") options.workload = value;
        else if (arg == "--seed") options.seed = std::stoull(value);
        else if (arg == "--seconds") options.seconds = std::stod(value);
        else if (arg == "--trace") options.trace = value == "1";
        else if (arg == "--workdir") options.workdir = value;
        else throw std::invalid_argument("unknown argument " + arg);
    }
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    return options;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
    if (options.workload == "sim-fleet") return std::make_unique<SimFleet>(options.seed);
    if (options.workload == "replay-session")
        return std::make_unique<ReplaySession>(options.seed);
    if (options.workload == "net-lossy") return std::make_unique<NetLossy>(options.seed);
    throw std::invalid_argument("unknown workload '" + options.workload +
                                "' (sim-fleet, replay-session, net-lossy)");
}

double median_of(std::vector<double> values) { return sorted_quantile(values, 0.5); }

/// Lower quartile across windows of the i-th latency quantile (see
/// kQuietQuartile).
double windowed_latency(const pb::WindowQuantiles& windows, std::size_t i) {
    auto per_window = windows.per_window(i);
    return per_window.empty() ? 0.0 : sorted_quantile(per_window, kQuietQuartile);
}

double p50(Samples& samples, const char* layer) {
    auto& values = samples[layer];
    return values.empty() ? 0.0 : sorted_quantile(values, 0.5);
}

/// What a finished run hands to its report.
struct Run {
    Totals totals;
    Phase untraced;
    Phase traced;
    std::vector<double> setup_s;
    std::vector<double> setup_sim_us;  ///< traced runs of the recorded workloads
};

void report_end_to_end(const Options& options, const Workload& workload, Run& run,
                       Metrics& metrics) {
    std::printf("end-to-end (%s, closed loop, %zu sessions, %zu threads):\n",
                options.workload.c_str(), workload.slots(), workload.workers() + 1);
    metrics.add("frames_per_s", run.untraced.fps(), "1/s",
                "n=" + std::to_string(run.untraced.window_fps.size()) + " windows, " +
                    std::to_string(run.untraced.frames) + " frames in " +
                    std::to_string(run.untraced.seconds) + " s, upper-quartile window");
    const std::string windows_note =
        "n=" + std::to_string(run.totals.latency_ms.windows()) + " windows of " +
        std::to_string(kLatencyWindow) + " frames, lower-quartile window";
    metrics.add("frame_latency_p50_ms", windowed_latency(run.totals.latency_ms, 0), "ms",
                windows_note);
    metrics.add("frame_latency_p99_ms", windowed_latency(run.totals.latency_ms, 1), "ms",
                windows_note);
    metrics.add_quantile("track_error_p50_m", run.totals.accuracy_m, 0.5, "m");
    metrics.add_quantile("track_error_p90_m", run.totals.accuracy_m, 0.9, "m");
    metrics.add_ratio("frames_tracked_ratio", {run.totals.tracked, run.totals.generated},
                      "frames generated");
    metrics.add("setup_s", median_of(run.setup_s), "s",
                "n=" + std::to_string(run.setup_s.size()) + " set-ups, median");
    metrics.add("peak_rss_mb", peak_rss_mb(), "MB", "n=1");
    std::printf("  frames lost: %llu (net gaps %llu, evictions %llu)\n",
                static_cast<unsigned long long>(run.totals.generated - run.totals.tracked),
                static_cast<unsigned long long>(run.totals.net_gaps),
                static_cast<unsigned long long>(run.totals.evictions));
}

void report_per_layer(const Options& options, const Workload& workload, Run& run,
                      Metrics& metrics) {
    Totals& totals = run.totals;
    auto& layers = totals.layer_us;
    if (!run.setup_sim_us.empty()) layers["sim.next"] = run.setup_sim_us;
    std::printf("per-layer (%s, traced phase, %llu frames):\n", options.workload.c_str(),
                static_cast<unsigned long long>(run.traced.frames));
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const double frames = count(std::max<std::uint64_t>(totals.stage_frames, 1));
    const auto per_frame_us = [&](const std::string& stage) {
        const auto it = totals.stage_s.find(stage);
        return it == totals.stage_s.end() ? 0.0 : it->second * 1e6 / frames;
    };
    const std::string frames_note =
        "n=" + std::to_string(totals.stage_frames) + " frames, mean per frame";
    metrics.add_quantile("sim.next_us.p50", layers["sim.next"], 0.5, "us");
    metrics.add_quantile("sim.next_us.p99", layers["sim.next"], 0.99, "us");
    metrics.add_quantile("replay.next_us.p50", layers["replay.next"], 0.5, "us");
    metrics.add_quantile("replay.next_us.p99", layers["replay.next"], 0.99, "us");
    metrics.add_quantile("net.pack_us.p50", layers["net.pack"], 0.5, "us");
    metrics.add_quantile("net.next_us.p50", layers["net.next"], 0.5, "us");
    metrics.add_quantile("net.next_us.p99", layers["net.next"], 0.99, "us");
    const double packed = count(std::max<std::uint64_t>(totals.net_frames_packed, 1));
    const std::string packed_note =
        "n=" + std::to_string(totals.net_frames_packed) + " frames packed";
    metrics.add("net.datagrams_per_frame", count(totals.net_datagrams_sent) / packed, "count",
                packed_note);
    metrics.add("net.bytes_per_frame", count(totals.net_bytes_sent) / packed, "B",
                packed_note);
    metrics.add_ratio("net.delivered_ratio", {totals.net_delivered, totals.net_frames_sent},
                      "frames sent");
    metrics.add("net.frame_gaps", count(totals.net_gaps), "count", "");
    metrics.add_quantile("core.frame_us.p50", layers["core.frame"], 0.5, "us");
    metrics.add_quantile("core.frame_us.p99", layers["core.frame"], 0.99, "us");
    for (const char* step : {"fft", "subtract", "contour", "denoise", "localize", "smooth"})
        metrics.add(std::string("pipeline.") + step + "_us",
                    per_frame_us(std::string("pipeline.") + step), "us", frames_note);
    metrics.add("engine.stages_us", per_frame_us("fall_monitor"), "us", frames_note);
    metrics.add("engine.evictions", count(totals.evictions), "count", "");
    metrics.add_quantile("host.round_us.p50", layers["host.round"], 0.5, "us");
    metrics.add_quantile("host.round_us.p99", layers["host.round"], 0.99, "us");
    double busy_us = 0.0, round_us = 0.0;
    for (const double v : layers[workload.source_layer()]) busy_us += v;
    for (const double v : layers["core.frame"]) busy_us += v;
    for (const double v : layers["host.round"]) round_us += v;
    const double thread_s = round_us * 1e-6 * static_cast<double>(kThreads);
    char busy[128];
    std::snprintf(busy, sizeof busy,
                  "(%.3f s of source + core spans of %.3f thread-s: round wall x %zu)",
                  busy_us * 1e-6, thread_s, kThreads);
    metrics.add("host.busy_share", thread_s > 0.0 ? busy_us * 1e-6 / thread_s : 0.0, "ratio",
                busy);
    const std::string hw_note =
        "of " + std::to_string(totals.hw_frames) + " frames of fault-injected sessions";
    metrics.add("hw.degraded_frames", count(totals.hw_degraded), "count", hw_note);
    metrics.add("hw.rx_dropouts", count(totals.hw_rx_dropouts), "count", hw_note);
    const double untraced_fps = run.untraced.fps();
    metrics.add("trace.untraced_frames_per_s", untraced_fps, "1/s",
                "n=" + std::to_string(run.untraced.frames) + " frames");
    metrics.add("trace.frames_per_s", run.traced.fps(), "1/s",
                "n=" + std::to_string(run.traced.frames) + " frames");
    metrics.add("trace.overhead_pct",
                untraced_fps > 0.0 ? 100.0 * (1.0 - run.traced.fps() / untraced_fps) : 0.0,
                "%", "1 - traced/untraced frames_per_s");

    // The split the per-layer metrics exist to show, from outside. A
    // session's frame runs from its source call to its TrackUpdateEvent
    // (the end point of frame_latency); app stages run after the event.
    const double source = p50(layers, workload.source_layer());
    const double core = p50(layers, "core.frame");
    const double pack = p50(layers, "net.pack");
    const double frame = source + core;
    std::printf("  split (p50s): %s %.1f us = %.1f%% + core.frame %.1f us = %.1f%% of the "
                "frame up to its event; then engine.stages %.1f us\n",
                workload.source_layer(), source, 100.0 * source / frame, core,
                100.0 * core / frame, per_frame_us("fall_monitor"));
    const auto expect = [](const char* what, bool holds) {
        std::printf("  split check: %s: %s\n", what, holds ? "yes" : "no");
    };
    if (options.workload == "sim-fleet") {
        expect("sim.next >= 90% of the frame", source >= 0.9 * frame);
        expect("core.frame < 5% of the frame", core < 0.05 * frame);
    } else if (options.workload == "replay-session") {
        expect("core.frame is the largest layer of the frame", core > source);
    } else {
        expect("net.next + net.pack > core.frame", source + pack > core);
    }
    if (totals.spans_dropped > 0)
        std::printf("  trace: kept the first %zu spans, dropped %llu\n", kMaxSpans,
                    static_cast<unsigned long long>(totals.spans_dropped));
    const std::string trace_path = options.workdir + "/trace-" + options.workload +
                                   "-seed" + std::to_string(options.seed) + ".csv";
    write_trace(trace_path, totals);
    std::printf("  trace: %zu spans written to %s\n", totals.spans.size(),
                trace_path.c_str());
}

int run_benchmark(const Options& options) {
    const std::string build_type = PERFBENCH_BUILD_TYPE;
    std::printf("# perfbench_fleet workload=%s seed=%llu seconds=%g trace=%d host_cpus=%u "
                "simd=%s build=%s threads=%zu\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
                dsp::simd::to_string(dsp::simd::active()), build_type.c_str(), kThreads);
    if (build_type != "Release") {
        std::fprintf(stderr, "perfbench_fleet: refusing a %s build; timings need Release\n",
                     build_type.c_str());
        return 2;
    }
    // A fault campaign inherited from the environment would change what
    // the workloads measure; each workload attaches its own injectors.
    unsetenv("WITRACK_HW_FAULTS");

    auto workload = make_workload(options);
    pb::RoundClock clock;
    Run run;
    Gate gate;
    std::unique_ptr<Fleet> fleet;
    for (std::size_t k = 0; k < kSetups; ++k) {
        fleet.reset();
        run.totals = Totals{};
        const std::int64_t t0 = pb::now_ns();
        workload->make_inputs(options.trace ? &run.setup_sim_us : nullptr);
        fleet = std::make_unique<Fleet>(*workload, options, clock, run.totals, gate);
        for (std::size_t r = 0; r < kWarmupRounds; ++r) fleet->round();
        run.setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
    }

    run.untraced = run_phase(*fleet, clock, options.seconds, false);
    if (options.trace) run.traced = run_phase(*fleet, clock, options.seconds, true);
    fleet->drain();
    fleet.reset();

    Totals& totals = run.totals;
    gate.check(totals.evictions == 0, "evictions: " + std::to_string(totals.evictions));
    gate.check(totals.accuracy_sessions == workload->accuracy_sessions(),
               "accuracy set incomplete");
    auto accuracy = totals.accuracy_m;
    const double error_p90 = accuracy.empty() ? 1e9 : sorted_quantile(accuracy, 0.9);
    gate.check(accuracy.size() >= 100, "fewer than 100 settled track errors");
    gate.check(error_p90 < kErrorCeilingM,
               "track error p90 " + std::to_string(error_p90) + " m over the " +
                   std::to_string(kErrorCeilingM) + " m sanity ceiling");
    gate.check(totals.latency_ms.windows() >= 3,
               "fewer than 3 complete latency windows of " + std::to_string(kLatencyWindow) +
                   " frames");

    Metrics metrics;
    if (options.trace)
        report_per_layer(options, *workload, run, metrics);
    else
        report_end_to_end(options, *workload, run, metrics);

    const bool correct = gate.failed == 0;
    print_result(correct, std::max<std::uint64_t>(totals.generated, 1), gate.failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run_benchmark(parse(argc, argv));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench_fleet: %s\n", error.what());
        return 1;
    }
}
