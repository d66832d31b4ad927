// Fixed-size worker pool with a bounded job queue: the fleet's parallel
// substrate, on which an EngineHost steps its ready sessions (and tools
// fan out independent jobs). Bounded on purpose -- a producer that
// outruns the workers blocks instead of growing an unbounded queue, so a
// realtime deployment degrades to backpressure rather than memory growth.
//
// parallel_for is the main entry point: the calling thread participates in
// the work (no idle handoff for small fan-outs), the call returns only
// after every index has finished, and the first exception thrown by the
// body is rethrown on the caller.
//
// Nesting is safe and runs inline: while a thread runs its share of a
// fan-out -- as a pool worker or as the calling thread -- a parallel_for
// it starts (on any pool) runs the whole body on that thread, so no job
// ever blocks on a queue its own pool must drain. This guard is the pool's
// deadlock protection: code reached from a session step (a stage, a
// subscriber) may call parallel_for safely. A fan-out of one index is not
// a share: it runs inline without marking the thread, so its body may
// still fan out. submit() from inside a pool job stays unsafe (a job
// blocking on its own full queue can deadlock).
//
// Multi-client: one pool may be shared by any number of caller threads
// (the fleet EngineHost hands one pool to every session). Concurrent
// parallel_for calls interleave their jobs on the queue but are fully
// independent -- each call tracks its own indices, joins only its own
// helpers, and rethrows only its own body's exception, so one client's
// failure never poisons another (tests/test_fleet.cpp exercises this).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace witrack::common {

class WorkerPool {
  public:
    /// Spawn `threads` workers (>= 1). `queue_capacity` bounds the pending
    /// job queue; submit() blocks while it is full.
    explicit WorkerPool(std::size_t threads, std::size_t queue_capacity = 256)
        : queue_capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
        if (threads == 0) threads = 1;
        threads_.reserve(threads);
        for (std::size_t i = 0; i < threads; ++i)
            threads_.emplace_back([this] { worker_loop(); });
    }

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// Drains already-submitted jobs, then joins the workers.
    ~WorkerPool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        not_empty_.notify_all();
        for (auto& thread : threads_) thread.join();
    }

    std::size_t size() const { return threads_.size(); }

    /// Enqueue one job; blocks while the queue is at capacity. Returns
    /// false (dropping the job) when the pool is shutting down.
    bool submit(std::function<void()> job) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            not_full_.wait(lock, [this] {
                return queue_.size() < queue_capacity_ || stopping_;
            });
            if (stopping_) return false;
            queue_.push_back(std::move(job));
        }
        not_empty_.notify_one();
        return true;
    }

    /// Run body(0) .. body(n-1) across the pool. The caller participates,
    /// the call blocks until every index completed, and the first exception
    /// thrown by the body is rethrown here. Index-to-thread assignment is
    /// dynamic, so the body must only touch index-disjoint state.
    void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
        if (n == 0) return;
        if (n == 1 || threads_.empty() || in_share()) {
            for (std::size_t i = 0; i < n; ++i) body(i);
            return;
        }

        struct SharedState {
            std::atomic<std::size_t> next{0};
            std::size_t n;
            const std::function<void(std::size_t)>* body;
            std::mutex mutex;
            std::condition_variable done;
            std::size_t helpers_exited = 0;
            std::exception_ptr error;
        } state;
        state.n = n;
        state.body = &body;

        const auto run_share = [&state] {
            const ShareMark mark;
            for (;;) {
                const std::size_t i =
                    state.next.fetch_add(1, std::memory_order_relaxed);
                if (i >= state.n) break;
                try {
                    (*state.body)(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state.mutex);
                    if (!state.error) state.error = std::current_exception();
                }
            }
        };

        // The caller claims indices too, so helpers beyond n - 1 would only
        // contend on the counter.
        const std::size_t wanted = std::min(threads_.size(), n - 1);
        std::size_t helpers = 0;
        for (std::size_t h = 0; h < wanted; ++h) {
            const bool queued = submit([&state, run_share] {
                run_share();
                // Notify while holding the mutex: the caller's predicate
                // check runs under the same lock, so it cannot wake, return
                // and destroy the stack-allocated state while this signal
                // is still touching the condition variable.
                std::lock_guard<std::mutex> lock(state.mutex);
                ++state.helpers_exited;
                state.done.notify_one();
            });
            if (queued) ++helpers;
        }
        run_share();

        // Wait for every helper to *exit* (not merely for the index counter
        // to drain): helper jobs reference the stack-allocated state.
        std::unique_lock<std::mutex> lock(state.mutex);
        state.done.wait(lock,
                        [&state, helpers] { return state.helpers_exited == helpers; });
        if (state.error) std::rethrow_exception(state.error);
    }

  private:
    /// Whether this thread is inside some parallel_for share right now.
    static bool& in_share() {
        thread_local bool flag = false;
        return flag;
    }

    /// Marks this thread as running a share for the mark's lifetime
    /// (restoring the previous value, so an inline nested call unwinds
    /// cleanly).
    struct ShareMark {
        bool previous = in_share();
        ShareMark() { in_share() = true; }
        ~ShareMark() { in_share() = previous; }
        ShareMark(const ShareMark&) = delete;
        ShareMark& operator=(const ShareMark&) = delete;
    };

    void worker_loop() {
        for (;;) {
            std::function<void()> job;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                not_empty_.wait(lock, [this] { return !queue_.empty() || stopping_; });
                if (queue_.empty()) return;  // stopping_ && drained
                job = std::move(queue_.front());
                queue_.pop_front();
            }
            not_full_.notify_one();
            job();
        }
    }

    std::size_t queue_capacity_;
    std::vector<std::thread> threads_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    bool stopping_ = false;
};

}  // namespace witrack::common
