// Per-sender sequence tracking and frame reassembly. One SequenceTracker
// watches one sender's datagram stream (already CRC-validated by the
// caller), rebuilds frame bodies from fragments, and accounts every way a
// lossy link can misbehave: gaps (frame seqs that never completed),
// reorders (datagrams arriving out of order), duplicate fragments, late
// fragments of frames already delivered or written off, and fragments that
// cannot belong to a frame of the session's shape (malformed).
//
// Placement: every fragment but the last carries the same `chunk` bytes
// (frame_protocol.hpp), so fragment i is copied once, straight to offset
// i * chunk of its frame's body buffer, in whatever order fragments arrive.
// The first non-last fragment of a frame fixes its chunk; a last fragment
// that arrives before any other waits at the front of the buffer and moves
// to (count - 1) * chunk when the chunk becomes known.
//
// Shape bound: the tracker is built with the longest body the session's
// FrameShape admits (engine::max_body_bytes), and no body buffer grows past
// it, so no datagram's claims can size an allocation. Within the bound a
// buffer grows to what its frame's fragments need (count * chunk), not to
// the bound itself: a shape admits up to max_sweeps sweeps, several times
// a typical frame. Body buffers are recycled: completed bodies leave
// through pop(), which takes the caller's previous buffer back, and a
// recycled buffer is reused at its size, so frames of one size are neither
// reallocated nor refilled. A fragment is counted malformed and never
// placed when
//   - it is empty,
//   - its frame cannot fit the bound: (count - 1) * length + 1 bytes for
//     a non-last fragment, count * length for the last one,
//   - it is a non-last fragment whose length differs from its frame's chunk,
//   - it is a last fragment longer than the chunk, or one that would end
//     past the bound,
//   - or its fragment count disagrees with its frame's other fragments.
// The first fragment to arrive wins: a later one that contradicts it is
// the one dropped.
//
// Delivery is strictly in-order: pop() hands out frame seqs ascending, and
// a missing frame holds delivery back only until the reassembly window
// fills (window_frames pending seqs), at which point the tracker writes
// the missing frames off as gaps and moves on -- a tracker fed by a live
// radio must bound both its memory and its latency. A hole at seq h is
// written off once a frame >= h + window_frames arrived. flush() (end of
// stream, or the source going idle) releases everything still pending the
// same way.
//
// Seq range: a frame seq is in range when it lies at most R = 4 *
// window_frames ahead of the next seq to deliver (distances modulo 2^64, so
// a sender whose counter wraps past 2^64 - 1 flows on), and late when it
// lies at most R behind (once any seq was offered in range, delivered or
// written off). Any other seq -- one stray, forged, long-delayed or
// replayed datagram, a sender that restarted its counter, or the first
// frame after an outage longer than R -- is an outlier: its frame is held
// aside, one frame at a time, and moves nothing (no gap, no reorder, no
// stream bound). A second frame within R of the held one, with no in-range
// datagram between the two, confirms the new range: the tracker resyncs to
// it, delivering the old range's completed frames and writing off its
// incomplete ones (at most R gaps), counts one seq_resyncs, and continues
// from the earlier of the two frames. The seqs a resync jumps over are not
// gaps: an outage longer than R counts one seq_resyncs, not its lost
// frames. A held frame that an in-range datagram or a different outlier
// displaces, or that flush() finds unconfirmed, is counted malformed per
// datagram. Stragglers within R of the range a resync retired count as
// late fragments. An end-of-stream seq more than R past the newest
// in-range frame is an outlier too: it is counted malformed and ends
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "engine/frame_source.hpp"
#include "net/frame_protocol.hpp"

namespace witrack::net {

struct SequenceTrackerConfig {
    /// Pending (not yet deliverable) frame seqs held before the oldest
    /// missing frame is written off as a gap.
    std::size_t window_frames = 8;
};

class SequenceTracker {
  public:
    /// `max_body_bytes` bounds one frame body (capped at
    /// kMaxFrameBodyBytes); NetSource passes engine::max_body_bytes of its
    /// session's shape.
    explicit SequenceTracker(std::size_t max_body_bytes,
                             SequenceTrackerConfig config = {});

    /// Feed one decoded datagram (header + payload from decode_datagram).
    /// End-of-stream markers update the stream bound instead of carrying a
    /// fragment. Counters are updated; completed frames become poppable.
    void offer(const FrameHeader& header, std::span<const std::uint8_t> payload);

    /// Deliver the next in-order completed frame body into `body`, taking
    /// the buffer `body` held before back for reuse. False when nothing is
    /// deliverable yet (a gap may still fill in); `body` is then untouched.
    bool pop(std::uint64_t& frame_seq, std::vector<std::uint8_t>& body);

    /// Release every completed pending frame in order, writing incomplete
    /// and missing seqs off as gaps up to the stream bound (the
    /// end-of-stream seq when one arrived, one past the highest seq seen
    /// otherwise). Idempotent; offer() may resume afterwards.
    void flush();

    /// True once an end-of-stream marker arrived.
    bool end_of_stream_seen() const { return eos_seen_; }

    /// Seq-level counters (frame_gaps, reorders, duplicates,
    /// late_fragments, malformed, seq_resyncs; idle/datagram fields
    /// untouched). The caller owns the datagram-level counters.
    const engine::NetIngestStats& stats() const { return stats_; }

    /// Frames held for later delivery or confirmation (the held outlier
    /// included).
    std::size_t pending_frames() const {
        return partial_.size() + ready_.size() + (held_ ? 1 : 0);
    }

  private:
    using Buffer = std::vector<std::uint8_t>;

    struct Partial {
        std::uint16_t fragment_count = 0;
        std::size_t chunk = 0;       ///< non-last fragment length, 0 = none seen yet
        std::size_t last_bytes = 0;  ///< last fragment length, 0 = not arrived
        std::size_t received = 0;
        std::vector<bool> seen;      ///< per fragment index
        Buffer body;                 ///< at most max_body_bytes_ long
    };

    /// Where a frame seq stands against the range being delivered.
    enum class Range { kInRange, kLate, kOutlier };

    Range classify(std::uint64_t seq) const;
    std::uint64_t reach() const { return 4 * config_.window_frames; }
    void offer_in_range(const FrameHeader& header,
                        std::span<const std::uint8_t> payload);
    void offer_outlier(const FrameHeader& header,
                       std::span<const std::uint8_t> payload);
    void note_arrival(const FrameHeader& header);
    /// Add one fragment to `partial` (created empty for a new frame); false
    /// when it was counted duplicate or malformed instead.
    bool accept(Partial& partial, const FrameHeader& header,
                std::span<const std::uint8_t> payload);
    bool complete(const Partial& partial) const {
        return partial.received == partial.fragment_count;
    }
    Buffer finish(Partial&& partial);
    bool fits(const Partial& partial, const FrameHeader& header, std::size_t n) const;
    void place(Partial& partial, const FrameHeader& header,
               std::span<const std::uint8_t> payload);
    Buffer take_buffer();
    void recycle(Buffer&& buffer);
    void promote();
    void skip_to(std::uint64_t seq);
    /// Write off every seq in [next_seq_, last] (next_seq_ <= last).
    void write_off_through(std::uint64_t last);
    /// Deliver every completed pending frame in order, writing off the
    /// incomplete ones: pending seqs lie within R of next_seq_.
    void close_range();
    void drop_held();

    SequenceTrackerConfig config_;
    std::size_t max_body_bytes_;
    engine::NetIngestStats stats_;
    std::map<std::uint64_t, Partial> partial_;  ///< incomplete frames
    std::map<std::uint64_t, Buffer> ready_;     ///< complete, waiting for order
    std::deque<std::pair<std::uint64_t, Buffer>> deliverable_;
    std::vector<Buffer> spare_;        ///< recycled body buffers
    std::uint64_t next_seq_ = 0;       ///< next frame seq to deliver
    std::uint64_t highest_seen_ = 0;   ///< highest in-range frame seq offered
    bool any_seen_ = false;
    bool anchored_ = false;  ///< a seq was offered in range, delivered or written off
    bool eos_seen_ = false;
    std::uint64_t eos_seq_ = 0;
    std::optional<std::pair<std::uint64_t, Partial>> held_;  ///< the outlier frame
    std::optional<std::uint64_t> retired_;  ///< where the last resync left off
    bool have_last_key_ = false;
    std::pair<std::uint64_t, std::uint16_t> last_key_{0, 0};  ///< arrival order probe
};

}  // namespace witrack::net
