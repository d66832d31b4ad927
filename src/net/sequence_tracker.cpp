#include "net/sequence_tracker.hpp"

#include <algorithm>
#include <cstring>

namespace witrack::net {

SequenceTracker::SequenceTracker(std::size_t max_body_bytes,
                                 SequenceTrackerConfig config)
    : config_(config), max_body_bytes_(std::min(max_body_bytes, kMaxFrameBodyBytes)) {
    if (config_.window_frames == 0) config_.window_frames = 1;
}

void SequenceTracker::offer(const FrameHeader& header,
                            std::span<const std::uint8_t> payload) {
    if (header.end_of_stream()) {
        // The stream bound may not run more than R past the newest frame
        // this range could still deliver.
        std::uint64_t newest = next_seq_;
        if (any_seen_ && highest_seen_ != UINT64_MAX)
            newest = std::max(newest, highest_seen_ + 1);
        if (header.frame_seq > newest && header.frame_seq - newest > reach()) {
            ++stats_.malformed;
            return;
        }
        eos_seen_ = true;
        eos_seq_ = std::max(eos_seq_, header.frame_seq);
        return;
    }

    switch (classify(header.frame_seq)) {
        case Range::kOutlier:
            offer_outlier(header, payload);
            return;
        case Range::kLate:
            // The frame this fragment belongs to was already delivered or
            // written off as a gap; either way its book is closed.
            note_arrival(header);
            ++stats_.late_fragments;
            return;
        case Range::kInRange: break;
    }
    // The range is still live: a held outlier is not the start of a new
    // one (two old datagrams -- delayed, duplicated or replayed -- must not
    // rewind the stream), so a resync needs two outlier frames with no
    // in-range traffic between them.
    if (held_) drop_held();
    if (header.frame_seq < next_seq_) {
        // In range only modulo 2^64: the sender's counter wrapped. Close
        // the range below the wrap first, so the pending maps only ever
        // hold seqs ascending from next_seq_.
        close_range();
        if (next_seq_ != 0) write_off_through(UINT64_MAX);
        any_seen_ = false;
        have_last_key_ = false;
    }
    offer_in_range(header, payload);
}

SequenceTracker::Range SequenceTracker::classify(std::uint64_t seq) const {
    // Unsigned differences are distances modulo 2^64.
    if (seq - next_seq_ <= reach()) return Range::kInRange;
    if (anchored_ && next_seq_ - seq <= reach()) return Range::kLate;
    if (retired_ && (seq - *retired_ <= reach() || *retired_ - seq <= reach()))
        return Range::kLate;
    return Range::kOutlier;
}

void SequenceTracker::note_arrival(const FrameHeader& header) {
    // Arrival-order probe: datagrams are sent (seq, fragment) ascending, so
    // any step backwards means the network reordered them. Duplicates
    // compare equal and are not reorders.
    const std::pair<std::uint64_t, std::uint16_t> key{header.frame_seq,
                                                      header.fragment_index};
    if (have_last_key_ && key < last_key_) ++stats_.reorders;
    if (!have_last_key_ || last_key_ < key) last_key_ = key;
    have_last_key_ = true;
}

void SequenceTracker::offer_in_range(const FrameHeader& header,
                                     std::span<const std::uint8_t> payload) {
    note_arrival(header);
    if (!any_seen_ || header.frame_seq > highest_seen_)
        highest_seen_ = header.frame_seq;
    any_seen_ = true;
    anchored_ = true;

    if (ready_.count(header.frame_seq) != 0) {
        ++stats_.duplicates;
        return;
    }
    auto it = partial_.try_emplace(header.frame_seq).first;
    if (!accept(it->second, header, payload)) {
        if (it->second.seen.empty()) partial_.erase(it);  // nothing placed
        return;
    }
    if (complete(it->second)) {
        ready_.emplace(header.frame_seq, finish(std::move(it->second)));
        partial_.erase(it);
    }
    promote();
}

void SequenceTracker::offer_outlier(const FrameHeader& header,
                                    std::span<const std::uint8_t> payload) {
    const std::uint64_t seq = header.frame_seq;
    if (held_ && held_->first != seq) {
        const std::uint64_t held = held_->first;
        const bool held_first = seq - held <= reach();
        if (held_first || held - seq <= reach()) {
            // A second frame near the held one: the sender moved to a new
            // range. Close the old one and continue from the earlier frame.
            // A pair straddling the top of the counter continues from the
            // second frame alone, so the pending maps stay ascending.
            close_range();
            retired_ = next_seq_;
            ++stats_.seq_resyncs;
            have_last_key_ = false;
            next_seq_ = seq;
            any_seen_ = false;
            if (held_first ? held <= seq : seq <= held) {
                Partial partial = std::move(held_->second);
                held_.reset();
                next_seq_ = std::min(held, seq);
                highest_seen_ = held;
                any_seen_ = true;
                if (complete(partial))
                    ready_.emplace(held, finish(std::move(partial)));
                else
                    partial_.emplace(held, std::move(partial));
            } else {
                drop_held();
            }
            offer_in_range(header, payload);
            return;
        }
        drop_held();
    }
    if (!held_) held_.emplace(seq, Partial{});
    if (!accept(held_->second, header, payload) && held_->second.seen.empty())
        held_.reset();
}

bool SequenceTracker::accept(Partial& partial, const FrameHeader& header,
                             std::span<const std::uint8_t> payload) {
    if (partial.seen.empty()) {  // the frame's first fragment
        partial.fragment_count = header.fragment_count;
        if (!fits(partial, header, payload.size())) {
            ++stats_.malformed;
            return false;
        }
        partial.seen.assign(header.fragment_count, false);
        partial.body = take_buffer();
    } else if (partial.fragment_count != header.fragment_count) {
        // Two fragments of one frame disagreeing about the frame's shape:
        // the sender is broken or hostile. Drop the datagram, keep what we
        // have (the consistent majority may still complete).
        ++stats_.malformed;
        return false;
    } else if (partial.seen[header.fragment_index]) {
        ++stats_.duplicates;
        return false;
    } else if (!fits(partial, header, payload.size())) {
        ++stats_.malformed;
        return false;
    }
    place(partial, header, payload);
    return true;
}

SequenceTracker::Buffer SequenceTracker::finish(Partial&& partial) {
    partial.body.resize((partial.fragment_count - 1u) * partial.chunk +
                        partial.last_bytes);
    return std::move(partial.body);
}

bool SequenceTracker::fits(const Partial& partial, const FrameHeader& header,
                           std::size_t n) const {
    // The rules in the header comment, in terms of the smallest body the
    // fragment implies and the chunk its frame's first fragments fixed.
    const std::size_t count = header.fragment_count;
    const std::size_t bound = max_body_bytes_;
    if (n == 0) return false;
    if (header.fragment_index + 1u < count) {
        if ((count - 1) * n >= bound) return false;
        if (partial.chunk != 0) return n == partial.chunk;
        return partial.last_bytes <= n && (count - 1) * n + partial.last_bytes <= bound;
    }
    if (count * n > bound) return false;
    return partial.chunk == 0 ||
           (n <= partial.chunk && (count - 1) * partial.chunk + n <= bound);
}

void SequenceTracker::place(Partial& partial, const FrameHeader& header,
                            std::span<const std::uint8_t> payload) {
    const std::size_t count = header.fragment_count;
    const std::size_t n = payload.size();
    // A recycled buffer keeps its size, so growing it to this frame's
    // extent refills at most the difference from the previous frame's.
    Buffer& body = partial.body;
    const auto grow = [&body](std::size_t bytes) {
        if (body.size() < bytes) body.resize(bytes);
    };
    if (header.fragment_index + 1u < count) {
        if (partial.chunk == 0) {
            partial.chunk = n;
            grow(std::min(count * n, max_body_bytes_));
            // A last fragment that came first waited at the front.
            if (partial.last_bytes != 0)
                std::memmove(body.data() + (count - 1) * n, body.data(), partial.last_bytes);
        }
        std::memcpy(body.data() + header.fragment_index * n, payload.data(), n);
    } else {
        // Until the chunk is known, (count - 1) * chunk is 0: the front.
        const std::size_t at = (count - 1) * partial.chunk;
        grow(at + n);
        std::memcpy(body.data() + at, payload.data(), n);
        partial.last_bytes = n;
    }
    partial.seen[header.fragment_index] = true;
    ++partial.received;
}

SequenceTracker::Buffer SequenceTracker::take_buffer() {
    if (spare_.empty()) return {};
    Buffer buffer = std::move(spare_.back());
    spare_.pop_back();
    return buffer;
}

void SequenceTracker::recycle(Buffer&& buffer) {
    // Buffers in use never outnumber the pending window by much, so a
    // spare list that size keeps steady state allocation-free.
    if (buffer.capacity() != 0 && spare_.size() <= config_.window_frames)
        spare_.push_back(std::move(buffer));
}

void SequenceTracker::skip_to(std::uint64_t seq) {
    if (seq > next_seq_) write_off_through(seq - 1);
}

void SequenceTracker::write_off_through(std::uint64_t last) {
    // Every seq in [next_seq_, last] that never completed is a gap; drop
    // whatever incomplete fragments it left behind.
    for (auto it = ready_.begin(); it != ready_.end() && it->first <= last;) {
        recycle(std::move(it->second));  // unreachable in practice: promote() drains these
        it = ready_.erase(it);
    }
    for (auto it = partial_.begin(); it != partial_.end() && it->first <= last;) {
        recycle(std::move(it->second.body));
        it = partial_.erase(it);
    }
    stats_.frame_gaps += last - next_seq_ + 1;
    anchored_ = true;
    next_seq_ = last + 1;
    if (next_seq_ == 0) any_seen_ = false;  // past the top of the counter
}

void SequenceTracker::close_range() {
    while (!ready_.empty()) {
        skip_to(ready_.begin()->first);
        promote();
    }
    if (!partial_.empty()) write_off_through(partial_.rbegin()->first);
}

void SequenceTracker::drop_held() {
    stats_.malformed += held_->second.received;
    recycle(std::move(held_->second.body));
    held_.reset();
}

void SequenceTracker::promote() {
    for (;;) {
        // In-order frames flow straight through.
        auto it = ready_.find(next_seq_);
        if (it != ready_.end()) {
            deliverable_.emplace_back(it->first, std::move(it->second));
            ready_.erase(it);
            anchored_ = true;
            if (++next_seq_ == 0) any_seen_ = false;  // past the top of the counter
            continue;
        }
        // A hole at next_seq_: wait for it until the window of pending
        // seqs beyond the hole fills, then write the hole off as a gap.
        const std::uint64_t frontier = std::max<std::uint64_t>(
            ready_.empty() ? 0 : ready_.rbegin()->first,
            partial_.empty() ? 0 : partial_.rbegin()->first);
        const bool overflowing =
            (!ready_.empty() || !partial_.empty()) &&
            frontier - next_seq_ >= config_.window_frames;
        if (!overflowing) return;
        // Advance to the oldest frame we still might deliver.
        std::uint64_t target = frontier;
        if (!ready_.empty()) target = std::min(target, ready_.begin()->first);
        if (!partial_.empty()) target = std::min(target, partial_.begin()->first);
        // When the oldest pending seq IS next_seq_ (an incomplete partial
        // blocking a full window), skip_to gives up on completing it.
        skip_to(target == next_seq_ ? next_seq_ + 1 : target);
    }
}

void SequenceTracker::flush() {
    // Deliver every completed frame in order, writing the incomplete seqs
    // between and after them off as gaps; then the wholly-missing tail up
    // to the stream bound (the end-of-stream seq when one arrived, one past
    // the newest in-range seq seen otherwise -- neither runs more than R
    // past the range, and neither wraps). An unconfirmed outlier is
    // dropped.
    close_range();
    if (eos_seen_) skip_to(eos_seq_);
    if (any_seen_ && highest_seen_ >= next_seq_) write_off_through(highest_seen_);
    if (held_) drop_held();
}

bool SequenceTracker::pop(std::uint64_t& frame_seq, Buffer& body) {
    if (deliverable_.empty()) return false;
    frame_seq = deliverable_.front().first;
    std::swap(body, deliverable_.front().second);
    recycle(std::move(deliverable_.front().second));
    deliverable_.pop_front();
    return true;
}

}  // namespace witrack::net
