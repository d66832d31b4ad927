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
        eos_seen_ = true;
        eos_seq_ = std::max(eos_seq_, header.frame_seq);
        return;
    }

    // Arrival-order probe: datagrams are sent (seq, fragment) ascending, so
    // any step backwards means the network reordered them. Duplicates
    // compare equal and are not reorders.
    const std::pair<std::uint64_t, std::uint16_t> key{header.frame_seq,
                                                      header.fragment_index};
    if (have_last_key_ && key < last_key_) ++stats_.reorders;
    if (!have_last_key_ || last_key_ < key) last_key_ = key;
    have_last_key_ = true;

    if (!any_seen_ || header.frame_seq > highest_seen_)
        highest_seen_ = header.frame_seq;
    any_seen_ = true;

    if (header.frame_seq < next_seq_) {
        // The frame this fragment belongs to was already delivered or
        // written off as a gap; either way its book is closed.
        ++stats_.late_fragments;
        return;
    }
    if (ready_.count(header.frame_seq) != 0) {
        ++stats_.duplicates;
        return;
    }

    auto it = partial_.find(header.frame_seq);
    if (it == partial_.end()) {
        Partial fresh;
        fresh.fragment_count = header.fragment_count;
        if (!fits(fresh, header, payload.size())) {
            ++stats_.malformed;
            return;
        }
        fresh.seen.assign(header.fragment_count, false);
        fresh.body = take_buffer();
        it = partial_.emplace(header.frame_seq, std::move(fresh)).first;
    } else if (it->second.fragment_count != header.fragment_count) {
        // Two fragments of one frame disagreeing about the frame's shape:
        // the sender is broken or hostile. Drop the datagram, keep what we
        // have (the consistent majority may still complete).
        ++stats_.malformed;
        return;
    } else if (it->second.seen[header.fragment_index]) {
        ++stats_.duplicates;
        return;
    } else if (!fits(it->second, header, payload.size())) {
        ++stats_.malformed;
        return;
    }

    Partial& partial = it->second;
    place(partial, header, payload);
    if (partial.received == partial.fragment_count) {
        partial.body.resize((partial.fragment_count - 1u) * partial.chunk +
                            partial.last_bytes);
        ready_.emplace(header.frame_seq, std::move(partial.body));
        partial_.erase(it);
    }
    promote();
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
    if (seq <= next_seq_) return;
    // Every seq in [next_seq_, seq) that never completed is a gap; drop
    // whatever incomplete fragments it left behind.
    std::uint64_t skipped = seq - next_seq_;
    for (auto it = ready_.begin(); it != ready_.end() && it->first < seq;) {
        recycle(std::move(it->second));  // unreachable in practice: promote() drains these
        it = ready_.erase(it);
    }
    for (auto it = partial_.begin(); it != partial_.end() && it->first < seq;) {
        recycle(std::move(it->second.body));
        it = partial_.erase(it);
    }
    stats_.frame_gaps += skipped;
    next_seq_ = seq;
}

void SequenceTracker::promote() {
    for (;;) {
        // In-order frames flow straight through.
        auto it = ready_.find(next_seq_);
        if (it != ready_.end()) {
            deliverable_.emplace_back(it->first, std::move(it->second));
            ready_.erase(it);
            ++next_seq_;
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
    // between them off as gaps.
    while (!ready_.empty()) {
        skip_to(ready_.begin()->first);
        promote();
    }
    // Everything left is incomplete; account it and the wholly-missing
    // tail up to the stream bound.
    std::uint64_t bound = next_seq_;
    if (eos_seen_) bound = std::max(bound, eos_seq_);
    if (any_seen_) bound = std::max(bound, highest_seen_ + 1);
    skip_to(bound);
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
