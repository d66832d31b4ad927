#include "engine/replay.hpp"

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "common/serialize.hpp"

namespace witrack::engine {

namespace {

using common::write_raw;

// The header stores FmcwParams field by field in declaration order.
static_assert(std::is_trivially_copyable_v<FmcwParams> &&
              sizeof(FmcwParams) == 5 * sizeof(double) + sizeof(std::uint64_t));

template <typename T>
void read_or_throw(std::istream& in, T& value, const char* what) {
    common::read_or_throw(in, value, "ReplaySource", what);
}

}  // namespace

Recorder::Recorder(const std::string& path, const FmcwParams& fmcw,
                   const geom::ArrayGeometry& array)
    : out_(path, std::ios::binary | std::ios::trunc),
      shape_(frame_shape(fmcw, array)) {
    if (!out_) throw std::runtime_error("Recorder: cannot open " + path);

    write_raw(out_, kReplayMagic);
    write_raw(out_, kReplayVersion);

    write_raw(out_, fmcw);
    write_raw(out_, array.tx);
    write_raw(out_, array.boresight);
    write_raw(out_, static_cast<std::uint64_t>(array.rx.size()));
    for (const auto& rx : array.rx) write_raw(out_, rx);
    if (!out_) throw std::runtime_error("Recorder: header write failed");
}

void Recorder::write(const Frame& frame) {
    if (!out_.is_open()) throw std::runtime_error("Recorder: already closed");
    // A frame whose shape disagrees with the header would fail the replay's
    // shape check; catch it at the source so no unreplayable recording is
    // ever written.
    if (!shape_.admits(frame.sweeps))
        throw std::invalid_argument("Recorder: frame shape mismatch");
    encode_frame(frame, body_);
    write_raw(out_, static_cast<std::uint64_t>(body_.size()));
    out_.write(reinterpret_cast<const char*>(body_.data()),
               static_cast<std::streamsize>(body_.size()));
    if (!out_) throw std::runtime_error("Recorder: frame write failed");
    ++frames_written_;
}

void Recorder::close() {
    if (!out_.is_open()) return;
    out_.flush();
    const bool ok = static_cast<bool>(out_);
    out_.close();
    // A buffered write that only failed at flush time must not report a
    // complete recording.
    if (!ok) throw std::runtime_error("Recorder: flush failed on close");
}

ReplaySource::ReplaySource(const std::string& path)
    : in_(path, std::ios::binary) {
    if (!in_) throw std::runtime_error("ReplaySource: cannot open " + path);

    std::uint32_t magic = 0, version = 0;
    read_or_throw(in_, magic, "magic");
    if (magic != kReplayMagic)
        throw std::runtime_error("ReplaySource: not a WiTrack recording");
    read_or_throw(in_, version, "version");
    if (version != kReplayVersion)
        throw std::runtime_error("ReplaySource: unsupported recording version");

    read_or_throw(in_, fmcw_, "fmcw");
    fmcw_.validate();
    read_or_throw(in_, array_.tx, "array");
    read_or_throw(in_, array_.boresight, "array");
    std::uint64_t num_rx = 0;
    read_or_throw(in_, num_rx, "array");
    // A frame's quality-lane count is a u16, so no frame of a wider array
    // could decode: refuse the header before it sizes anything.
    if (num_rx > std::numeric_limits<std::uint16_t>::max())
        throw std::runtime_error("ReplaySource: corrupt recording (antenna count)");
    array_.rx.resize(static_cast<std::size_t>(num_rx));
    for (auto& rx : array_.rx) read_or_throw(in_, rx, "array");
    shape_ = frame_shape(fmcw_, array_);
}

bool ReplaySource::next(Frame& frame) {
    // Only EOF exactly on a record boundary is a clean end; anything short
    // of a whole record means the recording was cut mid-write.
    if (in_.peek() == std::char_traits<char>::eof()) return false;
    std::uint64_t body_bytes = 0;
    if (!common::read_raw(in_, body_bytes) ||
        !read_frame(in_, body_bytes, shape_, frame, scratch_))
        throw std::runtime_error(in_ ? "ReplaySource: corrupt frame"
                                     : "ReplaySource: truncated frame");
    ++frames_read_;
    return true;
}

void ReplaySource::save_state(common::StateWriter& writer) const {
    writer.u64(frames_read_);
}

void ReplaySource::load_state(common::StateReader& reader) {
    const auto target = static_cast<std::size_t>(reader.u64());
    if (frames_read_ != 0)
        throw std::runtime_error(
            "ReplaySource: load_state requires a freshly-opened recording");
    // Skip forward through the already-consumed prefix; the scratch frame's
    // buffer is reused across the skipped reads.
    Frame scratch;
    while (frames_read_ < target) {
        if (!next(scratch))
            throw std::runtime_error(
                "ReplaySource: snapshot cursor beyond end of recording");
    }
}

}  // namespace witrack::engine
