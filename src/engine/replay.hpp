// Frame recording and replay. A recording is self-contained -- the
// capture's FMCW parameters and antenna geometry, then its frames -- so a
// replayed session reproduces the live pipeline output bit for bit:
//
//   header: magic u32 "WTRK" | version u32 | FmcwParams (f64 x5 |
//           sweeps_per_frame u64) | tx, boresight (f64 x3 each) |
//           num_rx u64 | rx positions (f64 x3 each)
//   frames: body bytes u64 | frame codec body (engine/frame_codec.hpp)
//
// Any version but 2 fails as "unsupported recording version".
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "engine/frame_codec.hpp"
#include "engine/frame_source.hpp"

namespace witrack::engine {

inline constexpr std::uint32_t kReplayMagic = 0x4B525457u;  // "WTRK"
inline constexpr std::uint32_t kReplayVersion = 2;

/// Sink: append every frame of a session to a recording file. Use as a tap
/// inside the streaming loop (record while tracking) or standalone.
class Recorder {
  public:
    Recorder(const std::string& path, const FmcwParams& fmcw,
             const geom::ArrayGeometry& array);

    /// Append one frame; throws std::invalid_argument when its shape is not
    /// the header's, std::runtime_error on write failure.
    void write(const Frame& frame);

    std::size_t frames_written() const { return frames_written_; }

    /// Flush, verify the stream, and close; throws std::runtime_error if
    /// buffered data failed to reach disk. Further write() calls throw.
    /// Destruction closes the file without verification -- call close()
    /// explicitly when the recording matters.
    void close();

  private:
    std::ofstream out_;
    FrameShape shape_;
    std::vector<std::uint8_t> body_;  ///< encoded frame, reused
    std::size_t frames_written_ = 0;
};

/// FrameSource over a recording file: the third leg of the source triad
/// (sim, live, replay) and the debugging workhorse -- any captured session
/// re-runs through the pipeline deterministically.
class ReplaySource : public FrameSource {
  public:
    /// Opens and validates the header; throws std::runtime_error on a
    /// missing file, bad magic, or unsupported version.
    explicit ReplaySource(const std::string& path);

    /// Throws std::runtime_error on a truncated or corrupt frame.
    bool next(Frame& frame) override;
    const geom::ArrayGeometry& array() const override { return array_; }
    const FmcwParams& fmcw() const override { return fmcw_; }

    std::size_t frames_read() const { return frames_read_; }

    /// Snapshot cursor: the number of frames already consumed.
    void save_state(common::StateWriter& writer) const override;

    /// Re-position a freshly-opened replay at the snapshot cursor by
    /// skipping forward; throws if the source has already advanced or the
    /// recording is shorter than the cursor.
    void load_state(common::StateReader& reader) override;

  private:
    std::ifstream in_;
    FmcwParams fmcw_;
    geom::ArrayGeometry array_;
    FrameShape shape_;
    std::vector<std::uint8_t> scratch_;  ///< truth and lane records, reused
    std::size_t frames_read_ = 0;
};

}  // namespace witrack::engine
