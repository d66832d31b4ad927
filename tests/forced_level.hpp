// RAII guard that forces a kernel SIMD dispatch level for one test and
// restores the ambient level on every exit path. granted() is the level
// force() actually activated -- it clamps to detect(), so requesting a level
// the hardware lacks grants a lower one (the test then skips that level
// instead of silently retesting a covered one).
#pragma once

#include "dsp/simd.hpp"

namespace witrack::testing_support {

class ForcedLevel {
  public:
    explicit ForcedLevel(dsp::simd::Level level)
        : previous_(dsp::simd::active()), granted_(dsp::simd::force(level)) {}
    ~ForcedLevel() { dsp::simd::force(previous_); }
    dsp::simd::Level granted() const { return granted_; }

  private:
    dsp::simd::Level previous_;
    dsp::simd::Level granted_;
};

}  // namespace witrack::testing_support
