// Image-method propagation channel. For each receive antenna it enumerates:
//
//  * the Tx->Rx leakage path,
//  * static clutter paths (wall speculars via mirror images + furniture
//    point reflectors) -- the "flash effect" of Section 4.2,
//  * direct body paths Tx -> scatterer -> Rx,
//  * first-order dynamic multipath Tx -> body -> wall -> Rx and
//    Tx -> wall -> body -> Rx (Section 4.3),
//
// with radar-equation amplitudes, directional antenna gains and per-wall
// traversal attenuation on every leg that crosses a wall (through-wall
// operation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/constants.hpp"
#include "rf/antenna.hpp"
#include "rf/path.hpp"
#include "rf/scene.hpp"

namespace witrack::rf {

struct ChannelConfig {
    FmcwParams fmcw;
    double tx_rx_coupling_db = -50.0;  ///< leakage between the co-located antennas
    /// Paths whose amplitude falls below peak-amplitude * this are pruned.
    double prune_relative_amplitude = 1e-7;
    bool enable_dynamic_multipath = true;
};

class Channel {
  public:
    Channel(ChannelConfig config, Antenna tx, std::vector<Antenna> rx, Scene scene);

    std::size_t num_rx() const { return rx_.size(); }
    const Antenna& tx_antenna() const { return tx_; }
    const Antenna& rx_antenna(std::size_t i) const { return rx_.at(i); }
    const Scene& scene() const { return scene_; }

    /// Time-invariant paths for one receive antenna (computed once and
    /// cached by the front end).
    PathList static_paths(std::size_t rx_index) const;

    /// Paths involving the body for the current scatterer constellation.
    PathList body_paths(std::size_t rx_index,
                        std::span<const BodyScatterer> body) const;

    /// One-way power attenuation (linear, <= 1) from walls crossed by the
    /// open segment a->b.
    double traversal_gain(const geom::Vec3& a, const geom::Vec3& b) const;

    /// Bistatic radar-equation amplitude for a scatterer of cross-section
    /// `rcs` seen from tx distance d_tx and rx distance d_rx with the given
    /// antenna power gains (linear).
    double bistatic_amplitude(double d_tx, double d_rx, double rcs, double g_tx,
                              double g_rx) const;

  private:
    void add_body_paths_for_scatterer(std::size_t rx_index, const BodyScatterer& s,
                                      PathList& out) const;

    ChannelConfig config_;
    Antenna tx_;
    std::vector<Antenna> rx_;
    Scene scene_;
    double lambda_;  // carrier wavelength at sweep centre
};

}  // namespace witrack::rf
