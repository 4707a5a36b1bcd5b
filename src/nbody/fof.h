// Friends-of-friends halo finder (union-find over sparse clique cells).
//
// The paper's large-scale experiment centers 233k fields on "the most
// massive objects found by a density based clustering algorithm", and the
// galaxy-galaxy experiment places fields at model-assigned galaxy positions
// in the densest regions. FOF supplies both: group particles whose mutual
// distance is below b× the mean interparticle spacing, rank groups by mass.
//
// Cells exist only where particles are: (cell key, index) pairs are sorted
// over cells of edge link/√3 (less a 1e-9 relative margin), so any two
// members of a cell are friends and a cell unites without distance tests.
// Neighbouring cells within ±2 (one search per x-row segment) join on their
// first pair with d² <= link². The cost is O(n log n) in the particle count,
// independent of the box volume. Periodic mode wraps coordinates into
// [0, box) for the keys and links by minimum-image distance; non-periodic
// mode lays the cells over the particles' bounding box. The groups are
// exactly those of an all-pairs test with the same predicate.
#pragma once

#include <cstdint>
#include <vector>

#include "nbody/particles.h"

namespace dtfe {

struct FofOptions {
  /// Linking length in units of the mean interparticle spacing n^{-1/3}.
  double linking_parameter = 0.2;
  /// Groups below this size are discarded.
  std::size_t min_group_size = 8;
  bool periodic = true;
};

struct FofGroup {
  std::vector<std::uint32_t> members;  ///< particle indices
  Vec3 center;                         ///< center of mass (minimum image)
  std::size_t size() const { return members.size(); }
};

/// Returns groups sorted by descending size; members ascend by index.
/// Throws dtfe::Error on a non-positive linking length, a non-finite
/// position, or a spread needing more than 2^20 cells per side.
std::vector<FofGroup> find_fof_groups(const ParticleSet& set,
                                      const FofOptions& opt = {});

}  // namespace dtfe
