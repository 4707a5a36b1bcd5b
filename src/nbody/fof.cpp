#include "nbody/fof.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/error.h"

namespace dtfe {

namespace {

/// Union-find with path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::uint32_t{0});
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[std::max(a, b)] = std::min(a, b);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

/// Cell coordinates pack into one 64-bit key, z-major, kKeyBits per axis.
constexpr int kKeyBits = 20;
constexpr std::int64_t kMaxCellsPerSide = std::int64_t{1} << kKeyBits;
/// Relative shrink of the clique-cell edge below link/√3. It absorbs the
/// rounding of the key arithmetic (under 4e-10 of a cell at 2^20 cells per
/// side), so two points that share a computed cell are closer than link.
constexpr double kCliqueMargin = 1e-9;

/// Cells of edge at most link/√3 over the periodic box (uniform cells that
/// tile it exactly) or over the points' bounding box (non-periodic).
struct CliqueGrid {
  Vec3 origin{0, 0, 0};
  double inv_edge = 0;
  std::int64_t dims[3] = {1, 1, 1};
  bool periodic = true;
  double box = 0;

  static std::int64_t checked_cells(double cells, double extent) {
    DTFE_CHECK_MSG(cells <= static_cast<double>(kMaxCellsPerSide),
                   "find_fof_groups: spread of "
                       << extent << " needs more than 2^" << kKeyBits
                       << " linking cells per side");
    return static_cast<std::int64_t>(cells);
  }

  CliqueGrid(const std::vector<Vec3>& pos, double edge, bool periodic_box,
             double box_length)
      : periodic(periodic_box), box(box_length) {
    for (const Vec3& p : pos)
      DTFE_CHECK_MSG(
          std::isfinite(p.x) && std::isfinite(p.y) && std::isfinite(p.z),
          "find_fof_groups: non-finite particle position");
    if (periodic) {
      DTFE_CHECK_MSG(box > 0.0 && std::isfinite(box),
                     "find_fof_groups: periodic box length must be positive");
      const std::int64_t m =
          checked_cells(std::max(1.0, std::ceil(box / edge)), box);
      dims[0] = dims[1] = dims[2] = m;
      inv_edge = static_cast<double>(m) / box;
      return;
    }
    Vec3 lo = pos.front(), hi = pos.front();
    for (const Vec3& p : pos) {
      lo = {std::min(lo.x, p.x), std::min(lo.y, p.y), std::min(lo.z, p.z)};
      hi = {std::max(hi.x, p.x), std::max(hi.y, p.y), std::max(hi.z, p.z)};
    }
    origin = lo;
    inv_edge = 1.0 / edge;
    const Vec3 extent = hi - lo;
    dims[0] = checked_cells(std::floor(extent.x / edge) + 1.0, extent.x);
    dims[1] = checked_cells(std::floor(extent.y / edge) + 1.0, extent.y);
    dims[2] = checked_cells(std::floor(extent.z / edge) + 1.0, extent.z);
  }

  /// Cell edge actually used (periodic cells shrink to tile the box).
  double edge() const { return 1.0 / inv_edge; }

  std::int64_t coord(double v, double o, int axis) const {
    if (periodic) v -= box * std::floor(v / box);
    // Clamped in floating point: rounding at the far face lands in the
    // last cell, and the cast never sees an out-of-range value.
    const double t = std::clamp((v - o) * inv_edge, 0.0,
                                static_cast<double>(dims[axis] - 1));
    return static_cast<std::int64_t>(t);
  }

  static std::uint64_t key(std::int64_t x, std::int64_t y, std::int64_t z) {
    return (static_cast<std::uint64_t>(z) << (2 * kKeyBits)) |
           (static_cast<std::uint64_t>(y) << kKeyBits) |
           static_cast<std::uint64_t>(x);
  }

  std::uint64_t key_of(const Vec3& p) const {
    return key(coord(p.x, origin.x, 0), coord(p.y, origin.y, 1),
               coord(p.z, origin.z, 2));
  }
};

}  // namespace

std::vector<FofGroup> find_fof_groups(const ParticleSet& set,
                                      const FofOptions& opt) {
  const std::size_t n = set.size();
  if (n == 0) return {};
  const double box = set.box_length;
  const double mean_spacing = box / std::cbrt(static_cast<double>(n));
  const double link = opt.linking_parameter * mean_spacing;
  const double link2 = link * link;
  DTFE_CHECK_MSG(link > 0.0 && std::isfinite(link),
                 "find_fof_groups: linking length must be positive");
  const std::vector<Vec3>& pos = set.positions;

  // Every cell is a clique (any two members closer than link), so a cell
  // joins the friends graph as one node: only cell pairs need tests.
  const CliqueGrid grid(pos, link / std::sqrt(3.0) * (1.0 - kCliqueMargin),
                        opt.periodic, box);
  // Members of cells `reach + 1` apart along an axis are more than link
  // apart; the factor guards the rounding of the cell coordinates.
  const auto reach = 1 + static_cast<std::int64_t>(std::floor(
                             link / grid.edge() * (1.0 + kCliqueMargin)));

  // Sort (cell key, index): cells become contiguous runs, members ascending.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed(n);
  for (std::size_t i = 0; i < n; ++i)
    keyed[i] = {grid.key_of(pos[i]), static_cast<std::uint32_t>(i)};
  std::sort(keyed.begin(), keyed.end());

  std::vector<std::uint64_t> cell_key;
  std::vector<std::uint32_t> cell_start;
  std::vector<std::uint32_t> cell_of(n);
  std::vector<Vec3> sorted(n);  // positions in cell order
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 0 || keyed[j].first != keyed[j - 1].first) {
      cell_key.push_back(keyed[j].first);
      cell_start.push_back(static_cast<std::uint32_t>(j));
    }
    cell_of[keyed[j].second] = static_cast<std::uint32_t>(cell_key.size() - 1);
    sorted[j] = pos[keyed[j].second];
  }
  cell_start.push_back(static_cast<std::uint32_t>(n));
  const auto ncells = static_cast<std::uint32_t>(cell_key.size());

  auto d2 = [&](const Vec3& a, const Vec3& b) {
    return opt.periodic ? periodic_dist2(a, b, box) : (a - b).norm2();
  };
  // Two cliques are friends iff any cross pair is; stop at the first one.
  auto friends = [&](std::uint32_t a, std::uint32_t b) {
    for (std::uint32_t i = cell_start[a]; i < cell_start[a + 1]; ++i)
      for (std::uint32_t j = cell_start[b]; j < cell_start[b + 1]; ++j)
        if (d2(sorted[i], sorted[j]) <= link2) return true;
    return false;
  };

  UnionFind uf(ncells);
  const std::uint64_t axis_mask = (std::uint64_t{1} << kKeyBits) - 1;
  auto wrap = [](std::int64_t v, std::int64_t m) { return ((v % m) + m) % m; };
  for (std::uint32_t c = 0; c < ncells; ++c) {
    const auto cx = static_cast<std::int64_t>(cell_key[c] & axis_mask);
    const auto cy =
        static_cast<std::int64_t>((cell_key[c] >> kKeyBits) & axis_mask);
    const auto cz = static_cast<std::int64_t>(cell_key[c] >> (2 * kKeyBits));
    // Forward half of the (2·reach+1)^3 neighbourhood, one x-row at a time.
    for (std::int64_t dz = 0; dz <= reach; ++dz)
      for (std::int64_t dy = dz == 0 ? 0 : -reach; dy <= reach; ++dy) {
        std::int64_t ny = cy + dy, nz = cz + dz;
        const std::int64_t x0 = cx + (dz == 0 && dy == 0 ? 1 : -reach);
        const std::int64_t x1 = cx + reach;
        // Up to two inclusive x ranges: a periodic row splits at the edge.
        std::int64_t seg[2][2] = {{x0, x1}, {0, -1}};
        if (grid.periodic) {
          const std::int64_t m = grid.dims[0];
          ny = wrap(ny, m);
          nz = wrap(nz, m);
          if (x1 - x0 + 1 >= m) {  // the range covers the whole row
            seg[0][0] = 0;
            seg[0][1] = m - 1;
          } else if (x0 < 0) {
            seg[0][0] = x0 + m;
            seg[0][1] = m - 1;
            seg[1][1] = x1;
          } else if (x1 >= m) {
            seg[0][1] = m - 1;
            seg[1][1] = x1 - m;
          }
        } else {
          if (ny < 0 || ny >= grid.dims[1] || nz >= grid.dims[2]) continue;
          seg[0][0] = std::max<std::int64_t>(x0, 0);
          seg[0][1] = std::min(x1, grid.dims[0] - 1);
        }
        // One search per segment, then a walk along the row. Aliased
        // offsets on small periodic grids may revisit a pair or c itself;
        // the root test skips both.
        for (int k = 0; k < 2; ++k) {
          if (seg[k][0] > seg[k][1]) continue;  // e.g. [m, m-1] before a wrap
          const std::uint64_t hi_key = CliqueGrid::key(seg[k][1], ny, nz);
          for (auto it = std::lower_bound(cell_key.begin(), cell_key.end(),
                                          CliqueGrid::key(seg[k][0], ny, nz));
               it != cell_key.end() && *it <= hi_key; ++it) {
            const auto nc = static_cast<std::uint32_t>(it - cell_key.begin());
            if (uf.find(c) != uf.find(nc) && friends(c, nc)) uf.unite(c, nc);
          }
        }
      }
  }

  // Label each particle with its component, then gather the components of
  // at least min_group_size in order of their lowest member index.
  std::vector<std::uint32_t> component_size(ncells, 0);
  for (std::uint32_t& label : cell_of) {
    label = uf.find(label);
    ++component_size[label];
  }
  std::vector<FofGroup> groups;
  std::vector<std::int32_t> slot(ncells, -1);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t r = cell_of[i];
    if (component_size[r] < opt.min_group_size) continue;
    if (slot[r] < 0) {
      slot[r] = static_cast<std::int32_t>(groups.size());
      groups.emplace_back().members.reserve(component_size[r]);
    }
    groups[static_cast<std::size_t>(slot[r])].members.push_back(i);
  }

  for (FofGroup& g : groups) {
    // Center of mass with minimum-image unwrapping around the first member.
    const Vec3 ref = set.positions[g.members.front()];
    Vec3 acc{0, 0, 0};
    for (const std::uint32_t i : g.members)
      acc += opt.periodic ? min_image(set.positions[i] - ref, box)
                          : (set.positions[i] - ref);
    g.center = ref + acc / static_cast<double>(g.members.size());
    if (opt.periodic) g.center = wrap_periodic(g.center, box);
  }
  std::sort(groups.begin(), groups.end(),
            [](const FofGroup& a, const FofGroup& b) {
              return a.size() > b.size();
            });
  return groups;
}

}  // namespace dtfe
