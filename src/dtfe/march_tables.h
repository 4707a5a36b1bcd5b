// Precomputed SoA tables for the marching kernel's vertical hot path
// (DESIGN.md §11).
//
// The per-call AoS march gathers four Vec3 per step (cell_points), rebuilds
// six edge vectors, and chases mirror_index through the neighbor's cell
// record — per ray, per channel, per crossing. These tables hoist all of it
// into two contiguous per-cell-id arrays built once per triangulation:
//
//   * TetraGeomTable — the coefficient form of the six vertical edge
//     products (geometry/tetra_coef.h), the four vertex heights, and the
//     resolved walk topology (neighbor id with infinite neighbors collapsed
//     to kNoCell, plus the precomputed mirror slot). Geometry-only, so ALL
//     kernels over one triangulation share a single instance — the unit-path
//     and per-channel kernels of a vector render, every cached request once
//     the field service lands.
//   * FieldCoefTable — the per-cell interpolant rebased to absolute
//     coordinates: value(x,y,z) = ((d0 + gx·x) + gy·y) + gz·z. One per
//     DensityField (cheap: 4 doubles/cell).
//
// Tables are indexed by raw cell id over cell_storage_size(); dead and
// infinite slots hold zeros and are never dereferenced by a march (the walk
// starts from a hull entry and stops at kNoCell).
//
// A build touches every cell, so it only pays off when the render's rays
// visit more cells than the mesh holds (march_tables_pay_off). Otherwise the
// march reads the same entries through TetraGeomDirect / FieldCoefDirect,
// which compute them at each visit with the very functions the tables are
// filled from — so both routes render bitwise-identical grids, and a
// few-ray render of a large mesh allocates no per-cell table at all.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "delaunay/triangulation.h"
#include "geometry/tetra_coef.h"

namespace dtfe {

class DensityField;

/// Whether tables for a mesh of `cells` live cells pay off over computing
/// their entries at each visit, for a render of `rays` vertical lines. A
/// build touches every cell once; a line crosses O(cells^{1/3}) of them.
inline bool march_tables_pay_off(std::size_t rays, std::size_t cells) {
  const double n = static_cast<double>(cells);
  return static_cast<double>(rays) * std::cbrt(n) >= n;
}

/// Walk topology of a finite cell: the neighbor across `face`, with
/// infinite neighbors collapsed to kNoCell so the march's hull-exit test is
/// one compare, no cell-record probe.
inline CellId march_next(const Triangulation& tri, CellId c, int face) {
  const CellId nb = tri.cell(c).n[static_cast<std::size_t>(face)];
  if (nb == Triangulation::kNoCell || tri.is_infinite(nb))
    return Triangulation::kNoCell;
  return nb;
}

/// Geometry-only march tables: crossing-test coefficients plus resolved walk
/// topology, one entry per raw cell id. Immutable after construction, safe
/// to share across threads and kernels.
class TetraGeomTable {
 public:
  explicit TetraGeomTable(const Triangulation& tri);

  const VerticalTetraCoef& coef(CellId c) const {
    return coef_[static_cast<std::size_t>(c)];
  }
  /// march_next(tri, c, face), precomputed.
  CellId next(CellId c, int face) const {
    return next_[static_cast<std::size_t>(c) * 4 + static_cast<std::size_t>(face)];
  }
  /// Entry face in next(c, face) — the precomputed mirror_index.
  int mirror(CellId c, int face) const {
    return mirror_[static_cast<std::size_t>(c) * 4 +
                   static_cast<std::size_t>(face)];
  }
  std::size_t size() const { return coef_.size(); }

 private:
  std::vector<VerticalTetraCoef> coef_;
  std::vector<CellId> next_;
  std::vector<std::int8_t> mirror_;
};

/// TetraGeomTable's entries computed at each visit instead of stored.
class TetraGeomDirect {
 public:
  explicit TetraGeomDirect(const Triangulation& tri) : tri_(&tri) {}

  VerticalTetraCoef coef(CellId c) const {
    return make_vertical_coef(tri_->cell_points(c));
  }
  CellId next(CellId c, int face) const { return march_next(*tri_, c, face); }
  int mirror(CellId c, int face) const { return tri_->mirror_index(c, face); }

 private:
  const Triangulation* tri_;
};

/// Per-cell linear interpolant rebased to absolute coordinates:
/// value = ((d0 + gx·x) + gy·y) + gz·z — the midpoint-integral evaluation
/// without the per-call v[0]/gradient gather of interpolate_in_cell.
/// NOTE: rounds differently from interpolate_in_cell's (p − x0) form; the
/// rebased form is the production fast path, the AoS form stays the oracle.
struct CellInterpolant {
  double d0 = 0.0, gx = 0.0, gy = 0.0, gz = 0.0;

  /// Of a finite cell of `field`'s triangulation.
  CellInterpolant(const DensityField& field, CellId c);
  CellInterpolant() = default;

  double value(double x, double y, double z) const {
    return ((d0 + gx * x) + gy * y) + gz * z;
  }
  /// Restricted to the column through (x, y): base + gz·z.
  double column_base(double x, double y) const { return (d0 + gx * x) + gy * y; }
};

/// One CellInterpolant per raw cell id.
class FieldCoefTable {
 public:
  explicit FieldCoefTable(const DensityField& field);

  const CellInterpolant& at(CellId c) const {
    return coef_[static_cast<std::size_t>(c)];
  }

 private:
  std::vector<CellInterpolant> coef_;
};

/// FieldCoefTable's entries computed at each visit instead of stored.
class FieldCoefDirect {
 public:
  explicit FieldCoefDirect(const DensityField& field) : field_(&field) {}

  CellInterpolant at(CellId c) const { return CellInterpolant(*field_, c); }

 private:
  const DensityField* field_;
};

}  // namespace dtfe
