#include "dtfe/march_tables.h"

#include "dtfe/density.h"

namespace dtfe {

TetraGeomTable::TetraGeomTable(const Triangulation& tri) {
  const std::size_t n = tri.cell_storage_size();
  coef_.assign(n, VerticalTetraCoef{});
  next_.assign(n * 4, Triangulation::kNoCell);
  mirror_.assign(n * 4, -1);
  const TetraGeomDirect direct(tri);
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) continue;
    coef_[i] = direct.coef(c);
    for (int f = 0; f < 4; ++f) {
      const CellId nb = direct.next(c, f);
      if (nb == Triangulation::kNoCell) continue;
      next_[i * 4 + static_cast<std::size_t>(f)] = nb;
      mirror_[i * 4 + static_cast<std::size_t>(f)] =
          static_cast<std::int8_t>(direct.mirror(c, f));
    }
  }
}

CellInterpolant::CellInterpolant(const DensityField& field, CellId c) {
  const Triangulation& tri = field.triangulation();
  const auto& t = tri.cell(c);
  const Vec3& x0 = tri.point(t.v[0]);
  const Vec3& g = field.cell_gradient(c);
  d0 = ((field.vertex_density(t.v[0]) - g.x * x0.x) - g.y * x0.y) - g.z * x0.z;
  gx = g.x;
  gy = g.y;
  gz = g.z;
}

FieldCoefTable::FieldCoefTable(const DensityField& field) {
  const Triangulation& tri = field.triangulation();
  const std::size_t n = tri.cell_storage_size();
  coef_.assign(n, CellInterpolant{});
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<CellId>(i);
    if (!tri.cell_alive(c) || tri.is_infinite(c)) continue;
    coef_[i] = CellInterpolant(field, c);
  }
}

}  // namespace dtfe
