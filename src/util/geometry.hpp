#pragma once
// Basic planar geometry used throughout placement / routing / map generation.

#include <algorithm>
#include <cmath>
#include <ostream>
#include <type_traits>

namespace dco3d {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend Point operator+(Point a, Point b) { return {a.x + b.x, a.y + b.y}; }
  friend Point operator-(Point a, Point b) { return {a.x - b.x, a.y - b.y}; }
  friend Point operator*(Point a, double s) { return {a.x * s, a.y * s}; }
  friend bool operator==(const Point& a, const Point& b) = default;
};

inline double manhattan(Point a, Point b) {
  return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

inline double euclidean(Point a, Point b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

/// Axis-aligned rectangle, closed on all sides. Maintains lo <= hi.
struct Rect {
  double xlo = 0.0, ylo = 0.0, xhi = 0.0, yhi = 0.0;

  static Rect from_points(Point a, Point b) {
    return {std::min(a.x, b.x), std::min(a.y, b.y),
            std::max(a.x, b.x), std::max(a.y, b.y)};
  }

  double width() const { return xhi - xlo; }
  double height() const { return yhi - ylo; }
  double area() const { return width() * height(); }
  Point center() const { return {(xlo + xhi) * 0.5, (ylo + yhi) * 0.5}; }
  double half_perimeter() const { return width() + height(); }

  bool contains(Point p) const {
    return p.x >= xlo && p.x <= xhi && p.y >= ylo && p.y <= yhi;
  }

  bool intersects(const Rect& o) const {
    return xlo <= o.xhi && o.xlo <= xhi && ylo <= o.yhi && o.ylo <= yhi;
  }

  /// Intersection rectangle; empty (zero-area at a shared edge or degenerate)
  /// rectangles are returned as-is; callers check area() or overlap_area().
  Rect intersection(const Rect& o) const {
    return {std::max(xlo, o.xlo), std::max(ylo, o.ylo),
            std::min(xhi, o.xhi), std::min(yhi, o.yhi)};
  }

  /// Overlap area with another rect, 0 if disjoint.
  double overlap_area(const Rect& o) const {
    const double w = std::min(xhi, o.xhi) - std::max(xlo, o.xlo);
    const double h = std::min(yhi, o.yhi) - std::max(ylo, o.ylo);
    return (w > 0 && h > 0) ? w * h : 0.0;
  }

  /// Grow to include the point.
  void expand(Point p) {
    xlo = std::min(xlo, p.x);
    ylo = std::min(ylo, p.y);
    xhi = std::max(xhi, p.x);
    yhi = std::max(yhi, p.y);
  }

  friend bool operator==(const Rect& a, const Rect& b) = default;
  friend std::ostream& operator<<(std::ostream& os, const Rect& r) {
    return os << "[" << r.xlo << "," << r.ylo << " .. " << r.xhi << "," << r.yhi << "]";
  }
};

/// Bounding box accumulator that starts empty.
struct BBox {
  bool empty = true;
  Rect rect;

  void add(Point p) {
    if (empty) {
      rect = {p.x, p.y, p.x, p.y};
      empty = false;
    } else {
      rect.expand(p);
    }
  }
};

inline double clamp01(double v) { return std::clamp(v, 0.0, 1.0); }

/// Largest supported die count of a stack (every tier-count entry point —
/// CLI, serve specs, placement and route files — rejects more). Fixed-size
/// per-tier scratch in the soft maps and the SIMD backward row relies on it.
inline constexpr int kMaxTiers = 8;

/// Calls f(std::integral_constant<int, K>{}) for a tier count K in
/// [2, kMaxTiers], so per-tier loops in hot kernels get a compile-time trip
/// count (one source body, one instantiation per K). K outside the range
/// must be rejected by the caller first.
template <class F>
decltype(auto) with_tier_count(int K, F&& f) {
  static_assert(kMaxTiers == 8, "extend the cases below");
  switch (K) {
    case 2: return f(std::integral_constant<int, 2>{});
    case 3: return f(std::integral_constant<int, 3>{});
    case 4: return f(std::integral_constant<int, 4>{});
    case 5: return f(std::integral_constant<int, 5>{});
    case 6: return f(std::integral_constant<int, 6>{});
    case 7: return f(std::integral_constant<int, 7>{});
    default: return f(std::integral_constant<int, 8>{});
  }
}

}  // namespace dco3d
