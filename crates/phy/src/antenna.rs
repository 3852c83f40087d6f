//! Reader antenna arrays (§6, Fig. 5 and Fig. 6).
//!
//! The Caraoke reader measures AoA with a pair of antennas separated by λ/2.
//! Because the estimate degrades near 0°/180°, the deployed reader carries
//! *three* antennas arranged in an equilateral triangle and, for every
//! transponder, uses the pair whose spatial angle is closest to 90° (always
//! achievable within 60°–120°). The deployment of §12.2 additionally tilts
//! the antenna plane 60° out of the road plane to balance the error across
//! parking spots.

use caraoke_geom::units::CARRIER_WAVELENGTH_M;
use caraoke_geom::Vec3;

/// High-level description of an array layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrayGeometry {
    /// Two antennas along the road direction separated by `spacing` metres.
    Pair {
        /// Element separation in metres.
        spacing: f64,
    },
    /// Three antennas in an equilateral triangle of side `side` metres whose
    /// plane is tilted `tilt_rad` below the horizontal (0 = triangle lying in
    /// the horizontal plane).
    Triangle {
        /// Triangle side length in metres.
        side: f64,
        /// Tilt of the triangle plane below horizontal, radians.
        tilt_rad: f64,
    },
}

impl ArrayGeometry {
    /// The paper's default pair: λ/2 spacing (6.5 in).
    pub fn default_pair() -> Self {
        ArrayGeometry::Pair {
            spacing: CARRIER_WAVELENGTH_M / 2.0,
        }
    }

    /// The paper's deployed triangle: λ/2 sides, tilted 60°.
    pub fn default_triangle() -> Self {
        ArrayGeometry::Triangle {
            side: CARRIER_WAVELENGTH_M / 2.0,
            tilt_rad: 60.0_f64.to_radians(),
        }
    }
}

/// A concrete antenna array: element positions in the global frame.
#[derive(Debug, Clone, PartialEq)]
pub struct AntennaArray {
    elements: Vec<Vec3>,
}

impl AntennaArray {
    /// Builds an array at `pole_top` from an [`ArrayGeometry`]. `toward_road`
    /// is the horizontal unit vector from the pole towards the road (used to
    /// orient the tilt); the road direction is assumed to be the global `x`
    /// axis.
    pub fn from_geometry(pole_top: Vec3, toward_road: Vec3, geometry: ArrayGeometry) -> Self {
        let road_dir = Vec3::new(1.0, 0.0, 0.0);
        let toward = if toward_road.horizontal().norm() > 0.0 {
            toward_road.horizontal().normalized()
        } else {
            Vec3::new(0.0, 1.0, 0.0)
        };
        match geometry {
            ArrayGeometry::Pair { spacing } => {
                let half = road_dir * (spacing / 2.0);
                Self {
                    elements: vec![pole_top - half, pole_top + half],
                }
            }
            ArrayGeometry::Triangle { side, tilt_rad } => {
                // In-plane axes: u along the road, v tilted below horizontal
                // towards the road.
                let u = road_dir;
                let v = toward * tilt_rad.cos() + Vec3::new(0.0, 0.0, -tilt_rad.sin());
                // Equilateral triangle centred on the pole top.
                let h = side * 3f64.sqrt() / 2.0;
                let local = [
                    (-side / 2.0, -h / 3.0),
                    (side / 2.0, -h / 3.0),
                    (0.0, 2.0 * h / 3.0),
                ];
                let elements = local
                    .iter()
                    .map(|&(a, b)| pole_top + u * a + v * b)
                    .collect();
                Self { elements }
            }
        }
    }

    /// Element positions.
    pub fn elements(&self) -> &[Vec3] {
        &self.elements
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Returns `true` if the array has no elements (never true for arrays
    /// built through the constructors).
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Geometric centre of the array.
    pub fn center(&self) -> Vec3 {
        let sum = self.elements.iter().fold(Vec3::ZERO, |acc, &e| acc + e);
        sum / self.elements.len() as f64
    }

    /// All unordered element pairs `(i, j)` with `i < j`.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for i in 0..self.elements.len() {
            for j in (i + 1)..self.elements.len() {
                out.push((i, j));
            }
        }
        out
    }

    /// Baseline vector from element `i` to element `j`.
    pub fn baseline(&self, i: usize, j: usize) -> Vec3 {
        self.elements[j] - self.elements[i]
    }

    /// Baseline length between elements `i` and `j`.
    pub fn spacing(&self, i: usize, j: usize) -> f64 {
        self.baseline(i, j).norm()
    }

    /// True spatial angle between the baseline `(i, j)` and the direction to a
    /// target point, measured from the pair midpoint.
    pub fn true_angle(&self, i: usize, j: usize, target: Vec3) -> f64 {
        let mid = (self.elements[i] + self.elements[j]) / 2.0;
        self.baseline(i, j).angle_to(target - mid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA: f64 = CARRIER_WAVELENGTH_M;

    #[test]
    fn pair_elements_are_separated_by_spacing() {
        let arr = AntennaArray::from_geometry(
            Vec3::new(0.0, -5.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_pair(),
        );
        assert_eq!(arr.len(), 2);
        assert!((arr.spacing(0, 1) - LAMBDA / 2.0).abs() < 1e-12);
        assert!((arr.center() - Vec3::new(0.0, -5.0, 3.8)).norm() < 1e-12);
    }

    #[test]
    fn triangle_is_equilateral() {
        let arr = AntennaArray::from_geometry(
            Vec3::new(0.0, -5.0, 3.8),
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_triangle(),
        );
        assert_eq!(arr.len(), 3);
        let pairs = arr.pairs();
        assert_eq!(pairs.len(), 3);
        for &(i, j) in &pairs {
            assert!((arr.spacing(i, j) - LAMBDA / 2.0).abs() < 1e-9);
        }
        assert!((arr.center() - Vec3::new(0.0, -5.0, 3.8)).norm() < 1e-9);
    }

    #[test]
    fn triangle_tilt_moves_elements_below_pole_top() {
        let pole = Vec3::new(0.0, -5.0, 3.8);
        let arr = AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::Triangle {
                side: LAMBDA / 2.0,
                tilt_rad: 60.0_f64.to_radians(),
            },
        );
        // With a 60-degree tilt the apex element must sit below the base two.
        let zs: Vec<f64> = arr.elements().iter().map(|e| e.z).collect();
        let spread = zs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - zs.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            spread > 0.05,
            "tilt should spread element heights, got {spread}"
        );
    }

    #[test]
    fn untilted_triangle_is_horizontal() {
        let pole = Vec3::new(0.0, -5.0, 3.8);
        let arr = AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::Triangle {
                side: 0.1,
                tilt_rad: 0.0,
            },
        );
        for e in arr.elements() {
            assert!((e.z - 3.8).abs() < 1e-12);
        }
    }

    #[test]
    fn triangle_always_offers_a_pair_near_broadside() {
        // For targets all around the reader, at least one of the three pairs
        // must see the target between 60 and 120 degrees (the §6 claim).
        let pole = Vec3::new(0.0, -5.0, 3.8);
        let arr = AntennaArray::from_geometry(
            pole,
            Vec3::new(0.0, 1.0, 0.0),
            ArrayGeometry::default_triangle(),
        );
        for k in 0..36 {
            let theta = k as f64 * 10.0_f64.to_radians();
            let target = Vec3::new(12.0 * theta.cos(), 12.0 * theta.sin() - 5.0, 0.0);
            let good = arr.pairs().iter().any(|&(i, j)| {
                let a = arr.true_angle(i, j, target).to_degrees();
                (55.0..=125.0).contains(&a)
            });
            assert!(good, "no good pair for direction {k}");
        }
    }
}
