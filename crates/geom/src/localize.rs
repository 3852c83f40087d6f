//! Two-reader localization (§6, Fig. 7).
//!
//! One AoA constrains the car to a curve on the road plane; combining the
//! curves from two readers (typically mounted on opposite sides of the road)
//! pins down the position. The intersection of two conics can have several
//! solutions; following footnote 10 of the paper, the solution that lies on
//! the road (inside the road's y-extent) is selected.

use crate::conic::ConeCurve;
use crate::vec3::Vec3;

/// Which side of the road a reader pole stands on (used only for descriptive
/// deployment bookkeeping; the math uses the pose directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Negative-`y` side of the road.
    Near,
    /// Positive-`y` side of the road.
    Far,
}

/// Pose of a reader's antenna array in the global frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReaderPose {
    /// Position of the antenna-array centre (pole top), metres.
    pub position: Vec3,
    /// Antenna baseline direction (the cone axis). Need not be normalised.
    pub baseline: Vec3,
}

impl ReaderPose {
    /// Creates a pose.
    pub fn new(position: Vec3, baseline: Vec3) -> Self {
        Self { position, baseline }
    }

    /// A pole at `(x, y)` of height `height` with a baseline parallel to the
    /// road (x axis).
    pub fn road_parallel(x: f64, y: f64, height: f64) -> Self {
        Self::new(Vec3::new(x, y, height), Vec3::new(1.0, 0.0, 0.0))
    }

    /// A pole whose baseline is tilted `tilt_rad` below the horizontal, as in
    /// the 60°-tilt deployment of §12.2.
    pub fn tilted(x: f64, y: f64, height: f64, tilt_rad: f64) -> Self {
        Self::new(
            Vec3::new(x, y, height),
            Vec3::new(tilt_rad.cos(), 0.0, -tilt_rad.sin()),
        )
    }

    /// The cone of possible target directions for a measured AoA.
    pub fn cone(&self, alpha: f64) -> ConeCurve {
        ConeCurve::new(self.position, self.baseline, alpha)
    }
}

/// Search region on the road plane used to pick and bound solutions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadRegion {
    /// Minimum along-road coordinate (m).
    pub x_min: f64,
    /// Maximum along-road coordinate (m).
    pub x_max: f64,
    /// Minimum across-road coordinate (m) — the road edge.
    pub y_min: f64,
    /// Maximum across-road coordinate (m) — the other road edge.
    pub y_max: f64,
    /// Road surface height (m), usually 0.
    pub z: f64,
}

impl RoadRegion {
    /// Returns `true` if a point lies inside the region (footnote 10: the car
    /// must be on the road, not on the sidewalk).
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.x_min
            && p.x <= self.x_max
            && p.y >= self.y_min
            && p.y <= self.y_max
            && (p.z - self.z).abs() < 1e-6
    }
}

/// Why a two-reader localization attempt could not produce a usable fix.
///
/// Degenerate geometry used to surface as silent `None`s (or, worse, NaN
/// positions leaking out of a normalized zero vector); the typed variants
/// let callers distinguish "no car there" from "this deployment geometry can
/// never produce a fix", and pick the right fallback (AoA-only or pole
/// position) per cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalizeError {
    /// An input (pose, AoA or region bound) was NaN or infinite.
    NonFiniteInput,
    /// A reader's antenna baseline has (near-)zero length — its antennas are
    /// coincident, so it measures no angle at all.
    ZeroBaseline,
    /// An AoA lies outside the physical `[0, π]` range.
    InvalidAoa,
    /// The two readers' cone apexes coincide while their baselines are
    /// parallel (collinear antenna arrays): the two cone constraints are not
    /// independent, so every point of one curve satisfies both.
    CollinearReaders,
    /// The road region is empty (inverted bounds).
    EmptyRegion,
    /// Both nappes of the cone pair intersect the road region with
    /// comparable residuals — the behind-array mirror solution cannot be
    /// rejected, so the fix is ambiguous.
    AmbiguousFix,
    /// The cones have no intersection inside the road region (the car is off
    /// the road, or the AoA noise pushed the curves apart).
    NoIntersection,
}

impl std::fmt::Display for LocalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            LocalizeError::NonFiniteInput => "non-finite pose, AoA or region input",
            LocalizeError::ZeroBaseline => "antenna baseline has zero length",
            LocalizeError::InvalidAoa => "AoA outside [0, pi]",
            LocalizeError::CollinearReaders => "coincident apexes with parallel baselines",
            LocalizeError::EmptyRegion => "road region is empty",
            LocalizeError::AmbiguousFix => "mirror solution also lies on the road",
            LocalizeError::NoIntersection => "no cone intersection inside the road region",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for LocalizeError {}

/// Residual tolerance for accepting a fix: residuals are differences of
/// cosines, and 0.05 corresponds to roughly 3° near broadside. Real AoA
/// measurements carry a few degrees of error (§12.2 reports ~4° on average)
/// and the transponder sits slightly above the road plane, so a strict
/// tolerance would reject valid fixes.
const RESIDUAL_TOL: f64 = 0.05;

/// Two candidate minima closer than this (metres) are the same fix, not an
/// ambiguity.
const AMBIGUITY_SEPARATION_M: f64 = 2.0;

fn check_pose(pose: &ReaderPose) -> Result<(), LocalizeError> {
    if !pose.position.is_finite() || !pose.baseline.is_finite() {
        return Err(LocalizeError::NonFiniteInput);
    }
    if pose.baseline.norm() < 1e-9 {
        return Err(LocalizeError::ZeroBaseline);
    }
    Ok(())
}

/// One reader's cone constraint as the solver evaluates it: the unit axis and
/// `cos α` of [`ConeCurve::residual`] taken once per solve instead of once
/// per cost evaluation, and the residual computed from them in the same
/// operation order, so every fix keeps its bits.
struct SolverCone {
    apex: Vec3,
    unit: Vec3,
    cos_alpha: f64,
}

impl SolverCone {
    /// `pose.baseline` must have been through [`check_pose`] (non-zero).
    fn new(pose: &ReaderPose, alpha: f64) -> Self {
        Self {
            apex: pose.position,
            unit: pose.baseline.normalized(),
            cos_alpha: alpha.cos(),
        }
    }

    /// [`ConeCurve::residual`] at `p`.
    fn residual(&self, p: Vec3) -> f64 {
        let v = p - self.apex;
        let n = v.norm();
        if n == 0.0 {
            return -self.cos_alpha;
        }
        let cos_theta = self.unit.dot(v) / n;
        cos_theta - self.cos_alpha
    }
}

/// Localizes a car on the road plane from two reader poses and their measured
/// AoAs, with typed errors for every way the attempt can fail (see
/// [`LocalizeError`]).
///
/// The solver minimises the sum of squared cone residuals over the road
/// region with a coarse 61 × 61 grid followed by iterative local refinement
/// (up to 40 rounds of a 9 × 9 box, for the best cell and again for the
/// runner-up basin): about 10 000 two-cone residual evaluations per call.
/// The grid stays because it is what makes the solve robust to the
/// near-degenerate geometries a closed-form conic intersection mishandles,
/// and because the whole cost field is what the mirror-basin check reads;
/// its accuracy (≪ 1 cm) is far below the AoA noise floor. A second,
/// well-separated in-region minimum with a residual inside tolerance is
/// reported as [`LocalizeError::AmbiguousFix`] rather than silently picking
/// one nappe.
pub fn try_localize_two_readers(
    reader_a: &ReaderPose,
    alpha_a: f64,
    reader_b: &ReaderPose,
    alpha_b: f64,
    region: &RoadRegion,
) -> Result<Vec3, LocalizeError> {
    check_pose(reader_a)?;
    check_pose(reader_b)?;
    if !alpha_a.is_finite() || !alpha_b.is_finite() {
        return Err(LocalizeError::NonFiniteInput);
    }
    if !(0.0..=std::f64::consts::PI).contains(&alpha_a)
        || !(0.0..=std::f64::consts::PI).contains(&alpha_b)
    {
        return Err(LocalizeError::InvalidAoa);
    }
    if [
        region.x_min,
        region.x_max,
        region.y_min,
        region.y_max,
        region.z,
    ]
    .iter()
    .any(|v| !v.is_finite())
    {
        return Err(LocalizeError::NonFiniteInput);
    }
    if region.x_min > region.x_max || region.y_min > region.y_max {
        return Err(LocalizeError::EmptyRegion);
    }
    // Coincident apexes + parallel baselines: the cones share apex and axis,
    // so the constraints are one curve, not two.
    if reader_a.position.distance(reader_b.position) < 1e-9 {
        let cross = reader_a
            .baseline
            .normalized()
            .cross(reader_b.baseline.normalized());
        if cross.norm() < 1e-9 {
            return Err(LocalizeError::CollinearReaders);
        }
    }

    let cone_a = SolverCone::new(reader_a, alpha_a);
    let cone_b = SolverCone::new(reader_b, alpha_b);

    let cost = |x: f64, y: f64| -> f64 {
        let p = Vec3::new(x, y, region.z);
        let ra = cone_a.residual(p);
        let rb = cone_b.residual(p);
        ra * ra + rb * rb
    };

    // Coarse grid: keep the whole cost field so a second basin (the
    // behind-array mirror solution) can be detected afterwards.
    const GRID: usize = 60;
    let mut field = [[0.0f64; GRID + 1]; GRID + 1];
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for (i, row) in field.iter_mut().enumerate() {
        let x = region.x_min + (region.x_max - region.x_min) * i as f64 / GRID as f64;
        for (j, cell) in row.iter_mut().enumerate() {
            let y = region.y_min + (region.y_max - region.y_min) * j as f64 / GRID as f64;
            let c = cost(x, y);
            *cell = c;
            if c < best.0 {
                best = (c, x, y);
            }
        }
    }

    // Local refinement: shrink a box around a seed point.
    let refine = |seed: (f64, f64, f64)| -> (f64, f64, f64) {
        let mut best = seed;
        let mut cx = best.1;
        let mut cy = best.2;
        let mut span_x = (region.x_max - region.x_min) / GRID as f64;
        let mut span_y = (region.y_max - region.y_min) / GRID as f64;
        for _ in 0..40 {
            let mut improved = false;
            for i in -4i32..=4 {
                for j in -4i32..=4 {
                    let x = (cx + i as f64 * span_x / 4.0).clamp(region.x_min, region.x_max);
                    let y = (cy + j as f64 * span_y / 4.0).clamp(region.y_min, region.y_max);
                    let c = cost(x, y);
                    if c < best.0 {
                        best = (c, x, y);
                        improved = true;
                    }
                }
            }
            cx = best.1;
            cy = best.2;
            if !improved {
                span_x *= 0.5;
                span_y *= 0.5;
            }
            if span_x < 1e-7 && span_y < 1e-7 {
                break;
            }
        }
        best
    };

    let best = refine(best);
    let p = Vec3::new(best.1, best.2, region.z);
    let ok = cone_a.residual(p).abs() < RESIDUAL_TOL && cone_b.residual(p).abs() < RESIDUAL_TOL;
    if !(ok && region.contains(p)) {
        return Err(LocalizeError::NoIntersection);
    }

    // Behind-array ambiguity: look for a second basin — the best grid point
    // well separated from the accepted fix — and refine it. If it satisfies
    // both cone constraints too, the mirror solution is also on the road and
    // the fix cannot be trusted.
    let mut second = (f64::INFINITY, 0.0, 0.0);
    for (i, row) in field.iter().enumerate() {
        let x = region.x_min + (region.x_max - region.x_min) * i as f64 / GRID as f64;
        for (j, &c) in row.iter().enumerate() {
            let y = region.y_min + (region.y_max - region.y_min) * j as f64 / GRID as f64;
            let far = (x - best.1).hypot(y - best.2) > AMBIGUITY_SEPARATION_M;
            if far && c < second.0 {
                second = (c, x, y);
            }
        }
    }
    if second.0.is_finite() {
        let second = refine(second);
        let q = Vec3::new(second.1, second.2, region.z);
        let mirror_ok = cone_a.residual(q).abs() < RESIDUAL_TOL
            && cone_b.residual(q).abs() < RESIDUAL_TOL
            && region.contains(q)
            && q.horizontal().distance(p.horizontal()) > AMBIGUITY_SEPARATION_M;
        // Two low-residual points are only *ambiguous* when a cost ridge
        // separates them (disjoint nappe basins). A shallow-crossing pair of
        // curves produces one elongated valley — low residuals everywhere
        // between the points — which is an uncertain fix, not a mirror.
        let mid = (p + q) / 2.0;
        let ridge_between =
            cone_a.residual(mid).abs() > RESIDUAL_TOL || cone_b.residual(mid).abs() > RESIDUAL_TOL;
        if mirror_ok && ridge_between {
            return Err(LocalizeError::AmbiguousFix);
        }
    }

    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::feet_to_meters;

    fn true_alpha(pose: &ReaderPose, car: Vec3) -> f64 {
        pose.baseline.angle_to(car - pose.position)
    }

    /// A road segment centred on the origin at `z = 0`.
    fn centered(length: f64, width: f64) -> RoadRegion {
        RoadRegion {
            x_min: -length / 2.0,
            x_max: length / 2.0,
            y_min: -width / 2.0,
            y_max: width / 2.0,
            z: 0.0,
        }
    }

    #[test]
    fn recovers_position_with_exact_angles() {
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::road_parallel(20.0, 6.0, h);
        let car = Vec3::new(8.0, -1.5, 0.0);
        let region = RoadRegion {
            x_min: -10.0,
            x_max: 40.0,
            y_min: -5.0,
            y_max: 5.0,
            z: 0.0,
        };
        let p = try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &region)
            .expect("should localize");
        assert!(p.distance(car) < 0.05, "got {p:?}");
    }

    #[test]
    fn recovers_position_with_tilted_antennas() {
        let h = feet_to_meters(12.5);
        let tilt = 60.0_f64.to_radians();
        let a = ReaderPose::tilted(0.0, -5.0, h, tilt);
        let b = ReaderPose::tilted(30.0, 5.0, h, tilt);
        let car = Vec3::new(14.0, 2.0, 0.0);
        let region = RoadRegion {
            x_min: -10.0,
            x_max: 50.0,
            y_min: -4.5,
            y_max: 4.5,
            z: 0.0,
        };
        let p = try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &region)
            .expect("should localize");
        assert!(p.distance(car) < 0.05, "got {p:?}");
    }

    #[test]
    fn small_angle_errors_give_small_position_errors() {
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::road_parallel(25.0, 6.0, h);
        let car = Vec3::new(10.0, 1.0, 0.0);
        let region = RoadRegion {
            x_min: -5.0,
            x_max: 40.0,
            y_min: -5.0,
            y_max: 5.0,
            z: 0.0,
        };
        let err = 1.0_f64.to_radians();
        let p = try_localize_two_readers(
            &a,
            true_alpha(&a, car) + err,
            &b,
            true_alpha(&b, car) - err,
            &region,
        )
        .expect("should localize");
        // A degree of AoA error should stay within a couple of metres here.
        assert!(p.distance(car) < 3.0, "error {}", p.distance(car));
    }

    #[test]
    fn returns_none_when_target_is_off_road() {
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::road_parallel(20.0, 6.0, h);
        // A "car" far outside the declared road region.
        let car = Vec3::new(100.0, 30.0, 0.0);
        let region = centered(40.0, 9.0);
        let p = try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &region)
            .ok();
        assert!(p.is_none());
    }

    #[test]
    fn road_region_contains_checks_bounds() {
        let r = centered(100.0, 10.0);
        assert!(r.contains(Vec3::new(0.0, 0.0, 0.0)));
        assert!(r.contains(Vec3::new(-50.0, 5.0, 0.0)));
        assert!(!r.contains(Vec3::new(0.0, 5.1, 0.0)));
        assert!(!r.contains(Vec3::new(51.0, 0.0, 0.0)));
        assert!(!r.contains(Vec3::new(0.0, 0.0, 1.0)));
    }

    #[test]
    fn coincident_antennas_are_a_typed_error_not_a_nan() {
        let h = feet_to_meters(12.5);
        let good = ReaderPose::road_parallel(20.0, 6.0, h);
        // Zero-length baseline: the antennas coincide.
        let broken = ReaderPose::new(Vec3::new(0.0, -6.0, h), Vec3::ZERO);
        let region = centered(40.0, 9.0);
        let err = try_localize_two_readers(&broken, 1.0, &good, 1.2, &region).unwrap_err();
        assert_eq!(err, LocalizeError::ZeroBaseline);
        let err = try_localize_two_readers(&good, 1.0, &broken, 1.2, &region).unwrap_err();
        assert_eq!(err, LocalizeError::ZeroBaseline);
    }

    #[test]
    fn collinear_coincident_readers_are_rejected() {
        let h = feet_to_meters(12.5);
        // Same apex, parallel baselines: one constraint masquerading as two.
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::new(a.position, a.baseline * -2.0);
        let region = centered(40.0, 9.0);
        let err = try_localize_two_readers(&a, 1.0, &b, 1.0, &region).unwrap_err();
        assert_eq!(err, LocalizeError::CollinearReaders);
        // Same apex but genuinely different axes is solvable, not degenerate.
        let c = ReaderPose::new(a.position, Vec3::new(0.0, 1.0, 0.0));
        let car = Vec3::new(8.0, -1.5, 0.0);
        let fix =
            try_localize_two_readers(&a, true_alpha(&a, car), &c, true_alpha(&c, car), &region);
        assert!(fix.is_ok(), "distinct axes from one apex: {fix:?}");
    }

    #[test]
    fn non_finite_inputs_are_typed_errors() {
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::road_parallel(20.0, 6.0, h);
        let region = centered(40.0, 9.0);
        let nan_pose = ReaderPose::new(Vec3::new(f64::NAN, -6.0, h), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(
            try_localize_two_readers(&nan_pose, 1.0, &b, 1.2, &region).unwrap_err(),
            LocalizeError::NonFiniteInput
        );
        assert_eq!(
            try_localize_two_readers(&a, f64::NAN, &b, 1.2, &region).unwrap_err(),
            LocalizeError::NonFiniteInput
        );
        assert_eq!(
            try_localize_two_readers(&a, -0.3, &b, 1.2, &region).unwrap_err(),
            LocalizeError::InvalidAoa
        );
        let empty = RoadRegion {
            x_min: 10.0,
            x_max: -10.0,
            y_min: -4.0,
            y_max: 4.0,
            z: 0.0,
        };
        assert_eq!(
            try_localize_two_readers(&a, 1.0, &b, 1.2, &empty).unwrap_err(),
            LocalizeError::EmptyRegion
        );
    }

    #[test]
    fn behind_array_mirror_solution_is_flagged_ambiguous() {
        // Both readers on the road median: the geometry is mirror-symmetric
        // about y = 0, so the reflected solution is also on the road and the
        // fix must be refused, not silently picked.
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, 0.0, h);
        let b = ReaderPose::road_parallel(20.0, 0.0, h);
        let car = Vec3::new(8.0, 4.0, 0.0);
        let region = centered(60.0, 10.0);
        let err =
            try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &region)
                .unwrap_err();
        assert_eq!(err, LocalizeError::AmbiguousFix);
        // Shrinking the region to one side of the road removes the mirror:
        // the same measurement localizes cleanly.
        let half = RoadRegion {
            y_min: 0.5,
            ..region
        };
        let fix = try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &half)
            .expect("one-sided region disambiguates");
        assert!(fix.distance(car) < 0.1, "got {fix:?}");
    }

    #[test]
    fn off_road_targets_are_no_intersection_errors() {
        let h = feet_to_meters(12.5);
        let a = ReaderPose::road_parallel(0.0, -6.0, h);
        let b = ReaderPose::road_parallel(20.0, 6.0, h);
        let car = Vec3::new(100.0, 30.0, 0.0);
        let region = centered(40.0, 9.0);
        let err =
            try_localize_two_readers(&a, true_alpha(&a, car), &b, true_alpha(&b, car), &region)
                .unwrap_err();
        assert_eq!(err, LocalizeError::NoIntersection);
    }

    #[test]
    fn localize_errors_display_and_never_leak_nan_positions() {
        // Every degenerate call either errors or returns a finite position.
        let h = feet_to_meters(12.5);
        let region = centered(40.0, 9.0);
        let poses = [
            ReaderPose::new(Vec3::ZERO, Vec3::ZERO),
            ReaderPose::road_parallel(0.0, -6.0, h),
            ReaderPose::new(Vec3::new(0.0, -6.0, h), Vec3::new(f64::INFINITY, 0.0, 0.0)),
        ];
        for pa in &poses {
            for pb in &poses {
                for alpha in [0.0, 0.7, f64::NAN, 4.0] {
                    match try_localize_two_readers(pa, alpha, pb, alpha, &region) {
                        Ok(p) => assert!(p.is_finite(), "NaN fix for {pa:?}/{alpha}"),
                        Err(e) => assert!(!e.to_string().is_empty()),
                    }
                }
            }
        }
    }

    #[test]
    fn solver_cone_residual_is_bit_identical_to_the_cone_curves() {
        // SplitMix64: the crate has no dependencies, `rand` included.
        let mut state = 0x00c0_7e5e_u64;
        let mut unit = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..10_000 {
            let mut span = |scale: f64| (unit() * 2.0 - 1.0) * scale;
            // Axes of any length (the pose need not be normalised), the
            // road-parallel and 60°-tilted ones among them.
            let pose = match i % 3 {
                0 => ReaderPose::road_parallel(span(50.0), span(8.0), 3.81),
                1 => ReaderPose::tilted(span(50.0), span(8.0), 3.81, 60.0_f64.to_radians()),
                _ => ReaderPose::new(
                    Vec3::new(span(50.0), span(8.0), span(5.0)),
                    Vec3::new(span(3.0), span(3.0), span(3.0) + 3.5),
                ),
            };
            let alpha = (span(0.5) + 0.5) * std::f64::consts::PI;
            let p = if i % 100 == 0 {
                pose.position
            } else {
                Vec3::new(
                    span(80.0),
                    span(10.0),
                    if i % 2 == 0 { 0.0 } else { span(4.0) },
                )
            };
            assert_eq!(
                SolverCone::new(&pose, alpha).residual(p).to_bits(),
                pose.cone(alpha).residual(p).to_bits(),
                "{pose:?} alpha {alpha} at {p:?}"
            );
        }
    }

    #[test]
    fn pose_constructors_orient_baselines() {
        let p = ReaderPose::road_parallel(1.0, 2.0, 3.0);
        assert_eq!(p.baseline, Vec3::new(1.0, 0.0, 0.0));
        let t = ReaderPose::tilted(0.0, 0.0, 3.0, 60.0_f64.to_radians());
        assert!(t.baseline.z < 0.0);
        assert!((t.baseline.norm() - 1.0).abs() < 1e-12);
    }
}
