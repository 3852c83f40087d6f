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

/// Side of the coarse grid in cells: the grid has `GRID + 1` points a side.
const GRID: usize = 60;

/// Points a side of one refinement stencil: offsets −4 … 4 quarter spans.
const STENCIL: usize = 9;

/// One coordinate's share of a cone residual, for `v` = that coordinate
/// minus the apex's: `v²` towards `|v|²` and `u·v` towards the dot with the
/// unit axis.
#[derive(Clone, Copy)]
struct AxisTerm {
    sq: f64,
    dot: f64,
}

impl AxisTerm {
    /// The share of coordinate `c`, for the apex's coordinate `apex` and the
    /// unit axis's component `unit` on the same axis.
    fn new(c: f64, apex: f64, unit: f64) -> Self {
        let v = c - apex;
        Self {
            sq: v * v,
            dot: unit * v,
        }
    }
}

/// One reader's cone constraint as the solver evaluates it: the unit axis and
/// `cos α` of [`ConeCurve::residual`] taken once per solve, and the residual
/// split by axis so a grid or stencil computes each coordinate's share once
/// per column, row or plane instead of once per cell.
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

    /// [`ConeCurve::residual`] from its three axis terms: the only residual
    /// formula of the solver. The terms are added x, y, z, the order
    /// [`Vec3::norm`] and [`Vec3::dot`] add components in, so the result
    /// equals the whole-vector residual bit for bit. At the apex (`|v| = 0`)
    /// the residual is `−cos α`, taken as a select rather than a branch so a
    /// row of cells evaluates as straight-line vector code.
    #[inline(always)]
    fn residual_of(&self, x: AxisTerm, y: AxisTerm, z: AxisTerm) -> f64 {
        let n = ((x.sq + y.sq) + z.sq).sqrt();
        let r = ((x.dot + y.dot) + z.dot) / n - self.cos_alpha;
        if n == 0.0 {
            -self.cos_alpha
        } else {
            r
        }
    }

    /// [`ConeCurve::residual`] at `p`.
    fn residual(&self, p: Vec3) -> f64 {
        let (apex, unit) = (self.apex, self.unit);
        self.residual_of(
            AxisTerm::new(p.x, apex.x, unit.x),
            AxisTerm::new(p.y, apex.y, unit.y),
            AxisTerm::new(p.z, apex.z, unit.z),
        )
    }
}

/// Both cones' terms of one coordinate value.
#[derive(Clone, Copy)]
struct PairTerm {
    a: AxisTerm,
    b: AxisTerm,
}

/// The two cones of one solve on the road plane `z`: the sum of squared
/// residuals over a block of columns (x) by rows (y), each axis term taken
/// once for the block.
struct ConePair {
    a: SolverCone,
    b: SolverCone,
    /// Both cones' terms of the plane's `z`, the same for every cell.
    z: PairTerm,
}

impl ConePair {
    fn new(a: SolverCone, b: SolverCone, z: f64) -> Self {
        let z = PairTerm {
            a: AxisTerm::new(z, a.apex.z, a.unit.z),
            b: AxisTerm::new(z, b.apex.z, b.unit.z),
        };
        Self { a, b, z }
    }

    /// The cost of every cell of a block, `costs[i][j]` at column `xs[i]`
    /// and row `ys[j]`.
    fn costs<const R: usize, const C: usize>(
        &self,
        xs: &[f64; R],
        ys: &[f64; C],
        costs: &mut [[f64; C]; R],
    ) {
        let (a, b) = (&self.a, &self.b);
        let rows = ys.map(|y| PairTerm {
            a: AxisTerm::new(y, a.apex.y, a.unit.y),
            b: AxisTerm::new(y, b.apex.y, b.unit.y),
        });
        for (out, &x) in costs.iter_mut().zip(xs) {
            let column = PairTerm {
                a: AxisTerm::new(x, a.apex.x, a.unit.x),
                b: AxisTerm::new(x, b.apex.x, b.unit.x),
            };
            for (cost, row) in out.iter_mut().zip(&rows) {
                let ra = a.residual_of(column.a, row.a, self.z.a);
                let rb = b.residual_of(column.b, row.b, self.z.b);
                *cost = ra * ra + rb * rb;
            }
        }
    }
}

/// Moves `best` to the first cell of `costs`, in column-then-row order, that
/// is cheaper than it and every cell before; returns whether it moved.
fn take_min<const R: usize, const C: usize>(
    best: &mut (f64, f64, f64),
    xs: &[f64; R],
    ys: &[f64; C],
    costs: &[[f64; C]; R],
) -> bool {
    let mut moved = false;
    for (row, &x) in costs.iter().zip(xs) {
        for (&c, &y) in row.iter().zip(ys) {
            if c < best.0 {
                *best = (c, x, y);
                moved = true;
            }
        }
    }
    moved
}

/// Localizes a car on the road plane from two reader poses and their measured
/// AoAs, with typed errors for every way the attempt can fail (see
/// [`LocalizeError`]).
///
/// The solver minimises the sum of squared cone residuals over the road
/// region with a coarse 61 × 61 grid followed by iterative local refinement
/// (up to 40 rounds of a 9 × 9 box, for the best cell and again for the
/// runner-up basin): about 10 000 two-cone residual evaluations per call.
/// Each residual is split by axis: a block of cells takes its x terms once
/// per column, its y terms once per row and its z terms once per solve, and
/// adds them in the whole-vector order, so a fix keeps every bit of the
/// unsplit solver while a cell costs four adds, a square root, a division
/// and a select per cone, two cells to a vector instruction. On a 2-core
/// x86-64 host the benchmark's traced `geom.two_reader_fix_us` reads
/// ≈ 67 µs per fix against ≈ 188 µs for the whole-vector residual: grid
/// ≈ 19 µs, each refinement ≈ 17, the runner-up scan ≈ 8.
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

    let pair = ConePair::new(
        SolverCone::new(reader_a, alpha_a),
        SolverCone::new(reader_b, alpha_b),
        region.z,
    );

    // Coarse grid: keep the whole cost field so a second basin (the
    // behind-array mirror solution) can be detected afterwards.
    let xs: [f64; GRID + 1] = std::array::from_fn(|i| {
        region.x_min + (region.x_max - region.x_min) * i as f64 / GRID as f64
    });
    let ys: [f64; GRID + 1] = std::array::from_fn(|j| {
        region.y_min + (region.y_max - region.y_min) * j as f64 / GRID as f64
    });
    let mut field = [[0.0f64; GRID + 1]; GRID + 1];
    pair.costs(&xs, &ys, &mut field);
    let mut best = (f64::INFINITY, 0.0, 0.0);
    take_min(&mut best, &xs, &ys, &field);

    // Local refinement: shrink a box around a seed point.
    let refine = |seed: (f64, f64, f64)| -> (f64, f64, f64) {
        let mut best = seed;
        let mut cx = best.1;
        let mut cy = best.2;
        let mut span_x = (region.x_max - region.x_min) / GRID as f64;
        let mut span_y = (region.y_max - region.y_min) / GRID as f64;
        let mut costs = [[0.0f64; STENCIL]; STENCIL];
        for _ in 0..40 {
            let offset = |k: usize| (k as i32 - 4) as f64;
            let xs: [f64; STENCIL] = std::array::from_fn(|i| {
                (cx + offset(i) * span_x / 4.0).clamp(region.x_min, region.x_max)
            });
            let ys: [f64; STENCIL] = std::array::from_fn(|j| {
                (cy + offset(j) * span_y / 4.0).clamp(region.y_min, region.y_max)
            });
            pair.costs(&xs, &ys, &mut costs);
            let improved = take_min(&mut best, &xs, &ys, &costs);
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
    let (cone_a, cone_b) = (&pair.a, &pair.b);
    let ok = cone_a.residual(p).abs() < RESIDUAL_TOL && cone_b.residual(p).abs() < RESIDUAL_TOL;
    if !(ok && region.contains(p)) {
        return Err(LocalizeError::NoIntersection);
    }

    // Behind-array ambiguity: look for a second basin — the best grid point
    // well separated from the accepted fix — and refine it. If it satisfies
    // both cone constraints too, the mirror solution is also on the road and
    // the fix cannot be trusted. The cheap comparison goes first: the
    // distance is needed only for a cell that would become the runner-up.
    let mut second = (f64::INFINITY, 0.0, 0.0);
    for (row, &x) in field.iter().zip(&xs) {
        for (&c, &y) in row.iter().zip(&ys) {
            if c < second.0 && (x - best.1).hypot(y - best.2) > AMBIGUITY_SEPARATION_M {
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

    /// Today's solver before its inner loops were split by axis, kept
    /// verbatim as the oracle the kernel must equal bit for bit (the way
    /// `caraoke_dsp::fft::dft` serves the FFT).
    mod reference {
        use super::super::{check_pose, LocalizeError, ReaderPose, RoadRegion};
        use super::super::{AMBIGUITY_SEPARATION_M, RESIDUAL_TOL};
        use crate::vec3::Vec3;

        /// One reader's cone constraint, its residual taken on whole vectors.
        struct SolverCone {
            apex: Vec3,
            unit: Vec3,
            cos_alpha: f64,
        }

        impl SolverCone {
            fn new(pose: &ReaderPose, alpha: f64) -> Self {
                Self {
                    apex: pose.position,
                    unit: pose.baseline.normalized(),
                    cos_alpha: alpha.cos(),
                }
            }

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

        /// The solver as it stood: a 61 × 61 grid, two 40-round 9 × 9 refinements
        /// and a runner-up scan, each cost a whole `Vec3` residual per cone.
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
                            let x =
                                (cx + i as f64 * span_x / 4.0).clamp(region.x_min, region.x_max);
                            let y =
                                (cy + j as f64 * span_y / 4.0).clamp(region.y_min, region.y_max);
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
            let ok =
                cone_a.residual(p).abs() < RESIDUAL_TOL && cone_b.residual(p).abs() < RESIDUAL_TOL;
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
                let ridge_between = cone_a.residual(mid).abs() > RESIDUAL_TOL
                    || cone_b.residual(mid).abs() > RESIDUAL_TOL;
                if mirror_ok && ridge_between {
                    return Err(LocalizeError::AmbiguousFix);
                }
            }

            Ok(p)
        }
    }
    /// SplitMix64 in `[0, 1)`: the crate has no dependencies, `rand`
    /// included.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// One seeded case of the bit-identity sweep: two poses, two AoAs and a
    /// region, drawn from one of twelve families that between them reach
    /// every branch of the solver and every typed error.
    fn sweep_case(
        i: usize,
        unit: &mut impl FnMut() -> f64,
    ) -> (ReaderPose, f64, ReaderPose, f64, RoadRegion) {
        use std::f64::consts::PI;
        let mut span = |lo: f64, hi: f64| lo + unit() * (hi - lo);
        let h = feet_to_meters(12.5);
        let tilt = 60.0_f64.to_radians();
        let street = |span: &mut dyn FnMut(f64, f64) -> f64| RoadRegion {
            x_min: span(-40.0, -5.0),
            x_max: span(20.0, 90.0),
            y_min: span(-6.0, -3.0),
            y_max: span(3.0, 6.0),
            z: 0.0,
        };
        match i % 12 {
            // A street: poles on both sides, a car on the road, AoAs with a
            // few degrees of noise — the fixes `PhyCity` asks for.
            0..=2 => {
                let region = street(&mut span);
                let pose = |x: f64, y: f64, tilted: bool| {
                    if tilted {
                        ReaderPose::tilted(x, y, h, tilt)
                    } else {
                        ReaderPose::road_parallel(x, y, h)
                    }
                };
                let tilted = i % 24 < 12;
                let a = pose(span(-10.0, 10.0), region.y_min - 1.5, tilted);
                let b = pose(span(15.0, 40.0), region.y_max + 1.5, tilted);
                let car = Vec3::new(
                    span(region.x_min, region.x_max),
                    span(region.y_min, region.y_max),
                    0.0,
                );
                let noise = span(-4.0, 4.0).to_radians();
                let alpha_a = (true_alpha(&a, car) + noise).clamp(0.0, PI);
                let alpha_b = (true_alpha(&b, car) - noise).clamp(0.0, PI);
                (a, alpha_a, b, alpha_b, region)
            }
            // Anything at all: poses, axes of any length, AoAs and regions.
            3..=4 => {
                let mut pose = || {
                    ReaderPose::new(
                        Vec3::new(span(-60.0, 60.0), span(-15.0, 15.0), span(-2.0, 8.0)),
                        Vec3::new(span(-3.0, 3.0), span(-3.0, 3.0), span(-3.0, 3.0)),
                    )
                };
                let (a, b) = (pose(), pose());
                let x_min = span(-80.0, 40.0);
                let y_min = span(-20.0, 5.0);
                let region = RoadRegion {
                    x_min,
                    x_max: x_min + span(0.5, 120.0),
                    y_min,
                    y_max: y_min + span(0.2, 25.0),
                    z: span(-1.0, 1.0),
                };
                (a, span(0.0, PI), b, span(0.0, PI), region)
            }
            // Both readers on the median: the mirror basin (`AmbiguousFix`),
            // and with a one-sided region sometimes not.
            5 => {
                let a = ReaderPose::road_parallel(0.0, 0.0, h);
                let b = ReaderPose::road_parallel(span(10.0, 30.0), 0.0, h);
                let car = Vec3::new(span(-5.0, 35.0), span(1.0, 4.5), 0.0);
                let mut region = centered(60.0 + span(0.0, 20.0), 10.0);
                if i % 24 == 5 {
                    region.y_min = span(-1.0, 1.0);
                }
                (a, true_alpha(&a, car), b, true_alpha(&b, car), region)
            }
            // A reader's apex on the road plane at a grid point of the
            // region (integral bounds 60 m apart put one there), so the
            // residual meets `|v| == 0`.
            6 => {
                let px = span(-20.0, 20.0).round();
                let py = span(-5.0, 5.0).round();
                let a = ReaderPose::new(
                    Vec3::new(px, py, 0.0),
                    Vec3::new(span(-1.0, 1.0), span(-1.0, 1.0), span(-1.0, 1.0)),
                );
                let b = ReaderPose::road_parallel(px + span(5.0, 30.0), py + 6.0, h);
                let region = RoadRegion {
                    x_min: px - 30.0,
                    x_max: px + 30.0,
                    y_min: py - 30.0,
                    y_max: py + 30.0,
                    z: 0.0,
                };
                let car = Vec3::new(px + span(-10.0, 10.0), py + span(-5.0, 5.0), 0.0);
                let alpha_a = if i % 24 == 6 {
                    span(0.0, PI)
                } else {
                    true_alpha(&a, car)
                };
                (a, alpha_a, b, true_alpha(&b, car), region)
            }
            // A car at or past the region's edge, or a region one cell thin
            // or of zero width: the refinement stencils clamp.
            7 => {
                let a = ReaderPose::road_parallel(0.0, -6.0, h);
                let b = ReaderPose::road_parallel(25.0, 6.0, h);
                let mut region = centered(span(10.0, 50.0), span(4.0, 10.0));
                match (i / 12) % 4 {
                    0 => region.x_max = region.x_min,
                    1 => region.y_min = region.y_max - 1e-3,
                    _ => {}
                }
                let edge_x = if span(0.0, 1.0) < 0.5 {
                    region.x_min
                } else {
                    region.x_max
                };
                let edge_y = if span(0.0, 1.0) < 0.5 {
                    region.y_min
                } else {
                    region.y_max
                };
                let car = Vec3::new(edge_x + span(-3.0, 3.0), edge_y + span(-1.0, 1.0), 0.0);
                (a, true_alpha(&a, car), b, true_alpha(&b, car), region)
            }
            // Coincident apexes: parallel axes (`CollinearReaders`), other
            // axes (solvable), or apexes a hair apart.
            8 => {
                let a = ReaderPose::tilted(span(-5.0, 5.0), -6.0, h, tilt);
                let baseline = match (i / 12) % 3 {
                    0 => a.baseline * span(-3.0, 3.0),
                    _ => Vec3::new(span(-1.0, 1.0), span(-1.0, 1.0), span(-1.0, 1.0)),
                };
                let offset = if (i / 12) % 3 == 2 { 1e-10 } else { 0.0 };
                let b = ReaderPose::new(a.position + Vec3::new(offset, 0.0, 0.0), baseline);
                let car = Vec3::new(span(-10.0, 30.0), span(-4.0, 4.0), 0.0);
                let region = centered(60.0, 9.0);
                (a, true_alpha(&a, car), b, span(0.0, PI), region)
            }
            // Collinear but distinct apexes: both poles on one line along the
            // road, axes along it too.
            9 => {
                let a = ReaderPose::road_parallel(0.0, -6.0, h);
                let b = ReaderPose::road_parallel(span(5.0, 40.0), -6.0, h);
                let car = Vec3::new(span(-10.0, 40.0), span(-4.5, 4.5), 0.0);
                let region = centered(80.0, 9.0);
                (a, true_alpha(&a, car), b, true_alpha(&b, car), region)
            }
            // A car well off the road: `NoIntersection`.
            10 => {
                let a = ReaderPose::road_parallel(0.0, -6.0, h);
                let b = ReaderPose::road_parallel(20.0, 6.0, h);
                let car = Vec3::new(span(60.0, 140.0), span(10.0, 40.0), 0.0);
                (
                    a,
                    true_alpha(&a, car),
                    b,
                    true_alpha(&b, car),
                    centered(40.0, 9.0),
                )
            }
            // Every input error, one kind per draw.
            _ => {
                let a = ReaderPose::road_parallel(0.0, -6.0, h);
                let b = ReaderPose::road_parallel(20.0, 6.0, h);
                let region = centered(40.0, 9.0);
                match (i / 12) % 6 {
                    0 => {
                        let bad = ReaderPose::new(Vec3::new(f64::NAN, -6.0, h), a.baseline);
                        (bad, 1.0, b, 1.2, region)
                    }
                    1 => (a, f64::INFINITY, b, 1.2, region),
                    2 => (a, 1.0, ReaderPose::new(b.position, Vec3::ZERO), 1.2, region),
                    3 => (a, -span(0.01, 1.0), b, PI + span(0.01, 1.0), region),
                    4 => {
                        let empty = RoadRegion {
                            x_min: 10.0,
                            x_max: -10.0,
                            ..region
                        };
                        (a, 1.0, b, 1.2, empty)
                    }
                    _ => {
                        let open = RoadRegion {
                            y_max: f64::NAN,
                            ..region
                        };
                        (a, 1.0, b, 1.2, open)
                    }
                }
            }
        }
    }

    #[test]
    fn the_solver_equals_its_reference_bit_for_bit() {
        let mut unit = unit_stream(0x0006_f1c5_u64);
        // Outcomes: Ok, then each error variant in declaration order.
        let mut seen = [0u32; 8];
        for i in 0..10_008 {
            let (a, alpha_a, b, alpha_b, region) = sweep_case(i, &mut unit);
            let got = try_localize_two_readers(&a, alpha_a, &b, alpha_b, &region);
            let want = reference::try_localize_two_readers(&a, alpha_a, &b, alpha_b, &region);
            let bits = |r: &Result<Vec3, LocalizeError>| {
                r.map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            };
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {i}: {a:?} {alpha_a} / {b:?} {alpha_b} over {region:?}"
            );
            seen[match want {
                Ok(_) => 0,
                Err(LocalizeError::NonFiniteInput) => 1,
                Err(LocalizeError::ZeroBaseline) => 2,
                Err(LocalizeError::InvalidAoa) => 3,
                Err(LocalizeError::CollinearReaders) => 4,
                Err(LocalizeError::EmptyRegion) => 5,
                Err(LocalizeError::AmbiguousFix) => 6,
                Err(LocalizeError::NoIntersection) => 7,
            }] += 1;
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "outcomes not all reached: {seen:?}"
        );
        // Most cases run the whole solve, not an early refusal.
        assert!(seen[0] + seen[6] + seen[7] > 8_000, "{seen:?}");
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
