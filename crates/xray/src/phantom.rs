//! Coronary vessel-tree phantom.
//!
//! Generates a static set of vessel branches per sequence (random-walk
//! polylines with decreasing caliber) that the renderer draws into every
//! frame after applying the motion model. The *amount* of vessel structure
//! in view is the main content driver of the RDG computation time.

use rand::Rng;

/// One vessel branch.
#[derive(Debug, Clone)]
pub struct Vessel {
    /// Polyline through the branch, sequence coordinates.
    pub path: Vec<(f64, f64)>,
    /// Line width (Gaussian sigma), pixels.
    pub sigma: f32,
    /// Nominal contrast depth (scaled by the per-frame contrast factor).
    pub depth: f32,
}

/// Parameters of the vessel-tree generator.
#[derive(Debug, Clone)]
pub struct PhantomConfig {
    /// Number of primary branches.
    pub branches: usize,
    /// Probability that a branch spawns a secondary branch at each step.
    pub fork_prob: f64,
    /// Primary branch width (sigma), pixels.
    pub sigma: f32,
    /// Nominal branch contrast depth.
    pub depth: f32,
}

impl Default for PhantomConfig {
    fn default() -> Self {
        Self {
            branches: 3,
            fork_prob: 0.02,
            sigma: 2.2,
            depth: 500.0,
        }
    }
}

/// Random-walk step length, pixels.
const STEP: f64 = 4.0;
/// Maximum direction change per step, radians.
const WIGGLE: f64 = 0.25;

/// Generates the vessel tree for a `width x height` scene.
pub fn generate_tree(
    width: usize,
    height: usize,
    cfg: &PhantomConfig,
    rng: &mut impl Rng,
) -> Vec<Vessel> {
    let mut vessels = Vec::new();
    let w = width as f64;
    let h = height as f64;
    for _ in 0..cfg.branches {
        // start on a random border, heading inward
        let (mut x, mut y, mut dir) = match rng.gen_range(0..4u8) {
            0 => (rng.gen_range(0.0..w), 0.0, rng.gen_range(0.3..2.8)),
            1 => (rng.gen_range(0.0..w), h, rng.gen_range(-2.8..-0.3)),
            2 => (0.0, rng.gen_range(0.0..h), rng.gen_range(-1.2..1.2)),
            _ => (w, rng.gen_range(0.0..h), rng.gen_range(1.9..4.3)),
        };
        let mut path = vec![(x, y)];
        let max_steps = ((w + h) / STEP) as usize;
        for _ in 0..max_steps {
            dir += rng.gen_range(-WIGGLE..WIGGLE);
            x += STEP * dir.cos();
            y += STEP * dir.sin();
            path.push((x, y));
            if x < -20.0 || y < -20.0 || x > w + 20.0 || y > h + 20.0 {
                break;
            }
            if rng.gen_bool(cfg.fork_prob) && path.len() > 3 {
                // secondary branch: thinner, shallower, shorter
                let mut bx = x;
                let mut by = y;
                let mut bdir = dir + rng.gen_range(-1.0..1.0f64).signum() * rng.gen_range(0.5..1.1);
                let mut bpath = vec![(bx, by)];
                for _ in 0..max_steps / 2 {
                    bdir += rng.gen_range(-WIGGLE..WIGGLE);
                    bx += STEP * bdir.cos();
                    by += STEP * bdir.sin();
                    bpath.push((bx, by));
                    if bx < -20.0 || by < -20.0 || bx > w + 20.0 || by > h + 20.0 {
                        break;
                    }
                }
                vessels.push(Vessel {
                    path: bpath,
                    sigma: cfg.sigma * 0.6,
                    depth: cfg.depth * 0.6,
                });
            }
        }
        vessels.push(Vessel {
            path,
            sigma: cfg.sigma,
            depth: cfg.depth,
        });
    }
    vessels
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Total polyline length of a vessel set.
    fn total_length(vessels: &[Vessel]) -> f64 {
        vessels
            .iter()
            .map(|v| {
                v.path
                    .windows(2)
                    .map(|w| ((w[1].0 - w[0].0).powi(2) + (w[1].1 - w[0].1).powi(2)).sqrt())
                    .sum::<f64>()
            })
            .sum()
    }

    #[test]
    fn generates_requested_primary_branches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let v = generate_tree(256, 256, &PhantomConfig::default(), &mut rng);
        assert!(v.len() >= 3, "got {} vessels", v.len());
    }

    #[test]
    fn branches_have_substance() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let v = generate_tree(256, 256, &PhantomConfig::default(), &mut rng);
        assert!(
            total_length(&v) > 200.0,
            "total length {}",
            total_length(&v)
        );
        for vessel in &v {
            assert!(vessel.path.len() >= 2);
            assert!(vessel.sigma > 0.0);
            assert!(vessel.depth > 0.0);
        }
    }

    #[test]
    fn more_branches_more_structure() {
        let mut rng1 = rand::rngs::StdRng::seed_from_u64(5);
        let mut rng2 = rand::rngs::StdRng::seed_from_u64(5);
        let sparse = generate_tree(
            256,
            256,
            &PhantomConfig {
                branches: 1,
                ..Default::default()
            },
            &mut rng1,
        );
        let dense = generate_tree(
            256,
            256,
            &PhantomConfig {
                branches: 8,
                ..Default::default()
            },
            &mut rng2,
        );
        assert!(total_length(&dense) > total_length(&sparse));
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            generate_tree(128, 128, &PhantomConfig::default(), &mut rng)
        };
        let a = mk(9);
        let b = mk(9);
        assert_eq!(a.len(), b.len());
        for (va, vb) in a.iter().zip(&b) {
            assert_eq!(va.path, vb.path);
        }
        let c = mk(10);
        // different seed should (overwhelmingly) differ
        assert!(a.len() != c.len() || a[0].path != c[0].path);
    }

    #[test]
    fn paths_start_on_border() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let v = generate_tree(
            200,
            200,
            &PhantomConfig {
                branches: 6,
                fork_prob: 0.0,
                ..Default::default()
            },
            &mut rng,
        );
        for vessel in &v {
            let (x, y) = vessel.path[0];
            let on_border = x.abs() < 1e-9
                || y.abs() < 1e-9
                || (x - 200.0).abs() < 1e-9
                || (y - 200.0).abs() < 1e-9;
            assert!(on_border, "start ({x},{y}) not on border");
        }
    }
}
