//! Traffic generators for the ingestion layer: deterministic streams of
//! [`SceneSubmission`]s that exercise a
//! [`BatchScheduler`](dda_core::BatchScheduler) the way a production
//! intake would — mixed priorities, deadlines, a configurable fraction of
//! poisoned scenes, at a fixed arrival rate (open loop).
//!
//! Everything is seeded: the same seed yields the same submission stream,
//! so soak results and benchmark reports are reproducible.

use crate::adversarial::nan_contaminated_scene;
use crate::rockfall::{rockfall_case, RockfallConfig};
use crate::scatter::{scatter_case, ScatterConfig};
use dda_core::pipeline::fleet::FleetSubmission;
use dda_core::{Priority, SceneSubmission};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Shape of the generated traffic: what each submitted scene looks like.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Falling rocks per scene (scene size).
    pub rocks: usize,
    /// Minimum requested steps per scene.
    pub run_steps_min: u64,
    /// Maximum requested steps per scene (inclusive).
    pub run_steps_max: u64,
    /// Per-mille of scenes carrying a NaN launch velocity (they fault on
    /// their first step and walk the quarantine/requeue path).
    pub nan_permille: usize,
    /// Per-mille of healthy scenes drawn from the scattered sparse field
    /// ([`scatter_case`]) instead of the rockfall case. Scatter scenes
    /// ship with the grid + cache broad phase enabled, so a non-zero mix
    /// soaks that path under scheduler churn.
    pub scatter_permille: usize,
    /// Per-mille of scenes submitted at [`Priority::High`].
    pub high_permille: usize,
    /// Per-mille of scenes submitted at [`Priority::Low`].
    pub low_permille: usize,
    /// Per-mille of scenes carrying an admission deadline.
    pub deadline_permille: usize,
    /// Deadline slack in ticks for deadline-carrying scenes
    /// (`deadline = now + slack`).
    pub deadline_slack: u64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            rocks: 2,
            run_steps_min: 2,
            run_steps_max: 5,
            nan_permille: 0,
            scatter_permille: 0,
            high_permille: 100,
            low_permille: 200,
            deadline_permille: 0,
            deadline_slack: 8,
        }
    }
}

impl TrafficConfig {
    /// Draws one submission. Healthy scenes perturb the base rockfall
    /// case (±20% release speed, ±4% rock size) so the stream samples
    /// distinct trajectories; poisoned scenes come from
    /// [`nan_contaminated_scene`].
    fn sample(&self, rng: &mut StdRng, now: u64) -> SceneSubmission {
        let poisoned = rng.gen_range(0..1000) < self.nan_permille;
        let (sys, params) = if poisoned {
            nan_contaminated_scene(self.rocks, rng.gen_range(0..self.rocks))
        } else if rng.gen_range(0..1000) < self.scatter_permille {
            let c = ScatterConfig {
                n_rocks: self.rocks,
                seed: rng.gen(),
                ..ScatterConfig::default()
            };
            scatter_case(&c)
        } else {
            let mut c = RockfallConfig::default().with_rocks(self.rocks);
            let u = (rng.gen_range(0..401) as f64 - 200.0) / 1000.0;
            c.initial_speed *= 1.0 + u;
            c.rock_size *= 1.0 + 0.2 * u;
            rockfall_case(&c)
        };
        let span = (self.run_steps_max - self.run_steps_min + 1) as usize;
        let run_steps = self.run_steps_min + rng.gen_range(0..span) as u64;
        let mut sub = SceneSubmission::new(sys, params, run_steps);
        let roll = rng.gen_range(0..1000);
        if roll < self.high_permille {
            sub = sub.with_priority(Priority::High);
        } else if roll < self.high_permille + self.low_permille {
            sub = sub.with_priority(Priority::Low);
        }
        if rng.gen_range(0..1000) < self.deadline_permille {
            sub = sub.with_deadline(now + self.deadline_slack);
        }
        sub
    }
}

/// Open-loop generator: submits at a fixed average rate regardless of how
/// the scheduler is coping — the tool for overload and shed-rate studies.
/// Fractional rates accumulate credit, so e.g. 0.5 scenes/tick arrives as
/// one scene every second tick.
#[derive(Debug)]
pub struct OpenLoopTraffic {
    cfg: TrafficConfig,
    rate_permille: usize,
    credit: usize,
    rng: StdRng,
    emitted: u64,
}

impl OpenLoopTraffic {
    /// A generator arriving at `rate` scenes per tick on average,
    /// deterministic in `seed`.
    pub fn new(rate: f64, cfg: TrafficConfig, seed: u64) -> OpenLoopTraffic {
        assert!(rate >= 0.0 && rate.is_finite(), "rate must be finite");
        OpenLoopTraffic {
            cfg,
            rate_permille: (rate * 1000.0).round() as usize,
            credit: 0,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    /// The submissions arriving this tick (`now` stamps deadlines).
    pub fn arrivals(&mut self, now: u64) -> Vec<SceneSubmission> {
        self.credit += self.rate_permille;
        let n = self.credit / 1000;
        self.credit %= 1000;
        let subs: Vec<SceneSubmission> = (0..n)
            .map(|_| self.cfg.sample(&mut self.rng, now))
            .collect();
        self.emitted += subs.len() as u64;
        subs
    }

    /// Total submissions generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

/// Shape of fleet-addressed churn traffic: open-loop arrivals plus
/// periodic bursts, every submission tagged with a locality key drawn
/// from a skewed population (a few hot kinematic families, a long tail
/// of cold ones) so the router's locality-aware placement has structure
/// to exploit.
#[derive(Debug, Clone)]
pub struct FleetChurnConfig {
    /// Per-scene shape (size, steps, priorities, poison mix).
    pub traffic: TrafficConfig,
    /// Number of distinct locality keys in the population.
    pub localities: u64,
    /// Baseline arrival rate in scenes per tick (open loop).
    pub rate: f64,
    /// Every this many ticks, a burst arrives on top of the baseline
    /// (0 disables bursts).
    pub burst_every: u64,
    /// Scenes per burst.
    pub burst_size: usize,
    /// Per-mille of submissions whose locality key is forced to key 0 on
    /// top of the baseline min-of-two-draws skew. 0 keeps the historical
    /// stream byte-for-byte (no extra RNG draws); crank it up to pile a
    /// hot kinematic family onto one device and give the router's
    /// load-feedback rebalancer something to undo.
    pub hot_key_permille: usize,
}

impl Default for FleetChurnConfig {
    fn default() -> Self {
        FleetChurnConfig {
            traffic: TrafficConfig::default(),
            localities: 8,
            rate: 1.0,
            burst_every: 16,
            burst_size: 4,
            hot_key_permille: 0,
        }
    }
}

/// Fleet-addressed churn generator: deterministic in its seed, it emits
/// [`FleetSubmission`]s for a [`FleetRouter`](dda_core::pipeline::fleet::FleetRouter)
/// the way [`OpenLoopTraffic`] feeds a single scheduler — but with
/// locality keys and arrival bursts, the access pattern multi-device
/// placement actually has to cope with.
#[derive(Debug)]
pub struct FleetChurnTraffic {
    cfg: FleetChurnConfig,
    rate_permille: usize,
    credit: usize,
    rng: StdRng,
    emitted: u64,
}

impl FleetChurnTraffic {
    /// A generator over `cfg`, deterministic in `seed`.
    pub fn new(cfg: FleetChurnConfig, seed: u64) -> FleetChurnTraffic {
        assert!(
            cfg.rate >= 0.0 && cfg.rate.is_finite(),
            "rate must be finite"
        );
        assert!(cfg.localities > 0, "need at least one locality key");
        let rate_permille = (cfg.rate * 1000.0).round() as usize;
        FleetChurnTraffic {
            cfg,
            rate_permille,
            credit: 0,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    /// Locality keys are the min of two uniform draws: key 0 is the
    /// hottest family and heat falls off linearly — enough skew that
    /// sticky placement matters, without a Zipf table. On top of that,
    /// `hot_key_permille` of submissions collapse onto key 0 outright
    /// (the draw happens only when the knob is non-zero, so the default
    /// stream is unchanged).
    fn locality(&mut self) -> u64 {
        if self.cfg.hot_key_permille > 0 && self.rng.gen_range(0..1000) < self.cfg.hot_key_permille
        {
            return 0;
        }
        let a = self.rng.gen_range(0..self.cfg.localities as usize);
        let b = self.rng.gen_range(0..self.cfg.localities as usize);
        a.min(b) as u64
    }

    /// The fleet submissions arriving this tick: the open-loop baseline
    /// plus, on burst ticks, the burst.
    pub fn arrivals(&mut self, now: u64) -> Vec<FleetSubmission> {
        self.credit += self.rate_permille;
        let mut n = self.credit / 1000;
        self.credit %= 1000;
        if self.cfg.burst_every > 0 && now > 0 && now.is_multiple_of(self.cfg.burst_every) {
            n += self.cfg.burst_size;
        }
        let subs: Vec<FleetSubmission> = (0..n)
            .map(|_| {
                let locality = self.locality();
                FleetSubmission {
                    submission: self.cfg.traffic.sample(&mut self.rng, now),
                    locality,
                }
            })
            .collect();
        self.emitted += subs.len() as u64;
        subs
    }

    /// Total submissions generated so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_rate_accounting() {
        let mut t = OpenLoopTraffic::new(0.5, TrafficConfig::default(), 7);
        let counts: Vec<usize> = (0..8).map(|now| t.arrivals(now).len()).collect();
        assert_eq!(counts.iter().sum::<usize>(), 4, "0.5/tick over 8 ticks");
        assert_eq!(t.emitted(), 4);
        let mut burst = OpenLoopTraffic::new(3.0, TrafficConfig::default(), 7);
        assert_eq!(burst.arrivals(0).len(), 3);
    }

    #[test]
    fn same_seed_reproduces_the_stream() {
        let cfg = TrafficConfig {
            nan_permille: 300,
            deadline_permille: 500,
            ..TrafficConfig::default()
        };
        let mut a = OpenLoopTraffic::new(2.0, cfg.clone(), 42);
        let mut b = OpenLoopTraffic::new(2.0, cfg, 42);
        for now in 0..6 {
            let (sa, sb) = (a.arrivals(now), b.arrivals(now));
            assert_eq!(sa.len(), sb.len());
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.run_steps, y.run_steps);
                assert_eq!(x.priority, y.priority);
                assert_eq!(x.deadline, y.deadline);
                for (bx, by) in x.sys.blocks.iter().zip(&y.sys.blocks) {
                    for dof in 0..6 {
                        assert_eq!(
                            bx.velocity[dof].to_bits(),
                            by.velocity[dof].to_bits(),
                            "streams diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fleet_churn_is_deterministic_and_bursty() {
        let cfg = FleetChurnConfig {
            rate: 0.5,
            burst_every: 4,
            burst_size: 3,
            localities: 4,
            ..FleetChurnConfig::default()
        };
        let mut a = FleetChurnTraffic::new(cfg.clone(), 11);
        let mut b = FleetChurnTraffic::new(cfg, 11);
        let mut burst_seen = false;
        for now in 0..12 {
            let (sa, sb) = (a.arrivals(now), b.arrivals(now));
            assert_eq!(sa.len(), sb.len());
            if now % 4 == 0 && now > 0 {
                assert!(sa.len() >= 3, "burst ticks carry the burst");
                burst_seen = true;
            }
            for (x, y) in sa.iter().zip(&sb) {
                assert_eq!(x.locality, y.locality, "locality stream diverged");
                assert!(x.locality < 4);
                assert_eq!(x.submission.run_steps, y.submission.run_steps);
            }
        }
        assert!(burst_seen);
        assert_eq!(a.emitted(), b.emitted());
    }

    #[test]
    fn hot_key_skew_piles_onto_key_zero() {
        let cfg = FleetChurnConfig {
            rate: 4.0,
            burst_every: 0,
            localities: 8,
            hot_key_permille: 900,
            ..FleetChurnConfig::default()
        };
        let mut t = FleetChurnTraffic::new(cfg, 5);
        let (mut hot, mut total) = (0usize, 0usize);
        for now in 0..16 {
            for sub in t.arrivals(now) {
                total += 1;
                if sub.locality == 0 {
                    hot += 1;
                }
            }
        }
        assert!(total >= 32);
        assert!(
            hot * 10 >= total * 8,
            "900 permille skew must land most scenes on key 0 ({hot}/{total})"
        );
    }

    #[test]
    fn scatter_mix_carries_grid_cached_params() {
        use dda_core::contact::BroadPhaseMode;
        let cfg = TrafficConfig {
            scatter_permille: 1000,
            ..TrafficConfig::default()
        };
        let mut t = OpenLoopTraffic::new(1.0, cfg, 9);
        for now in 0..4 {
            for sub in t.arrivals(now) {
                assert_eq!(
                    sub.params.broad_phase,
                    BroadPhaseMode::GridCached,
                    "scatter scenes must run the grid + cache broad phase"
                );
            }
        }
    }

    #[test]
    fn poison_fraction_is_respected() {
        let cfg = TrafficConfig {
            nan_permille: 1000,
            ..TrafficConfig::default()
        };
        let mut t = OpenLoopTraffic::new(1.0, cfg, 3);
        for now in 0..4 {
            for sub in t.arrivals(now) {
                let poisoned = sub
                    .sys
                    .blocks
                    .iter()
                    .any(|b| b.velocity.iter().any(|v| v.is_nan()));
                assert!(poisoned, "nan_permille=1000 must poison every scene");
            }
        }
    }
}
