//! Crate-level property tests for the queueing substrate.

use mflb_queue::mmpp::ArrivalProcess;
use mflb_queue::sampler::Sampler;
use mflb_queue::BirthDeathQueue;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Binomial sampling respects support and (over repeats) the mean.
    #[test]
    fn binomial_support_and_mean(n in 1u64..200_000, p in 0.0f64..1.0, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let reps = 40;
        for _ in 0..reps {
            let k = Sampler::binomial(&mut rng, n, p);
            prop_assert!(k <= n);
            sum += k as f64;
        }
        let mean = sum / reps as f64;
        let expect = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt().max(1.0);
        prop_assert!((mean - expect).abs() < 6.0 * sd / (reps as f64).sqrt() + 1e-9);
    }

    /// Poisson sampling is deterministic per seed and nonnegative.
    #[test]
    fn poisson_seed_determinism(mean in 0.0f64..5_000.0, seed in 0u64..500) {
        let a = Sampler::poisson(&mut StdRng::seed_from_u64(seed), mean);
        let b = Sampler::poisson(&mut StdRng::seed_from_u64(seed), mean);
        prop_assert_eq!(a, b);
    }

    /// The extended generator's drop prediction is consistent with mass
    /// conservation: E[accepted] = E[departures] + E[Δ level], and drops =
    /// arrivals − accepted ≥ 0.
    #[test]
    fn extended_generator_drop_bounds(
        lam in 0.0f64..3.0,
        alpha in 0.1f64..3.0,
        z in 0usize..6,
        dt in 0.1f64..12.0,
    ) {
        let q = BirthDeathQueue::new(lam, alpha, 5);
        let (dist, drops) = q.epoch_expectation(z, dt);
        let mass: f64 = dist.iter().sum();
        prop_assert!((mass - 1.0).abs() < 1e-9);
        prop_assert!(drops >= -1e-12);
        prop_assert!(drops <= lam * dt + 1e-9);
        // Expected level change is bounded by what can arrive/depart.
        let mean_end: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        prop_assert!((-1e-12..=5.0 + 1e-12).contains(&mean_end));
    }

    /// Empirical epoch simulation agrees with the expm prediction on the
    /// mean end state (loose 6σ band with few samples).
    #[test]
    fn gillespie_mean_matches_expm(
        lam in 0.0f64..2.0,
        z in 0usize..6,
        dt in 0.2f64..6.0,
        seed in 0u64..200,
    ) {
        let q = BirthDeathQueue::new(lam, 1.0, 5);
        let (dist, _) = q.epoch_expectation(z, dt);
        let expect: f64 = dist.iter().enumerate().map(|(k, p)| k as f64 * p).sum();
        let mut rng = StdRng::seed_from_u64(seed);
        let reps = 300;
        let mut sum = 0.0;
        for _ in 0..reps {
            sum += q.simulate_epoch(z, dt, &mut rng).final_state as f64;
        }
        let mean = sum / reps as f64;
        // Queue length sd ≤ ~2; 6σ/√reps band plus slack.
        prop_assert!((mean - expect).abs() < 6.0 * 2.0 / (reps as f64).sqrt() + 0.05,
            "mean {mean} vs expm {expect}");
    }

    /// Arrival-process trajectories only visit declared levels and respect
    /// kernel support.
    #[test]
    fn mmpp_trajectories_stay_in_support(seed in 0u64..300) {
        let p = ArrivalProcess::new(
            vec![1.0, 2.0, 3.0],
            vec![
                vec![0.5, 0.5, 0.0],
                vec![0.0, 0.5, 0.5],
                vec![0.5, 0.0, 0.5],
            ],
            vec![1.0, 0.0, 0.0],
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut level = p.sample_initial(&mut rng);
        prop_assert_eq!(level, 0);
        for _ in 0..50 {
            let next = p.step(level, &mut rng);
            // Kernel forbids certain jumps, e.g. 0 -> 2.
            prop_assert!(p.kernel_row(level)[next] > 0.0, "impossible jump {level} -> {next}");
            level = next;
        }
    }
}
