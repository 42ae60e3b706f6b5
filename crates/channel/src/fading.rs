//! Flat small-scale fading: Rician (LoS) and Rayleigh (NLoS) complex
//! gains, used to model spatial diversity across tag placements
//! (the paper's Fig. 12 averages 100 independent locations).

use crate::awgn::complex_gaussian;
use msc_dsp::Complex64;
use rand::Rng;

/// A flat-fading distribution with unit mean power.
#[derive(Clone, Copy, Debug)]
pub enum Fading {
    /// No fading: gain is exactly 1.
    None,
    /// Rician with K-factor (linear). K → ∞ approaches no fading.
    Rician {
        /// Ratio of LoS power to scattered power (linear).
        k: f64,
    },
    /// Rayleigh (no LoS component).
    Rayleigh,
}

impl Fading {
    /// Typical indoor LoS hallway fading.
    pub fn los() -> Self {
        Fading::Rician { k: 8.0 }
    }

    /// Typical indoor NLoS fading: one wall away there is still a
    /// dominant path (Rician with a low K-factor).
    pub fn nlos() -> Self {
        Fading::Rician { k: 2.0 }
    }

    /// Draws one complex channel gain with `E[|h|^2] = 1`.
    pub fn sample<R: Rng>(self, rng: &mut R) -> Complex64 {
        match self {
            Fading::None => Complex64::ONE,
            Fading::Rayleigh => complex_gaussian(rng, 1.0),
            Fading::Rician { k } => {
                let los = (k / (k + 1.0)).sqrt();
                let scatter = complex_gaussian(rng, 1.0 / (k + 1.0));
                Complex64::new(los, 0.0) + scatter
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_power(f: Fading, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| f.sample(&mut rng).norm_sqr()).sum::<f64>() / n as f64
    }

    #[test]
    fn unit_mean_power() {
        assert!((mean_power(Fading::Rayleigh, 100_000, 81) - 1.0).abs() < 0.02);
        assert!((mean_power(Fading::los(), 100_000, 82) - 1.0).abs() < 0.02);
        assert_eq!(mean_power(Fading::None, 10, 83), 1.0);
    }

    #[test]
    fn rician_varies_less_than_rayleigh() {
        let var = |f: Fading, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let v: Vec<f64> = (0..50_000).map(|_| f.sample(&mut rng).norm_sqr()).collect();
            msc_dsp::stats::variance(&v)
        };
        let rayleigh = var(Fading::Rayleigh, 84);
        let rician = var(Fading::Rician { k: 8.0 }, 85);
        assert!(rician < rayleigh / 2.0, "rician {rician} rayleigh {rayleigh}");
    }

    #[test]
    fn high_k_approaches_unity_gain() {
        let mut rng = StdRng::seed_from_u64(86);
        let h = Fading::Rician { k: 1e6 }.sample(&mut rng);
        assert!((h.abs() - 1.0).abs() < 0.01);
    }
}
