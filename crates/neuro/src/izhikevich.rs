//! Izhikevich point neuron.
//!
//! Two coupled ODEs reproduce a zoo of cortical firing patterns (regular
//! spiking, bursting, chattering) at trivial cost — used to give cultured
//! networks on the chip realistic temporal structure, in particular the
//! bursting typical of dissociated cultures.

use bsa_units::Seconds;

/// Izhikevich model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IzhikevichParams {
    /// Recovery time scale.
    pub a: f64,
    /// Recovery sensitivity.
    pub b: f64,
    /// Post-spike voltage reset in mV.
    pub c: f64,
    /// Post-spike recovery increment.
    pub d: f64,
}

impl IzhikevichParams {
    /// Regular-spiking cortical neuron.
    pub fn regular_spiking() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -65.0,
            d: 8.0,
        }
    }

    /// Intrinsically bursting neuron.
    pub fn intrinsically_bursting() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -55.0,
            d: 4.0,
        }
    }

    /// Chattering (fast-bursting) neuron.
    pub fn chattering() -> Self {
        Self {
            a: 0.02,
            b: 0.2,
            c: -50.0,
            d: 2.0,
        }
    }

    /// Fast-spiking interneuron.
    pub fn fast_spiking() -> Self {
        Self {
            a: 0.1,
            b: 0.2,
            c: -65.0,
            d: 2.0,
        }
    }
}

/// Izhikevich neuron state.
#[derive(Debug, Clone, PartialEq)]
pub struct Izhikevich {
    params: IzhikevichParams,
    v: f64,
    u: f64,
}

impl Izhikevich {
    /// Creates a neuron at rest.
    pub fn new(params: IzhikevichParams) -> Self {
        let v = -65.0;
        Self {
            params,
            v,
            u: params.b * v,
        }
    }

    /// Present membrane potential in mV.
    pub fn voltage_mv(&self) -> f64 {
        self.v
    }

    /// Advances by `dt` with dimensionless input drive `i` (typically
    /// 0–20). Returns `true` if the neuron spiked this step.
    pub fn step(&mut self, i: f64, dt: Seconds) -> bool {
        let dt_ms = dt.value() * 1e3;
        // Sub-stepping at ≤0.25 ms for numerical stability of the quadratic
        // upstroke.
        let substeps = (dt_ms / 0.25).ceil().max(1.0) as usize;
        let h = dt_ms / substeps as f64;
        let mut spiked = false;
        for _ in 0..substeps {
            let dv = 0.04 * self.v * self.v + 5.0 * self.v + 140.0 - self.u + i;
            let du = self.params.a * (self.params.b * self.v - self.u);
            self.v += h * dv;
            self.u += h * du;
            if self.v >= 30.0 {
                self.v = self.params.c;
                self.u += self.params.d;
                spiked = true;
            }
        }
        spiked
    }

    /// Runs for `duration` with constant drive, returning spike times.
    pub fn run(&mut self, i: f64, dt: Seconds, duration: Seconds) -> Vec<Seconds> {
        let steps = (duration.value() / dt.value()).round() as usize;
        let mut spikes = Vec::new();
        for k in 0..steps {
            if self.step(i, dt) {
                spikes.push(dt * k as f64);
            }
        }
        spikes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: Seconds = Seconds::new(0.5e-3);

    #[test]
    fn rests_without_input() {
        let mut n = Izhikevich::new(IzhikevichParams::regular_spiking());
        let spikes = n.run(0.0, DT, Seconds::new(1.0));
        assert!(spikes.is_empty());
        assert!((n.voltage_mv() + 65.0).abs() < 15.0);
    }

    #[test]
    fn regular_spiking_is_tonic() {
        let mut n = Izhikevich::new(IzhikevichParams::regular_spiking());
        let spikes = n.run(10.0, DT, Seconds::new(1.0));
        assert!(spikes.len() > 5, "{} spikes", spikes.len());
        // Inter-spike intervals of tonic firing are nearly uniform (after
        // the initial adaptation transient).
        let isis: Vec<f64> = spikes.windows(2).map(|w| (w[1] - w[0]).value()).collect();
        let tail = &isis[isis.len() / 2..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let max_dev = tail.iter().map(|x| (x - mean).abs()).fold(0.0, f64::max);
        assert!(max_dev / mean < 0.2, "ISI jitter {max_dev}/{mean}");
    }

    #[test]
    fn chattering_bursts() {
        let mut n = Izhikevich::new(IzhikevichParams::chattering());
        let spikes = n.run(10.0, DT, Seconds::new(1.0));
        assert!(spikes.len() > 10);
        // Burstiness: the ISI distribution is bimodal — the ratio of max to
        // min ISI is large.
        let isis: Vec<f64> = spikes.windows(2).map(|w| (w[1] - w[0]).value()).collect();
        let min = isis.iter().cloned().fold(f64::MAX, f64::min);
        let max = isis.iter().cloned().fold(0.0, f64::max);
        assert!(max / min > 3.0, "ISI ratio = {}", max / min);
    }

    #[test]
    fn fast_spiking_outpaces_regular() {
        let mut rs = Izhikevich::new(IzhikevichParams::regular_spiking());
        let mut fs = Izhikevich::new(IzhikevichParams::fast_spiking());
        let n_rs = rs.run(10.0, DT, Seconds::new(1.0)).len();
        let n_fs = fs.run(10.0, DT, Seconds::new(1.0)).len();
        assert!(n_fs > n_rs, "fs = {n_fs}, rs = {n_rs}");
    }

    #[test]
    fn stronger_drive_fires_faster() {
        let p = IzhikevichParams::regular_spiking();
        let n5 = Izhikevich::new(p).run(5.0, DT, Seconds::new(1.0)).len();
        let n15 = Izhikevich::new(p).run(15.0, DT, Seconds::new(1.0)).len();
        assert!(n15 > n5);
    }

    #[test]
    fn state_stays_finite_under_large_steps() {
        let mut n = Izhikevich::new(IzhikevichParams::chattering());
        for _ in 0..1000 {
            n.step(20.0, Seconds::from_milli(5.0));
            assert!(n.voltage_mv().is_finite());
        }
    }
}
