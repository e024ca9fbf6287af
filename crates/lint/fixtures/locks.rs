//! Seeded acquisition-order cycles for `conc.lock-order` (semantic lint
//! fixture — lexed and parsed, never compiled).
//!
//! Each cycle is reported once, attributed to the provenance of the
//! canonical cycle's first edge (the rotation starting at the
//! lexicographically smallest node), so exactly one line per cycle
//! carries a marker.

pub struct Station {
    alpha: Mutex<u32>,
    beta: Mutex<u32>,
    gamma: Mutex<u32>,
    delta: Mutex<u32>,
    gate: Mutex<Vec<u32>>,
    mu: Mutex<u32>,
    nu: Mutex<u32>,
    frames_tx: Sender<u32>,
    frames_rx: Receiver<u32>,
}

impl Station {
    // -- cycle 1: two fns take the same two locks in opposite orders.
    // Canonical cycle [lock:alpha, lock:beta]; its first edge is the
    // later acquisition in `forward`, so the marker lands there.

    pub fn forward(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock(); //~ conc.lock-order
        drop((a, b));
    }

    pub fn backward(&self) {
        let b = self.beta.lock();
        let a = self.alpha.lock();
        drop((b, a));
    }

    // -- cycle 2: a lock held across a blocking send, and the receive
    // end taking the same lock. Both channel endpoints alias to
    // `chan:frames`; canonical cycle [chan:frames, lock:gate] puts the
    // marker on the lock acquisition in `consume`.

    pub fn publish(&self, v: u32) {
        let g = self.gate.lock();
        self.frames_tx.send(v);
        drop(g);
    }

    pub fn consume(&self) -> u32 {
        let v = self.frames_rx.recv();
        let g = self.gate.lock(); //~ conc.lock-order
        drop(g);
        v
    }

    // -- cycle 3: the opposite order arises only through calls — each
    // half acquires its second node inside a (uniquely named) callee.
    // Canonical cycle [lock:mu, lock:nu]; the first edge comes from the
    // call in `outer_mu_then_nu`.

    pub fn outer_mu_then_nu(&self) {
        let m = self.mu.lock();
        self.take_nu(); //~ conc.lock-order
        drop(m);
    }

    fn take_nu(&self) {
        let n = self.nu.lock();
        drop(n);
    }

    pub fn outer_nu_then_mu(&self) {
        let n = self.nu.lock();
        self.take_mu();
        drop(n);
    }

    fn take_mu(&self) {
        let m = self.mu.lock();
        drop(m);
    }

    // -- consistent order everywhere: no cycle, no report.

    pub fn ordered_one(&self) {
        let g = self.gamma.lock();
        let d = self.delta.lock();
        drop((g, d));
    }

    pub fn ordered_two(&self) {
        let g = self.gamma.lock();
        let d = self.delta.lock();
        drop((g, d));
    }
}

// ---------------------------------------------------------------------------
// Call resolution — the one rule every call-graph pass shares
// (DESIGN.md §9.2). Each pair below takes two locks in opposite orders,
// one of them through a call; a cycle is reported only where that call
// binds.
// ---------------------------------------------------------------------------

pub struct Hub {
    rho: Mutex<u32>,
    sigma: Mutex<u32>,
    tau: Mutex<u32>,
    upsilon: Mutex<u32>,
    phi: Mutex<u32>,
    chi: Mutex<u32>,
    psi: Mutex<u32>,
    omega: Mutex<u32>,
    kappa: Mutex<u32>,
    lambda: Mutex<u32>,
}

pub struct Relay;
pub struct Spare;

impl Hub {
    // -- `Type::name` binds exactly, although the bare `take_sigma` is
    // defined twice: cycle [lock:rho, lock:sigma].

    pub fn rho_then_sigma(&self) {
        let r = self.rho.lock();
        Relay::take_sigma(self); //~ conc.lock-order
        drop(r);
    }

    pub fn sigma_then_rho(&self) {
        let s = self.sigma.lock();
        let r = self.rho.lock();
        drop((s, r));
    }

    // -- `Self::name` binds to this impl's fn: cycle [lock:tau,
    // lock:upsilon].

    pub fn tau_then_upsilon(&self) {
        let t = self.tau.lock();
        Self::take_upsilon(self); //~ conc.lock-order
        drop(t);
    }

    fn take_upsilon(hub: &Hub) {
        let u = hub.upsilon.lock();
        drop(u);
    }

    pub fn upsilon_then_tau(&self) {
        let u = self.upsilon.lock();
        let t = self.tau.lock();
        drop((u, t));
    }

    // -- An ambiguous bare name binds nothing: no cycle.

    pub fn chi_then_phi(&self) {
        let c = self.chi.lock();
        take_phi(self);
        drop(c);
    }

    pub fn phi_then_chi(&self) {
        let p = self.phi.lock();
        let c = self.chi.lock();
        drop((p, c));
    }

    // -- Method syntax cannot call a free fn: no cycle.

    pub fn psi_then_omega(&self) {
        let p = self.psi.lock();
        self.take_omega();
        drop(p);
    }

    pub fn omega_then_psi(&self) {
        let o = self.omega.lock();
        let p = self.psi.lock();
        drop((o, p));
    }

    // -- A bare call cannot call a fn that takes `self`: no cycle.

    pub fn kappa_then_lambda(&self) {
        let k = self.kappa.lock();
        take_lambda(self);
        drop(k);
    }

    fn take_lambda(&self) {
        let l = self.lambda.lock();
        drop(l);
    }

    pub fn lambda_then_kappa(&self) {
        let l = self.lambda.lock();
        let k = self.kappa.lock();
        drop((l, k));
    }
}

impl Relay {
    fn take_sigma(hub: &Hub) {
        let s = hub.sigma.lock();
        drop(s);
    }
}

impl Spare {
    fn take_sigma(hub: &Hub) {
        drop(hub);
    }
}

mod left {
    fn take_phi(hub: &Hub) {
        let p = hub.phi.lock();
        drop(p);
    }
}

mod right {
    fn take_phi(hub: &Hub) {
        let p = hub.phi.lock();
        drop(p);
    }
}

fn take_omega(hub: &Hub) {
    let o = hub.omega.lock();
    drop(o);
}
