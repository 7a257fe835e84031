//! Closed-form queueing results used to validate the simulator.
//!
//! A discrete-event engine earns trust by reproducing what theory
//! already knows. This module provides the classic single-station
//! formulas (M/M/1, M/M/c via Erlang-C, M/D/1 via Pollaczek–Khinchine,
//! M/G/1) that the validation tests and examples compare against.

/// Exact mean response time of an M/M/1 queue.
///
/// # Panics
/// Panics unless `lambda < mu` (the queue must be stable).
pub fn mm1_mean_response(lambda: f64, mu: f64) -> f64 {
    assert!(lambda > 0.0 && mu > 0.0, "rates must be positive");
    assert!(lambda < mu, "M/M/1 unstable: lambda {lambda} >= mu {mu}");
    1.0 / (mu - lambda)
}

/// Erlang-C: the probability that an arriving customer must wait in an
/// M/M/c queue with offered load `a = lambda/mu` Erlangs.
///
/// # Panics
/// Panics unless the queue is stable (`a < c`).
pub fn erlang_c(a: f64, c: u32) -> f64 {
    assert!(c > 0, "need at least one server");
    assert!(a > 0.0, "offered load must be positive");
    let rho = a / f64::from(c);
    assert!(rho < 1.0, "M/M/c unstable: a {a} >= c {c}");
    // Iterative computation avoids factorial overflow.
    let mut sum = 0.0;
    let mut term = 1.0;
    for k in 0..c {
        if k > 0 {
            term *= a / f64::from(k);
        }
        sum += term;
    }
    let top = term * a / f64::from(c) / (1.0 - rho);
    top / (sum + top)
}

/// Exact mean waiting time (in queue) of an M/M/c queue.
pub fn mmc_mean_wait(lambda: f64, mu: f64, c: u32) -> f64 {
    let a = lambda / mu;
    erlang_c(a, c) / (f64::from(c) * mu - lambda)
}

/// Exact mean response time (wait + service) of an M/M/c queue.
///
/// ```
/// // M/M/2, rho = 0.5: response = 4/3 of the service time.
/// let r = desim::queueing::mmc_mean_response(1.0, 1.0, 2);
/// assert!((r - 4.0 / 3.0).abs() < 1e-12);
/// ```
pub fn mmc_mean_response(lambda: f64, mu: f64, c: u32) -> f64 {
    mmc_mean_wait(lambda, mu, c) + 1.0 / mu
}

/// Pollaczek–Khinchine: mean waiting time of an M/G/1 queue with mean
/// service `es` and squared coefficient of variation `cv2`.
///
/// # Panics
/// Panics unless `lambda * es < 1`.
pub fn mg1_mean_wait(lambda: f64, es: f64, cv2: f64) -> f64 {
    assert!(lambda > 0.0 && es > 0.0 && cv2 >= 0.0);
    let rho = lambda * es;
    assert!(rho < 1.0, "M/G/1 unstable: rho {rho}");
    rho * es * (1.0 + cv2) / (2.0 * (1.0 - rho))
}

/// Exact mean response time of an M/D/1 queue (M/G/1 with cv² = 0).
pub fn md1_mean_response(lambda: f64, service: f64) -> f64 {
    mg1_mean_wait(lambda, service, 0.0) + service
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mm1_textbook_value() {
        // rho = 0.5, mu = 1: response = 1/(1-0.5) = 2.
        assert!((mm1_mean_response(0.5, 1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "unstable")]
    fn mm1_unstable_panics() {
        mm1_mean_response(2.0, 1.0);
    }

    #[test]
    fn erlang_c_limits() {
        // c = 1: Erlang-C reduces to rho.
        for rho in [0.1, 0.5, 0.9] {
            assert!((erlang_c(rho, 1) - rho).abs() < 1e-12, "rho {rho}");
        }
        // Light load on many servers: essentially never wait.
        assert!(erlang_c(1.0, 32) < 1e-9);
        // Heavy load: waiting probability approaches 1 (exact value at
        // a = 31.5, c = 32 is 0.8975…).
        assert!((erlang_c(31.5, 32) - 0.8975387542108251).abs() < 1e-12);
        assert!(erlang_c(31.9, 32) > erlang_c(31.5, 32));
    }

    #[test]
    fn mmc_reduces_to_mm1() {
        let lambda = 0.7;
        let mu = 1.0;
        assert!((mmc_mean_response(lambda, mu, 1) - mm1_mean_response(lambda, mu)).abs() < 1e-12);
    }

    #[test]
    fn mmc_known_value() {
        // M/M/2 with lambda = 1, mu = 1 (rho = 0.5): Erlang-C = 1/3,
        // Wq = 1/3 / (2 - 1) = 1/3, response = 4/3.
        assert!((erlang_c(1.0, 2) - 1.0 / 3.0).abs() < 1e-12);
        assert!((mmc_mean_response(1.0, 1.0, 2) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn md1_wait_is_half_of_mm1() {
        let lambda = 0.6;
        let es = 1.0;
        let mm1_wait = mm1_mean_response(lambda, 1.0 / es) - es;
        let md1_wait = md1_mean_response(lambda, es) - es;
        assert!((md1_wait - 0.5 * mm1_wait).abs() < 1e-12);
    }

    #[test]
    fn mg1_interpolates() {
        // cv2 = 1 reproduces M/M/1's waiting time.
        let lambda = 0.5;
        let es = 1.0;
        let w = mg1_mean_wait(lambda, es, 1.0);
        assert!((w - (mm1_mean_response(lambda, 1.0) - 1.0)).abs() < 1e-12);
    }
}
