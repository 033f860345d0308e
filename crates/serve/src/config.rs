//! Service configuration, with hardened parsing: every knob that would
//! wedge the server at zero is rejected up front with a descriptive
//! error — no panics deep in the queue machinery, no silent defaults.

use logan_core::calibration::SERVE_BATCH_SETUP_S;
use logan_seq::ScoreProfile;

/// Tunables of one [`crate::Server`] (and of the simulated server in
/// [`crate::sim`] — both run the same coalescer and admission rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Cap on pairs per coalesced batch. A free lane drains up to this
    /// many queued pairs into one backend submission; a request larger
    /// than the cap is split across batches (its reply still arrives
    /// once, order-normalized).
    pub batch_pairs: usize,
    /// Bounded submission queue, in *requests* awaiting batching. The
    /// threaded server blocks submitters at the bound (backpressure);
    /// the open-loop simulator, whose arrivals cannot wait, records
    /// [`crate::SimOutcome::Shed`] instead.
    pub queue_depth: usize,
    /// Per-tenant admission quota, in in-flight pairs (queued plus
    /// being aligned). A request is admitted iff the tenant's in-flight
    /// pairs plus the request's pairs stay within the quota.
    pub quota_pairs: usize,
    /// Simulated host seconds charged per backend submission (driver
    /// call, launch setup) in the latency model — the constant that
    /// per-request submission pays once per *request* and coalescing
    /// pays once per *batch*. Only the simulator reads it; the threaded
    /// server's wall clock measures the real thing.
    pub batch_setup_s: f64,
    /// Optional per-request deadline in seconds from arrival. A request
    /// still *fully queued* (no pair dispatched yet) past this age is
    /// evicted at batch formation with an explicit
    /// [`crate::ServeError::DeadlineExceeded`] reply instead of
    /// occupying the queue; a request with pairs already in flight runs
    /// to a normal reply. `None` (the default) disables expiry. The
    /// threaded server ages requests on its wall clock; the simulator
    /// on the simulated clock.
    pub deadline_s: Option<f64>,
    /// Substitution model requests are aligned under — the DNA
    /// match/mismatch fast path by default, or a dense matrix
    /// (`matrix=blosum62` / `matrix=blosum62:-6`) for protein serving.
    /// The service builds or checks its backend against this profile;
    /// it must match the backend's
    /// [`logan_core::AlignBackend::profile_params`] when the backend
    /// reports one.
    pub profile: ScoreProfile,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch_pairs: 64,
            queue_depth: 256,
            quota_pairs: 4096,
            batch_setup_s: SERVE_BATCH_SETUP_S,
            deadline_s: None,
            profile: ScoreProfile::default(),
        }
    }
}

impl ServeConfig {
    /// Validate every knob, returning `self` or a descriptive error.
    /// Zero is rejected everywhere it would wedge the service: a
    /// zero-pair batch can never drain the queue, a zero-depth queue
    /// admits nothing, a zero quota rejects every request, and a
    /// negative setup charge would let coalescing win by fiat.
    pub(crate) fn validated(self) -> Result<ServeConfig, String> {
        if self.batch_pairs == 0 {
            return Err("serve config: batch_pairs must be at least 1 (a zero-pair batch can never drain the queue)".into());
        }
        if self.queue_depth == 0 {
            return Err(
                "serve config: queue_depth must be at least 1 (a zero-depth queue admits no work)"
                    .into(),
            );
        }
        if self.quota_pairs == 0 {
            return Err(
                "serve config: quota_pairs must be at least 1 (a zero quota rejects every request)"
                    .into(),
            );
        }
        if !self.batch_setup_s.is_finite() || self.batch_setup_s < 0.0 {
            return Err(format!(
                "serve config: batch_setup_s must be finite and non-negative, got {}",
                self.batch_setup_s
            ));
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(format!(
                    "serve config: deadline_s must be finite and positive, got {d} (omit the key to disable deadlines)"
                ));
            }
        }
        Ok(self)
    }
}

impl std::str::FromStr for ServeConfig {
    type Err = String;

    /// Parse a compact `key=value` list over the defaults, e.g.
    /// `batch=64,queue=256,quota=4096,deadline=0.5,matrix=blosum62`
    /// (keys: `batch`, `queue`, `quota`, `setup`, `deadline`, `matrix`;
    /// any subset, any order). The result is
    /// `ServeConfig::validated`, so `quota=0` and friends are parse
    /// errors, not latent panics.
    fn from_str(s: &str) -> Result<ServeConfig, String> {
        if s.trim().is_empty() {
            return Err("empty serve config (expected key=value[,key=value...], keys: batch, queue, quota, setup, deadline, matrix)".into());
        }
        let mut cfg = ServeConfig::default();
        for term in s.split(',') {
            let term = term.trim();
            let Some((key, value)) = term.split_once('=') else {
                return Err(format!("serve config term {term:?}: expected key=value"));
            };
            match key.trim() {
                "batch" => {
                    cfg.batch_pairs = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("serve config batch: {e}"))?
                }
                "queue" => {
                    cfg.queue_depth = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("serve config queue: {e}"))?
                }
                "quota" => {
                    cfg.quota_pairs = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("serve config quota: {e}"))?
                }
                "setup" => {
                    cfg.batch_setup_s = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("serve config setup: {e}"))?
                }
                "deadline" => {
                    cfg.deadline_s = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|e| format!("serve config deadline: {e}"))?,
                    )
                }
                "matrix" => {
                    cfg.profile = value
                        .trim()
                        .parse()
                        .map_err(|e| format!("serve config matrix: {e}"))?
                }
                other => {
                    return Err(format!(
                    "serve config: unknown key {other:?} (expected batch, queue, quota, setup, deadline or matrix)"
                ))
                }
            }
        }
        cfg.validated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(ServeConfig::default().validated().is_ok());
    }

    #[test]
    fn parses_partial_overrides_over_defaults() {
        let cfg: ServeConfig = "batch=8,quota=100".parse().unwrap();
        assert_eq!(cfg.batch_pairs, 8);
        assert_eq!(cfg.quota_pairs, 100);
        assert_eq!(cfg.queue_depth, ServeConfig::default().queue_depth);
        let cfg: ServeConfig = " queue=3 , setup=0.5 ".parse().unwrap();
        assert_eq!(cfg.queue_depth, 3);
        assert_eq!(cfg.batch_setup_s, 0.5);
        assert_eq!(cfg.deadline_s, None, "deadlines default off");
        let cfg: ServeConfig = "deadline=0.25".parse().unwrap();
        assert_eq!(cfg.deadline_s, Some(0.25));
    }

    #[test]
    fn parses_matrix_profiles() {
        let cfg: ServeConfig = "matrix=blosum62".parse().unwrap();
        assert_eq!(cfg.profile, ScoreProfile::blosum62(-6));
        let cfg: ServeConfig = "matrix=blosum62:-8,batch=16".parse().unwrap();
        assert_eq!(cfg.profile, ScoreProfile::blosum62(-8));
        assert_eq!(cfg.batch_pairs, 16);
        // NB: the `dna:M,MM,G` spelling cannot appear here — the serve
        // string splits terms on commas first. `dna` (the default
        // scheme) parses fine.
        let cfg: ServeConfig = "matrix=dna,queue=9".parse().unwrap();
        assert_eq!(cfg.profile, ScoreProfile::default());
        assert_eq!(cfg.queue_depth, 9);
        assert_eq!(
            ServeConfig::default().profile,
            ScoreProfile::default(),
            "matrix defaults to the DNA fast path"
        );
        let err = "matrix=pam250".parse::<ServeConfig>().unwrap_err();
        assert!(err.contains("serve config matrix"), "{err}");
    }

    /// The satellite rejection paths: every zero/degenerate knob fails
    /// with a message naming the knob, never a panic or silent default.
    #[test]
    fn rejects_each_degenerate_knob_with_a_descriptive_error() {
        let cases: &[(&str, &str)] = &[
            ("", "empty serve config"),
            ("batch=0", "batch_pairs must be at least 1"),
            ("queue=0", "queue_depth must be at least 1"),
            ("quota=0", "quota_pairs must be at least 1"),
            ("setup=-1", "batch_setup_s must be finite and non-negative"),
            ("setup=NaN", "batch_setup_s must be finite"),
            ("deadline=0", "deadline_s must be finite and positive"),
            ("deadline=NaN", "deadline_s must be finite"),
            ("deadline=soon", "serve config deadline"),
            ("batch", "expected key=value"),
            ("pairs=9", "unknown key"),
            ("batch=many", "serve config batch"),
        ];
        for (input, want) in cases {
            let err = input.parse::<ServeConfig>().unwrap_err();
            assert!(
                err.contains(want),
                "{input:?}: error {err:?} should mention {want:?}"
            );
        }
    }

    #[test]
    fn validated_rejects_programmatic_zeros_too() {
        for cfg in [
            ServeConfig {
                batch_pairs: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                quota_pairs: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                batch_setup_s: f64::INFINITY,
                ..ServeConfig::default()
            },
            ServeConfig {
                deadline_s: Some(-0.5),
                ..ServeConfig::default()
            },
        ] {
            assert!(cfg.validated().is_err(), "{cfg:?} must be rejected");
        }
    }
}
