//! Best-effort RAPL energy reading (`/sys/class/powercap`).
//!
//! The paper reads package energy through RAPL. On hosts that expose
//! `intel-rapl` powercap domains we do the same; everywhere else the
//! native backend simply reports no energy (the simulator backend has
//! its own accounting).

use std::fs;
use std::path::{Path, PathBuf};

/// A handle on every readable RAPL package domain.
#[derive(Debug, Clone)]
pub struct Rapl {
    domains: Vec<PathBuf>,
}

impl Rapl {
    /// Discover RAPL domains under the host's powercap root; `None`
    /// when the host exposes none that we can read. Callers degrade
    /// gracefully: a `None` here means energy reads `null` and the run
    /// continues (see [`crate::sweeps::measurements_json`]).
    pub fn discover() -> Option<Rapl> {
        Self::discover_at(Path::new("/sys/class/powercap"))
    }

    /// [`Rapl::discover`] against an arbitrary sysfs root (injectable
    /// for tests: point it at a fake tree).
    pub fn discover_at(base: &Path) -> Option<Rapl> {
        let mut domains = Vec::new();
        let entries = fs::read_dir(base).ok()?;
        for e in entries.flatten() {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            // Package-level domains are "intel-rapl:<n>"; subdomains
            // ("intel-rapl:<n>:<m>") would double-count.
            if name.starts_with("intel-rapl:") && name.matches(':').count() == 1 {
                let p = e.path().join("energy_uj");
                if fs::read_to_string(&p).is_ok() {
                    domains.push(p);
                }
            }
        }
        domains.sort();
        if domains.is_empty() {
            None
        } else {
            Some(Rapl { domains })
        }
    }

    /// Total energy counter across domains, microjoules.
    pub fn read_uj(&self) -> Option<u64> {
        let mut total = 0u64;
        for d in &self.domains {
            let s = fs::read_to_string(d).ok()?;
            total = total.checked_add(s.trim().parse().ok()?)?;
        }
        Some(total)
    }

    /// Number of readable domains.
    pub fn num_domains(&self) -> usize {
        self.domains.len()
    }
}

/// Energy in joules between two counter reads, handling a single
/// wraparound pessimistically by returning `None` (callers re-measure).
pub fn delta_j(before_uj: u64, after_uj: u64) -> Option<f64> {
    if after_uj >= before_uj {
        Some((after_uj - before_uj) as f64 * 1e-6)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discover_does_not_panic() {
        // Container hosts usually have no RAPL; both outcomes are fine.
        if let Some(r) = Rapl::discover() {
            assert!(r.num_domains() >= 1);
            // Reading twice must be monotone (or None).
            if let (Some(a), Some(b)) = (r.read_uj(), r.read_uj()) {
                assert!(b >= a);
            }
        }
    }

    #[test]
    fn delta_handles_wrap() {
        assert_eq!(delta_j(100, 1_000_100), Some(1.0000));
        assert_eq!(delta_j(200, 100), None);
        assert_eq!(delta_j(5, 5), Some(0.0));
    }

    fn fake_domain(root: &Path, name: &str, energy: Option<&str>) {
        let d = root.join(name);
        fs::create_dir_all(&d).unwrap();
        if let Some(e) = energy {
            fs::write(d.join("energy_uj"), e).unwrap();
        }
    }

    #[test]
    fn discover_at_reads_fake_powercap_tree() {
        let root = std::env::temp_dir().join(format!("rapl-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // Two package domains, one subdomain (must be excluded, it
        // would double-count), one unreadable package, assorted junk.
        fake_domain(&root, "intel-rapl:0", Some("123456"));
        fake_domain(&root, "intel-rapl:1", Some("1000"));
        fake_domain(&root, "intel-rapl:0:0", Some("999999"));
        fake_domain(&root, "intel-rapl:2", None);
        fake_domain(&root, "dtpm", Some("5"));
        let r = Rapl::discover_at(&root).expect("two readable package domains");
        assert_eq!(r.num_domains(), 2);
        assert_eq!(r.read_uj(), Some(124_456));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn discover_at_missing_or_empty_root_is_none() {
        let root = std::env::temp_dir().join(format!("rapl-none-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        // Missing root: the host has no powercap at all.
        assert!(Rapl::discover_at(&root).is_none());
        // Present but without rapl domains: same graceful None.
        fs::create_dir_all(root.join("dtpm")).unwrap();
        assert!(Rapl::discover_at(&root).is_none());
        fs::remove_dir_all(&root).unwrap();
    }
}
