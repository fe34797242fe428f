//! Build and host provenance stamped into run manifests and the
//! benchmark's results (`benchsuite/`), so every recorded number is
//! attributable to a source revision, build profile, and machine class.
//!
//! The git revision and cargo profile are baked in at compile time by
//! `build.rs`; the host fingerprint is sampled at run time from the
//! standard library only (no `uname` shell-outs).

use mirza_telemetry::Json;

/// The git revision the binary was built from (short hash, `-dirty`
/// suffix when the work tree had uncommitted changes, `"unknown"` outside
/// a git checkout).
pub fn git_rev() -> &'static str {
    env!("MIRZA_GIT_REV")
}

/// The cargo profile the binary was built with (`"release"`, `"debug"`).
pub fn cargo_profile() -> &'static str {
    env!("MIRZA_BUILD_PROFILE")
}

/// A coarse host fingerprint: OS, architecture, logical CPU count.
/// Deliberately free of hostnames or usernames — enough to tell two
/// machine classes apart, nothing identifying.
pub fn host_fingerprint() -> Json {
    let cpus = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let mut h = Json::obj();
    h.push("os", std::env::consts::OS)
        .push("arch", std::env::consts::ARCH)
        .push("cpus", cpus as u64);
    h
}

/// The full provenance object: `{git_rev, cargo_profile, host}`.
pub fn to_json() -> Json {
    let mut p = Json::obj();
    p.push("git_rev", git_rev())
        .push("cargo_profile", cargo_profile())
        .push("host", host_fingerprint());
    p
}

/// Provenance with the active `--jobs` value stamped into the host object
/// next to `cpus`, as run manifests record it.
pub fn to_json_with_jobs(jobs: usize) -> Json {
    let mut host = host_fingerprint();
    host.push("jobs", jobs as u64);
    let mut p = Json::obj();
    p.push("git_rev", git_rev())
        .push("cargo_profile", cargo_profile())
        .push("host", host);
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_fields_are_nonempty() {
        assert!(!git_rev().is_empty());
        assert!(!cargo_profile().is_empty());
        let p = to_json();
        assert!(p.get("git_rev").unwrap().as_str().is_some());
        let host = p.get("host").unwrap();
        assert!(host.get("os").unwrap().as_str().is_some());
        assert!(host.get("cpus").unwrap().as_u64().is_some());
    }

    #[test]
    fn git_rev_is_filename_safe() {
        assert!(git_rev()
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }
}
