//! The flags that selected the uncombined store path and the reactor's
//! replica leases are gone, not ignored: each must hit the binaries'
//! `unknown argument` usage-and-exit-2 path before anything runs.

use std::process::Command;

fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("unknown argument: {}", args[0])),
        "{bin} {args:?}: {stderr}"
    );
}

#[test]
fn removed_flags_fail_loudly() {
    let soak = env!("CARGO_BIN_EXE_soak");
    assert_refused(soak, &["--combining"]);
    assert_refused(soak, &["--ab"]);
    let netbench = env!("CARGO_BIN_EXE_netbench");
    assert_refused(netbench, &["--combining"]);
    assert_refused(netbench, &["--replica-budget", "4"]);
}
