//! The `texid` binary's flag handling, run as a subprocess.

use std::process::Command;

/// A numeric flag that does not parse is an error naming the flag; it
/// never silently falls back to the flag's default.
#[test]
fn a_malformed_numeric_flag_is_an_error_not_its_default() {
    let dir = std::env::temp_dir().join(format!("texid-cli-test-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let out = Command::new(env!("CARGO_BIN_EXE_texid"))
        .args(["gen", "--count", "1x", "--size", "32", "--out"])
        .arg(&dir)
        .output()
        .expect("texid binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "`--count 1x` must fail; stderr: {stderr}");
    assert!(stderr.contains("--count"), "the error names the flag: {stderr}");
    assert!(!dir.exists(), "nothing is written when a flag is malformed");

    // The same command with a well-formed count writes exactly that many.
    let status = Command::new(env!("CARGO_BIN_EXE_texid"))
        .args(["gen", "--count", "1", "--size", "32", "--out"])
        .arg(&dir)
        .status()
        .expect("texid binary runs");
    assert!(status.success());
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    std::fs::remove_dir_all(&dir).ok();
}
