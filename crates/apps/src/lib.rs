//! # texid-apps
//!
//! Carrier crate for the workspace-level runnable examples
//! (`examples/*.rs` at the repository root) and the cross-crate
//! integration tests (`tests/*.rs`). It re-exports nothing; see the
//! example sources for end-to-end usage of the public API.

#![forbid(unsafe_code)]
