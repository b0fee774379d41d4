//! Host and build identity stamped on every result: the core count, the
//! CPU features that pick the dispatched kernel tier, and which source was
//! measured.

use darkside_core::trace::Json;
use std::path::Path;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU features the kernels dispatch on (`avx2` + `fma` for the f32
/// GEMM/SpMM tier, `avxvnni` for the int8 tier).
pub fn cpu_flags() -> Json {
    #[cfg(target_arch = "x86_64")]
    let flags = [
        ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ("fma", std::arch::is_x86_feature_detected!("fma")),
        ("avxvnni", std::arch::is_x86_feature_detected!("avxvnni")),
    ];
    #[cfg(not(target_arch = "x86_64"))]
    let flags = [("avx2", false), ("fma", false), ("avxvnni", false)];
    Json::obj(flags.iter().map(|&(k, v)| (k, Json::Bool(v))).collect())
}

/// The commit when the working directory is the root of a git work tree,
/// else "unknown" (git would otherwise answer for an enclosing repository).
pub fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a digest of every file under `crates/` (paths and contents, in
/// sorted order): identifies the measured source when there is no git
/// metadata to ask.
pub fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}
