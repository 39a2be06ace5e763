//! The library reads no thread knob: a `WS_THREADS` the bench harness would
//! reject leaves every CLI path that solves RET untouched.

use std::process::Command;

#[test]
fn ret_paths_ignore_a_garbage_thread_knob() {
    // One 1200 GB job in three slices on one wavelength: overloaded, so
    // `simulate --policy extend` reaches RET too.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let one_job = dir.join("cli_threads_one_job.csv");
    std::fs::write(
        &one_job,
        "id,arrival,src,dst,size_gb,start,end\n0,0,0,1,1200,0,3\n",
    )
    .unwrap();
    let one_job = one_job.to_str().unwrap();

    for cmd in [&["ret"][..], &["simulate", "--policy", "extend"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_wavesched"))
            .args(cmd)
            .args(["--wavelengths", "1", "--trace", one_job])
            .env("WS_THREADS", "abc")
            .output()
            .expect("run wavesched");
        assert!(
            out.status.success(),
            "{cmd:?} under WS_THREADS=abc: {:?} {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
