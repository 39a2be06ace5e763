//! Bad input at the CLI boundary exits non-zero with a one-line message —
//! never a panic with a backtrace. An option the command does not take
//! exits 2, so a misspelled knob cannot run at its default.

use std::process::Command;

#[test]
fn bad_input_is_a_one_line_error_not_a_panic() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let header = "id,arrival,src,dst,size_gb,start,end\n";
    let empty = dir.join("cli_errors_empty.csv");
    let one_job = dir.join("cli_errors_one_job.csv");
    std::fs::write(&empty, header).unwrap();
    std::fs::write(&one_job, format!("{header}0,0,0,1,10,0,4\n")).unwrap();
    let (empty, one_job) = (empty.to_str().unwrap(), one_job.to_str().unwrap());

    let cases: [(&[&str], &str); 13] = [
        (&["ret", "--trace", empty], "at least one job"),
        (&["ret", "--trace", empty, "--colgen"], "at least one job"),
        (
            &["schedule", "--trace", one_job, "--alpha", "1.5"],
            "--alpha",
        ),
        (
            &["schedule", "--trace", one_job, "--alpha", "NaN"],
            "--alpha",
        ),
        (
            &["simulate", "--trace", one_job, "--alpha", "-0.1"],
            "--alpha",
        ),
        (&["simulate", "--trace", one_job, "--paths", "0"], "--paths"),
        (
            &["gen-trace", "--jobs", "3", "--wavelengths", "0"],
            "--wavelengths",
        ),
        (&["simulate", "--trace", one_job, "--tau", "0"], "--tau"),
        (&["dot", "--network", "waxman:10:5:1"], "connectivity"),
        (&["dot", "--network", "waxman:1:0:1"], "two nodes"),
        (&["dot", "--network", "waxman:10:100:1"], "45 node pairs"),
        (
            &["schedule", "--trace", one_job, "--wavelenghts", "2"],
            "unknown option --wavelenghts",
        ),
        (
            &[
                "schedule",
                "--trace",
                one_job,
                "--colgen",
                "--pricer",
                "exhaustive",
            ],
            "unknown option --pricer",
        ),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_wavesched"))
            .args(args)
            .output()
            .expect("run wavesched");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        if want.starts_with("unknown option") {
            assert_eq!(out.status.code(), Some(2), "{args:?}");
        }
    }
}
