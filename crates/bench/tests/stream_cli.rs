//! The `stream` replay binary's flags: a bad value exits 2 with one line on
//! stderr — never a panic, and never a silently truncated count.

use std::process::Command;

#[test]
fn bad_stream_flags_are_one_line_usage_errors() {
    // (arguments, what the message must name)
    let cases: [(&[&str], &str); 15] = [
        (&["--wavelengths", "0"], "--wavelengths"),
        (&["--wavelengths", "-3"], "--wavelengths"),
        (&["--wavelengths", "2.5"], "--wavelengths"),
        (&["--paths", "0"], "--paths"),
        (&["--rate", "0"], "--rate"),
        (&["--rate", "-1"], "--rate"),
        (&["--rate", "nan"], "--rate"),
        (&["--rate", "inf"], "--rate"),
        (&["--rate", "fast"], "--rate"),
        (&["--jobs", "2.5"], "--jobs"),
        (&["--jobs", "-1"], "--jobs"),
        (&["--tau", "0"], "--tau"),
        (&["--seed", "1e3"], "--seed"),
        (&["--jobs"], "--jobs needs a value"),
        (&["--wavelenghts", "2"], "unknown argument"),
    ];
    for (args, want) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_stream"))
            .args(args)
            .output()
            .expect("stream binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(want), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed results");
    }
}
