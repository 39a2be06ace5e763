//! CLI for `wavesched-lint`.
//!
//! ```text
//! cargo run -p wavesched-lint -- [--root <dir>] [--list-rules]
//! ```
//!
//! Exit codes: `0` no findings, `1` findings, `2` usage or I/O error. An
//! intentional exception carries an inline
//! `// lint: allow(<rule>, reason = "...")` where it stands.

use std::path::PathBuf;
use std::process::ExitCode;
use wavesched_lint::rules::{RULE_DESCRIPTIONS, RULE_NAMES};

fn usage() -> ! {
    eprintln!("usage: wavesched-lint [--root <dir>] [--list-rules]");
    std::process::exit(2)
}

fn parse_root() -> PathBuf {
    let mut root = wavesched_lint::workspace_root();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => root = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--list-rules" => {
                for (name, desc) in RULE_NAMES.iter().zip(RULE_DESCRIPTIONS) {
                    println!("{name:16} {desc}");
                }
                std::process::exit(0);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
    }
    root
}

fn main() -> ExitCode {
    let findings = match wavesched_lint::lint_workspace(&parse_root()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("wavesched-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        eprintln!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        eprintln!("    {}", f.snippet);
    }
    eprintln!("wavesched-lint: {} findings", findings.len());
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
