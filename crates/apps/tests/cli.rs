//! Every driver shares one argument path (`vrdf_apps::cli`): `-h` and
//! `--help` print the usage line to stdout and exit 0, and an unknown
//! flag prints an error plus the usage line to stderr and exits 2.

use std::process::Command;

const DRIVERS: [(&str, &str); 4] = [
    ("minimize", env!("CARGO_BIN_EXE_minimize")),
    ("baseline", env!("CARGO_BIN_EXE_baseline")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fleet", env!("CARGO_BIN_EXE_fleet")),
];

fn run(binary: &str, arg: &str) -> (Option<i32>, String, String) {
    let out = Command::new(binary).arg(arg).output().expect("driver runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_zero() {
    for (name, binary) in DRIVERS {
        for flag in ["-h", "--help"] {
            let (code, stdout, stderr) = run(binary, flag);
            assert_eq!(code, Some(0), "{name} {flag}: {stderr}");
            assert!(
                stdout.starts_with(&format!("usage: {name} ")),
                "{name} {flag}: {stdout}"
            );
            assert!(stderr.is_empty(), "{name} {flag}: {stderr}");
        }
    }
}

#[test]
fn an_unknown_flag_is_an_error_with_exit_code_two() {
    for (name, binary) in DRIVERS {
        let (code, stdout, stderr) = run(binary, "--no-such-flag");
        assert_eq!(code, Some(2), "{name}: {stderr}");
        assert!(stdout.is_empty(), "{name}: {stdout}");
        assert!(
            stderr.contains("error: unknown argument `--no-such-flag`"),
            "{name}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: {name} ")),
            "{name}: {stderr}"
        );
    }
}
