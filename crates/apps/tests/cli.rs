//! The `vrdf` binary parses every subcommand from one flag table: `-h`
//! and `--help` print the usage line to stdout and exit 0, and an
//! unknown flag, a flag of another subcommand, a missing value or a
//! malformed value prints an `error:` line to stderr and exits 2.  A
//! missing or unknown subcommand exits 2 with every usage line.  A flag
//! value the run cannot use is an `error:` line too, never a panic.
//! `--metrics` adds a counter table on stderr that no thread count
//! changes, and `vrdf minimize`'s stdout is pinned line for line.

use std::process::Command;

const SUBCOMMANDS: [&str; 4] = ["minimize", "baseline", "faults", "fleet"];

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vrdf"))
        .args(args)
        .output()
        .expect("vrdf runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn help_prints_the_usage_to_stdout_and_exits_zero() {
    for name in SUBCOMMANDS {
        for flag in ["-h", "--help"] {
            let (code, stdout, stderr) = run(&[name, flag]);
            assert_eq!(code, Some(0), "{name} {flag}: {stderr}");
            assert!(
                stdout.starts_with(&format!("usage: vrdf {name} ")),
                "{name} {flag}: {stdout}"
            );
            assert!(stderr.is_empty(), "{name} {flag}: {stderr}");
        }
    }
    let graphs = format!("[--graph {}]", vrdf_apps::CASE_STUDY_NAMES.join("|"));
    for name in ["minimize", "baseline", "faults"] {
        let (_, stdout, _) = run(&[name, "-h"]);
        assert!(stdout.contains(&graphs), "{name}: {stdout}");
    }
    // Without a subcommand, help lists every subcommand's usage line.
    for flag in ["-h", "--help"] {
        let (code, stdout, stderr) = run(&[flag]);
        assert_eq!(code, Some(0), "{flag}: {stderr}");
        assert!(stderr.is_empty(), "{flag}: {stderr}");
        for name in SUBCOMMANDS {
            assert!(
                stdout.contains(&format!("usage: vrdf {name} ")),
                "{flag}: {stdout}"
            );
        }
    }
}

#[test]
fn an_unknown_flag_is_an_error_with_exit_code_two() {
    let mut cases: Vec<Vec<&str>> = SUBCOMMANDS
        .iter()
        .map(|&name| vec![name, "--no-such-flag"])
        .collect();
    // A flag that only another subcommand takes is unknown here.
    cases.push(vec!["fleet", "--graph", "mp3"]);
    cases.push(vec!["minimize", "--batch", "8"]);
    for args in cases {
        let (name, flag) = (args[0], args[1]);
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.contains(&format!("error: unknown argument `{flag}`")),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains(&format!("usage: vrdf {name} ")),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn a_missing_or_unknown_subcommand_prints_the_top_level_usage() {
    for args in [&[][..], &["no-such-subcommand"], &["--firings", "10"]] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        for name in SUBCOMMANDS {
            assert!(
                stderr.contains(&format!("usage: vrdf {name} ")),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn a_missing_or_malformed_value_is_an_error_with_exit_code_two() {
    for (args, error) in [
        (
            &["minimize", "--firings"][..],
            "error: --firings requires a value\n",
        ),
        (
            &["minimize", "--firings", "abc"],
            "error: --firings got a malformed value \"abc\"\n",
        ),
        (
            &["fleet", "--firings"],
            "error: --firings requires a value\n",
        ),
        (
            &["faults", "--firings", "abc"],
            "error: --firings got a malformed value \"abc\"\n",
        ),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert_eq!(stderr, error, "{args:?}");
    }
}

#[test]
fn a_value_the_run_cannot_use_is_an_error_not_a_panic() {
    const HUGE: &str = "18446744073709551615";
    let faults = |flag, value| ["faults", "--firings", "100", flag, value];
    for (args, code, message) in [
        // Usage errors: checked before anything prints or runs.
        (
            &faults("--stall-task", "nope")[..],
            2,
            "vBR, vMP3, vSRC, vDAC",
        ),
        (&faults("--headroom", HUGE), 2, "overflows d3"),
        (&["minimize", "--firings", "0"], 2, "--firings 0"),
        (&["faults", "--firings", "0"], 2, "--firings 0"),
        (&["fleet", "--firings", "0"], 2, "--firings 0"),
        // Values the library refuses once the run is under way.
        (&faults("--stall-ms", HUGE), 1, "tick clock"),
        (&["baseline", "--max-events", "1"], 1, "budget exhausted"),
        (&["fleet", "--batch", HUGE], 1, "corpus size"),
    ] {
        let (status, stdout, stderr) = run(args);
        assert_eq!(status, Some(code), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(stderr.matches("error: ").count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(code == 1 || stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn metrics_counters_are_identical_at_every_thread_count() {
    const ROWS: [&str; 7] = [
        "events popped",
        "firings started",
        "firings finished",
        "settling passes",
        "wheel pushes",
        "overflow pushes",
        "policy dispatches",
    ];
    let metrics = |threads: &str| {
        let line = format!("minimize --metrics --firings 2000 --threads {threads}");
        let args: Vec<&str> = line.split(' ').collect();
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("dirty sweeps"), "{args:?}: {stderr}");
        let rows = ROWS.map(|label| {
            let row = stderr.lines().find(|l| l.trim_start().starts_with(label));
            row.unwrap_or_else(|| panic!("{args:?}: no `{label}` row in {stderr}"))
                .to_owned()
        });
        (stdout, rows)
    };
    let sequential = metrics("1");
    assert_eq!(sequential.0, MINIMIZE_2000_STDOUT);
    assert_eq!(metrics("2"), sequential, "stdout or counters differ");
}

/// The stdout of `vrdf minimize --firings 2000`: the MP3 minima, probe
/// counts and battery health at a 2,000-firing horizon.
const MINIMIZE_2000_STDOUT: &str = "\
MP3 playback chain: Eq. (4) vs operational minima (2000 endpoint firings per scenario)
capacity minimization at offset 11416591/35280000: total 10160 -> 5554 (gap 4606, 27 probes)
  buffer          eq4    minimal    gap   floor  probes
  d1             6015       2176   3839    2048      13
  d2             3263       2496    767    1152      12
  d3              882        882      0     441       1
battery health: 0 occupancy breaches
fail-fast probes: 54 scenarios cancelled after an earlier scenario failed
";
