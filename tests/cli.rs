//! The `ultrawiki` binary rejects bad input up front: an unknown method or
//! profile, or a number that does not parse, exits 2 with the accepted
//! values before any world is generated or any model trained.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};
use ultra_bench::Method;

struct Run {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Runs the binary, killing it (and failing) if it is still running after
/// a minute — a bad value that slipped through would start real work.
fn ultrawiki(args: &[&str]) -> Run {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ultrawiki"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ultrawiki");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`ultrawiki {}` did not exit", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .expect("stdout")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    child
        .stderr
        .take()
        .expect("stderr")
        .read_to_string(&mut stderr)
        .expect("read stderr");
    Run {
        code: status.code(),
        stdout,
        stderr,
    }
}

/// Asserts `args` exits 2 naming `expected` on stderr, having done no work.
fn rejects(args: &[&str], expected: &str) {
    let run = ultrawiki(args);
    let cmd = args.join(" ");
    assert_eq!(
        run.code,
        Some(2),
        "`{cmd}` exit code; stderr: {}",
        run.stderr
    );
    assert!(
        run.stderr.contains(expected),
        "`{cmd}` should mention `{expected}`; stderr: {}",
        run.stderr
    );
    for work in ["generating world", "building engine", "training"] {
        assert!(
            !run.stderr.contains(work),
            "`{cmd}` started work before rejecting its input: {}",
            run.stderr
        );
    }
    assert!(run.stdout.is_empty(), "`{cmd}` printed: {}", run.stdout);
}

#[test]
fn unknown_profiles_are_rejected_with_the_accepted_names() {
    for cmd in ["stats", "eval", "expand", "serve"] {
        rejects(&[cmd, "--profile", "tyni"], "tiny|small|paper|huge");
    }
    rejects(
        &["build-index", "--out", "unused.usnp", "--profile", "tyni"],
        "tiny|small|paper|huge",
    );
}

#[test]
fn unknown_methods_are_rejected_with_every_registry_name() {
    for cmd in ["eval", "expand"] {
        let run = ultrawiki(&[cmd, "--profile", "tiny", "--method", "probexpn"]);
        assert_eq!(run.code, Some(2), "{}", run.stderr);
        for m in Method::ALL {
            assert!(
                run.stderr.contains(m.wire_name()),
                "`{cmd}` should list `{}`: {}",
                m.wire_name(),
                run.stderr
            );
        }
    }
    rejects(
        &[
            "serve",
            "--profile",
            "tiny",
            "--methods",
            "retexpan,probexpan",
        ],
        "expected retexpan,genexpan",
    );
    rejects(
        &["eval", "--profile", "tiny", "--ann", "hnsw"],
        "exhaustive|ivf",
    );
}

#[test]
fn numbers_that_do_not_parse_are_rejected() {
    let cases: [(&[&str], &str); 12] = [
        (&["stats", "--seed", "abc"], "--seed"),
        (&["stats", "--seed"], "--seed"),
        (&["stats", "--threads", "many"], "--threads"),
        (
            &["expand", "--profile", "tiny", "--query", "first"],
            "--query",
        ),
        (&["expand", "--profile", "tiny", "--top", "-1"], "--top"),
        (
            &["eval", "--profile", "tiny", "--ann", "ivf", "--nlist", "x"],
            "--nlist",
        ),
        (
            &["eval", "--profile", "tiny", "--ann", "ivf", "--nprobe", "x"],
            "--nprobe",
        ),
        (&["serve", "--profile", "tiny", "--port", "65536"], "--port"),
        (
            &["serve", "--profile", "tiny", "--workers", "four"],
            "--workers",
        ),
        (&["serve", "--profile", "tiny", "--queue", "1e3"], "--queue"),
        (
            &["serve", "--profile", "tiny", "--cache-cap", "lots"],
            "--cache-cap",
        ),
        (
            &["serve", "--snapshot", "unused.usnp", "--port", "http"],
            "--port",
        ),
    ];
    for (args, flag) in cases {
        rejects(args, flag);
    }
}

#[test]
fn help_lists_every_method_name() {
    let run = ultrawiki(&["help"]);
    assert_eq!(run.code, Some(0));
    for m in Method::ALL {
        assert!(run.stdout.contains(m.wire_name()), "{}", run.stdout);
    }
}

#[test]
fn a_known_method_runs_under_its_own_name() {
    // The oracle baseline trains nothing, so this stays fast.
    let run = ultrawiki(&[
        "expand",
        "--profile",
        "tiny",
        "--method",
        "gpt4",
        "--top",
        "3",
    ]);
    assert_eq!(run.code, Some(0), "{}", run.stderr);
    assert!(run.stdout.contains("gpt4 expansion:"), "{}", run.stdout);
    assert!(!run.stderr.contains("RetExpan"), "{}", run.stderr);
}
