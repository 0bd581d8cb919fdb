//! The `ff` command line, held to its exit-code rule over every row of
//! the command table: anything wrong with the command line exits 2,
//! names what was wrong, and runs nothing — no input exits 101.

use ff_bench::cli::{parse, Command, Exit, Flag, Kind};
use ff_bench::flags::{soak_config, COMMANDS};
use proptest::prelude::*;
use std::process::Command as Process;

struct Ran {
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

/// Run `ff` in an empty scratch directory, so "nothing ran" is
/// observable: no stdout, no report file left behind.
fn ff(args: &[&str]) -> Ran {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "ff-cli-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Process::new(env!("CARGO_BIN_EXE_ff"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn ff");
    let left_behind = std::fs::read_dir(&dir).expect("scratch dir").count();
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    assert_eq!(left_behind, 0, "ff {args:?} wrote files");
    Ran {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// `ff <args>` must exit 2 before running anything, saying `needle`.
fn assert_refused(args: &[&str], needle: &str) {
    let ran = ff(args);
    assert_eq!(ran.code, Some(2), "ff {args:?}: {}", ran.stderr);
    assert!(ran.stderr.contains(needle), "ff {args:?}: {}", ran.stderr);
    assert_eq!(ran.stdout, "", "ff {args:?} ran something");
}

fn with<'a>(cmd: &Command, rest: &[&'a str]) -> Vec<&'a str> {
    cmd.path
        .iter()
        .copied()
        .chain(rest.iter().copied())
        .collect()
}

/// Values just outside (and nowhere near) what `kind` accepts.
fn bad_values(kind: &Kind) -> Vec<String> {
    match kind {
        Kind::Switch | Kind::Text => vec![],
        Kind::Int(range) => {
            let mut bad = vec!["zzz".to_string(), "-1".into(), "1.5".into(), "".into()];
            bad.extend(range.start().checked_sub(1).map(|n| n.to_string()));
            bad.extend(range.end().checked_add(1).map(|n| n.to_string()));
            bad.push("18446744073709551616".into());
            bad
        }
        Kind::Real(range) => {
            let mut bad = vec!["zzz".to_string(), "nan".into(), "inf".into(), "-inf".into()];
            bad.push(format!("{}", range.start() - 1.0));
            bad.push(format!("{}", range.end() * 2.0 + 1.0));
            bad.push(format!("{}", range.start() - 1e-9));
            bad
        }
        Kind::Seed => vec![
            "zzz".into(),
            "-1".into(),
            "0x".into(),
            "18446744073709551616".into(),
            "0x10000000000000000".into(),
        ],
        Kind::Backend => vec!["zzz".into(), "".into()],
    }
}

#[test]
fn help_exits_2_and_lists_every_declared_flag() {
    for cmd in &COMMANDS {
        let ran = ff(&with(cmd, &["--help"]));
        assert_eq!(ran.code, Some(2), "{:?}", cmd.path);
        assert!(ran
            .stderr
            .contains(&format!("usage: ff {}", cmd.path.join(" "))));
        for flag in cmd.all_flags() {
            assert!(
                ran.stderr.contains(&format!("  {} ", flag.name)) && ran.stderr.contains(flag.help),
                "{:?} --help does not list {}: {}",
                cmd.path,
                flag.name,
                ran.stderr
            );
        }
    }
    // No command at all: the overview names every row of the table.
    let ran = ff(&[]);
    assert_eq!(ran.code, Some(2));
    for cmd in &COMMANDS {
        assert!(ran.stderr.contains(&cmd.path.join(" ")), "{}", ran.stderr);
    }
}

#[test]
fn every_bad_command_line_exits_2_naming_the_flag() {
    for cmd in &COMMANDS {
        assert_refused(
            &with(cmd, &["--no-such-flag"]),
            "unknown argument: --no-such-flag",
        );
        for flag in cmd.all_flags() {
            if matches!(flag.kind, Kind::Switch) {
                continue;
            }
            assert_refused(
                &with(cmd, &[flag.name]),
                &format!("{} requires a value", flag.name),
            );
            for bad in bad_values(&flag.kind) {
                assert_refused(&with(cmd, &[flag.name, &bad]), &format!("{}: ", flag.name));
            }
        }
    }
    assert_refused(&["nonesuch"], "unknown command: nonesuch");
    assert_refused(&["report", "e99"], "unknown experiment id: e99");
}

#[test]
fn the_six_reproduced_panics_are_usage_errors_now() {
    for cmd in ["soak", "net"] {
        assert_refused(
            &[cmd, "--read-pct", "150"],
            "--read-pct: expected an integer in 0..=100",
        );
        assert_refused(
            &[cmd, "--secs", "0"],
            "--secs: expected a number in 0.001..=1000000000",
        );
        assert_refused(
            &[cmd, "--secs", "-1"],
            "--secs: expected a number in 0.001..=1000000000",
        );
        assert_refused(
            &[cmd, "--secs", "nan"],
            "--secs: expected a number in 0.001..=1000000000",
        );
        assert_refused(
            &[cmd, "--secs", "1e300"],
            "--secs: expected a number in 0.001..=1000000000",
        );
        assert_refused(&[cmd, "--recover"], "--recover needs --data-dir");
        assert_refused(
            &[cmd, "--shards", "0"],
            "--shards: expected an integer in 1..=",
        );
    }
    assert_refused(
        &["soak", "--threads", "0"],
        "--threads: expected an integer in 1..=",
    );
    assert_refused(
        &["net", "--connections", "0"],
        "--connections: expected an integer in 1..=",
    );
    assert_refused(
        &["net", "--batch", "0"],
        "--batch: expected an integer in 1..=",
    );
    assert_refused(
        &["dst", "run", "--scenario", "typo", "--arm", "robust"],
        "unknown scenario \"typo\"",
    );
    assert_refused(
        &[
            "dst",
            "run",
            "--scenario",
            "kill-combiner",
            "--arm",
            "robust",
        ],
        "has arms [\"lease\", \"nolease\"]",
    );
    assert_refused(&["dst", "run", "--arm", "robust"], "--scenario is required");
    assert_refused(
        &["witness", "thm18", "2"],
        "n: expected an integer in 3..=8",
    );
    assert_refused(
        &["witness", "thm19", "0"],
        "f: expected an integer in 1..=64",
    );
    assert_refused(&["witness", "thm18", "3", "4"], "unexpected argument: 4");
}

#[test]
fn removed_flags_fail_loudly() {
    for (cmd, flag) in [
        ("soak", "--combining"),
        ("soak", "--ab"),
        ("soak", "--durability-ab"),
        ("net", "--combining"),
        ("net", "--replica-budget"),
        ("net", "--skip-naive"),
        ("net", "--drivers"),
        ("net", "--loops"),
    ] {
        assert_refused(&[cmd, flag, "4"], &format!("unknown argument: {flag}"));
    }
}

#[test]
fn a_golden_file_is_input_too() {
    let dir = std::env::temp_dir().join(format!("ff-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let golden = |name: &str, scenario: &str, seed: &str| {
        let path = dir.join(name);
        std::fs::write(
            &path,
            format!(
                "{{\"scenario\": \"{scenario}\", \"arm\": \"naive\", \"seed\": {seed}, \
                 \"violation\": \"flagged\", \"faults\": [], \"trace_hash\": \"0\"}}"
            ),
        )
        .unwrap();
        path.to_string_lossy().into_owned()
    };
    let replay = |path: &str, needle: &str| {
        assert_refused(&["dst", "replay", "--golden", path], needle);
    };
    replay(
        &golden("typo.json", "typo", "1"),
        "unknown scenario \"typo\"",
    );
    replay(
        &golden("neg.json", "partition-ramp", "-1"),
        "not a golden-trace file",
    );
    replay(
        &golden("frac.json", "partition-ramp", "0.5"),
        "not a golden-trace file",
    );
    replay(
        &golden("big.json", "partition-ramp", "1e19"),
        "not a golden-trace file",
    );
    replay(&dir.join("absent.json").to_string_lossy(), "cannot read");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_corpus_prints_what_is_committed() {
    // The simulator is a pure function of (scenario, arm, seed), so the
    // 13 report lines — events, decisions, completions, trace hashes,
    // violations — are an oracle for "DST behaviour unchanged" that
    // needs no parent binary.
    let ran = ff(&["dst", "corpus"]);
    assert_eq!(ran.code, Some(0), "{}", ran.stderr);
    assert_eq!(
        ran.stdout,
        include_str!("../../dst/golden/corpus.txt"),
        "`ff dst corpus` changed. If that is intended, regenerate with \
         `./target/release/ff dst corpus > crates/dst/golden/corpus.txt` \
         and explain the new hashes in CHANGES.md"
    );
}

#[test]
fn the_table_declares_each_flag_once_and_its_defaults_are_the_librarys() {
    let mut declared: Vec<*const Flag> = Vec::new();
    for cmd in &COMMANDS {
        let names: Vec<&str> = cmd.all_flags().map(|f| f.name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(names.len(), unique.len(), "{:?} repeats a flag", cmd.path);
        declared.extend(cmd.all_flags().map(|f| f as *const Flag));
        // Every declared default is a value its own flag accepts.
        parse(cmd, &[]).unwrap_or_else(|e| panic!("{:?}: bad default: {e:?}", cmd.path));
    }
    declared.sort_unstable();
    declared.dedup();
    assert_eq!(declared.len(), 27, "flag declarations (ISSUE 15: 43 → 27)");

    // `ff soak` with no flags is the library's default soak, and `ff dst`
    // simulates at the pinned corpus seed.
    let soak = &COMMANDS[0];
    assert_eq!(soak.path, ["soak"]);
    let config = soak_config(&parse(soak, &[]).unwrap()).unwrap();
    let library = ff_store::SoakConfig {
        threads: 1,
        ..ff_store::SoakConfig::default()
    };
    assert_eq!(format!("{config:?}"), format!("{library:?}"));
    let corpus = COMMANDS
        .iter()
        .find(|c| c.path == ["dst", "corpus"])
        .unwrap();
    let seed = corpus.all_flags().find(|f| f.name == "--seed").unwrap();
    assert_eq!(
        ff_workload::parse_seed(seed.default.unwrap()),
        Some(ff_dst::E19_SEED)
    );
}

/// Words a fuzzer would try: boundary numbers, almost-numbers, flags of
/// other commands, help, empty and non-ASCII text.
const JUNK: [&str; 30] = [
    "",
    "-",
    "--",
    "-h",
    "--help",
    "--no-such-flag",
    "0",
    "1",
    "-1",
    "-0",
    "100",
    "101",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "0x",
    "0xFFFFFFFFFFFFFFFF",
    "0x10000000000000000",
    "0.0",
    "1e-320",
    "1e9",
    "1e999",
    "nan",
    "inf",
    "-inf",
    "robust",
    "nope",
    "é∞",
    "all",
];

fn next(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    // The parser is total: argv built from declared names, junk and
    // boundary numbers parses or is refused as usage — it never panics,
    // and what it accepts, the shared store flags turn into a config or
    // refuse as usage without building anything.
    #[test]
    fn random_argv_never_panics_the_parser(seed in any::<u64>(), len in 0usize..10) {
        let mut s = seed;
        let cmd = &COMMANDS[next(&mut s) % COMMANDS.len()];
        let names: Vec<&str> = COMMANDS.iter().flat_map(|c| c.all_flags()).map(|f| f.name).collect();
        let own: Vec<&str> = cmd.all_flags().map(|f| f.name).collect();
        let mut argv: Vec<String> = Vec::new();
        for _ in 0..len {
            match next(&mut s) % 3 {
                0 => argv.push(names[next(&mut s) % names.len()].to_string()),
                // One of the command's own flags, then something for a value.
                1 if !own.is_empty() => {
                    argv.push(own[next(&mut s) % own.len()].to_string());
                    argv.push(JUNK[next(&mut s) % JUNK.len()].to_string());
                }
                _ => argv.push(JUNK[next(&mut s) % JUNK.len()].to_string()),
            }
        }
        match parse(cmd, &argv) {
            Ok(args) if cmd.path == ["soak"] || cmd.path == ["net"] => {
                prop_assert!(!matches!(soak_config(&args), Err(Exit::Failed(_))));
            }
            Ok(_) | Err(Exit::Usage(_)) => {}
            Err(Exit::Failed(message)) => prop_assert!(false, "parse ran something: {message}"),
        }
    }
}
