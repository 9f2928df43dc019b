//! End-to-end tests of the `semandaq` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_semandaq"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semandaq-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn generate_detect_repair_workflow() {
    let dir = tmpdir("workflow");
    // generate
    let out = bin()
        .args(["generate", "--rows", "300", "--noise", "0.05", "--seed", "5"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(dir.join("dirty.csv").exists());
    assert!(dir.join("cfds.txt").exists());

    // detect (native)
    let out = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violation(s)"), "got: {stdout}");

    // detect (sql engine) is byte-identical to native: one report order.
    let out_sql = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--engine", "sql"])
        .output()
        .unwrap();
    assert!(out_sql.status.success());
    assert_eq!(stdout, String::from_utf8_lossy(&out_sql.stdout));

    // detect (parallel engine, 4 shards) is byte-identical to native.
    let out_par = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--engine", "parallel", "--jobs", "4"])
        .output()
        .unwrap();
    assert!(out_par.status.success(), "{}", String::from_utf8_lossy(&out_par.stderr));
    assert_eq!(stdout, String::from_utf8_lossy(&out_par.stdout));

    // `--jobs` alone implies the parallel engine; report is unchanged.
    let out_jobs = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--jobs", "2"])
        .output()
        .unwrap();
    assert!(out_jobs.status.success());
    assert_eq!(stdout, String::from_utf8_lossy(&out_jobs.stdout));

    // incremental engine: byte-identical too.
    let out_inc = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--engine", "incremental"])
        .output()
        .unwrap();
    assert!(out_inc.status.success());
    assert_eq!(stdout, String::from_utf8_lossy(&out_inc.stdout));

    // repair
    let fixed = dir.join("fixed.csv");
    let out = bin()
        .args(["repair", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--out", fixed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("residual=0"));
    // The before-repair count names the engine `--jobs` implies.
    assert!(stdout.contains("[native engine]"), "{stdout}");

    // repair with 4 shards writes a byte-identical file.
    let fixed4 = dir.join("fixed4.csv");
    let out = bin()
        .args(["repair", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--jobs", "4", "--out", fixed4.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("[parallel engine]"));
    assert_eq!(std::fs::read(&fixed).unwrap(), std::fs::read(&fixed4).unwrap());

    // detect on the repaired file → zero violations.
    let out = bin()
        .args(["detect", "--data", fixed.to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("0 violation(s)"));

    // analyze
    let out = bin()
        .args(["analyze", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("satisfiable: yes"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn discover_emit_detect_loop() {
    let dir = tmpdir("discover");
    // A dirty scenario with known planted rules.
    let out = bin()
        .args(["generate", "--rows", "400", "--noise", "0.03", "--seed", "9"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Discover on the *clean* data; emit a suite in detect syntax.
    let rules = dir.join("rules.cfd");
    let out = bin()
        .args(["discover", "--data", dir.join("clean.csv").to_str().unwrap()])
        .args(["--table", "customer", "--emit", rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(stdout.contains("rule(s) mined"), "got: {stdout}");
    assert!(stdout.contains("satisfiable: yes"), "got: {stdout}");
    assert!(stdout.contains("search: levels="), "got: {stdout}");
    assert!(rules.exists());

    // The emitted suite re-parses: detect on the clean data reports
    // zero violations; on the dirty data it finds the planted noise.
    let out = bin()
        .args(["detect", "--data", dir.join("clean.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(
        String::from_utf8_lossy(&out.stdout).starts_with("0 violation(s)"),
        "discovered suite must hold on the data it was mined from"
    );
    let out = bin()
        .args(["detect", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", rules.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).starts_with("0 violation(s)"));

    // Approximate discovery on the *dirty* data (confidence < 1.0)
    // still surfaces rules; parallel output is byte-identical to
    // sequential at any --jobs.
    let seq = bin()
        .args(["discover", "--data", dir.join("dirty.csv").to_str().unwrap()])
        .args(["--table", "customer", "--min-confidence", "0.9"])
        .output()
        .unwrap();
    assert!(seq.status.success(), "{}", String::from_utf8_lossy(&seq.stderr));
    let seq_stdout = String::from_utf8_lossy(&seq.stdout).to_string();
    assert!(seq_stdout.contains("approximate rules"), "got: {seq_stdout}");
    for jobs in ["1", "4"] {
        let par = bin()
            .args(["discover", "--data", dir.join("dirty.csv").to_str().unwrap()])
            .args(["--table", "customer", "--min-confidence", "0.9", "--jobs", jobs])
            .output()
            .unwrap();
        assert!(par.status.success(), "{}", String::from_utf8_lossy(&par.stderr));
        assert_eq!(seq_stdout, String::from_utf8_lossy(&par.stdout), "--jobs {jobs}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edit_command_applies_manual_changes() {
    let dir = tmpdir("edit");
    std::fs::write(dir.join("data.csv"), "cc,zip,street\n44,EH8,Crichton\n44,EH8,Mayfield\n")
        .unwrap();
    std::fs::write(dir.join("cfds.txt"), "customer([cc='44', zip] -> [street])\n").unwrap();
    let out = bin()
        .args(["edit", "--data", dir.join("data.csv").to_str().unwrap()])
        .args(["--table", "customer", "--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--set", "t1:street=Crichton"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("violations: 1 -> 0"), "got: {stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_every_subcommand() {
    for invocation in [&["--help"][..], &["-h"], &["help"]] {
        let out = bin().args(invocation).output().unwrap();
        assert!(out.status.success(), "{invocation:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("usage"), "got: {stdout}");
        for cmd in ["generate", "detect", "repair", "analyze", "edit", "serve", "watch"] {
            assert!(stdout.contains(cmd), "--help misses `{cmd}`: {stdout}");
        }
    }
}

#[test]
fn multi_relation_detect_with_cinds() {
    let dir = tmpdir("catalog");
    std::fs::write(dir.join("cd.csv"), "album,price,genre\nDune,20,a-book\nFoundation,15,a-book\n")
        .unwrap();
    std::fs::write(dir.join("book.csv"), "title,price,format\nDune,20,audio\n").unwrap();
    std::fs::write(dir.join("cfds.txt"), "cd([genre] -> [price])\nbook([title] -> [format])\n")
        .unwrap();
    std::fs::write(
        dir.join("cinds.txt"),
        "cd(album, price; genre='a-book') <= book(title, price; format='audio')\n",
    )
    .unwrap();
    let cd_spec = format!("cd={}", dir.join("cd.csv").display());
    let book_spec = format!("book={}", dir.join("book.csv").display());
    let out = bin()
        .args(["detect", "--data", &cd_spec, "--data", &book_spec])
        .args(["--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--cinds", dir.join("cinds.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One CFD violation (the a-book genre group disagrees on price) and
    // one CIND violation (Foundation lacks an audio witness).
    assert!(stdout.contains("2 violation(s)"), "got: {stdout}");
    assert!(stdout.contains("[cd]"), "got: {stdout}");
    assert!(stdout.contains("no witness in book"), "got: {stdout}");

    // The parallel engine agrees on the catalog job.
    let out_par = bin()
        .args(["detect", "--data", &cd_spec, "--data", &book_spec])
        .args(["--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .args(["--cinds", dir.join("cinds.txt").to_str().unwrap()])
        .args(["--jobs", "2"])
        .output()
        .unwrap();
    assert!(out_par.status.success(), "{}", String::from_utf8_lossy(&out_par.stderr));
    let first_line = |s: &str| s.lines().next().unwrap_or_default().to_string();
    assert_eq!(first_line(&stdout), first_line(&String::from_utf8_lossy(&out_par.stdout)));

    // Multi-relation specs without name= fail with guidance.
    let out = bin()
        .args(["detect", "--data", dir.join("cd.csv").to_str().unwrap(), "--data", &book_spec])
        .args(["--cfds", dir.join("cfds.txt").to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("name=path"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    let out = bin().output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage"));
    assert!(stderr.contains("serve") && stderr.contains("watch"), "got: {stderr}");

    let out = bin().args(["frobnicate", "--x", "1"]).output().unwrap();
    assert!(!out.status.success());

    let out =
        bin().args(["detect", "--data", "/nonexistent.csv", "--cfds", "/nope"]).output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn discover_rejects_a_meaningless_min_confidence() {
    // The flag is checked before any data is read: a threshold outside
    // (0, 1] (or not a number) is a one-line flag error, not a mine.
    for bad in ["nan", "0", "-1", "1.5", "often"] {
        let out = bin()
            .args(["discover", "--data", "/nonexistent.csv", "--min-confidence", bad])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--min-confidence {bad} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--min-confidence must be a number in (0, 1]"), "got: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "got: {stderr}");
    }
}

#[test]
fn emit_refuses_a_relation_name_constraint_text_cannot_spell() {
    // `a#b([a] -> [b])` reads back as `a` and a comment: `detect` on the
    // emitted file would fail, so `--emit` refuses before writing.
    let dir = tmpdir("emit-relation");
    let (data, emit) = (dir.join("u.csv"), dir.join("e.cfds"));
    std::fs::write(&data, "a,b\n1,x\n2,y\n1,x\n").unwrap();
    for table in ["a#b", "a_b"] {
        let out = bin()
            .args(["discover", "--data", data.to_str().unwrap(), "--table", table])
            .args(["--min-support", "1", "--emit", emit.to_str().unwrap()])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        if table == "a_b" {
            assert!(out.status.success(), "got: {stderr}");
            assert!(std::fs::read_to_string(&emit).unwrap().contains("a_b([a] -> [b])"));
        } else {
            assert_eq!(out.status.code(), Some(1), "got: {stderr}");
            assert!(stderr.contains("--emit: io error: relation `a#b`"), "got: {stderr}");
            assert!(!emit.exists(), "nothing written");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_csv_header_is_a_csv_error_not_a_panic() {
    let dir = tmpdir("dup-header");
    let data = dir.join("d.csv");
    let cfds = dir.join("empty.cfds");
    std::fs::write(&data, "a,a\n1,2\n").unwrap();
    std::fs::write(&cfds, "").unwrap();
    let out = bin()
        .args(["detect", "--data", data.to_str().unwrap(), "--table", "t"])
        .args(["--cfds", cfds.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("csv error at line 1"), "got: {stderr}");
    assert!(stderr.contains("duplicate column `a`"), "got: {stderr}");
    assert!(!stderr.contains("panicked"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn match_is_an_unknown_command() {
    let out = bin().args(["match", "--left", "a", "--right", "b"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "got: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("semandaq: unknown command `match`"), "got: {stderr}");
}

/// A misspelt command names the nearest one (at most two edits away,
/// like a misspelt flag); `query`, which ran SQL over a CSV, is gone.
#[test]
fn an_unknown_command_names_the_nearest() {
    let out = bin().args(["detetc", "--data", "x.csv"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let want = "semandaq: unknown command `detetc` (did you mean `detect`?)\n";
    assert!(stderr.starts_with(want), "got: {stderr}");
    let out =
        bin().args(["query", "--data", "x.csv", "--sql", "SELECT a FROM r"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("semandaq: unknown command `query`\n"), "got: {stderr}");
}

/// A failed run whose stderr is closed (`semandaq detetc 2>&1 | head -n
/// 1` exiting first) still exits 1: its message is lost, not turned
/// into a panic. The reader is gone before the child starts, so every
/// write to stderr fails.
#[test]
fn a_closed_stderr_keeps_the_failure_status() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let status =
        bin().arg("detetc").stdout(std::process::Stdio::null()).stderr(writer).status().unwrap();
    assert_eq!(status.code(), Some(1));
}

/// A reader that stops early (`semandaq … | head`) ends the run with
/// status 0 and nothing on stderr, whether the pipe closes before the
/// first write or while the child is blocked on a full pipe buffer.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;
    let dir = tmpdir("pipe");
    let out = bin()
        .args(["generate", "--scenario", "hospital", "--rows", "20000", "--seed", "7"])
        .args(["--out", dir.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let data = dir.join("dirty.csv");
    let quiet = |mut child: std::process::Child, lines: usize| {
        let mut reader = std::io::BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        for _ in 0..lines {
            reader.read_line(&mut line).unwrap();
        }
        drop(reader);
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.is_empty(), "read {lines} line(s), got: {stderr}");
        assert!(out.status.success(), "read {lines} line(s): {:?}", out.status);
    };
    let spawn = |args: &[&str]| {
        bin()
            .args(args)
            .args(["--data", data.to_str().unwrap(), "--table", "hospital"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap()
    };
    // Discovery mines for a while before its first write: the pipe is
    // gone by then.
    quiet(spawn(&["discover", "--explain"]), 0);
    // A profile with one row per CFD of a 1 000-CFD suite (one per data
    // row) overflows the pipe buffer: the child is still writing when
    // the reader leaves after one line.
    let csv = std::fs::read_to_string(&data).unwrap();
    let suite: String = csv
        .lines()
        .skip(1)
        .take(1_000)
        .map(|line| {
            let cells: Vec<&str> = line.split(',').collect();
            format!("hospital([provider='{}'] -> [hname='{}'])\n", cells[0], cells[1])
        })
        .collect();
    let cfds = dir.join("rows.cfd");
    std::fs::write(&cfds, suite).unwrap();
    let explain = ["detect", "--cfds", cfds.to_str().unwrap(), "--explain"];
    let whole = spawn(&explain).wait_with_output().unwrap();
    assert!(whole.stdout.len() >= 65_536, "{} byte(s) fit a pipe buffer", whole.stdout.len());
    quiet(spawn(&explain), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_misspelt_flag_exits_1_naming_the_nearest() {
    let dir = tmpdir("typo");
    let data = dir.join("data.csv");
    std::fs::write(&data, "cc,zip,street\n44,EH8,Crichton\n44,EH8,Crichton\n01,07974,Mtn\n")
        .unwrap();
    // Read as `--min-confidence`, this would mine and exit 0; misspelt,
    // it must not run at the default confidence instead.
    let out = bin()
        .args(["discover", "--data", data.to_str().unwrap(), "--min-confidnce", "0.9"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(out.stdout.is_empty(), "nothing mined: {}", String::from_utf8_lossy(&out.stdout));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--min-confidnce"), "got: {stderr}");
    assert!(stderr.contains("did you mean --min-confidence?"), "got: {stderr}");
    // A flag of another command is unknown here too; with nothing
    // within two edits, the error lists what the command takes.
    let out = bin().args(["repair", "--engine", "sql"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`repair` has no flag --engine"), "got: {stderr}");
    assert!(stderr.contains("--data, --cfds"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_transposed_flag_names_the_nearest() {
    // A transposition is one edit, as in the repairer's string distance:
    // `--mni-suppotr` is two edits from `--min-support` (four without
    // transpositions).
    for (cmd, typo, flag) in
        [("repair", "jbos", "jobs"), ("discover", "mni-suppotr", "min-support")]
    {
        let out = bin().args([cmd, &format!("--{typo}"), "2"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1));
        let stderr = String::from_utf8_lossy(&out.stderr);
        let hint = format!("`{cmd}` has no flag --{typo} (did you mean --{flag}?)");
        assert!(stderr.contains(&hint), "got: {stderr}");
    }
}

#[test]
fn detect_listings_agree_across_engine_spellings() {
    let dir = tmpdir("engines");
    let data = dir.join("data.csv");
    let cfds = dir.join("cfds.txt");
    std::fs::write(
        &data,
        "cc,ac,phn,street,city,zip\n\
         44,131,1,Crichton,edi,EH8\n\
         44,131,2,Mayfield,edi,EH8\n\
         44,131,3,Crichton,edi,EH8\n\
         01,908,4,Mtn,nyc,07974\n\
         01,908,5,Mtn,mh,07974\n\
         01,212,6,Broadway,nyc,10001\n\
         01,212,7,Broadway,man,10001\n\
         44,141,8,High,gla,G1\n\
         44,141,9,Low,gla,G1\n",
    )
    .unwrap();
    std::fs::write(
        &cfds,
        "customer([cc='44', zip] -> [street])\n\
         customer([cc='01', ac='908'] -> [city='mh'])\n\
         customer([cc, ac] -> [city])\n\
         customer([zip] -> [city])\n",
    )
    .unwrap();
    let detect = |extra: &[&str]| {
        let out = bin()
            .args(["detect", "--data", data.to_str().unwrap()])
            .args(["--cfds", cfds.to_str().unwrap()])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let native = detect(&[]);
    assert!(native.starts_with("7 violation(s)"), "got: {native}");
    assert_eq!(native, detect(&["--engine", "native"]));
    assert_eq!(native, detect(&["--engine", "incremental"]));
    assert_eq!(native, detect(&["--engine", "parallel"]));
    assert_eq!(native, detect(&["--jobs", "4"]));
    // The SQL oracle lists per tableau row query: the same lines, in
    // its own order (all 7 are listed, so the line sets compare).
    let sorted = |s: &str| {
        let mut lines: Vec<&str> = s.lines().collect();
        lines.sort_unstable();
        lines.join("\n")
    };
    assert_eq!(sorted(&native), sorted(&detect(&["--engine", "sql"])));
    let out = bin()
        .args(["detect", "--data", data.to_str().unwrap(), "--cfds", cfds.to_str().unwrap()])
        .args(["--engine", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&out.stderr),
        "semandaq: io error: unknown engine `bogus` (native|sql|incremental|parallel)\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// FNV-1a, 64-bit: a digest of a file's bytes.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-64 of the `.sdq` that `snapshot save` writes for `generate
/// --scenario customer --rows 20000 --seed 7`'s `dirty.csv`. The
/// snapshot stores the pool in symbol order, so this pins CSV ingest's
/// first-seen interning order through the CLI as well as the format.
const CUSTOMER_20000_SDQ_FNV64: u64 = 0x7737_37ac_b0e2_8b09;

/// A customer CSV saved as `.sdq` and loaded back: the file starts with
/// the current magic, `SDQSNAP2`, and is byte-for-byte the recorded
/// one; `detect` over it prints what `detect` over the CSV prints, at
/// `--jobs 1` and `4`; and a copy whose first 8 bytes are rewritten to
/// the retired `SDQSNAP1` exits 1 with the typed snapshot error at byte
/// 0 that names that format — never opening as a table.
#[test]
fn a_snapshot_saves_loads_detects_like_its_csv_and_refuses_v1() {
    let dir = tmpdir("snapshot");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    run(&[
        "generate",
        "--scenario",
        "customer",
        "--rows",
        "20000",
        "--seed",
        "7",
        "--out",
        &path(""),
    ]);
    run(&["snapshot", "save", "--data", &path("dirty.csv"), "--out", &path("dirty.sdq")]);
    run(&["snapshot", "load", "--data", &path("dirty.sdq")]);
    let sdq = std::fs::read(path("dirty.sdq")).unwrap();
    assert_eq!(&sdq[..8], b"SDQSNAP2");
    assert_eq!(fnv64(&sdq), CUSTOMER_20000_SDQ_FNV64, "{:#x}", fnv64(&sdq));
    for jobs in ["1", "4"] {
        let detect = |data: &str| {
            run(&["detect", "--data", data, "--cfds", &path("cfds.txt"), "--jobs", jobs])
        };
        assert_eq!(detect(&path("dirty.csv")), detect(&path("dirty.sdq")), "--jobs {jobs}");
    }
    let mut v1 = sdq;
    v1[..8].copy_from_slice(b"SDQSNAP1");
    std::fs::write(path("v1.sdq"), v1).unwrap();
    let out = bin().args(["snapshot", "load", "--data", &path("v1.sdq")]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot error at byte 0: "), "got: {stderr}");
    assert!(stderr.contains("SDQSNAP1"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Without `--table`, a suite that names exactly one relation names the
/// table: `repair` over the hospital scenario's own files needs no flag
/// (it exited 1 with "constraint relation `hospital` does not match
/// schema `customer`"), and `detect` prints what `--table hospital`
/// prints. A suite over two relations keeps the `customer` default.
#[test]
fn a_suite_over_one_relation_names_the_table() {
    let dir = tmpdir("suite-names-table");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let out = bin()
        .args(["generate", "--scenario", "hospital", "--rows", "400", "--seed", "3"])
        .args(["--out", &path("")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let (data, cfds) = (path("dirty.csv"), path("cfds.txt"));
    let out = bin()
        .args(["repair", "--data", &data, "--cfds", &cfds, "--out", &path("fixed.csv")])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let detect = |extra: &[&str]| {
        let out = bin().args(["detect", "--data", &data, "--cfds", &cfds]).args(extra).output();
        let out = out.unwrap();
        assert!(out.status.success(), "{extra:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_eq!(detect(&[]), detect(&["--table", "hospital"]));
    let two = path("two.cfds");
    let suite = std::fs::read_to_string(&cfds).unwrap();
    std::fs::write(&two, format!("{suite}other([a] -> [b])\n")).unwrap();
    let out = bin().args(["detect", "--data", &data, "--cfds", &two]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("does not match schema `customer`"), "got: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A JSON document, read just far enough to check an `--explain json`
/// profile.
#[derive(Debug)]
enum Json {
    /// `null`, `true` or `false`.
    Word,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one document; panics on anything malformed.
    fn parse(text: &str) -> Json {
        let (value, rest) = Json::value(text.trim_start());
        assert!(rest.trim().is_empty(), "trailing bytes: {rest:.40}");
        value
    }

    fn value(s: &str) -> (Json, &str) {
        let s = s.trim_start();
        let rest = |n: usize| s[n..].trim_start();
        match s.as_bytes()[0] {
            b'{' | b'[' => {
                let object = s.starts_with('{');
                let (mut fields, mut items, mut s) = (Vec::new(), Vec::new(), rest(1));
                while !s.starts_with(['}', ']']) {
                    if object {
                        let (key, after) = Json::value(s);
                        let Json::Str(key) = key else { panic!("key {key:?}") };
                        let after = after.trim_start().strip_prefix(':').expect("`:` after a key");
                        let (v, after) = Json::value(after);
                        fields.push((key, v));
                        s = after.trim_start();
                    } else {
                        let (v, after) = Json::value(s);
                        items.push(v);
                        s = after.trim_start();
                    }
                    s = s.strip_prefix(',').unwrap_or(s).trim_start();
                }
                (if object { Json::Obj(fields) } else { Json::Arr(items) }, &s[1..])
            }
            b'"' => {
                let (mut out, mut chars) = (String::new(), s[1..].char_indices());
                while let Some((i, c)) = chars.next() {
                    match c {
                        '"' => return (Json::Str(out), &s[i + 2..]),
                        '\\' => match chars.next().expect("an escape").1 {
                            'n' => out.push('\n'),
                            't' => out.push('\t'),
                            'u' => {
                                let hex: String = (0..4).map(|_| chars.next().unwrap().1).collect();
                                out.push(
                                    char::from_u32(u32::from_str_radix(&hex, 16).unwrap()).unwrap(),
                                );
                            }
                            other => out.push(other),
                        },
                        c => out.push(c),
                    }
                }
                panic!("unterminated string")
            }
            _ => {
                let end = s.find([',', '}', ']']).unwrap_or(s.len());
                let word = s[..end].trim();
                let value = match word {
                    "null" | "true" | "false" => Json::Word,
                    n => Json::Num(n.parse().unwrap_or_else(|_| panic!("number {n:?}"))),
                };
                (value, &s[end..])
            }
        }
    }

    fn get(&self, key: &str) -> &Json {
        let Json::Obj(fields) = self else { panic!("{self:?} is not an object") };
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v).unwrap_or_else(|| panic!("no {key}"))
    }

    fn num(&self, key: &str) -> u64 {
        match self.get(key) {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 => *n as u64,
            other => panic!("{key}: {other:?} is not a count"),
        }
    }

    fn str(&self, key: &str) -> &str {
        match self.get(key) {
            Json::Str(s) => s,
            other => panic!("{key}: {other:?} is not a string"),
        }
    }

    fn arr(&self, key: &str) -> &[Json] {
        match self.get(key) {
            Json::Arr(items) => items,
            other => panic!("{key}: {other:?} is not an array"),
        }
    }
}

/// FNV-64s of `generate --scenario hospital --rows 20000 --noise 0.05
/// --seed 7`'s `dirty.csv` (the CSV writer's bytes alone; md5
/// `ae6aa9b3…`) and of its repair (the resolver's targets through the
/// writer; md5 `e082829f…`), recorded with the binary before repair
/// built its classes over slots.
const HOSPITAL_20000_DIRTY_FNV64: u64 = 0x60f9_358f_e1f4_c8ef;
const HOSPITAL_20000_REPAIRED_FNV64: u64 = 0x98f9_f168_dc52_dd1d;

/// The 20 000-row hospital workload repaired at one and at four shards:
/// the same bytes, and the recorded ones; each run's `--explain json`
/// profile read as a consumer would — no residual and nothing forced,
/// a detection only after a pass wrote (k passes make k + 1 of them,
/// and every constraint reads (k + 1) × 20 000 rows; a scan per loop
/// head makes k + 3), one `cfd` row per merged constraint, one
/// `resolve` row per repaired RHS attribute with counts summing to the
/// header's, and rows that account for the wall exactly. Counts, not
/// timings, so it cannot flake on a slow machine.
#[test]
fn repair_is_the_same_bytes_at_any_jobs_and_its_profile_reconciles() {
    let dir = tmpdir("repair-smoke");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let run = |args: &[&str]| {
        let out = bin().args(args).output().unwrap();
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let out = path("");
    run(&["generate", "--scenario", "hospital", "--rows", "20000", "--noise", "0.05"]
        .into_iter()
        .chain(["--seed", "7", "--out", &out])
        .collect::<Vec<_>>());
    let dirty = std::fs::read(path("dirty.csv")).unwrap();
    assert_eq!(fnv64(&dirty), HOSPITAL_20000_DIRTY_FNV64, "{:#x}", fnv64(&dirty));
    let mut repaired = Vec::new();
    for jobs in ["1", "4"] {
        let out = path(&format!("repaired_j{jobs}.csv"));
        let explain = run(&[
            "repair",
            "--data",
            &path("dirty.csv"),
            "--table",
            "hospital",
            "--cfds",
            &path("cfds.txt"),
            "--jobs",
            jobs,
            "--out",
            &out,
            "--explain",
            "json",
        ]);
        repaired.push(std::fs::read(&out).unwrap());
        let p = Json::parse(std::str::from_utf8(&explain).unwrap());
        let rows = p.arr("constraints");
        let of_kind = |kind: &'static str| rows.iter().filter(move |c| c.str("kind") == kind);
        assert_eq!(p.num("residual_violations"), 0, "--jobs {jobs}");
        let passes = p.num("passes");
        assert!(passes >= 1 && p.num("forced_resolutions") == 0, "--jobs {jobs}: {p:?}");
        let scans = p.num("detect_scans");
        assert_eq!(scans, passes + 1, "--jobs {jobs}: {scans} detection(s) for {passes} pass(es)");
        assert_eq!(of_kind("cfd").count() as u64, p.num("merged_cfds"), "--jobs {jobs}");
        for c in of_kind("cfd") {
            assert_eq!(c.num("rows_scanned"), scans * 20_000, "--jobs {jobs}: {}", c.str("name"));
        }
        // The RHS attributes some constraint changed a cell of, by name.
        let mut repaired_attrs: Vec<String> = of_kind("cfd")
            .filter(|c| c.num("cells_changed") > 0)
            .map(|c| {
                let name = c.str("name");
                let rhs = &name[name.rfind("-> [").expect("an RHS") + 4..];
                format!("resolve hospital.{}", &rhs[..rhs.find(']').unwrap()])
            })
            .collect();
        repaired_attrs.sort();
        repaired_attrs.dedup();
        let mut resolve: Vec<&str> = of_kind("resolve").map(|c| c.str("name")).collect();
        resolve.sort();
        assert_eq!(resolve, repaired_attrs, "--jobs {jobs}");
        for key in ["classes", "class_cells", "distinct_values", "distances_computed"] {
            let rows: u64 = of_kind("resolve").map(|c| c.num(key)).sum();
            assert_eq!(rows, p.num(key), "--jobs {jobs}: {key}");
        }
        assert_eq!(
            p.num("attributed_us") + p.num("overhead_us"),
            p.num("wall_us"),
            "--jobs {jobs}: attributed + overhead must equal wall exactly"
        );
    }
    assert!(repaired[0] == repaired[1], "--jobs 1 and 4 repaired differently");
    assert_eq!(fnv64(&repaired[0]), HOSPITAL_20000_REPAIRED_FNV64, "{:#x}", fnv64(&repaired[0]));
    std::fs::remove_dir_all(&dir).ok();
}
