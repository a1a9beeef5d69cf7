//! End-to-end smoke tests for the `dpf` binary's exit-code surface: the
//! hidden `--crash-after-rows` SIGKILL hook, `--resume` byte-identity,
//! the interrupt exit code, the typed (exit 2) handling of corrupt
//! artifacts, journals and bad options, and a quiet exit with the
//! command's own code when the reader of stdout has gone away. Also that
//! `dpf table N` prints exactly section N of `dpf tables`, so each paper
//! table has one renderer.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dpf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dpf"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// A seconds-scale campaign spec: two tenants, three benchmarks each.
fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("spec.toml");
    fs::write(
        &path,
        "name = \"cli-smoke\"\n\
         classes = [S]\n\
         procs = [1, 4]\n\
         backends = [\"virtual\"]\n\
         benchmarks = [\"gather\", \"conj-grad\", \"diff-1D\"]\n\
         seed = 7\n\
         workers = 2\n",
    )
    .unwrap();
    path
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Stdout of a `dpf` run that must exit 0.
fn stdout_ok(args: &[&str]) -> String {
    let out = dpf().args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr_of(&out));
    String::from_utf8(out.stdout).unwrap()
}

fn read_artifacts(dir: &Path) -> [String; 3] {
    ["campaign.json", "tables.md", "tables.json"]
        .map(|f| fs::read_to_string(dir.join(f)).unwrap_or_else(|e| panic!("{f}: {e}")))
}

#[test]
fn corrupt_campaign_artifact_is_a_typed_exit_2() {
    let dir = scratch("smoke-corrupt-artifact");
    let path = dir.join("campaign.json");
    // A torn write: valid prefix, truncated mid-structure.
    fs::write(
        &path,
        "{\n  \"campaign\": \"x\",\n  \"seed\": 7,\n  \"tenants\": [",
    )
    .unwrap();
    let out = dpf()
        .args(["tables", "--campaign", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("campaign.json"), "names the file: {err}");
    assert!(err.contains("at byte"), "names the byte offset: {err}");
}

#[test]
fn zero_procs_is_a_usage_error_for_every_subcommand() {
    for args in [
        &["run", "fft", "--procs", "0"][..],
        &["all", "--procs", "0"],
        &["table", "3", "--procs", "0"],
    ] {
        let out = dpf().args(args).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("bad --procs"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn unknown_option_is_a_usage_error_for_every_subcommand() {
    for args in [
        &["list", "--bogus"][..],
        &["run", "fft", "--bogus"],
        &["all", "--bogus"],
        &["soak", "--bogus"],
        &["table", "3", "--bogus"],
        &["tables", "--bogus"],
        &["lint", "--bogus"],
        &["campaign", "spec.toml", "--bogus"],
    ] {
        let out = dpf().args(args).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("--bogus"), "{args:?}: {err}");
    }
}

#[test]
fn kill_worker_that_cannot_fire_is_a_usage_error() {
    for (args, names) in [
        (
            &[
                "run",
                "diff-1D",
                "--backend",
                "spmd",
                "--procs",
                "4",
                "--kill-worker",
                "9:1",
            ][..],
            "--procs 4",
        ),
        // `--procs` after the kill: validated once every flag is read.
        (
            &[
                "all",
                "--kill-worker",
                "4:1",
                "--backend",
                "spmd",
                "--procs",
                "4",
            ],
            "--procs 4",
        ),
        (
            &["run", "diff-1D", "--kill-worker", "1:1"],
            "virtual backend",
        ),
    ] {
        let out = dpf().args(args).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("--kill-worker"), "{args:?}: {err}");
        assert!(err.contains(names), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
}

#[test]
fn removed_size_tiers_exit_2_and_small_is_class_s() {
    for args in [
        &["run", "fft", "--size", "medium"][..],
        &["all", "--size", "large"],
        &["table", "4", "--size", "medium"],
    ] {
        let out = dpf().args(args).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("small|S|W|A|B|C"), "{args:?}: {err}");
    }
    // Every line but the timings: the problem, FLOPs, memory, comm.
    let untimed = |size: &str| -> Vec<String> {
        stdout_ok(&["run", "fft", "--size", size])
            .lines()
            .filter(|l| !(l.contains("sec.") || l.contains("MFLOPS") || l.contains("elapsed")))
            .map(str::to_string)
            .collect()
    };
    let small = untimed("small");
    assert!(small[0].contains("problem:"), "{small:?}");
    assert_eq!(small, untimed("S"));
}

/// Section `n` of a `dpf tables` document: the lines from its
/// `## Table n.` heading up to, but not including, the next `## `
/// heading.
fn section(markdown: &str, n: u8) -> String {
    let mut inside = false;
    let mut out = String::new();
    for line in markdown.split_inclusive('\n') {
        if line.starts_with("## ") {
            inside = line.starts_with(&format!("## Table {n}."));
        }
        if inside {
            out.push_str(line);
        }
    }
    out
}

#[test]
fn table_n_prints_section_n_of_tables_on_either_backend() {
    let tables = stdout_ok(&["tables"]);
    for n in 1..=8u8 {
        let n_arg = n.to_string();
        let args = ["table", &n_arg, "--size", "S", "--procs", "4"];
        let table = stdout_ok(&args);
        assert!(table.starts_with(&format!("## Table {n}.")), "{table}");
        assert_eq!(table, section(&tables, n), "table {n}");
        if n == 3 || n == 4 {
            let spmd = [&args[..], &["--backend", "spmd"]].concat();
            assert_eq!(stdout_ok(&spmd), table, "table {n} under spmd");
        }
    }
}

#[test]
fn closed_stdout_is_quiet_and_keeps_the_exit_code() {
    // The lint fixtures' mini tree has an error-level finding, so `lint`
    // fails (exit 2) after printing its report.
    let tree = Path::new(env!("CARGO_MANIFEST_DIR")).join("../dpf-lint/tests/fixtures/tree");
    for (args, code) in [
        (vec!["list"], 0),
        (vec!["lint", "--root", tree.to_str().unwrap()], 2),
    ] {
        // The reader end is gone before the child starts, so its first
        // write to stdout fails with EPIPE every time.
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = dpf().args(&args).stdout(writer).output().unwrap();
        let err = stderr_of(&out);
        assert_eq!(
            (out.status.code(), err.as_str()),
            (Some(code), ""),
            "{args:?}"
        );
    }
}

#[cfg(unix)]
#[test]
fn crash_and_resume_reproduce_the_clean_artifacts() {
    use std::os::unix::process::ExitStatusExt;

    let dir = scratch("smoke-crash-resume");
    let spec = write_spec(&dir);
    let spec = spec.to_str().unwrap();

    let clean_out = dir.join("clean");
    let out = dpf()
        .args([
            "campaign",
            spec,
            "--serial",
            "--out",
            clean_out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", stderr_of(&out));
    assert!(
        !clean_out.join("journal.jsonl").exists(),
        "journal discarded"
    );

    for crash_after in ["1", "4"] {
        let crash_out = dir.join(format!("crash-{crash_after}"));
        let out = dpf()
            .args([
                "campaign",
                spec,
                "--serial",
                "--out",
                crash_out.to_str().unwrap(),
            ])
            .args(["--crash-after-rows", crash_after])
            .output()
            .unwrap();
        assert_eq!(
            out.status.signal(),
            Some(9),
            "--crash-after-rows must die by SIGKILL, got {:?}",
            out.status
        );
        assert!(crash_out.join("journal.jsonl").exists());
        assert!(!crash_out.join("campaign.json").exists());

        let out = dpf()
            .args([
                "campaign",
                spec,
                "--serial",
                "--out",
                crash_out.to_str().unwrap(),
            ])
            .arg("--resume")
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", stderr_of(&out));
        assert_eq!(
            read_artifacts(&crash_out),
            read_artifacts(&clean_out),
            "kill at {crash_after} rows + resume must be byte-identical"
        );
        assert!(!crash_out.join("journal.jsonl").exists());
    }
}

#[cfg(unix)]
#[test]
fn corrupt_journal_on_resume_is_a_typed_exit_2() {
    use std::os::unix::process::ExitStatusExt;

    let dir = scratch("smoke-corrupt-journal");
    let spec = write_spec(&dir);
    let out_dir = dir.join("out");
    let out = dpf()
        .args(["campaign", spec.to_str().unwrap(), "--serial"])
        .args([
            "--out",
            out_dir.to_str().unwrap(),
            "--crash-after-rows",
            "2",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.signal(), Some(9));

    // Mangle an interior, fully-fsync'd journal row.
    let journal = out_dir.join("journal.jsonl");
    let text = fs::read_to_string(&journal).unwrap();
    fs::write(
        &journal,
        text.replacen("\"kind\":\"row\"", "\"KIND\":\"row\"", 1),
    )
    .unwrap();
    let out = dpf()
        .args(["campaign", spec.to_str().unwrap(), "--serial"])
        .args(["--out", out_dir.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("corrupt journal"), "{err}");
    assert!(err.contains("byte offset"), "{err}");

    // A changed spec is equally fatal: restore the journal, bump the seed.
    fs::write(&journal, &text).unwrap();
    let spec2 = dir.join("spec2.toml");
    fs::write(
        &spec2,
        fs::read_to_string(&spec)
            .unwrap()
            .replace("seed = 7", "seed = 8"),
    )
    .unwrap();
    let out = dpf()
        .args(["campaign", spec2.to_str().unwrap(), "--serial"])
        .args(["--out", out_dir.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--resume"), "{}", stderr_of(&out));
}

#[cfg(unix)]
#[test]
fn sigint_drains_to_a_partial_summary_and_exit_130() {
    let dir = scratch("smoke-sigint");
    // A wider spec (4 tenants x 8 rows, serial) so the interrupt lands
    // mid-campaign rather than after it.
    let spec = dir.join("spec.toml");
    fs::write(
        &spec,
        "name = \"cli-sigint\"\n\
         classes = [S]\n\
         procs = [1, 4]\n\
         backends = [\"virtual\", \"spmd\"]\n\
         benchmarks = [\"gather\", \"transpose\", \"conj-grad\", \"fft\", \
                       \"lu\", \"diff-1D\", \"qcd-kernel\", \"wave-1D\"]\n\
         seed = 7\n\
         workers = 4\n",
    )
    .unwrap();
    let out_dir = dir.join("out");
    let child = dpf()
        .args(["campaign", spec.to_str().unwrap(), "--serial"])
        .args(["--out", out_dir.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // The journal file appears right after the signal handler is
    // installed, so its existence means SIGINT will be caught.
    let journal = out_dir.join("journal.jsonl");
    for _ in 0..5000 {
        if journal.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(journal.exists(), "campaign never opened its journal");
    let kill = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(kill.success());

    let out = child.wait_with_output().unwrap();
    assert_eq!(out.status.code(), Some(130), "{}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("INTERRUPTED"), "partial summary: {stdout}");
    assert!(journal.exists(), "journal must be kept for --resume");
    assert!(!out_dir.join("campaign.json").exists());
}
