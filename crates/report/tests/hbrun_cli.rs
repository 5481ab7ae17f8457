//! End-to-end smoke tests of the `hbrun` binary: `.s` listing input and
//! the `--disasm` → `.s` → run round trip, a bare profiled run agreeing
//! with the default service path, `--profile` always executing, usage
//! errors, and the `HB_*` settings as a spawned process sees them.

use std::path::PathBuf;
use std::process::{Command, Output};

fn hbrun(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbrun"))
        .args(args)
        .output()
        .expect("hbrun spawns")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hbrun-test-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("temp file writes");
    path
}

const COUNTDOWN_CB: &str = r"
    int main() {
        int *a = (int*)malloc(3 * sizeof(int));
        a[0] = 5; a[1] = 6; a[2] = 7;
        print_int(a[0] + a[1] + a[2]);
        free(a);
        return 0;
    }
";

#[test]
fn runs_a_handwritten_s_listing() {
    let path = write_temp(
        "hand.s",
        "; a bare µop listing: print 42 and exit 0\n\
         li    a0, 42\n\
         sys   print_int\n\
         li    a0, 0\n\
         sys   halt\n",
    );
    let out = hbrun(&[path.to_str().unwrap(), "--mode", "baseline"]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");
    let _ = std::fs::remove_file(path);
}

#[test]
fn rejects_a_malformed_listing() {
    let path = write_temp("bad.s", "frobnicate a0\n");
    let out = hbrun(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn disasm_listing_round_trips_through_dot_s() {
    // The documented round trip, verbatim:
    //   hbrun --disasm prog.cb > prog.s && hbrun prog.s
    let cb = write_temp("rt.cb", COUNTDOWN_CB);
    let disasm = hbrun(&[cb.to_str().unwrap(), "--disasm"]);
    assert!(disasm.status.success(), "{disasm:?}");
    let listing = String::from_utf8(disasm.stdout).expect("utf-8 listing");
    assert!(
        listing.starts_with("; entry:"),
        "--disasm stdout is the bare listing"
    );
    let s = write_temp("rt.s", &listing);

    let from_cb = hbrun(&[cb.to_str().unwrap()]);
    let from_s = hbrun(&[s.to_str().unwrap()]);
    assert!(from_cb.status.success(), "{:?}", from_cb);
    assert!(from_s.status.success(), "{:?}", from_s);
    assert_eq!(
        from_cb.stdout, from_s.stdout,
        "listing must reproduce the run"
    );
    assert_eq!(String::from_utf8_lossy(&from_cb.stdout), "18\n");

    // A bare profiled machine agrees with the default service path (the
    // service appends its result-store counters and the profiled run its
    // profile; the simulated stats must agree).
    let bare = hbrun(&[s.to_str().unwrap(), "--profile", "--stats"]);
    let service = hbrun(&[s.to_str().unwrap(), "--stats"]);
    assert!(bare.status.success());
    assert_eq!(bare.stdout, service.stdout);
    let strip = |o: &Output| {
        String::from_utf8_lossy(&o.stderr)
            .lines()
            .skip(1) // the header names the execution path
            .take_while(|l| !l.starts_with("-- hot-spot profile"))
            .filter(|l| !l.starts_with("result store:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&bare), strip(&service), "stats must be identical");
    assert!(
        String::from_utf8_lossy(&service.stderr).contains("result store:"),
        "the service path surfaces its counters under --stats: {:?}",
        service.stderr
    );

    let _ = std::fs::remove_file(cb);
    let _ = std::fs::remove_file(s);
}

#[test]
fn links_multiple_listings_with_stub_resolution() {
    // main.s calls fn#1, declared as a body-less stub named `triple`;
    // lib.s provides the definition. `hbrun main.s lib.s` links them.
    let main_s = write_temp(
        "link-main.s",
        "; entry: fn#0\n\
         fn#0 <main> (args=0, frame=0):\n\
           li    a0, 14\n\
           call  fn#1\n\
           sys   print_int\n\
           li    a0, 0\n\
           sys   halt\n\
         fn#1 <triple> (args=1, frame=0):\n",
    );
    let lib_s = write_temp(
        "link-lib.s",
        "fn#0 <triple> (args=1, frame=0):\n\
           mul   a0, a0, 3\n\
           ret\n",
    );
    let out = hbrun(&[
        main_s.to_str().unwrap(),
        lib_s.to_str().unwrap(),
        "--mode",
        "baseline",
    ]);
    assert!(out.status.success(), "stderr: {:?}", out.stderr);
    assert_eq!(String::from_utf8_lossy(&out.stdout), "42\n");

    // The unresolved stub alone fails with a linker diagnostic.
    let alone = hbrun(&[main_s.to_str().unwrap(), "--mode", "baseline"]);
    assert_eq!(alone.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&alone.stderr).contains("undefined symbol `triple`"),
        "stderr: {:?}",
        alone.stderr
    );

    let _ = std::fs::remove_file(main_s);
    let _ = std::fs::remove_file(lib_s);
}

#[test]
fn mixing_listing_and_cb_inputs_is_rejected() {
    let cb = write_temp("mix.cb", COUNTDOWN_CB);
    let s = write_temp("mix.s", "li a0, 0\nsys halt\n");
    let out = hbrun(&[cb.to_str().unwrap(), s.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot mix"));
    let _ = std::fs::remove_file(cb);
    let _ = std::fs::remove_file(s);
}

#[test]
fn malformed_cb_reports_the_line_in_the_users_file() {
    // The runtime library is compiled separately, so the error names the
    // line in the user's file.
    let cb = write_temp(
        "bad.cb",
        "int main() {\n    int x = 1;\n    return x +;\n}\n",
    );
    let out = hbrun(&[cb.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error at 3:15"), "stderr: {stderr}");
    let _ = std::fs::remove_file(cb);
}

#[test]
fn rejects_an_unrecognized_hb_prof_value() {
    // `HB_PROF` takes the shared flag grammar: a value outside
    // on/off/1/0/true/false (any case) is a loud error, never "off".
    let cb = write_temp("prof.cb", COUNTDOWN_CB);
    let out = Command::new(env!("CARGO_BIN_EXE_hbrun"))
        .arg(cb.to_str().unwrap())
        .env("HB_PROF", "maybe")
        .output()
        .expect("hbrun spawns");
    assert!(!out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("HB_PROF"), "stderr: {stderr}");
    assert!(stderr.contains("`maybe`"), "stderr: {stderr}");
    let _ = std::fs::remove_file(cb);
}

/// Runs `hbrun` on `cb` with `envs` added to its environment.
fn hbrun_env(cb: &std::path::Path, envs: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hbrun"))
        .arg(cb)
        .envs(envs.iter().copied())
        .output()
        .expect("hbrun spawns")
}

const OVERFLOW_CB: &str = r"
    int main() {
        int *a = (int*)malloc(4 * sizeof(int));
        a[1] = 10;
        a[7] = 99;
        return a[1];
    }
";

#[test]
fn a_misspelt_variable_warns_with_the_nearest_name() {
    let cb = write_temp("porf.cb", COUNTDOWN_CB);
    let out = hbrun_env(&cb, &[("HB_PORF", "1")]);
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = stderr.lines().filter(|l| l.contains("HB_PORF")).collect();
    assert_eq!(warnings.len(), 1, "one warning: {stderr}");
    assert!(
        warnings[0].contains("HB_PROF"),
        "names the nearest: {stderr}"
    );
    let _ = std::fs::remove_file(cb);
}

#[test]
fn a_deleted_variable_warns_instead_of_being_ignored() {
    // The store has no TTL, so the variable that once set one only warns.
    let cb = write_temp("ttl.cb", COUNTDOWN_CB);
    let plain = hbrun(&[cb.to_str().unwrap()]);
    let out = hbrun_env(&cb, &[("HB_STORE_TTL", "60")]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(out.stdout, plain.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning: HB_STORE_TTL"), "stderr: {stderr}");
    assert!(
        stderr.contains("HB_STORE_PATH"),
        "names the nearest: {stderr}"
    );
    let _ = std::fs::remove_file(cb);
}

#[test]
fn hb_flight_prints_the_recorder_tail_on_a_trap() {
    let cb = write_temp("flight.cb", OVERFLOW_CB);
    let off = hbrun_env(&cb, &[]);
    assert_eq!(off.status.code(), Some(3), "{off:?}");
    assert!(!String::from_utf8_lossy(&off.stderr).contains("flight recorder"));
    let on = hbrun_env(&cb, &[("HB_FLIGHT", "4")]);
    assert_eq!(on.status.code(), Some(3), "{on:?}");
    let stderr = String::from_utf8_lossy(&on.stderr);
    let tail: Vec<&str> = stderr
        .lines()
        .skip_while(|l| !l.starts_with("flight recorder (last 4 memory events):"))
        .skip(1)
        .take_while(|l| l.starts_with("  uop "))
        .collect();
    assert_eq!(tail.len(), 4, "stderr: {stderr}");
    assert!(
        tail[3].contains("store 0x01000024"),
        "the faulting store is the newest event: {stderr}"
    );
    let _ = std::fs::remove_file(cb);
}

#[test]
fn an_invalid_hb_flight_is_a_usage_error() {
    let cb = write_temp("flight-bad.cb", COUNTDOWN_CB);
    let out = hbrun_env(&cb, &[("HB_FLIGHT", "x")]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("HB_FLIGHT"), "stderr: {stderr}");
    assert!(stderr.contains("`x`"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing ran: {out:?}");
    let _ = std::fs::remove_file(cb);
}

#[test]
fn profile_executes_even_when_the_store_is_warm() {
    // A result-store hit executes nothing, so a profile served from the
    // store would be empty. `--profile` runs a bare profiled machine
    // instead: a second run on the same persistent store still lists the
    // program's blocks.
    let cb = write_temp("profile.cb", COUNTDOWN_CB);
    let store = std::env::temp_dir().join(format!(
        "hbrun-test-{}-profile-store.bin",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let run = || {
        Command::new(env!("CARGO_BIN_EXE_hbrun"))
            .args([cb.to_str().unwrap(), "--profile"])
            .env("HB_STORE_PATH", &store)
            .output()
            .expect("hbrun spawns")
    };
    let first = run();
    let second = run();
    for out in [&first, &second] {
        assert!(out.status.success(), "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let table = stderr
            .split("-- folded stacks")
            .next()
            .expect("split yields a first part");
        assert!(
            table.contains("main@"),
            "profile lists no main block: {stderr}"
        );
    }
    assert_eq!(first.stdout, second.stdout);

    // `--interp` is gone: the interpreter is the only execution path.
    let interp = hbrun(&[cb.to_str().unwrap(), "--interp", "--profile"]);
    assert_eq!(interp.status.code(), Some(2), "{interp:?}");

    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(format!("{}.lock", store.display()));
    let _ = std::fs::remove_file(cb);
}

#[test]
fn hbserve_ttl_is_an_unknown_flag() {
    // The store has no idle TTL: capacity is its one residency bound, so
    // `hbserve --ttl` is rejected like any unknown flag, before binding.
    let out = Command::new(env!("CARGO_BIN_EXE_hbserve"))
        .args(["--listen", "127.0.0.1:0", "--ttl", "5"])
        .output()
        .expect("hbserve runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "nothing bound: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unexpected argument `--ttl`"),
        "stderr: {stderr}"
    );
}

#[test]
fn meta_flag_is_a_usage_error() {
    // The paper's metadata-cost model is the only one, so there is no
    // `--meta` to choose another.
    let cb = write_temp("meta.cb", COUNTDOWN_CB);
    let out = hbrun(&["--meta", "charge", cb.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`--meta`"), "stderr: {stderr}");
    assert!(stderr.contains("usage: hbrun"), "stderr: {stderr}");
    assert!(!stderr.contains("--meta summary"), "stderr: {stderr}");
    let _ = std::fs::remove_file(cb);
}
