//! End-to-end smoke tests of the `hbrun` binary: `.s` listing input and
//! the `--disasm` → `.s` → run round trip, the `--interp` interpreter
//! agreeing with the default path, and `--profile` always executing.

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

    // The interpreter agrees with the default path (the service path
    // appends its own counters — result store, block cache — which the
    // interpreter path does not have; the simulated stats must agree).
    let interp = hbrun(&[s.to_str().unwrap(), "--interp", "--stats"]);
    let engine = hbrun(&[s.to_str().unwrap(), "--stats"]);
    assert!(interp.status.success());
    assert_eq!(interp.stdout, engine.stdout);
    let strip = |o: &Output| {
        String::from_utf8_lossy(&o.stderr)
            .lines()
            .skip(1) // the header names the execution path
            .filter(|l| {
                !l.starts_with("result store:")
                    && !l.starts_with("block cache:")
                    && !l.starts_with("programs:")
                    && !l.starts_with("hier fast path:")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip(&interp), strip(&engine), "stats must be identical");
    assert!(
        String::from_utf8_lossy(&engine.stderr).contains("result store:"),
        "the service path surfaces its counters under --stats: {:?}",
        engine.stderr
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

#[test]
fn profile_executes_even_when_the_store_is_warm() {
    // A result-store hit executes nothing, so a profile served from the
    // store would be empty. `--profile` runs a bare profiled engine
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

    // The interpreter has no blocks to profile.
    let both = hbrun(&[cb.to_str().unwrap(), "--interp", "--profile"]);
    assert_eq!(both.status.code(), Some(2), "{both:?}");

    let _ = std::fs::remove_file(&store);
    let _ = std::fs::remove_file(store.with_extension("lock"));
    let _ = std::fs::remove_file(cb);
}
