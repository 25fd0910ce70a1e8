//! `asm-run` as a child process: a strip-mined program assembles and runs,
//! and a flag missing its value is a usage error (exit 2), not a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

const ASM_RUN: &str = env!("CARGO_BIN_EXE_asm-run");

/// A strip-mined loop over `a0` elements; `a0` becomes the strip count.
const STRIP_MINED: &str = "
    addi x11, x0, 0x100
    addi x13, x0, 0
loop:
    vsetvli x5, x10, e32, m1, ta, mu
    vid.v v8
    vse32.v v8, (x11)
    sub x10, x10, x5
    slli x6, x5, 2
    add x11, x11, x6
    addi x13, x13, 1
    bne x10, x0, loop
    addi x10, x13, 0
    ecall
";

fn program(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rvv-asm-run-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("k.s");
    std::fs::write(&path, STRIP_MINED).unwrap();
    path
}

fn asm_run(args: &[&str]) -> Output {
    Command::new(ASM_RUN).args(args).output().unwrap()
}

#[test]
fn strip_mined_program_runs() {
    let prog = program("run");
    let out = asm_run(&[prog.to_str().unwrap(), "--vlen", "256", "--a0", "100"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // VLEN=256 at e32, m1 holds 8 elements: 100 elements take 13 strips.
    assert!(stdout.contains("a0 = 0xd"), "{stdout}");
    std::fs::remove_dir_all(prog.parent().unwrap()).unwrap();
}

#[test]
fn flag_without_value_is_a_usage_error() {
    let path = program("usage");
    let prog = path.to_str().unwrap();
    for args in [
        &[prog, "--vlen"][..],
        &[prog, "--mem-mib"],
        &[prog, "--a0"],
        &[prog, "--emit"],
        &[prog, "--dump-u32"],
        &[prog, "--dump-u32", "0x100"],
        &[prog, "--a0", "8", "--vlen"],
    ] {
        let out = asm_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: asm-run"));
    }
    std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
}
