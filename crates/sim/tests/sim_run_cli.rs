//! `sim-run` as a child process: a flag missing its value is a usage error
//! (exit 2), not a panic.

use rvv_isa::Instr;
use rvv_sim::Program;
use std::process::Command;

const SIM_RUN: &str = env!("CARGO_BIN_EXE_sim-run");

#[test]
fn flag_without_value_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("rvv-sim-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bin = dir.join("halt.bin");
    std::fs::write(
        &bin,
        Program::new("halt", vec![Instr::Ecall]).assemble().unwrap(),
    )
    .unwrap();
    let path = bin.to_str().unwrap();

    let ok = Command::new(SIM_RUN)
        .args([path, "--vlen", "256"])
        .output()
        .unwrap();
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
    for args in [
        &[path, "--vlen"][..],
        &[path, "--mem-mib"],
        &[path, "--a3"],
        &[path, "--dump-u32"],
        &[path, "--dump-u32", "0x100"],
        &[path, "--disasm", "--vlen"],
    ] {
        let out = Command::new(SIM_RUN).args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("usage: sim-run"));
    }
    std::fs::remove_dir_all(dir).unwrap();
}
