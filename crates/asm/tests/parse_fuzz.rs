//! Malformed assembly never panics the parser. Seeded mutations (insert,
//! delete, replace from a small alphabet) of disassembly text — random
//! instructions and the kernel listings in `corpus/kernels.s` — either parse
//! or fail with a `ParseError` whose line lies inside the input.

mod common;

use common::{random_instr, Rng};
use rvv_asm::parse_program;
use rvv_isa::table::rows;

const KERNELS: &str = include_str!("corpus/kernels.s");

/// Characters the mutations draw from: the assembly syntax plus a few
/// that never occur in it.
const ALPHABET: &[char] = &[
    'x', 'v', 'e', 'm', 't', '0', '1', '2', '8', '9', '-', ',', ' ', '(', ')', '.', ':', '#', '/',
    '\n', '_', 'f', 'z', 'é',
];

/// Inputs that panicked before operand counts were checked per format.
#[test]
fn truncated_operands_are_errors() {
    for src in [
        "vid.v",
        "vcpop.m",
        "vadd.vv v8",
        "vse32.v v8",
        "vluxei32.v v8, (x10)",
        "vl8re8.v v23e (x19)",
    ] {
        let e = parse_program("regression", src).unwrap_err();
        assert_eq!(e.line, 1, "{src}: {e}");
    }
}

/// A few random instructions in disassembly syntax, branches inside.
fn random_listing(rng: &mut Rng) -> String {
    let n = 1 + rng.below(8);
    (0..n)
        .map(|at| {
            let row = &rows()[rng.below(rows().len())];
            format!("{}\n", random_instr(rng, row, at, n))
        })
        .collect()
}

#[test]
fn mutated_listings_parse_or_fail_on_an_input_line() {
    let kernels: Vec<&str> = KERNELS.split("\n\n").skip(1).collect();
    assert!(kernels.len() >= 20);
    let mut rng = Rng(0x5eed_f00d_dead_beef);
    for _ in 0..20_000 {
        let source = if rng.below(2) == 0 {
            random_listing(&mut rng)
        } else {
            kernels[rng.below(kernels.len())].to_string()
        };
        let mut text: Vec<char> = source.chars().collect();
        for _ in 0..1 + rng.below(4) {
            let at = rng.below(text.len() + 1);
            let c = ALPHABET[rng.below(ALPHABET.len())];
            match rng.below(3) {
                0 => text.insert(at, c),
                1 if at < text.len() => {
                    text.remove(at);
                }
                _ if at < text.len() => text[at] = c,
                _ => text.push(c),
            }
        }
        let text: String = text.into_iter().collect();
        if let Err(e) = parse_program("fuzz", &text) {
            let lines = text.lines().count();
            assert!(
                (1..=lines).contains(&e.line),
                "line {} outside 1..={lines}: {e}\n{text}",
                e.line
            );
        }
    }
}

#[test]
fn kernel_corpus_parses() {
    for kernel in KERNELS.split("\n\n").skip(1) {
        parse_program("corpus", kernel).unwrap_or_else(|e| panic!("{e}\n{kernel}"));
    }
}
