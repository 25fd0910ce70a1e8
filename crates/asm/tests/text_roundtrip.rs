//! Display → parse over every instruction form: with operands drawn from
//! each table row's field ranges, `parse_program(program.to_string())`
//! returns the program, branch and `jal` targets inside it included.

mod common;

use common::{random_instr, Rng};
use rvv_asm::parse_program;
use rvv_isa::table::rows;
use rvv_isa::Instr;
use rvv_sim::Program;

#[test]
fn every_row_roundtrips_through_text() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let n = rows().len();
    for round in 0..200 {
        let instrs: Vec<Instr> = (0..n)
            .map(|at| {
                // Rows in table order, then in random order.
                let row = if round == 0 { at } else { rng.below(n) };
                random_instr(&mut rng, &rows()[row], at, n)
            })
            .collect();
        let p = Program::new("rows", instrs);
        let text = p.to_string();
        let back = parse_program("rows", &text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(back.instrs, p.instrs, "{text}");
    }
}
