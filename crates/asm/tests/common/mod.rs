//! Seeded random instructions for the assembler text tests.

use rvv_isa::table::{Field, Row};
use rvv_isa::Instr;

/// xorshift64*: a seeded, dependency-free stream.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Mostly uniform, with the range ends and zero drawn often.
    fn draw(&mut self, lo: i64, hi: i64) -> i64 {
        match self.below(8) {
            0 => lo,
            1 => hi,
            2 => 0i64.clamp(lo, hi),
            _ => lo + (self.next() % (hi - lo + 1) as u64) as i64,
        }
    }
}

/// An instruction of `row`'s form at index `at` of an `n`-instruction
/// program, with operands drawn from each field's range and any branch
/// target inside the program.
pub fn random_instr(rng: &mut Rng, row: &Row, at: usize, n: usize) -> Instr {
    loop {
        let values: Vec<i64> = row
            .fields()
            .iter()
            .map(|&f| match f {
                Field::BranchOff | Field::JumpOff => (rng.below(n + 1) as i64 - at as i64) * 4,
                f => rng.draw(*f.range().start(), *f.range().end()),
            })
            .collect();
        // Reserved `vtype` values are inside the field range: draw again.
        if let Ok(i) = row.instr(&values) {
            return i;
        }
    }
}
