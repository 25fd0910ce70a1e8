//! Textual assembler: parse standard RISC-V assembly (the same syntax the
//! disassembler prints) into a [`Program`].
//!
//! Supported grammar, line-oriented:
//!
//! * `# comment` and `// comment` to end of line;
//! * `label:` definitions (a leading bare hex address followed by `:` — as
//!   produced by the disassembler — is skipped);
//! * every instruction of the modelled subset, in the mnemonic syntax of
//!   [`rvv_isa::Instr`]'s `Display` (e.g. `vadd.vv v8, v8, v9, v0.t`,
//!   `vsetvli x13, x10, e32, m1, ta, mu`, `lw x5, 8(x11)`);
//! * branch/jump targets as numeric byte offsets *or* label names.
//!
//! This module handles only lines, comments and labels. Each instruction is
//! read by [`rvv_isa::parse_asm`], a walk over the instruction's row in
//! [`rvv_isa::table`] — the same row `Display`, `encode` and `decode` use —
//! so the operand count and every operand's syntax and range are checked
//! there, once per operand format.
//!
//! The key invariant, property-tested against every generated kernel and
//! every table row: `parse(program.to_string()) == program`.

use rvv_isa::{encode, parse_asm, Instr};
use rvv_sim::Program;
use std::collections::HashMap;
use std::fmt;

/// A parse failure, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// The PC-relative target of a branch or `jal`.
fn target_mut(i: &mut Instr) -> Option<&mut i32> {
    match i {
        Instr::Branch { offset, .. } | Instr::Jal { offset, .. } => Some(offset),
        _ => None,
    }
}

/// Parse an assembly listing into a program.
pub fn parse_program(name: impl Into<String>, source: &str) -> Result<Program, ParseError> {
    let mut labels: HashMap<&str, usize> = HashMap::new();
    // (line, instruction, label its target names)
    let mut parsed: Vec<(usize, Instr, Option<&str>)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line = idx + 1;
        let text = raw.split('#').next().unwrap_or("");
        let text = text.split("//").next().unwrap_or("").trim();
        let mut rest = text;
        // Leading labels (and disassembler addresses like `1c:`): any
        // leading whitespace-delimited token ending in ':' is one.
        while let Some(first) = rest.split_whitespace().next() {
            let Some(head) = first.strip_suffix(':') else {
                break;
            };
            let is_addr = !head.is_empty() && head.chars().all(|c| c.is_ascii_hexdigit());
            if !is_addr && labels.insert(head, parsed.len()).is_some() {
                return err(line, format!("label `{head}` defined twice"));
            }
            rest = rest[first.len()..].trim_start();
        }
        if rest.is_empty() {
            continue;
        }
        let (instr, label) = parse_asm(rest).map_err(|msg| ParseError { line, msg })?;
        parsed.push((line, instr, label));
    }

    let len = parsed.len() as i64;
    let mut instrs = Vec::with_capacity(parsed.len());
    for (at, (line, mut instr, label)) in parsed.into_iter().enumerate() {
        let at = at as i64;
        if let Some(offset) = target_mut(&mut instr) {
            match label {
                Some(l) => {
                    let Some(&to) = labels.get(l) else {
                        return err(line, format!("unknown label `{l}`"));
                    };
                    // An offset beyond i32 is beyond every branch's range too.
                    *offset = i32::try_from((to as i64 - at) * 4).unwrap_or(i32::MIN);
                    if let Err(e) = encode(&instr) {
                        return err(line, format!("branch to `{l}`: {e}"));
                    }
                }
                None if !(0..=len).contains(&(at + i64::from(*offset) / 4)) || *offset % 4 != 0 => {
                    return err(
                        line,
                        format!("branch offset {offset} lands outside the program"),
                    );
                }
                None => {}
            }
        }
        instrs.push(instr);
    }
    Ok(Program::new(name, instrs))
}
