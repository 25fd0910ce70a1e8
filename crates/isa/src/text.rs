//! Assembly text: `Display for Instr` writes an instruction and
//! [`parse_asm`] reads it back. Both walk the instruction's table row, field
//! by field, so the syntax of each operand is defined once.

use crate::instr::{Instr, VCsr};
use crate::table::{self, Field};
use crate::{VReg, VType, XReg};
use core::fmt;

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // A form the ISA lacks (e.g. `vsub.vi`) has no assembly syntax.
        let Some((row, ops)) = table::split(self) else {
            return write!(f, "{self:?}");
        };
        f.write_str(row.mnemonic())?;
        let mut prev = None;
        for &field in row.fields() {
            f.write_str(separator(prev, field))?;
            let v = field.value(&ops);
            match field {
                Field::Xd | Field::Xs1 | Field::Xs2 => write!(f, "{}", XReg::new(v as u8))?,
                Field::Vd | Field::Vs1 | Field::Vs2 => write!(f, "{}", VReg::new(v as u8))?,
                Field::Base => write!(f, "({})", XReg::new(v as u8))?,
                Field::Upper => write!(f, "{:#x}", v as i32)?,
                Field::Csr => f.write_str(csr(v).name())?,
                Field::Vtype11 | Field::Vtype10 => write!(f, "{}", vtype(v))?,
                Field::Vm if v == 0 => f.write_str(", v0.t")?,
                Field::Vm => {}
                Field::V0 => f.write_str("v0")?,
                _ => write!(f, "{v}")?,
            }
            prev = Some(field);
        }
        Ok(())
    }
}

/// The text between the previous operand (or the mnemonic) and `field`.
fn separator(prev: Option<Field>, field: Field) -> &'static str {
    match (prev, field) {
        (_, Field::Vm) => "",
        (None, _) => " ",
        (Some(Field::Imm12 | Field::StoreOff), Field::Base) => "",
        _ => ", ",
    }
}

fn csr(addr: i64) -> VCsr {
    VCsr::from_addr(addr as u32).expect("CSR address checked by its field")
}

fn vtype(bits: i64) -> VType {
    VType::from_bits(bits as u64).expect("vtype checked by its field")
}

/// Parse one instruction written in the syntax `Display` produces, e.g.
/// `vadd.vv v8, v8, v9, v0.t` or `lw x5, 8(x11)`.
///
/// A branch or `jal` target may be a label instead of a byte offset. The
/// label is then returned with the instruction, whose offset is 0; the
/// caller resolves it.
///
/// # Errors
/// An unknown mnemonic, a wrong operand count, an operand that does not
/// parse or that is out of its field's range.
pub fn parse_asm(text: &str) -> Result<(Instr, Option<&str>), String> {
    let text = text.trim();
    let (mnemonic, operands) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let row =
        table::by_mnemonic(mnemonic).ok_or_else(|| format!("unknown mnemonic `{mnemonic}`"))?;
    let fields = row.fields();
    let mut toks = tokens(operands);
    let masked = fields.contains(&Field::Vm) && toks.last() == Some(&"v0.t");
    if masked {
        toks.pop();
    }
    let want: usize = fields.iter().map(|&f| width(f)).sum();
    if toks.len() != want {
        return Err(format!(
            "`{mnemonic}` expects {want} operands, got {}",
            toks.len()
        ));
    }
    let mut label = None;
    let mut values = Vec::with_capacity(fields.len());
    let mut rest = &toks[..];
    for &field in fields {
        let (mine, tail) = rest.split_at(width(field));
        rest = tail;
        let tok = mine.first().copied().unwrap_or("");
        let is_label = tok.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_');
        let v = match field {
            Field::BranchOff | Field::JumpOff if is_label => {
                label = Some(tok);
                0
            }
            Field::Vm => (!masked).into(),
            _ => parse_field(field, mine)?,
        };
        field
            .check(v)
            .map_err(|e| format!("operand `{}`: {e}", mine.join(", ")))?;
        values.push(v);
    }
    let instr = row.instr(&values).map_err(|e| e.to_string())?;
    Ok((instr, label))
}

/// How many comma-separated tokens `field` spans.
fn width(field: Field) -> usize {
    match field {
        Field::Vm => 0,
        Field::Vtype11 | Field::Vtype10 => 4,
        _ => 1,
    }
}

/// The operand tokens: comma-separated, with `offset(base)` split in two.
fn tokens(operands: &str) -> Vec<&str> {
    let mut toks = Vec::new();
    if operands.trim().is_empty() {
        return toks;
    }
    for t in operands.split(',').map(str::trim) {
        match t.find('(') {
            Some(at) if at > 0 => toks.extend([t[..at].trim_end(), &t[at..]]),
            _ => toks.push(t),
        }
    }
    toks
}

/// The value of one operand that is not a label or the mask.
fn parse_field(field: Field, toks: &[&str]) -> Result<i64, String> {
    let tok = toks.first().copied().unwrap_or("");
    let bad = |what: &str| format!("expected {what}, got `{}`", toks.join(", "));
    let reg = |t: &str, prefix: char, what: &str| {
        let n = t.strip_prefix(prefix).and_then(|n| n.parse::<u8>().ok());
        n.map(i64::from).ok_or_else(|| bad(what))
    };
    match field {
        Field::Xd | Field::Xs1 | Field::Xs2 => reg(tok, 'x', "x-register"),
        Field::Vd | Field::Vs1 | Field::Vs2 => reg(tok, 'v', "v-register"),
        Field::Base => {
            let inner = tok.strip_prefix('(').and_then(|t| t.strip_suffix(')'));
            reg(inner.unwrap_or(""), 'x', "`(x-register)`")
        }
        Field::V0 if tok == "v0" => Ok(0),
        Field::V0 => Err(bad("`v0`")),
        Field::Csr => field
            .range()
            .find(|&a| csr(a).name() == tok)
            .ok_or_else(|| bad("a vector CSR")),
        Field::Vtype11 | Field::Vtype10 => {
            let text = toks.join(", ");
            let valid = |b: &i64| VType::from_bits(*b as u64).is_some();
            let mut values = field.range().filter(valid);
            values
                .find(|&b| vtype(b).to_string() == text)
                .ok_or_else(|| bad("`eN, mN, ta|tu, ma|mu`"))
        }
        // Written as a 32-bit hex pattern, e.g. `0xffffffff` for -1.
        Field::Upper => match int(tok) {
            Some(v) if (i64::from(i32::MIN)..=i64::from(u32::MAX)).contains(&v) => {
                Ok(i64::from(v as u32 as i32))
            }
            _ => Err(bad("a 32-bit integer")),
        },
        _ => int(tok).ok_or_else(|| bad("integer")),
    }
}

/// A decimal or `0x` hex integer, optionally negative.
fn int(s: &str) -> Option<i64> {
    let (neg, t) = match s.strip_prefix('-') {
        Some(t) => (true, t),
        None => (false, s),
    };
    let v = match t.strip_prefix("0x") {
        Some(h) => i64::from_str_radix(h, 16).ok()?,
        None => t.parse::<i64>().ok()?,
    };
    if neg {
        v.checked_neg()
    } else {
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_reads_display() {
        for text in [
            "addi x10, x10, -4",
            "sltiu x1, x2, 7",
            "lw x5, 8(x11)",
            "sw x11, -4(x2)",
            "lui x7, 0xffffffff",
            "csrr x5, vlenb",
            "vsetvli x13, x10, e32, mf2, ta, mu",
            "vadd.vv v8, v8, v9, v0.t",
            "vse32.v v8, (x11)",
            "vmerge.vim v2, v4, -8, v0",
            "vid.v v3",
            "ecall",
        ] {
            let (i, label) = parse_asm(text).unwrap();
            assert_eq!((i.to_string().as_str(), label), (text, None));
        }
        assert!(
            parse_asm("sltui x1, x2, 7").is_err(),
            "nonstandard spelling"
        );
        let (i, label) = parse_asm("bne x5, x0, loop").unwrap();
        assert_eq!(
            (i.to_string().as_str(), label),
            ("bne x5, x0, 0", Some("loop"))
        );
    }

    #[test]
    fn parse_rejects_bad_operands() {
        for (text, needle) in [
            ("vid.v", "expects 1 operands, got 0"),
            ("vadd.vv v8", "expects 3"),
            ("addi x99, x0, 1", "x99"),
            ("addi x1, x0, 4096", "4096"),
            ("vsetvli x0, x5, e32, m3, ta, mu", "m3"),
            ("vle32.v v8, 4(x1)", "expects 2"),
            ("beq x0, x0, 3", "misaligned"),
            ("frobnicate x1", "frobnicate"),
        ] {
            let e = parse_asm(text).unwrap_err();
            assert!(e.contains(needle), "{text}: {e}");
        }
    }
}
