# Kernel listings (dump_kernels --lmul 1 and --lmul 8), the seed corpus of
# tests/parse_fuzz.rs. Kernels are separated by blank lines.

elem_vx_Add:
     0:  beq x10, x0, 36
     4:  vsetvli x5, x10, e32, m1, ta, mu
     8:  vle32.v v4, (x11)
     c:  vadd.vx v4, v4, x12
    10:  vse32.v v4, (x11)
    14:  slli x28, x5, 2
    18:  add x11, x11, x28
    1c:  sub x10, x10, x5
    20:  bne x10, x0, -28
    24:  ecall

get_flags:
     0:  beq x10, x0, 44
     4:  vsetvli x5, x10, e32, m1, ta, mu
     8:  vle32.v v4, (x11)
     c:  vsrl.vx v4, v4, x13
    10:  vand.vi v4, v4, 1
    14:  vse32.v v4, (x12)
    18:  slli x28, x5, 2
    1c:  add x11, x11, x28
    20:  add x12, x12, x28
    24:  sub x10, x10, x5
    28:  bne x10, x0, -36
    2c:  ecall

select:
     0:  beq x10, x0, 56
     4:  vsetvli x5, x10, e32, m1, ta, mu
     8:  vle32.v v4, (x11)
     c:  vmsne.vi v0, v4, 0
    10:  vle32.v v5, (x13)
    14:  vle32.v v5, (x12), v0.t
    18:  vse32.v v5, (x14)
    1c:  slli x28, x5, 2
    20:  add x11, x11, x28
    24:  add x12, x12, x28
    28:  add x13, x13, x28
    2c:  add x14, x14, x28
    30:  sub x10, x10, x5
    34:  bne x10, x0, -48
    38:  ecall

permute:
     0:  beq x10, x0, 44
     4:  vsetvli x5, x10, e32, m1, ta, mu
     8:  vle32.v v4, (x13)
     c:  vsll.vi v4, v4, 2
    10:  vle32.v v5, (x11)
    14:  vsuxei32.v v5, (x12), v4
    18:  slli x28, x5, 2
    1c:  add x11, x11, x28
    20:  add x13, x13, x28
    24:  sub x10, x10, x5
    28:  bne x10, x0, -36
    2c:  ecall

enumerate:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 56
     8:  vsetvli x5, x10, e32, m1, ta, mu
     c:  vle32.v v4, (x11)
    10:  vmseq.vx v1, v4, x13
    14:  viota.m v5, v1
    18:  vadd.vx v5, v5, x7
    1c:  vse32.v v5, (x12)
    20:  vcpop.m x28, v1
    24:  add x7, x7, x28
    28:  slli x28, x5, 2
    2c:  add x11, x11, x28
    30:  add x12, x12, x28
    34:  sub x10, x10, x5
    38:  bne x10, x0, -48
    3c:  addi x10, x7, 0
    40:  ecall

scan_plus_inc:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 88
     8:  vsetvli x28, x0, e32, m1, ta, mu
     c:  addi x15, x0, 0
    10:  vmv.v.x v6, x15
    14:  vsetvli x5, x10, e32, m1, ta, mu
    18:  vle32.v v4, (x11)
    1c:  addi x6, x0, 1
    20:  bgeu x6, x5, 24
    24:  vmv.v.v v5, v6
    28:  vslideup.vx v5, v4, x6
    2c:  vadd.vv v4, v4, v5
    30:  slli x6, x6, 1
    34:  bltu x6, x5, -16
    38:  vadd.vx v4, v4, x7
    3c:  vse32.v v4, (x11)
    40:  addi x28, x5, -1
    44:  vslidedown.vx v5, v4, x28
    48:  vmv.x.s x7, v5
    4c:  slli x28, x5, 2
    50:  add x11, x11, x28
    54:  sub x10, x10, x5
    58:  bne x10, x0, -68
    5c:  ecall

seg_scan_plus:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 136
     8:  vsetvli x28, x0, e32, m1, ta, mu
     c:  addi x15, x0, 0
    10:  addi x16, x0, 1
    14:  vmv.v.x v8, x15
    18:  vmv.v.x v9, x16
    1c:  vsetvli x5, x10, e32, m1, ta, mu
    20:  vle32.v v5, (x11)
    24:  vle32.v v4, (x12)
    28:  vmsne.vi v1, v4, 0
    2c:  vmsbf.m v2, v1
    30:  vmv.s.x v4, x16
    34:  addi x6, x0, 1
    38:  bgeu x6, x5, 40
    3c:  vmsne.vi v0, v4, 1
    40:  vmv.v.v v6, v8
    44:  vslideup.vx v6, v5, x6
    48:  vadd.vv v5, v5, v6, v0.t
    4c:  vmv.v.v v7, v9
    50:  vslideup.vx v7, v4, x6
    54:  vor.vv v4, v4, v7
    58:  slli x6, x6, 1
    5c:  bltu x6, x5, -32
    60:  vmand.mm v0, v2, v2
    64:  vadd.vx v5, v5, x7, v0.t
    68:  vse32.v v5, (x11)
    6c:  addi x28, x5, -1
    70:  vslidedown.vx v6, v5, x28
    74:  vmv.x.s x7, v6
    78:  slli x28, x5, 2
    7c:  add x11, x11, x28
    80:  add x12, x12, x28
    84:  sub x10, x10, x5
    88:  bne x10, x0, -108
    8c:  ecall

elem_baseline_plus:
     0:  beq x10, x0, 28
     4:  lwu x5, 0(x11)
     8:  add x5, x5, x12
     c:  sw x5, 0(x11)
    10:  addi x11, x11, 4
    14:  addi x10, x10, -1
    18:  bne x10, x0, -20
    1c:  ecall

scan_baseline_plus:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 28
     8:  lwu x5, 0(x11)
     c:  add x7, x7, x5
    10:  sw x7, 0(x11)
    14:  addi x11, x11, 4
    18:  addi x10, x10, -1
    1c:  bne x10, x0, -20
    20:  ecall

seg_scan_baseline_plus:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 44
     8:  lwu x28, 0(x12)
     c:  beq x28, x0, 8
    10:  addi x7, x0, 0
    14:  lwu x5, 0(x11)
    18:  add x7, x7, x5
    1c:  sw x7, 0(x11)
    20:  addi x11, x11, 4
    24:  addi x12, x12, 4
    28:  addi x10, x10, -1
    2c:  bne x10, x0, -36
    30:  ecall

elem_vx_Add:
     0:  beq x10, x0, 36
     4:  vsetvli x5, x10, e32, m8, ta, mu
     8:  vle32.v v8, (x11)
     c:  vadd.vx v8, v8, x12
    10:  vse32.v v8, (x11)
    14:  slli x28, x5, 2
    18:  add x11, x11, x28
    1c:  sub x10, x10, x5
    20:  bne x10, x0, -28
    24:  ecall

get_flags:
     0:  beq x10, x0, 44
     4:  vsetvli x5, x10, e32, m8, ta, mu
     8:  vle32.v v8, (x11)
     c:  vsrl.vx v8, v8, x13
    10:  vand.vi v8, v8, 1
    14:  vse32.v v8, (x12)
    18:  slli x28, x5, 2
    1c:  add x11, x11, x28
    20:  add x12, x12, x28
    24:  sub x10, x10, x5
    28:  bne x10, x0, -36
    2c:  ecall

select:
     0:  beq x10, x0, 56
     4:  vsetvli x5, x10, e32, m8, ta, mu
     8:  vle32.v v8, (x11)
     c:  vmsne.vi v0, v8, 0
    10:  vle32.v v16, (x13)
    14:  vle32.v v16, (x12), v0.t
    18:  vse32.v v16, (x14)
    1c:  slli x28, x5, 2
    20:  add x11, x11, x28
    24:  add x12, x12, x28
    28:  add x13, x13, x28
    2c:  add x14, x14, x28
    30:  sub x10, x10, x5
    34:  bne x10, x0, -48
    38:  ecall

permute:
     0:  beq x10, x0, 44
     4:  vsetvli x5, x10, e32, m8, ta, mu
     8:  vle32.v v8, (x13)
     c:  vsll.vi v8, v8, 2
    10:  vle32.v v16, (x11)
    14:  vsuxei32.v v16, (x12), v8
    18:  slli x28, x5, 2
    1c:  add x11, x11, x28
    20:  add x13, x13, x28
    24:  sub x10, x10, x5
    28:  bne x10, x0, -36
    2c:  ecall

enumerate:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 56
     8:  vsetvli x5, x10, e32, m8, ta, mu
     c:  vle32.v v8, (x11)
    10:  vmseq.vx v1, v8, x13
    14:  viota.m v16, v1
    18:  vadd.vx v16, v16, x7
    1c:  vse32.v v16, (x12)
    20:  vcpop.m x28, v1
    24:  add x7, x7, x28
    28:  slli x28, x5, 2
    2c:  add x11, x11, x28
    30:  add x12, x12, x28
    34:  sub x10, x10, x5
    38:  bne x10, x0, -48
    3c:  addi x10, x7, 0
    40:  ecall

scan_plus_inc:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 88
     8:  vsetvli x28, x0, e32, m8, ta, mu
     c:  addi x15, x0, 0
    10:  vmv.v.x v24, x15
    14:  vsetvli x5, x10, e32, m8, ta, mu
    18:  vle32.v v8, (x11)
    1c:  addi x6, x0, 1
    20:  bgeu x6, x5, 24
    24:  vmv.v.v v16, v24
    28:  vslideup.vx v16, v8, x6
    2c:  vadd.vv v8, v8, v16
    30:  slli x6, x6, 1
    34:  bltu x6, x5, -16
    38:  vadd.vx v8, v8, x7
    3c:  vse32.v v8, (x11)
    40:  addi x28, x5, -1
    44:  vslidedown.vx v16, v8, x28
    48:  vmv.x.s x7, v16
    4c:  slli x28, x5, 2
    50:  add x11, x11, x28
    54:  sub x10, x10, x5
    58:  bne x10, x0, -68
    5c:  ecall

seg_scan_plus:
     0:  lui x31, 0x2
     4:  addi x31, x31, -2048
     8:  sub x2, x2, x31
     c:  addi x8, x2, 0
    10:  addi x30, x8, 0
    14:  lui x29, 0x2
    18:  addi x29, x29, -2048
    1c:  add x29, x8, x29
    20:  sd x0, 0(x30)
    24:  addi x30, x30, 8
    28:  bne x30, x29, -8
    2c:  addi x7, x0, 0
    30:  beq x10, x0, 160
    34:  vsetvli x28, x0, e32, m8, ta, mu
    38:  addi x15, x0, 0
    3c:  addi x16, x0, 1
    40:  vsetvli x5, x10, e32, m8, ta, mu
    44:  vle32.v v16, (x11)
    48:  addi x31, x8, 0
    4c:  vs8r.v v16, (x31)
    50:  vle32.v v8, (x12)
    54:  vmsne.vi v1, v8, 0
    58:  vmsbf.m v2, v1
    5c:  vmv.s.x v8, x16
    60:  addi x6, x0, 1
    64:  bgeu x6, x5, 56
    68:  vmsne.vi v0, v8, 1
    6c:  vmv.v.x v24, x15
    70:  addi x31, x8, 0
    74:  vl8re8.v v16, (x31)
    78:  vslideup.vx v24, v16, x6
    7c:  vadd.vv v16, v16, v24, v0.t
    80:  addi x31, x8, 0
    84:  vs8r.v v16, (x31)
    88:  vmv.v.x v24, x16
    8c:  vslideup.vx v24, v8, x6
    90:  vor.vv v8, v8, v24
    94:  slli x6, x6, 1
    98:  bltu x6, x5, -48
    9c:  vmand.mm v0, v2, v2
    a0:  addi x31, x8, 0
    a4:  vl8re8.v v16, (x31)
    a8:  vadd.vx v16, v16, x7, v0.t
    ac:  vse32.v v16, (x11)
    b0:  addi x28, x5, -1
    b4:  vslidedown.vx v24, v16, x28
    b8:  vmv.x.s x7, v24
    bc:  slli x28, x5, 2
    c0:  add x11, x11, x28
    c4:  add x12, x12, x28
    c8:  sub x10, x10, x5
    cc:  bne x10, x0, -140
    d0:  lui x31, 0x2
    d4:  addi x31, x31, -2048
    d8:  add x2, x2, x31
    dc:  ecall

elem_baseline_plus:
     0:  beq x10, x0, 28
     4:  lwu x5, 0(x11)
     8:  add x5, x5, x12
     c:  sw x5, 0(x11)
    10:  addi x11, x11, 4
    14:  addi x10, x10, -1
    18:  bne x10, x0, -20
    1c:  ecall

scan_baseline_plus:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 28
     8:  lwu x5, 0(x11)
     c:  add x7, x7, x5
    10:  sw x7, 0(x11)
    14:  addi x11, x11, 4
    18:  addi x10, x10, -1
    1c:  bne x10, x0, -20
    20:  ecall

seg_scan_baseline_plus:
     0:  addi x7, x0, 0
     4:  beq x10, x0, 44
     8:  lwu x28, 0(x12)
     c:  beq x28, x0, 8
    10:  addi x7, x0, 0
    14:  lwu x5, 0(x11)
    18:  add x7, x7, x5
    1c:  sw x7, 0(x11)
    20:  addi x11, x11, 4
    24:  addi x12, x12, 4
    28:  addi x10, x10, -1
    2c:  bne x10, x0, -36
    30:  ecall

