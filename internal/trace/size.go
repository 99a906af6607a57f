package trace

import "unsafe"

// Instr promises to stay 16 bytes (multi-million-record materialized
// traces at 16 bytes each depend on it). The array length below is a
// constant expression, so any field change that grows or shrinks the
// struct fails to compile here rather than silently bloating traces.
var _ [16]byte = [unsafe.Sizeof(Instr{})]byte{}
var _ [unsafe.Sizeof(Instr{})]byte = [16]byte{}
