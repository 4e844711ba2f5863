package vet_test

import (
	"testing"

	"carsgo/internal/abi"
	"carsgo/internal/asm"
	"carsgo/internal/vet"
)

// FuzzVet drives the whole front half of the toolchain with arbitrary
// assembly: anything the assembler accepts must flow through the
// pre-ABI verifier, the linker in every mode, and the linked-program
// verifier without panicking. Diagnostics (including errors) are fine;
// crashes are not.
func FuzzVet(f *testing.F) {
	f.Add(".kernel k\nEXIT\n")
	f.Add(".func f\n@!P3 IADDI R4, R4, 1\nRET\n")
	f.Add(".kernel k\nloop:\nBRA loop\nEXIT\n")
	f.Add(".kernel k\nCALLI [R8], a, b\nEXIT\n.func a\nRET\n.func b\nRET\n")
	f.Add(".func helper callee_saved=1\nMOV R16, R4\nIADD R4, R4, R16\nRET\n.kernel main\nMOV R4, R8\nCALL helper\nEXIT\n")
	f.Add(".func f callee_saved=2\nMOV R16, R4\nCALL f\nIADD R4, R4, R16\nRET\n.kernel main\nCALL f\nEXIT\n")
	// Liveness stressor: values live across a call, a predicated
	// partial write, and an over-wide window in one function.
	f.Add(".func g\nRET\n.func f callee_saved=3\nMOV R16, R4\nMOV R17, R4\nISETP P1, R16, R17\nCALL g\n@P1 MOV R17, R16\nIADD R4, R16, R17\nRET\n.kernel main\nCALL f\nEXIT\n")
	f.Fuzz(func(t *testing.T, src string) {
		m, err := asm.ParseString(src)
		if err != nil {
			return
		}
		vet.Modules(m)
		for _, mode := range abi.Modes {
			p, err := abi.Link(mode, m)
			if err != nil {
				continue
			}
			vet.Program(p)
		}
	})
}

// FuzzUniformity targets the sync/race half of the verifier: the
// uniformity dataflow, divergence taint, reconvergence checks, and the
// affine race analysis must neither panic nor contradict themselves on
// arbitrary control flow. Seeds cover the known-hard shapes: a
// divergent barrier, a divergent exit followed by a barrier, a
// same-word shared race, and a clean per-thread shared pattern.
func FuzzUniformity(f *testing.F) {
	// Barrier skipped by odd lanes: the canonical divergence crasher.
	f.Add(".kernel k\nS2R R8, SR_LANEID\nANDI R9, R8, 1\nSETPI.NE P0, R9, 0\n@P0 BRA skip\nBAR.SYNC\nskip:\nEXIT\n")
	// Divergent exit, then a barrier the dead lanes never reach.
	f.Add(".kernel k\nS2R R8, SR_LANEID\nANDI R9, R8, 1\nSETPI.NE P0, R9, 0\n@!P0 BRA join\nEXIT\njoin:\nBAR.SYNC\nEXIT\n")
	// Same-word shared store/load race across the whole block.
	f.Add(".kernel k\nS2R R8, SR_TID\nMOVI R9, 0\nSTS [R9], R8\nLDS R10, [R9]\nEXIT\n")
	// Clean twin: per-thread slots separated by a barrier.
	f.Add(".kernel k\nS2R R8, SR_TID\nANDI R9, R8, 1023\nSHLI R9, R9, 2\nSTS [R9], R8\nBAR.SYNC\nLDS R10, [R9]\nEXIT\n")
	// Uniform barrier in a loop, with the counter in shared memory.
	f.Add(".kernel k\nMOVI R9, 0\nMOVI R10, 0\nloop:\nSTS [R9], R10\nBAR.SYNC\nIADDI R10, R10, 1\nSETPI.LT P0, R10, 4\n@P0 BRA loop\nEXIT\n")
	// A loop headed by instruction 0 whose back edge makes the branch
	// around its barrier divergent.
	f.Add(loopAtEntry)
	// A uniform loop, a divergent diamond, then a branch on the loop's
	// value around a barrier.
	f.Add(loopThenDiamond)
	f.Fuzz(func(t *testing.T, src string) {
		m, err := asm.ParseString(src)
		if err != nil {
			return
		}
		for _, mode := range abi.Modes {
			p, err := abi.Link(mode, m)
			if err != nil {
				continue
			}
			rep := vet.Report(p)
			for _, kr := range rep.Kernels {
				if len(kr.RacePairs) > 0 && kr.RaceFree {
					t.Fatalf("%s/%s: race pairs recorded but RaceFree=true", mode, kr.Kernel)
				}
			}
		}
	})
}
