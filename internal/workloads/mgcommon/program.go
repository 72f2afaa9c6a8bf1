package mgcommon

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/core"
)

// gridSize maps a scale to the interior grid: test 63^2, small 127^2,
// default 255^2 (the Splash default input is 258^2 including the boundary
// ring), large 511^2.
func gridSize(s core.Scale) int {
	switch s {
	case core.ScaleTest:
		return 63
	case core.ScaleSmall:
		return 127
	case core.ScaleLarge:
		return 511
	default:
		return 255
	}
}

// instance is one OCEAN solve; it implements core.Instance and
// core.ResultWriter, and the Solver's Cycles is the programs' test hook.
type instance struct {
	*Solver
	name string // error prefix
	ran  bool
}

// Prepare builds the Poisson problem of cfg's scale in the row storage
// layout allocates; name prefixes its errors.
func Prepare(cfg core.Config, name string, layout Allocator) (core.Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := gridSize(cfg.Scale)
	if cfg.Threads > n {
		return nil, fmt.Errorf("%s: threads (%d) exceed grid rows (%d)", name, cfg.Threads, n)
	}
	return &instance{Solver: NewSolver(n, cfg.Threads, cfg.Kit, layout, FillSinRHS), name: name}, nil
}

// Run implements core.Instance.
func (in *instance) Run() error {
	if in.ran {
		return fmt.Errorf("%s: instance reused", in.name)
	}
	in.ran = true
	core.Parallel(in.threads, in.Solve)
	if !in.Converged() {
		return fmt.Errorf("%s: no convergence within %d V-cycles", in.name, in.cycles)
	}
	return nil
}

// Verify implements core.Instance: see VerifyPoisson.
func (in *instance) Verify() error {
	if !in.ran {
		return fmt.Errorf("%s: verify before run", in.name)
	}
	return VerifyPoisson(in.Solver)
}

// WriteResult implements core.ResultWriter: the cycle count, then every
// level's U and F, row by row.
func (in *instance) WriteResult(w io.Writer) error {
	if err := binary.Write(w, binary.LittleEndian, float64(in.cycles)); err != nil {
		return err
	}
	for _, lv := range in.levels {
		for _, g := range [][][]float64{lv.U, lv.F} {
			for _, row := range g {
				if err := binary.Write(w, binary.LittleEndian, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
