package cache

import "fmt"

// Config describes the simulated CMP memory system. The defaults mirror
// the configuration class used by LLC replacement studies of the paper's
// era: an 8-core CMP with 32 KB 8-way L1 data caches, 256 KB 8-way private
// L2 caches and a shared 16-way LLC evaluated at 4 MB and 8 MB, all with
// 64-byte blocks.
type Config struct {
	Cores   int
	L1Size  int // bytes, per core
	L1Ways  int
	L2Size  int // bytes, per core
	L2Ways  int
	LLCSize int // bytes, shared
	LLCWays int
}

// KB and MB are byte-count helpers for configuration literals.
const (
	KB = 1024
	MB = 1024 * KB
)

// DefaultConfig returns the paper's 4 MB-LLC machine.
func DefaultConfig() Config {
	return Config{
		Cores:   8,
		L1Size:  32 * KB,
		L1Ways:  8,
		L2Size:  256 * KB,
		L2Ways:  8,
		LLCSize: 4 * MB,
		LLCWays: 16,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 128 {
		return fmt.Errorf("cache: core count %d outside [1,128]", c.Cores)
	}
	check := func(label string, size, ways int) error {
		if _, err := Geometry(size, ways); err != nil {
			return fmt.Errorf("%s: %w", label, err)
		}
		return nil
	}
	if err := check("L1", c.L1Size, c.L1Ways); err != nil {
		return err
	}
	if err := check("L2", c.L2Size, c.L2Ways); err != nil {
		return err
	}
	return check("LLC", c.LLCSize, c.LLCWays)
}

// String renders the configuration as a one-line summary.
func (c Config) String() string {
	return fmt.Sprintf("%d cores, L1 %dKB/%dw, L2 %dKB/%dw, LLC %dMB/%dw",
		c.Cores, c.L1Size/KB, c.L1Ways, c.L2Size/KB, c.L2Ways, c.LLCSize/MB, c.LLCWays)
}
